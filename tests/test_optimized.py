"""Test files under ``python -O``, where ``assert`` statements are
compiled away: every consistency check the package relies on must raise
by other means, and no verdict of the axiom and hypothesis tables may
depend on an ``assert``, so these files still run clean."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modelcat

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "test_file",
    [
        "test_acceptance.py", "test_census.py", "test_hypothesis_tables.py",
        "test_morphclass.py", "test_refusal.py",
    ],
)
def test_file_under_optimize(test_file):
    src = str(Path(modelcat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(TESTS)])}
    out = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(TESTS / test_file),
        ],
        cwd=TESTS.parent, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
