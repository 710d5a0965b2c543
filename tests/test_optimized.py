"""The acceptance suite under ``python -O``, where ``assert`` statements
are compiled away: every consistency check the package relies on must
raise by other means, so the suite still runs clean."""

import os
import subprocess
import sys
from pathlib import Path

import modelcat

TESTS = Path(__file__).resolve().parent


def test_acceptance_suite_under_optimize():
    src = str(Path(modelcat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(TESTS)])}
    out = subprocess.run(
        [
            sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(TESTS / "test_acceptance.py"),
        ],
        cwd=TESTS.parent, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
