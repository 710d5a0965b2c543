import pytest

from modelcat import load_fixture, minimal_model_structure
from modelcat.census import enumerate_model_structures

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Surface the one-line acceptance verdicts after the test run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pt():
    return load_fixture("pt.cat")


@pytest.fixture(scope="session")
def arrow():
    return load_fixture("arrow.cat")


@pytest.fixture(scope="session")
def chain2():
    return load_fixture("chain2.cat")


@pytest.fixture(scope="session")
def diamond():
    return load_fixture("diamond.cat")


@pytest.fixture(scope="session")
def retract():
    return load_fixture("retract.cat")


@pytest.fixture(scope="session")
def bool3():
    return load_fixture("bool3.cat")


@pytest.fixture(scope="session")
def arrow_census(arrow):
    return enumerate_model_structures(arrow, "pruned")


@pytest.fixture(scope="session")
def chain2_census(chain2):
    return enumerate_model_structures(chain2, "pruned")


@pytest.fixture(scope="session")
def diamond_census(diamond):
    return enumerate_model_structures(diamond, "pruned")


@pytest.fixture(scope="session")
def bool3_census(bool3):
    return enumerate_model_structures(bool3, "pruned")


@pytest.fixture(scope="session")
def diamond_minimal(diamond):
    return minimal_model_structure(diamond)


@pytest.fixture(scope="session")
def arrow_minimal(arrow):
    return minimal_model_structure(arrow)
