import time

import pytest

from agrodiag import fixtures

# the whole suite must finish within this many seconds of wall time
SUITE_BUDGET_S = 60.0
_started = pytest.StashKey[float]()
_over_budget = pytest.StashKey[str]()  # the line that fails the run


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Synthetic input bundle shared by CLI and acceptance tests."""
    directory = tmp_path_factory.mktemp("inputs")
    fixtures.write_synthetic_inputs(directory)
    return directory


def pytest_sessionstart(session):
    session.stash[_started] = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    """An over-budget suite fails the run once, on a line of its own (see
    ``pytest_terminal_summary``), not in the teardown of whichever test
    ran last."""
    elapsed = time.perf_counter() - session.stash[_started]
    if elapsed < SUITE_BUDGET_S:
        return
    session.config.stash[_over_budget] = (
        f"FAILED suite time budget: wall time {elapsed:.1f}s, budget "
        f"{SUITE_BUDGET_S:.0f}s")
    if exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    if _over_budget in config.stash:
        terminalreporter.write_line(config.stash[_over_budget], red=True,
                                    bold=True)
