import importlib.util
import time
from pathlib import Path

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


@pytest.fixture(scope="session")
def scaled_dir(tmp_path_factory):
    """The benchmark's seed-1 scaled input bundle
    (``perfbench/gen.write_scaled_inputs``), shared read-only."""
    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    directory = tmp_path_factory.mktemp("scaled") / "inputs"
    gen.write_scaled_inputs(directory, 1)
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
