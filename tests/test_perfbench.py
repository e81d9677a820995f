"""The benchmark's span tracer still finds the functions it times, and
times them."""
import importlib
import importlib.util
from pathlib import Path

import pytest


@pytest.fixture
def traced():
    """A ``spans.Tracer`` installed over every module ``TRACED`` names,
    with the site count per span name that ``install`` returned."""
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, _ in spans.TRACED:
        importlib.import_module(module)
    tracer = spans.Tracer()
    try:
        yield tracer, tracer.install()
    finally:
        tracer.uninstall()


def test_each_traced_span_binds_but_the_three_the_program_lacks(traced):
    # resolved by ``Tracer.install`` itself, so a refactor that moves a
    # traced function fails here instead of leaving its per-layer metric
    # at 0
    _, sites = traced
    assert [name for name, count in sites.items() if not count] == [
        "cli.compute_artifacts", "productivity.build_index",
        "markets.share_table"]


def test_each_bound_span_records_a_call_in_a_report(traced, fixture_dir,
                                                    tmp_path):
    # a span binds but records nothing when the program calls its
    # function through a binding the tracer did not patch, which would
    # also leave the span's per-layer metric at 0
    from agrodiag import cli

    tracer, sites = traced
    assert cli.main(["report", "-c", str(fixture_dir / "config.json"),
                     "-o", str(tmp_path / "out")]) == 0
    calls = tracer.summary()
    assert [name for name, count in sites.items()
            if count and name not in calls] == []
