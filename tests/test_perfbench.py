"""The benchmark's span tracer still finds the functions it times."""
import importlib
import importlib.util
from pathlib import Path


def test_each_traced_span_binds_but_the_three_the_program_lacks():
    # resolved by ``Tracer.install`` itself, over every module it names, so
    # a refactor that moves a traced function fails here instead of
    # leaving its per-layer metric at 0
    spec = importlib.util.spec_from_file_location(
        "spans", Path(__file__).parents[1] / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, _ in spans.TRACED:
        importlib.import_module(module)
    tracer = spans.Tracer()
    try:
        sites = tracer.install()
    finally:
        tracer.uninstall()
    assert [name for name, count in sites.items() if not count] == [
        "cli.compute_artifacts", "productivity.build_index",
        "markets.share_table"]
