"""The subcommand handlers, which ``cli.main`` imports only once a command
line has parsed, and the mapping of an ``AgrodiagError`` to exit code 1.

Every subcommand but ``report`` and ``validate`` writes its slice of the
report through ``_cmd_run``: the ``pipeline.Run`` method of its name, on
the run config of ``-c`` with the fields its flags set. ``_HANDLERS``
names the subcommands with a handler of their own. Each handler imports
what it runs in its own body.
"""
import sys
from pathlib import Path

from .cli import _COMMANDS
from .errors import AgrodiagError


def run(args: dict) -> int:
    """Run the parsed command line ARGS and flush stdout; return its exit
    code. An ``AgrodiagError`` is printed to stderr and returns 1."""
    try:
        code = _HANDLERS.get(args["command"], _cmd_run)(args)
    except AgrodiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()  # a closed stdout fails here, not at exit
    return code


def _run(args: dict):
    """The ``pipeline.Run`` of ARGS's config, each flag given setting its
    field; without ``-c``, every field with no default is ``None``."""
    from .config import RunConfig, load_run_config
    from .pipeline import Run

    if "--config" not in args:
        config = RunConfig(**dict.fromkeys(
            RunConfig._fields - RunConfig._defaults.keys()))
    else:
        config = load_run_config(args["--config"])
    flags = _COMMANDS[args["command"]][1]
    for flag, value in args.items():
        if flag in flags:
            setattr(config, flags[flag][0], value)
    return Run(config)


def _cmd_run(args, run=None) -> int:
    """Write the artifacts of the subcommand's method of RUN (by default
    ARGS's) to ``-o`` as they are computed, or print them."""
    from .serialize import collect, write_artifacts

    artifacts = getattr(run or _run(args), args["command"])()
    if "--out" in args:
        write_artifacts(Path(args["--out"]), artifacts)
    else:
        for _, text in sorted(collect(artifacts).items()):
            sys.stdout.write(text)
    return 0


def _cmd_diagnose(args) -> int:
    """Print the tree's verdicts; with ``-o``, once they are reached, first
    write the artifacts through ``_cmd_run``."""
    run = _run(args)
    verdicts = run.diagnosis.to_text()
    if "--out" in args:
        _cmd_run(args, run)
    sys.stdout.write(verdicts)
    return 0


def _cmd_validate(args) -> int:
    # compiled before any input is read, so their parse scratch does not
    # add to the loaded inputs' peak
    from . import diagnostics, ingest, markets
    from .pipeline import indicator_units
    from .serialize import collect

    run = _run(args)
    config = run.config
    terminal = config.decomposition_terminal
    # each input read once, in a fixed order, and put through the calls
    # ``report`` refuses it with; nothing is printed unless all pass
    prices = run.prices
    for commodity in sorted(config.break_commodities):
        markets.break_analysis(prices[commodity], config.break_year,
                               ddof=config.cv_ddof)
    value_cost_years = len(markets.value_cost_ratio(*run.value_cost))
    markets.price_ratio(prices[config.grain_commodity],
                        prices[config.fertilizer_commodity])
    commodities = sorted(prices)
    del prices  # not held through the crop panel's load
    # count every row, keep the terminal triennium: its crops, which
    # ``diversification_group`` must be among, and its area and value
    # totals; the base triennium's years are checked against every year
    # counted
    panel = ingest.load_crop_panel(
        config.crop_panel, years=ingest.triennium_years(terminal))
    rows, crops, years = panel.checked
    ingest.triennium_span(config.decomposition_base, years)
    markets.group_share(panel, terminal, config.diversification_group)
    markets.crop_shares(panel, terminal, "value")
    # the crop panel is the largest input: freed before the next is read,
    # and before the layers that read the rest compile
    del panel
    from . import advantage, productivity
    # the TFP series, every growth window and the whole series' growth
    collect(run.growth())
    tfp = run.series["tfp"]
    productivity.avg_annual_growth(tfp, method=config.growth_method)
    io_years = tfp.years
    land = run.land
    markets.land_record(land)
    region, nation = run.areas
    advantage.cai_table(region, nation)
    # the tree, whose manifest must name only indicators ``report``
    # assembles, with the units it assembles them with
    tree = diagnostics.resolve_tree(config.tree)
    diagnostics.check_manifest(tree, indicator_units(config))
    print(f"crop panel: {rows} observations, {crops} crops, "
          f"years {years[0]}-{years[-1]}")
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(commodities)} commodities "
          f"({', '.join(commodities)})")
    print(f"land use: {len(land)} years")
    print(f"value/cost series: {value_cost_years} years")
    print(f"area tables: {len(region.groups)} region groups, "
          f"{len(nation.groups)} nation groups")
    print(f"tree: {len(tree.roots)} chains, {len(tree.nodes)} nodes")
    print("all inputs valid")
    return 0


def _cmd_report(args) -> int:
    """Write every artifact to ``-o``, or to the config's output directory,
    as each stage yields it; then print the tree's verdicts."""
    from .serialize import write_artifacts

    run = _run(args)
    outdir = Path(args["--out"]) if "--out" in args else run.config.output_dir
    write_artifacts(outdir, run.report())
    sys.stdout.write(run.diagnosis.to_text())
    print(f"artifacts written to {outdir}")
    return 0


# the subcommands that are not a ``pipeline.Run`` slice
_HANDLERS = {
    "validate": _cmd_validate,
    "diagnose": _cmd_diagnose,
    "report": _cmd_report,
}
