"""Command line: parse arguments, run one subcommand, map errors to exit
codes.

Every subcommand but ``report`` and ``validate`` writes its slice of the
report: the ``pipeline.Run`` method of its name, on the run config of
``-c`` with the fields its flags set. A flag overrides its field of the
config; without ``-c``, the flags must name every input the slice reads.
Each handler imports what it runs in its own body, so ``--help`` and a
usage error compile only the parser.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AgrodiagError

# names defined elsewhere that stay reachable as ``agrodiag.cli.<name>``,
# each imported from its submodule on first access (PEP 562): the span
# tracer in ``perfbench/spans.py`` looks these two up here to find the
# functions it times
_FORWARDED = {
    "assemble_indicators": "pipeline",
    "write_artifacts": "serialize",
}


def __getattr__(name: str):
    try:
        submodule = _FORWARDED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __package__), name)
    globals()[name] = value
    return value


# -- subcommand handlers ---------------------------------------------------


# flag -> the run-config field it sets; a path is relative to the working
# directory, also with ``-c``, and kept as typed, since errors name it
_OVERRIDES = {
    "crop_panel": "crop_panel", "io_panel": "io_panel",
    "region": "area_shares_region", "nation": "area_shares_nation",
    "indicators": "indicators", "tree": "tree",
    "base": "decomposition_base", "terminal": "decomposition_terminal",
    "mode": "period_mode", "base_year": "tfp_base_year",
    "method": "growth_method",
}

# subcommand -> the flags it needs without ``-c``, and the usage error
# when one of them is missing
_NEEDS = {
    "decompose": (("crop_panel", "base", "terminal"), "decompose needs "
                  "--config or --crop-panel with --base and --terminal"),
    "tfp": (("io_panel",), "tfp needs --config or --io-panel"),
    "cai": (("region", "nation"),
            "cai needs --config or both --region and --nation"),
    "diagnose": (("indicators",), "diagnose needs --indicators or --config"),
}


def _run(args):
    """The ``pipeline.Run`` of ARGS's config, each flag given setting its
    field; without ``-c``, every field with no default is ``None``."""
    from .config import RunConfig, load_run_config
    from .pipeline import Run

    if args.config is None:
        config = RunConfig(**dict.fromkeys(
            RunConfig._fields - RunConfig._defaults.keys()))
    else:
        config = load_run_config(args.config)
    for flag, key in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, key, value)
    return Run(config)


def _cmd_run(args, run=None) -> int:
    """Write the artifacts of the subcommand's method of RUN (by default
    ARGS's) to ``-o`` as they are computed, or print them."""
    from .serialize import collect, write_artifacts

    artifacts = getattr(run or _run(args), args.command)()
    if args.out is not None:
        write_artifacts(Path(args.out), artifacts)
    else:
        for _, text in sorted(collect(artifacts).items()):
            sys.stdout.write(text)
    return 0


def _cmd_diagnose(args) -> int:
    """Print the tree's verdicts; with ``-o``, once they are reached, first
    write the artifacts through ``_cmd_run``."""
    run = _run(args)
    verdicts = run.diagnosis.to_text()
    if args.out is not None:
        _cmd_run(args, run)
    sys.stdout.write(verdicts)
    return 0


def _cmd_validate(args) -> int:
    run = _run(args)
    run.crop_years = set()  # count every row, keep none
    # each input read once and reduced to what is printed, in a fixed
    # order; nothing is printed unless every input is valid
    commodities = sorted(run.prices)
    value_cost_years = len(run.value_cost[0])
    rows, crops, years = run.panel.checked
    io_years = run.io_panel.years
    land_years = len(run.land)
    region, nation = (len(table.groups) for table in run.areas)
    print(f"crop panel: {rows} observations, {crops} crops, "
          f"years {years[0]}-{years[-1]}")
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(commodities)} commodities "
          f"({', '.join(commodities)})")
    print(f"land use: {land_years} years")
    print(f"value/cost series: {value_cost_years} years")
    print(f"area tables: {region} region groups, {nation} nation groups")
    print("all inputs valid")
    return 0


def _cmd_report(args) -> int:
    from .config import load_run_config
    from .pipeline import run_pipeline

    config = load_run_config(args.config)
    outdir = Path(args.out) if args.out is not None else config.output_dir
    report = run_pipeline(config, outdir)
    sys.stdout.write(report.to_text())
    print(f"artifacts written to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrodiag",
        description="Growth accounting, productivity indices and "
                    "binding-constraint diagnostics for crop panel data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler=_cmd_run,
            config_required: bool = False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--config", "-c", required=config_required,
                       help="run-config JSON file")
        p.add_argument("--out", "-o", default=None,
                       help="output directory (default: print to stdout)")
        return p

    add("validate", "load and validate all configured inputs", _cmd_validate,
        config_required=True)

    p = add("decompose", "revenue-change decomposition")
    p.add_argument("--crop-panel", help="crop panel CSV (overrides --config's)")
    p.add_argument("--base", type=int, help="base year (or TE end year)")
    p.add_argument("--terminal", type=int, help="terminal year (or TE end year)")
    p.add_argument("--mode", choices=("triennium", "endpoint"),
                   help="period mode (default: triennium)")

    p = add("tfp", "output/input/TFP index series")
    p.add_argument("--io-panel", help="io panel CSV (overrides --config's)")
    p.add_argument("--base-year", type=int, help="index base year (=100)")

    p = add("growth", "average annual TFP growth per period",
            config_required=True)
    p.add_argument("--method", choices=("loglinear", "cagr"))

    add("markets", "price break stats and ratio series", config_required=True)

    p = add("cai", "comparative-advantage table")
    p.add_argument("--region", help="region area table (crop-panel schema)")
    p.add_argument("--nation", help="nation area table (crop-panel schema)")

    p = add("diagnose", "evaluate a diagnostic tree", _cmd_diagnose)
    p.add_argument("--tree", default=None,
                   help="'builtin' or a tree-config JSON path (default: "
                        "--config's tree, else 'builtin')")
    p.add_argument("--indicators", default=None,
                   help="indicators.json to evaluate (default, with --config: "
                        "the indicators assembled from its inputs)")

    add("report", "full pipeline: all artifacts + diagnosis", _cmd_report,
        config_required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    needs, usage = _NEEDS.get(args.command, ((), ""))
    if args.config is None and None in (getattr(args, f) for f in needs):
        print(f"error: {usage}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: no inputs: {exc.filename or exc}", file=sys.stderr)
        return 1
    except AgrodiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
