"""Command line: parse arguments, run one subcommand, map errors to exit
codes.

A ``-c`` form writes its subcommand's slice of the report: the
``pipeline.Run`` method of that name, on the config with the fields its
flags override set. The flag forms call the analysis layers directly.
Each handler imports what it runs in its own body, so ``--help`` compiles
only the parser and a subcommand loads no layer it does not run.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AgrodiagError

# names defined elsewhere that stay reachable as ``agrodiag.cli.<name>``;
# each is imported from its submodule on first access (PEP 562)
_FORWARDED = {
    "REPORT_ARTIFACTS": "pipeline",
    "load_run_config": "pipeline",
    "compute_artifacts": "pipeline",
    "assemble_indicators": "pipeline",
    "run_pipeline": "pipeline",
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


def _emit(args, artifacts: dict[str, str]) -> None:
    from .serialize import write_artifacts

    if args.out is not None:
        write_artifacts(Path(args.out), artifacts)
    else:
        for name in sorted(artifacts):
            sys.stdout.write(artifacts[name])


# flag -> the run-config field it overrides in a ``-c`` subcommand
_OVERRIDES = {
    "base": "decomposition_base", "terminal": "decomposition_terminal",
    "mode": "period_mode", "base_year": "tfp_base_year",
    "method": "growth_method", "tree": "tree",
}


def _run(args):
    """The ``pipeline.Run`` of ARGS's config, with its flags' overrides."""
    from .pipeline import Run, load_run_config

    config = load_run_config(args.config)
    for flag, key in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, key, value)
    return Run(config)


def _cmd_run(args) -> int:
    """A ``-c`` subcommand: emit the artifacts of its ``Run`` method."""
    _emit(args, getattr(_run(args), args.command)())
    return 0


def _cmd_validate(args) -> int:
    run = _run(args).load()
    panel = run.panel
    print(f"crop panel: {len(panel)} observations, {len(panel.crops)} crops, "
          f"years {panel.years[0]}-{panel.years[-1]}")
    io_years = run.io_panel.years
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(run.prices)} commodities "
          f"({', '.join(sorted(run.prices))})")
    print(f"land use: {len(run.land)} years")
    print(f"value/cost series: {len(run.value_cost[0])} years")
    region, nation = run.areas
    print(f"area tables: {len(region.groups)} region groups, "
          f"{len(nation.groups)} nation groups")
    print("all inputs valid")
    return 0


def _cmd_decompose(args) -> int:
    if args.config is not None:
        return _cmd_run(args)
    if args.crop_panel is None or args.base is None or args.terminal is None:
        print("error: decompose needs --config or --crop-panel with "
              "--base and --terminal", file=sys.stderr)
        return 2
    from . import decomposition, ingest
    from .serialize import json_text

    result = decomposition.decompose(ingest.load_crop_panel(args.crop_panel),
                                     args.base, args.terminal,
                                     period_mode=args.mode or "triennium")
    _emit(args, {"decomposition.json": json_text(result.to_record(),
                                                 "decomposition.json")})
    return 0


def _cmd_tfp(args) -> int:
    if args.config is not None:
        return _cmd_run(args)
    if args.io_panel is None:
        print("error: tfp needs --config or --io-panel", file=sys.stderr)
        return 2
    from . import ingest, productivity
    from .serialize import index_csvs

    io_panel = ingest.load_io_panel(args.io_panel)
    _emit(args, index_csvs(productivity.index_series(io_panel, args.base_year)))
    return 0


def _cmd_cai(args) -> int:
    if args.region is None or args.nation is None:
        if args.config is not None:
            return _cmd_run(args)
        print("error: cai needs --config or both --region and --nation",
              file=sys.stderr)
        return 2
    from . import advantage
    from .serialize import cai_csv

    region = advantage.load_area_share_table(args.region, "region")
    nation = advantage.load_area_share_table(args.nation, "nation")
    _emit(args, {"cai.csv": cai_csv(advantage.cai_table(region, nation))})
    return 0


def _cmd_diagnose(args) -> int:
    if args.indicators is not None:
        from . import diagnostics
        from .serialize import json_text, read_json

        path = Path(args.indicators)
        indicators = diagnostics.IndicatorSet.from_dict(
            read_json(path, "indicators file"), f"indicators file {path}")
        tree = diagnostics.resolve_tree(args.tree or "builtin", Path("."))
        report = diagnostics.evaluate(tree, indicators)
        artifacts = {"diagnosis.json": json_text(report.to_dict(),
                                                 "diagnosis.json")}
    elif args.config is not None:
        if args.tree not in (None, "builtin"):
            # a CLI-supplied tree path is relative to the caller, not the config
            args.tree = str(Path(args.tree).absolute())
        run = _run(args)
        artifacts, report = run.diagnose(), run.diagnosis
    else:
        print("error: diagnose needs --indicators or --config",
              file=sys.stderr)
        return 2
    if args.out is not None:
        _emit(args, artifacts)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_report(args) -> int:
    from .pipeline import load_run_config, run_pipeline

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

    def add(name: str, handler, help_: str, config_required: bool = False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--config", "-c", required=config_required,
                       help="run-config JSON file")
        p.add_argument("--out", "-o", default=None,
                       help="output directory (default: print to stdout)")
        return p

    add("validate", _cmd_validate, "load and validate all configured inputs",
        config_required=True)

    p = add("decompose", _cmd_decompose, "revenue-change decomposition")
    p.add_argument("--crop-panel", help="crop panel CSV (instead of --config)")
    p.add_argument("--base", type=int, help="base year (or TE end year)")
    p.add_argument("--terminal", type=int, help="terminal year (or TE end year)")
    p.add_argument("--mode", choices=("triennium", "endpoint"),
                   help="period mode (default: triennium)")

    p = add("tfp", _cmd_tfp, "output/input/TFP index series")
    p.add_argument("--io-panel", help="io panel CSV (instead of --config)")
    p.add_argument("--base-year", type=int, help="index base year (=100)")

    p = add("growth", _cmd_run, "average annual TFP growth per period",
            config_required=True)
    p.add_argument("--method", choices=("loglinear", "cagr"))

    add("markets", _cmd_run, "price break stats and ratio series",
        config_required=True)

    p = add("cai", _cmd_cai, "comparative-advantage table")
    p.add_argument("--region", help="region area table (crop-panel schema)")
    p.add_argument("--nation", help="nation area table (crop-panel schema)")

    p = add("diagnose", _cmd_diagnose, "evaluate a diagnostic tree")
    p.add_argument("--tree", default=None,
                   help="'builtin' (default) or a tree-config JSON path")
    p.add_argument("--indicators", default=None,
                   help="indicators.json to evaluate; with --config instead, "
                        "the indicators are assembled from the inputs")

    add("report", _cmd_report, "full pipeline: all artifacts + diagnosis",
        config_required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
