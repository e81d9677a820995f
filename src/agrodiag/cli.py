"""Command line: parse arguments, run one subcommand, map errors to exit
codes. The pipeline itself lives in :mod:`agrodiag.pipeline`.

Subcommands
-----------
validate   load and check every input named in the config
decompose  revenue-change decomposition -> decomposition.json
tfp        output/input/TFP index series -> tfp_index.csv, figure2.csv
growth     average annual TFP growth per period -> growth_rates.json
markets    break stats, ratio series, share tables and land ratios ->
           break_stats.json, figure3/4.csv, shares.csv, land_ratios.json
cai        comparative-advantage table -> cai.csv
diagnose   evaluate a tree (against an indicators.json, or assembling the
           indicators from --config) -> diagnosis.json [+ indicators.json]
report     the full pipeline; the union of all artifacts above

Only argument parsing and error reporting are imported with this module;
each handler imports the pipeline and the layers it runs in its own body,
so ``--help`` compiles only the parser, and a subcommand loads no layer it
does not run.
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


def _cmd_validate(args) -> int:
    from .pipeline import load_inputs, load_run_config

    config = load_run_config(args.config)
    inputs = load_inputs(config)
    panel = inputs.panel
    print(f"crop panel: {len(panel)} observations, {len(panel.crops)} crops, "
          f"years {panel.years[0]}-{panel.years[-1]}")
    io_years = inputs.io_panel.years
    print(f"io panel: {len(io_years)} years, {io_years[0]}-{io_years[-1]}")
    print(f"price series: {len(inputs.prices)} commodities "
          f"({', '.join(sorted(inputs.prices))})")
    print(f"land use: {len(inputs.land)} years")
    print(f"value/cost series: {len(inputs.output_value)} years")
    print(f"area tables: {len(inputs.region.groups)} region groups, "
          f"{len(inputs.nation.groups)} nation groups")
    print("all inputs valid")
    return 0


def _cmd_decompose(args) -> int:
    from . import decomposition, ingest
    from .serialize import json_text

    if args.config is not None:
        from .pipeline import load_run_config

        config = load_run_config(args.config)
        panel = ingest.load_crop_panel(config.crop_panel)
        base = args.base if args.base is not None else config.decomposition_base
        terminal = (args.terminal if args.terminal is not None
                    else config.decomposition_terminal)
        mode = args.mode or config.period_mode
    else:
        if args.crop_panel is None or args.base is None or args.terminal is None:
            print("error: decompose needs --config or --crop-panel with "
                  "--base and --terminal", file=sys.stderr)
            return 2
        panel = ingest.load_crop_panel(args.crop_panel)
        base, terminal, mode = args.base, args.terminal, args.mode or "triennium"
    result = decomposition.decompose(panel, base, terminal, period_mode=mode)
    _emit(args, {"decomposition.json": json_text(result.to_record(),
                                                 "decomposition.json")})
    return 0


def _cmd_tfp(args) -> int:
    from . import ingest, productivity
    from .serialize import index_csvs

    if args.config is not None:
        from .pipeline import load_run_config

        config = load_run_config(args.config)
        io_panel = ingest.load_io_panel(config.io_panel)
        base_year = (args.base_year if args.base_year is not None
                     else config.tfp_base_year)
    else:
        if args.io_panel is None:
            print("error: tfp needs --config or --io-panel", file=sys.stderr)
            return 2
        io_panel = ingest.load_io_panel(args.io_panel)
        base_year = args.base_year
    _emit(args, index_csvs(productivity.index_series(io_panel, base_year)))
    return 0


def _cmd_growth(args) -> int:
    from . import ingest, productivity
    from .pipeline import growth_rates_json, load_run_config

    config = load_run_config(args.config)
    if args.method:
        config.growth_method = args.method
    tfp = productivity.build_index(ingest.load_io_panel(config.io_panel),
                                   "tfp", config.tfp_base_year)
    _emit(args, {"growth_rates.json": growth_rates_json(config, tfp)})
    return 0


def _cmd_markets(args) -> int:
    from . import ingest
    from .pipeline import load_prices, load_run_config, market_artifacts

    config = load_run_config(args.config)
    prices = load_prices(config)
    output_value, input_cost = ingest.load_value_cost(config.cost_series)
    artifacts, _ = market_artifacts(
        config, ingest.load_crop_panel(config.crop_panel), prices,
        ingest.load_land_use(config.land_use), output_value, input_cost)
    _emit(args, artifacts)
    return 0


def _cmd_cai(args) -> int:
    from . import advantage
    from .serialize import cai_csv

    if args.region is not None and args.nation is not None:
        region_path, nation_path = args.region, args.nation
    elif args.config is not None:
        from .pipeline import load_run_config

        config = load_run_config(args.config)
        region_path = config.area_shares_region
        nation_path = config.area_shares_nation
    else:
        print("error: cai needs --config or both --region and --nation",
              file=sys.stderr)
        return 2
    region = advantage.load_area_share_table(region_path, "region")
    nation = advantage.load_area_share_table(nation_path, "nation")
    _emit(args, {"cai.csv": cai_csv(advantage.cai_table(region, nation))})
    return 0


def _cmd_diagnose(args) -> int:
    from . import diagnostics
    from .serialize import json_text, read_json, write_artifacts

    if args.indicators is not None:
        data = read_json(Path(args.indicators), "indicators file")
        indicators = diagnostics.IndicatorSet.from_dict(data)
        tree = diagnostics.resolve_tree(args.tree or "builtin", Path("."))
        report = diagnostics.evaluate(tree, indicators)
        artifacts = {"diagnosis.json": json_text(report.to_dict(),
                                                 "diagnosis.json")}
    elif args.config is not None:
        from .pipeline import compute_artifacts, load_run_config

        config = load_run_config(args.config)
        if args.tree is not None:
            # a CLI-supplied tree path is relative to the caller, not the config
            config.tree = (args.tree if args.tree == "builtin"
                           else str(Path(args.tree).absolute()))
        all_artifacts, report = compute_artifacts(config)
        artifacts = {name: all_artifacts[name]
                     for name in ("indicators.json", "diagnosis.json")}
    else:
        print("error: diagnose needs --indicators or --config",
              file=sys.stderr)
        return 2
    if args.out is not None:
        write_artifacts(Path(args.out), artifacts)
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

    p = add("growth", _cmd_growth, "average annual TFP growth per period",
            config_required=True)
    p.add_argument("--method", choices=("loglinear", "cagr"))

    add("markets", _cmd_markets, "price break stats and ratio series",
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
