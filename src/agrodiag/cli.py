"""Command-line pipeline: load inputs, run every analysis, assemble the
indicator set, evaluate the diagnostic tree, write report artifacts.

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

Artifacts are deterministic: floats are serialized at 6 significant digits
and all orderings are fixed, so identical inputs give byte-identical
output directories. Relative paths inside a config file are resolved
against the config file's directory.

Only argument parsing and error reporting are imported with this module;
each function imports the analysis layers it calls, so ``--help`` and a
subcommand load no layer they do not run.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import AgrodiagError, DuplicateKeyError, SchemaError

# true for type checkers only; saves importing ``typing`` at start-up
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .diagnostics import DiagnosticReport, DiagnosticTree, IndicatorSet

REPORT_ARTIFACTS = (
    "decomposition.json", "tfp_index.csv", "growth_rates.json",
    "break_stats.json", "cai.csv", "shares.csv", "land_ratios.json",
    "indicators.json", "diagnosis.json", "figure2.csv", "figure3.csv",
    "figure4.csv",
)


@dataclass
class RunConfig:
    """Parsed run configuration; see README for the JSON layout."""

    crop_panel: Path
    io_panel: Path
    price_series: list[Path]
    land_use: Path
    cost_series: Path
    area_shares_region: Path
    area_shares_nation: Path
    periods: dict[str, tuple[int, int]]
    decomposition_base: int
    decomposition_terminal: int
    break_year: int
    break_commodities: list[str]
    grain_commodity: str
    fertilizer_commodity: str
    diversification_group: str
    national_tfp_growth_pct: float
    tree: str
    output_dir: Path
    growth_method: str = "loglinear"
    cv_ddof: int = 1
    period_mode: str = "triennium"
    tfp_base_year: int | None = None
    config_dir: Path = field(default_factory=Path)


def _read_json(path: Path, what: str):
    """Parse a UTF-8 JSON file (a leading byte-order mark is dropped); bad
    bytes or syntax raise SchemaError."""
    import json

    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{what} {path}: not UTF-8 text ({exc.reason})"
        ) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path}: not valid JSON: {exc}") from None


def load_run_config(path: Path | str) -> RunConfig:
    path = Path(path)
    raw = _read_json(path, "config")
    base = path.parent

    def resolve(p) -> Path:
        return base / Path(p)

    def section(key: str) -> dict:
        value = raw.get(key, {})
        if not isinstance(value, dict):
            raise SchemaError(f"config {path}: {key} must be an object, "
                              f"got {value!r}")
        return value

    def strings(name: str, value) -> list[str]:
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise SchemaError(f"config {path}: {name} must be a list of "
                              f"strings, got {value!r}")
        return value

    try:
        inputs = raw["inputs"]
        methods = section("methods")
        periods = {
            str(label): (int(lo), int(hi))
            for label, (lo, hi) in section("periods").items()
        }
        decomp = raw["decomposition"]
        tfp_base_year = methods.get("tfp_base_year")
        if tfp_base_year is not None and type(tfp_base_year) is not int:
            raise SchemaError(f"config {path}: methods.tfp_base_year must be "
                              f"an integer year, got {tfp_base_year!r}")
        for key, value, allowed in (
            ("growth_method", methods.get("growth_method", "loglinear"),
             ("loglinear", "cagr")),
            ("period_mode", methods.get("period_mode", "triennium"),
             ("triennium", "endpoint")),
            ("cv_ddof", methods.get("cv_ddof", 1), (0, 1)),
        ):
            if value not in allowed:
                raise SchemaError(
                    f"config {path}: methods.{key} must be one of {allowed}, "
                    f"got {value!r}"
                )
        return RunConfig(
            crop_panel=resolve(inputs["crop_panel"]),
            io_panel=resolve(inputs["io_panel"]),
            price_series=[resolve(p) for p in strings(
                "inputs.price_series", inputs["price_series"])],
            land_use=resolve(inputs["land_use"]),
            cost_series=resolve(inputs["cost_series"]),
            area_shares_region=resolve(inputs["area_shares_region"]),
            area_shares_nation=resolve(inputs["area_shares_nation"]),
            periods=periods,
            decomposition_base=int(decomp["base_year"]),
            decomposition_terminal=int(decomp["terminal_year"]),
            break_year=int(raw["break_year"]),
            break_commodities=strings("break_commodities",
                                      raw["break_commodities"]),
            grain_commodity=str(raw["grain_commodity"]),
            fertilizer_commodity=str(raw["fertilizer_commodity"]),
            diversification_group=str(raw["diversification_group"]),
            national_tfp_growth_pct=float(
                section("benchmarks").get("national_tfp_growth_pct", 0.0)
            ),
            tree=str(raw.get("tree", "builtin")),
            output_dir=resolve(raw.get("output_dir", "out")),
            growth_method=str(methods.get("growth_method", "loglinear")),
            cv_ddof=int(methods.get("cv_ddof", 1)),
            period_mode=str(methods.get("period_mode", "triennium")),
            tfp_base_year=tfp_base_year,
            config_dir=base,
        )
    except KeyError as exc:
        raise SchemaError(f"config {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"config {path}: malformed value ({exc})") from None


@dataclass
class LoadedInputs:
    panel: object
    io_panel: object
    prices: dict
    land: list
    output_value: dict
    input_cost: dict
    region: object
    nation: object


def load_inputs(config: RunConfig) -> LoadedInputs:
    from . import advantage, ingest

    prices = {}
    for path in config.price_series:
        for commodity, series in ingest.load_price_table(path).items():
            if commodity in prices:
                raise DuplicateKeyError(
                    f"commodity {commodity!r} appears in more than one "
                    "price-series file"
                )
            prices[commodity] = series
    output_value, input_cost = ingest.load_value_cost(config.cost_series)
    return LoadedInputs(
        panel=ingest.load_crop_panel(config.crop_panel),
        io_panel=ingest.load_io_panel(config.io_panel),
        prices=prices,
        land=ingest.load_land_use(config.land_use),
        output_value=output_value,
        input_cost=input_cost,
        region=advantage.load_area_share_table(config.area_shares_region,
                                               "region"),
        nation=advantage.load_area_share_table(config.area_shares_nation,
                                               "nation"),
    )


def resolve_tree(selector: str, config_dir: Path) -> DiagnosticTree:
    from . import diagnostics

    if selector == "builtin":
        return diagnostics.builtin_bihar_tree()
    return diagnostics.load_tree(config_dir / selector)


def compute_artifacts(config: RunConfig,
                      inputs: LoadedInputs | None = None
                      ) -> tuple[dict[str, str], DiagnosticReport]:
    """Run the full pipeline in memory; nothing touches the disk here."""
    from . import advantage, decomposition, diagnostics, markets, productivity
    from .serialize import canonical, csv_text, json_text

    if inputs is None:
        inputs = load_inputs(config)
    artifacts: dict[str, str] = {}

    # revenue-change decomposition
    result = decomposition.decompose(
        inputs.panel, config.decomposition_base, config.decomposition_terminal,
        period_mode=config.period_mode,
    )
    artifacts["decomposition.json"] = json_text(result.to_record())

    # index series and period growth rates
    base_year = (config.tfp_base_year if config.tfp_base_year is not None
                 else inputs.io_panel.years[0])
    series = {
        kind: productivity.build_index(inputs.io_panel, kind, base_year)
        for kind in ("output", "input", "tfp")
    }
    tfp = series["tfp"]
    artifacts["tfp_index.csv"] = csv_text(["year", "value"], tfp.to_rows())
    artifacts["figure2.csv"] = csv_text(
        ["year", "output", "input", "tfp"],
        [(y, series["output"].values[y], series["input"].values[y],
          tfp.values[y]) for y in tfp.years],
    )
    rates = {
        label: productivity.avg_annual_growth(tfp, lo, hi,
                                              method=config.growth_method)
        for label, (lo, hi) in sorted(config.periods.items())
    }
    artifacts["growth_rates.json"] = json_text(
        {"series": "tfp", "method": config.growth_method, "periods": rates}
    )
    tfp_growth = productivity.avg_annual_growth(tfp, method=config.growth_method)

    # market indicators
    stats = []
    for commodity in sorted(config.break_commodities):
        if commodity not in inputs.prices:
            raise SchemaError(f"break commodity {commodity!r} has no price series")
        stats.append(markets.break_analysis(
            inputs.prices[commodity], config.break_year, ddof=config.cv_ddof,
        ))
    artifacts["break_stats.json"] = json_text([s.to_record() for s in stats])
    value_cost = markets.value_cost_ratio(inputs.output_value, inputs.input_cost)
    artifacts["figure3.csv"] = csv_text(["year", "value"],
                                        sorted(value_cost.items()))
    for role, commodity in (("grain", config.grain_commodity),
                            ("fertilizer", config.fertilizer_commodity)):
        if commodity not in inputs.prices:
            raise SchemaError(f"{role} commodity {commodity!r} has no price series")
    grain_fert = markets.price_ratio(inputs.prices[config.grain_commodity],
                                     inputs.prices[config.fertilizer_commodity])
    artifacts["figure4.csv"] = csv_text(["year", "value"],
                                        sorted(grain_fert.items()))

    # crop shares at the comparison trienniums
    share_rows = []
    area_shares = {}
    for te_year in (config.decomposition_base, config.decomposition_terminal):
        area = area_shares[te_year] = markets.share_table(inputs.panel,
                                                          te_year, "area")
        value = markets.share_table(inputs.panel, te_year, "value")
        share_rows.extend(
            (te_year, crop, area[crop], value[crop]) for crop in sorted(area)
        )
    artifacts["shares.csv"] = csv_text(
        ["te_year", "crop_id", "area_share_pct", "value_share_pct"], share_rows
    )

    # land-use ratios at the first and last resolvable trienniums
    land_years = [r.year for r in inputs.land]
    first_te, last_te = land_years[0] + 2, land_years[-1]
    first = markets.land_use_ratios(inputs.land, first_te)
    last = markets.land_use_ratios(inputs.land, last_te)
    artifacts["land_ratios.json"] = json_text({
        "first_te": first_te, "last_te": last_te,
        "first": first, "last": last,
        "al_ratio_change": last["al_ratio"] - first["al_ratio"],
    })

    # comparative advantage
    cai_values = advantage.cai_table(inputs.region, inputs.nation)
    artifacts["cai.csv"] = _cai_csv(cai_values)

    indicators = assemble_indicators(
        config, tfp_growth=tfp_growth, break_stats=stats,
        land_first=first, land_last=last, cai_values=cai_values,
        terminal_area_shares=area_shares[config.decomposition_terminal],
        value_cost=value_cost, grain_fert=grain_fert,
    )
    artifacts["indicators.json"] = json_text(indicators.to_dict())

    # evaluate on the serialized (rounded) set so `diagnose` on the emitted
    # indicators.json reproduces diagnosis.json byte for byte
    tree = resolve_tree(config.tree, config.config_dir)
    rounded = diagnostics.IndicatorSet.from_dict(canonical(indicators.to_dict()))
    report = diagnostics.evaluate(tree, rounded)
    artifacts["diagnosis.json"] = json_text(report.to_dict())
    return artifacts, report


def _cai_csv(cai_values: dict[str, float]) -> str:
    from .serialize import csv_text

    return csv_text(["group_id", "cai"], sorted(cai_values.items()))


def assemble_indicators(config: RunConfig, *, tfp_growth: float,
                        break_stats: list, land_first: dict, land_last: dict,
                        cai_values: dict, terminal_area_shares: dict,
                        value_cost: dict, grain_fert: dict
                        ) -> IndicatorSet:
    """Reduce the module outputs to the scalars the tree predicates read."""
    from .diagnostics import IndicatorSet

    ind = IndicatorSet()
    ind.add("agricultural_land_ratio_change",
            land_last["al_ratio"] - land_first["al_ratio"],
            "ratio", "land_use_ratios, first vs last triennium")
    ind.add("al_ratio_first", land_first["al_ratio"], "ratio",
            "land_use_ratios")
    ind.add("al_ratio_last", land_last["al_ratio"], "ratio",
            "land_use_ratios")
    ind.add("tfp_growth_pct", tfp_growth, "pct/yr",
            f"avg_annual_growth(tfp, method={config.growth_method})")
    ind.add("tfp_growth_national_pct", config.national_tfp_growth_pct,
            "pct/yr", "config benchmark")
    ind.add("tfp_growth_gap_pp",
            tfp_growth - config.national_tfp_growth_pct,
            "pp/yr", "avg_annual_growth(tfp) minus national benchmark")
    rising = sum(1 for s in break_stats if s.cv_after > s.cv_before)
    ind.add("price_cv_rising_share",
            rising / len(break_stats) if break_stats else 0.0,
            "fraction", "break_analysis over configured commodities")
    for s in break_stats:
        ind.add(f"price_cv_before_{s.commodity_id}", s.cv_before, "percent",
                "break_analysis")
        ind.add(f"price_cv_after_{s.commodity_id}", s.cv_after, "percent",
                "break_analysis")
    best_group = max(sorted(cai_values), key=lambda g: cai_values[g])
    ind.add("cai_max", cai_values[best_group], "ratio",
            f"cai_table, group {best_group}")
    group = config.diversification_group
    if group not in terminal_area_shares:
        raise SchemaError(
            f"diversification group {group!r} not in the crop panel "
            f"(have {sorted(terminal_area_shares)})"
        )
    ind.add("high_advantage_area_share_pct", terminal_area_shares[group],
            "percent", f"share_table at terminal triennium, {group} row")
    last_vc_year = max(value_cost)
    ind.add("value_cost_ratio_terminal", value_cost[last_vc_year], "ratio",
            f"value_cost_ratio, year {last_vc_year}")
    last_pr_year = max(grain_fert)
    ind.add("grain_fertilizer_price_ratio_terminal", grain_fert[last_pr_year],
            "ratio",
            f"price_ratio {config.grain_commodity}/"
            f"{config.fertilizer_commodity}, year {last_pr_year}")
    return ind


def write_artifacts(outdir: Path, artifacts: dict[str, str]) -> None:
    """Write all artifacts, removing partial output if a write fails."""
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name in sorted(artifacts):
            target = outdir / name
            target.write_text(artifacts[name], encoding="utf-8", newline="\n")
            written.append(target)
    except OSError:
        for target in written:
            target.unlink(missing_ok=True)
        raise


def run_pipeline(config: RunConfig, outdir: Path | None = None
                 ) -> DiagnosticReport:
    """Compute and write every report artifact; returns the diagnosis."""
    artifacts, report = compute_artifacts(config)
    write_artifacts(outdir or config.output_dir, artifacts)
    return report


# -- subcommand handlers ---------------------------------------------------


def _emit(args, artifacts: dict[str, str]) -> None:
    if args.out is not None:
        write_artifacts(Path(args.out), artifacts)
    else:
        for name in sorted(artifacts):
            sys.stdout.write(artifacts[name])


def _cmd_validate(args) -> int:
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


def _subset(config: RunConfig, names: tuple[str, ...]) -> dict[str, str]:
    artifacts, _ = compute_artifacts(config)
    return {name: artifacts[name] for name in names}


def _cmd_decompose(args) -> int:
    from . import decomposition, ingest
    from .serialize import json_text

    if args.config is not None:
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
    _emit(args, {"decomposition.json": json_text(result.to_record())})
    return 0


def _cmd_tfp(args) -> int:
    from . import ingest, productivity
    from .serialize import csv_text

    if args.config is not None:
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
    if base_year is None:
        base_year = io_panel.years[0]
    series = {kind: productivity.build_index(io_panel, kind, base_year)
              for kind in ("output", "input", "tfp")}
    tfp = series["tfp"]
    _emit(args, {
        "tfp_index.csv": csv_text(["year", "value"], tfp.to_rows()),
        "figure2.csv": csv_text(
            ["year", "output", "input", "tfp"],
            [(y, series["output"].values[y], series["input"].values[y],
              tfp.values[y]) for y in tfp.years],
        ),
    })
    return 0


def _cmd_growth(args) -> int:
    config = load_run_config(args.config)
    if args.method:
        config.growth_method = args.method
    _emit(args, _subset(config, ("growth_rates.json",)))
    return 0


def _cmd_markets(args) -> int:
    config = load_run_config(args.config)
    _emit(args, _subset(config, ("break_stats.json", "figure3.csv",
                                 "figure4.csv", "shares.csv",
                                 "land_ratios.json")))
    return 0


def _cmd_cai(args) -> int:
    from . import advantage

    if args.region is not None and args.nation is not None:
        region_path, nation_path = args.region, args.nation
    elif args.config is not None:
        config = load_run_config(args.config)
        region_path = config.area_shares_region
        nation_path = config.area_shares_nation
    else:
        print("error: cai needs --config or both --region and --nation",
              file=sys.stderr)
        return 2
    region = advantage.load_area_share_table(region_path, "region")
    nation = advantage.load_area_share_table(nation_path, "nation")
    _emit(args, {"cai.csv": _cai_csv(advantage.cai_table(region, nation))})
    return 0


def _cmd_diagnose(args) -> int:
    from . import diagnostics
    from .serialize import json_text

    if args.indicators is not None:
        data = _read_json(Path(args.indicators), "indicators file")
        indicators = diagnostics.IndicatorSet.from_dict(data)
        tree = resolve_tree(args.tree or "builtin", Path("."))
        report = diagnostics.evaluate(tree, indicators)
        artifacts = {"diagnosis.json": json_text(report.to_dict())}
    elif args.config is not None:
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
