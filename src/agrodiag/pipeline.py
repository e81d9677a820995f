"""The report pipeline: read a run config, load the inputs it names, run
every analysis, assemble the indicator set and evaluate the diagnostic
tree.

Artifacts are deterministic: floats are serialized at 6 significant digits
and all orderings are fixed, so identical inputs give byte-identical
output directories. Relative paths inside a config file are resolved
against the config file's directory.

Each function imports the analysis layers it calls in its own body, so a
subcommand that runs part of the pipeline loads no layer it does not run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateKeyError, SchemaError

# true for type checkers only; saves importing ``typing`` for annotations
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .diagnostics import DiagnosticReport, IndicatorSet
    from .panel import CropPanel
    from .productivity import IndexSeries

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


def load_run_config(path: Path | str) -> RunConfig:
    from .serialize import read_json

    path = Path(path)
    raw = read_json(path, "config")
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

    def year(name: str, value) -> int:
        # ``bool`` subclasses ``int``, so JSON ``true`` must be kept out
        if type(value) is not int:
            raise SchemaError(f"config {path}: {name} must be an integer "
                              f"year, got {value!r}")
        return value

    def window(label: str, value) -> tuple[int, int]:
        name = f"periods.{label}"
        if not (isinstance(value, list) and len(value) == 2):
            raise SchemaError(f"config {path}: {name} must be a "
                              f"[first_year, last_year] pair, got {value!r}")
        return year(name, value[0]), year(name, value[1])

    try:
        inputs = raw["inputs"]
        methods = section("methods")
        periods = {label: window(label, value)
                   for label, value in section("periods").items()}
        decomp = raw["decomposition"]
        tfp_base_year = methods.get("tfp_base_year")
        if tfp_base_year is not None:
            year("methods.tfp_base_year", tfp_base_year)
        for key, value, allowed in (
            ("growth_method", methods.get("growth_method", "loglinear"),
             ("loglinear", "cagr")),
            ("period_mode", methods.get("period_mode", "triennium"),
             ("triennium", "endpoint")),
            ("cv_ddof", methods.get("cv_ddof", 1), (0, 1)),
        ):
            # the type check keeps out 1.0 and true, which equal 1
            if value not in allowed or type(value) is not type(allowed[0]):
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
            decomposition_base=year("decomposition.base_year",
                                    decomp["base_year"]),
            decomposition_terminal=year("decomposition.terminal_year",
                                        decomp["terminal_year"]),
            break_year=year("break_year", raw["break_year"]),
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
            growth_method=methods.get("growth_method", "loglinear"),
            cv_ddof=methods.get("cv_ddof", 1),
            period_mode=methods.get("period_mode", "triennium"),
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


def load_prices(config: RunConfig) -> dict:
    """Every configured price series, keyed by commodity id."""
    from . import ingest

    prices = {}
    for path in config.price_series:
        for commodity, series in ingest.load_price_table(path).items():
            if commodity in prices:
                raise DuplicateKeyError(
                    f"commodity {commodity!r} appears in more than one "
                    "price-series file"
                )
            prices[commodity] = series
    return prices


def load_inputs(config: RunConfig) -> LoadedInputs:
    from . import advantage, ingest

    prices = load_prices(config)
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


def growth_rates_json(config: RunConfig, tfp: IndexSeries) -> str:
    """``growth_rates.json``: TFP growth over each configured period."""
    from . import productivity
    from .serialize import json_text

    rates = {
        label: productivity.avg_annual_growth(tfp, lo, hi,
                                              method=config.growth_method)
        for label, (lo, hi) in sorted(config.periods.items())
    }
    return json_text(
        {"series": "tfp", "method": config.growth_method, "periods": rates},
        "growth_rates.json",
    )


def compute_artifacts(config: RunConfig,
                      inputs: LoadedInputs | None = None
                      ) -> tuple[dict[str, str], DiagnosticReport]:
    """Run the full pipeline in memory; nothing touches the disk here."""
    from . import advantage, decomposition, diagnostics, productivity
    from .serialize import cai_csv, canonical, index_csvs, json_text

    if inputs is None:
        inputs = load_inputs(config)
    artifacts: dict[str, str] = {}

    # revenue-change decomposition
    result = decomposition.decompose(
        inputs.panel, config.decomposition_base, config.decomposition_terminal,
        period_mode=config.period_mode,
    )
    artifacts["decomposition.json"] = json_text(result.to_record(),
                                                "decomposition.json")

    # index series and period growth rates
    series = productivity.index_series(inputs.io_panel, config.tfp_base_year)
    artifacts.update(index_csvs(series))
    tfp = series["tfp"]
    artifacts["growth_rates.json"] = growth_rates_json(config, tfp)
    tfp_growth = productivity.avg_annual_growth(tfp, method=config.growth_method)

    # market indicators, crop shares and land-use ratios
    market, readings = market_artifacts(
        config, inputs.panel, inputs.prices, inputs.land,
        inputs.output_value, inputs.input_cost)
    artifacts.update(market)

    # comparative advantage
    cai_values = advantage.cai_table(inputs.region, inputs.nation)
    artifacts["cai.csv"] = cai_csv(cai_values)

    indicators = assemble_indicators(
        config, tfp_growth=tfp_growth, cai_values=cai_values, **readings)
    artifacts["indicators.json"] = json_text(indicators.to_dict(),
                                             "indicators.json")

    # evaluate on the serialized (rounded) set so `diagnose` on the emitted
    # indicators.json reproduces diagnosis.json byte for byte
    tree = diagnostics.resolve_tree(config.tree, config.config_dir)
    rounded = diagnostics.IndicatorSet.from_dict(canonical(indicators.to_dict()))
    report = diagnostics.evaluate(tree, rounded)
    artifacts["diagnosis.json"] = json_text(report.to_dict(), "diagnosis.json")
    return artifacts, report


def market_artifacts(config: RunConfig, panel: CropPanel, prices: dict,
                     land: list, output_value: dict, input_cost: dict
                     ) -> tuple[dict[str, str], dict]:
    """The market artifacts (break stats, figure3/4, crop shares, land
    ratios) from the crop panel, prices, land use and value/cost series,
    plus the readings of them that ``assemble_indicators`` takes."""
    from . import markets
    from .serialize import csv_text, json_text

    artifacts: dict[str, str] = {}
    stats = []
    for commodity in sorted(config.break_commodities):
        if commodity not in prices:
            raise SchemaError(f"break commodity {commodity!r} has no price series")
        stats.append(markets.break_analysis(
            prices[commodity], config.break_year, ddof=config.cv_ddof,
        ))
    artifacts["break_stats.json"] = json_text([s.to_record() for s in stats],
                                              "break_stats.json")
    value_cost = markets.value_cost_ratio(output_value, input_cost)
    artifacts["figure3.csv"] = csv_text(["year", "value"],
                                        sorted(value_cost.items()),
                                        "figure3.csv")
    for role, commodity in (("grain", config.grain_commodity),
                            ("fertilizer", config.fertilizer_commodity)):
        if commodity not in prices:
            raise SchemaError(f"{role} commodity {commodity!r} has no price series")
    grain_fert = markets.price_ratio(prices[config.grain_commodity],
                                     prices[config.fertilizer_commodity])
    artifacts["figure4.csv"] = csv_text(["year", "value"],
                                        sorted(grain_fert.items()),
                                        "figure4.csv")

    # crop shares at the comparison trienniums
    share_rows = []
    area_shares = {}
    for te_year in (config.decomposition_base, config.decomposition_terminal):
        area = area_shares[te_year] = markets.share_table(panel, te_year,
                                                          "area")
        value = markets.share_table(panel, te_year, "value")
        share_rows.extend(
            (te_year, crop, area[crop], value[crop]) for crop in sorted(area)
        )
    artifacts["shares.csv"] = csv_text(
        ["te_year", "crop_id", "area_share_pct", "value_share_pct"],
        share_rows, "shares.csv",
    )

    # land-use ratios at the first and last resolvable trienniums
    land_years = [r.year for r in land]
    first_te, last_te = land_years[0] + 2, land_years[-1]
    first = markets.land_use_ratios(land, first_te)
    last = markets.land_use_ratios(land, last_te)
    artifacts["land_ratios.json"] = json_text({
        "first_te": first_te, "last_te": last_te,
        "first": first, "last": last,
        "al_ratio_change": last["al_ratio"] - first["al_ratio"],
    }, "land_ratios.json")
    readings = {
        "break_stats": stats, "land_first": first, "land_last": last,
        "terminal_area_shares": area_shares[config.decomposition_terminal],
        "value_cost": value_cost, "grain_fert": grain_fert,
    }
    return artifacts, readings


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


def run_pipeline(config: RunConfig, outdir: Path | None = None
                 ) -> DiagnosticReport:
    """Compute and write every report artifact; returns the diagnosis."""
    from .serialize import write_artifacts

    artifacts, report = compute_artifacts(config)
    write_artifacts(outdir or config.output_dir, artifacts)
    return report
