"""The report pipeline: load the inputs a run config (see ``config``)
names, run every analysis, assemble the indicator set and evaluate the
diagnostic tree: the union of the slices of one ``Run``.

Only ``serialize`` is imported with this module, as every run writes or
prints its artifacts with it. A ``Run`` method imports the analysis layers
it calls in its own body, so a subcommand loads no layer it does not run.

Artifacts are deterministic: floats are serialized at 6 significant digits
and all orderings are fixed, so identical inputs give byte-identical
output directories.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

from .errors import DuplicateKeyError, SchemaError
from .serialize import (
    cai_csv, csv_chunks, csv_text, index_csvs, json_chunks, json_text,
    read_json, write_artifacts,
)

# true for type checkers only; saves importing ``typing`` for annotations
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .advantage import AreaShareTable
    from .config import RunConfig
    from .diagnostics import DiagnosticReport, IndicatorSet
    from .panel import CropPanel, PriceSeries
    from .productivity import IndexSeries


def _input(loader: str, key: str) -> property:
    """A ``Run`` input: the file of config field KEY, read by LOADER."""
    def read(run: Run):
        from . import ingest

        return getattr(ingest, loader)(getattr(run.config, key))
    return property(read)


class Run:
    """The report of one run config, computed on demand.

    An input is a plain property, read on each access and not kept; the
    readings reduced from it, and the crop panel, are cached properties,
    each reading the inputs it consumes once. Each ``-c`` subcommand is
    the method of its name and yields exactly its artifacts (as
    ``serialize.write_artifacts`` takes them), so it reads only the inputs
    they need; ``report`` reads every input and yields the union of the six.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config

    @property
    def prices(self) -> dict[str, PriceSeries]:
        """Every configured price series, keyed by commodity id."""
        from . import ingest

        prices = {}
        for path in self.config.price_series:
            for commodity, series in ingest.load_price_table(path).items():
                if commodity in prices:
                    raise DuplicateKeyError(
                        f"commodity {commodity!r} appears in more than one "
                        "price-series file"
                    )
                prices[commodity] = series
        return prices

    @cached_property
    def crop_years(self) -> set[int] | None:
        """The comparison trienniums' years; ``None`` keeps every year, and
        an empty set none."""
        from .ingest import triennium_years

        return triennium_years(self.config.decomposition_base,
                               self.config.decomposition_terminal)

    @cached_property
    def panel(self) -> CropPanel:
        """The crop panel: every row checked, the ``crop_years`` kept."""
        from .ingest import load_crop_panel

        return load_crop_panel(self.config.crop_panel, years=self.crop_years)

    value_cost = _input("load_value_cost", "cost_series")
    io_panel = _input("load_io_panel", "io_panel")
    land = _input("load_land_use", "land_use")

    @property
    def areas(self) -> tuple[AreaShareTable, AreaShareTable]:
        """The region and the nation area-share tables."""
        from .advantage import load_area_share_table

        return (load_area_share_table(self.config.area_shares_region, "region"),
                load_area_share_table(self.config.area_shares_nation, "nation"))

    @cached_property
    def series(self) -> dict[str, IndexSeries]:
        """The output, input and TFP index series."""
        from .productivity import index_series

        return index_series(self.io_panel, self.config.tfp_base_year)

    @cached_property
    def readings(self) -> dict:
        """The market readings ``assemble_indicators`` takes, which the
        market artifacts serialize, but for the terminal area shares;
        ``land`` is ``land_ratios.json``'s record."""
        from . import markets

        config, prices = self.config, self.prices

        def price(role: str, commodity: str) -> PriceSeries:
            if commodity not in prices:
                raise SchemaError(
                    f"{role} commodity {commodity!r} has no price series")
            return prices[commodity]

        readings = {
            "break_stats": [markets.break_analysis(
                price("break", c), config.break_year, ddof=config.cv_ddof)
                for c in sorted(config.break_commodities)],
            "value_cost": markets.value_cost_ratio(*self.value_cost),
            "grain_fert": markets.price_ratio(
                price("grain", config.grain_commodity),
                price("fertilizer", config.fertilizer_commodity)),
        }
        land = self.land
        first_te, last_te = land[0].year + 2, land[-1].year
        first = markets.land_use_ratios(land, first_te)
        last = markets.land_use_ratios(land, last_te)
        readings["land"] = {
            "first_te": first_te, "last_te": last_te,
            "first": first, "last": last,
            "al_ratio_change": last["al_ratio"] - first["al_ratio"],
        }
        return readings

    @cached_property
    def cai_values(self) -> dict[str, float]:
        from .advantage import cai_table

        return cai_table(*self.areas)

    @cached_property
    def indicators(self) -> str:
        """``indicators.json``: the indicator set the tree evaluates, its
        inputs read in ``report``'s order."""
        from .markets import crop_shares
        from .productivity import avg_annual_growth

        readings = self.readings
        tfp_growth = avg_annual_growth(self.series["tfp"],
                                       method=self.config.growth_method)
        return json_text(assemble_indicators(
            self.config, tfp_growth=tfp_growth, **readings,
            cai_values=self.cai_values, terminal_area_shares=crop_shares(
                self.panel, self.config.decomposition_terminal, "area"),
        ).to_dict(), "indicators.json")

    @cached_property
    def diagnosis(self) -> DiagnosticReport:
        """The tree's verdicts on the config's ``indicators`` file, or else
        on ``indicators.json`` as written (rounded), so ``diagnose`` on that
        file reproduces diagnosis.json exactly."""
        from . import diagnostics

        path = self.config.indicators
        if path is None:
            indicators = diagnostics.IndicatorSet.from_dict(
                json.loads(self.indicators))
        else:
            path = Path(path)
            indicators = diagnostics.IndicatorSet.from_dict(
                read_json(path, "indicators file"), f"indicators file {path}")
        return diagnostics.evaluate(
            diagnostics.resolve_tree(self.config.tree), indicators)

    def decompose(self):
        """``decomposition.json``: the revenue-change decomposition."""
        from . import decomposition

        config = self.config
        result = decomposition.decompose(
            self.panel, config.decomposition_base,
            config.decomposition_terminal, period_mode=config.period_mode)
        yield "decomposition.json", json_chunks(result.to_record(),
                                                "decomposition.json")

    def tfp(self):
        """``tfp_index.csv`` and ``figure2.csv``: the index series."""
        yield from index_csvs(self.series)

    def growth(self):
        """``growth_rates.json``: TFP growth over each configured period."""
        from .productivity import avg_annual_growth

        method, tfp = self.config.growth_method, self.series["tfp"]
        rates = {label: avg_annual_growth(tfp, lo, hi, method=method)
                 for label, (lo, hi) in sorted(self.config.periods.items())}
        yield "growth_rates.json", json_chunks(
            {"series": "tfp", "method": method, "periods": rates},
            "growth_rates.json")

    def markets(self):
        """Break stats, figure3/4, crop shares and land-use ratios."""
        from .markets import crop_shares

        readings = self.readings
        yield "break_stats.json", json_chunks(
            [s.to_record() for s in readings["break_stats"]],
            "break_stats.json")
        for name, key in (("figure3.csv", "value_cost"),
                          ("figure4.csv", "grain_fert")):
            yield name, csv_text(["year", "value"],
                                 sorted(readings[key].items()), name)

        # crop shares at the comparison trienniums, read from their
        # columns as the rows are written: both area totals are checked
        # first, a triennium's value total at its first row
        panel = self.panel
        trienniums = (self.config.decomposition_base,
                      self.config.decomposition_terminal)
        areas = [crop_shares(panel, te, "area") for te in trienniums]
        yield "shares.csv", csv_chunks(
            ["te_year", "crop_id", "area_share_pct", "value_share_pct"],
            (row for te, (crops, area) in zip(trienniums, areas)
             for row in zip(repeat(te), crops, area,
                            crop_shares(panel, te, "value")[1])),
            "shares.csv")
        yield "land_ratios.json", json_chunks(readings["land"],
                                              "land_ratios.json")

    def cai(self):
        """``cai.csv``: the comparative-advantage table."""
        yield "cai.csv", cai_csv(self.cai_values)

    def diagnose(self):
        """``indicators.json``, unless the config names an indicators file,
        and ``diagnosis.json``."""
        if self.config.indicators is None:
            yield "indicators.json", self.indicators
        yield "diagnosis.json", json_chunks(self.diagnosis.to_dict(),
                                            "diagnosis.json")

    def report(self):
        """Every input reduced to its readings, the crop panel last, so a
        run holds one large input at a time; then every artifact, stage by
        stage, as each stage yields it."""
        # without a bytecode cache, a module compiled once the inputs are
        # loaded would add its parse scratch to the peak: so these layers,
        # and with them ``tree`` (imported by ``diagnostics``), ``ingest``
        # and ``csvread`` (by ``advantage``), are compiled first
        from . import advantage, decomposition, diagnostics, markets, productivity  # noqa: F401

        self.readings, self.series, self.cai_values, self.panel
        return chain.from_iterable(stage() for stage in (
            self.decompose, self.tfp, self.growth, self.markets, self.cai,
            self.diagnose))


def assemble_indicators(config: RunConfig, *, tfp_growth: float,
                        break_stats: list, land: dict, cai_values: dict,
                        terminal_area_shares: tuple, value_cost: dict,
                        grain_fert: dict
                        ) -> IndicatorSet:
    """Reduce the module outputs to the scalars the tree predicates read;
    ``land`` is as ``land_ratios.json`` holds it, ``terminal_area_shares``
    as ``markets.crop_shares`` gives it."""
    from .diagnostics import IndicatorSet

    ind = IndicatorSet()
    ind.add("agricultural_land_ratio_change", land["al_ratio_change"],
            "ratio", "land_use_ratios, first vs last triennium")
    ind.add("al_ratio_first", land["first"]["al_ratio"], "ratio",
            "land_use_ratios")
    ind.add("al_ratio_last", land["last"]["al_ratio"], "ratio",
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
    crops, shares = terminal_area_shares
    row = bisect_left(crops, group)
    if crops[row:row + 1] != (group,):
        raise SchemaError(
            f"diversification group {group!r} not in the crop panel "
            f"(have {list(crops)})"
        )
    ind.add("high_advantage_area_share_pct", next(islice(shares, row, None)),
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
    """Compute every report artifact, writing each as its stage yields it;
    returns the diagnosis."""
    run = Run(config)
    write_artifacts(outdir or config.output_dir, run.report())
    return run.diagnosis
