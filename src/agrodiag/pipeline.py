"""The report pipeline: load the inputs a run config (see ``config``)
names, run every analysis, and hand the readings to ``diagnostics``,
which assembles the indicator set and evaluates the diagnostic tree: the
union of the slices of one ``Run``.

Only ``serialize`` is imported with this module, as every run writes or
prints its artifacts with it. A ``Run`` method imports the analysis layers
it calls in its own body, so a subcommand loads no layer it does not run.

Artifacts are deterministic: floats are serialized at 6 significant digits
and all orderings are fixed, so identical inputs give byte-identical
output directories.
"""
from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DuplicateKeyError, SchemaError
from .serialize import csv_chunks, csv_text, json_chunks, json_text, read_json

if TYPE_CHECKING:
    from .advantage import AreaShareTable
    from .config import RunConfig
    from .diagnostics import DiagnosticReport
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
    readings reduced from it, and the crop panel until its last reader,
    the group share, has run, are cached properties, each reading the
    inputs it consumes once. Each ``-c`` subcommand is the method of its
    name: it formats exactly its artifacts and yields each as (name,
    chunks), an iterable of chunks as ``serialize.write_artifacts`` takes
    it (a text made whole is one chunk), so it reads only the inputs they
    need. ``report`` reads every input and yields the union of the six. ``counts`` keeps what
    ``validate`` prints of the inputs a finished run no longer holds, each
    entry set as its input is read, the crop panel's as it is freed.
    """

    def __init__(self, config: RunConfig) -> None:
        base, terminal = (config.decomposition_base,
                          config.decomposition_terminal)
        if None not in (base, terminal) and base >= terminal:
            raise SchemaError(f"decomposition base year {base} does not "
                              f"precede terminal year {terminal}")
        self.config = config
        self.counts = {}

    @property
    def prices(self) -> dict[str, PriceSeries]:
        """Every configured price series, keyed by commodity id; a break,
        grain or fertilizer commodity with none is refused."""
        from . import ingest

        config, prices = self.config, {}
        for path in config.price_series:
            for commodity, series in ingest.load_price_table(path).items():
                if commodity in prices:
                    raise DuplicateKeyError(
                        f"commodity {commodity!r} appears in more than one "
                        "price-series file"
                    )
                prices[commodity] = series
        for role, commodity in (
                *zip(repeat("break"), sorted(config.break_commodities)),
                ("grain", config.grain_commodity),
                ("fertilizer", config.fertilizer_commodity)):
            if commodity not in prices:
                raise SchemaError(
                    f"{role} commodity {commodity!r} has no price series")
        self.counts["price series"] = sorted(prices)
        return prices

    @cached_property
    def panel(self) -> CropPanel:
        """The crop panel: every row checked, each row of the comparison
        trienniums folded into them."""
        from .ingest import load_crop_panel

        config = self.config
        return load_crop_panel(config.crop_panel, trienniums=(
            config.decomposition_base, config.decomposition_terminal))

    value_cost = _input("load_value_cost", "cost_series")
    io_panel = _input("load_io_panel", "io_panel")
    land = _input("load_land_use", "land_use")

    @property
    def areas(self) -> tuple[AreaShareTable, AreaShareTable]:
        """The region and the nation area-share tables."""
        from .advantage import load_area_share_table

        tables = (
            load_area_share_table(self.config.area_shares_region, "region"),
            load_area_share_table(self.config.area_shares_nation, "nation"))
        self.counts["area tables"] = [len(table.groups) for table in tables]
        return tables

    @cached_property
    def series(self) -> dict[str, IndexSeries]:
        """The output, input and TFP index series."""
        from .productivity import index_series

        return index_series(self.io_panel, self.config.tfp_base_year)

    @cached_property
    def readings(self) -> dict:
        """The market readings ``diagnostics.assemble_indicators`` reads,
        which the market artifacts serialize, but for the terminal area
        shares; ``land`` is ``land_ratios.json``'s record."""
        from . import markets

        config, prices = self.config, self.prices
        readings = {
            "break_stats": [markets.break_analysis(
                prices[c], config.break_year, ddof=config.cv_ddof)
                for c in sorted(config.break_commodities)],
            "value_cost": markets.value_cost_ratio(*self.value_cost),
            "grain_fert": markets.price_ratio(
                prices[config.grain_commodity],
                prices[config.fertilizer_commodity]),
            "land": markets.land_record(land := self.land),
        }
        self.counts["land use"] = len(land)
        return readings

    @cached_property
    def cai_values(self) -> dict[str, float]:
        from .advantage import cai_table

        return cai_table(*self.areas)

    @cached_property
    def group_share(self) -> float:
        """The diversification group's percent of the terminal triennium's
        area: the one indicator read from the crop panel, and the panel's
        last reader, which frees it."""
        from .markets import group_share

        config = self.config
        share = group_share(self.panel, config.decomposition_terminal,
                            config.diversification_group)
        self.counts["crop panel"] = self.panel.checked
        del self.panel
        return share

    @cached_property
    def indicators(self) -> str:
        """``indicators.json``: ``diagnostics.assemble_indicators`` on the
        readings, read in ``report``'s order, so the crop panel is freed
        before the io panel is read and ``diagnostics`` is compiled."""
        self.readings, self.group_share, self.series, self.cai_values
        from .diagnostics import assemble_indicators

        return json_text(assemble_indicators(self), "indicators.json")

    @cached_property
    def diagnosis(self) -> DiagnosticReport:
        """The tree's verdicts on the config's ``indicators`` file, or else
        on ``indicators.json`` as written (rounded), so ``diagnose`` on that
        file reproduces diagnosis.json exactly."""
        from . import diagnostics

        path = self.config.indicators
        if path is None:
            indicators = diagnostics.read_indicators(
                json.loads(self.indicators))
        else:
            path = Path(path)
            indicators = diagnostics.read_indicators(
                read_json(path, "indicators file"), f"indicators file {path}")
        tree = diagnostics.resolve_tree(self.config.tree)
        self.counts["tree"] = len(tree.roots), len(tree.nodes)
        return diagnostics.evaluate(tree, indicators)

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
        """``figure2.csv`` and ``tfp_index.csv``: the index series."""
        output, input_, tfp = (self.series[key]
                               for key in ("output", "input", "tfp"))
        yield "figure2.csv", [csv_text(
            ["year", "output", "input", "tfp"],
            [(y, output.values[y], input_.values[y], tfp.values[y])
             for y in tfp.years], "figure2.csv")]
        yield "tfp_index.csv", [csv_text(["year", "value"], tfp.to_rows(),
                                         "tfp_index.csv")]

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
        """Break stats, figure3/4, land-use ratios and crop shares."""
        return chain(self._crop_free_markets(), self._shares())

    def _crop_free_markets(self):
        """The market artifacts, but for the crop shares."""
        readings = self.readings
        yield "break_stats.json", json_chunks(
            [s.to_record() for s in readings["break_stats"]],
            "break_stats.json")
        for name, key in (("figure3.csv", "value_cost"),
                          ("figure4.csv", "grain_fert")):
            yield name, [csv_text(["year", "value"],
                                  sorted(readings[key].items()), name)]
        yield "land_ratios.json", json_chunks(readings["land"],
                                              "land_ratios.json")

    def _shares(self):
        """``shares.csv``: the crop shares at the comparison trienniums,
        read from their columns as the rows are written: both area totals
        are checked first, a triennium's value total at its first row."""
        from .markets import crop_shares

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

    def cai(self):
        """``cai.csv``: the comparative-advantage table."""
        yield "cai.csv", [csv_text(["group_id", "cai"],
                                   sorted(self.cai_values.items()), "cai.csv")]

    def diagnose(self):
        """``indicators.json``, unless the config names an indicators file,
        and ``diagnosis.json``."""
        if self.config.indicators is None:
            yield "indicators.json", [self.indicators]
        yield "diagnosis.json", json_chunks(self.diagnosis.to_dict(),
                                            "diagnosis.json")

    def report(self):
        """The market readings; then the crop phase: the crop panel's
        artifacts and group share, after which the panel is freed; then
        the io panel's and the area tables' readings, the other artifacts,
        the indicator set and the diagnosis. Each artifact is written as
        its stage yields it."""
        # without a bytecode cache, a module compiled while the crop panel
        # is held would add its parse scratch to the peak: so the layers
        # the readings and the crop phase run, with ``ingest``, ``csvread``
        # and ``panel``, are compiled first, and the rest once it is freed
        from . import decomposition, markets  # noqa: F401

        self.readings
        yield from self.decompose()
        yield from self._shares()
        # ``growth`` comes after the crop phase, so a crop panel fault is
        # named before a growth window's
        self.group_share, self.series, self.cai_values
        for stage in (self.tfp, self._crop_free_markets, self.cai,
                      self.growth, self.diagnose):
            yield from stage()
