"""Loaders for the tabular input formats, plus triennium averaging.

File schemas (delimited text, UTF-8, ``.`` decimal separator, header row):

* crop panel:   ``crop_id,year,area_ha,production_t,price_per_t``
* io panel:     ``year,kind,item_id,quantity,share``   (kind: output | input)
* price series: ``commodity_id,year,price_per_t``
* land use:     ``year,agricultural_land,non_agricultural_land,total_reported``
* value/cost:   ``year,output_value,input_cost``

Every load error names the input kind the caller loads and, when the
source has one, the file (``crop panel data/crops.csv: ...``). Loading is
single-threaded per source; every returned object is immutable and safe to
share across concurrent readers.
"""
from __future__ import annotations

import warnings
from array import array

from .csvread import (CROP_COLUMNS, _amount, _label, _named, _price, _text,
                      records)
from .errors import CoverageError, DuplicateKeyError, SchemaError
from .panel import (
    IO_SIDES,
    CropPanel,
    InputOutputPanel,
    LandUseRecord,
    PriceSeries,
    _Columns,
    _shared,
)


def load_crop_panel(source, *, years=None) -> CropPanel:
    """Load a crop panel file; prices are kept as loaded (nominal).

    Every row is checked, but with ``years`` (a set) only the rows of
    those are kept; ``CropPanel.checked`` counts them all.
    """
    what = _label(source, "crop panel")
    columns = _Columns(years)
    for line, (crop_id, year, *values) in records(source, what, CROP_COLUMNS):
        if not columns.add(year, crop_id, values):
            raise DuplicateKeyError(
                f"{what}: duplicate ({crop_id}, {year}) in row {line}"
            )
    return CropPanel(columns)


def triennium_years(*ends: int) -> set[int]:
    """The years of the trienniums ending in ENDS: all that ``decompose``
    and ``markets.crop_shares`` read of a crop panel, in either mode."""
    return {end - k for end in ends for k in range(3)}


def triennium_average(panel: CropPanel, end_year: int) -> tuple:
    """Average the three years ending in ``end_year``, as ``panel.columns``
    returns one year: ``(crop_ids, area, production, price)``, crop ids
    ascending, each value column a read-only view of doubles.

    A crop absent in one of the years contributes zero area and production
    to that year's term (not grown means literally nothing harvested), while
    its price is averaged only over years where it was observed: a zero
    price would be meaningless.

    The tuple is memoised on ``panel``: a second call with the same
    ``end_year`` returns the same tuple and views.
    """
    memo = panel._trienniums
    if end_year in memo:
        return memo[end_year]
    span = (end_year - 2, end_year - 1, end_year)
    missing = [y for y in span if y not in panel.years]
    if missing:
        raise CoverageError(
            f"triennium ending {end_year} needs years {span}, missing {missing}"
        )
    years = [panel.columns(year) for year in span]
    ids_of = [ids for ids, *_ in years]
    crops = widest = max(ids_of, key=len)
    if not ids_of[0] is ids_of[1] is ids_of[2]:  # else no union is needed
        crops = _shared(sorted(set().union(*ids_of)), widest)
    at = [0, 0, 0]  # per year, the position of the next crop not yet merged
    means = mean_area, mean_production, mean_price = (
        array("d"), array("d"), array("d"))
    for crop in crops:
        # each total is a left-to-right ``+`` chain from int 0 in year
        # order, as ``sum()`` adds floats up to CPython 3.11
        area = production = price = 0
        observed = 0
        for k, (ids, areas, productions, prices) in enumerate(years):
            i = at[k]
            if i < len(ids) and ids[i] == crop:
                area += areas[i]
                production += productions[i]
                price += prices[i]
                observed += 1
                at[k] = i + 1
        mean_area.append(area / 3.0)
        mean_production.append(production / 3.0)
        mean_price.append(price / observed)
    memo[end_year] = (crops, *(memoryview(mean).toreadonly()
                               for mean in means))
    return memo[end_year]


def load_io_panel(source) -> InputOutputPanel:
    """Load an input-output panel (quantities plus revenue/cost shares).

    Share sums inside the renormalization band are rescaled to 1, sums
    outside it are rejected (by ``InputOutputPanel``, its errors naming the
    file). Zero quantities are tolerated here but flagged, because they
    cannot enter a log-ratio later.
    """
    what = _label(source, "io panel")
    columns = _Columns()
    for line, (year, kind, item_id, quantity, share) in records(source, what, {
            "year": int, "kind": str.strip, "item_id": _text,
            "quantity": _amount, "share": _amount}):
        if kind not in IO_SIDES:
            raise SchemaError(
                f"{what}: kind must be 'output' or 'input', got {kind!r} "
                f"in row {line}")
        if quantity <= 0 and share > 0:
            warnings.warn(
                f"{what}: non-positive quantity for {kind} {item_id!r} in "
                f"{year} (row {line}); it will be rejected if it enters a "
                f"log-ratio", stacklevel=2)
        if not columns.add((year, kind), item_id, [quantity, share]):
            raise DuplicateKeyError(
                f"{what}: duplicate {kind} {item_id!r} for {year} in row {line}")
    with _named(what):
        return InputOutputPanel(columns)


def load_price_table(source) -> dict[str, PriceSeries]:
    """Load every commodity in a price-series file, keyed by commodity id."""
    what = _label(source, "price series")
    values: dict[str, dict[int, float]] = {}
    for line, (commodity, year, price) in records(source, what, {
            "commodity_id": _text, "year": int, "price_per_t": _price}):
        series = values.setdefault(commodity, {})
        if year in series:
            raise DuplicateKeyError(
                f"{what}: duplicate ({commodity}, {year}) in row {line}"
            )
        series[year] = price
    return {c: PriceSeries(c, v) for c, v in sorted(values.items())}


def load_land_use(source) -> list[LandUseRecord]:
    """Load land-use records, sorted by year. The first three years and
    the last three must each run without a gap: a report compares their
    averages (``markets.land_use_ratios``)."""
    what = _label(source, "land use")
    by_year: dict[int, LandUseRecord] = {}
    rows: dict[int, int] = {}
    for line, (year, *land) in records(source, what, {
            "year": int, "agricultural_land": _amount,
            "non_agricultural_land": _amount, "total_reported": _price}):
        if year in by_year:
            raise DuplicateKeyError(f"{what}: duplicate year {year} in row {line}")
        with _named(what, line):
            by_year[year] = LandUseRecord(year, *land)
        rows[year] = line
    years = sorted(by_year)
    for year, end in ((years[0], years[0] + 2), (years[-1], years[-1])):
        missing = [y for y in range(end - 2, end + 1) if y not in by_year]
        if missing:
            raise CoverageError(
                f"{what}: triennium ending {end} is missing years {missing} "
                f"(year {year} is in row {rows[year]})")
    return [by_year[y] for y in years]


def load_value_cost(source) -> tuple[dict[int, float], dict[int, float]]:
    """Load per-year aggregate output value and input cost (currency)."""
    what = _label(source, "value/cost series")
    value: dict[int, float] = {}
    cost: dict[int, float] = {}
    for line, (year, output_value, input_cost) in records(source, what, {
            "year": int, "output_value": _amount, "input_cost": _price}):
        if year in value:
            raise DuplicateKeyError(f"{what}: duplicate year {year} in row {line}")
        value[year] = output_value
        cost[year] = input_cost
    return value, cost
