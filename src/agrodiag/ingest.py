"""Loaders for the tabular input formats; a crop panel is folded into
its trienniums as it loads.

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
from .panel import (IO_SIDES, CropPanel, InputOutputPanel, LandUseRecord,
                    PriceSeries)


# a new code's P and Q slots (see ``_Columns``), three doubles each
_P, _Q = array("d", [0.0] * 3), array("d", [-0.0] * 3)


class _Columns:
    """Rows gathered key by key, in arrival order: an io panel's, per key
    the codes of the item ids plus the rows' values, row after row, in one
    column of doubles; or, given a crop panel's trienniums by their end
    years (``ends``), each row folded into its trienniums as it comes.

    A key is a crop panel's year or an io panel's ``(year, side)``. Every
    ``CropPanel`` and ``InputOutputPanel`` is built from one of these,
    which it empties; the loaders below fill one straight from a file, so
    no per-row object is built. ``codes`` numbers the item ids as they
    come, its keys the one string kept of each id, and a key's flags hold
    one byte per code, set once that id is under the key.

    With ``ends``, no row is appended. ``slots`` maps each end year E to
    two arrays of three doubles a code (area, production, price): P, 0.0
    plus the values of years E - 2 and E - 1, and Q, -0.0 plus the value
    of E, which is that value itself. ``into`` maps a year to the slots
    its rows are added into. Either year of P may come first: 0.0 + x is x
    but for a -0.0, which it makes 0.0, and x + -0.0 is x, so P holds the
    bits of a left-to-right sum in year order whatever the row order.
    """

    __slots__ = ("by_key", "codes", "slots", "into")

    def __init__(self, ends=()) -> None:
        # key -> (its flags, its rows' codes, values row-major, the slots
        # its rows are added into)
        self.by_key = {}
        self.codes = {}  # item id -> code
        self.slots = {end: (array("d"), array("d")) for end in sorted(ends)}
        self.into = {}  # year -> the slots its rows are added into
        for end, (p, q) in self.slots.items():
            for year in range(end - 2, end + 1):
                self.into.setdefault(year, []).append(q if year == end else p)

    def add(self, key, item_id: str, values: list[float]) -> bool:
        """Take one row; False, and nothing taken, if ``item_id`` is
        already under ``key``."""
        code = self.codes.get(item_id)
        if code is None:
            code = self.codes[item_id] = len(self.codes)
            for p, q in self.slots.values():
                p.extend(_P)
                q.extend(_Q)
        entry = self.by_key.get(key)
        if entry is None:
            entry = self.by_key[key] = (bytearray(), array("I"), array("d"),
                                        self.into.get(key, ()))
        flags, codes, flat, into = entry
        if code >= len(flags):
            flags.extend(bytes(len(self.codes) - len(flags)))
        elif flags[code]:
            return False
        flags[code] = 1
        if into:
            i = 3 * code
            area, production, price = values
            for slot in into:
                slot[i] += area
                slot[i + 1] += production
                slot[i + 2] += price
        elif not self.slots:
            codes.append(code)
            flat.fromlist(values)
        return True


def load_crop_panel(source, *, trienniums) -> CropPanel:
    """Load a crop panel file, folded into the ``trienniums`` it is
    compared over, given by their end years; prices are kept as loaded
    (nominal).

    Every row is checked, and ``CropPanel.checked`` counts them all. Each
    row of a triennium's years is folded into it as it comes, in any row
    order, and the panel holds those trienniums and the columns of their
    end years only (see ``_Columns``). For every year's columns, pass
    every year: ``trienniums=range(first, last + 1)``.
    """
    columns = _Columns(trienniums)
    if not columns.slots:
        raise ValueError("trienniums must name at least one end year")
    what = _label(source, "crop panel")
    for line, (crop_id, year, *values) in records(source, what, CROP_COLUMNS):
        if not columns.add(year, crop_id, values):
            raise DuplicateKeyError(
                f"{what}: duplicate ({crop_id}, {year}) in row {line}"
            )
    return CropPanel(columns)


def triennium_average(panel: CropPanel, end_year: int) -> tuple:
    """The triennium ending ``end_year``, as ``panel.columns`` returns one
    year: ``(crop_ids, area, production, price)``, crop ids ascending, each
    value column a read-only view of doubles; the panel folded it at its
    load, and each call returns the same tuple.

    A crop absent in one of the years contributes zero area and production
    to that year's term (not grown means literally nothing harvested), while
    its price is averaged only over years where it was observed: a zero
    price would be meaningless. Each total is a left-to-right ``+`` chain
    from int 0 in year order, as ``sum()`` adds floats up to CPython 3.11.
    """
    held = panel._trienniums.get(end_year)
    if held is None:
        span = (end_year - 2, end_year - 1, end_year)
        missing = [y for y in span if y not in panel.years]
        if missing:
            raise CoverageError(f"triennium ending {end_year} needs years "
                                f"{span}, missing {missing}")
        # its years were folded, but not into it: ``columns`` names the
        # first that the panel holds only in another triennium's average
        panel.columns(next(y for y in span if not panel.has_year(y)))
    return held


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
