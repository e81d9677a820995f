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

import csv
import math
import warnings
from array import array
from contextlib import contextmanager
from typing import Mapping

from .errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
    SchemaError,
)
from .panel import (
    IO_SIDES,
    CropPanel,
    InputOutputPanel,
    LandUseRecord,
    PriceSeries,
    _Columns,
    _shared,
)

# Shares are accepted and renormalized inside this band, rejected outside it.
# Published share tables round to one decimal, hence +/- 0.001.
SHARE_RENORM_BAND = (0.999, 1.001)


def _label(source, kind: str) -> str:
    """KIND, followed by the file SOURCE names: a path, or the name of a
    file-like object that has one. Every load error starts with it."""
    name = getattr(source, "name", None) if hasattr(source, "read") else source
    return f"{kind} {name}" if name else kind


@contextmanager
def _named(what: str, line: int | None = None):
    """Start the message of a value error raised inside with WHAT, as the
    loaders' own messages start, and end it with row LINE if given: for the
    checks of the records and tables a loader builds, which do not know
    their file."""
    try:
        yield
    except (DomainError, DataInconsistencyError) as exc:
        row = "" if line is None else f" in row {line}"
        raise type(exc)(f"{what}: {exc}{row}") from None


@contextmanager
def _open_text(source, what: str):
    """Yield a text stream for a path or pass a file-like object through.

    A leading UTF-8 byte-order mark, as spreadsheet programs write it, is
    dropped. A file that is not UTF-8 raises ``SchemaError`` naming it,
    also when the bad bytes are only decoded while the caller iterates.
    """
    if hasattr(source, "read"):
        yield source
        return
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: not UTF-8 text ({exc.reason})") from None


def _rows(stream, expected_header: list[str], what: str):
    """Yield (line_number, row) pairs after validating header and widths.

    A file with a header but no data row raises ``SchemaError``.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{what}: empty file, expected header "
                          f"{','.join(expected_header)}") from None
    header = [h.strip() for h in header]
    if header != expected_header:
        raise SchemaError(
            f"{what}: bad header {header!r}, expected {expected_header!r}"
        )
    empty = True
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(expected_header):
            raise SchemaError(
                f"{what}: row {line} has {len(row)} columns, "
                f"expected {len(expected_header)}"
            )
        empty = False
        yield line, row
    if empty:
        raise SchemaError(f"{what}: header but no data rows")


def _cell(row: list[str], idx: int, col: str, line: int, what: str,
          cast=float):
    raw = row[idx]
    try:
        return cast(raw)
    except ValueError:
        raise SchemaError(
            f"{what}: non-numeric value {raw!r} in column '{col}', row {line}"
        ) from None


def _amount(row: list[str], idx: int, col: str, line: int, what: str) -> float:
    """A numeric cell that must be finite and non-negative."""
    value = _cell(row, idx, col, line, what)
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(
            f"{what}: value {value!r} in column '{col}', row {line} must be "
            f"finite and >= 0"
        )
    return value


def load_crop_panel(source, deflator: Mapping[int, float] | None = None, *,
                    what: str | None = None, years=None) -> CropPanel:
    """Load a crop panel file; optionally deflate prices to real terms.

    ``deflator`` maps year to an index (base 100); each price is divided by
    ``deflator[year] / 100``. The deflator must cover every year present.
    No deflator is ever invented: nominal prices pass through unchanged.
    Errors start with ``what``, by default ``crop panel`` and the file; a
    caller loading another input in this schema names it there. Every row
    is checked, but with ``years`` (a set) only the rows of those are kept;
    ``CropPanel.checked`` counts them all.
    """
    if what is None:
        what = _label(source, "crop panel")
    columns = _Columns(years)
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["crop_id", "year", "area_ha",
                                        "production_t", "price_per_t"], what):
            crop_id = row[0].strip()
            if not crop_id:
                raise SchemaError(f"{what}: empty crop_id in row {line}")
            year = _cell(row, 1, "year", line, what, cast=int)
            area = _amount(row, 2, "area_ha", line, what)
            production = _amount(row, 3, "production_t", line, what)
            price = _amount(row, 4, "price_per_t", line, what)
            if deflator is not None:
                if year not in deflator:
                    raise CoverageError(
                        f"{what}: deflator does not cover year {year} (row {line})"
                    )
                index = deflator[year]
                if not (math.isfinite(index) and index > 0):
                    raise DomainError(
                        f"{what}: deflator for {year} must be finite and > 0, "
                        f"got {index!r} (row {line})"
                    )
                price = price / (index / 100.0)
            if not columns.add(year, crop_id, [area, production, price]):
                raise DuplicateKeyError(
                    f"{what}: duplicate ({crop_id}, {year}) in row {line}"
                )
    return CropPanel(columns)


def triennium_years(*ends: int) -> set[int]:
    """The years of the trienniums ending in ENDS: all that ``decompose``
    and ``markets.crop_shares`` read of a crop panel, in either mode."""
    return {end - k for end in ends for k in range(3)}


def triennium_average(panel: CropPanel, end_year: int) -> CropPanel:
    """Average the three years ending in ``end_year`` into one synthetic year.

    A crop absent in one of the years contributes zero area and production
    to that year's term (not grown means literally nothing harvested), while
    its price is averaged only over years where it was observed: a zero
    price would be meaningless.

    The result is memoised on ``panel``: a second call with the same
    ``end_year`` returns the same averaged panel.
    """
    memo = panel._trienniums
    if end_year in memo:
        return memo[end_year]
    span = (end_year - 2, end_year - 1, end_year)
    missing = [y for y in span if not panel.has_year(y)]
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
    memo[end_year] = CropPanel({end_year: (crops, *means)})
    return memo[end_year]


def _normalize_shares(columns, year: int, kind: str, what: str) -> None:
    """Rescale one year's ``kind`` shares in ``columns``, in place, to sum
    to 1: the second value of each ``(quantity, share)`` row."""
    _, codes, rows = columns.by_key.get((year, kind), (0, (), ()))
    shares = rows[1::2]
    total = sum(shares)
    if abs(total - 1.0) > 1e-9:
        if not SHARE_RENORM_BAND[0] <= total <= SHARE_RENORM_BAND[1]:
            raise NormalizationError(
                f"{what}: {kind} shares for {year} sum to {total!r}, outside "
                f"the renormalization band {SHARE_RENORM_BAND}"
            )
        shares = rows[1::2] = array("d", [share / total for share in shares])
    for code, share in zip(codes, shares):
        if share > 1:
            item_id = list(columns.codes)[code]
            raise DomainError(
                f"{what}: {kind} {item_id!r} in {year} has share {share!r} "
                f"after renormalization; shares must lie in [0, 1]")


def load_io_panel(source) -> InputOutputPanel:
    """Load an input-output panel (quantities plus revenue/cost shares).

    Share sums inside the renormalization band are rescaled to 1, sums
    outside it are rejected. Zero quantities are tolerated here but flagged,
    because they cannot enter a log-ratio later.
    """
    what = _label(source, "io panel")
    columns = _Columns()
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["year", "kind", "item_id", "quantity",
                                        "share"], what):
            year = _cell(row, 0, "year", line, what, cast=int)
            kind = row[1].strip()
            if kind not in IO_SIDES:
                raise SchemaError(
                    f"{what}: kind must be 'output' or 'input', got {kind!r} "
                    f"in row {line}"
                )
            item_id = row[2].strip()
            if not item_id:
                raise SchemaError(f"{what}: empty item_id in row {line}")
            quantity = _amount(row, 3, "quantity", line, what)
            share = _amount(row, 4, "share", line, what)
            if quantity <= 0 and share > 0:
                warnings.warn(
                    f"{what}: non-positive quantity for {kind} {item_id!r} in "
                    f"{year} (row {line}); it will be rejected if it enters a "
                    f"log-ratio",
                    stacklevel=2,
                )
            if not columns.add((year, kind), item_id, [quantity, share]):
                raise DuplicateKeyError(
                    f"{what}: duplicate {kind} {item_id!r} for {year} in row {line}"
                )
    for year in sorted({year for year, _ in columns.by_key}):
        for kind in IO_SIDES:
            _normalize_shares(columns, year, kind, what)
    return InputOutputPanel(columns)


def load_price_table(source) -> dict[str, PriceSeries]:
    """Load every commodity in a price-series file, keyed by commodity id."""
    what = _label(source, "price series")
    values: dict[str, dict[int, float]] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["commodity_id", "year", "price_per_t"],
                               what):
            commodity = row[0].strip()
            if not commodity:
                raise SchemaError(f"{what}: empty commodity_id in row {line}")
            year = _cell(row, 1, "year", line, what, cast=int)
            price = _cell(row, 2, "price_per_t", line, what)
            if not (math.isfinite(price) and price > 0):
                raise DomainError(
                    f"{what}: value {price!r} in column 'price_per_t', row "
                    f"{line} must be finite and > 0"
                )
            series = values.setdefault(commodity, {})
            if year in series:
                raise DuplicateKeyError(
                    f"{what}: duplicate ({commodity}, {year}) in row {line}"
                )
            series[year] = price
    return {c: PriceSeries(c, v) for c, v in sorted(values.items())}


def load_land_use(source) -> list[LandUseRecord]:
    """Load land-use records, sorted by year."""
    what = _label(source, "land use")
    records: dict[int, LandUseRecord] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["year", "agricultural_land",
                                        "non_agricultural_land",
                                        "total_reported"], what):
            year = _cell(row, 0, "year", line, what, cast=int)
            if year in records:
                raise DuplicateKeyError(f"{what}: duplicate year {year} in row {line}")
            agricultural = _amount(row, 1, "agricultural_land", line, what)
            non_agricultural = _amount(row, 2, "non_agricultural_land", line,
                                       what)
            total = _amount(row, 3, "total_reported", line, what)
            with _named(what, line):
                records[year] = LandUseRecord(year, agricultural,
                                              non_agricultural, total)
    return [records[y] for y in sorted(records)]


def load_value_cost(source) -> tuple[dict[int, float], dict[int, float]]:
    """Load per-year aggregate output value and input cost (currency)."""
    what = _label(source, "value/cost series")
    value: dict[int, float] = {}
    cost: dict[int, float] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["year", "output_value", "input_cost"],
                               what):
            year = _cell(row, 0, "year", line, what, cast=int)
            if year in value:
                raise DuplicateKeyError(f"{what}: duplicate year {year} in row {line}")
            value[year] = _amount(row, 1, "output_value", line, what)
            cost[year] = _amount(row, 2, "input_cost", line, what)
    return value, cost
