"""Loaders for the tabular input formats, plus triennium averaging.

File schemas (delimited text, UTF-8, ``.`` decimal separator, header row):

* crop panel:   ``crop_id,year,area_ha,production_t,price_per_t``
* io panel:     ``year,kind,item_id,quantity,share``   (kind: output | input)
* price series: ``commodity_id,year,price_per_t``
* land use:     ``year,agricultural_land,non_agricultural_land,total_reported``
* value/cost:   ``year,output_value,input_cost``

Loading is single-threaded per source; every returned object is immutable
and safe to share across concurrent readers.
"""
from __future__ import annotations

import csv
import math
import sys
import warnings
from contextlib import contextmanager
from typing import Mapping

from .errors import (
    CoverageError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
    SchemaError,
)
from .panel import (
    CropPanel,
    InputOutputPanel,
    IOItem,
    IOYear,
    LandUseRecord,
    PriceSeries,
    _Columns,
)

# Shares are accepted and renormalized inside this band, rejected outside it.
# Published share tables round to one decimal, hence +/- 0.001.
SHARE_RENORM_BAND = (0.999, 1.001)


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
        raise SchemaError(
            f"{what} {source}: not UTF-8 text ({exc.reason})"
        ) from None


def _rows(stream, expected_header: list[str], what: str):
    """Yield (line_number, row) pairs after validating header and widths."""
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
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(expected_header):
            raise SchemaError(
                f"{what}: row {line} has {len(row)} columns, "
                f"expected {len(expected_header)}"
            )
        yield line, row


def _cell(row: list[str], idx: int, col: str, line: int, what: str,
          cast=float):
    try:
        raw = row[idx]
    except IndexError:
        raise SchemaError(f"{what}: row {line} is missing column '{col}'") from None
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


def load_crop_panel(source, deflator: Mapping[int, float] | None = None) -> CropPanel:
    """Load a crop panel file; optionally deflate prices to real terms.

    ``deflator`` maps year to an index (base 100); each price is divided by
    ``deflator[year] / 100``. The deflator must cover every year present.
    No deflator is ever invented: nominal prices pass through unchanged.
    """
    what = "crop panel"
    columns = _Columns()
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["crop_id", "year", "area_ha",
                                        "production_t", "price_per_t"], what):
            crop_id = sys.intern(row[0].strip())
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
            if not columns.add(crop_id, year, area, production, price):
                raise DuplicateKeyError(
                    f"{what}: duplicate ({crop_id}, {year}) in row {line}"
                )
    return CropPanel(columns)


def write_crop_panel(panel: CropPanel, dest) -> None:
    """Write a panel back to the crop-panel schema (round-trips exactly)."""
    own = not hasattr(dest, "write")
    stream = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["crop_id", "year", "area_ha", "production_t",
                         "price_per_t"])
        for obs in panel.observations():
            writer.writerow([obs.crop_id, obs.year, repr(obs.area),
                             repr(obs.production), repr(obs.price)])
    finally:
        if own:
            stream.close()


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
    present: dict[str, list[tuple[float, float, float]]] = {}
    for year in span:
        ids, area, production, price = panel.columns(year)
        for crop, values in zip(ids, zip(area, production, price)):
            present.setdefault(crop, []).append(values)
    averaged = _Columns()
    for crop in sorted(present):
        found = present[crop]  # the years observed, in year order
        averaged.add(crop, end_year,
                     sum(v[0] for v in found) / 3.0,
                     sum(v[1] for v in found) / 3.0,
                     sum(v[2] for v in found) / len(found))
    memo[end_year] = CropPanel(averaged)
    return memo[end_year]


def _normalize_shares(items: dict[str, tuple[float, float]], year: int,
                      kind: str) -> list[IOItem]:
    total = sum(share for _, share in items.values())
    if abs(total - 1.0) <= 1e-9:
        factor = 1.0
    elif SHARE_RENORM_BAND[0] <= total <= SHARE_RENORM_BAND[1]:
        factor = total
    else:
        raise NormalizationError(
            f"io panel: {kind} shares for {year} sum to {total!r}, outside "
            f"the renormalization band {SHARE_RENORM_BAND}"
        )
    return [IOItem(item_id, qty, share / factor)
            for item_id, (qty, share) in items.items()]


def load_io_panel(source) -> InputOutputPanel:
    """Load an input-output panel (quantities plus revenue/cost shares).

    Share sums inside the renormalization band are rescaled to 1, sums
    outside it are rejected. Zero quantities are tolerated here but flagged,
    because they cannot enter a log-ratio later.
    """
    what = "io panel"
    # per year and kind: item id -> (quantity, share), in file order
    by_year: dict[int, dict[str, dict[str, tuple[float, float]]]] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["year", "kind", "item_id", "quantity",
                                        "share"], what):
            year = _cell(row, 0, "year", line, what, cast=int)
            kind = row[1].strip()
            if kind not in ("output", "input"):
                raise SchemaError(
                    f"{what}: kind must be 'output' or 'input', got {kind!r} "
                    f"in row {line}"
                )
            item_id = row[2].strip()
            if not item_id:
                raise SchemaError(f"{what}: empty item_id in row {line}")
            quantity = _cell(row, 3, "quantity", line, what)
            share = _cell(row, 4, "share", line, what)
            if quantity <= 0 and share > 0:
                warnings.warn(
                    f"{what}: non-positive quantity for {kind} {item_id!r} in "
                    f"{year} (row {line}); it will be rejected if it enters a "
                    f"log-ratio",
                    stacklevel=2,
                )
            items = by_year.setdefault(year, {"output": {}, "input": {}})[kind]
            if item_id in items:
                raise DuplicateKeyError(
                    f"{what}: duplicate {kind} {item_id!r} for {year} in row {line}"
                )
            items[item_id] = (quantity, share)
    years = []
    for year in sorted(by_year):
        outputs = _normalize_shares(by_year[year]["output"], year, "output")
        inputs = _normalize_shares(by_year[year]["input"], year, "input")
        years.append(IOYear(year, tuple(outputs), tuple(inputs)))
    return InputOutputPanel(years)


def load_price_table(source) -> dict[str, PriceSeries]:
    """Load every commodity in a price-series file, keyed by commodity id."""
    what = "price series"
    values: dict[str, dict[int, float]] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["commodity_id", "year", "price_per_t"],
                               what):
            commodity = row[0].strip()
            if not commodity:
                raise SchemaError(f"{what}: empty commodity_id in row {line}")
            year = _cell(row, 1, "year", line, what, cast=int)
            price = _cell(row, 2, "price_per_t", line, what)
            series = values.setdefault(commodity, {})
            if year in series:
                raise DuplicateKeyError(
                    f"{what}: duplicate ({commodity}, {year}) in row {line}"
                )
            series[year] = price
    return {c: PriceSeries(c, v) for c, v in sorted(values.items())}


def load_land_use(source) -> list[LandUseRecord]:
    """Load land-use records, sorted by year."""
    what = "land use"
    records: dict[int, LandUseRecord] = {}
    with _open_text(source, what) as stream:
        for line, row in _rows(stream, ["year", "agricultural_land",
                                        "non_agricultural_land",
                                        "total_reported"], what):
            year = _cell(row, 0, "year", line, what, cast=int)
            if year in records:
                raise DuplicateKeyError(f"{what}: duplicate year {year} in row {line}")
            records[year] = LandUseRecord(
                year,
                _cell(row, 1, "agricultural_land", line, what),
                _cell(row, 2, "non_agricultural_land", line, what),
                _cell(row, 3, "total_reported", line, what),
            )
    return [records[y] for y in sorted(records)]


def load_value_cost(source) -> tuple[dict[int, float], dict[int, float]]:
    """Load per-year aggregate output value and input cost (currency)."""
    what = "value/cost series"
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
