"""Core data model for crop and input-output panels.

All types here are immutable once constructed and therefore safe to share
across threads. Validation happens at construction time (where an io
panel's shares are rescaled); analysis code can assume the invariants hold.

Both panels are columnar, and both are built one way: from a private
builder, ``_Columns``, which the loaders in ``ingest`` fill row by row
(one code per item id, and per key the rows' codes and values), so no
per-row object is made. Both are read one way, through ``columns``, and
their ``array('d')`` columns hold doubles bit for bit.

* A ``CropPanel`` stores each year as ascending crop ids plus three columns
  (area, production, price).
* An ``InputOutputPanel`` stores each year and side (outputs, inputs) as
  item ids in the order given plus two columns (quantity, share).

A ``CropPanel`` also memoises the trienniums averaged from it
(``ingest.triennium_average``), each as the tuple ``columns`` returns for a
year, its columns read-only views. That memo is an idempotent cache on an
immutable panel: it changes no result, and two threads that fill one entry
at once store equal tuples, so it needs no lock.
"""
from __future__ import annotations

import math
from array import array
from functools import reduce
from operator import add

from ._record import Record
from .errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    NormalizationError,
)

# An io panel's shares are accepted and rescaled inside this band, refused
# outside it. Published share tables round to one decimal, hence +/- 0.001.
SHARE_RENORM_BAND = (0.999, 1.001)


class _Columns:
    """Rows gathered key by key, in arrival order: per key, the codes of
    the item ids plus the rows' values, row after row, in one column of
    doubles.

    A key is a crop panel's year or an io panel's ``(year, side)``. Every
    ``CropPanel`` and ``InputOutputPanel`` is built from one of these,
    which it empties; the loaders in ``ingest`` fill one straight from a
    file, so no per-row object is built. ``codes`` numbers the item ids as
    they come, its keys the one string kept of each id, and a key's flags
    hold one byte per code, set once that id is under the key. With
    ``keep``, a key not in it gets its flags but no codes (None).
    """

    __slots__ = ("by_key", "codes", "keep")

    def __init__(self, keep=None) -> None:
        # key -> (its flags, its rows' codes or None, values row-major)
        self.by_key: dict[object, tuple[bytearray, array | None, array]] = {}
        self.codes: dict[str, int] = {}
        self.keep = keep

    def add(self, key, item_id: str, values: list[float]) -> bool:
        """Append one row; False, and nothing appended, if ``item_id`` is
        already under ``key``."""
        code = self.codes.get(item_id)
        if code is None:
            code = self.codes[item_id] = len(self.codes)
        entry = self.by_key.get(key)
        if entry is None:
            codes = array("I") if self.keep is None or key in self.keep else None
            entry = self.by_key[key] = (bytearray(), codes, array("d"))
        flags, codes, flat = entry
        if code >= len(flags):
            flags.extend(bytes(len(self.codes) - len(flags)))
        elif flags[code]:
            return False
        flags[code] = 1
        if codes is not None:
            codes.append(code)
            flat.fromlist(values)
        return True


def _shared(ids, last):
    """IDS as a tuple, or LAST if that holds the same ids: equal id
    tuples of a panel's keys are stored once."""
    ids = tuple(ids)
    return last if ids == last else ids


class CropPanel:
    """Crop observations keyed by (crop_id, year), at most one per key.

    Built from a loader's ``_Columns``, and indexed by year once, at
    construction: years ascend and, within a year, crop ids ascend, so
    every downstream aggregate is reproducible bit-for-bit. Each year is
    stored as a tuple of crop ids plus area, production and price columns
    of doubles, read through ``columns``; equal id tuples are shared.
    ``checked`` counts every row given, kept or not: ``(rows, distinct
    crops, years)``, the years ascending. ``_trienniums`` maps an end year
    to the triennium averaged from this panel, in ``columns``' shape;
    ``ingest.triennium_average`` fills and reads it.
    """

    def __init__(self, columns) -> None:
        by_key, years, count = columns.by_key, sorted(columns.by_key), 0
        for flags, _, _ in by_key.values():
            count += flags.count(1)
            flags.clear()  # freed before the list of ids is made
        names = list(columns.codes)  # each code's id
        columns.codes.clear()
        self.checked = (count, len(names), tuple(years))
        # sort year by year, each year's scratch freed before the next
        self._by_year: dict[int, tuple[tuple[str, ...], array, array,
                                       array]] = {}
        last = None
        for year in years:
            _, codes, flat = by_key.pop(year)
            if codes is None:
                continue
            ids = list(map(names.__getitem__, codes))
            order = array("I", sorted(range(len(ids)), key=ids.__getitem__))
            last = _shared(map(ids.__getitem__, order), last)
            del codes, ids
            rows = array("d")  # the year's rows in crop order, whose
            for i in order:  # strided slices are allocated at their length
                rows.extend(flat[3 * i:3 * i + 3])
            self._by_year[year] = (last, *(rows[k::3] for k in range(3)))
            del flat, order, rows
        self._years = tuple(self._by_year)
        self._trienniums: dict[int, tuple] = {}

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def has_year(self, year: int) -> bool:
        return year in self._by_year

    def columns(self, year: int):
        """One year as ``(crop_ids, area, production, price)``: crop ids
        ascending, each value column a read-only view of doubles in the
        same order."""
        if year not in self._by_year:
            raise CoverageError(
                f"year {year} not covered by panel (have {self._years})"
            )
        ids, *values = self._by_year[year]
        return (ids, *(memoryview(column).toreadonly() for column in values))


IO_SIDES = ("output", "input")


class InputOutputPanel:
    """Per-year output quantities with revenue shares and input quantities
    with cost shares. Substrate for the productivity index.

    Built from a loader's ``_Columns``. Each year and side is stored as a
    tuple of item ids, in the order they were given (an earlier year's
    tuple if equal), plus quantity and share columns of doubles, read
    through ``columns``. Each side's shares are checked here: a sum outside
    ``SHARE_RENORM_BAND`` is refused, one inside it but not within 1e-9 of 1
    is rescaled to 1, and a share still outside [0, 1] is refused.
    """

    def __init__(self, columns) -> None:
        names = list(columns.codes)
        self._by_year: dict[int, dict[str, tuple[tuple[str, ...], array,
                                                 array]]] = {}
        known: dict[tuple[str, ...], tuple[str, ...]] = {}  # each id order
        for year in sorted({year for year, _ in columns.by_key}):
            sides = self._by_year[year] = {}
            for side in IO_SIDES:
                _, codes, flat = columns.by_key.pop((year, side), (0, (), ()))
                quantities, shares = flat[0::2], flat[1::2]
                total = reduce(add, shares, 0)
                if not SHARE_RENORM_BAND[0] <= total <= SHARE_RENORM_BAND[1]:
                    raise NormalizationError(
                        f"{side} shares for {year} sum to {total!r}, outside "
                        f"the renormalization band {SHARE_RENORM_BAND}")
                if abs(total - 1.0) > 1e-9:
                    shares = array("d", [share / total for share in shares])
                ids = tuple(map(names.__getitem__, codes))
                for item_id, share in zip(ids, shares):
                    if not 0 <= share <= 1:
                        raise DomainError(
                            f"{side} {item_id!r} in {year} has share {share!r} "
                            f"after renormalization; shares must lie in [0, 1]")
                ids = known.setdefault(ids, ids)
                sides[side] = (ids, quantities, shares)
        self._years = tuple(self._by_year)

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def columns(self, year: int, side: str):
        """One year's outputs or inputs (``side`` is ``"output"`` or
        ``"input"``) as ``(item_ids, quantity, share)``: ids in the order
        given, each value column a read-only view of doubles in the same
        order."""
        sides = self._by_year.get(year)
        if sides is None:
            raise CoverageError(
                f"year {year} not covered by panel (have {self._years})"
            )
        ids, *values = sides[side]
        return (ids, *(memoryview(column).toreadonly() for column in values))


class PriceSeries(Record, frozen=True):
    """Prices (currency per tonne) for one commodity over years."""

    commodity_id: str
    values: dict[int, float]

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        for year in sorted(self.values):
            price = self.values[year]
            if not math.isfinite(price) or price <= 0:
                raise DomainError(
                    f"price for ({self.commodity_id}, {year}) must be > 0, "
                    f"got {price!r}"
                )
            clean[int(year)] = float(price)
        object.__setattr__(self, "values", clean)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.values)

    def window(self, first: int | None = None, last: int | None = None) -> list[float]:
        """Prices for years in [first, last], inclusive, year order."""
        return [
            p
            for y, p in self.values.items()
            if (first is None or y >= first) and (last is None or y <= last)
        ]


class LandUseRecord(Record, frozen=True):
    """Agricultural vs non-agricultural land in one year's reported area."""

    year: int
    agricultural_land: float
    non_agricultural_land: float
    total_reported: float

    def __post_init__(self) -> None:
        for name in ("agricultural_land", "non_agricultural_land", "total_reported"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
        used = self.agricultural_land + self.non_agricultural_land
        # small relative slack so sums that equal the total survive float noise
        if used > self.total_reported * (1 + 1e-12) + 1e-12:
            raise DataInconsistencyError(
                f"land components in {self.year} exceed total reported area "
                f"({used!r} > {self.total_reported!r})"
            )
