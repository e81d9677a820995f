"""Core data model for crop and input-output panels.

All types here are immutable once constructed and therefore safe to share
across threads. Validation happens at construction time (where an io
panel's shares are rescaled); analysis code can assume the invariants hold.

Both panels are columnar, and both are built one way: from the private
builder ``ingest._Columns``, which the loaders fill row by row (one code
per item id, and per key the rows' codes and values, or a crop panel's
trienniums), so no per-row object is made. Both are read one way, through
``columns``, and their ``array('d')`` columns hold doubles bit for bit.

* A ``CropPanel`` stores each of its trienniums and their end years as
  ascending crop ids plus three columns (area, production, price).
* An ``InputOutputPanel`` stores each year and side (outputs, inputs) as
  item ids in the order given plus two columns (quantity, share).

A ``CropPanel`` is folded into the trienniums its loader was given, each
row as it comes, in any row order, and fills them at construction; it
keeps no year but their end years. ``ingest.triennium_average`` reads a
triennium, as the tuple ``columns`` returns for a year, its columns
read-only views.
"""
from __future__ import annotations

import math
from array import array
from functools import reduce
from itertools import compress
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


def _view(column) -> memoryview:
    """A read-only view of COLUMN, as ``columns`` gives each column."""
    return memoryview(column).toreadonly()


def _pick(names, order, weights, last, values):
    """The codes of ORDER whose weight is not 0, as ``columns`` returns a
    year: their ids, as a tuple or as LAST if that holds the same ids (so
    equal id tuples of a panel are stored once), then their area,
    production and price columns, each allocated at its length, from
    VALUES, three doubles a code."""
    picked = array("I", compress(order, map(weights.__getitem__, order)))
    columns = [array("d", [0.0]) * len(picked) for _ in range(3)]
    area, production, price = columns
    for i, code in enumerate(picked):
        j = 3 * code
        area[i], production[i], price[i] = (values[j], values[j + 1],
                                            values[j + 2])
    ids = tuple(map(names.__getitem__, picked))
    return last if ids == last else ids, *columns


class CropPanel:
    """Crop observations keyed by (crop_id, year), at most one per key,
    folded into the trienniums a loader's ``_Columns`` was given.

    ``_trienniums`` maps each end year whose three years have rows to its
    triennium, in ``columns``' shape: the crops of any of its years, their
    area and production (P + Q) / 3.0 and their price (P + Q) over the
    years that have the crop, from the slots the rows were folded into
    (see ``ingest._Columns``); ``ingest.triennium_average`` reads it. An
    end year with rows keeps its own columns, from its Q slot, read
    through ``columns``; no other year is kept. Crop ids ascend, so every
    downstream aggregate is reproducible bit-for-bit, and equal id tuples
    are shared. ``years`` are the years of the trienniums that have rows;
    ``checked`` counts every row given: ``(rows, distinct crops, years)``,
    the years ascending.
    """

    def __init__(self, columns) -> None:
        by_key, slots, count = columns.by_key, columns.slots, 0
        for year, (flags, *_) in by_key.items():
            count += flags.count(1)
            if year in columns.into:  # a flag byte for every code
                flags.extend(bytes(len(columns.codes) - len(flags)))
            else:
                flags.clear()  # freed before the list of ids is made
        names = list(columns.codes)  # each code's id
        columns.codes.clear()
        for into in columns.into.values():  # held by the years' entries
            into.clear()  # too: emptied, so each slot is freed once read
        self.checked = (count, len(names), tuple(sorted(by_key)))
        self._years = tuple(sorted(columns.into.keys() & by_key.keys()))
        self._by_year: dict[int, tuple[tuple[str, ...], array, array,
                                       array]] = {}
        self._trienniums = {}
        # the ids are sorted once; each end year's P is freed once its
        # triennium is made, its Q once its columns are
        order = array("I", sorted(range(len(names)), key=names.__getitem__))
        ids = None
        for end in list(slots):
            p, q = slots.pop(end)
            span = [by_key[year][0] for year in range(end - 2, end + 1)
                    if year in by_key]
            if len(span) == 3:
                seen = bytes(map(sum, zip(*span)))  # years with the crop
                # P becomes the triennium's means, in place
                for code in compress(range(len(names)), seen):
                    i = 3 * code
                    p[i] = (p[i] + q[i]) / 3.0
                    p[i + 1] = (p[i + 1] + q[i + 1]) / 3.0
                    p[i + 2] = (p[i + 2] + q[i + 2]) / seen[code]
                ids, *means = _pick(names, order, seen, ids, p)
                self._trienniums[end] = (ids, *map(_view, means))
            del p
            if end in by_key:
                ids, *_ = self._by_year[end] = _pick(names, order,
                                                    by_key[end][0], ids, q)
            del q

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
                if year not in self._years else
                f"year {year} is held only in its triennium's average")
        ids, *values = self._by_year[year]
        return (ids, *map(_view, values))


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
                _, codes, flat, _ = columns.by_key.pop((year, side),
                                                       (0, (), (), ()))
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
        return (ids, *map(_view, values))


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
