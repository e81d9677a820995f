"""Core data model for crop and input-output panels.

All types here are immutable once constructed and therefore safe to share
across threads. Validation happens at construction time; analysis code can
assume the invariants hold.

Both panels are columnar, and both are filled through one private
builder, ``_Columns``, so no per-row object is kept: one code per item id,
and per key the rows' codes and values. The panels' ``array('d')``
columns hold doubles bit for bit, and the row objects (``CropObservation``,
``IOItem``, ``IOYear``) are built on demand.

* A ``CropPanel`` stores each year as ascending crop ids plus three columns
  (area, production, price).
* An ``InputOutputPanel`` stores each year and side (outputs, inputs) as
  item ids in the order given plus two columns (quantity, share).

A ``CropPanel`` also memoises the trienniums averaged from it
(``ingest.triennium_average``), each one year stored as the average fills
it. That memo is an idempotent cache on an
immutable panel: it changes no result, and two threads that fill one entry
at once store equal panels, so it needs no lock.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import repeat

from ._record import Record
from .errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
)

SHARE_SUM_TOL = 1e-9


class CropObservation(Record, frozen=True):
    """One crop in one year: area (ha), production (t), price (currency/t).

    Yield is derived, never stored: production / area, defined only for
    positive area.
    """

    crop_id: str
    year: int
    area: float
    production: float
    price: float

    def __post_init__(self) -> None:
        for name in ("area", "production", "price"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise DomainError(
                    f"{name} must be finite and >= 0 for ({self.crop_id}, "
                    f"{self.year}), got {v!r}"
                )

    @property
    def yield_per_ha(self) -> float:
        """Production per hectare; requires positive area."""
        if self.area <= 0:
            raise DomainError(
                f"yield undefined for ({self.crop_id}, {self.year}): area is 0"
            )
        return self.production / self.area


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
    """A set of crop observations keyed by (crop_id, year).

    At most one observation per key. Observations are indexed by year once,
    at construction: years ascend and, within a year, crop ids ascend, so
    every downstream aggregate is reproducible bit-for-bit. Each year is
    stored as a tuple of crop ids plus area, production and price columns
    of doubles; ``get`` and ``observations`` build ``CropObservation``
    objects on demand, and equal id tuples are shared. ``checked`` counts
    every row given, kept or not: ``(rows, distinct crops, years)``, the
    years ascending. ``_trienniums`` maps an end year to the triennium
    averaged from this panel; ``ingest.triennium_average`` fills and reads
    it.
    """

    def __init__(self, observations) -> None:
        if isinstance(observations, dict):
            # years as stored, ``{year: (crop ids ascending, area,
            # production, price)}``: kept as given, every row counted
            self._by_year, checked = observations, None
        else:
            if isinstance(observations, _Columns):
                columns = observations
            else:
                columns = _Columns()
                for obs in observations:
                    if not columns.add(obs.year, obs.crop_id,
                                       [obs.area, obs.production, obs.price]):
                        raise DuplicateKeyError(
                            f"duplicate observation for {(obs.crop_id, obs.year)}"
                        )
            by_key, years, count = columns.by_key, sorted(columns.by_key), 0
            for flags, _, _ in by_key.values():
                count += flags.count(1)
                flags.clear()  # freed before the list of ids is made
            names = list(columns.codes)  # each code's id
            columns.codes.clear()
            checked = (count, len(names), tuple(years))
            # sort year by year, each year's scratch freed before the next
            self._by_year: dict[int, tuple[tuple[str, ...], array, array,
                                           array]] = {}
            last = None
            for year in years:
                _, codes, flat = by_key.pop(year)
                if codes is None:
                    continue
                ids = list(map(names.__getitem__, codes))
                order = array("I", sorted(range(len(ids)),
                                          key=ids.__getitem__))
                last = _shared(map(ids.__getitem__, order), last)
                del codes, ids
                rows = array("d")  # the year's rows in crop order, whose
                for i in order:  # strided slices are allocated at their length
                    rows.extend(flat[3 * i:3 * i + 3])
                self._by_year[year] = (last, *(rows[k::3] for k in range(3)))
                del flat, order, rows
        self._years = tuple(self._by_year)
        kept = [ids for ids, *_ in self._by_year.values()]
        widest = max(kept, key=len, default=())  # no set if every year is it
        self._crops = widest if all(ids is widest for ids in kept) else (
            _shared(sorted(set().union(*kept)), widest))
        self._len = sum(map(len, kept))
        self.checked = checked or (self._len, len(self._crops), self._years)
        self._trienniums: dict[int, CropPanel] = {}

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    @property
    def crops(self) -> tuple[str, ...]:
        return self._crops

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other) -> bool:
        if not isinstance(other, CropPanel):
            return NotImplemented
        return self._by_year == other._by_year

    def __repr__(self) -> str:
        return (
            f"CropPanel({self._len} observations, "
            f"{len(self._crops)} crops, years {self._years[:1]}..{self._years[-1:]})"
        )

    def has_year(self, year: int) -> bool:
        return year in self._by_year

    def get(self, crop_id: str, year: int) -> CropObservation | None:
        columns = self._by_year.get(year)
        if columns is None:
            return None
        ids, area, production, price = columns
        i = bisect_left(ids, crop_id)
        if i == len(ids) or ids[i] != crop_id:
            return None
        return CropObservation(ids[i], year, area[i], production[i], price[i])

    def observations(self, year: int | None = None):
        """All observations in (crop_id, year) order, or one year's by crop_id."""
        if year is not None:
            if year not in self._by_year:
                return iter(())
            ids, *values = self._by_year[year]
            return map(CropObservation, ids, repeat(year), *values)
        return (
            obs
            for crop in self._crops
            for year in self._years
            if (obs := self.get(crop, year)) is not None
        )

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

    def total_area(self, year: int) -> float:
        return sum(self.columns(year)[1])

    def area_shares(self, year: int) -> dict[str, float]:
        """Per-crop share of total cropped area; shares sum to 1."""
        ids, area, _, _ = self.columns(year)
        total = sum(area)
        if total <= 0:
            raise DomainError(f"total cropped area in {year} is not positive")
        return {crop: a / total for crop, a in zip(ids, area)}


IO_SIDES = ("output", "input")


class IOItem(Record, frozen=True):
    """One output or input in one year: quantity plus its value share."""

    item_id: str
    quantity: float
    share: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.quantity) or self.quantity < 0:
            raise DomainError(f"quantity for {self.item_id} must be >= 0")
        if not math.isfinite(self.share) or not 0 <= self.share <= 1:
            raise DomainError(
                f"share for {self.item_id} must lie in [0, 1], got {self.share!r}"
            )


def _check_share_sum(kind: str, year: int, shares) -> None:
    total = sum(shares)
    if abs(total - 1.0) > SHARE_SUM_TOL:
        raise NormalizationError(
            f"{kind} shares for {year} sum to {total!r}, not 1"
        )


class IOYear(Record, frozen=True):
    year: int
    outputs: tuple[IOItem, ...]
    inputs: tuple[IOItem, ...]

    def __post_init__(self) -> None:
        for kind, items in zip(IO_SIDES, (self.outputs, self.inputs)):
            _check_share_sum(kind, self.year, [it.share for it in items])
            ids = [it.item_id for it in items]
            if len(ids) != len(set(ids)):
                raise DuplicateKeyError(f"duplicate {kind} item in {self.year}")


class InputOutputPanel:
    """Per-year output quantities with revenue shares and input quantities
    with cost shares. Substrate for the productivity index.

    Each year and side is stored as a tuple of item ids, in the order they
    were given (an earlier year's tuple if equal), plus quantity and share
    columns of doubles; ``year``, ``outputs`` and ``inputs`` build
    ``IOYear`` and ``IOItem`` objects on demand. Every side's shares sum
    to 1 within ``SHARE_SUM_TOL``.
    """

    def __init__(self, years) -> None:
        if isinstance(years, _Columns):
            columns = years
        else:
            columns = _Columns()
            for ioy in years:
                if (ioy.year, "output") in columns.by_key:
                    raise DuplicateKeyError(
                        f"duplicate year {ioy.year} in panel")
                # an IOYear has checked that its ids are unique
                for side, items in zip(IO_SIDES, (ioy.outputs, ioy.inputs)):
                    for it in items:
                        columns.add((ioy.year, side), it.item_id,
                                    [it.quantity, it.share])
        names = list(columns.codes)
        self._by_year: dict[int, dict[str, tuple[tuple[str, ...], array,
                                                 array]]] = {}
        known: dict[tuple[str, ...], tuple[str, ...]] = {}  # each id order
        for year in sorted({year for year, _ in columns.by_key}):
            sides = self._by_year[year] = {}
            for side in IO_SIDES:
                _, codes, flat = columns.by_key.pop((year, side), (0, (), ()))
                quantities, shares = flat[0::2], flat[1::2]
                _check_share_sum(side, year, shares)
                ids = tuple(map(names.__getitem__, codes))
                ids = known.setdefault(ids, ids)
                sides[side] = (ids, quantities, shares)
        self._years = tuple(self._by_year)

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def __eq__(self, other) -> bool:
        if not isinstance(other, InputOutputPanel):
            return NotImplemented
        return self._by_year == other._by_year

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

    def year(self, year: int) -> IOYear:
        return IOYear(year, self.outputs(year), self.inputs(year))

    def outputs(self, year: int) -> tuple[IOItem, ...]:
        return tuple(map(IOItem, *self.columns(year, "output")))

    def inputs(self, year: int) -> tuple[IOItem, ...]:
        return tuple(map(IOItem, *self.columns(year, "input")))


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
