"""Core data model for crop and input-output panels.

All types here are immutable once constructed and therefore safe to share
across threads. Validation happens at construction time; analysis code can
assume the invariants hold.

A ``CropPanel`` stores each year as crop ids plus three ``array('d')``
columns (area, production, price), which hold doubles bit for bit. It also
memoises the trienniums averaged from it (``ingest.triennium_average``).
That memo is an idempotent cache on an immutable panel: it changes no
result, and two threads that fill one entry at once store equal panels,
so it needs no lock.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat

from .errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
)

SHARE_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class CropObservation:
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
    """Observations gathered year by year, in arrival order: per year, the
    crop ids plus an area, a production and a price column.

    Every ``CropPanel`` is indexed from one of these, which it empties;
    ``ingest.load_crop_panel`` fills one straight from a file, so no
    per-row object is built.
    """

    __slots__ = ("years",)

    def __init__(self) -> None:
        # year -> (crop ids as an insertion-ordered dict, area, production,
        # price)
        self.years: dict[int, tuple[dict[str, None], array, array, array]] = {}

    def add(self, crop_id: str, year: int, area: float, production: float,
            price: float) -> bool:
        """Append one observation; False, and nothing appended, if
        (crop_id, year) is already present."""
        columns = self.years.get(year)
        if columns is None:
            columns = self.years[year] = ({}, array("d"), array("d"),
                                          array("d"))
        ids, areas, productions, prices = columns
        if crop_id in ids:
            return False
        ids[crop_id] = None
        areas.append(area)
        productions.append(production)
        prices.append(price)
        return True


class CropPanel:
    """A set of crop observations keyed by (crop_id, year).

    At most one observation per key. Observations are indexed by year once,
    at construction: years ascend and, within a year, crop ids ascend, so
    every downstream aggregate is reproducible bit-for-bit. Each year is
    stored as a tuple of crop ids plus area, production and price columns
    of doubles; ``get`` and ``observations`` build ``CropObservation``
    objects on demand. ``_trienniums`` maps an end year to the triennium
    averaged from this panel; ``ingest.triennium_average`` fills and reads
    it.
    """

    def __init__(self, observations) -> None:
        if isinstance(observations, _Columns):
            columns = observations
        else:
            columns = _Columns()
            for obs in observations:
                if not columns.add(obs.crop_id, obs.year, obs.area,
                                   obs.production, obs.price):
                    raise DuplicateKeyError(
                        f"duplicate observation for {(obs.crop_id, obs.year)}"
                    )
        # sort year by year, so at most one year is held twice
        self._by_year: dict[int, tuple[tuple[str, ...], array, array, array]] = {}
        for year in sorted(columns.years):
            ids, *values = columns.years.pop(year)
            ids = list(ids)
            order = sorted(range(len(ids)), key=ids.__getitem__)
            self._by_year[year] = (
                tuple([ids[i] for i in order]),
                *(array("d", [column[i] for i in order]) for column in values),
            )
        self._years = tuple(self._by_year)
        self._crops = tuple(sorted(
            set().union(*(ids for ids, *_ in self._by_year.values()))))
        self._len = sum(len(ids) for ids, *_ in self._by_year.values())
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
        self._require_year(year)
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

    def _require_year(self, year: int) -> None:
        if not self.has_year(year):
            raise CoverageError(
                f"year {year} not covered by panel (have {self._years})"
            )


@dataclass(frozen=True, slots=True)
class IOItem:
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


@dataclass(frozen=True, slots=True)
class IOYear:
    year: int
    outputs: tuple[IOItem, ...]
    inputs: tuple[IOItem, ...]

    def __post_init__(self) -> None:
        for kind, items in (("output", self.outputs), ("input", self.inputs)):
            total = sum(it.share for it in items)
            if abs(total - 1.0) > SHARE_SUM_TOL:
                raise NormalizationError(
                    f"{kind} shares for {self.year} sum to {total!r}, not 1"
                )
            ids = [it.item_id for it in items]
            if len(ids) != len(set(ids)):
                raise DuplicateKeyError(f"duplicate {kind} item in {self.year}")


class InputOutputPanel:
    """Per-year output quantities with revenue shares and input quantities
    with cost shares. Substrate for the productivity index."""

    def __init__(self, years) -> None:
        by_year: dict[int, IOYear] = {}
        for ioy in years:
            if ioy.year in by_year:
                raise DuplicateKeyError(f"duplicate year {ioy.year} in panel")
            by_year[ioy.year] = ioy
        self._by_year = by_year
        self._years = tuple(sorted(by_year))

    @property
    def years(self) -> tuple[int, ...]:
        return self._years

    def __eq__(self, other) -> bool:
        if not isinstance(other, InputOutputPanel):
            return NotImplemented
        return self._by_year == other._by_year

    def year(self, year: int) -> IOYear:
        try:
            return self._by_year[year]
        except KeyError:
            raise CoverageError(
                f"year {year} not covered by panel (have {self._years})"
            ) from None

    def outputs(self, year: int) -> tuple[IOItem, ...]:
        return self.year(year).outputs

    def inputs(self, year: int) -> tuple[IOItem, ...]:
        return self.year(year).inputs


@dataclass(frozen=True)
class PriceSeries:
    """Prices (currency per tonne) for one commodity over years."""

    commodity_id: str
    values: dict[int, float] = field(compare=True)

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


@dataclass(frozen=True)
class LandUseRecord:
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
