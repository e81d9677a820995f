"""Core data model for crop and input-output panels.

All types here are immutable once constructed and therefore safe to share
across threads. Validation happens at construction time; analysis code can
assume the invariants hold.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

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


class CropPanel:
    """A set of crop observations keyed by (crop_id, year).

    At most one observation per key. Observations are indexed by year once,
    at construction: years ascend and, within a year, crop ids ascend, so
    every downstream aggregate is reproducible bit-for-bit.
    """

    def __init__(self, observations) -> None:
        by_year: defaultdict[int, dict[str, CropObservation]] = defaultdict(dict)
        for obs in observations:
            crops = by_year[obs.year]
            if obs.crop_id in crops:
                raise DuplicateKeyError(
                    f"duplicate observation for {(obs.crop_id, obs.year)}"
                )
            crops[obs.crop_id] = obs
        # re-insert year by year, so at most one year is held twice
        self._by_year: dict[int, dict[str, CropObservation]] = {}
        for year in sorted(by_year):
            crops = by_year.pop(year)
            self._by_year[year] = {c: crops[c] for c in sorted(crops)}
        self._years = tuple(self._by_year)
        self._crops = tuple(sorted(set().union(*self._by_year.values())))
        self._len = sum(map(len, self._by_year.values()))

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
        crops = self._by_year.get(year)
        return None if crops is None else crops.get(crop_id)

    def observations(self, year: int | None = None):
        """All observations in (crop_id, year) order, or one year's by crop_id."""
        if year is not None:
            return iter(self._by_year.get(year, {}).values())
        return (
            crops[crop]
            for crop in self._crops
            for crops in self._by_year.values()
            if crop in crops
        )

    def total_area(self, year: int) -> float:
        self._require_year(year)
        return sum(o.area for o in self.observations(year))

    def area_shares(self, year: int) -> dict[str, float]:
        """Per-crop share of total cropped area; shares sum to 1."""
        total = self.total_area(year)
        if total <= 0:
            raise DomainError(f"total cropped area in {year} is not positive")
        return {o.crop_id: o.area / total for o in self.observations(year)}

    def _require_year(self, year: int) -> None:
        if not self.has_year(year):
            raise CoverageError(
                f"year {year} not covered by panel (have {self._years})"
            )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
