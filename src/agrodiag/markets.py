"""Market-functioning indicators: price volatility around a structural
break, value-to-cost and price ratios, crop share tables, land-use ratios.

Everything here is pure and stateless.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import add, mul
from typing import Mapping, Sequence

from ._record import Record
from .errors import CoverageError, DomainError, SchemaError
from .ingest import triennium_average
from .panel import CropPanel, LandUseRecord, PriceSeries


def coefficient_of_variation(values: Sequence[float], ddof: int = 1) -> float:
    """Standard deviation over mean, in percent.

    ``ddof=1`` (default) uses the sample standard deviation; pass 0 for the
    population convention.
    """
    if ddof not in (0, 1):
        raise ValueError(f"ddof must be 0 or 1, got {ddof!r}")
    if len(values) < 2:
        raise CoverageError(
            f"coefficient of variation needs at least 2 values, got {len(values)}"
        )
    if not all(map(math.isfinite, values)):
        raise DomainError("coefficient of variation needs finite values")
    mean = _fmean(values)
    if mean <= 0:
        raise DomainError(f"coefficient of variation needs a positive mean, "
                          f"got {mean!r}")
    cv = _stdev(values, ddof) / mean * 100.0
    if not math.isfinite(cv):
        raise DomainError(f"the coefficient overflows a float (mean {mean!r})")
    return cv


def _fmean(values: Sequence[float]) -> float:
    """``statistics.fmean``: the correctly rounded sum over the count."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise DomainError("the mean overflows a float") from None


def _stdev(values: Sequence[float], ddof: int) -> float:
    """``statistics.stdev`` (DDOF 1) or ``pstdev`` (DDOF 0), bit for bit:
    the correctly rounded square root of the exact mean sum of squares,
    taken in integers over one power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)  # each d is a power of two
    xs = [n * (scale // d) for n, d in ratios]
    count = len(xs)
    num = count * sum(x * x for x in xs) - sum(xs) ** 2
    den = count * (count - ddof) * scale * scale
    # taken to 60 bits or more and rounded to odd, the root of num / den
    # rounds to the nearest float correctly
    e = max(0, 60 - (num.bit_length() - den.bit_length()) // 2)
    num <<= 2 * e
    root = math.isqrt(num // den)
    root |= root * root * den != num
    try:
        return root / (1 << e)
    except OverflowError:
        raise DomainError("the standard deviation overflows a float") from None


class BreakStats(Record, frozen=True):
    """Price level and volatility on each side of a structural break."""

    commodity_id: str
    break_year: int
    mean_before: float
    mean_after: float
    cv_before: float
    cv_after: float

    def to_record(self) -> dict:
        return dict(zip(self._fields, self._values()))


def break_analysis(series: PriceSeries, break_year: int,
                   ddof: int = 1) -> BreakStats:
    """Mean and CV before vs after a break year.

    The break year itself belongs to the "after" window: "before" covers
    years up to ``break_year - 1``, "after" covers ``break_year`` onwards.
    """
    before = series.window(last=break_year - 1)
    after = series.window(first=break_year)
    for name, window in (("before", before), ("after", after)):
        if len(window) < 2:
            raise CoverageError(
                f"{name} window for {series.commodity_id!r} around "
                f"{break_year} has {len(window)} observation(s); need >= 2"
            )
    stats = []
    for name, window in (("before", before), ("after", after)):
        try:
            stats += (_fmean(window),
                      coefficient_of_variation(window, ddof=ddof))
        except DomainError:  # finite prices > 0 fail only by overflowing
            raise DomainError(
                f"{name} window for {series.commodity_id!r} around "
                f"{break_year}: its price statistics overflow a float"
            ) from None
    mean_before, cv_before, mean_after, cv_after = stats
    return BreakStats(series.commodity_id, break_year, mean_before,
                      mean_after, cv_before, cv_after)


def _pointwise_ratio(numerator: Mapping[int, float],
                     denominator: Mapping[int, float],
                     what: str) -> dict[int, float]:
    num_years, den_years = set(numerator), set(denominator)
    if num_years != den_years:
        raise CoverageError(
            f"{what}: year coverage differs "
            f"(only-numerator {sorted(num_years - den_years)}, "
            f"only-denominator {sorted(den_years - num_years)})"
        )
    out: dict[int, float] = {}
    for year in sorted(num_years):
        if denominator[year] <= 0:
            raise DomainError(f"{what}: non-positive denominator in {year}")
        out[year] = ratio = numerator[year] / denominator[year]
        if not math.isfinite(ratio):
            raise DomainError(f"{what}: the ratio in {year} overflows a float")
    return out


def value_cost_ratio(output_value: Mapping[int, float],
                     input_cost: Mapping[int, float]) -> dict[int, float]:
    """Gross output value over total input cost, per year."""
    return _pointwise_ratio(output_value, input_cost, "value/cost ratio")


def price_ratio(numerator: PriceSeries,
                denominator: PriceSeries) -> dict[int, float]:
    """Pointwise ratio of two price series, e.g. grain over fertiliser."""
    return _pointwise_ratio(
        numerator.values, denominator.values,
        f"price ratio {numerator.commodity_id}/{denominator.commodity_id}",
    )


def crop_shares(panel: CropPanel, te_year: int, dimension: str = "area"):
    """The crops of the triennium ending ``te_year``, ascending, and an
    iterator of their percent shares of area or of output value, read from
    the triennium's columns; a total not positive and finite is refused."""
    if dimension not in ("area", "value"):
        raise ValueError(f"dimension must be 'area' or 'value', got {dimension!r}")
    crops, area, production, price = triennium_average(panel, te_year)

    def weights():  # read twice rather than held in a list
        return area if dimension == "area" else map(mul, production, price)

    total = reduce(add, weights(), 0)
    if not 0 < total < math.inf:
        raise DomainError(f"total {dimension} in TE {te_year} is "
                          f"{'not positive' if total <= 0 else 'not finite'}")
    return crops, (w / total * 100.0 for w in weights())


def group_share(panel: CropPanel, te_year: int, group: str) -> float:
    """The diversification GROUP's percent share of area in the triennium
    ending ``te_year``; a group not among its crops is refused."""
    crops, shares = crop_shares(panel, te_year, "area")
    for crop, share in zip(crops, shares):
        if crop == group:
            return share
    raise SchemaError(f"diversification group {group!r} not in the crop "
                      f"panel (have {list(crops)})")


def land_use_ratios(records: Sequence[LandUseRecord],
                    te_year: int) -> dict[str, float]:
    """Agricultural and non-agricultural land as shares of reported area.

    Components are averaged over the triennium ending in ``te_year`` first
    and divided after, the right aggregation for extensive quantities.
    """
    by_year = {r.year: r for r in records}
    span = (te_year - 2, te_year - 1, te_year)
    missing = [y for y in span if y not in by_year]
    if missing:
        raise CoverageError(
            f"land-use triennium ending {te_year} is missing years {missing}"
        )
    window = [by_year[y] for y in span]
    total = reduce(add, (r.total_reported for r in window), 0) / 3.0
    if total <= 0:
        raise DomainError(f"total reported area in TE {te_year} is not positive")
    agricultural = reduce(add, (r.agricultural_land for r in window), 0) / 3.0
    non_agricultural = reduce(
        add, (r.non_agricultural_land for r in window), 0) / 3.0
    ratios = {
        "al_ratio": agricultural / total,
        "nal_ratio": non_agricultural / total,
    }
    if not all(map(math.isfinite, (total, *ratios.values()))):
        raise DomainError(f"land-use triennium ending {te_year}: its average "
                          "areas or their ratios overflow a float")
    return ratios


def land_record(records: Sequence[LandUseRecord]) -> dict:
    """``land_ratios.json``'s record: the land-use ratios of the first and
    the last triennium of RECORDS (sorted by year) and the change in the
    agricultural ratio between them."""
    first_te, last_te = records[0].year + 2, records[-1].year
    first = land_use_ratios(records, first_te)
    last = land_use_ratios(records, last_te)
    return {"first_te": first_te, "last_te": last_te,
            "first": first, "last": last,
            "al_ratio_change": last["al_ratio"] - first["al_ratio"]}
