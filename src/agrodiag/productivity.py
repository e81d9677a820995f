"""Chained output, input and TFP index series, plus growth-rate estimators.

The year-to-year log change aggregates item-level log quantity ratios with
value-share weights averaged between the two years:

    output term = sum_j mean(Rj_t, Rj_s) * ln(Yj_t / Yj_s)
    input term  = sum_i mean(Si_t, Si_s) * ln(Xi_t / Xi_s)
    tfp change  = output term - input term

Averaging the shares between the two years is the standard superlative
convention and makes the change exactly antisymmetric in time. Log changes
are chained into level series rebased to 100 at a chosen year, so the TFP
series equals 100 * output / input pointwise when all three share a base.
"""
from __future__ import annotations

import math
from typing import Mapping

from ._record import Record
from .errors import (
    CompositionChangeError,
    CoverageError,
    DomainError,
    LogDomainError,
)
from .panel import InputOutputPanel

INDEX_KINDS = ("output", "input", "tfp")
GROWTH_METHODS = ("loglinear", "cagr")


class IndexSeries(Record, frozen=True):
    """A chained index over contiguous years, 100 at the base year."""

    label: str
    base_year: int
    values: dict[int, float]

    def __post_init__(self) -> None:
        years = sorted(self.values)
        if not years:
            raise CoverageError(f"index series {self.label!r} is empty")
        if years != list(range(years[0], years[-1] + 1)):
            raise CoverageError(
                f"index series {self.label!r} has gaps in its years"
            )
        if self.base_year not in self.values:
            raise CoverageError(
                f"base year {self.base_year} outside series {self.label!r}"
            )
        clean = {int(y): float(self.values[y]) for y in years}
        for y, v in clean.items():
            if not math.isfinite(v) or v <= 0:
                raise DomainError(
                    f"index series {self.label!r} value for {y} must be > 0"
                )
        if clean[self.base_year] != 100.0:
            raise DomainError(
                f"index series {self.label!r} must equal 100 at its base year, "
                f"got {clean[self.base_year]!r}"
            )
        object.__setattr__(self, "values", clean)

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(self.values)

    def to_rows(self) -> list[tuple[int, float]]:
        """``(year, value)`` rows for two-column tabular output."""
        return [(y, self.values[y]) for y in self.years]


def _log_change(panel: InputOutputPanel, from_year: int, to_year: int,
                side: str) -> float:
    """One side's log change FROM_YEAR -> TO_YEAR: each item's mean share
    times its log quantity ratio, items matched by id in id order, added
    left to right from int 0 (as ``sum()`` adds floats up to CPython 3.11)."""
    def items(year):  # id -> (quantity, share), each float boxed once
        ids, quantity, share = panel.columns(year, side)
        return dict(zip(ids, zip(quantity.tolist(), share.tolist())))

    old, new = items(from_year), items(to_year)
    total = 0
    for item_id in sorted(old.keys() | new.keys()):
        if item_id not in old or item_id not in new:
            present_share = (old.get(item_id) or new[item_id])[1]
            if present_share > 0:
                raise CompositionChangeError(
                    f"{side} {item_id!r} carries share {present_share!r} but "
                    f"exists in only one of years {from_year} and {to_year}"
                )
            continue
        (q0, s0), (q1, s1) = old[item_id], new[item_id]
        share = 0.5 * (s0 + s1)
        if share == 0.0:
            continue
        if q0 <= 0 or q1 <= 0:
            raise LogDomainError(
                f"{side} {item_id!r} has non-positive quantity in "
                f"{from_year}->{to_year} but share {share!r}"
            )
        ratio = q1 / q0
        if not 0 < ratio < math.inf:
            raise DomainError(
                f"{side} {item_id!r}: its quantity ratio {from_year}->"
                f"{to_year} ({q1!r} / {q0!r}) leaves the float range"
            )
        total += share * math.log(ratio)
    return total


def tornqvist_log_growth(panel: InputOutputPanel, from_year: int,
                         to_year: int) -> float:
    """Log TFP change between two years: output term minus input term."""
    return (_log_change(panel, from_year, to_year, "output")
            - _log_change(panel, from_year, to_year, "input"))


def _chain(kind: str, years: tuple[int, ...], base_year: int,
           steps: list[float]) -> IndexSeries:
    """Chain the log changes STEPS into a level series, 100 at BASE_YEAR."""
    cumulative = {years[0]: 0.0}
    for y, step in zip(years[1:], steps):
        cumulative[y] = cumulative[y - 1] + step
    anchor = cumulative[base_year]
    values = {}
    for y, c in cumulative.items():
        try:
            values[y] = 100.0 * math.exp(c - anchor)
        except OverflowError:
            raise DomainError(
                f"index series {kind!r} value for {y} overflows a float"
            ) from None
    values[base_year] = 100.0
    return IndexSeries(label=kind, base_year=base_year, values=values)


def index_series(panel: InputOutputPanel,
                 base_year: int | None = None) -> dict[str, IndexSeries]:
    """The output, input and TFP series of PANEL, whose years must be
    contiguous, on one base year (default: the first).

    Each side's log changes are computed once, the output side first; TFP's
    are their difference."""
    years = panel.years
    if not years:
        raise CoverageError("io panel is empty")
    if list(years) != list(range(years[0], years[-1] + 1)):
        raise CoverageError(f"io panel years are not contiguous: {years}")
    if base_year is None:
        base_year = years[0]
    if base_year not in years:
        raise CoverageError(f"base year {base_year} outside panel years {years}")
    steps = {side: [_log_change(panel, y - 1, y, side) for y in years[1:]]
             for side in ("output", "input")}
    steps["tfp"] = [o - i for o, i in zip(steps["output"], steps["input"])]
    return {kind: _chain(kind, years, base_year, steps[kind])
            for kind in INDEX_KINDS}


def avg_annual_growth(
    series: Mapping[int, float] | IndexSeries,
    from_year: int | None = None,
    to_year: int | None = None,
    method: str = "loglinear",
) -> float:
    """Average annual growth rate of a positive series, in percent per year.

    ``loglinear`` (default) fits ln(value) against year by least squares
    over the window and converts the slope; it is robust to single-year
    shocks. ``cagr`` compounds between the window's endpoint values. Both
    agree exactly on a pure geometric series. A rate past the float range
    raises ``DomainError`` naming the window.
    """
    if isinstance(series, IndexSeries):
        series = series.values
    if method not in GROWTH_METHODS:
        raise ValueError(f"method must be one of {GROWTH_METHODS}, got {method!r}")
    years = sorted(
        y for y in series
        if (from_year is None or y >= from_year)
        and (to_year is None or y <= to_year)
    )
    if len(years) < 2:
        raise CoverageError(
            f"growth window [{from_year}, {to_year}] covers {len(years)} "
            "year(s); need at least 2"
        )
    values = [series[y] for y in years]
    if method == "cagr":
        first, last = values[0], values[-1]
        if first <= 0 or last <= 0:
            raise LogDomainError("cagr endpoints must be positive")
        factor = (last / first) ** (1.0 / (years[-1] - years[0]))
    else:
        if min(values) <= 0:
            raise LogDomainError(
                "loglinear growth needs strictly positive values")
        slope = _slope(years, [math.log(v) for v in values])
        try:
            factor = math.exp(slope)
        except OverflowError:
            factor = math.inf
    rate = (factor - 1.0) * 100.0
    if not math.isfinite(rate):
        raise DomainError(f"the growth rate over [{years[0]}, {years[-1]}] "
                          f"overflows a float")
    return rate


def _slope(x: list[int], y: list[float]) -> float:
    """``statistics.linear_regression(x, y).slope``, with the ``fsum``
    arithmetic of Python 3.11, bit for bit."""
    n = len(x)
    xbar, ybar = math.fsum(x) / n, math.fsum(y) / n
    sxy = math.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    return sxy / math.fsum((d := xi - xbar) * d for xi in x)
