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
import statistics
from dataclasses import dataclass, field
from typing import Mapping

from .errors import (
    CompositionChangeError,
    CoverageError,
    DomainError,
    LogDomainError,
)
from .panel import InputOutputPanel, IOItem

INDEX_KINDS = ("output", "input", "tfp")
GROWTH_METHODS = ("loglinear", "cagr")


@dataclass(frozen=True)
class IndexSeries:
    """A chained index over contiguous years, 100 at the base year."""

    label: str
    base_year: int
    values: dict[int, float] = field(compare=True)

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


def _paired_items(
    old: tuple[IOItem, ...], new: tuple[IOItem, ...], kind: str,
    from_year: int, to_year: int,
) -> list[tuple[str, float, float, float]]:
    """Match items across two years -> (id, mean share, old qty, new qty)."""
    old_map = {it.item_id: it for it in old}
    new_map = {it.item_id: it for it in new}
    rows = []
    for item_id in sorted(set(old_map) | set(new_map)):
        a, b = old_map.get(item_id), new_map.get(item_id)
        if a is None or b is None:
            present = a or b
            if present.share > 0:
                raise CompositionChangeError(
                    f"{kind} {item_id!r} carries share {present.share!r} but "
                    f"exists in only one of years {from_year} and {to_year}"
                )
            continue
        share = 0.5 * (a.share + b.share)
        if share == 0.0:
            continue
        if a.quantity <= 0 or b.quantity <= 0:
            raise LogDomainError(
                f"{kind} {item_id!r} has non-positive quantity in "
                f"{from_year}->{to_year} but share {share!r}"
            )
        rows.append((item_id, share, a.quantity, b.quantity))
    return rows


def _weighted_log_change(panel: InputOutputPanel, from_year: int,
                         to_year: int, side: str) -> float:
    old = getattr(panel.year(from_year), side + "s")
    new = getattr(panel.year(to_year), side + "s")
    return sum(
        share * math.log(q1 / q0)
        for _, share, q0, q1 in _paired_items(old, new, side, from_year, to_year)
    )


def tornqvist_log_growth(panel: InputOutputPanel, from_year: int,
                         to_year: int) -> float:
    """Log TFP change between two years: output term minus input term."""
    return (
        _weighted_log_change(panel, from_year, to_year, "output")
        - _weighted_log_change(panel, from_year, to_year, "input")
    )


def build_index(panel: InputOutputPanel, kind: str,
                base_year: int | None = None) -> IndexSeries:
    """Chain year-over-year log changes into a level series, base = 100.

    ``kind`` selects the output term, the input term, or their difference
    (tfp). The panel's years must be contiguous. ``base_year`` defaults to
    the panel's first year.
    """
    if kind not in INDEX_KINDS:
        raise ValueError(f"kind must be one of {INDEX_KINDS}, got {kind!r}")
    years = panel.years
    if not years:
        raise CoverageError("io panel is empty")
    if list(years) != list(range(years[0], years[-1] + 1)):
        raise CoverageError(f"io panel years are not contiguous: {years}")
    if base_year is None:
        base_year = years[0]
    if base_year not in years:
        raise CoverageError(f"base year {base_year} outside panel years {years}")

    def step(y: int) -> float:
        if kind == "output":
            return _weighted_log_change(panel, y - 1, y, "output")
        if kind == "input":
            return _weighted_log_change(panel, y - 1, y, "input")
        return tornqvist_log_growth(panel, y - 1, y)

    cumulative = {years[0]: 0.0}
    for y in years[1:]:
        cumulative[y] = cumulative[y - 1] + step(y)
    anchor = cumulative[base_year]
    values = {y: 100.0 * math.exp(c - anchor) for y, c in cumulative.items()}
    values[base_year] = 100.0
    return IndexSeries(label=kind, base_year=base_year, values=values)


def index_series(panel: InputOutputPanel,
                 base_year: int | None = None) -> dict[str, IndexSeries]:
    """The output, input and TFP series of PANEL on one base year."""
    return {kind: build_index(panel, kind, base_year) for kind in INDEX_KINDS}


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
    agree exactly on a pure geometric series.
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
        span = years[-1] - years[0]
        return ((last / first) ** (1.0 / span) - 1.0) * 100.0
    if min(values) <= 0:
        raise LogDomainError("loglinear growth needs strictly positive values")
    slope = statistics.linear_regression(
        years, [math.log(v) for v in values]).slope
    return (math.exp(slope) - 1.0) * 100.0
