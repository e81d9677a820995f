"""Decomposition of the change in gross crop revenue.

Gross revenue in a period is ``R = sum_i area_i * yield_i * price_i``
(equivalently production times price). The change between a base and a
terminal period is split into the first-order contributions of total
cropped area, prices, yields and crop-composition shares, all weighted at
base-period values, plus an interaction term defined as the exact residual
so the five parts always add up to the total change:

* area:            ``(sum_i a_i Y_i P_i) * d(total area)``
* price:           ``A_total * sum_i a_i Y_i dP_i``
* yield:           ``A_total * sum_i a_i P_i dY_i``
* diversification: ``A_total * sum_i Y_i P_i da_i``
* interaction:     ``dR - (the four terms above)``

where ``a_i`` is crop i's share of total cropped area and ``d`` is the
terminal-minus-base difference. All functions are pure and safe to call
concurrently.
"""
from __future__ import annotations

from functools import reduce
from operator import add

from ._record import Record
from .errors import DataInconsistencyError, DomainError
from .ingest import triennium_average
from .panel import CropPanel

EFFECT_FIELDS = (
    "area_effect",
    "price_effect",
    "yield_effect",
    "diversification_effect",
    "interaction_effect",
)


class DecompositionResult(Record, frozen=True):
    """Total revenue change split into effects, in currency units.

    ``percent`` views each effect as a share of the total change (summing
    to 100); it is ``None`` when the total change is zero.
    """

    base_label: str
    terminal_label: str
    total_dR: float
    area_effect: float
    price_effect: float
    yield_effect: float
    diversification_effect: float
    interaction_effect: float

    @property
    def effects(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in EFFECT_FIELDS}

    @property
    def percent(self) -> dict[str, float] | None:
        """Each effect as percent of the total change; None if dR == 0."""
        if self.total_dR == 0.0:
            return None
        pct = {
            name: value * 100.0 / self.total_dR
            for name, value in self.effects.items()
        }
        pct["total"] = 100.0
        return pct

    def to_record(self) -> dict:
        """Flat record with fixed field names, currency plus percent views."""
        record: dict = {"base": self.base_label, "terminal": self.terminal_label}
        record.update(self.effects)
        record["total"] = self.total_dR
        pct = self.percent
        for name in EFFECT_FIELDS:
            record[f"{name}_pct"] = None if pct is None else pct[name]
        record["total_pct"] = None if pct is None else 100.0
        return record


def _period_values(panel: CropPanel, year: int, mode: str):
    """Resolve one comparison period to ``(label, (crops, area, production,
    price))``, the crops ascending."""
    if mode == "triennium":
        return f"TE {year}", triennium_average(panel, year)
    if mode == "endpoint":
        return str(year), panel.columns(year)
    raise ValueError(f"unknown period_mode {mode!r}")


def _merged(base, term):
    """Walk two periods' ascending columns by position: one ``(crop, a0, q0,
    p0, a1, q1, p1)`` per crop of either period, crops ascending, with
    zeros for the period a crop is absent from."""
    base_crops, area0, production0, price0 = base
    term_crops, area1, production1, price1 = term
    n0, n1 = len(base_crops), len(term_crops)
    i = j = 0
    while i < n0 or j < n1:
        if j == n1 or (i < n0 and base_crops[i] <= term_crops[j]):
            crop = base_crops[i]
        else:
            crop = term_crops[j]
        if i < n0 and base_crops[i] == crop:
            a0, q0, p0 = area0[i], production0[i], price0[i]
            i += 1
        else:
            a0 = q0 = p0 = 0.0
        if j < n1 and term_crops[j] == crop:
            a1, q1, p1 = area1[j], production1[j], price1[j]
            j += 1
        else:
            a1 = q1 = p1 = 0.0
        yield crop, a0, q0, p0, a1, q1, p1


def _yield_of(crop: str, area: float, production: float, label: str) -> float:
    """Yield with zeros filled for absent crops; inconsistent rows rejected."""
    if area > 0:
        return production / area
    if production > 0:
        raise DataInconsistencyError(
            f"crop {crop!r} has zero area but production {production!r} "
            f"in period {label}"
        )
    return 0.0


def decompose(
    panel: CropPanel,
    base_year: int,
    terminal_year: int,
    period_mode: str = "triennium",
) -> DecompositionResult:
    """Decompose the revenue change between two periods.

    ``period_mode='triennium'`` (the default) averages the three years
    ending in each given year before differencing, which smooths weather
    shocks; ``'endpoint'`` compares the single years as they stand.

    The crop union over both periods is used, with zeros filled for the
    side where a crop is absent; such a crop has no base weight, so it
    contributes only through the interaction term.
    """
    base_label, base = _period_values(panel, base_year, period_mode)
    term_label, term = _period_values(panel, terminal_year, period_mode)

    area_base = reduce(add, base[1], 0)
    area_term = reduce(add, term[1], 0)
    if area_base <= 0:
        raise DomainError(f"total cropped area in base period {base_label} "
                          "is not positive")
    if area_term <= 0:
        raise DomainError(f"total cropped area in terminal period {term_label} "
                          "is not positive")

    revenue_base = 0.0
    revenue_term = 0.0
    base_intensity = 0.0      # sum_i a_i Y_i P_i, revenue per hectare
    price_sum = 0.0           # sum_i a_i Y_i dP_i
    yield_sum = 0.0           # sum_i a_i P_i dY_i
    shares_sum = 0.0          # sum_i Y_i P_i da_i
    for crop, a0, q0, p0, a1, q1, p1 in _merged(base, term):
        y0 = _yield_of(crop, a0, q0, base_label)
        y1 = _yield_of(crop, a1, q1, term_label)
        s0 = a0 / area_base
        s1 = a1 / area_term
        revenue_base += q0 * p0
        revenue_term += q1 * p1
        base_intensity += s0 * y0 * p0
        price_sum += s0 * y0 * (p1 - p0)
        yield_sum += s0 * p0 * (y1 - y0)
        shares_sum += y0 * p0 * (s1 - s0)

    total_dR = revenue_term - revenue_base
    area_effect = base_intensity * (area_term - area_base)
    price_effect = area_base * price_sum
    yield_effect = area_base * yield_sum
    diversification_effect = area_base * shares_sum
    interaction_effect = total_dR - (
        area_effect + price_effect + yield_effect + diversification_effect
    )
    return DecompositionResult(
        base_label, term_label, total_dR, area_effect, price_effect,
        yield_effect, diversification_effect, interaction_effect)
