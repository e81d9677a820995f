import json

import numpy as np
import pytest

from agrodiag.decomposition import decompose
from agrodiag.errors import CoverageError, DataInconsistencyError, DomainError

from helpers import (
    crop_panel,
    crop_rows,
    oracle_decompose,
    panel_two_periods,
    relative_error,
)


def random_period(rng, crops):
    return {
        crop: (rng.uniform(1.0, 100.0),            # area
               rng.uniform(1.0, 100.0) * rng.uniform(0.5, 5.0),  # production
               rng.uniform(10.0, 1000.0))          # price
        for crop in crops
    }


class TestGrossRevenue:
    # the total change is terminal minus base gross revenue, each the sum
    # of production times price over the year's crops
    def test_single_crop(self):
        panel = panel_two_periods({"paddy": (2.0, 10.0, 500.0)},
                                  {"paddy": (2.0, 20.0, 500.0)})
        assert decompose(panel, 2000, 2001,
                         period_mode="endpoint").total_dR == 5000.0

    def test_two_crops_sum(self):
        panel = panel_two_periods(
            {"paddy": (2.0, 10.0, 500.0), "gram": (1.0, 4.0, 250.0)},
            {"paddy": (2.0, 24.0, 500.0)},
        )
        assert decompose(panel, 2000, 2001,
                         period_mode="endpoint").total_dR == 6000.0

    def test_empty_year_is_coverage_error(self):
        panel = panel_two_periods({"paddy": (1.0, 1.0, 1.0)},
                                  {"paddy": (1.0, 1.0, 1.0)})
        with pytest.raises(CoverageError):
            decompose(panel, 1999, 2001, period_mode="endpoint")


class TestDecompose:
    def test_identical_periods_all_zero(self):
        values = {"paddy": (10.0, 25.0, 500.0), "wheat": (5.0, 9.0, 700.0)}
        result = decompose(panel_two_periods(values, values), 2000, 2001,
                           period_mode="endpoint")
        assert result.total_dR == 0.0
        assert all(v == 0.0 for v in result.effects.values())
        assert result.percent is None

    def test_price_only_change_single_crop(self):
        base = {"paddy": (10.0, 25.0, 500.0)}
        term = {"paddy": (10.0, 25.0, 650.0)}
        result = decompose(panel_two_periods(base, term), 2000, 2001,
                           period_mode="endpoint")
        assert result.price_effect == pytest.approx(result.total_dR)
        assert result.area_effect == 0.0
        assert result.yield_effect == 0.0
        assert result.diversification_effect == 0.0
        assert result.interaction_effect == pytest.approx(0.0, abs=1e-9)

    def test_two_crop_all_factors_against_oracle(self):
        base = {"paddy": (10.0, 20.0, 500.0), "wheat": (5.0, 9.0, 700.0)}
        term = {"paddy": (12.0, 30.0, 550.0), "wheat": (7.0, 10.5, 780.0)}
        result = decompose(panel_two_periods(base, term), 2000, 2001,
                           period_mode="endpoint")
        expected = oracle_decompose(base, term)
        for name, value in expected.items():
            assert getattr(result, name) == pytest.approx(value, rel=1e-12), name
        assert sum(result.percent[k] for k in result.effects) == pytest.approx(
            100.0, abs=1e-6)

    def test_crop_entering_contributes_via_interaction(self):
        base = {"paddy": (10.0, 20.0, 500.0)}
        term = {"paddy": (10.0, 20.0, 500.0), "maize": (5.0, 15.0, 550.0)}
        result = decompose(panel_two_periods(base, term), 2000, 2001,
                           period_mode="endpoint")
        expected = oracle_decompose(base, term)
        for name, value in expected.items():
            assert getattr(result, name) == pytest.approx(value, rel=1e-12), name

    def test_triennium_mode_matches_pre_averaged_endpoint(self):
        rng = np.random.default_rng(7)
        rows = []
        for year in range(2000, 2007):
            for crop in ("paddy", "wheat", "maize"):
                rows.append((
                    crop, year, rng.uniform(5, 50), rng.uniform(5, 200),
                    rng.uniform(100, 900)))
        panel = crop_panel(rows)
        from agrodiag.ingest import triennium_average
        te_base = triennium_average(panel, 2002)
        te_term = triennium_average(panel, 2006)
        merged = crop_panel(crop_rows(te_base, 2002)
                            + crop_rows(te_term, 2006))
        via_te = decompose(panel, 2002, 2006, period_mode="triennium")
        via_endpoint = decompose(merged, 2002, 2006, period_mode="endpoint")
        for name in via_te.effects:
            assert getattr(via_te, name) == getattr(via_endpoint, name)

    def test_zero_base_area_with_production_rejected(self):
        base = {"paddy": (0.0, 5.0, 500.0), "wheat": (5.0, 9.0, 700.0)}
        term = {"paddy": (1.0, 5.0, 500.0), "wheat": (5.0, 9.0, 700.0)}
        with pytest.raises(DataInconsistencyError):
            decompose(panel_two_periods(base, term), 2000, 2001,
                      period_mode="endpoint")

    def test_zero_total_base_area_rejected(self):
        base = {"paddy": (0.0, 0.0, 500.0)}
        term = {"paddy": (1.0, 2.0, 500.0)}
        with pytest.raises(DomainError):
            decompose(panel_two_periods(base, term), 2000, 2001,
                      period_mode="endpoint")

    def test_record_has_fixed_field_names(self):
        values = {"paddy": (10.0, 25.0, 500.0)}
        term = {"paddy": (10.0, 25.0, 600.0)}
        record = decompose(panel_two_periods(values, term), 2000, 2001,
                           period_mode="endpoint").to_record()
        for name in ("area_effect", "price_effect", "yield_effect",
                     "diversification_effect", "interaction_effect", "total"):
            assert name in record
        json.dumps(record)  # flat and serializable


def dict_decompose(base: dict, term: dict) -> list[float]:
    """The effects as a per-crop dict walk over the sorted crop union
    computes them, in the same order of float operations as
    ``decompose``: the bit-level reference for its merge by position."""
    zero = (0.0, 0.0, 0.0)
    area_base = sum(base[c][0] for c in sorted(base))
    area_term = sum(term[c][0] for c in sorted(term))
    sums = [0.0] * 6
    for crop in sorted(set(base) | set(term)):
        a0, q0, p0 = base.get(crop, zero)
        a1, q1, p1 = term.get(crop, zero)
        y0 = q0 / a0 if a0 > 0 else 0.0
        y1 = q1 / a1 if a1 > 0 else 0.0
        s0, s1 = a0 / area_base, a1 / area_term
        for k, term_k in enumerate((q0 * p0, q1 * p1, s0 * y0 * p0,
                                    s0 * y0 * (p1 - p0), s0 * p0 * (y1 - y0),
                                    y0 * p0 * (s1 - s0))):
            sums[k] += term_k
    revenue_base, revenue_term, intensity, price, yld, shares = sums
    total = revenue_term - revenue_base
    effects = [intensity * (area_term - area_base), area_base * price,
               area_base * yld, area_base * shares]
    return [total, *effects, total - (effects[0] + effects[1] + effects[2]
                                      + effects[3])]


class TestProperties:
    def test_bits_equal_dict_walk_with_crops_entering_and_leaving(self):
        rng = np.random.default_rng(8)
        names = [f"c{i:02d}" for i in range(12)]
        for _ in range(100):
            base = random_period(rng, [c for c in names if rng.random() < 0.7])
            term = random_period(rng, [c for c in names if rng.random() < 0.7])
            base.setdefault("c00", (1.0, 1.0, 1.0))
            term.setdefault("c11", (1.0, 1.0, 1.0))
            result = decompose(panel_two_periods(base, term), 2000, 2001,
                               period_mode="endpoint")
            got = [result.total_dR, *result.effects.values()]
            assert [v.hex() for v in got] == \
                [v.hex() for v in dict_decompose(base, term)]

    def test_additivity_on_random_panels(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            crops = [f"c{i}" for i in range(rng.integers(1, 11))]
            base = random_period(rng, crops)
            term = random_period(rng, crops)
            result = decompose(panel_two_periods(base, term), 2000, 2001,
                               period_mode="endpoint")
            total = sum(result.effects.values())
            assert relative_error(total, result.total_dR) <= 1e-9

    def test_crop_permutation_invariance(self):
        rng = np.random.default_rng(3)
        crops = [f"c{i}" for i in range(6)]
        base = random_period(rng, crops)
        term = random_period(rng, crops)
        forward = decompose(panel_two_periods(base, term), 2000, 2001,
                            period_mode="endpoint")
        shuffled = list(reversed(crops))
        base_r = {c: base[c] for c in shuffled}
        term_r = {c: term[c] for c in shuffled}
        backward = decompose(panel_two_periods(base_r, term_r), 2000, 2001,
                             period_mode="endpoint")
        for name in forward.effects:
            assert abs(getattr(forward, name) - getattr(backward, name)) <= 1e-12 * (
                1.0 + abs(getattr(forward, name)))

    @pytest.mark.parametrize("factor", ["area", "price", "yield", "shares"])
    def test_single_factor_isolation(self, factor):
        rng = np.random.default_rng(11)
        crops = [f"c{i}" for i in range(4)]
        areas = rng.uniform(5.0, 50.0, size=4)
        yields = rng.uniform(0.5, 5.0, size=4)
        prices = rng.uniform(100.0, 900.0, size=4)
        base = {c: (areas[i], areas[i] * yields[i], prices[i])
                for i, c in enumerate(crops)}
        if factor == "area":
            term = {c: (areas[i] * 1.3, areas[i] * 1.3 * yields[i], prices[i])
                    for i, c in enumerate(crops)}
            expected_nonzero = "area_effect"
        elif factor == "price":
            new_prices = prices * rng.uniform(0.5, 2.0, size=4)
            term = {c: (areas[i], areas[i] * yields[i], new_prices[i])
                    for i, c in enumerate(crops)}
            expected_nonzero = "price_effect"
        elif factor == "yield":
            new_yields = yields * rng.uniform(0.5, 2.0, size=4)
            term = {c: (areas[i], areas[i] * new_yields[i], prices[i])
                    for i, c in enumerate(crops)}
            expected_nonzero = "yield_effect"
        else:
            shares = rng.uniform(0.5, 2.0, size=4)
            shares /= shares.sum()          # sum of share changes is zero
            total = areas.sum()
            term = {c: (shares[i] * total, shares[i] * total * yields[i],
                        prices[i]) for i, c in enumerate(crops)}
            expected_nonzero = "diversification_effect"
        result = decompose(panel_two_periods(base, term), 2000, 2001,
                           period_mode="endpoint")
        scale = max(1.0, abs(result.total_dR))
        for name, value in result.effects.items():
            if name == expected_nonzero:
                assert abs(value) > 1e-9 * scale
            else:
                assert abs(value) <= 1e-9 * scale, name

    def test_currency_homogeneity(self):
        rng = np.random.default_rng(5)
        crops = [f"c{i}" for i in range(3)]
        base = random_period(rng, crops)
        term = random_period(rng, crops)
        k = 3.7
        base_k = {c: (a, q, p * k) for c, (a, q, p) in base.items()}
        term_k = {c: (a, q, p * k) for c, (a, q, p) in term.items()}
        plain = decompose(panel_two_periods(base, term), 2000, 2001,
                          period_mode="endpoint")
        scaled = decompose(panel_two_periods(base_k, term_k), 2000, 2001,
                           period_mode="endpoint")
        for name in plain.effects:
            assert getattr(scaled, name) == pytest.approx(
                k * getattr(plain, name), rel=1e-12)
        assert scaled.total_dR == pytest.approx(k * plain.total_dR, rel=1e-12)
        for key, value in plain.percent.items():
            assert scaled.percent[key] == pytest.approx(value, rel=1e-9)
