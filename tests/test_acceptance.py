"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here, not calibrated after the fact.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from agrodiag import fixtures
from agrodiag.advantage import AreaShareTable, cai
from agrodiag.cli import load_run_config, run_pipeline
from agrodiag.decomposition import decompose
from agrodiag.diagnostics import builtin_bihar_tree, evaluate
from agrodiag.markets import coefficient_of_variation
from agrodiag.productivity import avg_annual_growth, index_series, tornqvist_log_growth

from helpers import io_panel, panel_two_periods

_SESSION_START = time.perf_counter()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def random_period(rng, crops):
    return {c: (float(rng.uniform(0.5, 100.0)),
                float(rng.uniform(0.5, 500.0)),
                float(rng.uniform(1.0, 1000.0))) for c in crops}


def test_criterion_1_decomposition_additivity():
    with criterion(1, "decomposition additivity over 1000 random panels"):
        rng = np.random.default_rng(20240817)
        start = time.perf_counter()
        for _ in range(1000):
            crops = [f"c{i}" for i in range(int(rng.integers(1, 11)))]
            base = random_period(rng, crops)
            term = random_period(rng, crops)
            result = decompose(panel_two_periods(base, term), 2000, 2001,
                               period_mode="endpoint")
            total = sum(result.effects.values())
            assert abs(total - result.total_dR) <= 1e-9 * max(
                1.0, abs(result.total_dR))
            pct = result.percent
            assert abs(sum(pct[k] for k in result.effects) - 100.0) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"1000-panel sweep took {elapsed:.2f}s"


def test_criterion_2_single_factor_isolation():
    with criterion(2, "single-factor isolation, interaction zero"):
        rng = np.random.default_rng(7)
        n = 5
        areas = rng.uniform(5.0, 50.0, size=n)
        yields = rng.uniform(0.5, 5.0, size=n)
        prices = rng.uniform(100.0, 900.0, size=n)
        crops = [f"c{i}" for i in range(n)]
        base = {c: (areas[i], areas[i] * yields[i], prices[i])
                for i, c in enumerate(crops)}
        new_shares = rng.uniform(0.5, 2.0, size=n)
        new_shares /= new_shares.sum()  # share changes sum to zero
        variations = {
            "area_effect": {
                c: (areas[i] * 1.25, areas[i] * 1.25 * yields[i], prices[i])
                for i, c in enumerate(crops)},
            "price_effect": {
                c: (areas[i], areas[i] * yields[i], prices[i] * 1.4)
                for i, c in enumerate(crops)},
            "yield_effect": {
                c: (areas[i], areas[i] * yields[i] * 0.8, prices[i])
                for i, c in enumerate(crops)},
            "diversification_effect": {
                c: (new_shares[i] * areas.sum(),
                    new_shares[i] * areas.sum() * yields[i], prices[i])
                for i, c in enumerate(crops)},
        }
        for expected, term in variations.items():
            result = decompose(panel_two_periods(base, term), 2000, 2001,
                               period_mode="endpoint")
            scale = max(1.0, abs(result.total_dR))
            assert abs(result.interaction_effect) <= 1e-9 * scale, expected
            for name, value in result.effects.items():
                if name == expected:
                    assert abs(value) > 1e-9 * scale, name
                elif name != "interaction_effect":
                    assert abs(value) <= 1e-9 * scale, (expected, name)


def test_criterion_3_tornqvist_recovery(fixture_dir):
    with criterion(3, "planted 1.71%/yr TFP growth recovered"):
        from agrodiag.ingest import load_io_panel
        panel = load_io_panel(fixture_dir / "io_panel.csv")
        assert len(panel.years) == 16
        tfp = index_series(panel, panel.years[0])["tfp"]
        for method in ("loglinear", "cagr"):
            rate = avg_annual_growth(tfp, method=method)
            assert abs(rate - 1.71) <= 0.01, (method, rate)


def test_criterion_4_index_identities():
    with criterion(4, "time reversal, share collapse, tfp = output/input"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n_years = int(rng.integers(3, 9))
            years = {}
            for t in range(n_years):
                s = rng.uniform(0.2, 0.8)
                u = rng.uniform(0.2, 0.8)
                years[2000 + t] = (
                    {"a": (float(rng.uniform(1, 50)), s),
                     "b": (float(rng.uniform(1, 50)), 1 - s)},
                    {"l": (float(rng.uniform(1, 50)), u),
                     "m": (float(rng.uniform(1, 50)), 1 - u)},
                )
            panel = io_panel(years)
            for t in range(n_years - 1):
                forward = tornqvist_log_growth(panel, 2000 + t, 2001 + t)
                backward = tornqvist_log_growth(panel, 2001 + t, 2000 + t)
                assert abs(forward + backward) <= 1e-9 * max(1.0, abs(forward))
            series = index_series(panel, 2000)
            out, inp, tfp = series["output"], series["input"], series["tfp"]
            for year in tfp.years:
                expected = 100.0 * out.values[year] / inp.values[year]
                assert abs(tfp.values[year] - expected) <= 1e-9 * abs(expected)
        # share collapse: common growth, arbitrary share composition
        for _ in range(50):
            n = int(rng.integers(2, 7))
            shares = rng.uniform(0.05, 1.0, size=n)
            shares /= shares.sum()
            g = float(rng.uniform(-0.2, 0.2))
            out0 = {f"o{i}": (float(q), float(shares[i]))
                    for i, q in enumerate(rng.uniform(1.0, 30.0, size=n))}
            out1 = {k: (q * math.exp(g), s) for k, (q, s) in out0.items()}
            ins = {"l": (5.0, 1.0)}
            panel = io_panel({2000: (out0, ins), 2001: (out1, ins)})
            change = tornqvist_log_growth(panel, 2000, 2001)
            assert abs(change - g) <= 1e-9 * max(1.0, abs(g))


def test_criterion_5_cai_fixture_and_scale_invariance():
    with criterion(5, "CAI 1.82 by construction, scale invariant"):
        region = AreaShareTable("region", 2014, {"veg": 182.0, "rest": 818.0})
        nation = AreaShareTable("nation", 2014, {"veg": 100.0, "rest": 900.0})
        assert abs(cai(region, nation, "veg") - 1.82) <= 1e-9
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = float(rng.uniform(1e-9, 1e6))
            scaled_region = AreaShareTable(
                "region", 2014, {g: k * a for g, a in region.entries.items()})
            scaled_nation = AreaShareTable(
                "nation", 2014, {g: k * a for g, a in nation.entries.items()})
            for table_pair in ((scaled_region, nation), (region, scaled_nation),
                               (scaled_region, scaled_nation)):
                value = cai(*table_pair, "veg")
                assert abs(value - 1.82) <= 1e-9 * 1.82


def test_criterion_6_cv_properties():
    with criterion(6, "CV scale invariance and {1,2,3} -> 50 exactly"):
        assert coefficient_of_variation([1.0, 2.0, 3.0]) == 50.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            values = rng.uniform(0.1, 1e4, size=int(rng.integers(2, 12)))
            k = float(rng.uniform(1e-3, 1e3))
            base = coefficient_of_variation(list(values))
            scaled = coefficient_of_variation(list(values * k))
            assert abs(scaled - base) <= 1e-12 * max(1.0, base)


def test_criterion_7_diagnostic_verdict():
    with criterion(7, "reference indicators -> markets + diversification"):
        report = evaluate(builtin_bihar_tree(),
                          fixtures.bihar_reference_indicators())
        assert set(report.binding_constraints) == {
            "agricultural_markets", "crop_diversification"}
        assert set(report.non_binding) == {
            "agricultural_land", "technology", "input_costs"}


def test_criterion_8_report_determinism(fixture_dir, tmp_path):
    with criterion(8, "two report runs byte-identical"):
        config = load_run_config(fixture_dir / "config.json")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(config, out1)
        run_pipeline(config, out2)
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2 and names1
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_criterion_9_runtime_budget():
    with criterion(9, "suite runtime under 60s"):
        elapsed = time.perf_counter() - _SESSION_START
        # the session-wide budget is also enforced by a conftest fixture
        # that runs after the very last test
        assert elapsed < 60.0, f"{elapsed:.1f}s elapsed already"
