import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag.errors import (
    CompositionChangeError,
    CoverageError,
    DomainError,
    LogDomainError,
)
from agrodiag import productivity
from agrodiag.productivity import (
    IndexSeries,
    avg_annual_growth,
    index_series,
    tornqvist_log_growth,
)

from helpers import io_panel, oracle_tornqvist


def two_year_panel(out0, out1, in0, in1):
    return io_panel({2000: (out0, in0), 2001: (out1, in1)})


class TestTornqvistLogGrowth:
    def test_identical_years_give_zero(self):
        outs = {"grain": (100.0, 0.6), "veg": (40.0, 0.4)}
        ins = {"labour": (10.0, 1.0)}
        panel = two_year_panel(outs, outs, ins, ins)
        assert tornqvist_log_growth(panel, 2000, 2001) == 0.0

    def test_single_output_doubling(self):
        panel = two_year_panel({"grain": (100.0, 1.0)}, {"grain": (200.0, 1.0)},
                               {"labour": (10.0, 1.0)}, {"labour": (10.0, 1.0)})
        assert tornqvist_log_growth(panel, 2000, 2001) == pytest.approx(
            math.log(2.0), rel=1e-15)

    def test_two_by_two_against_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            q = rng.uniform(1.0, 50.0, size=8)
            s_out = rng.uniform(0.2, 0.8)
            s_in = rng.uniform(0.2, 0.8)
            out0 = {"a": (q[0], s_out), "b": (q[1], 1.0 - s_out)}
            out1 = {"a": (q[2], 1.0 - s_out), "b": (q[3], s_out)}
            in0 = {"l": (q[4], s_in), "m": (q[5], 1.0 - s_in)}
            in1 = {"l": (q[6], 1.0 - s_in), "m": (q[7], s_in)}
            panel = two_year_panel(out0, out1, in0, in1)
            expected = oracle_tornqvist(out0, out1, in0, in1)
            assert tornqvist_log_growth(panel, 2000, 2001) == pytest.approx(
                expected, rel=1e-12, abs=1e-15)

    def test_zero_quantity_under_weight_rejected(self):
        panel = two_year_panel({"grain": (0.0, 1.0)}, {"grain": (5.0, 1.0)},
                               {"labour": (1.0, 1.0)}, {"labour": (1.0, 1.0)})
        with pytest.raises(LogDomainError,
                           match=r"^output 'grain' has non-positive quantity "
                                 r"in 2000->2001 but share 1\.0$"):
            tornqvist_log_growth(panel, 2000, 2001)

    @pytest.mark.parametrize("side, q0, q1, ratio", [
        ("output", 1e-152, 1e158, r"\(1e\+158 / 1e-152\)"),
        ("input", 1e300, 1e-300, r"\(1e-300 / 1e\+300\)"),
    ])
    def test_ratio_outside_float_range_rejected(self, side, q0, q1, ratio):
        # q1 / q0 is +inf or 0.0, whose log is no log change
        moving = ({"x": (q0, 1.0)}, {"x": (q1, 1.0)})
        fixed = ({"x": (1.0, 1.0)}, {"x": (1.0, 1.0)})
        out, in_ = (moving, fixed) if side == "output" else (fixed, moving)
        panel = two_year_panel(out[0], out[1], in_[0], in_[1])
        with pytest.raises(DomainError,
                           match=rf"^{side} 'x': its quantity ratio "
                                 rf"2000->2001 {ratio} leaves the float "
                                 r"range$"):
            tornqvist_log_growth(panel, 2000, 2001)

    def test_one_sided_item_with_weight_rejected(self):
        panel = io_panel({
            2000: ({"grain": (10.0, 1.0)}, {"labour": (1.0, 1.0)}),
            2001: ({"grain": (10.0, 0.8), "veg": (5.0, 0.2)},
                   {"labour": (1.0, 1.0)}),
        })
        with pytest.raises(CompositionChangeError,
                           match=r"^output 'veg' carries share 0\.2 but exists "
                                 r"in only one of years 2000 and 2001$"):
            tornqvist_log_growth(panel, 2000, 2001)

    def test_one_sided_item_with_zero_share_ignored(self):
        panel = io_panel({
            2000: ({"grain": (10.0, 1.0)}, {"labour": (1.0, 1.0)}),
            2001: ({"grain": (20.0, 1.0), "veg": (5.0, 0.0)},
                   {"labour": (1.0, 1.0)}),
        })
        assert tornqvist_log_growth(panel, 2000, 2001) == pytest.approx(
            math.log(2.0))

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_time_reversal(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.5, 20.0, size=8)
        s = rng.uniform(0.1, 0.9, size=2)
        out0 = {"a": (q[0], s[0]), "b": (q[1], 1.0 - s[0])}
        out1 = {"a": (q[2], 1.0 - s[0]), "b": (q[3], s[0])}
        in0 = {"l": (q[4], s[1]), "m": (q[5], 1.0 - s[1])}
        in1 = {"l": (q[6], 1.0 - s[1]), "m": (q[7], s[1])}
        panel = two_year_panel(out0, out1, in0, in1)
        forward = tornqvist_log_growth(panel, 2000, 2001)
        backward = tornqvist_log_growth(panel, 2001, 2000)
        assert forward == pytest.approx(-backward, rel=1e-12, abs=1e-15)


class TestChainedIndex:
    def constant_panel(self, n_years=5):
        outs = {"grain": (100.0, 0.7), "veg": (40.0, 0.3)}
        ins = {"labour": (10.0, 0.5), "seed": (5.0, 0.5)}
        return io_panel({2000 + t: (outs, ins) for t in range(n_years)})

    def test_constant_panel_is_flat_100(self):
        series = index_series(self.constant_panel(), 2000)["tfp"]
        assert all(v == 100.0 for v in series.values.values())

    def test_common_growth_rates_collapse(self):
        g, h = 0.04, 0.01
        years = {}
        for t in range(6):
            outs = {"grain": (100.0 * math.exp(g * t), 0.7),
                    "veg": (40.0 * math.exp(g * t), 0.3)}
            ins = {"labour": (10.0 * math.exp(h * t), 0.5),
                   "seed": (5.0 * math.exp(h * t), 0.5)}
            years[2000 + t] = (outs, ins)
        series = index_series(io_panel(years), 2000)["tfp"]
        for t in range(6):
            assert series.values[2000 + t] == pytest.approx(
                100.0 * math.exp((g - h) * t), rel=1e-12)

    def test_tfp_equals_output_over_input(self):
        rng = np.random.default_rng(17)
        years = {}
        for t in range(8):
            s = rng.uniform(0.2, 0.8)
            outs = {"a": (rng.uniform(1, 50), s), "b": (rng.uniform(1, 50), 1 - s)}
            u = rng.uniform(0.2, 0.8)
            ins = {"l": (rng.uniform(1, 50), u), "m": (rng.uniform(1, 50), 1 - u)}
            years[2000 + t] = (outs, ins)
        panel = io_panel(years)
        series = index_series(panel, 2000)
        out, inp, tfp = series["output"], series["input"], series["tfp"]
        for year in tfp.years:
            expected = 100.0 * out.values[year] / inp.values[year]
            assert abs(tfp.values[year] - expected) <= 1e-9 * abs(expected)

    def test_planted_growth_recovered(self):
        # a 16-year panel built with a constant planted log change of
        # 0.01696/yr must yield ~1.71 %/yr under both estimators
        from agrodiag.fixtures import io_panel_rows
        from agrodiag.ingest import load_io_panel
        import io as _io
        text = "year,kind,item_id,quantity,share\n" + "\n".join(
            f"{year},{kind},{item},{quantity!r},{share!r}"
            for year, kind, item, quantity, share in io_panel_rows()
        ) + "\n"
        panel = load_io_panel(_io.StringIO(text))
        assert len(panel.years) == 16
        tfp = index_series(panel, panel.years[0])["tfp"]
        for method in ("loglinear", "cagr"):
            rate = avg_annual_growth(tfp, method=method)
            assert abs(rate - 1.71) <= 0.01, (method, rate)

    def test_gap_years_rejected(self):
        outs = {"grain": (100.0, 1.0)}
        ins = {"labour": (10.0, 1.0)}
        panel = io_panel({2000: (outs, ins), 2002: (outs, ins)})
        with pytest.raises(CoverageError):
            index_series(panel, 2000)

    def test_proportional_output_scaling(self):
        outs = {"grain": (100.0, 0.6), "veg": (40.0, 0.4)}
        ins = {"labour": (10.0, 1.0)}
        k = 1.9
        scaled = {"grain": (100.0 * k, 0.6), "veg": (40.0 * k, 0.4)}
        panel = two_year_panel(outs, scaled, ins, ins)
        assert tornqvist_log_growth(panel, 2000, 2001) == pytest.approx(
            math.log(k), rel=1e-12)
        assert index_series(panel, 2000)["input"].values[2001] == pytest.approx(
            100.0)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_share_collapse(self, seed):
        # any share composition gives the same weighted sum when all items
        # grow at a common rate
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        shares = rng.uniform(0.05, 1.0, size=n)
        shares /= shares.sum()
        g = rng.uniform(-0.2, 0.2)
        out0 = {f"o{i}": (float(q), float(shares[i]))
                for i, q in enumerate(rng.uniform(1.0, 30.0, size=n))}
        out1 = {k: (q * math.exp(g), s) for k, (q, s) in out0.items()}
        ins = {"l": (5.0, 1.0)}
        panel = two_year_panel(out0, out1, ins, ins)
        assert tornqvist_log_growth(panel, 2000, 2001) == pytest.approx(
            g, rel=1e-9, abs=1e-12)


class TestIndexSeriesOfPanel:
    def random_panel(self, n_years, seed=5):
        rng = np.random.default_rng(seed)
        years = {}
        for t in range(n_years):
            s, u = rng.uniform(0.2, 0.8, size=2)
            years[2000 + t] = (
                {"a": (rng.uniform(1, 50), s), "b": (rng.uniform(1, 50), 1 - s)},
                {"l": (rng.uniform(1, 50), u), "m": (rng.uniform(1, 50), 1 - u)},
            )
        return io_panel(years)

    def test_each_log_change_computed_once(self, monkeypatch):
        panel = self.random_panel(12)
        calls, steps = [], {"output": [], "input": []}
        log_change = productivity._log_change

        def counting(panel, from_year, to_year, side):
            calls.append((side, from_year, to_year))
            step = log_change(panel, from_year, to_year, side)
            steps[side].append(step)
            return step

        monkeypatch.setattr(productivity, "_log_change", counting)
        series = index_series(panel, 2003)
        # one call per side and year-over-year step, the output side first
        assert calls == [(side, y - 1, y) for side in ("output", "input")
                         for y in panel.years[1:]]
        monkeypatch.undo()
        steps["tfp"] = [o - i for o, i in zip(steps["output"], steps["input"])]
        # each series chains its log changes, 100 at the base year
        for kind, got in series.items():
            level = {2000: 0.0}
            for y, step in zip(panel.years[1:], steps[kind]):
                level[y] = level[y - 1] + step
            assert got.base_year == 2003
            assert [v.hex() for v in got.values.values()] == [
                (100.0 * math.exp(c - level[2003])).hex()
                for c in level.values()]
        # each tfp step is the Tornqvist log growth of its pair of years
        assert [s.hex() for s in steps["tfp"]] == [
            tornqvist_log_growth(panel, y - 1, y).hex()
            for y in panel.years[1:]]

    def test_output_error_raised_before_input_error(self):
        good = ({"a": (1.0, 1.0)}, {"l": (1.0, 1.0)})
        panel = io_panel({
            2000: good,
            2001: (good[0], {"l": (0.0, 1.0)}),   # input log-domain error
            2002: good,
            2003: ({"a": (0.0, 1.0)}, good[1]),   # output log-domain error
        })
        with pytest.raises(LogDomainError, match="^output 'a'"):
            index_series(panel)


class TestIndexSeries:
    def test_base_anchored_at_100(self):
        series = IndexSeries("tfp", 2000, {2000: 100.0, 2001: 103.0})
        assert series.values[2000] == 100.0
        with pytest.raises(DomainError):
            IndexSeries("tfp", 2000, {2000: 99.0, 2001: 103.0})

    def test_contiguity_required(self):
        with pytest.raises(CoverageError):
            IndexSeries("tfp", 2000, {2000: 100.0, 2002: 101.0})

    def test_rows_for_plot_emission(self):
        series = IndexSeries("tfp", 2000, {2001: 104.0, 2000: 100.0})
        assert series.to_rows() == [(2000, 100.0), (2001, 104.0)]


class TestAvgAnnualGrowth:
    def test_constant_series_is_zero(self):
        series = {2000 + t: 100.0 for t in range(5)}
        assert avg_annual_growth(series, method="loglinear") == pytest.approx(0.0, abs=1e-12)
        assert avg_annual_growth(series, method="cagr") == pytest.approx(0.0, abs=1e-12)

    def test_geometric_series_exact(self):
        series = {2000 + t: 100.0 * 1.02 ** t for t in range(10)}
        for method in ("loglinear", "cagr"):
            assert avg_annual_growth(series, method=method) == pytest.approx(
                2.0, abs=1e-6)

    @given(st.floats(min_value=-0.05, max_value=0.08),
           st.integers(min_value=3, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_methods_agree_on_geometric_series(self, rate, n_years):
        series = {2000 + t: 50.0 * (1.0 + rate) ** t for t in range(n_years)}
        loglinear = avg_annual_growth(series, method="loglinear")
        cagr = avg_annual_growth(series, method="cagr")
        assert abs(loglinear - cagr) <= 1e-6

    def test_window_selection(self):
        series = {2000: 100.0, 2001: 110.0, 2002: 121.0, 2003: 500.0}
        rate = avg_annual_growth(series, 2000, 2002, method="cagr")
        assert rate == pytest.approx(10.0, rel=1e-12)

    def test_short_window_rejected(self):
        with pytest.raises(CoverageError):
            avg_annual_growth({2000: 1.0}, method="cagr")
        with pytest.raises(CoverageError):
            avg_annual_growth({2000: 1.0, 2005: 2.0}, 2001, 2004)

    def test_non_positive_values_rejected(self):
        series = {2000: 100.0, 2001: -3.0, 2002: 110.0}
        with pytest.raises(LogDomainError):
            avg_annual_growth(series, method="loglinear")

    @pytest.mark.parametrize("method", ["loglinear", "cagr"])
    def test_overflowing_rate_is_domain_error_naming_the_window(self,
                                                                method):
        with pytest.raises(DomainError, match=r"^the growth rate over "
                                              r"\[2000, 2001\] overflows a "
                                              r"float$"):
            avg_annual_growth({2000: 1e-300, 2001: 1e10}, method=method)

    def test_accepts_index_series(self):
        series = IndexSeries("tfp", 2000, {2000: 100.0, 2001: 102.0})
        assert avg_annual_growth(series, method="cagr") == pytest.approx(2.0)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the slope is the fsum arithmetic of Python "
                               "3.11's statistics.linear_regression")
    @given(st.lists(st.integers(-3000, 3000), min_size=2, max_size=40,
                    unique=True).flatmap(lambda years: st.tuples(
                        st.just(years),
                        st.lists(st.floats(-745.0, 710.0), min_size=len(years),
                                 max_size=len(years)))))
    @settings(max_examples=300, deadline=None)
    def test_slope_matches_statistics(self, years_and_logs):
        years, logs = years_and_logs
        want = statistics.linear_regression(years, logs).slope
        assert productivity._slope(years, logs).hex() == want.hex()
