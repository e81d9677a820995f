import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agrodiag.errors import CoverageError, DomainError
from agrodiag.markets import (
    _fmean,
    _stdev,
    break_analysis,
    coefficient_of_variation,
    crop_shares,
    land_use_ratios,
    price_ratio,
    value_cost_ratio,
)
from agrodiag.panel import LandUseRecord, PriceSeries

from helpers import crop_panel

positive_values = st.lists(st.floats(min_value=0.1, max_value=1e4),
                           min_size=3, max_size=12)


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_one_two_three_is_fifty_exactly(self):
        # mean 2, sample sd sqrt((1+0+1)/2) = 1 -> 50.0
        assert coefficient_of_variation([1.0, 2.0, 3.0]) == 50.0

    def test_matches_statistics_module(self):
        values = [3.1, 4.7, 2.2, 8.8, 5.0]
        expected = statistics.stdev(values) / statistics.mean(values) * 100.0
        assert coefficient_of_variation(values) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_population_convention_flag(self):
        values = [1.0, 2.0, 3.0]
        sd_pop = np.std(values)
        assert coefficient_of_variation(values, ddof=0) == pytest.approx(
            sd_pop / 2.0 * 100.0, rel=1e-12)

    def test_too_few_values(self):
        with pytest.raises(CoverageError):
            coefficient_of_variation([1.0])

    def test_non_positive_mean(self):
        with pytest.raises(DomainError):
            coefficient_of_variation([-1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_value_is_domain_error(self, bad):
        with pytest.raises(DomainError, match="finite"):
            coefficient_of_variation([1.0, bad, 2.0])

    def test_unsupported_ddof(self):
        with pytest.raises(ValueError, match="ddof"):
            coefficient_of_variation([1.0, 2.0, 3.0], ddof=2)

    @given(positive_values, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, k):
        base = coefficient_of_variation(values)
        scaled = coefficient_of_variation([k * v for v in values])
        assert abs(scaled - base) <= 1e-12 * max(1.0, base)

    @given(positive_values.filter(lambda v: max(v) - min(v) > 1e-6),
           st.floats(min_value=0.1, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_shift_strictly_decreases_cv(self, values, c):
        assert coefficient_of_variation([v + c for v in values]) < \
            coefficient_of_variation(values)

    @pytest.mark.parametrize("values", [[1.7e308] * 3, [1.7e308, 1e308]])
    def test_overflow_is_domain_error(self, values):
        with pytest.raises(DomainError, match="overflows a float"):
            coefficient_of_variation(values)

    @pytest.mark.parametrize("values", [[1e300, -1e300, 1e-300],
                                        [-1e308, 1e308, 1e-300]])
    def test_ratio_overflow_is_domain_error(self, values):
        # finite, with a tiny positive mean: the standard deviation over
        # the mean leaves the float range
        with pytest.raises(DomainError, match="coefficient overflows a float"):
            coefficient_of_variation(values)


def same_float_or_domain_error(helper, reference):
    """HELPER() gives REFERENCE()'s float, bit for bit, or raises
    DomainError where REFERENCE() overflows."""
    try:
        want = reference()
    except OverflowError:
        with pytest.raises(DomainError, match="overflows a float"):
            helper()
    else:
        assert helper().hex() == want.hex()


# finite floats: subnormals, values near +-1.7e308, repeated values
# and the shortest lists included
float_lists = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=2, max_size=8),
    st.lists(st.floats(-1e-300, 1e-300), min_size=2, max_size=8),
    st.lists(st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                              0.1, 1.0, 3.0, 1e308, 1.7e308, -1.7e308,
                              1.7976931348623157e308]),
             min_size=2, max_size=8),
    st.builds(lambda v, n: [v] * n,
              st.floats(allow_nan=False, allow_infinity=False),
              st.integers(2, 5)),
)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the helpers give the results of Python 3.11's "
                           "statistics module")
class TestStatisticsHelpers:
    @given(float_lists)
    @settings(max_examples=400, deadline=None)
    def test_fmean_matches_statistics(self, values):
        same_float_or_domain_error(lambda: _fmean(values),
                                   lambda: statistics.fmean(values))

    @given(float_lists)
    @example([1.7e308, -1.7e308])  # overflows
    @example([5e-324, 1e-323])  # a subnormal result
    @settings(max_examples=400, deadline=None)
    def test_stdev_matches_statistics(self, values):
        same_float_or_domain_error(lambda: _stdev(values, 1),
                                   lambda: statistics.stdev(values))

    @given(float_lists)
    @example([1.7e308, -1.7e308])  # overflows
    @example([5e-324, 1e-323])  # a subnormal result
    @settings(max_examples=400, deadline=None)
    def test_pstdev_matches_statistics(self, values):
        same_float_or_domain_error(lambda: _stdev(values, 0),
                                   lambda: statistics.pstdev(values))


class TestBreakAnalysis:
    def test_constant_series(self):
        series = PriceSeries("paddy", {y: 700.0 for y in range(2002, 2012)})
        stats = break_analysis(series, 2007)
        assert stats.mean_before == 700.0
        assert stats.mean_after == 700.0
        assert stats.cv_before == 0.0
        assert stats.cv_after == 0.0

    def test_break_year_belongs_to_after_window(self):
        series = PriceSeries("paddy", {
            2005: 100.0, 2006: 100.0, 2007: 999.0, 2008: 999.0})
        stats = break_analysis(series, 2007)
        assert stats.mean_before == 100.0
        assert stats.mean_after == 999.0

    def test_mean_preserving_spread_doubles_cv(self):
        before = {2002: 90.0, 2003: 110.0, 2004: 100.0}
        after = {2007: 80.0, 2008: 120.0, 2009: 100.0}  # doubled deviations
        stats = break_analysis(PriceSeries("x", {**before, **after}), 2007)
        assert stats.mean_after == stats.mean_before
        assert stats.cv_after == pytest.approx(2.0 * stats.cv_before, rel=1e-12)

    def test_small_window_names_side(self):
        series = PriceSeries("x", {2006: 1.0, 2007: 1.0, 2008: 1.0})
        with pytest.raises(CoverageError, match="before"):
            break_analysis(series, 2007)

    def test_fixture_moments_recovered(self):
        # the synthetic price generator plants these window moments
        from agrodiag.fixtures import PRICE_MOMENTS, price_rows
        values = {}
        for commodity, year, price in price_rows():
            values.setdefault(commodity, {})[year] = price
        for commodity, ((m0, cv0), (m1, cv1)) in PRICE_MOMENTS.items():
            stats = break_analysis(PriceSeries(commodity, values[commodity]),
                                   2007)
            assert stats.mean_before == pytest.approx(m0, rel=1e-12)
            assert stats.mean_after == pytest.approx(m1, rel=1e-12)
            assert stats.cv_before == pytest.approx(cv0, rel=1e-9)
            assert stats.cv_after == pytest.approx(cv1, rel=1e-9)


class TestRatios:
    def test_value_cost_basic(self):
        assert value_cost_ratio({2000: 1500.0}, {2000: 1000.0}) == {2000: 1.5}

    def test_equal_series_is_one(self):
        series = {y: 100.0 + y for y in range(2000, 2005)}
        assert all(v == 1.0 for v in value_cost_ratio(series, series).values())

    def test_random_series_elementwise(self):
        rng = np.random.default_rng(2)
        years = range(2000, 2010)
        value = {y: float(rng.uniform(1, 100)) for y in years}
        cost = {y: float(rng.uniform(1, 100)) for y in years}
        ratio = value_cost_ratio(value, cost)
        for y in years:
            assert ratio[y] == value[y] / cost[y]

    def test_year_mismatch(self):
        with pytest.raises(CoverageError):
            value_cost_ratio({2000: 1.0}, {2001: 1.0})

    def test_zero_cost(self):
        with pytest.raises(DomainError):
            value_cost_ratio({2000: 1.0}, {2000: 0.0})

    def test_overflowing_ratio_names_ratio_and_year(self):
        with pytest.raises(DomainError) as caught:
            value_cost_ratio({2000: 1.0, 2004: 1.7e308},
                             {2000: 1.0, 2004: 1e-10})
        assert str(caught.value) == (
            "value/cost ratio: the ratio in 2004 overflows a float")

    def test_price_ratio_basic(self):
        wheat = PriceSeries("wheat", {2000: 1000.0})
        urea = PriceSeries("urea", {2000: 800.0})
        assert price_ratio(wheat, urea) == {2000: 1.25}

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_price_ratio_reciprocity(self, seed):
        rng = np.random.default_rng(seed)
        years = range(2000, 2006)
        a = PriceSeries("a", {y: float(rng.uniform(0.5, 2000)) for y in years})
        b = PriceSeries("b", {y: float(rng.uniform(0.5, 2000)) for y in years})
        forward = price_ratio(a, b)
        backward = price_ratio(b, a)
        for y in years:
            assert abs(forward[y] * backward[y] - 1.0) <= 1e-12


def constant_panel(crops, years=(2004, 2005, 2006)):
    return crop_panel((c, y, *values)
                      for y in years for c, values in crops.items())


def share_dict(panel, te_year, dimension):
    """``crop_shares`` as ``{crop: percent share}``."""
    return dict(zip(*crop_shares(panel, te_year, dimension)))


class TestCropShares:
    def test_single_crop_is_100(self):
        panel = constant_panel({"paddy": (10.0, 20.0, 500.0)})
        assert share_dict(panel, 2006, "area") == {"paddy": 100.0}

    def test_equal_areas_split_evenly(self):
        panel = constant_panel({"paddy": (10.0, 20.0, 500.0),
                                "wheat": (10.0, 15.0, 700.0)})
        shares = share_dict(panel, 2006, "area")
        assert shares == {"paddy": 50.0, "wheat": 50.0}

    def test_value_dimension_weights_by_revenue(self):
        panel = constant_panel({"paddy": (10.0, 10.0, 100.0),   # value 1000
                                "wheat": (10.0, 10.0, 300.0)})  # value 3000
        shares = share_dict(panel, 2006, "value")
        assert shares["paddy"] == pytest.approx(25.0)
        assert shares["wheat"] == pytest.approx(75.0)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_share_closure(self, seed):
        rng = np.random.default_rng(seed)
        crops = {f"c{i}": (float(rng.uniform(0.1, 100)),
                           float(rng.uniform(0.1, 100)),
                           float(rng.uniform(1, 1000)))
                 for i in range(int(rng.integers(1, 8)))}
        panel = constant_panel(crops)
        for dimension in ("area", "value"):
            shares = share_dict(panel, 2006, dimension)
            assert abs(sum(shares.values()) - 100.0) <= 1e-9


    @pytest.mark.parametrize("dimension, crops, message", [
        ("area", {"paddy": (1e308, 1.0, 1.0), "wheat": (1e308, 1.0, 1.0)},
         "total area in TE 2006 is not finite"),
        ("value", {"paddy": (1.0, 1e300, 1e300)},
         "total value in TE 2006 is not finite"),
        ("area", {"paddy": (0.0, 1.0, 1.0)},
         "total area in TE 2006 is not positive"),
    ])
    def test_total_neither_positive_nor_finite_is_domain_error(
            self, dimension, crops, message):
        panel = constant_panel(crops)
        with pytest.raises(DomainError, match=f"^{message}$"):
            share_dict(panel, 2006, dimension)

    def test_crops_ascend_with_their_shares(self):
        panel = constant_panel({"wheat": (3.0, 10.0, 300.0),
                                "paddy": (1.0, 10.0, 100.0)})
        for dimension in ("area", "value"):
            crops, shares = crop_shares(panel, 2006, dimension)
            assert crops == ("paddy", "wheat")
            assert list(shares) == pytest.approx([25.0, 75.0], rel=1e-12)


class TestLandUseRatios:
    def test_constant_records(self):
        records = [LandUseRecord(y, 68.0, 18.0, 100.0) for y in (2000, 2001, 2002)]
        ratios = land_use_ratios(records, 2002)
        assert ratios["al_ratio"] == pytest.approx(0.68)
        assert ratios["nal_ratio"] == pytest.approx(0.18)

    def test_all_agricultural_boundary(self):
        records = [LandUseRecord(y, 100.0, 0.0, 100.0) for y in (2000, 2001, 2002)]
        ratios = land_use_ratios(records, 2002)
        assert ratios == {"al_ratio": 1.0, "nal_ratio": 0.0}

    def test_varying_records_mean_then_divide(self):
        records = [
            LandUseRecord(2000, 60.0, 20.0, 100.0),
            LandUseRecord(2001, 66.0, 18.0, 110.0),
            LandUseRecord(2002, 72.0, 16.0, 120.0),
        ]
        ratios = land_use_ratios(records, 2002)
        # oracle: average each component first, then divide
        assert ratios["al_ratio"] == pytest.approx((60 + 66 + 72) / (100 + 110 + 120))
        assert ratios["nal_ratio"] == pytest.approx((20 + 18 + 16) / (100 + 110 + 120))

    def test_missing_years(self):
        records = [LandUseRecord(2000, 68.0, 18.0, 100.0)]
        with pytest.raises(CoverageError):
            land_use_ratios(records, 2002)

    @pytest.mark.parametrize("agricultural, total", [
        (1.7e308, 1.7e308),  # both averages overflow: inf / inf
        (0.0, 1.7e308),      # the total overflows, the ratios do not
        (1e-12, 5e-324),     # finite averages, an overflowing ratio
    ])
    def test_leaving_the_float_range_names_the_triennium(
            self, agricultural, total):
        records = [LandUseRecord(y, agricultural, 0.0, total)
                   for y in (2000, 2001, 2002)]
        with pytest.raises(DomainError, match="triennium ending 2002"):
            land_use_ratios(records, 2002)
