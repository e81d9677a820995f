import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag.errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
    SchemaError,
)
from agrodiag.ingest import load_crop_panel, write_crop_panel
from agrodiag.panel import (
    CropObservation,
    CropPanel,
    InputOutputPanel,
    IOItem,
    IOYear,
    LandUseRecord,
    PriceSeries,
)


class TestCropObservation:
    def test_yield_is_derived(self):
        obs = CropObservation("paddy", 2005, area=4.0, production=10.0, price=500.0)
        assert obs.yield_per_ha == 2.5

    def test_yield_undefined_for_zero_area(self):
        obs = CropObservation("paddy", 2005, 0.0, 0.0, 500.0)
        with pytest.raises(DomainError):
            obs.yield_per_ha

    @pytest.mark.parametrize("field", ["area", "production", "price"])
    def test_negative_values_rejected(self, field):
        kwargs = dict(area=1.0, production=1.0, price=1.0)
        kwargs[field] = -0.5
        with pytest.raises(DomainError):
            CropObservation("paddy", 2005, **kwargs)

    def test_slotted_and_frozen(self):
        obs = CropObservation("paddy", 2005, 1.0, 1.0, 1.0)
        assert not hasattr(obs, "__dict__")
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'area'$"):
            obs.area = 2.0


def bits(obs: CropObservation) -> tuple:
    """An observation's key and the exact bits of its three values."""
    return (obs.crop_id, obs.year, obs.area.hex(), obs.production.hex(),
            obs.price.hex())


CROPS = ["gram", "maize", "paddy", "wheat"]
YEARS = range(2000, 2006)

# distinct (crop_id, year) keys, each with its own area, production, price
observation_lists = st.dictionaries(
    st.tuples(st.sampled_from(CROPS), st.sampled_from(YEARS)),
    st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
    max_size=len(CROPS) * len(YEARS),
).map(lambda d: [CropObservation(c, y, *v) for (c, y), v in d.items()])


class TestCropPanel:
    def test_duplicate_key_rejected(self):
        obs = CropObservation("paddy", 2005, 1.0, 1.0, 1.0)
        with pytest.raises(DuplicateKeyError):
            CropPanel([obs, CropObservation("paddy", 2005, 2.0, 2.0, 2.0)])

    def test_years_and_crops_sorted(self):
        panel = CropPanel([
            CropObservation("wheat", 2006, 1.0, 1.0, 1.0),
            CropObservation("paddy", 2005, 1.0, 1.0, 1.0),
        ])
        assert panel.years == (2005, 2006)
        assert panel.crops == ("paddy", "wheat")

    def test_area_shares_sum_to_one(self):
        panel = CropPanel([
            CropObservation("a", 2000, 3.7, 1.0, 1.0),
            CropObservation("b", 2000, 9.1, 1.0, 1.0),
            CropObservation("c", 2000, 0.2, 1.0, 1.0),
        ])
        shares = panel.area_shares(2000)
        assert abs(sum(shares.values()) - 1.0) < 1e-12

    def test_area_shares_need_positive_total(self):
        panel = CropPanel([CropObservation("a", 2000, 0.0, 0.0, 1.0)])
        with pytest.raises(DomainError):
            panel.area_shares(2000)

    def test_missing_year_is_coverage_error(self):
        panel = CropPanel([CropObservation("a", 2000, 1.0, 1.0, 1.0)])
        with pytest.raises(CoverageError):
            panel.total_area(1999)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_year_index_agrees_with_sorted_key_model(self, data):
        observations = data.draw(observation_lists)
        shuffled = data.draw(st.permutations(observations))
        model = dict(sorted(((o.crop_id, o.year), o) for o in observations))
        panel = CropPanel(shuffled)

        assert list(panel.observations()) == list(model.values())
        assert panel.years == tuple(sorted({y for _, y in model}))
        assert panel.crops == tuple(sorted({c for c, _ in model}))
        assert len(panel) == len(model)
        for year in (YEARS.start - 1, *YEARS):
            assert list(panel.observations(year)) == \
                [o for (_, y), o in model.items() if y == year]
            assert panel.has_year(year) == any(y == year for _, y in model)
            for crop in CROPS + ["absent"]:
                got, want = panel.get(crop, year), model.get((crop, year))
                if want is None:
                    assert got is None
                else:
                    assert bits(got) == bits(want)
        assert panel == CropPanel(observations)
        if observations:
            assert panel != CropPanel(shuffled[1:])

        text = io.StringIO()
        write_crop_panel(panel, text)
        text.seek(0)
        if observations:
            assert load_crop_panel(text) == panel
        else:
            # an empty panel writes a header-only file, which loads as none
            with pytest.raises(SchemaError, match="header but no data rows"):
                load_crop_panel(text)


class TestIOYear:
    @pytest.mark.parametrize("obj, field", [
        (IOItem("x", 1.0, 1.0), "quantity"),
        (IOYear(2000, (IOItem("x", 1.0, 1.0),), (IOItem("l", 1.0, 1.0),)),
         "year"),
    ])
    def test_slotted_and_frozen(self, obj, field):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{field}'$"):
            setattr(obj, field, 2)

    def test_share_sum_enforced(self):
        with pytest.raises(NormalizationError):
            IOYear(2000, (IOItem("x", 1.0, 0.7),), (IOItem("l", 1.0, 1.0),))

    def test_exact_shares_accepted(self):
        year = IOYear(2000, (IOItem("x", 1.0, 0.6), IOItem("y", 1.0, 0.4)),
                      (IOItem("l", 1.0, 1.0),))
        assert [it.share for it in year.outputs] == [0.6, 0.4]


class TestInputOutputPanel:
    YEARS = (
        IOYear(2001, (IOItem("y", 2, 0.5), IOItem("x", 1.0, 0.5)),
               (IOItem("l", 3.0, 1.0),)),
        IOYear(2000, (IOItem("x", 1.0, 1.0),), (IOItem("l", 3.0, 1.0),)),
    )

    def test_years_built_on_demand_equal_the_given_ones(self):
        panel = InputOutputPanel(self.YEARS)
        assert panel.years == (2000, 2001)
        assert [panel.year(y.year) for y in self.YEARS] == list(self.YEARS)
        assert [it.item_id for it in panel.outputs(2001)] == ["y", "x"]
        assert panel.inputs(2000) == (IOItem("l", 3.0, 1.0),)
        assert panel == InputOutputPanel(reversed(self.YEARS))
        assert panel != InputOutputPanel(self.YEARS[1:])

    def test_columns_are_read_only_views_in_given_order(self):
        ids, quantity, share = InputOutputPanel(self.YEARS).columns(2001,
                                                                    "output")
        assert (ids, list(quantity), list(share)) == \
            (("y", "x"), [2.0, 1.0], [0.5, 0.5])
        with pytest.raises(TypeError):
            quantity[0] = 5.0

    def test_duplicate_and_uncovered_years(self):
        with pytest.raises(DuplicateKeyError,
                           match="^duplicate year 2000 in panel$"):
            InputOutputPanel(self.YEARS + self.YEARS[1:])
        panel = InputOutputPanel(self.YEARS)
        for call in (panel.year, panel.outputs, panel.inputs):
            with pytest.raises(CoverageError, match=r"^year 1999 not covered "
                               r"by panel \(have \(2000, 2001\)\)$"):
                call(1999)


class TestPriceSeries:
    def test_years_sorted_and_positive(self):
        series = PriceSeries("wheat", {2002: 700.0, 2001: 650.0})
        assert series.years == (2001, 2002)
        assert series.window(first=2002) == [700.0]

    def test_non_positive_price_rejected(self):
        with pytest.raises(DomainError):
            PriceSeries("wheat", {2001: 0.0})


class TestLandUseRecord:
    def test_components_bounded_by_total(self):
        with pytest.raises(DataInconsistencyError):
            LandUseRecord(2000, 70.0, 40.0, 100.0)

    def test_equality_with_total_allowed(self):
        record = LandUseRecord(2000, 82.0, 18.0, 100.0)
        assert math.isclose(record.agricultural_land + record.non_agricultural_land,
                            record.total_reported)
