import io
import math
import sys
from array import array

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
from agrodiag.ingest import (_Columns, load_crop_panel, load_io_panel,
                             triennium_average)
from agrodiag.panel import CropPanel, LandUseRecord, PriceSeries

from helpers import (
    crop_csv,
    crop_panel,
    crop_rows,
    io_panel,
    io_rows,
)


def bits(row: tuple) -> tuple:
    """A row's key and the exact bits of its three values."""
    crop, year, *values = row
    return (crop, year, *(v.hex() for v in values))


CROPS = ["gram", "maize", "paddy", "wheat"]
YEARS = range(2000, 2006)

# distinct (crop_id, year) keys, each with its own area, production, price
observation_lists = st.dictionaries(
    st.tuples(st.sampled_from(CROPS), st.sampled_from(YEARS)),
    st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
    max_size=len(CROPS) * len(YEARS),
).map(lambda d: [(c, y, *v) for (c, y), v in d.items()])


class TestCropPanel:
    def test_duplicate_key_rejected(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "paddy,2005,1,1,1\npaddy,2005,2,2,2\n")
        with pytest.raises(DuplicateKeyError):
            load_crop_panel(io.StringIO(text), trienniums=(2005,))

    @pytest.mark.parametrize("column, field", [
        (2, "area_ha"), (3, "production_t"), (4, "price_per_t"),
    ], ids=["area", "production", "price"])
    def test_negative_values_rejected(self, column, field):
        cells = ["paddy", "2005", "1.0", "1.0", "1.0"]
        cells[column] = "-0.5"
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                + ",".join(cells) + "\n")
        with pytest.raises(DomainError, match=field):
            load_crop_panel(io.StringIO(text), trienniums=(2005,))

    def test_years_and_crops_sorted(self):
        panel = crop_panel([
            ("wheat", 2006, 1.0, 1.0, 1.0),
            ("paddy", 2005, 1.0, 1.0, 1.0),
            ("paddy", 2006, 1.0, 1.0, 1.0),
        ])
        assert panel.years == (2005, 2006)
        assert panel.columns(2005)[0] == ("paddy",)
        assert panel.columns(2006)[0] == ("paddy", "wheat")

    def test_missing_year_is_coverage_error(self):
        panel = crop_panel([("a", 2000, 1.0, 1.0, 1.0)])
        with pytest.raises(CoverageError):
            panel.columns(1999)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_year_index_agrees_with_sorted_key_model(self, data):
        observations = data.draw(observation_lists)
        shuffled = data.draw(st.permutations(observations))
        model = dict(sorted(((c, y), (c, y, *v)) for c, y, *v in observations))
        panel = crop_panel(shuffled)

        assert [bits(row) for row in crop_rows(panel)] == \
            [bits(row) for row in model.values()]
        assert panel.years == tuple(sorted({y for _, y in model}))
        for year in (YEARS.start - 1, *YEARS):
            want = [row for (_, y), row in model.items() if y == year]
            assert panel.has_year(year) == bool(want)
            if not want:
                with pytest.raises(CoverageError):
                    panel.columns(year)
                continue
            ids, *columns = panel.columns(year)
            assert ids == tuple(crop for crop, *_ in want)
            for k, column in enumerate(columns):
                assert [v.hex() for v in column] == \
                    [row[2 + k].hex() for row in want]
        assert crop_rows(panel) == crop_rows(crop_panel(observations))
        if observations:
            assert crop_rows(panel) != crop_rows(crop_panel(shuffled[1:]))

        text = io.StringIO(crop_csv(panel))
        if observations:
            assert crop_rows(load_crop_panel(text, trienniums=YEARS)) == \
                crop_rows(panel)
        else:
            # an empty panel writes a header-only file, which loads as none
            with pytest.raises(SchemaError, match="header but no data rows"):
                load_crop_panel(text, trienniums=YEARS)

    def test_folded_columns_are_allocated_at_their_length(self):
        # rows in descending crop order, so every folded year is sorted; an
        # array grown by appends would carry slack beyond its length
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"crop{c:04d},{y},{c + 0.5},{y},1.25\n"
            for y in range(2000, 2004) for c in reversed(range(1000)))
        panel = load_crop_panel(io.StringIO(text), trienniums=(2002, 2003))
        assert panel.years == (2000, 2001, 2002, 2003)
        for end in (2002, 2003):
            for ids, *columns in (panel.columns(end),
                                  triennium_average(panel, end)):
                assert len(ids) == 1000
                for column in columns:
                    assert sys.getsizeof(column.obj) == sys.getsizeof(
                        array("d", [0.0] * len(ids)))

    @given(st.lists(st.tuples(st.integers(1900, 2040),
                              st.sampled_from(["a", "b", "c", "d", "e"])),
                    max_size=150),
           st.sets(st.integers(1900, 2040)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_add_finds_repeats_as_a_set_does(self, stream, ends):
        # 70 keys come first, so every stream spans more keys than a 64-bit
        # mask has bits; the first row of a (key, id) is the one kept, and
        # the one folded into the trienniums ending in every year or in ENDS
        stream = [(year, "z") for year in range(1950, 2020)] + stream
        every, first = _Columns(range(1900, 2041)), {}
        folded = _Columns(ends)
        for row, (year, item_id) in enumerate(stream):
            added = every.add(year, item_id, [row, 0.5, year])
            assert added == ((year, item_id) not in first)
            assert folded.add(year, item_id, [row, 0.5, year]) == added
            first.setdefault((year, item_id), row)
        panel, folded = CropPanel(every), CropPanel(folded)
        assert panel.checked == folded.checked == (
            len(first), len({i for _, i in first}),
            tuple(sorted({y for y, _ in first})))
        assert {(year, crop): area
                for crop, year, area, *_ in crop_rows(panel)} == first
        assert {(year, crop): area for year in ends
                for crop, _, area, *_ in crop_rows(folded, year)} == {
            key: row for key, row in first.items() if key[0] in ends}


class TestInputOutputPanel:
    YEARS = {
        2001: ({"y": (2, 0.5), "x": (1.0, 0.5)}, {"l": (3.0, 1.0)}),
        2000: ({"x": (1.0, 1.0)}, {"l": (3.0, 1.0)}),
    }

    # a panel built straight from ``_Columns`` is held to the loader's rule
    @pytest.mark.parametrize("shares, error, message", [
        ((0.7,), NormalizationError, "output shares for 2000 sum to 0.7, "
         "outside the renormalization band (0.999, 1.001)"),
        ((1.0015,), NormalizationError, "output shares for 2000 sum to "
         "1.0015, outside the renormalization band (0.999, 1.001)"),
        # within 1e-9 of 1 a share is kept as given, so it stays above 1
        ((1.0000000005,), DomainError, "output 'x' in 2000 has share "
         "1.0000000005 after renormalization; shares must lie in [0, 1]"),
        # the sum is 1, but one share is negative
        ((1.0, 0.25, -0.25), DomainError, "output 'z' in 2000 has share "
         "-0.25 after renormalization; shares must lie in [0, 1]"),
    ])
    def test_share_sum_enforced(self, shares, error, message):
        outputs = {item: (1.0, share) for item, share in zip("xyz", shares)}
        with pytest.raises(error) as caught:
            io_panel({2000: (outputs, {"l": (1.0, 1.0)})})
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_exact_shares_accepted(self):
        panel = io_panel({2000: ({"x": (1.0, 0.6), "y": (1.0, 0.4)},
                                 {"l": (1.0, 1.0)})})
        assert list(panel.columns(2000, "output")[2]) == [0.6, 0.4]

    def test_panels_of_the_same_years_are_equal(self):
        panel = io_panel(self.YEARS)
        assert panel.years == (2000, 2001)
        assert panel.columns(2001, "output")[0] == ("y", "x")
        assert panel.columns(2000, "input")[0] == ("l",)
        assert io_rows(panel) == io_rows(io_panel(
            dict(reversed(self.YEARS.items()))))
        assert io_rows(panel) != io_rows(io_panel({2000: self.YEARS[2000]}))
        # outputs summing to 0.9995 are rescaled, whoever fills the builder
        built = io_panel({2000: ({"x": (1.0, 0.6), "y": (2.0, 0.3995)},
                                 {"l": (3.0, 1.0)})})
        loaded = load_io_panel(io.StringIO(
            "year,kind,item_id,quantity,share\n2000,output,x,1.0,0.6\n"
            "2000,output,y,2.0,0.3995\n2000,input,l,3.0,1.0\n"))
        assert io_rows(built) == io_rows(loaded)
        for side in ("output", "input"):
            ids, *values = built.columns(2000, side)
            want_ids, *want = loaded.columns(2000, side)
            assert ids == want_ids
            assert [[v.hex() for v in c] for c in values] == \
                [[v.hex() for v in c] for c in want]
        assert sum(built.columns(2000, "output")[2]) == pytest.approx(
            1.0, abs=1e-12)

    def test_columns_are_read_only_views_in_given_order(self):
        ids, quantity, share = io_panel(self.YEARS).columns(2001, "output")
        assert (ids, list(quantity), list(share)) == \
            (("y", "x"), [2.0, 1.0], [0.5, 0.5])
        with pytest.raises(TypeError):
            quantity[0] = 5.0

    def test_uncovered_year_is_coverage_error(self):
        panel = io_panel(self.YEARS)
        for side in ("output", "input"):
            with pytest.raises(CoverageError, match=r"^year 1999 not covered "
                               r"by panel \(have \(2000, 2001\)\)$"):
                panel.columns(1999, side)


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
