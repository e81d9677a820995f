import io
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag.decomposition import decompose
from agrodiag.errors import (
    CoverageError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
    SchemaError,
)
from agrodiag.ingest import (
    load_crop_panel,
    load_io_panel,
    load_land_use,
    load_price_table,
    load_value_cost,
    triennium_average,
    write_crop_panel,
)
from agrodiag.panel import (
    CropObservation,
    CropPanel,
    InputOutputPanel,
    IOItem,
    IOYear,
    _Columns,
)
from agrodiag.productivity import index_series, tornqvist_log_growth

from helpers import oracle_tornqvist, oracle_triennium

TWO_CROP_FILE = """crop_id,year,area_ha,production_t,price_per_t
paddy,2005,100,250,500
paddy,2006,110,260,520
wheat,2005,50,90,700
wheat,2006,55,95,710
"""


def load_text(text, **kwargs):
    return load_crop_panel(io.StringIO(text), **kwargs)


def panel_text(panel):
    buf = io.StringIO()
    write_crop_panel(panel, buf)
    return buf.getvalue()


class TestLoadCropPanel:
    def test_well_formed_file(self):
        panel = load_text(TWO_CROP_FILE)
        assert len(panel) == 4
        assert panel.crops == ("paddy", "wheat")
        assert panel.get("paddy", 2005).production == 250.0

    def test_deflator_scales_prices(self):
        # index 125 in the second year deflates prices by a factor 0.8
        panel = load_text(TWO_CROP_FILE, deflator={2005: 100.0, 2006: 125.0})
        assert panel.get("paddy", 2005).price == 500.0
        assert panel.get("paddy", 2006).price == pytest.approx(520.0 * 0.8)

    def test_constant_deflator_of_100_is_identity(self):
        plain = load_text(TWO_CROP_FILE)
        deflated = load_text(TWO_CROP_FILE, deflator={2005: 100.0, 2006: 100.0})
        assert plain == deflated

    @pytest.mark.parametrize("index", [0.0, -100.0, float("nan"),
                                       float("inf")])
    def test_bad_deflator_is_domain_error(self, index):
        with pytest.raises(DomainError, match="deflator for 2006.*row 3"):
            load_text(TWO_CROP_FILE, deflator={2005: 100.0, 2006: index})

    def test_deflator_must_cover_all_years(self):
        with pytest.raises(CoverageError):
            load_text(TWO_CROP_FILE, deflator={2005: 100.0})

    def test_duplicate_row_cites_row_number(self):
        text = TWO_CROP_FILE + "paddy,2005,1,1,1\n"
        with pytest.raises(DuplicateKeyError, match="row 6"):
            load_text(text)

    def test_missing_column_named(self):
        with pytest.raises(SchemaError, match="header"):
            load_text("crop_id,year,area_ha\npaddy,2005,1\n")

    def test_non_numeric_cell_names_row_and_column(self):
        bad = TWO_CROP_FILE.replace("110", "n/a")
        with pytest.raises(SchemaError, match="area_ha.*row 3"):
            load_text(bad)

    def test_wrong_column_count_named(self):
        with pytest.raises(SchemaError, match="row 2.*columns"):
            load_text("crop_id,year,area_ha,production_t,price_per_t\n"
                      "paddy,2005,1,1\n")

    def test_negative_value_is_domain_error(self):
        bad = TWO_CROP_FILE.replace("250", "-250")
        with pytest.raises(DomainError):
            load_text(bad)

    def test_non_finite_value_names_row_and_column(self):
        bad = TWO_CROP_FILE.replace("520", "nan")
        with pytest.raises(DomainError, match="price_per_t.*row 3"):
            load_text(bad)

    def test_non_utf8_bytes_after_first_chunk_name_the_file(self, tmp_path):
        # the bad byte sits past the first decoded chunk, so it is met while
        # the rows are iterated, not when the file is opened
        path = tmp_path / "crops.csv"
        rows = "".join(f"c{i},2000,1,1,1\n" for i in range(5000))
        path.write_bytes((TWO_CROP_FILE + rows).encode() + b"\xff\n")
        with pytest.raises(SchemaError, match="crop panel .*crops.csv.*UTF-8"):
            load_crop_panel(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "crops.csv"
        path.write_bytes(TWO_CROP_FILE.encode("utf-8-sig"))
        assert load_crop_panel(path) == load_text(TWO_CROP_FILE)

    def test_round_trip_is_identity(self):
        panel = load_text(TWO_CROP_FILE)
        again = load_text(panel_text(panel))
        assert panel == again

    def test_signed_zero_and_subnormals_round_trip(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "paddy,2000,-0.0,5e-324,2.2250738585072014e-308\n"
                "wheat,2000,1e-310,0.0,1.7976931348623157e+308\n")
        panel = load_text(text)
        paddy = panel.get("paddy", 2000)
        assert math.copysign(1.0, paddy.area) == -1.0
        assert paddy.production.hex() == (5e-324).hex()
        assert panel.get("wheat", 2000).area.hex() == (1e-310).hex()
        assert panel_text(panel) == text

    def test_memory_per_row(self):
        # 1,000 crops x 20 years; the panel keeps ids and three columns of
        # doubles, not an object per row
        rows = "".join(f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                       for y in range(2000, 2020) for c in range(1000))
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panel = load_text(text)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(panel) == 20_000
        assert retained / len(panel) < 80

    def test_transient_peak_per_row(self):
        # the loader's scratch on top of the panel it keeps: per year a list
        # of ids, and one {crop id: year bit mask} dict for duplicates
        rows = "".join(f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                       for y in range(2000, 2020) for c in range(1000))
        stream = io.StringIO(
            "crop_id,year,area_ha,production_t,price_per_t\n" + rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panel = load_crop_panel(stream)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(panel) == 20_000
        assert peak / len(panel) < 50

    def test_duplicate_found_beyond_64_years(self):
        # 70 years, so the later years' bits make the masks big ints
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"c{c},{y},1,1,1\n" for y in range(1950, 2020) for c in range(3))
        panel = load_text(text)
        assert len(panel) == 210 and panel.crops == ("c0", "c1", "c2")
        for year in (2019, 1950):
            with pytest.raises(DuplicateKeyError,
                               match=rf"^crop panel: duplicate \(c1, {year}\) "
                                     rf"in row 212$"):
                load_text(text + f"c1,{year},2,2,2\n")
        columns = _Columns()
        for year in range(1950, 2020):
            assert columns.add("a", year, 1.0, 2.0, 3.0)
        assert not columns.add("a", 2019, 9.0, 9.0, 9.0)
        assert CropPanel(columns) == CropPanel(
            CropObservation("a", y, 1.0, 2.0, 3.0) for y in range(1950, 2020))

    @given(st.lists(
        st.tuples(
            st.sampled_from(["paddy", "wheat", "maize", "gram"]),
            st.integers(min_value=1990, max_value=2020),
            st.floats(0.001, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1e6),
        ),
        min_size=1, max_size=24,
        unique_by=lambda row: (row[0], row[1]),
    ))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, rows):
        panel = CropPanel(CropObservation(*row) for row in rows)
        assert load_text(panel_text(panel)) == panel

    @given(st.integers(min_value=2, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_share_closure(self, n_crops):
        rows = [(f"c{i}", 2000, float(i + 1) * 1.37, 1.0, 1.0)
                for i in range(n_crops)]
        panel = CropPanel(CropObservation(*row) for row in rows)
        assert abs(sum(panel.area_shares(2000).values()) - 1.0) <= 1e-12


class TestDecomposeTransientPeak:
    def test_memoised_decompose_allocates_little_per_crop(self):
        # the two periods' columns are merged by position: no per-crop dict,
        # tuple or union set
        rows = [CropObservation(f"crop{c:04d}", y, c + 1.5, y * 0.25, c + 7.5)
                for y in range(2000, 2008) for c in range(1000)
                if (c + y) % 5]    # each year misses a fifth of the crops
        panel = CropPanel(rows)
        for end_year in (2002, 2007):
            triennium_average(panel, end_year)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = decompose(panel, 2002, 2007)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.base_label == "TE 2002"
        assert peak / 1000 < 16


class TestTriennium:
    def make_panel(self, by_year):
        obs = []
        for year, crops in by_year.items():
            for crop, (a, q, p) in crops.items():
                obs.append(CropObservation(crop, year, a, q, p))
        return CropPanel(obs)

    def test_constant_panel_unchanged(self):
        values = {"paddy": (10.0, 25.0, 500.0)}
        panel = self.make_panel({y: values for y in (2004, 2005, 2006)})
        te = triennium_average(panel, 2006)
        obs = te.get("paddy", 2006)
        assert (obs.area, obs.production, obs.price) == (10.0, 25.0, 500.0)

    def test_arithmetic_mean_of_areas(self):
        panel = self.make_panel({
            2004: {"paddy": (10.0, 10.0, 500.0)},
            2005: {"paddy": (20.0, 20.0, 500.0)},
            2006: {"paddy": (30.0, 30.0, 500.0)},
        })
        assert triennium_average(panel, 2006).get("paddy", 2006).area == 20.0

    def test_absent_years_count_as_zero(self):
        # oracle: (0 + 0 + 30) / 3 = 10 for area; price averaged over the
        # single year the crop was observed
        panel = self.make_panel({
            2004: {"wheat": (5.0, 5.0, 700.0)},
            2005: {"wheat": (5.0, 5.0, 700.0)},
            2006: {"wheat": (5.0, 5.0, 700.0), "maize": (30.0, 60.0, 550.0)},
        })
        te = triennium_average(panel, 2006)
        maize = te.get("maize", 2006)
        assert maize.area == pytest.approx(10.0)
        assert maize.production == pytest.approx(20.0)
        assert maize.price == 550.0

    @given(st.dictionaries(
        st.sampled_from(range(2003, 2008)),
        st.dictionaries(st.sampled_from(["gram", "maize", "paddy", "wheat"]),
                        st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6),
                                  st.floats(1.0, 1e6)),
                        min_size=1),
        min_size=5,
    ))
    @settings(max_examples=50, deadline=None)
    def test_memoised_and_equal_to_oracle(self, by_year):
        panel = self.make_panel(by_year)
        for end_year in (2005, 2007, 2005):
            te = triennium_average(panel, end_year)
            assert triennium_average(panel, end_year) is te
            expected = oracle_triennium(by_year, end_year)
            assert te.years == (end_year,)
            assert te.crops == tuple(expected)
            for crop, values in expected.items():
                obs = te.get(crop, end_year)
                assert (obs.area, obs.production, obs.price) == values

    @pytest.mark.parametrize("by_year", [
        # maize grown in the middle year only
        {2004: {"wheat": (5.0, 7.0, 700.0)},
         2005: {"maize": (0.1, 0.7, 550.3), "wheat": (6.0, 8.0, 710.0)},
         2006: {"wheat": (7.0, 9.0, 720.0)}},
        # a signed-zero area, in a crop grown every year and in one grown
        # in the last year only
        {2004: {"paddy": (-0.0, 1.0, 2.0)},
         2005: {"paddy": (0.3, 1.1, 2.2)},
         2006: {"gram": (-0.0, 0.0, 9.0), "paddy": (0.7, 1.3, 2.3)}},
    ])
    def test_sparse_and_signed_zero_bits_equal_oracle(self, by_year):
        te = triennium_average(self.make_panel(by_year), 2006)
        expected = oracle_triennium(by_year, 2006)
        assert te.crops == tuple(expected)
        for crop, values in expected.items():
            obs = te.get(crop, 2006)
            assert [v.hex() for v in (obs.area, obs.production, obs.price)] \
                == [v.hex() for v in values]

    def test_insufficient_years(self):
        panel = self.make_panel({2006: {"paddy": (1.0, 1.0, 1.0)}})
        with pytest.raises(CoverageError):
            triennium_average(panel, 2006)


IO_FILE = """year,kind,item_id,quantity,share
2000,output,grain,100,0.6
2000,output,veg,40,0.4
2000,input,labour,10,1.0
"""


class TestLoadIOPanel:
    def test_exact_shares_accepted_unchanged(self):
        panel = load_io_panel(io.StringIO(IO_FILE))
        assert [it.share for it in panel.outputs(2000)] == [0.6, 0.4]

    def test_shares_inside_band_renormalized(self):
        text = IO_FILE.replace("0.6\n", "0.6005\n")
        panel = load_io_panel(io.StringIO(text))
        assert sum(it.share for it in panel.outputs(2000)) == pytest.approx(1.0, abs=1e-12)

    def test_shares_outside_band_rejected(self):
        text = IO_FILE.replace("0.6\n", "0.7\n")
        with pytest.raises(NormalizationError):
            load_io_panel(io.StringIO(text))

    def test_zero_quantity_flagged_at_load(self):
        text = IO_FILE.replace("2000,output,grain,100", "2000,output,grain,0")
        with pytest.warns(UserWarning, match="grain"):
            load_io_panel(io.StringIO(text))

    def test_bad_kind_rejected(self):
        text = IO_FILE.replace("2000,input,labour", "2000,midput,labour")
        with pytest.raises(SchemaError, match="midput"):
            load_io_panel(io.StringIO(text))

    def test_duplicate_item_cites_row_number(self):
        # the same id may appear once per (year, kind): as an input too, and
        # in another year, but not twice as a 2000 output
        text = IO_FILE + "2000,input,grain,1,0\n2001,output,grain,1,0\n" \
                         "2000,output,grain,1,0\n"
        lines = text.splitlines()
        assert lines[-1] == "2000,output,grain,1,0"
        with pytest.raises(DuplicateKeyError,
                           match=f"duplicate output 'grain' for 2000 in row "
                                 f"{len(lines)}$"):
            load_io_panel(io.StringIO(text))

    @pytest.mark.parametrize("row, column", [
        ("2000,input,labour,inf,1.0", "quantity"),
        ("2000,input,labour,nan,1.0", "quantity"),
        ("2000,input,labour,-1,1.0", "quantity"),
        ("2000,input,labour,10,nan", "share"),
    ])
    def test_bad_amount_names_row_and_column(self, row, column):
        text = IO_FILE.replace("2000,input,labour,10,1.0", row)
        value = row.split(",")[3 if column == "quantity" else 4]
        with pytest.raises(DomainError,
                           match=f"^io panel: value {float(value)!r} in "
                                 f"column '{column}', row 4 must be finite "
                                 f"and >= 0$"):
            load_io_panel(io.StringIO(text))

    def test_share_above_one_after_renormalization_names_item_and_year(self):
        # inside the 1e-9 tolerance the shares are kept as they are, so a
        # lone share may exceed 1 by less than that
        text = IO_FILE.replace("2000,input,labour,10,1.0",
                               "2000,input,labour,10,1.0000000005")
        with pytest.raises(DomainError,
                           match=r"^io panel: input 'labour' in 2000 has share "
                                 r"1\.0000000005 after renormalization"):
            load_io_panel(io.StringIO(text))

    def test_memory_per_row(self):
        # 100 items a side x 20 years; the panel keeps ids and two columns
        # of doubles, not an object per row
        rows = "".join(f"{y},{kind},{kind}{i:03d},{i + y * 0.5},0.01\n"
                       for y in range(2000, 2020)
                       for kind in ("output", "input") for i in range(100))
        text = "year,kind,item_id,quantity,share\n" + rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panel = load_io_panel(io.StringIO(text))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(panel.years) == 20
        assert len(panel.inputs(2019)) == 100
        assert retained / 4000 < 80

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_loaded_equals_built_and_index_matches_oracle(self, data):
        n_years = data.draw(st.integers(min_value=2, max_value=4))
        years = range(2000, 2000 + n_years)
        names = {kind: data.draw(st.lists(
            st.sampled_from(["grain", "veg", "milk", "labour", "seed"]),
            min_size=1, max_size=4, unique=True)) for kind in ("output", "input")}
        quantity = st.floats(1e-3, 1e6)
        rows = []
        for year in years:
            for kind, ids in names.items():
                weights = [data.draw(st.floats(0.01, 1.0)) for _ in ids]
                total = sum(weights)
                rows += [(year, kind, i, data.draw(quantity), w / total)
                         for i, w in zip(ids, weights)]
        rows = data.draw(st.permutations(rows))
        text = "year,kind,item_id,quantity,share\n" + "".join(
            f"{y},{k},{i},{q!r},{s!r}\n" for y, k, i, q, s in rows)
        # IOYears holding each side's items in file order
        built = InputOutputPanel(
            IOYear(year, *(tuple(IOItem(i, q, s) for y, k, i, q, s in rows
                                 if (y, k) == (year, kind))
                           for kind in ("output", "input")))
            for year in years
        )
        loaded = load_io_panel(io.StringIO(text))
        assert loaded == built
        for year in years:
            assert loaded.year(year) == built.year(year)
        got, want = index_series(loaded), index_series(built)
        for kind in got:
            assert [v.hex() for v in got[kind].values.values()] == \
                [v.hex() for v in want[kind].values.values()]
        items = {}
        for y, k, i, q, s in rows:
            items.setdefault((y, k), {})[i] = (q, s)
        level = 0.0
        for year in years[1:]:
            step = oracle_tornqvist(items[year - 1, "output"],
                                    items[year, "output"],
                                    items[year - 1, "input"],
                                    items[year, "input"])
            assert tornqvist_log_growth(loaded, year - 1, year).hex() == \
                step.hex()
            level += step
            assert got["tfp"].values[year].hex() == \
                (100.0 * math.exp(level)).hex()


PRICE_FILE = """commodity_id,year,price_per_t
wheat,2002,700
wheat,2003,720
urea,2002,500
"""


class TestLoadPrices:
    def test_table_keyed_by_commodity(self):
        table = load_price_table(io.StringIO(PRICE_FILE))
        assert sorted(table) == ["urea", "wheat"]
        assert table["wheat"].values == {2002: 700.0, 2003: 720.0}

    @pytest.mark.parametrize("price", ["0", "-700", "nan", "inf"])
    def test_non_positive_or_non_finite_price_names_the_row(self, price):
        text = PRICE_FILE.replace("wheat,2003,720", f"wheat,2003,{price}")
        with pytest.raises(DomainError,
                           match=r"'price_per_t', row 3 must be finite and > 0"):
            load_price_table(io.StringIO(text))


class TestLoadLandUseAndCosts:
    def test_land_use_sorted(self):
        text = ("year,agricultural_land,non_agricultural_land,total_reported\n"
                "2001,67,18,100\n2000,68,18,100\n")
        records = load_land_use(io.StringIO(text))
        assert [r.year for r in records] == [2000, 2001]

    @pytest.mark.parametrize("row,column", [
        ("2001,-1,18,100", "agricultural_land"),
        ("2001,67,nan,100", "non_agricultural_land"),
        ("2001,67,18,inf", "total_reported"),
    ])
    def test_land_use_rejects_negative_and_non_finite_naming_the_row(
            self, row, column):
        text = ("year,agricultural_land,non_agricultural_land,total_reported\n"
                f"2000,68,18,100\n{row}\n")
        with pytest.raises(DomainError, match=f"'{column}', row 3 must be"):
            load_land_use(io.StringIO(text))

    def test_value_cost(self):
        text = "year,output_value,input_cost\n2000,1500,1000\n"
        value, cost = load_value_cost(io.StringIO(text))
        assert value == {2000: 1500.0}
        assert cost == {2000: 1000.0}

    @pytest.mark.parametrize("row,column", [
        ("2000,nan,1000", "output_value"),
        ("2000,1500,inf", "input_cost"),
        ("2000,-1500,1000", "output_value"),
        ("2000,1500,-inf", "input_cost"),
    ])
    def test_value_cost_rejects_non_finite_and_negative(self, row, column):
        text = f"year,output_value,input_cost\n1999,1,1\n{row}\n"
        with pytest.raises(DomainError, match=f"'{column}', row 3"):
            load_value_cost(io.StringIO(text))
