import csv
import io
import math
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag import fixtures
from agrodiag.advantage import load_area_share_table
from agrodiag.decomposition import decompose
from agrodiag.errors import (
    CoverageError,
    DataInconsistencyError,
    DomainError,
    DuplicateKeyError,
    NormalizationError,
    SchemaError,
)
from agrodiag.ingest import (
    _Columns,
    load_crop_panel,
    load_io_panel,
    load_land_use,
    load_price_table,
    load_value_cost,
    triennium_average,
)
from agrodiag.markets import crop_shares
from agrodiag.panel import CropPanel, InputOutputPanel
from agrodiag.productivity import index_series, tornqvist_log_growth

from helpers import (
    crop_csv,
    crop_panel,
    crop_row,
    crop_rows,
    io_rows,
    oracle_tornqvist,
    oracle_triennium,
)

TWO_CROP_FILE = """crop_id,year,area_ha,production_t,price_per_t
paddy,2005,100,250,500
paddy,2006,110,260,520
wheat,2005,50,90,700
wheat,2006,55,95,710
"""


# each year a test file has rows in the end of a triennium, so a panel
# folded into these holds every year's columns
EVERY_YEAR = range(1950, 2021)


def load_text(text, trienniums=EVERY_YEAR):
    return load_crop_panel(io.StringIO(text), trienniums=trienniums)


def retained_by(load):
    """What LOAD() returns, and the traced bytes still held after it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestLoadCropPanel:
    def test_well_formed_file(self):
        panel = load_text(TWO_CROP_FILE)
        assert [row[:2] for row in crop_rows(panel)] == [
            ("paddy", 2005), ("paddy", 2006), ("wheat", 2005), ("wheat", 2006)]
        assert crop_row(panel, "paddy", 2005)[1] == 250.0

    def test_a_positional_second_argument_is_refused(self):
        # ``trienniums`` is keyword-only: a stale positional deflator
        # mapping raises rather than being read as the trienniums
        with pytest.raises(TypeError):
            load_crop_panel(io.StringIO(TWO_CROP_FILE), {2005: 100.0})

    def test_no_trienniums_is_refused(self):
        # the fold is the one build, so a load names what it folds into
        with pytest.raises(TypeError, match="'trienniums'"):
            load_crop_panel(io.StringIO(TWO_CROP_FILE))
        for none in ((), [], range(2005, 2005)):
            with pytest.raises(ValueError, match=r"^trienniums must name at "
                               r"least one end year$"):
                load_text(TWO_CROP_FILE, trienniums=none)

    def test_folded_years_hold_only_their_end_years_rows(self):
        # maize grows only in 2006, outside the triennium ending 2005;
        # 2003 and 2004 have no rows, so that triennium is not made
        text = TWO_CROP_FILE + "maize,2006,1,2,3\n"
        panel = load_text(text, trienniums=(2005,))
        assert panel.years == (2005,) and panel._trienniums == {}
        assert crop_rows(panel) == crop_rows(load_text(text), 2005)
        assert panel.checked == (5, 3, (2005, 2006))
        with pytest.raises(CoverageError, match=r"^triennium ending 2005 "
                           r"needs years \(2003, 2004, 2005\), missing "
                           r"\[2003, 2004\]$"):
            triennium_average(panel, 2005)
        with pytest.raises(CoverageError, match=r"^year 2006 not covered by "
                           r"panel \(have \(2005,\)\)$"):
            panel.columns(2006)
        assert load_text(text, trienniums=(2010,)).years == ()

    def test_a_year_held_only_in_a_triennium_is_refused(self):
        # folded into the trienniums ending 2003 and 2006, the panel holds
        # 2002 only in the first's average: the triennium ending 2004,
        # which was not folded, cannot be made of it, nor can it be read
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"a,{year},1,2,3\n" for year in range(2001, 2007))
        panel = load_text(text, trienniums=(2003, 2006))
        assert panel.years == tuple(range(2001, 2007))
        for read in (lambda: triennium_average(panel, 2004),
                     lambda: panel.columns(2002)):
            with pytest.raises(CoverageError, match=r"^year 2002 is held "
                               r"only in its triennium's average$"):
                read()

    def test_folded_trienniums_equal_a_full_load_bit_for_bit(self, tmp_path):
        # the fixture folded into its two trienniums, and into every year;
        # both give the oracle's bits
        crops = fixtures.write_synthetic_inputs(tmp_path).parent / "crops.csv"
        full = load_crop_panel(crops, trienniums=range(2000, 2017))
        panel = load_crop_panel(crops, trienniums=(2016, 2002))
        assert full.years == tuple(range(2000, 2017))
        assert panel.years == (2000, 2001, 2002, 2014, 2015, 2016)
        assert panel.checked == full.checked
        by_year = {}
        with crops.open() as stream:
            for crop, year, *values in list(csv.reader(stream))[1:]:
                by_year.setdefault(int(year), {})[crop] = tuple(
                    map(float, values))
        for end in (2002, 2016):
            assert as_bytes(triennium_average(panel, end)) == as_bytes(
                triennium_average(full, end)) == as_columns(
                oracle_triennium(by_year, end))
            assert as_bytes(panel.columns(end)) == as_bytes(full.columns(end))
        for year in (2001, 2008):
            with pytest.raises(CoverageError):
                panel.columns(year)

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
            load_crop_panel(path, trienniums=EVERY_YEAR)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "crops.csv"
        path.write_bytes(TWO_CROP_FILE.encode("utf-8-sig"))
        assert crop_rows(load_crop_panel(
            path, trienniums=EVERY_YEAR)) == crop_rows(load_text(TWO_CROP_FILE))

    def test_round_trip_is_identity(self):
        panel = load_text(TWO_CROP_FILE)
        again = load_text(crop_csv(panel))
        assert crop_rows(panel) == crop_rows(again)

    def test_signed_zero_and_subnormals_round_trip(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "paddy,2000,-0.0,5e-324,2.2250738585072014e-308\n"
                "wheat,2000,1e-310,0.0,1.7976931348623157e+308\n")
        panel = load_text(text)
        area, production, _ = crop_row(panel, "paddy", 2000)
        assert math.copysign(1.0, area) == -1.0
        assert production.hex() == (5e-324).hex()
        assert crop_row(panel, "wheat", 2000)[0].hex() == (1e-310).hex()
        assert crop_csv(panel) == text

    def test_memory_per_row(self):
        # 1,000 crops x 20 years, each year an end: the panel keeps ids and,
        # per year, its three columns of doubles and its triennium's, not
        # an object per row
        rows = "".join(f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                       for y in range(2000, 2020) for c in range(1000))
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            panel = load_text(text, trienniums=range(2000, 2020))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(crop_rows(panel)) == 20_000
        assert retained / 20_000 < 80

    def test_folding_no_row_retains_next_to_nothing(self):
        # 2,000 crops x 17 years, none in the triennium ending 1990: every
        # row is checked and counted, none leaves anything behind, and an
        # id is not left in the interned table. What a fold into the
        # comparison trienniums retains is pinned below
        rows = "".join(f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                       for y in range(2000, 2017) for c in range(2000))
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + rows
        panel, retained = retained_by(
            lambda: load_text(text, trienniums=(1990,)))
        assert panel.years == () and panel.checked[:2] == (34_000, 2000)
        assert retained / 34_000 < 1

    @pytest.mark.parametrize("gap, n_kept", [(0, 12_000), (10, 10_800)],
                             ids=["same crops", "a tenth missing"])
    def test_transient_peak_per_folded_row(self, gap, n_kept):
        # 2,000 crops x 17 years, folded into the trienniums ending 2002
        # and 2016; with a GAP, each year misses every GAP-th crop, a
        # different tenth each year, so no two id tuples are equal. Beyond
        # the panel it keeps, the load peaks at its loop end: one code per
        # crop in the id table, one flag byte per crop and year, and the
        # slots, which the trienniums replace, ~10-12 bytes for each of
        # N_KEPT rows of the six years. Keeping those years, a code per
        # row, took it to ~11-17
        rows = "".join(f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                       for y in range(2000, 2017) for c in range(2000)
                       if not gap or (c + y) % gap)
        stream = io.StringIO(
            "crop_id,year,area_ha,production_t,price_per_t\n" + rows)
        tracemalloc.start()
        try:
            panel = load_crop_panel(stream, trienniums=(2002, 2016))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert panel.checked[0] == rows.count("\n")
        assert sorted(panel._trienniums) == [2002, 2016]
        assert (peak - retained) / n_kept < 20

    @pytest.mark.parametrize("crop_major", [False, True],
                             ids=["year blocks", "crop-major"])
    def test_folded_load_peak_and_retention_per_crop(self, crop_major):
        # 2,000 crops x 17 years, folded into the trienniums ending 2002
        # and 2016, the rows in year blocks or crop by crop. The load peaks
        # at its last row: per crop, its id string and its code in the id
        # table, a flag byte a year, and four slots of three doubles; the
        # panel's construction, its id table freed first, stays under
        # that. It keeps, per crop, the string and three doubles in each
        # of the two trienniums and the two end years, which share one id
        # tuple. ~240 bytes a crop at the peak, ~164 kept, ~27 for each of
        # the 12,000 rows of the six years (kept, those years peaked at
        # ~314 and kept ~211, ~35 a row)
        rows = sorted((c, y) for y in range(2000, 2017) for c in range(2000))
        if not crop_major:
            rows.sort(key=lambda row: row[1])
        stream = io.StringIO(
            "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
                f"crop{c:04d},{y},{c + 1.5},{y * 0.25},{c + y}.75\n"
                for c, y in rows))
        tracemalloc.start()
        try:
            panel = load_crop_panel(stream, trienniums=(2002, 2016))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert panel.checked == (34_000, 2000, tuple(range(2000, 2017)))
        assert peak / 2000 < 270
        assert retained / 2000 < 185

    def test_equal_id_tuples_are_shared(self):
        # each triennium and end year shares the tuple made just before it
        # if equal, a triennium coming before its end year: c is missing in
        # 2002, so that year gets its own tuple, and the triennium ending
        # 2003 (a, b, c) a new one, which the ones after it share
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"{crop},{year},1,2,3\n" for year in range(2000, 2005)
            for crop in "cab" if (crop, year) != ("c", 2002))
        panel = load_text(text)
        ids = {year: panel.columns(year)[0] for year in panel.years}
        assert ids[2000] is ids[2001] == ("a", "b", "c")
        assert ids[2002] == ("a", "b") and ids[2002] is not ids[2001]
        assert ids[2004] is ids[2003] == ids[2000]
        assert triennium_average(panel, 2002)[0] is ids[2000]
        assert triennium_average(panel, 2004)[0] is ids[2003]
        # folded into two trienniums: they and both end years hold one
        folded = load_text(text, trienniums=(2003, 2004))
        first = triennium_average(folded, 2003)[0]
        assert first == ("a", "b", "c")
        assert folded.columns(2003)[0] is first
        assert triennium_average(folded, 2004)[0] is first
        assert folded.columns(2004)[0] is first

    def test_triennium_wider_than_each_year_has_its_own_tuple(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "a,2000,1,1,1\nb,2000,1,1,1\nb,2001,1,1,1\nc,2001,1,1,1\n"
                "b,2002,1,1,1\n")
        panel = load_text(text)
        ids = triennium_average(panel, 2002)[0]
        assert ids == ("a", "b", "c")
        assert all(ids is not panel.columns(y)[0] for y in panel.years)

    def test_ids_are_not_interned(self):
        # an id that is no Python identifier is interned only if the
        # loader interns it
        panel = load_text(TWO_CROP_FILE.replace("wheat", "wheat (rabi) #1"))
        loaded = panel.columns(2005)[0][1]
        assert loaded == "wheat (rabi) #1"
        assert sys.intern("".join(["wheat (rabi)", " #1"])) is not loaded

    def test_duplicate_found_beyond_64_years(self):
        # 70 years: more keys than a 64-bit mask has bits, each with its
        # own flag byte per crop
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"c{c},{y},1,1,1\n" for y in range(1950, 2020) for c in range(3))
        panel = load_text(text)
        assert [row[:2] for row in crop_rows(panel)] == [
            (f"c{c}", y) for c in range(3) for y in range(1950, 2020)]
        for year in (2019, 1950):
            with pytest.raises(DuplicateKeyError,
                               match=rf"^crop panel: duplicate \(c1, {year}\) "
                                     rf"in row 212$"):
                load_text(text + f"c1,{year},2,2,2\n")
        columns = _Columns(range(1950, 2020))
        for year in range(1950, 2020):
            assert columns.add(year, "a", [1.0, 2.0, 3.0])
        assert not columns.add(2019, "a", [9.0, 9.0, 9.0])
        assert crop_rows(CropPanel(columns)) == crop_rows(crop_panel(
            ("a", y, 1.0, 2.0, 3.0) for y in range(1950, 2020)))

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
        panel = crop_panel(rows)
        assert crop_rows(load_text(crop_csv(panel))) == crop_rows(panel)

    @given(st.integers(min_value=2, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_share_closure(self, n_crops):
        # the same areas in each year of the triennium ending 2000
        panel = crop_panel((f"c{i}", year, float(i + 1) * 1.37, 1.0, 1.0)
                           for i in range(n_crops) for year in (1998, 1999, 2000))
        assert abs(sum(crop_shares(panel, 2000)[1]) - 100.0) <= 1e-10


class TestDecomposeTransientPeak:
    def test_memoised_decompose_allocates_little_per_crop(self):
        # the two periods' columns are merged by position: no per-crop dict,
        # tuple or union set
        panel = crop_panel(
            (f"crop{c:04d}", y, c + 1.5, y * 0.25, c + 7.5)
            for y in range(2000, 2008) for c in range(1000)
            if (c + y) % 5)    # each year misses a fifth of the crops
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = decompose(panel, 2002, 2007)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.base_label == "TE 2002"
        assert peak / 1000 < 16


# a folded value: signed zeros, the least subnormal, a double whose sum
# with itself overflows, and ordinary floats
FOLDED_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308]),
                          st.floats(0.0, 1e6))


def as_bytes(columns: tuple) -> tuple:
    """A tuple as ``columns`` returns it, each column as its bytes."""
    ids, *values = columns
    return ids, [column.tobytes() for column in values]


def as_columns(values: dict) -> tuple:
    """``{crop: (area, production, price)}`` as ``as_bytes`` gives the
    tuple ``columns`` would return for it."""
    return as_bytes((tuple(values), *(array("d", column)
                                      for column in zip(*values.values()))))


class TestFold:
    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_folded_load_equals_the_oracle_bit_for_bit(self, data):
        # 4 crops x 8 years, some (crop, year) rows absent, the trienniums
        # apart, overlapping or one; the rows in year blocks in a shuffled
        # block order (as perfbench/gen.py writes them), crop by crop, or
        # shuffled. Each triennium is the oracle's, each end year its rows,
        # compared as the arrays' bytes, or the refusal to give it is
        years = list(range(2000, 2008))
        rows = [(crop, year, *data.draw(st.tuples(*[FOLDED_VALUES] * 3)))
                for crop in "abcd" for year in years
                if data.draw(st.booleans())]
        order = data.draw(st.sampled_from(["year blocks", "crop-major",
                                           "shuffled"]))
        if order == "year blocks":
            blocks = data.draw(st.permutations(years))
            rows.sort(key=lambda row: blocks.index(row[1]))
        elif order == "shuffled":
            rows = data.draw(st.permutations(rows))
        ends = data.draw(st.sampled_from([(2002, 2007), (2004, 2005),
                                          (2005, 2005), (2001, 2007)]))
        if not rows:
            return
        text = "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
            f"{crop},{year},{a!r},{q!r},{p!r}\n"
            for crop, year, a, q, p in rows)
        folded = load_text(text, trienniums=ends)
        by_year = {year: {} for year in range(1999, 2008)}
        for crop, year, *values in rows:
            by_year[year][crop] = tuple(values)
        have = tuple(year for year, crops in by_year.items() if crops)
        assert folded.checked == (len(rows), len({row[0] for row in rows}),
                                  have)
        assert folded.years == tuple(y for y in have
                                     if any(0 <= e - y <= 2 for e in ends))

        def read(read_one, end):
            try:
                return as_bytes(read_one(folded, end))
            except CoverageError as exc:
                return str(exc)
        for end in ends:
            span = (end - 2, end - 1, end)
            missing = [y for y in span if y not in have]
            assert read(triennium_average, end) == (
                f"triennium ending {end} needs years {span}, missing "
                f"{missing}" if missing else
                as_columns(oracle_triennium(by_year, end)))
            assert read(CropPanel.columns, end) == (
                as_columns(dict(sorted(by_year[end].items())))
                if by_year[end] else
                f"year {end} not covered by panel (have {folded.years})")


class TestTriennium:
    def make_panel(self, by_year):
        return crop_panel((crop, year, *values)
                          for year, crops in by_year.items()
                          for crop, values in crops.items())

    def test_constant_panel_unchanged(self):
        values = {"paddy": (10.0, 25.0, 500.0)}
        panel = self.make_panel({y: values for y in (2004, 2005, 2006)})
        te = triennium_average(panel, 2006)
        assert crop_row(te, "paddy", 2006) == (10.0, 25.0, 500.0)

    def test_arithmetic_mean_of_areas(self):
        panel = self.make_panel({
            2004: {"paddy": (10.0, 10.0, 500.0)},
            2005: {"paddy": (20.0, 20.0, 500.0)},
            2006: {"paddy": (30.0, 30.0, 500.0)},
        })
        assert crop_row(triennium_average(panel, 2006), "paddy", 2006)[0] == 20.0

    def test_absent_years_count_as_zero(self):
        # oracle: (0 + 0 + 30) / 3 = 10 for area; price averaged over the
        # single year the crop was observed
        panel = self.make_panel({
            2004: {"wheat": (5.0, 5.0, 700.0)},
            2005: {"wheat": (5.0, 5.0, 700.0)},
            2006: {"wheat": (5.0, 5.0, 700.0), "maize": (30.0, 60.0, 550.0)},
        })
        te = triennium_average(panel, 2006)
        area, production, price = crop_row(te, "maize", 2006)
        assert area == pytest.approx(10.0)
        assert production == pytest.approx(20.0)
        assert price == 550.0

    @given(st.dictionaries(
        st.sampled_from(range(2003, 2008)),
        st.dictionaries(st.sampled_from(["gram", "maize", "paddy", "wheat"]),
                        st.tuples(*[FOLDED_VALUES] * 3), min_size=1),
        min_size=5,
    ))
    @settings(max_examples=50, deadline=None)
    def test_memoised_and_equal_to_oracle(self, by_year):
        panel = self.make_panel(by_year)
        for end_year in (2005, 2007, 2005):
            te = triennium_average(panel, end_year)
            assert triennium_average(panel, end_year) is te
            assert as_bytes(te) == as_columns(
                oracle_triennium(by_year, end_year))

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
        # a crop grown every year on a signed-zero area, whose total is
        # 0.0 from int 0, where -0.0 + -0.0 + -0.0 is -0.0
        {year: {"gram": (-0.0, -0.0, 1.0)} for year in (2004, 2005, 2006)},
        # prices whose chain rounds apart from a compensated sum()
        {year: {"paddy": (1.0, 1.0, price)}
         for year, price in zip((2004, 2005, 2006), (0.1, 0.2, 0.3))},
    ])
    def test_sparse_and_signed_zero_bits_equal_oracle(self, by_year):
        assert as_bytes(triennium_average(self.make_panel(by_year), 2006)) \
            == as_columns(oracle_triennium(by_year, 2006))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_shared_and_differing_id_sets_bits_equal_oracle(self, data):
        # each year grows the shared crop set or a set of its own
        crop_sets = st.sets(st.sampled_from(["gram", "maize", "okra",
                                             "paddy", "wheat"]), min_size=1)
        values = st.tuples(*[FOLDED_VALUES] * 3)
        shared = data.draw(crop_sets)
        by_year = {year: {crop: data.draw(values) for crop in sorted(
                       data.draw(st.one_of(st.just(shared), crop_sets)))}
                   for year in (2004, 2005, 2006)}
        assert as_bytes(triennium_average(self.make_panel(by_year), 2006)) \
            == as_columns(oracle_triennium(by_year, 2006))

    def test_columns_are_read_only_and_memoised(self):
        panel = self.make_panel({y: {"paddy": (1.0, 2.0, 3.0)}
                                 for y in (2004, 2005, 2006)})
        te = triennium_average(panel, 2006)
        for column in te[1:]:
            with pytest.raises(TypeError):
                column[0] = 9.0
        assert crop_row(te, "paddy", 2006) == (1.0, 2.0, 3.0)
        assert triennium_average(panel, 2006) is te

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
    def test_equal_id_tuples_are_shared(self):
        # each side reuses an earlier year's tuple when equal; the outputs
        # of 2002 come in another order, so they get their own
        text = IO_FILE + "".join(
            f"{year},{kind},{item},1,{share}\n" for year, items in (
                (2001, ("grain", "veg", "labour")),
                (2002, ("veg", "grain", "labour")),
                (2003, ("grain", "veg", "labour")))
            for item, kind, share in zip(items, (
                "output", "output", "input"), (0.5, 0.5, 1.0)))
        panel = load_io_panel(io.StringIO(text))
        outputs = [panel.columns(year, "output")[0] for year in panel.years]
        inputs = [panel.columns(year, "input")[0] for year in panel.years]
        assert outputs[0] is outputs[1]
        assert outputs[2] == ("veg", "grain") and outputs[2] is not outputs[1]
        assert inputs[0] is inputs[1] is inputs[2] == ("labour",)
        # and any earlier year's, across a year in another order
        assert outputs[3] is outputs[0] and inputs[3] is inputs[0]

    def test_ids_are_not_interned(self):
        text = IO_FILE.replace("veg", "veg (leafy) #2")
        loaded = load_io_panel(io.StringIO(text)).columns(2000, "output")[0][1]
        assert loaded == "veg (leafy) #2"
        assert sys.intern("".join(["veg (leafy)", " #2"])) is not loaded

    def test_exact_shares_accepted_unchanged(self):
        panel = load_io_panel(io.StringIO(IO_FILE))
        assert list(panel.columns(2000, "output")[2]) == [0.6, 0.4]

    def test_shares_inside_band_renormalized(self):
        text = IO_FILE.replace("0.6\n", "0.6005\n")
        panel = load_io_panel(io.StringIO(text))
        assert sum(panel.columns(2000, "output")[2]) == pytest.approx(
            1.0, abs=1e-12)

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

    def test_duplicate_found_beyond_64_keys(self):
        # 40 years x 2 sides: 80 keys, so the later keys' bits make the
        # masks big ints
        text = "year,kind,item_id,quantity,share\n" + "".join(
            f"{y},{kind},i{j},{j + 1},0.5\n" for y in range(1950, 1990)
            for kind in ("output", "input") for j in range(2))
        assert load_io_panel(io.StringIO(text)).years == \
            tuple(range(1950, 1990))
        for year, kind in ((1950, "output"), (1989, "input")):
            with pytest.raises(DuplicateKeyError,
                               match=rf"^io panel: duplicate {kind} 'i1' for "
                                     rf"{year} in row 162$"):
                load_io_panel(io.StringIO(text + f"{year},{kind},i1,1,0\n"))

    @pytest.mark.parametrize("present, missing", [
        ("output", "input"), ("input", "output")])
    def test_year_with_one_side_names_the_missing_side(self, present,
                                                      missing):
        text = IO_FILE + f"2001,{present},grain,100,1.0\n"
        with pytest.raises(NormalizationError,
                           match=rf"^io panel: {missing} shares for 2001 sum "
                                 rf"to 0, outside the renormalization band "
                                 rf"\(0\.999, 1\.001\)$"):
            load_io_panel(io.StringIO(text))

    def test_two_bad_sides_report_the_output_side(self):
        # the input side comes first in the file, the output side is
        # checked first
        text = ("year,kind,item_id,quantity,share\n"
                "2000,input,labour,10,0.5\n2000,output,grain,100,0.25\n")
        with pytest.raises(NormalizationError,
                           match=r"^io panel: output shares for 2000 sum to "
                                 r"0\.25, outside the renormalization band"):
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
        assert len(panel.columns(2019, "input")[0]) == 100
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
        # each side's items in file order
        columns = _Columns()
        for y, k, i, q, s in rows:
            columns.add((y, k), i, [q, s])
        built = InputOutputPanel(columns)
        loaded = load_io_panel(io.StringIO(text))
        assert io_rows(loaded) == io_rows(built)
        for year in years:
            for kind in ("output", "input"):
                ids, *values = loaded.columns(year, kind)
                want_ids, *want = built.columns(year, kind)
                assert ids == want_ids
                assert [[v.hex() for v in c] for c in values] == \
                    [[v.hex() for v in c] for c in want]
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
                "2001,67,18,100\n2000,68,18,100\n2002,66,18,100\n")
        records = load_land_use(io.StringIO(text))
        assert [r.year for r in records] == [2000, 2001, 2002]

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


# input kind -> (its loader, its header, a valid data row); a stream has no
# name, so each message starts with the kind alone
LOADERS = {
    "crop panel": (lambda s: load_crop_panel(s, trienniums=EVERY_YEAR),
                   "crop_id,year,area_ha,production_t,price_per_t",
                   "paddy,2005,100,250,500"),
    "io panel": (load_io_panel, "year,kind,item_id,quantity,share",
                 "2000,output,grain,100,1"),
    "price series": (load_price_table, "commodity_id,year,price_per_t",
                     "wheat,2002,700"),
    "land use": (load_land_use,
                 "year,agricultural_land,non_agricultural_land,total_reported",
                 "2000,68,18,100"),
    "value/cost series": (load_value_cost, "year,output_value,input_cost",
                          "2000,1500,1000"),
    "region area-share table": (
        lambda s: load_area_share_table(s, "region"),
        "crop_id,year,area_ha,production_t,price_per_t",
        "paddy,2005,100,250,500"),
}

# (input kind, its data rows, the error type, the message after the kind);
# each input has one fault
CELL_FAULTS = [
    ("crop panel", ["paddy,x,100,250,500"], SchemaError,
     "non-numeric value 'x' in column 'year', row 2"),
    ("crop panel", ["paddy,2005.0,100,250,500"], SchemaError,
     "non-numeric value '2005.0' in column 'year', row 2"),
    ("crop panel", ["paddy,2005,x,250,500"], SchemaError,
     "non-numeric value 'x' in column 'area_ha', row 2"),
    ("crop panel", ["paddy,2005,100,,500"], SchemaError,
     "non-numeric value '' in column 'production_t', row 2"),
    ("crop panel", ["paddy,2005,100,250,5 00"], SchemaError,
     "non-numeric value '5 00' in column 'price_per_t', row 2"),
    ("crop panel", ["paddy,2005,-1,250,500"], DomainError,
     "value -1.0 in column 'area_ha', row 2 must be finite and >= 0"),
    ("crop panel", ["paddy,2005,100,inf,500"], DomainError,
     "value inf in column 'production_t', row 2 must be finite and >= 0"),
    ("crop panel", ["paddy,2005,100,250,nan"], DomainError,
     "value nan in column 'price_per_t', row 2 must be finite and >= 0"),
    ("crop panel", [" ,2005,100,250,500"], SchemaError,
     "empty crop_id in row 2"),
    ("crop panel", ["paddy,2005,100,250,500", "paddy,2005,1,1,1"],
     DuplicateKeyError, "duplicate (paddy, 2005) in row 3"),
    ("io panel", ["x,output,grain,100,1"], SchemaError,
     "non-numeric value 'x' in column 'year', row 2"),
    ("io panel", ["2000,output,grain,x,1"], SchemaError,
     "non-numeric value 'x' in column 'quantity', row 2"),
    ("io panel", ["2000,output,grain,100,x"], SchemaError,
     "non-numeric value 'x' in column 'share', row 2"),
    ("io panel", ["2000,output,grain,-inf,1"], DomainError,
     "value -inf in column 'quantity', row 2 must be finite and >= 0"),
    ("io panel", ["2000,output,grain,100,-0.5"], DomainError,
     "value -0.5 in column 'share', row 2 must be finite and >= 0"),
    ("io panel", ["2000,output,,100,1"], SchemaError,
     "empty item_id in row 2"),
    ("io panel", ["2000,midput,grain,100,1"], SchemaError,
     "kind must be 'output' or 'input', got 'midput' in row 2"),
    ("io panel", ["2000,output,grain,100,1", "2000,output,grain,1,0"],
     DuplicateKeyError, "duplicate output 'grain' for 2000 in row 3"),
    ("price series", ["wheat,x,700"], SchemaError,
     "non-numeric value 'x' in column 'year', row 2"),
    ("price series", ["wheat,2002,x"], SchemaError,
     "non-numeric value 'x' in column 'price_per_t', row 2"),
    ("price series", ["wheat,2002,0"], DomainError,
     "value 0.0 in column 'price_per_t', row 2 must be finite and > 0"),
    ("price series", ["wheat,2002,inf"], DomainError,
     "value inf in column 'price_per_t', row 2 must be finite and > 0"),
    ("price series", [",2002,700"], SchemaError,
     "empty commodity_id in row 2"),
    ("price series", ["wheat,2002,700", "wheat,2002,710"],
     DuplicateKeyError, "duplicate (wheat, 2002) in row 3"),
    ("land use", ["x,68,18,100"], SchemaError,
     "non-numeric value 'x' in column 'year', row 2"),
    ("land use", ["2000,x,18,100"], SchemaError,
     "non-numeric value 'x' in column 'agricultural_land', row 2"),
    ("land use", ["2000,68,x,100"], SchemaError,
     "non-numeric value 'x' in column 'non_agricultural_land', row 2"),
    ("land use", ["2000,68,18,x"], SchemaError,
     "non-numeric value 'x' in column 'total_reported', row 2"),
    ("land use", ["2000,-68,18,100"], DomainError,
     "value -68.0 in column 'agricultural_land', row 2 must be finite "
     "and >= 0"),
    ("land use", ["2000,0,0,0"], DomainError,
     "value 0.0 in column 'total_reported', row 2 must be finite and > 0"),
    ("land use", ["2000,68,18,100", "2000,68,18,100"], DuplicateKeyError,
     "duplicate year 2000 in row 3"),
    ("land use", ["2000,68,48,100"], DataInconsistencyError,
     "land components in 2000 exceed total reported area (116.0 > 100.0) "
     "in row 2"),
    ("land use", ["2001,68,18,100", "2000,68,18,100"], CoverageError,
     "triennium ending 2002 is missing years [2002] (year 2000 is in row 3)"),
    ("land use", ["2000,68,18,100", "2001,68,18,100", "2002,68,18,100",
                  "2005,68,18,100"], CoverageError,
     "triennium ending 2005 is missing years [2003, 2004] (year 2005 is in "
     "row 5)"),
    ("value/cost series", ["x,1500,1000"], SchemaError,
     "non-numeric value 'x' in column 'year', row 2"),
    ("value/cost series", ["2000,x,1000"], SchemaError,
     "non-numeric value 'x' in column 'output_value', row 2"),
    ("value/cost series", ["2000,1500,x"], SchemaError,
     "non-numeric value 'x' in column 'input_cost', row 2"),
    ("value/cost series", ["2000,1500,-1e400"], DomainError,
     "value -inf in column 'input_cost', row 2 must be finite and > 0"),
    ("value/cost series", ["2000,1500,0"], DomainError,
     "value 0.0 in column 'input_cost', row 2 must be finite and > 0"),
    ("value/cost series", ["2000,1500,1000", "2000,1,1"], DuplicateKeyError,
     "duplicate year 2000 in row 3"),
    ("region area-share table", ["paddy,2005,100,250,500",
                                 "wheat,2006,50,90,700"], DuplicateKeyError,
     "must cover exactly one year, got 2006 in row 3 after 2005"),
    ("region area-share table", ["paddy,2005,100,250,500", "paddy,2005,1,1,1"],
     DuplicateKeyError, "duplicate (paddy, 2005) in row 3"),
    ("region area-share table", ["paddy,2005,0,250,500", "wheat,2005,0,0,0"],
     DomainError, "region table for 2005 has no area"),
    ("region area-share table", ["paddy,2005,1.7e308,0,0",
                                 "wheat,2005,1.7e308,0,0"], DomainError,
     "region table for 2005 has an infinite total area"),
]

# whole-file fault -> (the input text, the message after the kind), each
# made from a loader's header and valid row
FILE_FAULTS = {
    "bad header": (lambda header, row: f"nonsense\n{row}\n",
                   lambda header: f"bad header ['nonsense'], expected "
                                  f"{header.split(',')!r}"),
    "blank first line": (lambda header, row: f"\n{header}\n{row}\n",
                         lambda header: f"bad header [], expected "
                                        f"{header.split(',')!r}"),
    "wrong width": (lambda header, row: f"{header}\n{row},1\n",
                    lambda header: f"row 2 has {header.count(',') + 2} "
                                   f"columns, expected "
                                   f"{header.count(',') + 1}"),
    "empty file": (lambda header, row: "",
                   lambda header: f"empty file, expected header {header}"),
    "header only": (lambda header, row: f"{header}\n",
                    lambda header: "header but no data rows"),
}


def assert_loader_message(kind, rows, error, message):
    """Loading ROWS under the header of KIND raises exactly ERROR, with
    MESSAGE after the kind."""
    load, header, _ = LOADERS[kind]
    text = "".join(f"{line}\n" for line in (header, *rows))
    with pytest.raises(error) as caught:
        load(io.StringIO(text))
    assert type(caught.value) is error
    assert str(caught.value) == f"{kind}: {message}"


class TestLoaderMessages:
    """Every loader message, in full, each from an input with one fault."""

    @pytest.mark.parametrize("kind, rows, error, message", CELL_FAULTS)
    def test_cell_and_row_faults(self, kind, rows, error, message):
        assert_loader_message(kind, rows, error, message)

    @pytest.mark.parametrize("fault", list(FILE_FAULTS))
    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_file_faults(self, kind, fault):
        load, header, row = LOADERS[kind]
        text, message = FILE_FAULTS[fault]
        with pytest.raises(SchemaError) as caught:
            load(io.StringIO(text(header, row)))
        assert type(caught.value) is SchemaError
        assert str(caught.value) == f"{kind}: {message(header)}"

    @pytest.mark.parametrize("kind", list(LOADERS))
    def test_non_utf8_bytes_name_the_file(self, tmp_path, kind):
        load, header, row = LOADERS[kind]
        path = tmp_path / "input.csv"
        path.write_bytes(f"{header}\n{row}\n".encode() + b"\xff\n")
        with pytest.raises(SchemaError) as caught:
            load(path)
        assert type(caught.value) is SchemaError
        assert str(caught.value) == \
            f"{kind} {path}: not UTF-8 text (invalid start byte)"

    def test_the_file_is_named_after_the_kind(self, tmp_path):
        path = tmp_path / "crops.csv"
        path.write_text("crop_id,year,area_ha,production_t,price_per_t\n"
                        "paddy,x,1,1,1\n")
        with pytest.raises(SchemaError) as caught:
            load_crop_panel(path, trienniums=EVERY_YEAR)
        assert str(caught.value) == (
            f"crop panel {path}: non-numeric value 'x' in column 'year', "
            f"row 2")

    # of two faults in one row, the cells are decoded left to right first,
    # then the row's own checks run: the first four cases changed to this
    # order from one where the duplicate year or the kind came first
    @pytest.mark.parametrize("kind, rows, error, message", [
        ("land use", ["2000,68,18,100", "2000,-1,18,100"], DomainError,
         "value -1.0 in column 'agricultural_land', row 3 must be finite "
         "and >= 0"),
        ("value/cost series", ["2000,1500,1000", "2000,nan,1"], DomainError,
         "value nan in column 'output_value', row 3 must be finite and >= 0"),
        ("io panel", ["2000,midput,grain,x,1"], SchemaError,
         "non-numeric value 'x' in column 'quantity', row 2"),
        ("io panel", ["2000,midput,,100,1"], SchemaError,
         "empty item_id in row 2"),
        ("crop panel", [",x,100,250,500"], SchemaError,
         "empty crop_id in row 2"),
        ("crop panel", ["paddy,2005,1,1,1", "paddy,2005,1,-1,1"], DomainError,
         "value -1.0 in column 'production_t', row 3 must be finite "
         "and >= 0"),
        ("price series", ["wheat,2002,700", "wheat,2002,0"], DomainError,
         "value 0.0 in column 'price_per_t', row 3 must be finite and > 0"),
    ])
    def test_of_two_faults_the_cells_come_first(self, kind, rows, error,
                                               message):
        assert_loader_message(kind, rows, error, message)

    def test_a_second_area_year_is_named_before_a_later_bad_cell(self):
        assert_loader_message(
            "region area-share table", ["paddy,2005,100,250,500",
                                        "wheat,2006,50,90,700",
                                        "maize,2005,-1,0,0"],
            DuplicateKeyError,
            "must cover exactly one year, got 2006 in row 3 after 2005")

    def test_a_field_over_the_csv_limit_names_the_row(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("commodity_id,year,price_per_t\nwheat,2002,700\n"
                        f"{'w' * (csv.field_size_limit() + 1)},2003,700\n")
        with pytest.raises(SchemaError) as caught:
            load_price_table(path)
        assert str(caught.value) == (
            f"price series {path}: row 3 is not valid CSV: field larger "
            f"than field limit ({csv.field_size_limit()})")

    def test_a_header_over_the_csv_limit_names_row_1(self):
        text = f"{'c' * (csv.field_size_limit() + 1)}\n"
        with pytest.raises(SchemaError) as caught:
            load_value_cost(io.StringIO(text))
        assert str(caught.value).startswith(
            "value/cost series: row 1 is not valid CSV: ")
