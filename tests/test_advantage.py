import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrodiag.advantage import (
    AreaShareTable,
    cai,
    cai_table,
    load_area_share_table,
)
from agrodiag.errors import (
    DomainError,
    DuplicateKeyError,
    GroupNotFoundError,
    UndefinedIndexError,
)


def table(scope, **entries):
    return AreaShareTable(scope=scope, year=2015,
                          entries={k: float(v) for k, v in entries.items()})


class TestCai:
    def test_proportional_composition_gives_one(self):
        region = table("region", veg=30.0, fruit=70.0)
        nation = table("nation", veg=300.0, fruit=700.0)
        for group in ("veg", "fruit"):
            assert cai(region, nation, group) == pytest.approx(1.0, rel=1e-12)

    def test_hand_computed_example(self):
        # (30/100) / (150/1000) = 2.0
        region = table("region", veg=30.0, fruit=70.0)
        nation = table("nation", veg=150.0, fruit=850.0)
        assert cai(region, nation, "veg") == pytest.approx(2.0, rel=1e-12)

    def test_value_embedded_by_construction(self):
        # region share 18.2% against national share 10% -> index 1.82
        region = table("region", veg=182.0, other=818.0)
        nation = table("nation", veg=100.0, other=900.0)
        assert cai(region, nation, "veg") == pytest.approx(1.82, rel=1e-9)

    def test_zero_regional_area_scores_zero(self):
        region = table("region", veg=0.0, fruit=100.0)
        nation = table("nation", veg=100.0, fruit=900.0)
        assert cai(region, nation, "veg") == 0.0

    def test_zero_national_share_undefined(self):
        region = table("region", veg=10.0, fruit=90.0)
        nation = table("nation", veg=0.0, fruit=900.0)
        with pytest.raises(UndefinedIndexError):
            cai(region, nation, "veg")

    def test_absent_group_is_lookup_error(self):
        region = table("region", veg=10.0)
        nation = table("nation", veg=10.0)
        with pytest.raises(GroupNotFoundError):
            cai(region, nation, "flowers")

    def test_degenerate_region(self):
        # a region growing only one group scores 1 / national share for it
        region = table("region", veg=55.0)
        nation = table("nation", veg=200.0, fruit=800.0)
        assert cai(region, nation, "veg") == pytest.approx(1.0 / 0.2, rel=1e-12)

    @pytest.mark.parametrize("areas, message", [
        ({"veg": 1.7e308, "fruit": 1.7e308}, "an infinite total area"),
        ({"veg": 0.0}, "no area"),
    ])
    def test_total_neither_positive_nor_finite_is_domain_error(
            self, areas, message):
        with pytest.raises(DomainError,
                           match=f"^nation table for 2015 has {message}$"):
            table("nation", **areas)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, k, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        groups = {f"g{i}": float(rng.uniform(0.5, 100.0)) for i in range(4)}
        nation_groups = {g: float(rng.uniform(0.5, 100.0)) for g in groups}
        region = table("region", **groups)
        nation = table("nation", **nation_groups)
        scaled_region = table("region", **{g: k * v for g, v in groups.items()})
        scaled_nation = table("nation",
                              **{g: k * v for g, v in nation_groups.items()})
        for group in groups:
            base = cai(region, nation, group)
            assert cai(scaled_region, nation, group) == pytest.approx(
                base, rel=1e-9)
            assert cai(region, scaled_nation, group) == pytest.approx(
                base, rel=1e-9)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_weighted_mean_is_one(self, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        groups = [f"g{i}" for i in range(int(rng.integers(2, 7)))]
        region = table("region", **{g: float(rng.uniform(0.5, 50)) for g in groups})
        nation = table("nation", **{g: float(rng.uniform(0.5, 50)) for g in groups})
        weighted = sum(nation.share(g) * cai(region, nation, g) for g in groups)
        assert abs(weighted - 1.0) <= 1e-9


class TestTables:
    def test_cai_table_sorted(self):
        region = table("region", veg=30.0, fruit=70.0)
        nation = table("nation", veg=150.0, fruit=850.0)
        values = cai_table(region, nation)
        assert list(values) == ["fruit", "veg"]

    def test_total_summed_once(self, monkeypatch):
        # each table's total is taken once, at construction, so a table of
        # n groups costs n additions, not n per share
        entries = {f"g{i:03d}": 1.0 + i / 7 for i in range(500)}
        region = AreaShareTable("region", 2015, entries)
        nation = AreaShareTable("nation", 2015,
                                {g: 2.0 * a + 1 for g, a in entries.items()})
        assert region.total == sum(region.entries.values())
        calls = []
        monkeypatch.setattr("builtins.sum",
                            lambda *args: calls.append(args) or 0.0)
        values = cai_table(region, nation)
        monkeypatch.undo()
        assert calls == []
        for group, value in values.items():
            want = (region.entries[group] / sum(region.entries.values())) / (
                nation.entries[group] / sum(nation.entries.values()))
            assert value.hex() == want.hex()

    def test_loader_rejects_multi_year_files(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "veg,2014,10,0,0\nveg,2015,10,0,0\n")
        with pytest.raises(DuplicateKeyError):
            load_area_share_table(io.StringIO(text), "region")

    def test_loader_single_year(self):
        text = ("crop_id,year,area_ha,production_t,price_per_t\n"
                "veg,2015,30,0,0\nfruit,2015,70,0,0\n")
        t = load_area_share_table(io.StringIO(text), "region")
        assert t.year == 2015
        assert t.groups == ("fruit", "veg")
        assert t.share("veg") == pytest.approx(0.3)
