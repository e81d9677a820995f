"""Closed-form input generators for the benchmark workloads.

``write_scaled_inputs(directory, seed)`` writes a run config plus every
input file at the 10^5-row scale: a crop panel of 6,000 crops x 17 years,
an io panel of 100 items per side x 100 years, 200 extra price
commodities (all of them break commodities) and 500 comparative-advantage
groups. ``write_tree`` writes the builtin tree plus one diamond-shaped
chain, and ``write_indicators`` an indicator set that the tree can read.

There is no random number generator. The seed enters only through integer
hashing: it orders each file's year blocks, picks the row each block
starts at, and scales each value by a factor within +/- 5%, so one seed
always gives the same bytes and every seed keeps the inputs valid
(positive areas, prices and quantities, shares summing to one, no zero io
quantity, the commodities the config names present on both sides of the
break).

Rows stay grouped by year, as yearly tables are concatenated. A fully
shuffled crop panel makes the report about 2.5x slower, because
``CropPanel.observations`` sorts every key on each call and sorting a
random order costs far more than merging 34 sorted runs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

CROP_HEADER = ["crop_id", "year", "area_ha", "production_t", "price_per_t"]
YEARS = tuple(range(2000, 2017))          # crop panel, land use, value/cost
IO_YEARS = tuple(range(1917, 2017))       # 100 contiguous io-panel years
PRICE_YEARS = tuple(range(2002, 2017))    # 5 years before the break, 10 after
BREAK_YEAR = 2007
CAI_YEAR = 2015

N_CROPS = 6000
N_IO_ITEMS = 100
N_EXTRA_COMMODITIES = 200
N_CAI_GROUPS = 500
DIAMOND_LEVELS = 18

# Crops the config names; the rest are numbered.
NAMED_CROPS = ("horticulture", "maize", "paddy", "pulses", "wheat")
NAMED_COMMODITIES = ("maize", "paddy", "wheat")


def _mix(seed: int, *keys: int) -> int:
    """A 32-bit integer hash of the seed and keys (a multiply-xorshift mix)."""
    h = seed * 0x9E3779B1
    for k in keys:
        h = ((h ^ k) * 0x85EBCA77 + 0x165667B1) & 0xFFFFFFFF
        h ^= h >> 15
    return (h * 0xC2B2AE3D & 0xFFFFFFFF) ^ (h >> 13)


def _jitter(seed: int, *keys: int) -> float:
    """A factor in [0.95, 1.05) fixed by the seed and keys."""
    return 0.95 + 0.1 * (_mix(seed, *keys) / 2**32)


def _jitters(seed: int, *keys: int) -> tuple[float, float, float]:
    """Three factors in [0.95, 1.05) from one hash, 10 bits each."""
    h = _mix(seed, *keys)
    return tuple(0.95 + 0.1 * (((h >> s) & 1023) + 0.5) / 1024
                 for s in (0, 10, 20))


def _permuted(rows: list, seed: int, salt: int, year_col: int) -> list:
    """The rows grouped by year, as in yearly statistical tables; the seed
    orders the year blocks and picks the row each block starts at."""
    blocks: dict[int, list] = {}
    for row in rows:
        blocks.setdefault(row[year_col], []).append(row)
    out = []
    for year in sorted(blocks, key=lambda y: (_mix(seed, salt, y), y)):
        block = blocks[year]
        start = _mix(seed, salt, year, 1) % len(block)
        out.extend(block[start:] + block[:start])
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def crop_rows(seed: int) -> list[tuple]:
    crops = list(NAMED_CROPS) + [f"crop{i:05d}"
                                 for i in range(N_CROPS - len(NAMED_CROPS))]
    rows = []
    for c, crop in enumerate(crops):
        area0 = 200.0 + 50.0 * (c % 97)
        yield0 = 1.0 + 0.03 * (c % 53)
        price0 = 300.0 + 7.0 * (c % 211)
        for t, year in enumerate(YEARS):
            ja, jy, jp = _jitters(seed, 1, c, t)
            area = area0 * (1.0 + 0.004 * t * ((c % 7) - 3)) * ja
            yld = yield0 * math.exp(0.02 * t) * jy
            price = price0 * math.exp(0.05 * t) * jp
            rows.append((crop, year, area, area * yld, price))
    return rows


def io_rows(seed: int) -> list[tuple]:
    rows = []
    for kind, side in (("output", 0), ("input", 1)):
        weights = [_jitter(seed, 4, side, i) for i in range(N_IO_ITEMS)]
        total = sum(weights)
        shares = [w / total for w in weights]
        for i in range(N_IO_ITEMS):
            q0 = 100.0 + i
            growth = 0.01 + 0.0002 * i + 0.005 * side
            for t, year in enumerate(IO_YEARS):
                q = q0 * math.exp(growth * t) * _jitter(seed, 5, side, i, t)
                rows.append((year, kind, f"{kind[:3]}{i:03d}", q, shares[i]))
    return rows


def price_rows(seed: int) -> list[tuple]:
    commodities = list(NAMED_COMMODITIES) + [
        f"com{i:03d}" for i in range(N_EXTRA_COMMODITIES)]
    rows = []
    wheat = {}
    for k, commodity in enumerate(commodities):
        for t, year in enumerate(PRICE_YEARS):
            price = (400.0 + 3.0 * k) * math.exp(0.04 * t) * _jitter(seed, 6, k, t)
            rows.append((commodity, year, price))
            if commodity == "wheat":
                wheat[year] = price
    # fertiliser stays below grain, so the grain/fertiliser ratio exceeds one
    rows.extend(("urea", year, 0.7 * wheat[year] * _jitter(seed, 7, year))
                for year in PRICE_YEARS)
    return rows


def land_rows(seed: int) -> list[tuple]:
    rows = []
    for t, year in enumerate(YEARS):
        total = 9360.0 * _jitter(seed, 8, t)
        ratio = 0.68 - 0.001 * t
        rows.append((year, ratio * total, 0.18 * total, total))
    return rows


def value_cost_rows(seed: int) -> list[tuple]:
    rows = []
    for t, year in enumerate(YEARS):
        cost = 2000.0 * 1.05 ** t
        rows.append((year, 1.3 * cost * _jitter(seed, 9, t), cost))
    return rows


def area_rows(seed: int) -> tuple[list[tuple], list[tuple]]:
    region, nation = [], []
    for g in range(N_CAI_GROUPS):
        group = f"group{g:03d}"
        nation.append((group, CAI_YEAR, 10000.0 * (1 + g % 17) * _jitter(seed, 10, g),
                       0.0, 0.0))
        region.append((group, CAI_YEAR, 900.0 * (1 + g % 23) * _jitter(seed, 11, g),
                       0.0, 0.0))
    return region, nation


def run_config() -> dict:
    """The run config for the scaled files, with paths next to it."""
    commodities = sorted(list(NAMED_COMMODITIES) + [
        f"com{i:03d}" for i in range(N_EXTRA_COMMODITIES)])
    return {
        "inputs": {
            "crop_panel": "crops.csv",
            "io_panel": "io_panel.csv",
            "price_series": ["prices.csv"],
            "land_use": "land_use.csv",
            "cost_series": "value_cost.csv",
            "area_shares_region": "area_region.csv",
            "area_shares_nation": "area_nation.csv",
        },
        "periods": {
            "pre_road_map": [2001, 2007],
            "first_road_map": [2008, 2011],
            "second_road_map": [2012, 2016],
            "overall": [IO_YEARS[0], IO_YEARS[-1]],
        },
        "decomposition": {"base_year": 2002, "terminal_year": 2016},
        "break_year": BREAK_YEAR,
        "break_commodities": commodities,
        "grain_commodity": "wheat",
        "fertilizer_commodity": "urea",
        "diversification_group": "horticulture",
        "benchmarks": {"national_tfp_growth_pct": 1.6},
        "tree": "builtin",
        "output_dir": "out",
        "methods": {"growth_method": "loglinear", "cv_ddof": 1,
                    "period_mode": "triennium"},
    }


def write_scaled_inputs(directory: Path, seed: int) -> None:
    """Write the scaled input set and ``config.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    region, nation = area_rows(seed)
    files = {   # name: (header, rows, index of the year column)
        "crops.csv": (CROP_HEADER, crop_rows(seed), 1),
        "io_panel.csv": (["year", "kind", "item_id", "quantity", "share"],
                         io_rows(seed), 0),
        "prices.csv": (["commodity_id", "year", "price_per_t"],
                       price_rows(seed), 1),
        "land_use.csv": (["year", "agricultural_land",
                          "non_agricultural_land", "total_reported"],
                         land_rows(seed), 0),
        "value_cost.csv": (["year", "output_value", "input_cost"],
                           value_cost_rows(seed), 0),
        "area_region.csv": (CROP_HEADER, region, 1),
        "area_nation.csv": (CROP_HEADER, nation, 1),
    }
    for salt, (name, (header, rows, year_col)) in enumerate(sorted(files.items())):
        _write_csv(directory / name, header, _permuted(rows, seed, salt, year_col))
    (directory / "config.json").write_text(
        json.dumps(run_config(), indent=2) + "\n", encoding="utf-8")


def _diamond_nodes(levels: int) -> dict:
    """A chain whose every level has two nodes, each pointing at both
    nodes of the next level: 1 + 2 * levels nodes and 2**levels paths."""
    nodes = {}

    def target(level: int, side: str) -> dict:
        if level > levels:
            return {"verdict": "binding" if side == "a" else "not_binding"}
        return {"node": f"diamond_{level:02d}{side}"}

    def node(level: int) -> dict:
        return {
            "question": f"diamond level {level}",
            "predicate": {"indicator": "diamond_signal", "comparator": ">",
                          "threshold": float(level % 3)},
            "on_true": target(level + 1, "a"),
            "on_false": target(level + 1, "b"),
        }

    nodes["diamond_root"] = dict(node(0), constraint_label="diamond")
    for level in range(1, levels + 1):
        for side in "ab":
            nodes[f"diamond_{level:02d}{side}"] = node(level)
    return nodes


def write_tree(path: Path, tree: dict, levels: int = DIAMOND_LEVELS) -> None:
    """Add a diamond chain to ``tree`` (the builtin tree's JSON) and write it."""
    tree["manifest"]["diamond_signal"] = "score"
    tree["roots"].append("diamond_root")
    tree["nodes"].update(_diamond_nodes(levels))
    path.write_text(json.dumps(tree, indent=2) + "\n", encoding="utf-8")


def write_indicators(path: Path, manifest: dict, seed: int) -> None:
    """Write an indicators.json with a scalar for every manifest entry."""
    indicators = {
        name: {"value": round(_jitter(seed, 12, i) - 0.5, 6), "units": units,
               "provenance": "benchmark generator"}
        for i, (name, units) in enumerate(sorted(manifest.items()))
    }
    indicators["diamond_signal"]["value"] = 1.5 + (seed % 3)
    path.write_text(json.dumps(indicators, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
