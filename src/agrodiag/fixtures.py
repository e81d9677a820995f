"""Deterministic synthetic dataset shaped like the Bihar crop sector.

No real government extracts ship with the package, so demos, tests and the
CLI walkthrough use this generator instead. It embeds the case study's
headline indicator levels by construction (price volatility rising across
the 2007 market break, productivity growth of about 1.71 percent a year, a
comparative-advantage index of 1.72 for vegetables at a small horticulture
area share, stable land ratios), which makes the shipped diagnosis land on
agricultural markets and crop diversification as the binding constraints.

Everything here is closed-form; there is no random number generator and
two calls always produce identical files.
"""
from __future__ import annotations

import math
from pathlib import Path

from .serialize import json_text

YEARS = tuple(range(2000, 2017))          # crop panel, land use, value/cost
IO_YEARS = tuple(range(2000, 2016))       # 16-year input-output panel
PRICE_YEARS = tuple(range(2002, 2017))    # price series around the break
BREAK_YEAR = 2007

# Planted yearly log change of total factor productivity: e**0.01696 - 1
# is about 1.71 percent per year.
TFP_LOG_GROWTH = 0.01696

# commodity -> (mean, cv%) for the before (2002-06) and after (2007-16)
# price windows; the generator reproduces these moments exactly.
PRICE_MOMENTS = {
    "paddy": ((511.0, 11.0), (1154.0, 27.7)),
    "wheat": ((771.0, 12.2), (1279.0, 14.1)),
    "maize": ((600.0, 11.2), (1084.0, 24.9)),
}

# crop -> (share% start/end, yield t/ha start/end, price per t start/end)
CROP_TRAJECTORIES = {
    "paddy": ((45.3, 43.0), (1.5, 2.4), (500.0, 1200.0)),
    "wheat": ((26.5, 27.8), (1.9, 2.8), (700.0, 1300.0)),
    "maize": ((7.6, 9.3), (2.2, 3.8), (550.0, 1100.0)),
    "pulses": ((8.8, 6.8), (0.8, 1.0), (1500.0, 4000.0)),
    "oilseeds": ((1.8, 1.5), (0.9, 1.2), (1300.0, 3500.0)),
    "jute": ((1.8, 1.2), (1.6, 2.2), (800.0, 2500.0)),
    "sugarcane": ((1.3, 3.2), (45.0, 55.0), (80.0, 280.0)),
    "potato": ((1.5, 0.8), (15.0, 22.0), (300.0, 600.0)),
    "horticulture": ((5.2, 6.2), (12.0, 16.0), (700.0, 1500.0)),
    "others": ((0.2, 0.2), (1.0, 1.1), (900.0, 2000.0)),
}
TOTAL_AREA_KHA = (7900.0, 7500.0)  # gross cropped area drifts down slightly

# Target comparative-advantage index per horticultural group; the national
# share composition below is solved so regional shares also sum to one.
CAI_TARGETS = {
    "fruits": 1.01,
    "vegetables": 1.72,
    "flowers": 0.08,
    "aromatic_medicinal": 0.01,
    "spices": 0.10,
}
CAI_YEAR = 2015
NATIONAL_TFP_GROWTH_PCT = 1.60


def _lerp(a: float, b: float, frac: float) -> float:
    return a + (b - a) * frac


def _geom(a: float, b: float, frac: float) -> float:
    return a * (b / a) ** frac


def crop_panel_rows() -> list[tuple[str, int, float, float, float]]:
    """``(crop_id, year, area_ha, production_t, price_per_t)`` rows."""
    rows = []
    span = YEARS[-1] - YEARS[0]
    for year in YEARS:
        frac = (year - YEARS[0]) / span
        total = _lerp(*TOTAL_AREA_KHA, frac) * 1000.0
        for crop, (shares, yields, prices) in CROP_TRAJECTORIES.items():
            area = _lerp(*shares, frac) / 100.0 * total
            yld = _geom(*yields, frac)
            price = _geom(*prices, frac)
            rows.append((crop, year, area, area * yld, price))
    return rows


def io_panel_rows() -> list[tuple[int, str, str, float, float]]:
    """``(year, kind, item_id, quantity, share)`` rows.

    Output and input quantities follow fixed exponential paths whose
    share-weighted log growth difference equals ``TFP_LOG_GROWTH`` in
    every single year.
    """
    inputs = {"labour": (0.5, 500.0, 0.002),
              "fertiliser": (0.3, 300.0, 0.015),
              "machinery": (0.2, 200.0, 0.010)}
    input_growth = sum(share * g for share, _, g in inputs.values())
    output_growth = TFP_LOG_GROWTH + input_growth
    grain_share, grain_g = 0.6, 0.030
    hort_share = 0.4
    hort_g = (output_growth - grain_share * grain_g) / hort_share
    outputs = {"grain": (grain_share, 1000.0, grain_g),
               "horticulture": (hort_share, 400.0, hort_g)}
    rows = []
    for year in IO_YEARS:
        t = year - IO_YEARS[0]
        for item, (share, q0, g) in outputs.items():
            rows.append((year, "output", item, q0 * math.exp(g * t), share))
        for item, (share, q0, g) in inputs.items():
            rows.append((year, "input", item, q0 * math.exp(g * t), share))
    return rows


def _window_values(years: list[int], mean: float, cv_pct: float) -> list[float]:
    """Values over ``years`` with exactly this mean and sample CV.

    A zero-mean integer pattern is scaled to the target standard deviation
    and shifted to the target mean; a fixed permutation keeps the series
    from looking like a straight ramp.
    """
    n = len(years)
    centered = [i - (n - 1) / 2.0 for i in range(n)]
    order = [(i * 7) % n for i in range(n)]  # 7 is coprime to 5 and 10
    pattern = [centered[k] for k in order]
    sd_pattern = math.sqrt(sum(p * p for p in pattern) / (n - 1))
    scale = mean * cv_pct / 100.0 / sd_pattern
    return [mean + scale * p for p in pattern]


def price_rows() -> list[tuple[str, int, float]]:
    """``(commodity_id, year, price_per_t)`` rows incl. the urea series."""
    before = [y for y in PRICE_YEARS if y < BREAK_YEAR]
    after = [y for y in PRICE_YEARS if y >= BREAK_YEAR]
    rows = []
    wheat_by_year: dict[int, float] = {}
    for commodity, (m_before, m_after) in sorted(PRICE_MOMENTS.items()):
        values = (_window_values(before, *m_before)
                  + _window_values(after, *m_after))
        for year, price in zip(before + after, values):
            rows.append((commodity, year, price))
            if commodity == "wheat":
                wheat_by_year[year] = price
    # fertiliser tracks grain from below, so the grain/fertiliser ratio
    # stays above one throughout
    for year in PRICE_YEARS:
        rows.append(("urea", year, 0.7 * wheat_by_year[year] + 30.0))
    return sorted(rows)


def land_use_rows() -> list[tuple[int, float, float, float]]:
    rows = []
    for year in YEARS:
        total = 9360.0
        al_ratio = 0.681 - 0.00075 * (year - YEARS[0])
        rows.append((year, al_ratio * total, 0.18 * total, total))
    return rows


def value_cost_rows() -> list[tuple[int, float, float]]:
    """Output value and input cost whose ratio rises to 2007 then eases."""
    rows = []
    for year in YEARS:
        t = year - YEARS[0]
        cost = 2000.0 * 1.05 ** t
        if year <= 2007:
            ratio = _lerp(1.10, 1.45, t / 7.0)
        else:
            ratio = _lerp(1.45, 1.22, (year - 2007) / 9.0)
        rows.append((year, ratio * cost, cost))
    return rows


def area_table_rows() -> tuple[list, list]:
    """Region and nation ``(group, year, area)`` rows hitting CAI_TARGETS.

    Two of the national shares are solved from the constraints that both
    share vectors sum to one, i.e. the national-share-weighted mean of the
    index targets must be one.
    """
    free = {"fruits": 0.45, "flowers": 0.06, "aromatic_medicinal": 0.03}
    rest = 1.0 - sum(free.values())
    hit = 1.0 - sum(CAI_TARGETS[g] * s for g, s in free.items())
    c_veg, c_spices = CAI_TARGETS["vegetables"], CAI_TARGETS["spices"]
    veg = (hit - c_spices * rest) / (c_veg - c_spices)
    nation_shares = dict(free, vegetables=veg, spices=rest - veg)
    nation_total, region_total = 10_000_000.0, 900_000.0
    region, nation = [], []
    for group in sorted(CAI_TARGETS):
        nation.append((group, CAI_YEAR, nation_shares[group] * nation_total))
        region.append((group, CAI_YEAR,
                       CAI_TARGETS[group] * nation_shares[group] * region_total))
    return region, nation


def bihar_reference_indicators() -> dict:
    """The case study's headline values as an indicator set, in
    ``indicators.json``'s form, each with the units a report assembles it
    with.

    These are the numbers the shipped tree is meant to be read against:
    productivity growth 1.71 vs a national 1.60 percent, price CVs rising
    for all three tracked grains across the 2007 break, a top
    comparative-advantage index of 1.72 against a horticulture area share
    of 6.2 percent, and value/cost and grain/fertiliser ratios above one.
    """
    cv_pairs = {c: (b[1], a[1]) for c, (b, a) in PRICE_MOMENTS.items()}
    rising = sum(1 for b, a in cv_pairs.values() if a > b) / len(cv_pairs)
    entries = {
        "agricultural_land_ratio_change": (
            0.67 - 0.68, "land_use_ratios, first vs last triennium"),
        "tfp_growth_gap_pp": (
            1.71 - NATIONAL_TFP_GROWTH_PCT,
            "avg_annual_growth(tfp) minus national benchmark"),
        "price_cv_rising_share": (rising,
                                  "break_analysis over paddy, wheat, maize"),
        "cai_max": (CAI_TARGETS["vegetables"], "max comparative-advantage "
                    "index over horticultural groups"),
        "high_advantage_area_share_pct": (
            6.2, "share_table at terminal triennium, horticulture row"),
        "value_cost_ratio_terminal": (1.22, "value_cost_ratio, terminal year"),
        "grain_fertilizer_price_ratio_terminal": (
            1.38, "price_ratio wheat/urea, terminal year"),
    }
    for commodity, pair in cv_pairs.items():
        for when, cv in zip(("before", "after"), pair):
            entries[f"price_cv_{when}_{commodity}"] = (cv, "break_analysis")
    from .diagnostics import builtin_bihar_tree

    # the units of the scalars the shipped tree reads; the rest, the price
    # CVs, are in percent
    units = builtin_bihar_tree().manifest
    return {name: {"value": value, "units": units.get(name, "percent"),
                   "provenance": provenance}
            for name, (value, provenance) in sorted(entries.items())}


def run_config() -> dict:
    """The RunConfig for the generated files, each path a bare file name:
    the CLI resolves it relative to wherever the config file lives."""
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
            "overall": [2001, 2016],
        },
        "decomposition": {"base_year": 2002, "terminal_year": 2016},
        "break_year": BREAK_YEAR,
        "break_commodities": sorted(PRICE_MOMENTS),
        "grain_commodity": "wheat",
        "fertilizer_commodity": "urea",
        "diversification_group": "horticulture",
        "benchmarks": {"national_tfp_growth_pct": NATIONAL_TFP_GROWTH_PCT},
        "tree": "builtin",
        "output_dir": "out",
        "methods": {
            "growth_method": "loglinear",
            "cv_ddof": 1,
            "period_mode": "triennium",
        },
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(v) if isinstance(v, float) else str(v) for v in row
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_synthetic_inputs(directory: Path | str) -> Path:
    """Write the full input set plus ``config.json``; returns the config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(directory / "crops.csv",
               ["crop_id", "year", "area_ha", "production_t", "price_per_t"],
               crop_panel_rows())
    _write_csv(directory / "io_panel.csv",
               ["year", "kind", "item_id", "quantity", "share"],
               io_panel_rows())
    _write_csv(directory / "prices.csv",
               ["commodity_id", "year", "price_per_t"], price_rows())
    _write_csv(directory / "land_use.csv",
               ["year", "agricultural_land", "non_agricultural_land",
                "total_reported"], land_use_rows())
    _write_csv(directory / "value_cost.csv",
               ["year", "output_value", "input_cost"], value_cost_rows())
    region, nation = area_table_rows()
    _write_csv(directory / "area_region.csv",
               ["crop_id", "year", "area_ha", "production_t", "price_per_t"],
               [(g, y, a, 0.0, 0.0) for g, y, a in region])
    _write_csv(directory / "area_nation.csv",
               ["crop_id", "year", "area_ha", "production_t", "price_per_t"],
               [(g, y, a, 0.0, 0.0) for g, y, a in nation])
    config = run_config()
    config_path = directory / "config.json"
    config_path.write_text(json_text(config), encoding="utf-8")
    return config_path
