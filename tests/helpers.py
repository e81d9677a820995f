"""Shared builders and independent oracles for the test suite.

The oracles re-derive expected values straight from raw numbers and the
written formulas, term by term, without touching the library's internals;
tests freeze or compare against their output.
"""
from __future__ import annotations

import math
import shutil
import subprocess
import sys
from functools import reduce
from operator import add

from agrodiag.ingest import _Columns
from agrodiag.panel import IO_SIDES, CropPanel, InputOutputPanel
from agrodiag.serialize import round_sig

# the files ``report`` writes, as the README documents them
REPORT_ARTIFACTS = (
    "decomposition.json", "tfp_index.csv", "growth_rates.json",
    "break_stats.json", "cai.csv", "shares.csv", "land_ratios.json",
    "indicators.json", "diagnosis.json", "figure2.csv", "figure3.csv",
    "figure4.csv",
)


def other_interpreters() -> list[str]:
    """Each ``python3.10`` ... ``python3.13`` on PATH but this
    interpreter's version that starts; a pyenv shim of a version not
    selected exits 127, and counts as not found."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or minor == sys.version_info.minor:
            continue
        try:
            started = subprocess.run([exe, "-c", "pass"], capture_output=True,
                                     timeout=60).returncode == 0
        except OSError:
            started = False
        if started:
            found.append(exe)
    return found


def artifact_texts(artifacts) -> dict[str, str]:
    """ARTIFACTS, (name, chunks) pairs as ``serialize.write_artifacts``
    takes them, as a dict of whole texts."""
    return {name: "".join(chunks) for name, chunks in artifacts}


def out_flag(command: str, out) -> list[str]:
    """``-o OUT`` for COMMAND, or nothing for ``validate``, which writes
    nothing and refuses the flag."""
    return [] if command == "validate" else ["-o", str(out)]


# crop rows are tuples (crop_id, year, area, production, price)


def crop_panel(rows) -> CropPanel:
    """ROWS -> panel, through the ``_Columns`` builder every loader fills,
    folded into the triennium ending in each year of its rows, so it holds
    every year's columns; a repeated (crop_id, year) is refused."""
    rows = list(rows)
    columns = _Columns({year for _, year, *_ in rows})
    for crop, year, *values in rows:
        if not columns.add(year, crop, values):
            raise ValueError(f"duplicate row for {(crop, year)}")
    return CropPanel(columns)


def crop_rows(panel, year: int | None = None) -> list[tuple]:
    """The rows of a ``columns`` tuple (a panel year or a triennium), by
    crop_id and labelled ``year``; or a panel's, read through ``columns``:
    one year's, or all of them in (crop_id, year) order."""
    if isinstance(panel, tuple):
        ids, *values = panel
        return [(crop, year, *row) for crop, *row in zip(ids, *values)]
    if year is not None:
        return crop_rows(panel.columns(year), year) if panel.has_year(
            year) else []
    return sorted((row for y in panel.years for row in crop_rows(panel, y)),
                  key=lambda row: row[:2])


def crop_row(panel, crop: str, year: int) -> tuple | None:
    """``(area, production, price)`` of one crop and year, or None; PANEL
    is a panel or a ``columns`` tuple, as for ``crop_rows``."""
    for row in crop_rows(panel, year):
        if row[0] == crop:
            return row[2:]
    return None


def crop_csv(panel: CropPanel) -> str:
    """The panel in the crop-panel schema, every double written exactly."""
    return "crop_id,year,area_ha,production_t,price_per_t\n" + "".join(
        f"{crop},{year},{a!r},{q!r},{p!r}\n"
        for crop, year, a, q, p in crop_rows(panel))


# crop-period values are dicts crop_id -> (area, production, price)


def panel_two_periods(base: dict, term: dict, base_year: int = 2000,
                      term_year: int = 2001) -> CropPanel:
    return crop_panel([(c, base_year, *v) for c, v in base.items()] +
                      [(c, term_year, *v) for c, v in term.items()])


def oracle_decompose(base: dict, term: dict) -> dict:
    """Brute-force decomposition evaluated term by term from raw numbers."""
    crops = sorted(set(base) | set(term))
    zero = (0.0, 0.0, 0.0)

    def unpack(period, crop):
        area, production, price = period.get(crop, zero)
        yld = production / area if area > 0 else 0.0
        return area, yld, price

    total_base = sum(v[0] for v in base.values())
    total_term = sum(v[0] for v in term.values())
    revenue_base = sum(v[1] * v[2] for v in base.values())
    revenue_term = sum(v[1] * v[2] for v in term.values())

    area_eff = 0.0
    price_eff = 0.0
    yield_eff = 0.0
    div_eff = 0.0
    for crop in crops:
        a0, y0, p0 = unpack(base, crop)
        a1, y1, p1 = unpack(term, crop)
        s0, s1 = a0 / total_base, a1 / total_term
        area_eff += s0 * y0 * p0 * (total_term - total_base)
        price_eff += total_base * s0 * y0 * (p1 - p0)
        yield_eff += total_base * s0 * p0 * (y1 - y0)
        div_eff += total_base * y0 * p0 * (s1 - s0)
    total = revenue_term - revenue_base
    return {
        "total_dR": total,
        "area_effect": area_eff,
        "price_effect": price_eff,
        "yield_effect": yield_eff,
        "diversification_effect": div_eff,
        "interaction_effect": total - (area_eff + price_eff + yield_eff + div_eff),
    }


def oracle_triennium(by_year: dict, end_year: int) -> dict:
    """Triennium average from ``{year: {crop: (area, production, price)}}``,
    term by term: each total a left-to-right ``+`` chain from int 0 in year
    order over the years that have the crop; area and production over all
    three years, an absent year counting as zero, price over the years the
    crop was observed."""
    span = (end_year - 2, end_year - 1, end_year)
    crops = sorted({c for y in span for c in by_year[y]})
    out = {}
    for crop in crops:
        observed = [by_year[y][crop] for y in span if crop in by_year[y]]
        area, production, price = (reduce(add, column, 0)
                                   for column in zip(*observed))
        out[crop] = (area / 3.0, production / 3.0, price / len(observed))
    return out


# io years are dicts item_id -> (quantity, share)


def io_panel(years: dict) -> InputOutputPanel:
    """``{year: (outputs, inputs)}`` -> panel, each side's items in the
    order given, through the ``_Columns`` builder every loader fills."""
    columns = _Columns()
    for year, sides in years.items():
        for side, items in zip(IO_SIDES, sides):
            for item_id, values in items.items():
                columns.add((year, side), item_id, list(values))
    return InputOutputPanel(columns)


def io_rows(panel: InputOutputPanel) -> list[tuple]:
    """The panel's rows, read through ``columns``, as ``(year, side,
    item_id, quantity, share)``: years ascending, outputs before inputs,
    each side's items in the order given."""
    return [(year, side, *row) for year in panel.years for side in IO_SIDES
            for row in zip(*panel.columns(year, side))]


def oracle_tornqvist(out0: dict, out1: dict, in0: dict, in1: dict) -> float:
    """Eq-by-eq evaluation: averaged-share-weighted log quantity ratios."""

    def side(old, new):
        total = 0.0
        for item in sorted(set(old) | set(new)):
            share = 0.5 * (old[item][1] + new[item][1])
            total += share * math.log(new[item][0] / old[item][0])
        return total

    return side(out0, out1) - side(in0, in1)


def relative_error(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(1.0, abs(expected))


def canonical(obj):
    """OBJ with every float rounded by ``round_sig``, and ints, strings,
    bools and None left alone: the copy whose ``json.dumps`` form
    ``serialize.json_chunks`` writes without making it."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def predicate_oracle(comparator: str, threshold, tolerance,
                     value: float) -> tuple[bool, float]:
    """Whether a tree predicate holds for VALUE, and its severity, as the
    comparators were first written: one branch per comparator."""
    c = comparator
    if c == "<":
        holds = value < threshold
    elif c == "<=":
        holds = value <= threshold
    elif c == ">":
        holds = value > threshold
    elif c == ">=":
        holds = value >= threshold
    elif c == "=":
        holds = abs(value - threshold) <= tolerance
    elif c == "trend_up":
        holds = value > 0.0
    elif c == "trend_down":
        holds = value < 0.0
    else:  # stable
        holds = abs(value) <= tolerance
    if c in ("<", "<=", ">", ">="):
        scale = abs(threshold) if threshold else 1.0
        distance = (value - threshold if c in (">", ">=")
                    else threshold - value)
        severity = distance / scale
    elif c == "=":
        severity = (0.0 if tolerance == 0 else
                    (tolerance - abs(value - threshold)) / tolerance)
    elif c in ("trend_up", "trend_down"):
        severity = abs(value)
    else:  # stable
        severity = (0.0 if tolerance == 0 else
                    (tolerance - abs(value)) / tolerance)
    return holds, severity
