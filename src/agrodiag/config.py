"""The run config: the JSON file that names a report's inputs, periods
and methods (see README for its layout), read into a ``RunConfig``.

Relative paths inside a config file are resolved against the config
file's directory; every error names the file and the key at fault.
"""
from __future__ import annotations

from pathlib import Path

from ._record import Record
from .errors import SchemaError
from .serialize import (
    Refused, decoder, finite, integer, json_object, one_of, read_json, string,
    strings,
)

# ``open`` refuses a NUL character with an error that names no key
_FILE_NAME = decoder(lambda value: type(value) is str and "\0" not in value,
                     "a string without NUL characters")
# a repeated commodity would add its price-CV indicators twice
_DISTINCT = decoder(lambda value: len(set(strings(value))) == len(value),
                    "a list of distinct strings")
# a growth window with first_year >= last_year covers no year
_PAIR = decoder(lambda value: type(value) is list and len(value) == 2
                and integer(value[0]) < integer(value[1]),
                "a [first_year, last_year] pair, first_year < last_year")


class RunConfig(Record):
    """Parsed run configuration; see README for the JSON layout."""

    crop_panel: Path
    io_panel: Path
    price_series: list[Path]
    land_use: Path
    cost_series: Path
    area_shares_region: Path
    area_shares_nation: Path
    periods: dict[str, tuple[int, int]]
    decomposition_base: int
    decomposition_terminal: int
    break_year: int
    break_commodities: list[str]
    grain_commodity: str
    fertilizer_commodity: str
    diversification_group: str
    national_tfp_growth_pct: float
    tree: str | Path = "builtin"  # or a tree JSON path
    output_dir: Path
    growth_method: str = "loglinear"
    cv_ddof: int = 1
    period_mode: str = "triennium"
    tfp_base_year: int | None = None
    indicators: Path | None = None  # evaluated in place of the assembled set


def load_run_config(path: Path | str) -> RunConfig:
    path = Path(path)
    base = path.parent

    def file(value) -> Path:
        return base / _FILE_NAME(value)

    decode = json_object({
        "inputs": json_object({
            **dict.fromkeys(("crop_panel", "io_panel", "land_use",
                             "cost_series", "area_shares_region",
                             "area_shares_nation"), file),
            "price_series": lambda value: [file(p) for p in strings(value)],
        }),
        "periods": (json_object(lambda value: tuple(_PAIR(value))), {}),
        "decomposition": json_object({"base_year": integer,
                                      "terminal_year": integer}),
        "break_year": integer,
        "break_commodities": _DISTINCT,
        "grain_commodity": string,
        "fertilizer_commodity": string,
        "diversification_group": string,
        "benchmarks": (json_object({
            "national_tfp_growth_pct": (finite, 0.0)}), {}),
        "tree": (lambda value: value if value == "builtin" else file(value),
                 "builtin"),
        "output_dir": (file, "out"),
        "methods": (json_object({
            "growth_method": (one_of("loglinear", "cagr"), "loglinear"),
            "cv_ddof": (one_of(0, 1), 1),
            "period_mode": (one_of("triennium", "endpoint"), "triennium"),
            "tfp_base_year": (integer, None),
        }), {}),
    })
    try:
        raw = decode(read_json(path, "config"))
    except Refused as exc:
        raise SchemaError(f"config {path}: {exc}") from None
    decomposition, benchmarks = raw.pop("decomposition"), raw.pop("benchmarks")
    return RunConfig(
        **raw.pop("inputs"), **raw.pop("methods"), **raw,
        decomposition_base=decomposition["base_year"],
        decomposition_terminal=decomposition["terminal_year"],
        national_tfp_growth_pct=float(benchmarks["national_tfp_growth_pct"]))
