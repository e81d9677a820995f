"""The run config: the JSON file that names a report's inputs, periods
and methods (see README for its layout), read into a ``RunConfig``.

Relative paths inside a config file are resolved against the config
file's directory; every error names the file and the key at fault.
"""
from __future__ import annotations

import sys
from pathlib import Path

from ._record import Record
from .errors import SchemaError
from .serialize import read_json


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
    raw = read_json(path, "config")
    base = path.parent

    def check(name: str, value, ok: bool, expected: str):
        """VALUE if OK, else a SchemaError naming the key NAME."""
        if not ok:
            raise SchemaError(f"config {path}: {name} must be {expected}, "
                              f"got {value!r}")
        return value

    def mapping(name: str, value) -> dict:
        return check(name, value, isinstance(value, dict), "an object")

    def section(key: str) -> dict:
        return mapping(key, raw.get(key, {}))

    def strings(name: str, value) -> list[str]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return check(name, value, ok, "a list of strings")

    def string(name: str, value) -> str:
        return check(name, value, isinstance(value, str), "a string")

    def filename(name: str, value) -> str:
        # ``open`` refuses a NUL character with an error that names no key
        ok = isinstance(value, str) and "\0" not in value
        return check(name, value, ok, "a string without NUL characters")

    def resolve(name: str, value) -> Path:
        return base / filename(name, value)

    def year(name: str, value) -> int:
        # ``bool`` subclasses ``int``, so JSON ``true`` must be kept out
        return check(name, value, type(value) is int, "an integer year")

    def window(label: str, value) -> tuple[int, int]:
        name = f"periods.{label}"
        check(name, value, isinstance(value, list) and len(value) == 2,
              "a [first_year, last_year] pair")
        return year(name, value[0]), year(name, value[1])

    try:
        inputs = mapping("inputs", raw["inputs"])
        methods = section("methods")
        periods = {label: window(label, value)
                   for label, value in section("periods").items()}
        decomp = mapping("decomposition", raw["decomposition"])
        tfp_base_year = methods.get("tfp_base_year")
        if tfp_base_year is not None:
            year("methods.tfp_base_year", tfp_base_year)
        options = {}
        for key, default, allowed in (
            ("growth_method", "loglinear", ("loglinear", "cagr")),
            ("period_mode", "triennium", ("triennium", "endpoint")),
            ("cv_ddof", 1, (0, 1)),
        ):
            value = options[key] = methods.get(key, default)
            # the type check keeps out 1.0 and true, which equal 1
            check(f"methods.{key}", value,
                  value in allowed and type(value) is type(allowed[0]),
                  f"one of {allowed}")
        national = section("benchmarks").get("national_tfp_growth_pct", 0.0)
        # the type check keeps out true; NaN and the infinities fail the bound
        check("benchmarks.national_tfp_growth_pct", national,
              type(national) in (int, float)
              and abs(national) <= sys.float_info.max, "a finite number")
        return RunConfig(
            **{key: resolve(f"inputs.{key}", inputs[key]) for key in (
                "crop_panel", "io_panel", "land_use", "cost_series",
                "area_shares_region", "area_shares_nation")},
            price_series=[resolve("inputs.price_series", p) for p in strings(
                "inputs.price_series", inputs["price_series"])],
            periods=periods,
            decomposition_base=year("decomposition.base_year",
                                    decomp["base_year"]),
            decomposition_terminal=year("decomposition.terminal_year",
                                        decomp["terminal_year"]),
            break_year=year("break_year", raw["break_year"]),
            break_commodities=strings("break_commodities",
                                      raw["break_commodities"]),
            **{key: string(key, raw[key]) for key in (
                "grain_commodity", "fertilizer_commodity",
                "diversification_group")},
            national_tfp_growth_pct=float(national),
            tree=("builtin" if raw.get("tree", "builtin") == "builtin"
                  else resolve("tree", raw["tree"])),
            output_dir=resolve("output_dir", raw.get("output_dir", "out")),
            tfp_base_year=tfp_base_year,
            **options,
        )
    except KeyError as exc:
        raise SchemaError(f"config {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"config {path}: malformed value ({exc})") from None
