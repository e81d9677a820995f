"""Deterministic artifact text, in and out.

Serialized artifacts round floats to 6 significant digits and order keys
and rows, so two runs on identical inputs are byte-identical. Full
precision is kept in memory; only the on-disk form is rounded. No
artifact holds a NaN or an infinity: ``json_text`` and ``csv_text`` raise
``DomainError`` naming the artifact instead.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import DomainError, SchemaError

SIG_DIGITS = 6


def round_sig(x: float, digits: int = SIG_DIGITS) -> float:
    """Round to ``digits`` significant digits (exact for ints and zeros)."""
    if x == 0:
        return 0.0
    return float(f"{x:.{digits}g}")


def canonical(obj: Any) -> Any:
    """Recursively round floats; leave ints, strings and bools alone."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def _non_finite(obj: Any, path: str = "") -> tuple[str, float] | None:
    """The key path and value of the first NaN or infinity in OBJ."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for key, value in items:
        found = _non_finite(value, key)
        if found is not None:
            return found
    return None


def json_text(obj: Any, name: str = "JSON text") -> str:
    """OBJ as canonical JSON; a NaN or infinity raises DomainError naming
    NAME (the artifact) and the key path, as JSON has no such numbers."""
    data = canonical(obj)
    try:
        text = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False,
                          allow_nan=False)
    except ValueError:
        path, value = _non_finite(data)
        raise DomainError(
            f"{name}: non-finite number {value!r} at key '{path}'"
        ) from None
    return text + "\n"


def format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    return str(value)


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]],
             name: str = "CSV text") -> str:
    """A header line plus one line per row; a NaN or infinity raises
    DomainError naming NAME (the artifact) and the column."""
    header = list(header)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for column, value in enumerate(row):
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name}: non-finite value {value!r} in "
                                  f"column '{header[column]}'")
            cells.append(format_cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def index_csvs(series: Mapping[str, Any]) -> dict[str, str]:
    """``tfp_index.csv`` and ``figure2.csv`` from the output, input and tfp
    index series (see ``productivity.index_series``)."""
    output, input_, tfp = series["output"], series["input"], series["tfp"]
    return {
        "tfp_index.csv": csv_text(["year", "value"], tfp.to_rows(),
                                  "tfp_index.csv"),
        "figure2.csv": csv_text(
            ["year", "output", "input", "tfp"],
            [(y, output.values[y], input_.values[y], tfp.values[y])
             for y in tfp.years],
            "figure2.csv",
        ),
    }


def cai_csv(cai_values: Mapping[str, float]) -> str:
    """``cai.csv``: one ``group_id,cai`` row per group."""
    return csv_text(["group_id", "cai"], sorted(cai_values.items()), "cai.csv")


def read_json(path: Path, what: str):
    """Parse a UTF-8 JSON file (a leading byte-order mark is dropped); bad
    bytes or syntax raise SchemaError naming WHAT and the path."""
    try:
        return json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{what} {path}: not UTF-8 text ({exc.reason})"
        ) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path}: not valid JSON: {exc}") from None


def write_artifacts(outdir: Path, artifacts: Mapping[str, str]) -> None:
    """Write every artifact into OUTDIR, or none of them.

    Each artifact goes to a temporary file in OUTDIR first; only once all
    are written does each replace its target. If anything fails, the
    temporary files are removed and the files already in OUTDIR, such as
    the last good report, are left as they were."""
    outdir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name in sorted(artifacts):
            temp = outdir / f".{name}.{os.getpid()}.tmp"
            staged.append((temp, outdir / name))
            temp.write_text(artifacts[name], encoding="utf-8", newline="\n")
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        raise
