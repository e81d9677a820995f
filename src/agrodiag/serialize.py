"""Deterministic artifact text, in and out, and the decoders that check
the JSON inputs ``read_json`` parses.

Serialized artifacts round floats to 6 significant digits and order keys
and rows, so two runs on identical inputs are byte-identical. Full
precision is kept in memory; only the on-disk form is rounded. No
artifact holds a NaN or an infinity: ``json_chunks`` and ``csv_chunks``
raise ``DomainError`` naming the artifact instead.
"""
from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterable

from .errors import DomainError, SchemaError

SIG_DIGITS = 6
CSV_CHUNK_LINES = 1024
WRITE_SLICE = 1 << 16


def round_sig(x: float) -> float:
    """Round to ``SIG_DIGITS`` significant digits (exact for ints and
    zeros)."""
    if x == 0:
        return 0.0
    return float(f"{x:.{SIG_DIGITS}g}")


def _rounded(x: float) -> str:
    """X as JSON, rounded by ``round_sig``; a NaN or an infinity raises
    ValueError, as JSON has no such numbers."""
    if not math.isfinite(x):
        raise ValueError(x)
    return repr(round_sig(x))


# The parts ``json.JSONEncoder(sort_keys=True, indent=2,
# ensure_ascii=False)`` yields, from the generator it is built on, with
# each float rounded as it is written; float keys are rounded alike. The
# indent is given as the two spaces ``indent=2`` stands for, since from
# CPython 3.13 on the generator takes only a string
_iterencode = json.encoder._make_iterencode(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, "  ",
    _rounded, ": ", ",", True, False, False)


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


def _drained(parts: list[str]) -> str:
    """PARTS joined, PARTS emptied: so a chunk's parts are freed before it
    is written."""
    text = "".join(parts)
    parts.clear()
    return text


def json_chunks(obj: Any, name: str = "JSON text"):
    """OBJ as canonical JSON, yielded in chunks of ``CSV_CHUNK_LINES``
    encoder parts as the encoder makes them, each float rounded as it is
    written, so no rounded copy of OBJ is made; a NaN or infinity raises
    DomainError naming NAME (the artifact) and the key path, as JSON has
    no such numbers."""
    parts = []
    try:
        for part in _iterencode(obj, 0):
            parts.append(part)
            if len(parts) == CSV_CHUNK_LINES:
                yield _drained(parts)
    except ValueError:
        path, value = _non_finite(obj)
        raise DomainError(
            f"{name}: non-finite number {value!r} at key '{path}'"
        ) from None
    parts.append("\n")
    yield "".join(parts)


def json_text(obj: Any, name: str = "JSON text") -> str:
    """The chunks of ``json_chunks`` joined into one text."""
    return "".join(json_chunks(obj, name))


def format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    return str(value)


def csv_chunks(header: Iterable[str], rows: Iterable[Iterable[Any]],
               name: str = "CSV text"):
    """A header line plus one line per row, yielded in chunks of at most
    ``CSV_CHUNK_LINES`` lines as the rows come, each chunk's lines freed
    before it is written; a NaN or infinity raises DomainError naming NAME
    (the artifact) and the column."""
    header = list(header)
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = []
        for column, value in enumerate(row):
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{name}: non-finite value {value!r} in "
                                  f"column '{header[column]}'")
            cells.append(format_cell(value))
        lines.append(",".join(cells) + "\n")
        if len(lines) == CSV_CHUNK_LINES:
            yield _drained(lines)
    yield "".join(lines)


def csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]],
             name: str = "CSV text") -> str:
    """The chunks of ``csv_chunks`` joined into one text."""
    return "".join(csv_chunks(header, rows, name))


def read_json(path: Path, what: str):
    """Parse a UTF-8 JSON file (a leading byte-order mark is dropped); bad
    bytes, bad syntax, a key twice in one object or nesting too deep for
    the parser's recursion raise SchemaError naming WHAT and the path."""
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise SchemaError(f"{what} {path}: duplicate key {key!r}")
        return obj

    try:
        return json.loads(path.read_text(encoding="utf-8-sig"),
                          object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{what} {path}: not UTF-8 text ({exc.reason})"
        ) from None
    except ValueError as exc:  # bad syntax, or an integer of too many digits
        raise SchemaError(f"{what} {path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(
            f"{what} {path}: not valid JSON: nested too deeply") from None


# The JSON decoders: each input declares its keys once, as a
# {key: decoder} table for ``json_object``.

class Refused(ValueError):
    """A JSON value a decoder refuses; ``str`` is its dotted path, then why."""

    keys: tuple[str, ...] = ()  # json_object puts each key in front

    def __str__(self) -> str:
        return f"{'.'.join(self.keys)} {self.args[0]}".lstrip()


def decoder(test, expected: str):
    """The decoder that returns a value TEST holds for and refuses any
    other, saying it must be EXPECTED."""
    def decode(value):
        if not test(value):
            raise Refused(f"must be {expected}, got {value!r}")
        return value
    return decode


string = decoder(lambda value: type(value) is str, "a string")
strings = decoder(lambda value: type(value) is list and all(
    type(v) is str for v in value), "a list of strings")
# ``bool`` subclasses ``int``, so JSON ``true`` must be kept out
integer = decoder(lambda value: type(value) is int, "an integer")
# NaN, the infinities and an integer too large for a float fail the bound
finite = decoder(lambda value: type(value) in (int, float)
                 and abs(value) <= sys.float_info.max, "a finite number")


def one_of(*allowed):
    # the type check keeps out 1.0 and true, which equal 1
    return decoder(lambda value: value in allowed
                   and type(value) is type(allowed[0]), f"one of {allowed}")


_REQUIRED = object()  # the default of a key that must be given


def json_object(fields, closed: bool = False):
    """The decoder of an object, which returns {key: decoded value}. FIELDS
    maps each key to a decoder, or to a (decoder, default) pair if the key
    may be absent (the default is decoded, but for None, which a JSON null
    also reads as), or is one decoder for every key. A key not in FIELDS
    is ignored, or refused if CLOSED."""
    def decode(value) -> dict:
        if type(value) is not dict:
            raise Refused(f"must be an object, got {value!r}")
        table = fields if type(fields) is dict else dict.fromkeys(value, fields)
        unknown = closed and sorted(value.keys() - table.keys())
        if unknown:
            raise Refused(f"has unknown keys {unknown}")
        out = {}
        for key, field in table.items():
            check, default = field if type(field) is tuple else (field, _REQUIRED)
            raw = value.get(key, default)
            if raw is _REQUIRED:
                raise Refused(f"missing key {key!r}")
            try:
                out[key] = (None if raw is None and default is None
                            else check(raw))
            except Refused as exc:
                exc.keys = (key, *exc.keys)
                raise
        return out
    return decode


def _stage(path: Path, chunks: Iterable[str]) -> None:
    """Write CHUNKS, an iterable of chunks of text, to PATH as UTF-8, in
    slices of at most ``WRITE_SLICE`` characters, so no encoded copy of a
    whole text is made."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for chunk in chunks:
            for start in range(0, len(chunk), WRITE_SLICE):
                stream.write(chunk[start:start + WRITE_SLICE])
            del chunk  # freed before the next one is made


def write_artifacts(outdir: Path, artifacts) -> None:
    """Write every artifact into OUTDIR, or none of them.

    ARTIFACTS yields (name, chunks) pairs, the chunks an iterable of
    strings (a text made whole is one chunk). Each goes to a temporary
    file in OUTDIR as it comes; only once the last is written, and every
    target is absent or a regular file, does each replace its target. If
    anything fails, even while an artifact is computed, the temporary
    files and any directory made for OUTDIR are removed, and the files
    already in OUTDIR, such as the last good report, are left as they
    were."""
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    staged: list[tuple[Path, Path]] = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, chunks in artifacts:
            temp = outdir / f".{name}.{os.getpid()}.tmp"
            staged.append((temp, outdir / name))
            _stage(temp, chunks)
        for _, target in staged:  # so no rename fails after the first
            if target.exists() and not target.is_file():
                raise OSError(f"{target} is in the way: not a regular file")
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)
        try:
            for directory in made:  # deepest first
                directory.rmdir()
        except OSError:  # no longer empty, and so neither is its parent
            pass
        raise
