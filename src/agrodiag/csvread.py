"""The CSV reading every loader shares: open a path or pass a stream
through, check the header and the width of each row, and turn a cell into
a number; each error starts with the input kind and the file.
"""
from __future__ import annotations

import csv
import math
from contextlib import contextmanager

from .errors import DataInconsistencyError, DomainError, SchemaError


def _label(source, kind: str) -> str:
    """KIND, followed by the file SOURCE names: a path, or the name of a
    file-like object that has one. Every load error starts with it."""
    name = getattr(source, "name", None) if hasattr(source, "read") else source
    return f"{kind} {name}" if name else kind


@contextmanager
def _named(what: str, line: int | None = None):
    """Start the message of a value error raised inside with WHAT, as the
    loaders' own messages start, and end it with row LINE if given: for the
    checks of the records and tables a loader builds, which do not know
    their file."""
    try:
        yield
    except (DomainError, DataInconsistencyError) as exc:
        row = "" if line is None else f" in row {line}"
        raise type(exc)(f"{what}: {exc}{row}") from None


@contextmanager
def _open_text(source, what: str):
    """Yield a text stream for a path or pass a file-like object through.

    A leading UTF-8 byte-order mark, as spreadsheet programs write it, is
    dropped. A file that is not UTF-8 raises ``SchemaError`` naming it,
    also when the bad bytes are only decoded while the caller iterates.
    """
    if hasattr(source, "read"):
        yield source
        return
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: not UTF-8 text ({exc.reason})") from None


def _rows(stream, expected_header: list[str], what: str):
    """Yield (line_number, row) pairs after validating header and widths.

    A file with a header but no data row raises ``SchemaError``.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{what}: empty file, expected header "
                          f"{','.join(expected_header)}") from None
    header = [h.strip() for h in header]
    if header != expected_header:
        raise SchemaError(
            f"{what}: bad header {header!r}, expected {expected_header!r}"
        )
    empty = True
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(expected_header):
            raise SchemaError(
                f"{what}: row {line} has {len(row)} columns, "
                f"expected {len(expected_header)}"
            )
        empty = False
        yield line, row
    if empty:
        raise SchemaError(f"{what}: header but no data rows")


def _cell(row: list[str], idx: int, col: str, line: int, what: str,
          cast=float):
    raw = row[idx]
    try:
        return cast(raw)
    except ValueError:
        raise SchemaError(
            f"{what}: non-numeric value {raw!r} in column '{col}', row {line}"
        ) from None


def _amount(row: list[str], idx: int, col: str, line: int, what: str) -> float:
    """A numeric cell that must be finite and non-negative."""
    value = _cell(row, idx, col, line, what)
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(
            f"{what}: value {value!r} in column '{col}', row {line} must be "
            f"finite and >= 0"
        )
    return value
