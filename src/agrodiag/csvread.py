"""The CSV reading every loader shares: ``records`` opens a path or passes
a stream through, checks the header and the width of each row, and
decodes each row by a table of column decoders; each error starts with
the input kind and the file.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager, nullcontext
from math import inf

from .errors import (DataInconsistencyError, DomainError, NormalizationError,
                     SchemaError)


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
    except (DomainError, DataInconsistencyError, NormalizationError) as exc:
        row = "" if line is None else f" in row {line}"
        raise type(exc)(f"{what}: {exc}{row}") from None


# The column decoders beside ``int`` and ``str.strip``: each refuses a
# cell with ValueError, and ``_fault`` turns that into the message.

def _text(raw: str) -> str:
    """An id: the cell stripped, which must leave something."""
    text = raw.strip()
    if text:
        return text
    raise ValueError(raw)


def _amount(raw: str) -> float:
    """A number that must be finite and >= 0 (a NaN fails both tests)."""
    value = float(raw)
    if 0 <= value < inf:
        return value
    raise ValueError(raw)


def _price(raw: str) -> float:
    """A number that must be finite and > 0."""
    value = float(raw)
    if 0 < value < inf:
        return value
    raise ValueError(raw)


# a decoder with a range -> the range its message states
_BOUNDS = {_amount: ">= 0", _price: "> 0"}

# the crop panel's columns, which the area-share tables share
CROP_COLUMNS = {"crop_id": _text, "year": int, "area_ha": _amount,
                "production_t": _amount, "price_per_t": _amount}


def _fault(what: str, line: int, row: list[str], columns: dict):
    """The error for the first cell of ROW, left to right, that its
    column's decoder refuses."""
    for (column, decode), raw in zip(columns.items(), row):
        try:
            decode(raw)
        except ValueError:
            break
    if decode is _text:
        return SchemaError(f"{what}: empty {column} in row {line}")
    try:
        value = float(raw) if decode in _BOUNDS else decode(raw)
    except ValueError:
        return SchemaError(f"{what}: non-numeric value {raw!r} in column "
                           f"'{column}', row {line}")
    return DomainError(f"{what}: value {value!r} in column '{column}', row "
                       f"{line} must be finite and {_BOUNDS[decode]}")


def records(source, what: str, columns: dict):
    """Yield (row number, decoded cells) for each data row of SOURCE, a
    path or a text stream.

    COLUMNS maps each column the header must name, in order, to the
    decoder of its cells. A row is decoded in one pass; if that fails,
    the first cell refused, left to right, is named. A row of blank cells
    is skipped: every table has a column (a year or an id) that refuses a
    blank cell, so such a row never decodes. A leading UTF-8 byte-order
    mark is dropped. Errors start with WHAT; text that is not UTF-8 or
    not CSV, a bad header, a row of another width and a header with no
    data row each raise ``SchemaError``.
    """
    decoders = tuple(columns.values())
    width = len(decoders)
    empty = True
    try:
        with (nullcontext(source) if hasattr(source, "read") else
              open(source, "r", encoding="utf-8-sig", newline="")) as stream:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{what}: empty file, expected header "
                                  f"{','.join(columns)}")
            header = [h.strip() for h in header]
            if header != list(columns):
                raise SchemaError(f"{what}: bad header {header!r}, expected "
                                  f"{list(columns)!r}")
            for line, row in enumerate(reader, start=2):
                try:
                    values = [decode(cell)
                              for decode, cell in zip(decoders, row)]
                except ValueError:
                    values = None
                if values is not None and len(row) == width:
                    empty = False
                    yield line, values
                elif any(cell.strip() for cell in row):
                    if len(row) != width:
                        raise SchemaError(f"{what}: row {line} has {len(row)} "
                                          f"columns, expected {width}")
                    raise _fault(what, line, row, columns)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise SchemaError(f"{what}: row {reader.line_num} is not valid CSV: "
                          f"{exc}") from None
    if empty:
        raise SchemaError(f"{what}: header but no data rows")
