"""Helpers shared across the package: the CSV writer and the tests for a
finite number and for an integer in a JSON document."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def _cell(value) -> str:
    return repr(float(value)) if isinstance(value, (int, float, np.floating)) else str(value)


def write_csv(path, header: list[str], columns) -> None:
    """Write one sequence per column under a header.

    Every number is written as repr(float(v)), so identical values give
    byte-identical files; anything else as str(v).  A float ndarray column
    is written as ``map(repr, column.tolist())``: the Python floats of
    ``tolist`` repr exactly as repr(float(v)), with no numpy scalar built per
    cell.  Any other column (strings, Python ints, lists) goes cell by cell.
    Cells are rendered lazily, row by row.  A header that names another
    number of columns, or columns of unequal length, raise ValueError
    instead of a malformed or truncated table.
    """
    if len(header) != len(columns):
        raise ValueError(f"the header names {len(header)} columns, got {len(columns)}")
    cells = [map(repr, column.tolist())
             if isinstance(column, np.ndarray) and column.dtype.kind == "f" else map(_cell, column)
             for column in columns]
    rows = map(",".join, zip(*cells, strict=True))
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n")


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A JSON number that is a finite float: never a bool, not NaN or inf,
    and no integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
