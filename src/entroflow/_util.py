"""Helpers shared across the package: the CSV writer and the tests for a
finite number and for an integer in a JSON document."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def write_csv(path, header: list[str], rows) -> None:
    """Write rows under a header; numbers as repr(float(v)), so identical
    values give byte-identical files, anything else as str(v)."""
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                 for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


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
