"""Helpers shared across the package: the CSV writer, the bracket refiner
that locates crossings, and the tests for a finite number and for an
integer in a JSON document."""

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


def refine_brackets(evaluate, lo, hi, f_lo, f_hi, width):
    """Narrow every bracket [lo, hi] around a change of side of f, where a
    point's side is f < 0 (NaN counts as non-negative), by safeguarded false
    position, until it is at most ``width`` wide (one number, or one value
    per bracket); return the final (lo, hi).

    ``f_lo`` and ``f_hi`` are f at the ends, and ``evaluate(index, times)``
    gives f at ``times`` for the brackets ``index``: one call per round, for
    every bracket still wider than its width.  A round evaluates each such
    bracket at three points: the false-position point of its end values (the
    midpoint where they give none), clipped ``0.4 * width`` inside the
    bracket; a partner point ``0.4 * width`` from it, toward the midpoint;
    and the midpoint.  The new bracket is the first sub-interval from lo
    whose far end is not on lo's side.  The midpoint bounds every round to
    bisection's halving, and the partner closes the bracket once the
    false-position point lands within ``0.4 * width`` of the root.  A
    bracket whose two ends lie on one side keeps lo's side and closes on hi.
    """
    ends = np.stack([lo, hi], axis=1)
    f_ends = np.stack([f_lo, f_hi], axis=1)
    below_lo = f_ends[:, 0] < 0.0
    width = np.broadcast_to(np.asarray(width, dtype=float), below_lo.shape)
    active = np.flatnonzero(ends[:, 1] - ends[:, 0] > width)
    while active.size:
        (lo, hi), (f_lo, f_hi) = ends[active].T, f_ends[active].T
        gap, mid = 0.4 * width[active], 0.5 * (lo + hi)
        with np.errstate(all="ignore"):
            x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            x = np.where((np.sign(f_lo) * np.sign(f_hi) <= 0.0) & np.isfinite(x), x, mid)
        x = np.clip(x, lo + gap, hi - gap)
        points = np.sort(np.stack([x, x + gap * np.sign(mid - x), mid], axis=1), axis=1)
        f_points = evaluate(np.repeat(active, 3), points.ravel()).reshape(-1, 3)
        # the first evaluated point off lo's side, or hi: the new bracket's far end
        off_side = (f_points < 0.0) != below_lo[active, None]
        far = np.argmax(np.column_stack([off_side, np.ones(len(active), bool)]), axis=1)
        pick = np.stack([far, far + 1], axis=1)
        ends[active] = np.take_along_axis(np.column_stack([lo, points, hi]), pick, axis=1)
        f_ends[active] = np.take_along_axis(np.column_stack([f_lo, f_points, f_hi]), pick, axis=1)
        active = active[ends[active, 1] - ends[active, 0] > width[active]]
    return ends[:, 0], ends[:, 1]


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
