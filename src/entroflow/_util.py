"""Finite-difference stencils and the CSV writer shared across the package."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def central_difference(f, t: float, h: float):
    """(f(t+h) - f(t-h)) / 2h; second order, needs f on [t-h, t+h]."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def one_sided_difference(f, t: float, h: float):
    """(-3 f(t) + 4 f(t+h) - f(t+2h)) / 2h: second-order forward difference,
    so it takes the right limit at a rank change or at the start of time."""
    return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2.0 * h)) / (2.0 * h)


def time_derivative(f, t, h: float):
    """Central difference where t >= h, else one-sided, so f is never
    evaluated before time 0.

    ``f`` maps an array of times to a stack of values along its first axis.
    It is always called with an array as long as ``t``, so that row k of
    every call belongs to t[k] (rows that take the one-sided stencil get the
    central one evaluated at t = h, and discarded).  ``t`` is an array of
    times, or one time (then the result is that one value).
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    central = times >= h
    if central.all():
        out = central_difference(f, times, h)
    else:
        out = one_sided_difference(f, times, h)
        if central.any():
            rows = central.reshape(central.shape + (1,) * (out.ndim - 1))
            out = np.where(rows, central_difference(f, np.where(central, times, h), h), out)
    return out if np.ndim(t) else out[0]


def write_csv(path, header: list[str], rows) -> None:
    """Write rows under a header; numbers as repr(float(v)), so identical
    values give byte-identical files, anything else as str(v)."""
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                 for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
