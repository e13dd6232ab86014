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


def time_derivative(f, t: float, h: float):
    """Central difference when t >= h, else one-sided, so f is never
    evaluated before time 0."""
    if t >= h:
        return central_difference(f, t, h)
    return one_sided_difference(f, t, h)


def write_csv(path, header: list[str], rows) -> None:
    """Write rows under a header; numbers as repr(float(v)), so identical
    values give byte-identical files, anything else as str(v)."""
    lines = [",".join(header)]
    for row in rows:
        cells = [repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                 for v in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
