"""The CSV writer shared across the package."""

from __future__ import annotations

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
