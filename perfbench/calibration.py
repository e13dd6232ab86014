"""A fixed calibration kernel that measures the host's speed.

The host's CPU speed drifts by up to twofold over minutes (see README.md),
and it moves every timing of a run together.  The kernel is timed right
before and right after every task; a task's time divided by the mean of the
two is its time in units of the host's speed at that moment, which drift does
not move.  Multiplied by ``REFERENCE_S``, the kernel's time on the reference
host, it reads in seconds again: the time the task would take on that host.

Set-up is mostly loading numpy and scipy into a fresh interpreter, which the
kernel does not track.  Its calibration is a fresh interpreter that imports
only the libraries the package imports (``run.py --probe import``), run
right before each set-up probe; ``REFERENCE_IMPORT_S`` is its time on the
reference host.

The kernel mixes what the package's tasks spend their time on: interpreter
work, numpy calls on small matrices (eigh, matmul, log) and BLAS on larger
ones.  BLAS takes half of its time: on ``bosonic_bounds`` only that part
tracks the task times, on the other workloads the whole mix does best.  It
uses no code of the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
# Bound at import, before a traced run wraps numpy.linalg.eigh, so that the
# kernel never runs through the tracer.
from numpy.linalg import eigh

# Median time of one kernel call on the reference host (2-CPU Intel Xeon
# sandbox, Python 3.11, numpy 2.4, OpenBLAS on one thread).
REFERENCE_S = 0.030
# Median time, on the same host, of importing numpy, scipy.linalg and
# scipy.optimize in a fresh interpreter.
REFERENCE_IMPORT_S = 0.57

_rng = np.random.default_rng(0)
_H4 = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H4 = _H4 + _H4.conj().T
_M9 = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_B = _rng.normal(size=(160, 160)) + 1j * _rng.normal(size=(160, 160))
_H60 = _B[:60, :60] + _B[:60, :60].conj().T


def _kernel() -> None:
    s, d = 0.0, {}
    for i in range(20000):
        s += (i * 0.5) ** 0.5
        d[i & 255] = s
    for _ in range(300):
        w, v = eigh(_H4)
        (v * np.log(np.abs(w) + 1.0)) @ v.conj().T
        np.trace(_M9 @ _M9).real
    for _ in range(9):
        _B @ _B
        eigh(_H60)


def measure() -> tuple[float, float]:
    """Run the kernel once; return its wall and CPU time in seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0
