"""The golden default tables in ``tests/golden/`` and how a run's tables
are held to them, column by column: ``assert_matches_golden``, which
``tests/test_acceptance.py`` applies to every builtin scenario's default run.

After a change that moves a table on purpose, rewrite the files with

    PYTHONPATH=src python tests/golden/regenerate.py

and say in the change which columns moved and why.  Each column is held to
a tolerance that says where its numbers come from:

- exact: text, flags, counts, inputs echoed from the config and the time
  grids (``np.linspace`` of the config, the same bits everywhere);
- closed form, ``CLOSED_FORM_ATOL``: columns read from closed-form states,
  maps or spectra, to rounding;
- finite differences, ``FD_ATOL``: the closed-form entropies' rounding
  divided by the stencil's step;
- propagated states, ``CLOSED_FORM_ATOL + PROPAGATE_ERROR_TARGET * t``: the
  integrator's certificate, a trace-norm gap of at most
  ``PROPAGATE_ERROR_TARGET`` per unit time, at each row's time t, which
  bounds every entry of a state;
- quantities read from propagated states (entropies, entropy rates, the
  Theorem 2 bound, f, the nonunitality): the same number, chosen as a
  regression bound, not derived.  The certificate does not bound them: a
  trace-norm error delta moves an entropy by up to about delta log(d / delta)
  (Fannes-Audenaert), and the rates and support traces divide by or take
  logarithms of small eigenvalues near a rank change;
- measures, whose window edges are placed within ``BISECT_ATOL``: that
  width, plus the certificate over the whole window for the generator's
  measure;
- the diamond norm, whose optimizer stops once its bracket is within
  ``BRACKET_TOL``: that width.
"""

import csv
from pathlib import Path

import numpy as np

from entroflow.dynamics import PROPAGATE_ERROR_TARGET
from entroflow.nonunitarity import BRACKET_TOL
from entroflow.scenarios import DEFAULT_CONFIGS
from entroflow.witnesses import BISECT_ATOL

GOLDEN = Path(__file__).resolve().parent / "golden"

CLOSED_FORM_ATOL = 1e-12
# Next to a rank change the stencils' entropies carry about 1e-15 of
# rounding (lambda log lambda at lambda ~ 1e-5).  The finest step is h/2,
# with h capped at 1 % of the estimated distance to the rank change: h >= 5e-6
# on the appendixB grids.  So each quotient is within about 4e-10, and
# Richardson's (4 fine - coarse) / 3 within about 6e-10; this leaves a
# factor of 15.
FD_ATOL = 1e-8

EXACT = None
# The generator's measure: its window edges within BISECT_ATOL, from states
# certified over the whole window.
GENERATOR_MEASURE_ATOL = (BISECT_ATOL + PROPAGATE_ERROR_TARGET
                          * DEFAULT_CONFIGS["decoherence_measures"]["parameters"]["t_max"])


def propagated(table):
    return CLOSED_FORM_ATOL + PROPAGATE_ERROR_TARGET * table["t"]


read_from_propagated = propagated  # a regression bound, see the module docstring


def _custom_trajectory_columns():
    d = DEFAULT_CONFIGS["custom"]["parameters"]["generator"]["dim"]
    entries = {f"{part}_rho_{i}{j}": propagated
               for i in range(d) for j in range(d) for part in ("re", "im")}
    return {"t": EXACT, **entries, "entropy": read_from_propagated,
            "entropy_rate": read_from_propagated}


FD_TABLE = {"t": EXACT, "entropy": CLOSED_FORM_ATOL, "entropy_rate": CLOSED_FORM_ATOL,
            "entropy_rate_fd": FD_ATOL}

# Per table, each column's tolerance: EXACT, an absolute tolerance, or one
# per row from the table.
COLUMNS = {
    "fig1_gadc.csv": {"t": EXACT, "W": CLOSED_FORM_ATOL, "entropy_rate": CLOSED_FORM_ATOL,
                      "f": CLOSED_FORM_ATOL},
    "fig2_depolarizing.csv": {"d": EXACT, "q": EXACT, "analytic": CLOSED_FORM_ATOL,
                              "numeric": BRACKET_TOL, "abs_error": BRACKET_TOL},
    "appendixB_damping.csv": FD_TABLE,
    "appendixB_oscillatory.csv": FD_TABLE,
    "gaussian_bounds.csv": {"dynamics": EXACT, "t": EXACT, "entropy_rate": read_from_propagated,
                            "theorem2_bound": read_from_propagated},
    "decoherence_measures.csv": {"profile": EXACT, "measure_generator": GENERATOR_MEASURE_ATOL,
                                 "measure_channel": BISECT_ATOL, "blp": CLOSED_FORM_ATOL},
    "custom_trajectory.csv": _custom_trajectory_columns(),
    "custom_witnesses.csv": {"t": EXACT, "entropy_rate": read_from_propagated,
                             "theorem2_bound": read_from_propagated, "f": read_from_propagated,
                             "nonunitality": read_from_propagated, "flags": EXACT},
}


def _read(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, {name: [row[k] for row in body] for k, name in enumerate(header)}


def test_every_golden_file_has_its_columns_listed():
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(COLUMNS)
    for name, columns in COLUMNS.items():
        assert _read(GOLDEN / name)[0] == list(columns), name


def assert_matches_golden(outputs) -> None:
    """Every table of ``outputs``, paths of a run's CSVs, against its golden
    file, column by column within its tolerance in ``COLUMNS``."""
    assert outputs
    for output in map(Path, outputs):
        header, got = _read(output)
        golden_header, want = _read(GOLDEN / output.name)
        assert header == golden_header, output.name
        assert len(got[header[0]]) == len(want[header[0]]), output.name
        table = {name: np.array(column, dtype=float) for name, column in want.items()
                 if name == "t" or COLUMNS[output.name][name] is not EXACT}
        for name, tolerance in COLUMNS[output.name].items():
            if tolerance is EXACT:
                assert got[name] == want[name], f"{output.name}: {name}"
            else:
                atol = tolerance(table) if callable(tolerance) else tolerance
                gap = np.abs(np.array(got[name], dtype=float) - table[name])
                assert np.all(gap <= atol), f"{output.name}: {name} moved by {gap.max():.3e}"
