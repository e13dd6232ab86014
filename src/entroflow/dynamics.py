"""Master-equation integration, intermediate propagators, and entropy rates.

A trajectory is a stack whose leading axis is time: a (T, d, d) array of
states on a fixed time grid for one initial state, or (T, N, d, d) for N,
the array of their generator-consistent derivatives, and one stacked
eigendecomposition of the states, from which entropies, ranks and entropy
rates are read as arrays.  A propagated trajectory holds its states and
derivatives as the coordinate rows it was integrated as, with the operator
that integrated them, the only one the witnesses and the off-grid states
use (RK4 from the nearest grid point, certified as the grid states are);
each stack is scattered to (T, N, d, d) at most once, the states when
``propagate`` validates them, and the rows of a Fock-diagonal stack, its
populations, are read with no matrix at all.  One engine builds the commutator-free
4th-order Magnus (CF4) maps of many intervals at once: ``propagate`` chains
them when the stack lies in a dense restriction of the generator to its
invariant sets that is small (m <= 16) or time-independent (RK4
otherwise), and intermediate maps M_{t,s}, and those of
``cp_divisibility_check``, are the same maps on the generator's one
whole-space restriction, built on first use and kept.  Each interval
doubles its own step count, under one of two tests.  A propagated interval
doubles until its n- and 2n-step states pass :func:`_certificate`, a
trace-norm budget per unit time.  An interval map doubles until its n- and
2n-step maps agree entrywise within ``INTERMEDIATE_MAP_ATOL``, at most
``MAX_MAP_DOUBLINGS`` times (:func:`_certified_maps`): intermediate maps are
held to 1e-9 of their closed form, and maps rebuilt under the per-unit-time
budget miss that bound (2.6e-9 on [0.3, 2.4] for gamma(t) = 0.5 + cos 2t
dephasing).  Both integrators Hermitize and renormalize the rows through
one helper each, and end on one validation, with one eigh (none for
population rows).  A closed-form channel family (GADC, dephasing) is its
maps over a grid as (T, d^2, d^2) stacks, M_{t,0} and the exact limits
d/dt M_{t,0} and K_t = d/d eps M_{t+eps,t} at eps = 0, each carrying a
stack of initial states to (T, N, d, d) states in one product: no finite
differences.  A Lindblad generator's K_t is L_t itself.

Every map is built in numpy (:func:`expm`: elementwise for a diagonal
exponent, such as every dephasing map, and a batched Padé approximant
otherwise), so no module here imports ``scipy.linalg``.  ``scipy.sparse``
is imported by the first whole-space product of a
:class:`~entroflow.channels.LindbladGenerator`, which only a stack too
large for a dense restriction makes; the closed-form channel families
(GADC, dephasing) never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import write_csv
from .channels import (
    ChannelError,
    LindbladGenerator,
    _choi_minima,
    _preserves_trace,
    apply_superoperators,
    trace_defects,
)
from .linalg import (
    ZERO_EIGENVALUE_RTOL,
    DensityMatrix,
    EigenSystem,
    LinalgError,
    _check_density,
    _density_spectra,
    _diagonal_spectra,
    _entropies,
    _is_diagonal,
    as_matrix,
    check_density_stack,
    hermitian_part,
    require_hermitian,
    spectral_decompose,
)

__all__ = [
    "IntegrationError",
    "TailMassError",
    "Trajectory",
    "propagate",
    "states_off_grid",
    "closed_form_trajectory",
    "intermediate_map",
    "entropy_rate",
    "entropy_rate_fd",
    "DivisibilityReport",
    "IntervalEvidence",
    "cp_divisibility_check",
    "ChannelFamily",
    "GadcFamily",
    "DephasingFamily",
    "damping_qubit_state",
    "oscillating_qubit_state",
    "damping_qubit_trajectory",
    "oscillating_qubit_trajectory",
    "export_trajectory",
]

TRACE_DOT_ATOL = 1e-9
SUPPORT_DOT_ATOL = 1e-8
PROPAGATE_ERROR_TARGET = 1e-7  # trace-norm gap of n- and 2n-step states, per unit time
MAX_REFINEMENTS = 12           # step-count doublings of a propagate interval before it stalls
INTERMEDIATE_MAP_ATOL = 1e-8   # entrywise gap of the n- and 2n-step maps of an interval map
MAX_MAP_DOUBLINGS = 14         # step-count doublings of an interval map before it is unconverged
DIVISIBILITY_CHOI_ATOL = 1e-9  # Choi negativity that cp_divisibility_check still counts as CP
POSITIVITY_SAMPLES = 24        # pure states sampled for a positivity counterexample, from
POSITIVITY_SEED = 11           # this seed, when CP-divisibility fails


class IntegrationError(RuntimeError):
    pass


class TailMassError(IntegrationError):
    """Truncated-mode population escaped past the trusted Fock levels."""


class Trajectory:
    """States and their derivatives on an increasing time grid, as stacks
    whose leading axis is time.

    ``entries`` is the (T, d, d) array of the states of one initial state,
    or (T, N, d, d) for N initial states; ``derivatives``, of the same
    shape, holds their time derivatives, and ``spectrum`` is the stacked
    eigendecomposition of ``entries`` (an :class:`EigenSystem` over the
    batch axes).  Entropies, logarithms on the supports, ranks, entropy
    rates and left-out rates are array expressions over that one spectrum,
    shaped (T,) or (T, N); ``states`` lists every state of the stack as a
    :class:`DensityMatrix` carrying its part of it, in time-major order
    (all N states at the first time, then at the next).  The support check
    at construction computes the expectations <v_i|rho_dot|v_i> of the
    derivatives in the eigenbases once, and both rates read them.

    A trajectory holds its states and derivatives as coordinate rows
    (T, ..., m) of a layout: a trajectory built from ``states`` holds their
    d^2 entries (``_Matrices``), and one from :func:`propagate` the rows it
    was integrated as, those of ``operator``, by maps or RK4 alike.
    ``entries`` and ``derivatives`` are scattered from the rows on first
    read, if :func:`propagate` did not scatter them to validate them; the
    checks, the spectra of a diagonal stack (Fock-diagonal states, whose
    rows are their populations, and whose spectra keep their ``order``),
    :meth:`coordinates`, :func:`states_off_grid` and the Theorem-2 witnesses
    of :mod:`entroflow.witnesses` read the rows.

    The states are validated with one stacked eigh, none for a diagonal
    stack (:func:`check_density_stack`), unless ``spectrum`` passes the stacked
    spectrum of states already validated, so that no state is decomposed
    twice.  ``state_fn`` is set for closed-form trajectories and gives the
    states off the grid without the integrator.  Only :func:`propagate` sets
    ``generator``, ``operator`` (what the states were integrated with,
    :func:`_integration_operator`, which :func:`states_off_grid` and the
    witnesses reuse), ``renormalization_defects`` (the trace defect removed
    at each state) and ``truncated_at`` (the time at which a tail-guard
    breach ended the whole stack); they are None otherwise.
    """

    def __init__(self, grid, states, derivatives, state_fn=None,
                 spectrum: EigenSystem | None = None):
        entries = as_matrix(states)
        if spectrum is None:
            entries, spectrum = check_density_stack(entries)
        layout = _Matrices(entries.shape[-1])
        self._hold(grid, layout, layout.coordinates(entries),
                   layout.coordinates(as_matrix(derivatives)), spectrum, None, None, None, None)
        self.state_fn = state_fn

    @classmethod
    def _integrated(cls, grid, operator, rows: np.ndarray, dot_rows: np.ndarray,
                    spectrum: EigenSystem, states: np.ndarray | None,
                    generator: LindbladGenerator, renormalization_defects: np.ndarray,
                    truncated_at: float | None):
        """A trajectory of :func:`propagate`, holding the coordinate rows of
        ``operator`` that it was integrated as, and as ``entries`` the
        ``states`` scattered from them to validate them, unless None."""
        traj = cls.__new__(cls)
        if states is not None:
            traj.entries = states
        traj._hold(grid, operator, rows, dot_rows, spectrum, generator, operator,
                   renormalization_defects, truncated_at)
        traj.state_fn = None
        return traj

    def _hold(self, grid, layout, rows, dot_rows, spectrum, generator, operator,
              renormalization_defects, truncated_at) -> None:
        self.grid = np.asarray(grid, dtype=float)
        self._layout, self._rows, self._dot_rows = layout, rows, dot_rows
        self.spectrum = spectrum
        self.generator, self.operator = generator, operator
        self.renormalization_defects = renormalization_defects
        self.truncated_at = truncated_at
        self._states: list[DensityMatrix] | None = None
        self._check()

    def _check(self) -> None:
        if len(self.grid) != len(self._rows) or self._rows.shape != self._dot_rows.shape:
            raise IntegrationError("grid, states and derivatives lengths differ")
        _checked_grid(self.grid)
        traces = np.abs(self._dot_rows[..., self._layout.populations].sum(axis=-1))
        _raise_at(traces > TRACE_DOT_ATOL, traces, "Tr(rho_dot)")
        ranks = self.ranks()
        steady = np.full(ranks.shape, len(ranks) > 1)  # rank holds next to k (a lone row: unknown)
        steady[1:] &= ranks[1:] == ranks[:-1]
        steady[:-1] &= ranks[:-1] == ranks[1:]
        self._expectations = _expectations(self._layout, self.spectrum, self._dot_rows)
        pinned = np.abs(self.spectrum.support_sums(self._expectations))
        _raise_at(steady & (pinned > SUPPORT_DOT_ATOL), pinned, "Tr(Pi rho_dot)")

    def __len__(self) -> int:
        return len(self.grid)

    @cached_property
    def entries(self) -> np.ndarray:
        return self._layout.states(self._rows)

    @cached_property
    def derivatives(self) -> np.ndarray:
        return self._layout.states(self._dot_rows)

    def coordinates(self) -> np.ndarray:
        """The states as the coordinate rows (T, ..., m) held: those of
        :attr:`operator` for a propagated trajectory, the d^2 entries of each
        state otherwise."""
        return self._rows

    @property
    def states(self) -> list[DensityMatrix]:
        if self._states is None:
            self._states = [DensityMatrix._from_checked(self.entries[k], self.spectrum[k])
                            for k in np.ndindex(self.spectrum.eigenvalues.shape[:-1])]
        return self._states

    def ranks(self) -> np.ndarray:
        return self.spectrum.support_mask().sum(axis=-1)

    def left_out_rates(self) -> np.ndarray:
        """-sum_{i not in supp} lambda_dot_i (log lambda_i + 1), the entropy rate the
        kernels add to :meth:`entropy_rates`, with kernel eigenvalues floored at eps *
        lambda_max, eigh's rounding: at most about 36 |lambda_dot| for a kernel that does
        not move, 17.5 for |+> at the onset of unit dephasing.  A check that reads the
        rate skips the rows where this exceeds the tolerance it compares the rate with."""
        lam = self.spectrum.eigenvalues
        logs = np.log(np.maximum(lam, np.finfo(float).eps * lam.max(axis=-1, keepdims=True)))
        return -np.where(self.spectrum.support_mask(), 0.0,
                         self._expectations * (logs + 1.0)).sum(axis=-1)

    def entropies(self) -> np.ndarray:
        return self.spectrum.entropies()

    def entropy_rates(self) -> np.ndarray:
        return _entropy_rates(self.spectrum, self._expectations)


def _expectations(layout, spectrum: EigenSystem, rows: np.ndarray) -> np.ndarray:
    """Re <v_i|A|v_i> for the eigenvectors of ``spectrum``, of the operators A
    held as coordinate rows (..., m) of ``layout``: for the spectra of a
    diagonal stack, the real parts of the rows' populations in eigenvalue
    order, with no scatter; otherwise :meth:`EigenSystem.expectations` of
    the scattered stack."""
    if spectrum.order is not None:
        return spectrum.diagonal_expectations(rows[..., layout.populations].real)
    return spectrum.expectations(layout.states(rows))


def _images(apply, times, rows: np.ndarray) -> np.ndarray:
    """``apply`` (an operator's ``apply`` or ``adjoint_apply``) on its
    coordinate rows (T, ..., m) at times (T,), as rows of the same shape:
    one product, with one time per row, float64 for the float64 rows of a
    real restriction."""
    flat = rows.reshape(-1, rows.shape[-1])
    times = np.repeat(np.asarray(times, dtype=float), len(flat) // len(times))
    return apply(times, flat).reshape(rows.shape)


def _checked_grid(grid, points: int = 1) -> np.ndarray:
    """The grid as floats; IntegrationError unless it is one axis of at
    least ``points`` times, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < points:
        raise IntegrationError(f"time grid needs at least {points} finite point{'s' * (points > 1)}"
                               f" on one axis, not shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise IntegrationError("time grid needs finite times")
    if np.any(np.diff(grid) <= 0):
        raise IntegrationError("time grid must be strictly increasing")
    return grid


def _raise_at(bad: np.ndarray, values: np.ndarray, name: str) -> None:
    """IntegrationError naming the first flagged entry of a (T,) or (T, N) mask."""
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        state = f", state {k[1]}" if len(k) > 1 else ""
        raise IntegrationError(f"{name} = {values[k]:.3e} at grid point {k[0]}{state}")


def states_off_grid(traj: Trajectory, columns, times) -> np.ndarray:
    """The state ``columns[c]`` of a propagated stack at ``times[c]`` for every
    c, as one (C, d, d) stack scattered from :func:`_rows_off_grid`; a
    one-state trajectory has the one column 0."""
    return traj.operator.states(_rows_off_grid(traj, columns, times))


def _rows_off_grid(traj: Trajectory, columns, times) -> np.ndarray:
    """The states of :func:`states_off_grid` as (C, m) rows of
    :attr:`Trajectory.operator`, each by certified RK4 from 1 substep
    (:func:`_certified_rk4`) from the stored rows of the grid point nearest
    to its time (the earlier of two at equal distance), all rows together;
    a time on the grid returns the stored row."""
    if traj.generator is None:
        raise IntegrationError("off-grid states need the trajectory's generator")
    times = np.asarray(times, dtype=float)
    nearest = _nearest_points(traj.grid, times)
    ends, dots = (rows.reshape(len(traj), -1, rows.shape[-1])[nearest, columns]
                  for rows in (traj.coordinates(), traj._dot_rows))
    t0 = traj.grid[nearest]
    if (off := times != t0).any():
        ends[off] = _certified_rk4(traj.operator, ends[off, None], dots[off, None], t0[off],
                                   times[off], 1)[0][:, 0]
    return ends


def _nearest_points(grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The index of the grid point nearest to each time, the earlier of two
    at equal distance: the two neighbours of each time by one searchsorted."""
    after = np.clip(np.searchsorted(grid, times), 1, len(grid) - 1)
    return after - (np.abs(grid[after - 1] - times) <= np.abs(grid[after] - times))


def _rk4_segment(generator, rho, t0, t1, substeps: int, k1=None) -> np.ndarray:
    """RK4 from t0 to t1 in equal substeps, for one state or a stack (N, d, d),
    or for the coordinates (N, m) of a :meth:`LindbladGenerator.restricted`
    generator; t0 and t1 may also be arrays, one entry per state or row.  ``k1``,
    when given, is L_{t0}(rho), which the first substep then does not
    recompute.  Real rows of real blocks stay real.  The result is not
    Hermitized.  A substep's stage inputs share one scratch buffer, and its
    stages are summed into ``k2`` in the order of rho + h/6 (k1 + 2 k2 + 2 k3 + k4)."""
    out = np.asarray(rho)
    dt = (t1 - t0) / substeps
    h = dt.reshape((-1,) + (1,) * (out.ndim - 1)) if isinstance(dt, np.ndarray) else dt
    half = 0.5 * h
    for j in range(substeps):
        t = t0 + j * dt
        if j or k1 is None:
            k1 = generator.apply(t, out)
        stage = np.multiply(half, k1)
        stage += out
        k2 = generator.apply(t + 0.5 * dt, stage)
        np.multiply(half, k2, out=stage)
        stage += out
        k3 = generator.apply(t + 0.5 * dt, stage)
        np.multiply(h, k3, out=stage)
        stage += out
        k4 = generator.apply(t + dt, stage)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        k2 += out
        out = k2
    return out


def _certificate(widths, substeps) -> np.ndarray:
    """The certificate of every propagated state: the states that n and
    2n = ``substeps`` steps (RK4, or CF4 maps) carry over an interval of
    width w differ in trace norm by at most max(``PROPAGATE_ERROR_TARGET``
    |w|, 2n eps).  The first is the budget per unit time of the Richardson
    error estimate (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4),
    so the error accumulated over a grid keeps it too; the second the
    rounding of the 2n-step state (rounding alone measured up to 0.47 n eps
    at d = 2 to 8), which more steps cannot shrink, and which the budget
    falls below within about 1e-9 of width."""
    return np.maximum(PROPAGATE_ERROR_TARGET * np.abs(widths), substeps * np.finfo(float).eps)


def _certified_rk4(operator, starts: np.ndarray, dots: np.ndarray, t0: np.ndarray,
                   t1: np.ndarray, substeps: int) -> tuple[np.ndarray, int]:
    """Groups k of coordinate rows (K, N, m) of ``operator`` carried by RK4
    from t0[k] to t1[k], as Hermitized rows, with the substep count at which
    the last group passed.  Every segment starts from the derivative rows
    ``dots``.  The groups take ``substeps``, then twice as many, and each
    group still open doubles again until its n- and 2n-substep rows pass
    :func:`_certificate` (:func:`_gaps_exceed`, all open groups at once).  A
    segment that is not finite, and a group still open after
    ``MAX_REFINEMENTS`` doublings, raise :class:`IntegrationError`."""
    (n_rows, m), widths = starts.shape[1:], t1 - t0
    ends, open_groups = np.empty_like(starts), np.arange(len(starts))

    def segment(count: int) -> np.ndarray:
        """The Hermitized rows of the open groups at t1, in ``count`` substeps."""
        a, b = (np.repeat(t[open_groups], n_rows) for t in (t0, t1))
        end = _rk4_segment(operator, starts[open_groups].reshape(-1, m), a, b, count,
                           dots[open_groups].reshape(-1, m))
        end = _hermitized(operator, end).reshape(-1, n_rows, m)
        if not (finite := np.isfinite(end).all(axis=(1, 2))).all():
            raise IntegrationError(f"state at t={t1[open_groups][~finite][0]:.6g} is not finite")
        return end

    with np.errstate(over="ignore", invalid="ignore"):  # segment() raises on overflow
        trial = segment(substeps)
        for _ in range(MAX_REFINEMENTS):
            substeps *= 2
            refined = segment(substeps)
            budgets = _certificate(widths[open_groups], substeps)
            over = _gaps_exceed(operator, trial - refined, budgets)
            ends[open_groups] = refined
            open_groups, trial = open_groups[over], refined[over]
            if not len(open_groups):
                return ends, substeps
    k = open_groups[0]
    raise IntegrationError(_stall_message(t0[k], t1[k]))


# ||X||_F <= ||X||_1 <= sqrt(d) ||X||_F decides a trace-norm test without an
# eigensolver unless the value lies within this relative margin of the
# bracket's ends, where rounding of the two norms could disagree.
_BRACKET_MARGIN = 1e-9


def _gaps_exceed(operator, gap: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Per k of a (K, N, m) stack of Hermitian differences held as
    coordinate rows of ``operator``, whether the largest trace norm of the
    N differences gap[k] exceeds budgets[k]: read from the Frobenius
    bracket where it decides, otherwise from one eigvalsh of the
    differences it leaves open, scattered to d x d.  Real rows add no
    imaginary parts to the squares."""
    squares = np.einsum("knm,knm->kn", gap.real, gap.real)
    if np.iscomplexobj(gap):
        squares += np.einsum("knm,knm->kn", gap.imag, gap.imag)
    frobenius = np.sqrt(squares.max(axis=-1))
    over = frobenius > budgets * (1.0 + _BRACKET_MARGIN)
    undecided = ~over & (np.sqrt(operator.dim) * frobenius > budgets * (1.0 - _BRACKET_MARGIN))
    if undecided.any():
        norms = np.abs(np.linalg.eigvalsh(operator.states(gap[undecided]))).sum(axis=-1)
        over[undecided] = norms.max(axis=-1) > budgets[undecided]
    return over


def _hermitized(operator, z: np.ndarray) -> np.ndarray:
    """The Hermitian parts (z + z^dag) / 2 of the matrices held as
    coordinate rows (..., m) of ``operator``, through the transpose
    permutation of the coordinates, as new rows; real rows are not
    conjugated."""
    out = z[..., operator.transpose]
    if np.iscomplexobj(out):
        np.conjugate(out, out=out)
    out += z
    out *= 0.5
    return out


def _renormalized(operator, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of exactly Hermitian matrices divided in place by their real
    traces, the sums of their population coordinates, and those traces.
    Divided by real traces the matrices stay exactly Hermitian.  A trace
    cancelled to 0 (states of a generator that is not CP grow) leaves its
    row as it is, for the validation to refuse."""
    traces = np.real(rows[..., operator.populations].sum(axis=-1))
    np.divide(rows, traces[..., None], out=rows, where=traces[..., None] != 0.0)
    return rows, traces


def _validated_rows(operator, rows: np.ndarray,
                    grid: np.ndarray) -> tuple[EigenSystem, np.ndarray | None]:
    """The spectra and the states (None when unscattered) held as coordinate
    rows (T, N, m) of ``operator`` on the grid, after the PSD and trace
    checks: the one validation of propagated states.  The checks read the
    rows when they are the d populations alone, with no scatter; otherwise,
    or when a population is not finite or a check fails, the states are
    scattered for one eigh (none for a diagonal stack), and a failing state
    is an integration failure that names the first failing time."""
    if operator.populations_only:
        populations = rows[..., operator.populations].real
        if np.isfinite(populations).all():
            spectrum = _diagonal_spectra(populations)
            try:
                _check_density(spectrum.eigenvalues[..., -1], populations.sum(axis=-1))
                return spectrum, None
            except LinalgError:
                pass
    states = operator.states(rows)
    try:
        return _density_spectra(states), states
    except LinalgError:
        for t, row in zip(grid, states):
            try:
                _density_spectra(row)
            except LinalgError as exc:
                raise IntegrationError(f"state at t={t:.6g} lost positivity: {exc}") from exc
        raise


def _loop_failure(operator, rows: np.ndarray, grid: np.ndarray, message: str) -> IntegrationError:
    """The error ``message`` that ends an integrator's loop, once the states
    it reached, held as rows (T', N, m) of ``operator``, are validated: a
    state that lost positivity is named first, before a later stall or
    overflow."""
    _validated_rows(operator, rows, grid)
    return IntegrationError(message)


def _state_stack(states, dim: int, owner: str) -> np.ndarray:
    """One state as a (d, d) array or several as an (N, d, d) stack: a
    :class:`DensityMatrix` or an array as it is, any other iterable stacked.
    States of another dimension than ``dim``, that of the ``owner``
    ("generator" or "family"), raise :class:`IntegrationError` naming both."""
    stack = (as_matrix(states) if isinstance(states, (DensityMatrix, np.ndarray))
             else np.stack([as_matrix(rho) for rho in states]))
    if stack.shape[-2:] != (dim, dim):
        raise IntegrationError(f"states of shape {stack.shape[-2:]} do not match the "
                               f"{owner}'s dimension {dim}")
    return stack


class _Matrices:
    """The coordinates of (..., d, d) stacks as they are: the d^2 entries of
    each matrix in row-major order, as (..., d^2) rows, with the interface
    of a dense restriction's (``index``, ``transpose``, ``populations``,
    ``populations_only``, ``coordinates``, ``states``); reshapes, no copies."""

    populations_only = False

    def __init__(self, dim: int):
        self.dim = dim
        self.index = np.arange(dim * dim)
        self.transpose = self.index.reshape(dim, dim).T.ravel()
        self.populations = self.index[::dim + 1]

    @staticmethod
    def coordinates(states: np.ndarray) -> np.ndarray:
        return states.reshape(states.shape[:-2] + (-1,))

    def states(self, rows: np.ndarray) -> np.ndarray:
        return rows.reshape(rows.shape[:-1] + (self.dim, self.dim))


class _WholeStates(_Matrices):
    """A generator acting on whole states: the coordinates ``propagate``
    integrates are the entries of the states (:class:`_Matrices`), and
    ``apply`` and ``adjoint_apply`` are the generator's sparse products on
    them, one time per row or one for all."""

    def __init__(self, generator: LindbladGenerator):
        super().__init__(generator.dim)
        self._generator = generator

    def apply(self, t, rows: np.ndarray) -> np.ndarray:
        return self._generator.apply(t, rows.reshape(-1, self.dim, self.dim)).reshape(rows.shape)

    def adjoint_apply(self, t, rows: np.ndarray) -> np.ndarray:
        return self._generator.adjoint_apply(
            t, rows.reshape(-1, self.dim, self.dim)).reshape(rows.shape)


# Restrictions up to this many coordinates, or up to d, are propagated as
# dense m x m products even when m > d.  The limit was measured on the RK4
# apply: up to m = 25 one dense (N, m) x (m, m) apply took 3-8 us against
# 6-14 us for the sparse product's dispatch (N = 1-16 states, on a 2-core
# host), the two were level near m = 36-64, and the sparse one led at
# m = 100.  Within the limit every restriction takes the interval maps, as
# every stack of a qubit, qutrit or d = 4 generator does.  Past it, as for
# the m = d populations of a Fock-diagonal stack of a phase-insensitive
# bosonic generator, the maps win only for time-independent generators; a
# time-dependent restriction runs RK4 instead.  On one generic invariant
# set, 41 grid points and N = 1 (2-core host), the maps against RK4 took:
# - time-independent: 0.008 vs 0.037 s at m = 64, 0.019 vs 0.077 s at
#   m = 144 and 0.15 vs 0.39 s at m = 400;
# - time-dependent: 0.37 vs 0.04 s at m = 64 and 17.8 vs 0.74 s at
#   m = 400, since every interval builds and certifies its own CF4 maps.
# A thermal start (N = 0.2, rates 0.2 cos^2(t) up and 1.2 down, 101 points
# on [0, 5]) took, with its population rows in complex128 -> in float64
# (medians of 5 warm processes, each the best of 11 runs, 2 for the
# cutoff-80 maps; one BLAS thread, 2-core host):
# - cutoff 40: 0.14 -> 0.10 s by the maps, 0.028 -> 0.027 s by RK4 on the
#   restriction, and 0.065 / 0.061 s by RK4 on the sparse generator, whose
#   rows stay complex;
# - cutoff 80: 0.67 -> 0.53 s, 0.066 -> 0.053 s and 0.28 / 0.29 s.
# The states of the maps and of RK4 differ by at most 5.0e-10 entrywise.
# The coherent union of a cutoff-40 mode (m = 1600) would also need a
# 1600 x 1600 expm, about 4 s, for each distinct interval width.
_DENSE_COORDINATES = 16


def _integration_operator(generator: LindbladGenerator, states: np.ndarray):
    """What ``propagate`` integrates an (N, d, d) stack with, and keeps on
    the trajectory for ``states_off_grid`` and the witnesses: the generator
    restricted to the union of its invariant sets that the stack touches
    (all of them: the one kept whole-space restriction), when that union
    holds m <= max(d, 16) coordinates (``_DENSE_COORDINATES``); otherwise the
    whole generator.  Every generator has a fixed pattern, hence invariant
    sets, so every later state of the stack lies in the same union."""
    labels = generator.invariant_sets()
    touched = np.any(states.reshape(len(states), -1) != 0, axis=0)
    index = np.flatnonzero(np.isin(labels, labels[touched]))
    if len(index) <= max(generator.dim, _DENSE_COORDINATES):
        return generator.restricted(index)
    return _WholeStates(generator)


def propagate(generator: LindbladGenerator, states, grid,
              on_tail_breach: str = "raise") -> Trajectory:
    """Integrate rho_dot = L_t(rho_t) over the grid from one initial state, or
    from a sequence or (N, d, d) stack of them.

    Returns one :class:`Trajectory`: (T, d, d) for one state, (T, N, d, d)
    for a stack.  The initial states must be Hermitian within
    ``HERMITICITY_ATOL``; the first that is not raises
    :class:`IntegrationError` with its index.  The states are advanced
    together as one stack.  Every grid interval doubles its step count n,
    at most ``MAX_REFINEMENTS`` times or the integrator stalls, until its
    n- and 2n-step states pass :func:`_certificate` (:func:`_gaps_exceed`).

    Every generator has a fixed pattern and invariant sets
    (:meth:`LindbladGenerator.invariant_sets`).  When the sets that the
    initial stack touches hold m <= max(d, 16) coordinates, as a
    Fock-diagonal start of a phase-insensitive bosonic generator does (its
    d populations) and every stack of a generator with d <= 4 does, the
    stack is propagated as (N, m) coordinate rows of the generator's dense
    restriction to them, otherwise as the d^2 entries of the states.  When
    m <= 16 or the generator is time-independent, the rows go through the
    m x m maps of the grid intervals, all built at once
    (:func:`_map_intervals`): commutator-free 4th-order Magnus steps, exact
    for a time-independent generator, whose maps are then one exponential
    per interval width.  Classical RK4 runs interval by interval
    (:func:`_rk4_intervals`) on the rows of a time-dependent restriction
    with m > 16, where every interval would build and certify its own maps
    (``_DENSE_COORDINATES`` has the timings), and on the whole generator's
    sparse ``apply``.

    Either integrator Hermitizes and trace-renormalizes each state once, on
    the rows (:func:`_renormalized`; the defect is logged per state), and
    stops at the first grid point where the generator's tail guard sees a
    population breach of any state.  The states up to there are validated
    once, by one eigh of the scattered states, or from the rows when they
    are the d populations (:func:`_validated_rows`); a state failing the PSD
    check is an integration failure, named by its time, also before a later
    stall or overflow (:func:`_loop_failure`).  A breach either raises
    (``on_tail_breach="raise"``) or ends the whole stack at its last trusted
    grid point (``"truncate"``), with ``truncated_at`` the time of the
    breach; fewer than 3 trusted points raise :class:`TailMassError` either
    way.  The trajectory holds the rows with the operator, and the states
    scattered to validate them as its ``entries`` (:meth:`Trajectory._integrated`).

    The rows take their dtype from the data: float64 where the restriction
    holds the populations alone with real blocks and the start's
    populations are real, as for every Fock-diagonal start of a
    phase-insensitive bosonic generator
    (:class:`~entroflow.channels._Restriction`), and complex128 otherwise.
    Both integrators, the interval maps and the off-grid states carry that
    dtype, and so do the states and derivatives scattered from the rows.
    """
    grid = _checked_grid(grid)
    if on_tail_breach not in ("raise", "truncate"):
        raise ValueError("on_tail_breach must be 'raise' or 'truncate'")

    stack = _state_stack(states, generator.dim, "generator")
    single = stack.ndim == 2
    try:
        initial = require_hermitian(stack[None] if single else stack, name="initial state")
    except LinalgError as exc:
        raise IntegrationError(str(exc)) from exc
    operator = _integration_operator(generator, initial)
    start, traces = _renormalized(operator, operator.coordinates(initial))
    by_maps = not isinstance(operator, _WholeStates) and (
        operator.time_independent or len(operator.index) <= _DENSE_COORDINATES)
    guard = generator.tail_guard
    rows, dots, defects, breach = (_map_intervals if by_maps else _rk4_intervals)(
        operator, guard, grid, start, np.abs(traces - 1.0))
    spectrum, states = _validated_rows(operator, rows, grid)

    truncated_at = None
    if breach is not None:
        if on_tail_breach == "raise":
            tails = guard.tails(rows[breach][..., operator.populations].real)
            raise TailMassError(f"tail mass {tails.max():.3e} exceeds {guard.bound:.1e} "
                                f"at t={grid[breach]:.6g}")
        if breach < 3:
            raise TailMassError("tail guard tripped before any usable grid point")
        truncated_at = float(grid[breach])
    length = len(dots)
    part = (slice(length), 0) if single else slice(length)
    return Trajectory._integrated(grid[:length], operator, rows[part], dots[part], spectrum[part],
                                  None if states is None else states[part], generator,
                                  defects[part], truncated_at)


def _stall_message(t0: float, t1: float) -> str:
    return (f"integrator stalled on [{t0:.6g}, {t1:.6g}]: no convergence to "
            f"{PROPAGATE_ERROR_TARGET * abs(t1 - t0):.1e} within {MAX_REFINEMENTS} doublings")


def _breaching(guard, operator, rows: np.ndarray) -> np.ndarray:
    """Per grid point of the rows (T, N, m), whether the population of the
    guarded top levels of any of its states exceeds the guard's bound."""
    return np.any(guard.tails(rows[..., operator.populations].real) > guard.bound, axis=-1)


# ||rho||_F <= Tr rho = 1 for a density matrix.  RK4 stops at a state past
# this bound: once the states of a generator that is not CP leave the
# density matrices they may grow without bound, chased by ever more substeps.
_UNBOUNDED_FROBENIUS = np.sqrt(2.0)


def _rk4_intervals(operator, guard, grid, start, defect):
    """:func:`propagate` by classical RK4 with step doubling, interval by
    interval, from the renormalized initial rows ``start`` (N, m) of
    ``operator`` and their trace defects.  Returns the states as Hermitized
    and renormalized (T', N, m) rows up to the first grid point at which
    ``guard`` sees a breach, that one included, their derivatives and trace
    defects up to the point before it, and that point (None when the guard
    sees none, and then all three run over the whole grid).

    Each interval is one :func:`_certified_rk4` call, whose every segment
    starts from the derivative L_{t_k}(rho_k) stored for grid point k, so
    the first RK4 stage is shared by the trial, the refined segment and
    every further refinement, and the substep count starts from half the
    last interval's.  The bracket decides as an eigvalsh test would, so the
    substep counts and the states are those of the plain loop; on a dense
    restriction they differ from the whole generator's by the summation
    order of the products only.  A stall, a segment that is not finite
    (stages that overflowed at huge rates) and a state whose Frobenius norm
    passes ``_UNBOUNDED_FROBENIUS`` end the loop (:func:`_loop_failure`).
    """
    rows = np.empty((len(grid),) + start.shape, dtype=start.dtype)
    dots = np.empty_like(rows)
    defects = np.empty(rows.shape[:-1])
    rows[0], defects[0] = start, defect
    substeps = 1
    for k in range(len(grid) - 1):
        dots[k] = operator.apply(float(grid[k]), rows[k])
        try:
            ends, substeps = _certified_rk4(operator, rows[k][None], dots[k][None], grid[k:k + 1],
                                            grid[k + 1:k + 2], max(1, substeps // 2))
        except IntegrationError as exc:
            raise _loop_failure(operator, rows[:k + 1], grid, str(exc)) from exc
        rows[k + 1], traces = _renormalized(operator, ends[0])
        defects[k + 1] = np.abs(traces - 1.0)
        if np.linalg.norm(rows[k + 1], axis=-1).max() > _UNBOUNDED_FROBENIUS:
            raise _loop_failure(operator, rows[:k + 2], grid,
                                f"state at t={grid[k + 1]:.6g} is no density matrix")
        if guard is not None and _breaching(guard, operator, rows[k + 1]):
            return rows[:k + 2], dots[:k + 1], defects[:k + 1], k + 1
    dots[-1] = operator.apply(float(grid[-1]), rows[-1])
    return rows, dots, defects, None


# Commutator-free 4th-order Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep.
# 470, 151 (2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)):
# generators at the two Gauss points, mixed with these weights into two
# exponentials per step.
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)

# Interval widths within this relative distance of each other share one
# exponential: the widths of a linspace grid differ by rounding only (on
# 101 points, 8 distinct widths within 8.9e-16 of each other).
_WIDTH_RTOL = 1e-12


# Scaling and squaring with diagonal Padé approximants r_m = p_m / q_m,
# Algorithm 6.1 of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
# (2009), with exact 1-norms.  The coefficients of p_m(x) = sum_j b_j x^j,
# b_j = (2m - j)! / (j! (m - j)!) (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005)); the largest eta = max_k ||A^k||_1^(1/k) at which r_m is exp
# to unit roundoff (theta_m); and the leading coefficient c_(2m+1) =
# (m!)^2 / ((2m)! (2m + 1)!) of its backward-error series, which sets the
# over-scaling correction ell(A, m).
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_COEFFICIENTS = {m: tuple(float(math.factorial(2 * m - j)
                                     // (math.factorial(j) * math.factorial(m - j)))
                               for j in range(m + 1)) for m in _PADE_DEGREES}
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 4.25}
_PADE_ERROR = {m: math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
               for m in _PADE_DEGREES}
_UNIT_ROUNDOFF = 2.0 ** -53


def expm(a: np.ndarray) -> np.ndarray:
    """The exponentials of a stack (..., m, m) of matrices.

    A stack with no nonzero entry off its diagonals takes one elementwise
    exp of its diagonals, scattered into zeros: scipy.linalg.expm's own
    branch for a diagonal matrix, which it takes one matrix at a time, so
    every dephasing map is the same bits as there.  Any other stack takes
    :func:`_pade_expm`, one batched Padé approximant in numpy, in the
    stack's dtype: float64 for a float64 stack, such as the exponents of
    a Fock population restriction, whose blocks are real
    (:class:`~entroflow.channels._Restriction`).  A complex stack with no
    imaginary part, such as the exponents of a real-entried qubit
    restriction with coherences, is exponentiated in real arithmetic,
    which halves its cost, and returned as complex.
    """
    if _is_diagonal(a):
        out = np.zeros(a.shape, dtype=np.result_type(a.dtype, 1.0))
        diagonals = np.einsum("...ii->...i", out)
        diagonals[...] = np.exp(np.diagonal(a, axis1=-2, axis2=-1))
        return out
    if np.iscomplexobj(a) and not a.imag.any():
        return _pade_expm(a.real).astype(a.dtype)
    return _pade_expm(a)


def _pade_expm(a: np.ndarray) -> np.ndarray:
    """exp of a stack (..., m, m) by scaling and squaring: Algorithm 6.1 of
    Al-Mohy & Higham with exact 1-norms, scipy.linalg.expm's algorithm, with
    one Padé degree m for the whole stack and a squaring count s per matrix.

    Both follow from eta_k = ||A^k||_1^(1/k), with A^2, A^4 and A^6 (and
    A^8 and A^10 past degree 5) the powers of the unscaled stack: m from the
    stack's largest eta, s from each matrix's own, so that a small matrix
    is not squared as often as the largest and loses nothing to it.
    :func:`_overscaling` moves the degree up, or adds squarings, while the
    leading term of the backward error exceeds unit roundoff.  r_m is one
    batched solve, then max(s) batched squarings.  A matrix whose A^6 or A^8
    has no finite 1-norm (non-finite entries, or powers that overflow:
    scipy's own norms overflow there too) is left out of the choice and
    gets NaN, with no exception; in the callers' errstate, silently.
    """
    a = a.astype(np.result_type(a.dtype, 1.0), copy=False)
    powers = {1: a, 2: a @ a}
    powers[4] = powers[2] @ powers[2]
    powers[6] = powers[4] @ powers[2]
    norms = {k: _one_norms(powers[k]) for k in (4, 6)}
    lost = ~np.isfinite(norms[6])
    powers, norms = _dropped(powers, norms, lost)
    eta = max(norms[4].max() ** (1 / 4), norms[6].max() ** (1 / 6))
    for m in (3, 5):
        if eta <= _PADE_THETA[m] and not _overscaling(powers[1], m).any():
            return _squared(_pade(powers, m), 0, lost)
    powers[8] = powers[4] @ powers[4]
    norms[8] = _one_norms(powers[8])
    lost = lost | ~np.isfinite(norms[8])
    powers, norms = _dropped(powers, norms, lost)
    eta = np.maximum(norms[6] ** (1 / 6), norms[8] ** (1 / 8))
    for m in (7, 9):
        if eta.max() <= _PADE_THETA[m] and not _overscaling(powers[1], m).any():
            return _squared(_pade(powers, m), 0, lost)
    eta = np.minimum(eta, np.maximum(norms[8] ** (1 / 8), _one_norms(powers[4] @ powers[6]) ** (1 / 10)))
    s = np.ceil(np.log2(np.maximum(eta / _PADE_THETA[13], 1.0))).astype(int)
    s += _overscaling(powers[1] * 2.0 ** -s[..., None, None], 13)
    scale = 2.0 ** -s[..., None, None]
    return _squared(_pade({k: powers[k] * scale ** k for k in (1, 2, 4, 6)}, 13), s, lost)


def _one_norms(a: np.ndarray) -> np.ndarray:
    """The 1-norms (largest absolute column sums) of a stack (..., m, m)."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _dropped(powers: dict, norms: dict, lost: np.ndarray) -> tuple[dict, dict]:
    """The powers and their norms with the ``lost`` matrices set to zero, so
    that nothing downstream reads their non-finite entries."""
    if not lost.any():
        return powers, norms
    return ({k: np.where(lost[..., None, None], 0.0, p) for k, p in powers.items()},
            {k: np.where(lost, 0.0, n) for k, n in norms.items()})


def _overscaling(a: np.ndarray, m: int) -> np.ndarray:
    """ell(A, m) of Al-Mohy & Higham for each matrix of a stack: the
    squarings that take alpha = c_(2m+1) || |A|^(2m+1) ||_1 / ||A||_1 down to
    unit roundoff.  |A| is nonnegative, so || |A|^(2m+1) ||_1 is the largest
    entry of 1^T |A|^(2m+1): 2m + 1 vector-matrix products, skipped where
    alpha <= c_(2m+1) ||A||_1^(2m) already gives ell = 0.  A product that
    overflows counts as the largest float."""
    absolute = np.abs(a)
    norms = absolute.sum(axis=-2).max(axis=-1)
    if norms.max() <= (_UNIT_ROUNDOFF / _PADE_ERROR[m]) ** (1 / (2 * m)):
        return np.zeros(norms.shape, dtype=int)
    v = np.ones(a.shape[:-2] + (1, a.shape[-1]))
    for _ in range(2 * m + 1):
        v = v @ absolute
    alpha = _PADE_ERROR[m] * v.max(axis=(-2, -1)) / np.where(norms > 0.0, norms, 1.0)
    alpha = np.fmin(alpha, np.finfo(float).max)
    bits = np.log2(np.maximum(alpha, _UNIT_ROUNDOFF)) - np.log2(_UNIT_ROUNDOFF)
    return np.ceil(bits / (2 * m)).astype(int)


def _pade(powers: dict, m: int) -> np.ndarray:
    """r_m(A) from the powers of A, in Higham's (2005) form: p_m = V + U and
    q_m = V - U, with U the odd part and V the even part of p_m, as
    I + 2 q_m^-1 U, which keeps the rounding of the identity out of a small
    exponent's result."""
    b = _PADE_COEFFICIENTS[m]
    eye = np.eye(powers[1].shape[-1], dtype=powers[1].dtype)
    if m == 13:
        a2, a4, a6 = powers[2], powers[4], powers[6]
        u = powers[1] @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                         + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    else:
        even = [eye] + [powers[k] for k in range(2, m, 2)]
        u = powers[1] @ sum(b[k + 1] * p for k, p in zip(range(0, m, 2), even))
        v = sum(b[k] * p for k, p in zip(range(0, m, 2), even))
    return np.linalg.solve(v - u, 2.0 * u) + eye


def _squared(x: np.ndarray, s, lost: np.ndarray) -> np.ndarray:
    """Each matrix of x squared its own s times (s an array, or 0), in
    max(s) batched products, with NaN for the ``lost`` matrices."""
    for step in range(int(np.max(s))):
        x = np.where((s > step)[..., None, None], x @ x, x)
    x[lost] = np.nan
    return x


def _cf4_maps(operator, starts: np.ndarray, widths: np.ndarray, steps: int) -> np.ndarray:
    """The (K, m, m) maps of the intervals [t, t + h] of a dense restriction
    in ``steps`` equal CF4 steps each, in its row convention: a step of
    length s from tau is y -> y exp(s (a2 G1 + a1 G2)) exp(s (a1 G1 + a2 G2))
    with G1, G2 = G(tau + (1/2 -+ sqrt(3)/6) s).  The rates of all Gauss
    points come from one array call per term, the exponentials from one
    batched expm, and the steps, a power of two, are multiplied in pairs;
    exponentials that overflowed give maps that are not finite, silently."""
    (c1, c2), (a1, a2) = _GAUSS_NODES, _CF4_WEIGHTS
    s = (widths / steps)[:, None]
    tau = starts[:, None] + s * np.arange(steps)
    g1, g2 = operator.generators(tau + c1 * s), operator.generators(tau + c2 * s)
    s = s[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        maps = expm(s * (a2 * g1 + a1 * g2)) @ expm(s * (a1 * g1 + a2 * g2))
        while maps.shape[1] > 1:
            maps = maps[:, 0::2] @ maps[:, 1::2]
    return maps[:, 0]


def _width_maps(operator, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map exp(h G) of a time-independent dense restriction for each
    distinct interval width h, and the index of each interval's width.

    Widths within ``_WIDTH_RTOL`` of the smallest of their group share its
    exponential E: exp((w + delta) G) = E exp(delta G), and the residual
    factor is I + delta G to rounding, since delta ||G|| stays near 1e-13.
    Exponentials that overflowed give maps that are not finite, silently.
    """
    unique, which = np.unique(widths, return_inverse=True)
    leads = []
    for i, width in enumerate(unique):
        if not leads or width > unique[leads[-1]] * (1.0 + _WIDTH_RTOL):
            leads.append(i)
    group = np.searchsorted(leads, np.arange(len(unique)), side="right") - 1
    g = operator.generators(np.array(0.0))
    residual = (unique - unique[leads][group])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        exps = expm(unique[leads][:, None, None] * g)
        return exps[group] + residual * (exps @ g)[group], which


def _regrow(operator, starts: np.ndarray, widths: np.ndarray, counts: np.ndarray,
            coarse: np.ndarray, fine: np.ndarray, grow: np.ndarray) -> None:
    """Double, in place, the step count n of the intervals ``grow``, one
    :func:`_cf4_maps` call per count."""
    counts[grow] *= 2
    coarse[grow] = fine[grow]
    for steps in np.unique(counts[grow]):
        pick = grow & (counts == steps)
        fine[pick] = _cf4_maps(operator, starts[pick], widths[pick], 2 * steps)


def _map_intervals(operator, guard, grid, start, defect):
    """:func:`propagate` on a dense restriction by the maps of its grid
    intervals, with the arguments and results of :func:`_rk4_intervals`.

    A time-independent restriction takes one exponential per interval width
    (:func:`_width_maps`); CF4 is exact for it, so the n- and 2n-step maps
    coincide and the certificate holds by construction.  Otherwise every
    interval gets its 1- and 2-step CF4 maps at once (:func:`_cf4_maps`).
    The rows are chained through the 2n-step maps, and every interval up to
    the first tail breach holds the states its n- and 2n-step maps carry
    from the chained state at its start to :func:`_certificate`.  The first
    that fails starts from a settled state and doubles its n alone until it
    passes; every later one that failed doubles once (:func:`_regrow`), and
    the chain is redone from the first.  So a run chains about as often as
    an interval doubles, and a stall costs one interval's doublings.  An
    interval past ``MAX_REFINEMENTS`` doublings and chained rows that are
    not finite (maps overflowed at huge rates) end it (:func:`_loop_failure`).

    The chained rows are Hermitized and divided by their traces
    (:func:`_hermitized`, :func:`_renormalized`); each state logs the trace
    defect its interval map left.  The tail guard reads the population rows,
    and the derivatives up to the first breach are one product with G(t_k).
    """
    n_states, m = start.shape
    widths = np.diff(grid)
    z = np.empty((len(grid), n_states, m), dtype=start.dtype)
    z[0] = start

    def settle(maps: np.ndarray, which: np.ndarray, first: int):
        """Chain the maps on from grid point ``first``; the renormalized
        rows (the start as it is), their traces before the division and the
        first breaching grid point (None)."""
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(first, len(which)):
                np.dot(z[k], maps[which[k]], out=z[k + 1])
        finite = np.isfinite(z).all(axis=(1, 2))
        if not finite.all():
            reached = int(np.argmin(finite))
            with np.errstate(all="ignore"):  # rows near the float limit
                rows = _renormalized(operator, _hermitized(operator, z[:reached]))[0]
                raise _loop_failure(operator, rows, grid,
                                    f"state at t={grid[reached]:.6g} is not finite")
        rows, traces = _renormalized(operator, _hermitized(operator, z))
        rows[0] = z[0]
        if guard is None:
            return rows, traces, None
        over = _breaching(guard, operator, rows[1:])
        return rows, traces, (1 + int(np.argmax(over)) if over.any() else None)

    if operator.time_independent:
        rows, traces, breach = settle(*_width_maps(operator, widths), 0)
    else:
        starts, which = grid[:-1], np.arange(len(widths))
        counts = np.ones(len(widths), dtype=int)
        coarse, fine = (_cf4_maps(operator, starts, widths, steps) for steps in (1, 2))
        most = 2 ** (MAX_REFINEMENTS - 1)  # the coarse count of an interval's last comparison

        def exceed(lo: int, hi: int) -> np.ndarray:
            """Whether the n- and 2n-step maps of intervals lo..hi - 1 carry
            the chained rows at their starts further apart than the certificate."""
            gaps = np.matmul(rows[lo:hi], fine[lo:hi] - coarse[lo:hi])
            return _gaps_exceed(operator, _hermitized(operator, gaps),
                                _certificate(widths[lo:hi], 2 * counts[lo:hi]))

        first = 0
        while True:
            rows, traces, breach = settle(fine, which, first)
            stop = len(widths) if breach is None else breach
            failing = np.zeros(len(widths), dtype=bool)
            failing[first:stop] = exceed(first, stop)
            if not failing.any():
                break
            first = int(np.argmax(failing))
            while failing[first]:  # its start is settled: no chain is redone
                if counts[first] >= most:
                    stall = _stall_message(grid[first], grid[first + 1])
                    raise _loop_failure(operator, rows[:first + 1], grid, stall)
                _regrow(operator, starts, widths, counts, coarse, fine, which == first)
                failing[first] = exceed(first, first + 1)[0]
            _regrow(operator, starts, widths, counts, coarse, fine, failing & (counts < most))

    length = len(grid) if breach is None else breach
    defects = np.empty((length, n_states))
    defects[0] = defect
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero trace fails the validation
        defects[1:] = np.abs(traces[1:length] / traces[:length - 1] - 1.0)
    return rows[:length + 1], _images(operator.apply, grid[:length], rows[:length]), defects, breach


def closed_form_trajectory(state_fn, grid, derivative_fn) -> Trajectory:
    """Trajectory from closed-form callables of the state and of its time
    derivative (at a rank-change instant, its right limit), bypassing the
    integrator.

    Both take an array of times (T,) and return the (T, ..., d, d) stack of
    their values at every time; each is called once, on the whole grid, and
    ``state_fn`` is kept for :func:`entropy_rate_fd`, which calls it once on
    all its stencil times."""
    grid = _checked_grid(grid)
    states = hermitian_part(as_matrix(state_fn(grid)))
    return Trajectory(grid, states, hermitian_part(as_matrix(derivative_fn(grid))),
                      state_fn=state_fn)


def _certified_maps(operator, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The (K, m, m) row-convention maps of the intervals [starts, starts +
    widths] at once: exact exponentials for a time-independent generator,
    else CF4 maps from one step, each interval doubling its count, at most
    ``MAX_MAP_DOUBLINGS`` times, until its n- and 2n-step maps agree
    entrywise within ``INTERMEDIATE_MAP_ATOL``.  A map that is not finite
    (exponentials that overflowed at huge rates) ends it at once, as
    :func:`_finite_maps` states."""
    if operator.time_independent:
        maps, which = _width_maps(operator, widths)
        return _finite_maps(maps[which], starts, widths)
    counts = np.ones(len(widths), dtype=int)
    coarse, fine = (_cf4_maps(operator, starts, widths, n) for n in (1, 2))
    most = 2 ** (MAX_MAP_DOUBLINGS - 1)
    while (failing := ~(np.max(np.abs(_finite_maps(fine, starts, widths) - coarse),
                               axis=(-2, -1)) <= INTERMEDIATE_MAP_ATOL)).any():
        if counts[int(np.argmax(failing))] >= most:
            raise IntegrationError(f"time-ordered product did not converge to "
                                   f"{INTERMEDIATE_MAP_ATOL:.1e} within {MAX_MAP_DOUBLINGS} doublings")
        _regrow(operator, starts, widths, counts, coarse, fine, failing & (counts < most))
    return fine


def _finite_maps(maps: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The maps of the intervals [starts, starts + widths], refused with an
    :class:`IntegrationError` naming the first interval whose map has an
    entry that is not finite; no doubling of its steps mends an overflow."""
    broken = ~np.isfinite(maps).all(axis=(-2, -1))
    if broken.any():
        k = int(np.argmax(broken))
        raise IntegrationError(f"interval map over [{starts[k]:.6g}, {starts[k] + widths[k]:.6g}] "
                               f"is not finite")
    return maps


def _interval_maps(generator, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The maps of the intervals [starts, starts + widths] as a (K, d^2, d^2)
    stack: :func:`_certified_maps` on the generator's whole-space restriction,
    transposed (G(t) is the transposed L_t) to the channels' convention."""
    whole = generator.restricted(_Matrices(generator.dim).index)
    return np.swapaxes(_certified_maps(whole, starts, widths), -1, -2)


def intermediate_map(generator: LindbladGenerator, s: float, t: float) -> np.ndarray:
    """Propagator M_{t,s} as a (d^2, d^2) array in the row-stacking
    convention: the one-interval case of :func:`_interval_maps`, certified
    as :func:`_certified_maps` states; off-grid states take RK4 instead."""
    if not (np.isfinite(s) and np.isfinite(t) and s <= t):
        raise IntegrationError("intermediate map requires s <= t, both finite")
    return _interval_maps(generator, np.array([float(s)]), np.array([t - s]))[0]


def entropy_rate(rho, rho_dot):
    """dS/dt = -Tr{rho_dot log rho} with the logarithm taken on supp(rho),
    read in the eigenbasis of rho as -sum_i log(lambda_i) <v_i|rho_dot|v_i>.

    One state gives a float.  A stack of states (or their stacked
    :class:`EigenSystem`) with a stack of derivatives gives an array.
    """
    dot = as_matrix(rho_dot)
    tr = np.max(np.abs(np.trace(dot, axis1=-2, axis2=-1)))
    if tr > TRACE_DOT_ATOL:
        raise ValueError(f"state derivative must be traceless, got Tr = {tr:.3e}")
    es = spectral_decompose(rho)
    rates = _entropy_rates(es, es.expectations(dot))
    return float(rates) if rates.ndim == 0 else rates


def _entropy_rates(spectrum: EigenSystem, expectations: np.ndarray) -> np.ndarray:
    """-sum_i log(lambda_i) <v_i|rho_dot|v_i> over the supports, from the
    expectations of the derivatives in the eigenbases."""
    return -np.sum(spectrum.support_logs() * expectations, axis=-1)


def entropy_rate_fd(traj: Trajectory, index, h: float = 1e-4):
    """Finite-difference entropy rate of a one-state trajectory at the grid
    point ``index``, as an oracle: a float for an int index, an array for an
    array of indices.

    Central differences (S(t+h) - S(t-h)) / 2h using the closed form when the
    trajectory has one, a short local integration when it has a generator,
    and the neighboring grid states otherwise (then h is the grid spacing).
    Off the grid, the h and h/2 stencils are combined by Richardson
    extrapolation for fourth-order accuracy, which matters near rank-change
    instants, and h is capped at each point at 1 % of the estimated distance
    to the nearest rank change, lambda_min / |<v_min| rho_dot |v_min>|, so
    that neither stencil reaches across it.  The entropies of every stencil
    state come from one stacked eigvalsh.
    """
    if traj.spectrum.eigenvalues.ndim != 2:
        raise IntegrationError("finite-difference rates need a one-state (T, d, d) trajectory")
    indices = np.atleast_1d(np.asarray(index, dtype=int))
    if traj.state_fn is None and traj.generator is None:
        if np.any((indices <= 0) | (indices >= len(traj) - 1)):
            raise IndexError("finite differences need an interior grid point")
        spacing = traj.grid[indices + 1] - traj.grid[indices]
        entropies = traj.entropies()
        rates = (entropies[indices + 1] - entropies[indices - 1]) / (2.0 * spacing)
    else:
        # time for the smallest eigenvalue to reach 0 at its current speed;
        # inf when the state is rank-deficient or that eigenvalue is not moving
        eigenvalues = traj.spectrum.eigenvalues[indices]
        smallest, speeds = eigenvalues[:, -1], np.abs(traj._expectations[indices, -1])
        with np.errstate(divide="ignore", invalid="ignore"):
            distances = np.where((smallest <= ZERO_EIGENVALUE_RTOL * eigenvalues[:, 0])
                                 | (speeds == 0.0), np.inf, smallest / speeds)
        coarse = np.minimum(h, 0.01 * distances)
        steps = np.stack([coarse, 0.5 * coarse])
        t = traj.grid[indices]
        taus = np.stack([t + steps, t - steps]).ravel()
        if traj.state_fn is not None:
            states = as_matrix(traj.state_fn(taus))
        else:
            states = states_off_grid(traj, np.zeros(len(taus), dtype=int), taus)
        s_plus, s_minus = _entropies(np.linalg.eigvalsh(hermitian_part(states))).reshape(
            (2,) + steps.shape)
        rates = (s_plus - s_minus) / (2.0 * steps)
        rates = (4.0 * rates[1] - rates[0]) / 3.0
    return float(rates[0]) if np.ndim(index) == 0 else rates


@dataclass(frozen=True)
class IntervalEvidence:
    t_start: float
    t_end: float
    choi_min_eigenvalue: float
    trace_defect: float


@dataclass(frozen=True)
class DivisibilityReport:
    intervals: tuple[IntervalEvidence, ...]
    min_sampled_rates: tuple[float, ...]
    verdict: str

    @property
    def worst_choi_eigenvalue(self) -> float:
        return min(e.choi_min_eigenvalue for e in self.intervals)


def cp_divisibility_check(generator: LindbladGenerator, grid) -> DivisibilityReport:
    """Test every consecutive interval map for complete positivity.

    The verdict is ``cp_divisible`` when all interval Choi matrices are PSD
    (``DIVISIBILITY_CHOI_ATOL``) and trace-preserving, ``not_cp_divisible``
    when the interval map of the lowest Choi eigenvalue also breaks
    positivity on one of ``POSITIVITY_SAMPLES`` sampled pure states, and
    ``p_divisible_only_undetermined`` when complete positivity fails but
    positivity survives the sampling (the check never certifies
    P-divisibility, it only reports that CP evidence failed without a
    positivity counterexample).  Sampled rate signs are reported alongside.
    The interval maps are one stack: one stacked eigvalsh gives their Choi
    minima, :func:`~entroflow.channels.trace_defects` their trace defects,
    and the samples, one block of draws, go through the worst map in one
    product.
    """
    grid, d = _checked_grid(grid, 2), generator.dim
    maps = _interval_maps(generator, grid[:-1], np.diff(grid))
    minima = _choi_minima(maps)
    defects = trace_defects(maps)
    evidence = [IntervalEvidence(float(a), float(b), float(lo), float(tr))
                for a, b, lo, tr in zip(grid[:-1], grid[1:], minima, defects)]

    midpoints = 0.5 * (grid[:-1] + grid[1:])
    min_rates = tuple(float(np.min(term.rate_at(midpoints))) for term in generator.jumps)

    if np.all(minima >= -DIVISIBILITY_CHOI_ATOL) and np.all(defects <= 1e-7):
        verdict = "cp_divisible"
    else:
        draws = np.random.default_rng(POSITIVITY_SEED).normal(size=(POSITIVITY_SAMPLES, 2, d))
        v = draws[:, 0] + 1j * draws[:, 1]
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        images = apply_superoperators(maps[np.argmin(minima)], v[:, :, None] * v[:, None, :].conj())
        positive = np.linalg.eigvalsh(hermitian_part(images))[:, 0].min() >= -1e-8
        verdict = "p_divisible_only_undetermined" if positive else "not_cp_divisible"
    return DivisibilityReport(intervals=tuple(evidence),
                              min_sampled_rates=min_rates, verdict=verdict)


# ---------------------------------------------------------------------------
# Channel families: maps over a grid, as stacks
# ---------------------------------------------------------------------------

class ChannelFamily:
    """A dynamics described by its maps in closed form, as stacks over a
    whole grid.

    Subclasses (:class:`GadcFamily`, :class:`DephasingFamily`) give the
    (T, d^2, d^2) matrices, in the row-stacking convention of
    :mod:`entroflow.channels`, of M_{t,0} (``superoperators``) and of
    K_t = d/d eps M_{t+eps,t} at eps = 0 (``step_generators``), the exact
    short-time limit of the intermediate maps M_{t+eps,t}; ``derivatives``,
    d/dt M_{t,0}, is K_t M_{t,0} for maps that compose.  ``states``,
    ``evolve`` and the witnesses apply them to (N, d, d) stacks of initial
    states.  A dynamics given by a Lindblad generator is propagated instead
    (:func:`propagate`), and its K_t is L_t.
    """

    dim: int

    def superoperators(self, times) -> np.ndarray:
        raise NotImplementedError

    def step_generators(self, times) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, times) -> np.ndarray:
        return self._derivatives(times, self.superoperators(times), self.step_generators(times))

    def _derivatives(self, times, maps: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """d/dt M_{t,0} from the maps M_{t,0} and K_t at ``times``: K_t M_{t,0}."""
        return steps @ maps

    def _mapped(self, rho0s, times) -> tuple[np.ndarray, np.ndarray]:
        """The maps M_{t,0} at finite ``times`` >= 0 and the stack of ``rho0s``, checked."""
        times = np.asarray(times, dtype=float)
        if not (defined := np.isfinite(times) & (times >= 0)).all():
            raise IntegrationError(f"channel family evaluated at non-finite or negative time "
                                   f"{np.unique(times[~defined])}")
        stack = _state_stack(rho0s, self.dim, "family")
        return self.superoperators(times), stack

    def states(self, rho0s, times) -> np.ndarray:
        """M_{t,0}(rho_0) as a (T, d, d) stack for one operator, (T, N, d, d)
        for a sequence or (N, d, d) stack of N operators, each taken through
        every time; a (T, N, d, d) array goes row t through time t only.
        Operators of another dimension than the family's raise
        :class:`IntegrationError` naming both.
        """
        return apply_superoperators(*self._mapped(rho0s, times))

    def evolve(self, rho0s, times) -> tuple[np.ndarray, np.ndarray, EigenSystem, np.ndarray]:
        """States, their time derivatives, their spectra and K_t at ``times``.

        ``rho0s`` as in :meth:`states`.  The maps and K_t are built once, for
        the states and the :meth:`derivatives` maps; the spectra come from one
        eigh over the whole stack, which also validates the states.
        """
        maps, starts = self._mapped(rho0s, times)
        steps = self.step_generators(times)
        states, spectrum = check_density_stack(hermitian_part(apply_superoperators(maps, starts)))
        dots = apply_superoperators(self._derivatives(times, maps, steps), starts)
        return states, hermitian_part(dots), spectrum, steps


def _trace_preserving(maps: np.ndarray) -> np.ndarray:
    """A stack of family maps, refused unless every map preserves the trace."""
    if not _preserves_trace(maps).all():
        raise ChannelError(f"family map is not trace preserving: "
                           f"defect {trace_defects(maps).max():.3e}")
    return maps


class GadcFamily(ChannelFamily):
    """Generalized-amplitude-damping dynamics at modulation frequency omega.

    The intermediate map over a short window is the channel at time eps
    itself, which is the convention under which the evolved maximally mixed
    state picks up the population imbalance W_t.  So its maps do not compose:
    ``derivatives`` is a closed form, and K_t is d/dt M_{t,0} at t = 0.
    """

    def __init__(self, omega: float):
        self.omega = float(omega)
        self.dim = 2

    def superoperators(self, times) -> np.ndarray:
        """sum_i K_i (x) conj(K_i) of the :func:`gadc` Kraus operators, in closed form."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        p = np.cos(self.omega * t) ** 2
        eta = np.exp(-t)
        maps = np.zeros(t.shape + (4, 4), dtype=complex)
        maps[:, 0, 0] = p + (1.0 - p) * eta
        maps[:, 0, 3] = p * (1.0 - eta)
        maps[:, 1, 1] = maps[:, 2, 2] = np.sqrt(eta)
        maps[:, 3, 0] = (1.0 - p) * (1.0 - eta)
        maps[:, 3, 3] = p * eta + (1.0 - p)
        return _trace_preserving(maps)

    def derivatives(self, times) -> np.ndarray:
        """d/dt of :meth:`superoperators`, with p' = -omega sin(2 omega t), eta' = -eta."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        p = np.cos(self.omega * t) ** 2
        p_dot = -self.omega * np.sin(2.0 * self.omega * t)
        eta = np.exp(-t)
        maps = np.zeros(t.shape + (4, 4), dtype=complex)
        maps[:, 0, 0] = p_dot * (1.0 - eta) - (1.0 - p) * eta
        maps[:, 0, 3] = p_dot * (1.0 - eta) + p * eta
        maps[:, 3] = -maps[:, 0]
        maps[:, 1, 1] = maps[:, 2, 2] = -0.5 * np.sqrt(eta)
        return maps

    def _derivatives(self, times, maps: np.ndarray, steps: np.ndarray) -> np.ndarray:
        return self.derivatives(times)

    def step_generators(self, times) -> np.ndarray:
        return np.broadcast_to(self.derivatives([0.0]), (np.size(times), 4, 4))


def _require_real_gamma(gammas) -> None:
    """Refuse Gamma values computed in complex arithmetic (:class:`DephasingFamily`)."""
    if np.iscomplexobj(gammas):
        raise ChannelError("gamma_integral returned complex values at real times: write it in "
                           "real arithmetic, or its complex-step rate is not Gamma'(t)")


class DephasingFamily(ChannelFamily):
    """Pure-decoherence dynamics with accumulated decoherence Gamma(t).

    ``gamma_integral`` must be the antiderivative of the decoherence rate
    with Gamma(0) = 0; maps scale coherences by exp(-Gamma(t)), and
    intermediate maps by exp(Gamma(t) - Gamma(t + eps)), which exceeds 1
    where Gamma decreases: there the interval map is not CP.

    ``gamma_integral`` takes arrays of complex times too, as an analytic
    numpy expression: the rate gamma(t) = Gamma'(t) of K_t is its complex-step
    derivative Im Gamma(t + ih)/h (Squire & Trapp, SIAM Rev. 40, 110 (1998)),
    exact to rounding.  One that drops the imaginary part raises ChannelError.
    So does one that returns a complex array at real times, such as
    1 - [(1 + it)^(1-s) + (1 - it)^(1-s)]/2: the imaginary parts of its
    terms cancel only to rounding, which swamps the h Gamma'(t) that the
    complex step reads.  Such a Gamma is refused at construction, from one
    probe at t = 0, and wherever :meth:`superoperators` meets one; written
    in real arithmetic it is accepted.
    """

    def __init__(self, gamma_integral):
        self.gamma_integral = gamma_integral
        self.dim = 2
        _require_real_gamma(gamma_integral(np.zeros(1)))

    def superoperators(self, times) -> np.ndarray:
        gammas = self.gamma_integral(np.atleast_1d(np.asarray(times, dtype=float)))
        _require_real_gamma(gammas)
        coherences = np.exp(-gammas)
        if not (np.abs(coherences) <= 1.0).all():  # NaN fails too
            raise ChannelError("coherence factor must lie in [-1, 1]")
        maps = np.zeros(coherences.shape + (4, 4), dtype=complex)
        maps[..., 0, 0] = maps[..., 3, 3] = 1.0
        maps[..., 1, 1] = maps[..., 2, 2] = coherences
        return _trace_preserving(maps)

    def step_generators(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        h = 1e-20  # no difference is taken, so no rounding error grows as h shrinks
        shifted = self.gamma_integral(t + 1j * h)
        if not np.iscomplexobj(shifted):
            raise ChannelError("gamma_integral dropped the imaginary part of a complex time: "
                               "it must be an analytic numpy expression of complex times")
        maps = np.zeros(t.shape + (4, 4), dtype=complex)
        maps[:, 1, 1] = maps[:, 2, 2] = -np.imag(shifted) / h
        return maps


# ---------------------------------------------------------------------------
# Closed-form example trajectories
# ---------------------------------------------------------------------------

def _diagonal_qubits(upper, lower) -> np.ndarray:
    """diag(upper, lower) for every entry of two arrays of the same shape,
    as a (..., 2, 2) stack."""
    out = np.zeros(np.shape(upper) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = upper, lower
    return out


def damping_qubit_state(t) -> np.ndarray:
    """Relaxation into |0>: diag(1 - e^{-t}, e^{-t}); rank jumps 1 -> 2 at t = 0+.
    One time gives a (2, 2) matrix, an array of times a (..., 2, 2) stack.
    Before t = 0 it is no state (and e^{-t} overflows past t = -709), so a
    negative time raises :class:`IntegrationError`."""
    t = np.asarray(t, dtype=float)
    if (t < 0.0).any():
        raise IntegrationError(f"damping trajectory evaluated at negative time {t.min():.6g}")
    e = np.exp(-t)
    return _diagonal_qubits(1.0 - e, e)


def _damping_qubit_derivative(t) -> np.ndarray:
    e = np.exp(-np.asarray(t, dtype=float))
    return _diagonal_qubits(e, -e)


def oscillating_qubit_state(t) -> np.ndarray:
    """diag(cos^2(pi t), sin^2(pi t)); the rank drops to 1 at every half-integer t.
    One time gives a (2, 2) matrix, an array of times a (..., 2, 2) stack."""
    c = np.cos(np.pi * np.asarray(t, dtype=float)) ** 2
    return _diagonal_qubits(c, 1.0 - c)


def _oscillating_qubit_derivative(t) -> np.ndarray:
    s = np.pi * np.sin(2.0 * np.pi * np.asarray(t, dtype=float))
    return _diagonal_qubits(-s, s)


def damping_qubit_trajectory(grid) -> Trajectory:
    return closed_form_trajectory(damping_qubit_state, grid,
                                  derivative_fn=_damping_qubit_derivative)


def oscillating_qubit_trajectory(grid) -> Trajectory:
    return closed_form_trajectory(oscillating_qubit_state, grid,
                                  derivative_fn=_oscillating_qubit_derivative)


def export_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: t, state entries (re/im pairs), entropy, rate.

    Column order: time, then Re/Im of the row-major vectorized state, then
    entropy, then entropy rate.  Each column goes to :func:`write_csv` as a
    float array (a float64 state's imaginary column reads 0.0), rendered
    with repr, so identical trajectories produce byte-identical files.
    """
    d = traj.entries.shape[-1]
    header = ["t"]
    columns = [traj.grid]
    for (i, j), entry in zip(np.ndindex(d, d), traj.entries.reshape(len(traj), d * d).T):
        header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
        columns += [entry.real, entry.imag]
    header += ["entropy", "entropy_rate"]
    write_csv(path, header, columns + [traj.entropies(), traj.entropy_rates()])
