"""Master-equation integration, intermediate propagators, and entropy rates.

A trajectory is a stack whose leading axis is time: a (T, d, d) array of
states on a fixed time grid for one initial state, or (T, N, d, d) for N,
the array of their generator-consistent derivatives, and one stacked
eigendecomposition of the states, from which entropies, ranks and entropy
rates are read as arrays.  One engine builds the commutator-free
4th-order Magnus (CF4) maps of many intervals at once: ``propagate`` chains
them when the stack lies in a dense restriction of the generator to its
invariant sets (RK4 otherwise), and intermediate maps M_{t,s} are the same
maps on the whole space.  Each interval doubles its own step count until
its n- and 2n-step states, or maps, agree: the convergence certificate.  A
channel family is its maps over a grid as (T, d^2, d^2) stacks, M_{t,0}
and the exact limits d/dt M_{t,0} and K_t = d/d eps M_{t+eps,t} at
eps = 0, each carrying a stack of initial states to (T, N, d, d) states in
one product: no finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from ._util import write_csv
from .channels import (
    ChannelError,
    LindbladGenerator,
    SuperOperator,
    apply_superoperators,
    is_cptp,
)
from .linalg import (
    ZERO_EIGENVALUE_RTOL,
    DensityMatrix,
    EigenSystem,
    LinalgError,
    _density_spectra,
    _entropies,
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
    "GeneratorFamily",
    "damping_qubit_state",
    "oscillating_qubit_state",
    "damping_qubit_trajectory",
    "oscillating_qubit_trajectory",
    "export_trajectory",
]

TRACE_DOT_ATOL = 1e-9
SUPPORT_DOT_ATOL = 1e-8


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
    batch axes).  Entropies, logarithms on the supports, ranks, rank-jump
    rows and entropy rates are array expressions over that one spectrum,
    shaped (T,) or (T, N); ``states`` lists every state of the stack as a
    :class:`DensityMatrix` carrying its part of it, in time-major order
    (all N states at the first time, then at the next).  The support check
    at construction computes the expectations <v_i|rho_dot|v_i> of the
    derivatives in the eigenbases once, and ``entropy_rates`` reads them.

    The states are validated with one stacked eigh
    (:func:`check_density_stack`) unless ``spectrum`` passes the stacked
    spectrum of states already validated, so that no state is decomposed
    twice.  ``state_fn`` is set for closed-form trajectories and gives the
    states off the grid without the integrator; ``generator`` is set when
    the trajectory came from propagating a master equation.
    ``renormalization_defects`` logs the trace defect removed at each state,
    and ``truncated_at`` the time at which a tail-guard breach ended the
    whole stack.
    """

    def __init__(self, grid, states, derivatives, generator: LindbladGenerator | None = None,
                 state_fn=None, renormalization_defects: np.ndarray | None = None,
                 truncated_at: float | None = None, spectrum: EigenSystem | None = None):
        self.grid = np.asarray(grid, dtype=float)
        entries = as_matrix(states)
        if spectrum is None:
            entries, spectrum = check_density_stack(entries)
        self.entries = entries
        self.spectrum = spectrum
        self.derivatives = as_matrix(derivatives)
        self.generator = generator
        self.state_fn = state_fn
        self.renormalization_defects = renormalization_defects
        self.truncated_at = truncated_at
        self._states: list[DensityMatrix] | None = None
        self._check()

    def _check(self) -> None:
        if len(self.grid) != len(self.entries) or self.entries.shape != self.derivatives.shape:
            raise IntegrationError("grid, states and derivatives lengths differ")
        if np.any(np.diff(self.grid) <= 0):
            raise IntegrationError("time grid must be strictly increasing")
        traces = np.abs(np.trace(self.derivatives, axis1=-2, axis2=-1))
        _raise_at(traces > TRACE_DOT_ATOL, traces, "Tr(rho_dot)")
        ranks = self.ranks()
        steady = np.ones(ranks.shape, dtype=bool)  # the rank does not change next to k
        steady[1:] &= ranks[1:] == ranks[:-1]
        steady[:-1] &= ranks[:-1] == ranks[1:]
        self._expectations = self.spectrum.expectations(self.derivatives)
        on_support = np.where(self.spectrum.support_mask(), self._expectations, 0.0)
        pinned = np.abs(on_support.sum(axis=-1))
        _raise_at(steady & (pinned > SUPPORT_DOT_ATOL), pinned, "Tr(Pi rho_dot)")

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def states(self) -> list[DensityMatrix]:
        if self._states is None:
            d = self.entries.shape[-1]
            spectrum = EigenSystem(self.spectrum.eigenvalues.reshape(-1, d),
                                   self.spectrum.eigenvectors.reshape(-1, d, d))
            self._states = [DensityMatrix._from_checked(rho, spectrum[k])
                            for k, rho in enumerate(self.entries.reshape(-1, d, d))]
        return self._states

    def ranks(self) -> np.ndarray:
        return self.spectrum.support_mask().sum(axis=-1)

    def rank_jump_rows(self, margin: float) -> np.ndarray:
        """Grid points within ``margin`` of a rank change, and the point just
        before each jump, per state: there the rate on the support misses the
        jump (at a pure state it reads 0 while its right limit is +inf)."""
        jumps = np.diff(self.ranks(), axis=0) != 0
        at = np.flatnonzero(np.any(jumps, axis=tuple(range(1, jumps.ndim))))
        rows = (np.abs(self.grid[:, None] - self.grid[at + 1][None, :]) < margin) @ jumps[at]
        rows[:-1] |= jumps
        return rows

    def entropies(self) -> np.ndarray:
        return self.spectrum.entropies()

    def entropy_rates(self) -> np.ndarray:
        return _entropy_rates(self.spectrum, self._expectations)


def _raise_at(bad: np.ndarray, values: np.ndarray, name: str) -> None:
    """IntegrationError naming the first flagged entry of a (T,) or (T, N) mask."""
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        state = f", state {k[1]}" if len(k) > 1 else ""
        raise IntegrationError(f"{name} = {values[k]:.3e} at grid point {k[0]}{state}")


def states_off_grid(traj: Trajectory, columns, times, steps: int = 8) -> np.ndarray:
    """The state ``columns[c]`` of a propagated stack at ``times[c]`` for every
    c, as one (C, d, d) stack; a one-state trajectory has the one column 0.

    Each state is integrated by RK4 in ``steps`` substeps from the grid point
    nearest to its time, all of them together, each at its own times, through
    the operator :func:`propagate` would pick for these starts: the dense
    restriction to the invariant sets they touch when those hold
    m <= max(d, 16) coordinates, as every qubit or qutrit stack does, and
    the sparse generator otherwise.
    """
    if traj.generator is None:
        raise IntegrationError("off-grid states need the trajectory's generator")
    times = np.asarray(times, dtype=float)
    nearest = np.argmin(np.abs(traj.grid[None, :] - times[:, None]), axis=1)
    d = traj.entries.shape[-1]
    starts = traj.entries.reshape(len(traj), -1, d, d)[nearest, columns]
    operator = _integration_operator(traj.generator, starts)
    ends = _rk4_segment(operator, operator.coordinates(starts), traj.grid[nearest], times, steps)
    return hermitian_part(operator.states(ends))


def _rk4_step(generator, rho: np.ndarray, t, dt, k1=None) -> np.ndarray:
    """One RK4 step; ``t`` and ``dt`` are numbers, or arrays with one entry
    per state of the stack, a matrix (N, d, d) or a coordinate row (N, m).
    ``k1``, when given, is L_t(rho), already known.

    The stage inputs share one scratch buffer and the stages are summed into
    ``k2``, in the order of rho + h/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    h = dt.reshape((-1,) + (1,) * (rho.ndim - 1)) if isinstance(dt, np.ndarray) else dt
    half = 0.5 * h
    if k1 is None:
        k1 = generator.apply(t, rho)
    stage = np.multiply(half, k1)
    stage += rho
    k2 = generator.apply(t + 0.5 * dt, stage)
    np.multiply(half, k2, out=stage)
    stage += rho
    k3 = generator.apply(t + 0.5 * dt, stage)
    np.multiply(h, k3, out=stage)
    stage += rho
    k4 = generator.apply(t + dt, stage)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += rho
    return k2


def _rk4_segment(generator, rho, t0, t1, substeps: int, k1=None) -> np.ndarray:
    """RK4 from t0 to t1 in equal substeps, for one state or a stack (N, d, d),
    or for the coordinates (N, m) of a :meth:`LindbladGenerator.restricted`
    generator; t0 and t1 may also be arrays, one entry per state or row.  ``k1``,
    when given, is L_{t0}(rho), which the first substep then does not
    recompute.  The result is not Hermitized."""
    if np.all(np.equal(t1, t0)):
        return rho.copy()
    dt = (t1 - t0) / substeps
    out = np.asarray(rho, dtype=complex)
    for j in range(substeps):
        out = _rk4_step(generator, out, t0 + j * dt, dt, k1 if j == 0 else None)
    return out


# ||X||_F <= ||X||_1 <= sqrt(d) ||X||_F decides a trace-norm test without an
# eigensolver unless the value lies within this relative margin of the
# bracket's ends, where rounding of the two norms could disagree.
_BRACKET_MARGIN = 1e-9


def _exceeding(squares: np.ndarray, budgets: np.ndarray, dim: int, trace_norms) -> np.ndarray:
    """Per row of a (K, N) array of squared Frobenius norms of Hermitian
    d x d matrices, whether the largest trace norm in the row exceeds the
    row's budget (K,): read from the Frobenius bracket where it decides,
    otherwise from ``trace_norms(rows)``, the trace norms of the (K', N)
    matrices of the rows (a boolean mask) that it leaves open."""
    frobenius = np.sqrt(squares.max(axis=-1))
    over = frobenius > budgets * (1.0 + _BRACKET_MARGIN)
    undecided = ~over & (np.sqrt(dim) * frobenius > budgets * (1.0 - _BRACKET_MARGIN))
    if undecided.any():
        over[undecided] = trace_norms(undecided).max(axis=-1) > budgets[undecided]
    return over


def _trace_norms_exceed(x: np.ndarray, budget: float) -> bool:
    """Whether the largest trace norm of a Hermitian stack (N, d, d) exceeds
    ``budget``: read from the Frobenius bracket when it decides, otherwise
    from one stacked eigvalsh."""
    squares = np.einsum("nij,nij->n", x.real, x.real) + np.einsum("nij,nij->n", x.imag, x.imag)
    return bool(_exceeding(squares[None], np.array([budget]), x.shape[-1],
                           lambda rows: np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)[None])[0])


def _spectra_at(states: np.ndarray, t: float) -> EigenSystem:
    """The spectra of a stack of exactly Hermitian, trace-renormalized
    states at time t, from one eigh; a state failing the PSD check is an
    integration failure."""
    try:
        return _density_spectra(states)
    except LinalgError as exc:
        raise IntegrationError(f"state at t={t:.6g} lost positivity: {exc}") from exc


def _clean(raw: np.ndarray, t: float) -> tuple[np.ndarray, EigenSystem, np.ndarray]:
    """Trace-renormalize a stack of exactly Hermitian matrices (a
    :func:`hermitian_part`) and validate it with one eigh; returns it, its
    spectra and the trace defects.  Divided by real traces the stack stays
    exactly Hermitian, so it is not symmetrized again."""
    tr = np.real(np.trace(raw, axis1=-2, axis2=-1))
    states = raw / tr[:, None, None]
    return states, _spectra_at(states, t), np.abs(tr - 1.0)


def _validated(states: np.ndarray, grid: np.ndarray) -> EigenSystem:
    """The spectra of the states (T, N, d, d) on the grid, from one eigh;
    lost positivity names the first failing time, as :func:`_clean` does."""
    try:
        return _density_spectra(states)
    except LinalgError:
        for t, row in zip(grid, states):
            _spectra_at(row, float(t))
        raise


def _state_stack(states) -> np.ndarray:
    """One state as a (d, d) array or several as an (N, d, d) stack: a
    :class:`DensityMatrix` or an array as it is, any other iterable stacked."""
    if isinstance(states, (DensityMatrix, np.ndarray)):
        return as_matrix(states)
    return np.stack([as_matrix(rho) for rho in states])


class _WholeStates:
    """A generator acting on (N, d, d) stacks as they are: the coordinates
    ``propagate`` integrates are the states themselves."""

    def __init__(self, generator: LindbladGenerator):
        self.apply = generator.apply

    @staticmethod
    def coordinates(states: np.ndarray) -> np.ndarray:
        return states

    @staticmethod
    def states(coordinates: np.ndarray) -> np.ndarray:
        return coordinates


# Restrictions up to this many coordinates, or up to d, are propagated as
# dense m x m products even when m > d.  The limit was measured on the RK4
# apply: up to m = 25 one dense (N, m) x (m, m) apply took 3-8 us against
# 6-14 us for the sparse product's dispatch (N = 1-16 states, on a 2-core
# host), the two were level near m = 36-64, and the sparse one led at
# m = 100.  The interval maps chain one such product per grid interval,
# where RK4 takes at least seven, plus the maps' exponentials, so the limit
# stands for them: every stack of a qubit, qutrit or d = 4 generator takes
# them, and so does a Fock-diagonal stack of a phase-insensitive bosonic
# generator (its m = d populations) at any cutoff.
_DENSE_COORDINATES = 16


def _integration_operator(generator: LindbladGenerator, states: np.ndarray):
    """What ``propagate`` and ``states_off_grid`` integrate an (N, d, d) stack
    with: the generator restricted to the union of its invariant sets that
    the stack touches, when that union holds m <= max(d, 16) coordinates,
    so that a dense m x m product costs no more than one pass over a state
    or less than the sparse product's dispatch; otherwise the whole
    generator."""
    labels = generator.invariant_sets()
    if labels is not None:
        touched = np.any(states.reshape(len(states), -1) != 0, axis=0)
        index = np.flatnonzero(np.isin(labels, labels[touched]))
        if len(index) <= max(generator.dim, _DENSE_COORDINATES):
            return generator.restricted(index)
    return _WholeStates(generator)


def propagate(generator: LindbladGenerator, states, grid,
              error_target: float = 1e-7, max_refinements: int = 12,
              on_tail_breach: str = "raise") -> Trajectory:
    """Integrate rho_dot = L_t(rho_t) over the grid from one initial state, or
    from a sequence or (N, d, d) stack of them.

    Returns one :class:`Trajectory`: (T, d, d) for one state, (T, N, d, d)
    for a stack.  The initial states must be Hermitian within
    ``HERMITICITY_ATOL``; the first that is not raises
    :class:`IntegrationError` with its index.  The states are advanced
    together as one stack.  Over every grid interval, the states reached
    with n and with 2n steps must agree in trace norm within
    ``error_target`` per unit time, so that the accumulated error over the
    grid respects the same budget; that agreement is the certificate, and
    an interval doubles n until it holds, at most ``max_refinements``
    times, or the integrator stalls.  The trace-norm test reads the bracket
    ||X||_F <= ||X||_1 <= sqrt(d) ||X||_F: it accepts when sqrt(d) ||X||_F
    is within budget, rejects when ||X||_F is not, and takes eigenvalues
    only in between.  Each state is Hermitized and trace-renormalized once
    (the defect is logged per state), and the states are validated with
    one eigh, whose spectra the trajectory keeps; a state failing the PSD
    check is an integration failure, named by its time.

    When the generator has no callable parts and the invariant sets
    (:meth:`LindbladGenerator.invariant_sets`) that the initial stack
    touches hold m <= max(d, 16) coordinates, as a Fock-diagonal start of a
    phase-insensitive bosonic generator does (its d populations) and every
    stack of a generator with d <= 4 does, the stack is propagated as
    (N, m) coordinate rows by the m x m maps of the grid intervals, all
    built at once (:func:`_map_intervals`): commutator-free 4th-order Magnus
    steps, exact for a time-independent generator, whose maps are then one
    exponential per interval width.  The rows are chained through the maps,
    and the Hermitization, the renormalization, the tail guard and the
    certificate read the rows; the states are scattered to (T, N, d, d)
    once.  Any other generator or stack runs classical RK4 on the full
    sparse ``apply``, interval by interval (:func:`_rk4_intervals`).

    For generators carrying a tail guard, a population breach of any state
    either raises (``on_tail_breach="raise"``) or ends the whole stack at
    its last trusted grid point (``"truncate"``), with ``truncated_at`` the
    time of the breach; fewer than 3 trusted points raise
    :class:`TailMassError` either way.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise IntegrationError("time grid must be strictly increasing")
    if on_tail_breach not in ("raise", "truncate"):
        raise ValueError("on_tail_breach must be 'raise' or 'truncate'")

    stack = _state_stack(states)
    single = stack.ndim == 2
    try:
        initial = require_hermitian(stack[None] if single else stack, name="initial state")
    except LinalgError as exc:
        raise IntegrationError(str(exc)) from exc
    current, spectrum, defect = _clean(initial, float(grid[0]))
    operator = _integration_operator(generator, current)
    intervals = _rk4_intervals if isinstance(operator, _WholeStates) else _map_intervals
    rho, dots, spectrum, defects, truncated_at = intervals(
        operator, generator.tail_guard, grid, current, spectrum, defect,
        error_target, max_refinements, on_tail_breach)

    if truncated_at is not None and len(rho) < 3:
        raise TailMassError("tail guard tripped before any usable grid point")
    rows = (slice(None), 0) if single else slice(None)
    return Trajectory(grid[:len(rho)], rho[rows], dots[rows], generator=generator,
                      renormalization_defects=defects[rows], truncated_at=truncated_at,
                      spectrum=spectrum[rows])


def _breach_message(tails: np.ndarray, bound: float, t: float) -> str:
    return f"tail mass {tails.max():.3e} exceeds {bound:.1e} at t={t:.6g}"


def _stall_message(t0: float, t1: float, budget: float, max_refinements: int) -> str:
    return (f"integrator stalled on [{t0:.6g}, {t1:.6g}]: "
            f"no convergence to {budget:.1e} within {max_refinements} doublings")


def _rk4_intervals(operator, guard, grid, current, spectrum, defect,
                   error_target, max_refinements, on_tail_breach):
    """:func:`propagate` by classical RK4 with step doubling, interval by
    interval, from the cleaned initial stack ``current`` (N, d, d), its
    spectra and trace defects.  Returns the states, their derivatives,
    spectra and trace defects up to the last trusted grid point, and the
    time of the tail breach that ended them (None).

    Each interval does its work once.  Every segment of interval k starts
    from the derivative L_{t_k}(rho_k) stored for grid point k, so the
    first RK4 stage is shared by the trial, the refined segment and every
    further refinement, and the substep count starts from half the last
    interval's.  The bracket decides as an eigvalsh test would, so the
    substep counts and the states are those of the plain loop.  On a dense
    restriction the segments are scattered back to (N, d, d) before the
    Hermitization, and their numbers differ from the full path's by the
    summation order only.
    """
    n, d = current.shape[0], current.shape[-1]
    rho = np.empty((len(grid), n, d, d), dtype=complex)
    dots = np.empty_like(rho)
    eigenvalues = np.empty((len(grid), n, d))
    eigenvectors = np.empty_like(rho)
    defects = np.empty((len(grid), n))

    def store(k: int, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Keep the state at grid point k; its coordinates and their derivative."""
        rho[k], eigenvalues[k], eigenvectors[k] = current, spectrum.eigenvalues, spectrum.eigenvectors
        y = operator.coordinates(current)
        k1 = operator.apply(t, y)
        dots[k] = operator.states(k1)
        defects[k] = defect
        return y, k1

    def segment(substeps: int) -> np.ndarray:
        """The states at t1 from the coordinates y at t0, in ``substeps`` steps."""
        return hermitian_part(operator.states(_rk4_segment(operator, y, t0, t1, substeps, k1)))

    y, k1 = store(0, float(grid[0]))
    substeps = 1
    length, truncated_at = len(grid), None
    for k in range(len(grid) - 1):
        t0, t1 = float(grid[k]), float(grid[k + 1])
        budget = error_target * (t1 - t0)
        substeps = max(1, substeps // 2)
        trial = segment(substeps)
        for _ in range(max_refinements):
            substeps *= 2
            refined = segment(substeps)
            converged = not _trace_norms_exceed(trial - refined, budget)
            trial = refined
            if converged:
                break
        else:
            raise IntegrationError(_stall_message(t0, t1, budget, max_refinements))
        current, spectrum, defect = _clean(trial, t1)
        if guard is not None:
            tails = guard.check(current)
            if np.any(tails > guard.bound):
                if on_tail_breach == "raise":
                    raise TailMassError(_breach_message(tails, guard.bound, t1))
                length, truncated_at = k + 1, t1
                break
        y, k1 = store(k + 1, t1)
    return (rho[:length], dots[:length], EigenSystem(eigenvalues, eigenvectors)[:length],
            defects[:length], truncated_at)


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


def _cf4_maps(operator, starts: np.ndarray, widths: np.ndarray, steps: int) -> np.ndarray:
    """The (K, m, m) maps of the intervals [t, t + h] of a dense restriction
    in ``steps`` equal CF4 steps each, in its row convention: a step of
    length s from tau is y -> y exp(s (a2 G1 + a1 G2)) exp(s (a1 G1 + a2 G2))
    with G1, G2 = G(tau + (1/2 -+ sqrt(3)/6) s).  The rates of all Gauss
    points come from one array call per term, the exponentials from one
    batched expm, and the steps of each interval are multiplied in pairs."""
    (c1, c2), (a1, a2) = _GAUSS_NODES, _CF4_WEIGHTS
    s = (widths / steps)[:, None]
    tau = starts[:, None] + s * np.arange(steps)
    g1, g2 = operator.generators(tau + c1 * s), operator.generators(tau + c2 * s)
    s = s[..., None, None]
    maps = expm(s * (a2 * g1 + a1 * g2)) @ expm(s * (a1 * g1 + a2 * g2))
    while maps.shape[1] > 1:
        if maps.shape[1] % 2:
            maps = np.concatenate([maps[:, :-2], maps[:, -2:-1] @ maps[:, -1:]], axis=1)
        maps = maps[:, 0::2] @ maps[:, 1::2]
    return maps[:, 0]


def _width_maps(operator, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map exp(h G) of a time-independent dense restriction for each
    distinct interval width h, and the index of each interval's width.

    Widths within ``_WIDTH_RTOL`` of the smallest of their group share its
    exponential E: exp((w + delta) G) = E exp(delta G), and the residual
    factor is I + delta G to rounding, since delta ||G|| stays near 1e-13.
    """
    unique, which = np.unique(widths, return_inverse=True)
    leads = []
    for i, width in enumerate(unique):
        if not leads or width > unique[leads[-1]] * (1.0 + _WIDTH_RTOL):
            leads.append(i)
    group = np.searchsorted(leads, np.arange(len(unique)), side="right") - 1
    g = operator.generators(np.array(0.0))
    exps = expm(unique[leads][:, None, None] * g)
    residual = (unique - unique[leads][group])[:, None, None]
    return exps[group] + residual * (exps @ g)[group], which


def _maps_disagree(operator, rows: np.ndarray, coarse: np.ndarray, fine: np.ndarray,
                   budgets: np.ndarray) -> np.ndarray:
    """Per interval k, whether the states rows[k] (N, m) carried by the
    coarse and by the fine map of the interval differ in trace norm by more
    than budgets[k], for any of them: the difference is Hermitized on the
    rows, and only the intervals the Frobenius bracket leaves open are
    scattered to d x d for one eigvalsh."""
    gap = np.matmul(rows, fine - coarse)
    gap += gap[..., operator.transpose].conj()
    gap *= 0.5
    squares = (np.einsum("knm,knm->kn", gap.real, gap.real)
               + np.einsum("knm,knm->kn", gap.imag, gap.imag))
    return _exceeding(squares, budgets, operator.dim,
                      lambda open_: np.abs(np.linalg.eigvalsh(operator.states(gap[open_]))).sum(axis=-1))


def _regrow(operator, starts: np.ndarray, widths: np.ndarray, counts: np.ndarray,
            coarse: np.ndarray, fine: np.ndarray, failing: np.ndarray, most: int) -> int | None:
    """Double, in place, the step count n of the failing intervals below
    ``most``, one :func:`_cf4_maps` call per count; or return the first
    failing interval, regrowing none, when its n is ``most``."""
    first = int(np.argmax(failing))
    if counts[first] >= most:
        return first
    grow = failing & (counts < most)
    counts[grow] *= 2
    coarse[grow] = fine[grow]
    for steps in np.unique(counts[grow]):
        pick = grow & (counts == steps)
        fine[pick] = _cf4_maps(operator, starts[pick], widths[pick], 2 * steps)
    return None


def _map_intervals(operator, guard, grid, current, spectrum, defect,
                   error_target, max_refinements, on_tail_breach):
    """:func:`propagate` on a dense restriction by the maps of its grid
    intervals, with the arguments and results of :func:`_rk4_intervals`.

    A time-independent restriction takes one exponential per interval width
    (:func:`_width_maps`); CF4 is exact for it, so the n- and 2n-step maps
    coincide and the certificate holds by construction.  Otherwise every
    interval gets its 1- and 2-step CF4 maps at once (:func:`_cf4_maps`).
    The rows are chained through the 2n-step maps, and every interval up to
    the first tail breach compares the states its n- and 2n-step maps carry
    from the chained state at its start; the intervals that fail double
    their own n, and the chain is redone from the first of them.  An
    interval that would pass ``max_refinements`` doublings stalls the
    integrator, once the intervals before it have converged and the states
    up to it have been validated.

    The chained rows are Hermitized through the transpose permutation of
    the coordinates and divided by their traces, the sums of the population
    coordinates; each state logs the trace defect its interval map left.
    The tail guard reads the population rows.  The states up to the first
    breach, that one included, are scattered to (T, N, d, d) and validated
    with one eigh, the initial states among them (``spectrum`` is not read),
    and the derivatives are one product with G(t_k).
    """
    n_states, m = current.shape[0], len(operator.index)
    widths = np.diff(grid)
    z = np.empty((len(grid), n_states, m), dtype=complex)
    z[0] = operator.coordinates(current)

    def settle(maps: np.ndarray, which: np.ndarray, start: int):
        """Chain the maps on from grid point ``start``; the Hermitized and
        renormalized rows, their traces before renormalization, the tails
        and the first breaching grid point (None)."""
        for k in range(start, len(which)):
            np.dot(z[k], maps[which[k]], out=z[k + 1])
        rows = z + z[..., operator.transpose].conj()
        rows *= 0.5
        traces = rows[..., operator.populations].real.sum(axis=-1)
        rows /= traces[..., None]
        rows[0] = z[0]
        if guard is None:
            return rows, traces, None, None
        tails = guard.tails(rows[..., operator.populations].real)
        over = np.any(tails[1:] > guard.bound, axis=-1)
        return rows, traces, tails, (1 + int(np.argmax(over)) if over.any() else None)

    if operator.time_independent:
        rows, traces, tails, breach = settle(*_width_maps(operator, widths), 0)
    else:
        starts, which = grid[:-1], np.arange(len(widths))
        counts = np.ones(len(widths), dtype=int)
        coarse, fine = (_cf4_maps(operator, starts, widths, steps) for steps in (1, 2))
        most = 2 ** (max_refinements - 1)  # the coarse count of an interval's last comparison
        start = 0
        while True:
            rows, traces, tails, breach = settle(fine, which, start)
            stop = len(widths) if breach is None else breach
            failing = np.zeros(len(widths), dtype=bool)
            failing[start:stop] = _maps_disagree(operator, rows[start:stop], coarse[start:stop],
                                                 fine[start:stop], error_target * widths[start:stop])
            if not failing.any():
                break
            start = int(np.argmax(failing))
            if _regrow(operator, starts, widths, counts, coarse, fine, failing, most) is not None:
                _validated(operator.states(rows[:start + 1]), grid)
                raise IntegrationError(_stall_message(grid[start], grid[start + 1],
                                                      error_target * widths[start], max_refinements))

    length = len(grid) if breach is None else breach + 1
    states = operator.states(rows[:length])
    spectrum = _validated(states, grid)
    truncated_at = None
    if breach is not None:
        if on_tail_breach == "raise":
            raise TailMassError(_breach_message(tails[breach], guard.bound, grid[breach]))
        length, truncated_at = breach, float(grid[breach])
    defects = np.empty((length, n_states))
    defects[0] = defect
    defects[1:] = np.abs(traces[1:length] / traces[:length - 1] - 1.0)
    derivatives = operator.apply(np.repeat(grid[:length], n_states), rows[:length].reshape(-1, m))
    return (states[:length], operator.states(derivatives.reshape(length, n_states, m)),
            spectrum[:length], defects, truncated_at)


def closed_form_trajectory(state_fn, grid, derivative_fn) -> Trajectory:
    """Trajectory from closed-form callables of the state and of its time
    derivative (at a rank-change instant, its right limit), bypassing the
    integrator."""
    grid = np.asarray(grid, dtype=float)
    states = np.stack([hermitian_part(as_matrix(state_fn(float(t)))) for t in grid])
    derivatives = np.stack([as_matrix(derivative_fn(float(t))) for t in grid])
    return Trajectory(grid, states, hermitian_part(derivatives), state_fn=state_fn)


def _whole_space(generator: LindbladGenerator):
    """The generator on all d^2 coordinates, G(t) being the transposed L_t."""
    if generator.invariant_sets() is not None:
        return generator.restricted(np.arange(generator.dim ** 2))
    return SimpleNamespace(time_independent=False, generators=lambda times: np.swapaxes(
        generator.superoperators(times), -1, -2))


def _certified_maps(operator, starts: np.ndarray, widths: np.ndarray, atol,
                    steps: int = 1, max_doublings: int = 14) -> np.ndarray:
    """The (K, m, m) row-convention maps of the intervals [starts, starts +
    widths] at once: exact exponentials for a time-independent generator,
    else CF4 maps from ``steps`` steps, each interval doubling its count
    until its n- and 2n-step maps agree entrywise within ``atol``."""
    if operator.time_independent:
        maps, which = _width_maps(operator, widths)
        return maps[which]
    counts = np.full(len(widths), steps)
    coarse, fine = (_cf4_maps(operator, starts, widths, n) for n in (steps, 2 * steps))
    while (failing := ~(np.max(np.abs(fine - coarse), axis=(-2, -1)) <= atol)).any():
        stalled = _regrow(operator, starts, widths, counts, coarse, fine, failing,
                          steps * 2 ** (max_doublings - 1))
        if stalled is not None:
            raise IntegrationError("time-ordered product did not converge to "
                                   f"{np.broadcast_to(atol, widths.shape)[stalled]:.1e} "
                                   f"within {max_doublings} doublings")
    return fine


def intermediate_map(generator: LindbladGenerator, s: float, t: float,
                     steps: int = 1, atol: float = 1e-8,
                     max_doublings: int = 14) -> SuperOperator:
    """Propagator M_{t,s}: the one-interval case of :func:`_certified_maps`,
    whose CF4 step count is doubled from ``steps``, at most ``max_doublings``
    times, until the n- and 2n-step maps agree entrywise within ``atol``."""
    if not (np.isfinite(s) and np.isfinite(t)):
        raise IntegrationError("intermediate map needs finite times")
    if t < s:
        raise IntegrationError("intermediate map requires s <= t")
    maps = _certified_maps(_whole_space(generator), np.array([float(s)]), np.array([t - s]),
                           atol, steps, max_doublings)
    return SuperOperator(maps[0].T)


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


def _rank_change_distance(rho, rho_dot) -> float:
    """Time for the smallest eigenvalue to reach 0 at its current speed; inf
    when the state is rank-deficient or that eigenvalue is not moving."""
    es = spectral_decompose(rho)
    lam_min, v = es.eigenvalues[-1], es.eigenvectors[:, -1]
    speed = abs(float(np.real(np.conj(v) @ as_matrix(rho_dot) @ v)))
    if lam_min <= ZERO_EIGENVALUE_RTOL * es.eigenvalues[0] or speed == 0.0:
        return np.inf
    return float(lam_min) / speed


def entropy_rate_fd(traj: Trajectory, index, h: float = 1e-4, richardson: bool = False):
    """Finite-difference entropy rate of a one-state trajectory at the grid
    point ``index``, as an oracle: a float for an int index, an array for an
    array of indices.

    Central differences (S(t+h) - S(t-h)) / 2h using the closed form when the
    trajectory has one, a short local integration when it has a generator,
    and the neighboring grid states otherwise (then h is the grid spacing).
    ``richardson=True`` combines the h and h/2 stencils for fourth-order
    accuracy, which matters near rank-change instants.  Off the grid, h is
    capped at each point at 1 % of the estimated distance to the nearest rank
    change, lambda_min / |<v_min| rho_dot |v_min>|, so that neither stencil
    reaches across it.  The entropies of every stencil state come from one
    stacked eigvalsh.
    """
    if traj.entries.ndim != 3:
        raise IntegrationError("finite-difference rates need a one-state (T, d, d) trajectory")
    indices = np.atleast_1d(np.asarray(index, dtype=int))
    if traj.state_fn is None and traj.generator is None:
        if np.any((indices <= 0) | (indices >= len(traj) - 1)):
            raise IndexError("finite differences need an interior grid point")
        spacing = traj.grid[indices + 1] - traj.grid[indices]
        entropies = traj.entropies()
        rates = (entropies[indices + 1] - entropies[indices - 1]) / (2.0 * spacing)
    else:
        caps = [0.01 * _rank_change_distance(traj.spectrum[k], traj.derivatives[k])
                for k in indices]
        coarse = np.minimum(h, caps)
        steps = np.stack([coarse, 0.5 * coarse] if richardson else [coarse])
        t = traj.grid[indices]
        taus = np.stack([t + steps, t - steps]).ravel()
        if traj.state_fn is not None:
            states = np.stack([as_matrix(traj.state_fn(float(tau))) for tau in taus])
        else:
            states = states_off_grid(traj, np.zeros(len(taus), dtype=int), taus)
        s_plus, s_minus = _entropies(np.linalg.eigvalsh(hermitian_part(states))).reshape(
            (2,) + steps.shape)
        rates = (s_plus - s_minus) / (2.0 * steps)
        rates = (4.0 * rates[1] - rates[0]) / 3.0 if richardson else rates[0]
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


def cp_divisibility_check(generator: LindbladGenerator, grid, atol: float = 1e-9,
                          positivity_samples: int = 24, seed: int = 11) -> DivisibilityReport:
    """Test every consecutive interval map for complete positivity.

    The verdict is ``cp_divisible`` when all interval Choi matrices are PSD
    and trace-preserving within tolerance, ``not_cp_divisible`` when some
    interval map also breaks positivity on sampled pure states, and
    ``p_divisible_only_undetermined`` when complete positivity fails but
    positivity survives the sampling (the check never certifies
    P-divisibility, it only reports that CP evidence failed without a
    positivity counterexample).  Sampled rate signs are reported alongside.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2 or not np.all(np.isfinite(grid)):
        raise IntegrationError("time grid needs at least 2 finite points")
    if np.any(np.diff(grid) <= 0):
        raise IntegrationError("time grid must be strictly increasing")
    maps = [SuperOperator(m.T) for m in _certified_maps(_whole_space(generator), grid[:-1],
                                                         np.diff(grid), atol=1e-8)]
    reports = [is_cptp(m, atol=atol) for m in maps]
    evidence = [IntervalEvidence(float(a), float(b), r.choi_min_eigenvalue, r.trace_defect)
                for a, b, r in zip(grid[:-1], grid[1:], reports)]
    worst_map = maps[int(np.argmin([r.choi_min_eigenvalue for r in reports]))]

    midpoints = 0.5 * (grid[:-1] + grid[1:])
    min_rates = tuple(float(np.min(term.rate_at(midpoints))) for term in generator.jumps)

    cp_ok = all(e.choi_min_eigenvalue >= -atol and e.trace_defect <= 1e-7
                for e in evidence)
    if cp_ok:
        verdict = "cp_divisible"
    else:
        rng = np.random.default_rng(seed)
        positive = True
        for _ in range(positivity_samples):
            v = rng.normal(size=generator.dim) + 1j * rng.normal(size=generator.dim)
            v /= np.linalg.norm(v)
            out = worst_map.apply(np.outer(v, v.conj()))
            if spectral_decompose(hermitian_part(out)).eigenvalues[-1] < -1e-8:
                positive = False
                break
        verdict = "p_divisible_only_undetermined" if positive else "not_cp_divisible"
    return DivisibilityReport(intervals=tuple(evidence),
                              min_sampled_rates=min_rates, verdict=verdict)


# ---------------------------------------------------------------------------
# Channel families: maps over a grid, as stacks
# ---------------------------------------------------------------------------

class ChannelFamily:
    """A dynamics described by its maps, as stacks over a whole grid.

    Subclasses give the (T, d^2, d^2) matrices, in the row-stacking
    convention of :mod:`entroflow.channels`, of M_{t,0} (``superoperators``)
    and of K_t = d/d eps M_{t+eps,t} at eps = 0 (``step_generators``), the
    exact short-time limit of the intermediate maps M_{t+eps,t};
    ``derivatives``, d/dt M_{t,0}, is K_t M_{t,0} for maps that compose.
    ``states``, ``evolve``, ``trajectories`` and the witnesses apply them to
    (N, d, d) stacks of initial states.
    """

    dim: int

    def superoperators(self, times) -> np.ndarray:
        raise NotImplementedError

    def step_generators(self, times) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, times) -> np.ndarray:
        return self.step_generators(times) @ self.superoperators(times)

    def states(self, rho0s, times) -> np.ndarray:
        """M_{t,0}(rho_0) as a (T, d, d) stack for one operator, (T, N, d, d)
        for a sequence or (N, d, d) stack of N operators, each taken through
        every time; a (T, N, d, d) array goes row t through time t only.
        """
        times = np.asarray(times, dtype=float)
        if np.any(times < 0):  # families are defined for t >= 0 only
            raise IntegrationError("channel family evaluated at negative time")
        return apply_superoperators(self.superoperators(times), _state_stack(rho0s))

    def evolve(self, rho0s, times) -> tuple[np.ndarray, np.ndarray, EigenSystem]:
        """States, their time derivatives and their spectra at ``times``.

        ``rho0s`` as in :meth:`states`.  The derivatives are the
        :meth:`derivatives` maps applied to the initial states, the spectra
        come from one eigh over the whole stack, which also validates the
        states.
        """
        starts = _state_stack(rho0s)
        states, spectrum = check_density_stack(hermitian_part(self.states(starts, times)))
        dots = apply_superoperators(self.derivatives(times), starts)
        return states, hermitian_part(dots), spectrum

    def trajectories(self, rho0s, grid) -> Trajectory:
        """The trajectory of one initial state, or of a stack of them, on a
        grid, from one :meth:`evolve`; it keeps its states off the grid in
        closed form."""
        starts = _state_stack(rho0s)
        states, dots, spectrum = self.evolve(starts, grid)
        return Trajectory(grid, states, dots, spectrum=spectrum,
                          state_fn=lambda t: self.states(starts, [t])[0])


def _trace_preserving(maps: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    """Check that a stack of superoperator matrices preserves the trace."""
    d = round(maps.shape[-1] ** 0.5)
    diagonal = np.arange(d) * (d + 1)  # entries of vec(X) holding X_ii
    defect = float(np.max(np.abs(maps[..., diagonal, :].sum(axis=-2) - np.eye(d).reshape(-1))))
    if defect > atol:
        raise ChannelError(f"family map is not trace preserving: defect {defect:.3e}")
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

    def step_generators(self, times) -> np.ndarray:
        return np.broadcast_to(self.derivatives([0.0]), (np.size(times), 4, 4))


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
    """

    def __init__(self, gamma_integral):
        self.gamma_integral = gamma_integral
        self.dim = 2

    def superoperators(self, times) -> np.ndarray:
        coherences = np.exp(-self.gamma_integral(np.atleast_1d(np.asarray(times, dtype=float))))
        if np.any(np.abs(coherences) > 1.0):
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


class GeneratorFamily(ChannelFamily):
    """Dynamics induced by a Lindblad generator, via time-ordered propagators.

    M_{t,0} chains the maps of the intervals between the sorted distinct
    times, 0 prepended, built in one :func:`_certified_maps` call (O(T)),
    each certified to ``map_atol`` times its share of the span; K_t is the
    superoperator of L_t, and trajectories propagate the stack of states.
    """

    def __init__(self, generator: LindbladGenerator, map_atol: float = 1e-9):
        self.generator = generator
        self.dim = generator.dim
        self.map_atol = map_atol

    def superoperators(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if not np.all((times >= 0.0) & (times < np.inf)):
            raise IntegrationError("generator family maps need finite times t >= 0")
        knots, which = np.unique(np.append(0.0, times), return_inverse=True)
        widths = np.diff(knots)
        maps = _certified_maps(_whole_space(self.generator), knots[:-1], widths,
                               self.map_atol * widths / knots[-1])
        chained = np.stack(list(accumulate(maps, np.matmul, initial=np.eye(self.dim ** 2))))
        return np.swapaxes(chained, -1, -2)[which[1:]]

    def step_generators(self, times) -> np.ndarray:
        return self.generator.superoperators(np.atleast_1d(times))

    def trajectories(self, rho0s, grid) -> Trajectory:
        return propagate(self.generator, rho0s, grid)


# ---------------------------------------------------------------------------
# Closed-form example trajectories
# ---------------------------------------------------------------------------

def damping_qubit_state(t: float) -> np.ndarray:
    """Relaxation into |0>: diag(1 - e^{-t}, e^{-t}); rank jumps 1 -> 2 at t = 0+."""
    e = np.exp(-t)
    return np.diag([1.0 - e, e]).astype(complex)


def _damping_qubit_derivative(t: float) -> np.ndarray:
    e = np.exp(-t)
    return np.diag([e, -e]).astype(complex)


def oscillating_qubit_state(t: float) -> np.ndarray:
    """diag(cos^2(pi t), sin^2(pi t)); the rank drops to 1 at every half-integer t."""
    c = np.cos(np.pi * t) ** 2
    return np.diag([c, 1.0 - c]).astype(complex)


def _oscillating_qubit_derivative(t: float) -> np.ndarray:
    s = np.pi * np.sin(2.0 * np.pi * t)
    return np.diag([-s, s]).astype(complex)


def damping_qubit_trajectory(grid) -> Trajectory:
    return closed_form_trajectory(damping_qubit_state, grid,
                                  derivative_fn=_damping_qubit_derivative)


def oscillating_qubit_trajectory(grid) -> Trajectory:
    return closed_form_trajectory(oscillating_qubit_state, grid,
                                  derivative_fn=_oscillating_qubit_derivative)


def export_trajectory(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV: t, state entries (re/im pairs), entropy, rate.

    Column order: time, then Re/Im of the row-major vectorized state, then
    entropy, then entropy rate.  Floats are rendered with repr so identical
    trajectories produce byte-identical files.
    """
    d = traj.entries.shape[-1]
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    header += ["entropy", "entropy_rate"]
    flat = traj.entries.reshape(len(traj), d * d)
    re_im = np.stack([flat.real, flat.imag], axis=-1).reshape(len(traj), 2 * d * d)
    write_csv(path, header, np.column_stack([traj.grid, re_im, traj.entropies(), traj.entropy_rates()]))
