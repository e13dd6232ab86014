"""Entropy-change bounds, rate limits, and non-Markovianity machinery.

The central quantity is the pinned adjoint-generator trace Tr{Pi_t L_t^dag(rho_t)}:
it vanishes for unital dynamics at full-rank states (witnessing non-unitality
when it does not; at rank-deficient states it can be nonzero for unital
dynamics too), its negative lower-bounds the entropy rate of any
CP-divisible evolution, and its mismatch against the short-time channel
derivative feeds the memory tests.
Measures maximize over sampled initial states, so reported values are
certified lower bounds on the true suprema.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import write_csv
from .channels import (
    LindbladGenerator,
    QuantumChannel,
    apply_superoperators,
    unitality_class,
)
from .dynamics import (
    ChannelFamily,
    Trajectory,
    _checked_grid,
    _expectations,
    _integration_operator,
    entropy_rate,
    expm,
    propagate,
    states_off_grid,
)
from .linalg import (
    DensityMatrix,
    EigenSystem,
    as_matrix,
    dagger,
    hermitian_part,
    is_infinite,
    matrix_log_on_support,
    relative_entropy,
    schatten_norm,
    spectral_decompose,
    von_neumann_entropy,
)

__all__ = [
    "EPS_WITNESS",
    "EPS_TEST_C",
    "WitnessError",
    "WitnessReport",
    "MeasureResult",
    "entropy_change",
    "entropy_change_lower_bound",
    "entropy_change_upper_bound",
    "entropy_change_upper_bound_holder",
    "theorem2_bound",
    "nonunitality_witness",
    "epsilon_derivative",
    "f_components",
    "test_a",
    "test_b",
    "test_c",
    "witness_reports",
    "export_witness_reports",
    "measure_generator",
    "measure_channel",
    "blp_measure",
    "SandwichBounds",
    "semigroup_sandwich",
    "PinskerGap",
    "pinsker_gap",
    "environment_simulation_bound",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

EPS_WITNESS = 1e-7       # violation threshold for the rate tests
EPS_TEST_C = 1e-6        # mismatch threshold for the derivative-consistency test
BISECT_ATOL = 1e-6       # largest width of the final bracket of a violation window's edge
UNITARY_SATURATION_ATOL = 1e-8  # |Delta S - bound| allowed for a unitary interaction
SANDWICH_GENERATOR_ATOL = 1e-9  # entrywise L - L^dag and L(I) of a self-adjoint unital generator
SANDWICH_SLACK = 1e-8           # allowed violation of the semigroup sandwich
PINSKER_SLACK = 1e-10           # allowed violation of either side of the Pinsker pair
SIMULATION_BOUND_SLACK = 1e-9   # allowed Delta S below the environment-simulation bound


class WitnessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Entropy change and its bounds
# ---------------------------------------------------------------------------

def _back_action(channel: QuantumChannel, rho) -> np.ndarray:
    """N^dag(N(rho)) as a matrix."""
    return hermitian_part(channel.adjoint_apply(channel.apply(rho)))


def entropy_change(channel: QuantumChannel, rho) -> float:
    """S(N(rho)) - S(rho)."""
    a = as_matrix(rho)
    if a.shape != (channel.dim_in, channel.dim_in):
        raise WitnessError(
            f"state dim {a.shape[0]} does not match channel input {channel.dim_in}"
        )
    return von_neumann_entropy(hermitian_part(channel.apply(a))) - von_neumann_entropy(rho)


def entropy_change_lower_bound(channel: QuantumChannel, rho):
    """D(rho || N^dag(N(rho))): a lower bound on the entropy change of any
    positive trace-preserving map (trace-non-increasing maps need N(rho) > 0).

    Returns the infinite-divergence sentinel on support violation.
    """
    return relative_entropy(rho, _back_action(channel, rho))


def _require_full_rank(rho, name: str = "state") -> np.ndarray:
    if spectral_decompose(rho).eigenvalues[-1] <= 1e-12:
        raise WitnessError(f"{name} must be full rank for this bound")
    return as_matrix(rho)


def entropy_change_upper_bound(channel: QuantumChannel, rho) -> float:
    """Tr{[rho - N^dag(N(rho))] log rho} for a sub-unital channel and rho > 0."""
    a = _require_full_rank(rho)
    if not unitality_class(channel).is_sub_unital:
        raise WitnessError("upper bound requires a sub-unital channel")
    diff = a - _back_action(channel, a)
    return float(np.real(np.trace(diff @ matrix_log_on_support(rho))))


def entropy_change_upper_bound_holder(channel: QuantumChannel, rho) -> float:
    """||rho - N^dag(N(rho))||_1 ||log rho||_inf: the norm-product relaxation
    of the trace-form upper bound."""
    a = _require_full_rank(rho)
    diff = a - _back_action(channel, a)
    return schatten_norm(diff, 1) * schatten_norm(matrix_log_on_support(rho), np.inf)


# ---------------------------------------------------------------------------
# Rate bound and non-unitality witness
# ---------------------------------------------------------------------------

def _images(apply, times, rows: np.ndarray) -> np.ndarray:
    """``apply`` (an operator's ``apply`` or ``adjoint_apply``) on its
    coordinate rows (T, ..., m) at times (T,), as rows of the same shape:
    one product, with one time per row, float64 for the float64 rows of a
    real restriction."""
    flat = rows.reshape(-1, rows.shape[-1])
    times = np.repeat(np.asarray(times, dtype=float), len(flat) // len(times))
    return apply(times, flat).reshape(rows.shape)


def _support_traces(operator, spectrum: EigenSystem, rows: np.ndarray) -> np.ndarray:
    """Re Tr{Pi A} for the operators A held as coordinate rows (T, ..., m) of
    ``operator``, with Pi the support projectors of ``spectrum``: read from
    the rows' populations for the spectra of a diagonal stack, and from the
    scattered stack otherwise (:func:`~entroflow.dynamics._expectations`)."""
    return spectrum.support_sums(_expectations(operator, spectrum, rows))


def _pinned_adjoint_traces(operator, times, rows: np.ndarray,
                           spectrum: EigenSystem) -> np.ndarray:
    """Tr{Pi L_t^dag(rho)} for states held as coordinate rows (T, ..., m) of
    ``operator``, with their spectra, at times (T,): the expectations of
    L_t^dag(rho) summed over the supports.

    ``operator`` is what the states were integrated with
    (:attr:`Trajectory.operator`, whose rows :meth:`Trajectory.coordinates`
    gives): a dense restriction of the generator to the invariant sets the
    states touch, which holds L_t^dag exactly, or the whole generator."""
    return _support_traces(operator, spectrum, _images(operator.adjoint_apply, times, rows))


def nonunitality_witness(generator: LindbladGenerator, t: float, rho) -> float:
    """Tr{Pi_t L_t^dag(rho_t)}: the one-state case of
    :func:`_pinned_adjoint_traces`, through the operator :func:`propagate`
    would integrate rho with.

    Zero for unital dynamics at full-rank states, where Pi = I and
    Tr{L^dag(rho)} = Tr{rho L(I)} = 0.  At rank-deficient states it need not
    vanish: the sigma_z dephasing generator at |+> gives -gamma/2.
    """
    states = as_matrix(rho)[None]
    operator = _integration_operator(generator, states)
    return float(_pinned_adjoint_traces(operator, [t], operator.coordinates(states),
                                        spectral_decompose(rho)[None])[0])


def theorem2_bound(generator: LindbladGenerator, t: float, rho) -> float:
    """-Tr{Pi_t L_t^dag(rho_t)}: the CP-divisible lower limit on dS/dt, the
    negative of :func:`nonunitality_witness`."""
    return -nonunitality_witness(generator, t, rho)


# ---------------------------------------------------------------------------
# Channel-side witness: the short-time derivative and f(t)
# ---------------------------------------------------------------------------

def _epsilon_derivatives(family: ChannelFamily, times, states: np.ndarray,
                         spectrum: EigenSystem) -> np.ndarray:
    """d/d eps Tr{Pi_t (M_{t+eps,t})^dag M_{t+eps,t}(rho_t)} at eps = 0 for
    states (T, N, d, d) with their spectra at times (T,): a (T, N) array.

    Tr{Pi M^dag M(rho)} is <M(Pi), M(rho)>_HS and M_{t,t} = id, so the limit
    is <K_t(Pi), rho> + <Pi, K_t(rho)> = Tr{Pi (K_t + K_t^dag)(rho)}, with
    K_t the family's step generator: one product over the stack, whose
    expectations are summed over the supports.  For a Lindblad generator
    K_t = L_t, and :func:`witness_reports` reads the term from the images
    of L_t and L_t^dag instead.
    """
    k = family.step_generators(times)
    return spectrum.support_traces(apply_superoperators(k + np.conj(np.swapaxes(k, -1, -2)), states))


def epsilon_derivative(family: ChannelFamily, rho_t, t: float) -> float:
    """d/d eps Tr{Pi_t (M_{t+eps,t})^dag M_{t+eps,t}(rho_t)} at eps = 0, for
    one state: the T = N = 1 case of the stacked derivative."""
    a = hermitian_part(as_matrix(rho_t))
    spectrum = spectral_decompose(rho_t)
    return float(_epsilon_derivatives(family, [t], a[None, None], spectrum[None, None])[0, 0])


def _f_parts(family: ChannelFamily, times, states: np.ndarray, dots: np.ndarray,
             spectrum: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    """(entropy rates, short-time derivative terms) of f for states (T, N, d, d)
    at times (T,), with their derivatives and spectra: two (T, N) arrays."""
    return entropy_rate(spectrum, dots), _epsilon_derivatives(family, times, states, spectrum)


def f_components(family: ChannelFamily, rho0, t):
    """(entropy rate, short-time derivative term) along the family trajectory.

    ``t`` is one time, or an array of times; then both components are
    arrays over it, computed as one stack.  The rate reads the state's
    derivative from the family's exact d/dt M_{t,0}.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    rates, eps_terms = _f_parts(family, times, *family.evolve([rho0], times))
    if np.ndim(t):
        return rates[:, 0], eps_terms[:, 0]
    return float(rates[0, 0]), float(eps_terms[0, 0])


# ---------------------------------------------------------------------------
# Memory tests and per-time reports
# ---------------------------------------------------------------------------

def test_a(f_value: float) -> bool:
    """f below -``EPS_WITNESS`` certifies non-Markovianity."""
    return f_value < -EPS_WITNESS


def test_b(rate: float, bound: float) -> bool:
    """A rate ``EPS_WITNESS`` below the CP-divisible limit certifies non-Markovianity."""
    return rate - bound < -EPS_WITNESS


def test_c(eps_derivative_value: float, generator_term: float) -> bool:
    """Mismatch above ``EPS_TEST_C`` of the channel-side derivative and Tr{Pi L^dag rho}."""
    return abs(eps_derivative_value - generator_term) > EPS_TEST_C


@dataclass(frozen=True)
class WitnessReport:
    """Per-time record of the rate, its lower limit, f, and test outcomes."""

    time: float
    entropy_rate: float
    theorem2_bound: float
    f_value: float
    nonunitality: float
    flags: frozenset[str]

    @property
    def violation(self) -> float:
        return self.entropy_rate - self.theorem2_bound


def witness_reports(generator: LindbladGenerator, traj: Trajectory) -> list[WitnessReport]:
    """One WitnessReport per point of a one-state trajectory that
    :func:`propagate` integrated with ``generator``; any other trajectory
    raises :class:`WitnessError`.

    The f column and test (a)/(c) need the short-time derivative term
    Tr{Pi (K_t + K_t^dag)(rho_t)}, and K_t = L_t for a Lindblad generator:
    with the witness Tr{Pi L_t^dag(rho_t)} it is read from the images of
    L_t^dag and L_t over the whole trajectory, each one product of the
    operator the trajectory was integrated with (:attr:`Trajectory.operator`,
    a dense restriction to the invariant sets its states touch, or the
    sparse generator) on the rows it holds, with no dense superoperator.
    Every column is computed over the whole trajectory at once.  Rows with
    |:meth:`Trajectory.left_out_rates`| > ``EPS_WITNESS`` carry no test flags.
    """
    if traj.generator is not generator:
        raise WitnessError("witness reports need a trajectory propagated with the generator")
    excluded = np.abs(traj.left_out_rates()) > EPS_WITNESS
    rates = traj.entropy_rates()
    operator, rows = traj.operator, traj.coordinates()
    adjoint_images = _images(operator.adjoint_apply, traj.grid, rows)
    witness = _support_traces(operator, traj.spectrum, adjoint_images)
    bounds = -witness
    eps_terms = _support_traces(operator, traj.spectrum,
                                adjoint_images + _images(operator.apply, traj.grid, rows))
    f_values = rates + eps_terms
    tests = {"test_a_passed": test_a(f_values), "test_b_passed": test_b(rates, bounds),
             "test_c_passed": test_c(eps_terms, witness)}
    return [WitnessReport(time=float(t), entropy_rate=float(rates[k]),
                          theorem2_bound=float(bounds[k]), f_value=float(f_values[k]),
                          nonunitality=float(witness[k]),
                          flags=frozenset(name for name, passed in tests.items()
                                          if passed[k] and not excluded[k]))
            for k, t in enumerate(traj.grid)]


def export_witness_reports(reports, path) -> None:
    """CSV stream: t, rate, bound, f, nonunitality, flags (semicolon-joined).

    The five number columns go to :func:`write_csv` as float64 arrays of the
    reports' floats and the flags as strings, so the file is byte-identical
    to one written report by report with repr.
    """
    numbers = np.array([(r.time, r.entropy_rate, r.theorem2_bound, r.f_value, r.nonunitality)
                        for r in reports], dtype=float).reshape(len(reports), 5)
    write_csv(path, ["t", "entropy_rate", "theorem2_bound", "f", "nonunitality", "flags"],
              [*numbers.T, [";".join(sorted(r.flags)) for r in reports]])


# ---------------------------------------------------------------------------
# Measures of non-Markovianity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureResult:
    """Max over sampled initial states of the integrated witness violation."""

    value: float
    argmax_state: DensityMatrix | None
    samples_used: int
    sample_values: tuple[float, ...]


def _violation_integrals(grid: np.ndarray, values: np.ndarray, threshold: float,
                         evaluate, excluded: np.ndarray) -> np.ndarray:
    """Integral of |v| over {v < -threshold} by trapezoid rule, per column
    of the (T, N) values.

    The edge of a window inside a grid interval [t0, t1], the root of
    v(t) = -threshold, is located by safeguarded false position on
    ``evaluate(columns, times)``, the witness off the grid for each
    (column, time) pair.  A round evaluates every open edge at three points
    of its bracket [lo, hi], all in one call: the false-position point of
    the bracket's end values (the grid values in the first round, the
    midpoint where they give none), clipped ``0.4 * BISECT_ATOL`` inside
    the bracket; a partner point ``0.4 * BISECT_ATOL`` from it, toward the
    midpoint; and the midpoint.  The new bracket is the first sub-interval
    from lo whose far end does not share lo's side of the threshold.  The
    midpoint bounds every round to bisection's halving, and the partner
    closes the bracket once the false-position point lands within
    ``0.4 * BISECT_ATOL`` of the root.  Each final bracket is at most
    ``BISECT_ATOL`` wide and holds a change of side, and the edge is taken
    at its midpoint.  A non-finite witness value counts as non-violating.
    Grid points under the exclusion mask are treated as non-violating:
    there the rate on the support misses more than the threshold, so the
    grid value is no evidence either way.
    """
    violating = (values < -threshold) & ~excluded
    a, b = violating[:-1], violating[1:]
    v0, v1 = values[:-1], values[1:]
    totals = np.sum(np.where(a & b, 0.5 * (-v0 - v1) * np.diff(grid)[:, None], 0.0), axis=0)

    ks, ns = np.nonzero(a != b)  # one window edge per (interval, column)
    if ks.size:
        t0, t1 = grid[ks], grid[ks + 1]
        # brackets and their ends' values, shifted so that the root is f = 0
        ends = np.stack([t0, t1], axis=1)
        f_ends = np.stack([v0[ks, ns], v1[ks, ns]], axis=1) + threshold
        below_lo = v0[ks, ns] < -threshold
        gap = 0.4 * BISECT_ATOL
        active = np.flatnonzero(ends[:, 1] - ends[:, 0] > BISECT_ATOL)
        while active.size:
            (lo, hi), (f_lo, f_hi) = ends[active].T, f_ends[active].T
            mid = 0.5 * (lo + hi)
            with np.errstate(all="ignore"):
                x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                x = np.where((np.sign(f_lo) * np.sign(f_hi) <= 0.0) & np.isfinite(x), x, mid)
            x = np.clip(x, lo + gap, hi - gap)
            points = np.sort(np.stack([x, x + gap * np.sign(mid - x), mid], axis=1), axis=1)
            f_points = evaluate(np.repeat(ns[active], 3), points.ravel()).reshape(-1, 3) + threshold
            # the first evaluated point off lo's side, or hi: the new bracket's far end
            off_side = (f_points < 0.0) != below_lo[active, None]
            far = np.argmax(np.column_stack([off_side, np.ones(len(active), bool)]), axis=1)
            t_all = np.column_stack([lo, points, hi])
            f_all = np.column_stack([f_lo, f_points, f_hi])
            pick = np.stack([far, far + 1], axis=1)
            ends[active] = np.take_along_axis(t_all, pick, axis=1)
            f_ends[active] = np.take_along_axis(f_all, pick, axis=1)
            active = active[ends[active, 1] - ends[active, 0] > BISECT_ATOL]
        t_star = np.clip(ends.mean(axis=1), t0, t1)
        np.add.at(totals, ns, np.where(a[ks, ns], 0.5 * (-v0[ks, ns] + threshold) * (t_star - t0),
                                       0.5 * (threshold - v1[ks, ns]) * (t1 - t_star)))
    return totals


def _measure(state_sampler, grid, trajectories, values, evaluate) -> MeasureResult:
    """Max over sampled initial states of the integrated violation of a witness.

    The N sampled states are stacked once, as (N, d, d).
    ``trajectories(starts, grid)`` gives one stacked (T, N, d, d) trajectory
    of that stack, ``values(traj)`` the witness on the grid as a (T, N)
    array, and ``evaluate(starts, traj, columns, times)`` the witness off the
    grid for (state, time) pairs, for the false-position search that places
    each window edge inside a bracket of at most ``BISECT_ATOL``
    (:func:`_violation_integrals`).  A grid point counts where the witness is
    below -``EPS_WITNESS``.  A grid point is excluded for a state where
    |:meth:`Trajectory.left_out_rates`| (read as (T, N)) exceeds ``EPS_WITNESS``.
    """
    states = list(state_sampler)
    if not states:
        raise WitnessError("state sampler yielded no states")
    grid = np.asarray(grid, dtype=float)
    starts = np.stack([as_matrix(rho) for rho in states])
    traj = trajectories(starts, grid)
    integrals = _violation_integrals(grid, values(traj), EPS_WITNESS,
                                     lambda ns, ts: evaluate(starts, traj, ns, ts),
                                     np.abs(traj.left_out_rates()) > EPS_WITNESS)
    best = int(np.argmax(integrals))
    return MeasureResult(value=float(integrals[best]), argmax_state=states[best],
                         samples_used=len(states), sample_values=tuple(map(float, integrals)))


def measure_generator(generator: LindbladGenerator, state_sampler, grid) -> MeasureResult:
    """Max over initial states of the integrated Theorem-2 violation.

    The whole sampler is propagated as one stack, and for each sampled rho_0
    |dS/dt + Tr{Pi L^dag rho}| is integrated over the times where it is below
    -``EPS_WITNESS``; each window edge is located by safeguarded false
    position to a bracket of at most ``BISECT_ATOL`` that holds a change of
    side, and taken at its midpoint (:func:`_violation_integrals`).  Grid
    points whose |left-out rate| exceeds ``EPS_WITNESS`` are excluded.
    Every round of that search takes its states from :func:`states_off_grid`
    through the operator the one :func:`propagate` call kept on the
    trajectory: step-doubled RK4 from the nearest grid point, certified as
    every propagated grid state is, or an :class:`IntegrationError`.  The witness
    Tr{Pi L_t^dag(rho_t)}, on the grid and off it, and L_t(rho_t) off the
    grid are products of that same operator.
    """
    def values(traj: Trajectory) -> np.ndarray:
        return traj.entropy_rates() + _pinned_adjoint_traces(traj.operator, traj.grid,
                                                             traj.coordinates(), traj.spectrum)

    def evaluate(starts, traj, ns, ts) -> np.ndarray:
        off_grid = states_off_grid(traj, ns, ts)
        operator, spectrum = traj.operator, spectral_decompose(off_grid)
        rows = operator.coordinates(off_grid)
        dots = operator.states(_images(operator.apply, ts, rows))
        return entropy_rate(spectrum, dots) + _pinned_adjoint_traces(operator, ts, rows, spectrum)

    return _measure(state_sampler, grid, lambda states, g: propagate(generator, states, g),
                    values, evaluate)


def measure_channel(family: ChannelFamily, state_sampler, grid) -> MeasureResult:
    """Max over initial states of the integrated negative part of f(t): as
    :func:`measure_generator`, with f in place of the Theorem-2 witness and
    the same ``EPS_WITNESS``, left-out-rate exclusion and false-position edge
    search to ``BISECT_ATOL``, whose rounds evolve the sampled states to their
    off-grid times with the family's exact maps.  On the grid the entropy
    rates are those the trajectory computed at construction."""
    def values(traj: Trajectory) -> np.ndarray:
        return traj.entropy_rates() + _epsilon_derivatives(family, traj.grid, traj.entries,
                                                           traj.spectrum)

    def evaluate(starts, traj, ns, ts) -> np.ndarray:
        # row c at time ts[c] only
        rates, eps_terms = _f_parts(family, ts, *family.evolve(starts[ns][:, None], ts))
        return (rates + eps_terms)[:, 0]

    return _measure(state_sampler, grid, family.trajectories, values, evaluate)


def blp_measure(family: ChannelFamily, pair_sampler, grid) -> float:
    """Trace-distance revival measure: max over state pairs of the integrated
    positive part of d/dt (1/2)||rho^1_t - rho^2_t||_1 (central differences).

    The maps are linear, so every pair's difference is evolved in one
    (T, P, d, d) stack, and its trace norms come from one stacked eigvalsh.
    """
    pairs = list(pair_sampler)
    if not pairs:
        raise WitnessError("pair sampler yielded no state pairs")
    grid = _checked_grid(grid, 2)
    evolved = family.states([as_matrix(rho1) - as_matrix(rho2) for rho1, rho2 in pairs], grid)
    distances = 0.5 * np.abs(np.linalg.eigvalsh(hermitian_part(evolved))).sum(axis=-1)
    revivals = np.clip(np.gradient(distances, grid, axis=0), 0.0, None)
    return float(np.max(_trapezoid(revivals, grid, axis=0)))


# ---------------------------------------------------------------------------
# Semigroup sandwich, Pinsker pair, environment simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichBounds:
    lower: float
    entropy: float
    upper: float
    initial_entropy: float
    relative_entropy_bound: float


def semigroup_sandwich(generator: LindbladGenerator, rho0, t: float) -> SandwichBounds:
    """-Tr{rho_0 log rho_2t} <= S(rho_t) <= -Tr{rho_2t log rho_0} for a
    self-adjoint unital semigroup, plus S(rho_t) - S(rho_0) >= D(rho_0||rho_2t).

    Requires a time-independent generator whose superoperator is Hermitian
    (self-adjoint map) and unital within ``SANDWICH_GENERATOR_ATOL``, and a
    full-rank initial state; the sandwich may fail by ``SANDWICH_SLACK``.
    """
    if not generator.is_time_independent():
        raise WitnessError("sandwich bounds need a time-independent generator")
    s = generator.superoperator(0.0)
    if np.max(np.abs(s.matrix - dagger(s.matrix))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not self-adjoint")
    if np.max(np.abs(s.apply(np.eye(generator.dim)))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not unital")
    a = _require_full_rank(rho0, "initial state")
    m_t = expm(t * s.matrix)
    v0 = a.reshape(-1)
    rho_t = hermitian_part((m_t @ v0).reshape(a.shape))
    rho_2t = hermitian_part((m_t @ rho_t.reshape(-1)).reshape(a.shape))

    entropy = von_neumann_entropy(rho_t)
    lower = float(-np.real(np.trace(a @ matrix_log_on_support(rho_2t))))
    upper = float(-np.real(np.trace(rho_2t @ matrix_log_on_support(rho0))))
    if not (lower - SANDWICH_SLACK <= entropy <= upper + SANDWICH_SLACK):
        raise WitnessError(
            f"sandwich violated at t={t}: {lower} <= {entropy} <= {upper}"
        )
    d = relative_entropy(rho0, rho_2t)
    if is_infinite(d):
        raise WitnessError("relative entropy bound is infinite on a full-rank pair")
    return SandwichBounds(lower=lower, entropy=entropy, upper=upper,
                          initial_entropy=von_neumann_entropy(rho0),
                          relative_entropy_bound=float(d))


@dataclass(frozen=True)
class PinskerGap:
    relative_entropy: float
    half_trace_norm_sq: float
    reverse_bound: float


def pinsker_gap(channel: QuantumChannel, rho) -> PinskerGap:
    """Both sides of the Pinsker pair for a trace-preserving sub-unital channel.

    Checks D >= ||rho - N^dag N(rho)||_1^2 / 2 and
    ||rho - N^dag N(rho)||_1 >= D / ||log rho||_inf, raising on a violation
    by more than ``PINSKER_SLACK``.
    The reverse bound follows from Jensen's operator inequality for the
    unital map N^dag N, which is unital only when N is trace preserving;
    for a trace-non-increasing operation it can fail (N = sqrt(1/2) id on
    I/2 gives D = log 2 > ||rho - N^dag N(rho)||_1 ||log rho||_inf
    = (1/2) log 2), so such inputs are rejected.
    """
    if not channel.trace_preserving:
        raise WitnessError("Pinsker pair needs a trace-preserving channel")
    if not unitality_class(channel).is_sub_unital:
        raise WitnessError("Pinsker pair needs a sub-unital operation")
    a = _require_full_rank(rho)
    back = _back_action(channel, a)
    _require_full_rank(back, "N^dag N(rho)")
    d = relative_entropy(rho, back)
    if is_infinite(d):
        raise WitnessError("relative entropy infinite despite full-rank back action")
    d = float(d)
    tn = schatten_norm(a - back, 1)
    log_norm = schatten_norm(matrix_log_on_support(rho), np.inf)
    if d < 0.5 * tn * tn - PINSKER_SLACK:
        raise WitnessError(f"Pinsker inequality violated: D={d}, ||.||_1={tn}")
    if tn < d / log_norm - PINSKER_SLACK:
        raise WitnessError(f"reverse Pinsker violated: D={d}, ||.||_1={tn}")
    return PinskerGap(relative_entropy=d, half_trace_norm_sq=0.5 * tn * tn,
                      reverse_bound=d / log_norm)


def environment_simulation_bound(interaction: QuantumChannel, theta_c,
                                 rho_a) -> tuple[float, float]:
    """Entropy-change bound for E(rho_A) = F(rho_A (x) theta_C).

    Returns (Delta S, S(theta_C) + D(rho_A (x) theta_C || F^dag F(...))) and
    checks Delta S >= bound - ``SIMULATION_BOUND_SLACK``.  When F is a
    single-Kraus unitary interaction the two sides must agree within
    ``UNITARY_SATURATION_ATOL``.
    """
    a = as_matrix(rho_a)
    c = as_matrix(theta_c)
    joint = np.kron(a, c)
    if joint.shape != (interaction.dim_in, interaction.dim_in):
        raise WitnessError(
            f"joint input dim {joint.shape[0]} does not match channel input "
            f"{interaction.dim_in}"
        )
    out = hermitian_part(interaction.apply(joint))
    delta_s = von_neumann_entropy(out) - von_neumann_entropy(rho_a)
    d = relative_entropy(joint, _back_action(interaction, joint))
    if is_infinite(d):
        raise WitnessError("simulation bound is infinite; support collapsed")
    bound = von_neumann_entropy(theta_c) + float(d)
    if delta_s < bound - SIMULATION_BOUND_SLACK:
        raise WitnessError(f"simulation bound violated: {delta_s} < {bound}")
    if len(interaction.kraus) == 1:
        k = interaction.kraus[0]
        if np.max(np.abs(dagger(k) @ k - np.eye(interaction.dim_in))) < 1e-10:
            if abs(delta_s - bound) > UNITARY_SATURATION_ATOL:
                raise WitnessError(
                    f"unitary interaction should saturate the bound: "
                    f"{delta_s} vs {bound}"
                )
    return delta_s, bound
