"""Entropy-change bounds, rate limits, and non-Markovianity machinery.

The central quantity is the pinned adjoint-generator trace Tr{Pi_t L_t^dag(rho_t)}:
it vanishes for unital dynamics at full-rank states (witnessing non-unitality
when it does not; at rank-deficient states it can be nonzero for unital
dynamics too), its negative lower-bounds the entropy rate of any
CP-divisible evolution, and its mismatch against the short-time channel
derivative feeds the memory tests.
A measure is the largest integrated violation over a fixed sample of
initial states, each integral taken by the trapezoid rule with its window
edges placed within ``BISECT_ATOL``.  It is not a certified bound on the
true supremum: the sample may miss the maximizing state, and the quadrature
and the edges carry errors of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ._util import refine_brackets, write_csv
from .channels import (
    LindbladGenerator,
    QuantumChannel,
    apply_superoperators,
    is_sub_unital,
    trace_defects,
)
from .dynamics import (
    ChannelFamily,
    Trajectory,
    _checked_grid,
    _expectations,
    _integration_operator,
    entropy_rate,
    intermediate_map,
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
    """S(N(rho)) - S(rho); a mis-shaped state raises ChannelError."""
    return von_neumann_entropy(hermitian_part(channel.apply(rho))) - von_neumann_entropy(rho)


def entropy_change_lower_bound(channel: QuantumChannel, rho):
    """D(rho || N^dag(N(rho))): a lower bound on the entropy change of any
    positive trace-preserving map (trace-non-increasing maps need N(rho) > 0).

    Returns the infinite-divergence sentinel on support violation.
    """
    return relative_entropy(rho, _back_action(channel, rho))


def _require_full_rank(rho, name: str = "state") -> EigenSystem:
    """The spectrum of ``rho``, which must be full rank."""
    spectrum = spectral_decompose(rho)
    if spectrum.eigenvalues[-1] <= 1e-12:
        raise WitnessError(f"{name} must be full rank for this bound")
    return spectrum


def entropy_change_upper_bound(channel: QuantumChannel, rho) -> float:
    """Tr{[rho - N^dag(N(rho))] log rho} for a sub-unital channel and rho > 0."""
    spectrum = _require_full_rank(rho)
    if not is_sub_unital(channel):
        raise WitnessError("upper bound requires a sub-unital channel")
    diff = as_matrix(rho) - _back_action(channel, rho)
    return float(spectrum.support_logs() @ spectrum.expectations(diff))


def entropy_change_upper_bound_holder(channel: QuantumChannel, rho) -> float:
    """||rho - N^dag(N(rho))||_1 ||log rho||_inf: the norm-product relaxation
    of the trace-form upper bound; ||log rho||_inf = -log lambda_min."""
    spectrum = _require_full_rank(rho)
    diff = as_matrix(rho) - _back_action(channel, rho)
    return schatten_norm(diff, 1) * -float(np.log(spectrum.eigenvalues[-1]))


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


def f_components(family: ChannelFamily, rho0, times) -> tuple[np.ndarray, np.ndarray]:
    """(entropy rates, short-time derivative terms) along the family
    trajectory at an array of times, computed as one stack.  The rate reads
    the state's derivative from the family's exact d/dt M_{t,0}."""
    rates, eps_terms = _f_parts(family, times, *family.evolve([rho0], times))
    return rates[:, 0], eps_terms[:, 0]


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


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """The rate, its lower limit, f and nonunitality of a one-state trajectory
    as (T,) float64 arrays; ``excluded`` marks the rows whose
    |:meth:`Trajectory.left_out_rates`| exceeds ``EPS_WITNESS``, and ``flags``
    maps each test's flag name to its (T,) outcomes, false on excluded rows."""

    time: np.ndarray
    entropy_rate: np.ndarray
    theorem2_bound: np.ndarray
    f_value: np.ndarray
    nonunitality: np.ndarray
    excluded: np.ndarray
    flags: dict[str, np.ndarray]

    @property
    def violation(self) -> np.ndarray:
        return self.entropy_rate - self.theorem2_bound


def witness_reports(generator: LindbladGenerator, traj: Trajectory) -> WitnessReport:
    """The :class:`WitnessReport` of a one-state trajectory that
    :func:`propagate` integrated with ``generator``; any other trajectory,
    a stack of several states among them, raises :class:`WitnessError`.

    The f column and test (a)/(c) need the short-time derivative term
    Tr{Pi (K_t + K_t^dag)(rho_t)}, and K_t = L_t for a Lindblad generator:
    with the witness Tr{Pi L_t^dag(rho_t)} it is read from the images of
    L_t^dag and L_t over the whole trajectory, each one product of the
    operator the trajectory was integrated with (:attr:`Trajectory.operator`,
    a dense restriction to the invariant sets its states touch, or the
    sparse generator) on the rows it holds, with no dense superoperator.
    Every column is computed over the whole trajectory at once.
    """
    if traj.generator is not generator:
        raise WitnessError("witness reports need a trajectory propagated with the generator")
    if traj.spectrum.eigenvalues.ndim != 2:
        raise WitnessError(f"witness reports need a one-state trajectory, not a stack of shape "
                           f"{traj.spectrum.eigenvalues.shape[:-1]}")
    excluded = np.abs(traj.left_out_rates()) > EPS_WITNESS
    rates = traj.entropy_rates()
    operator, rows = traj.operator, traj.coordinates()
    adjoint_images = _images(operator.adjoint_apply, traj.grid, rows)
    witness = _support_traces(operator, traj.spectrum, adjoint_images)
    eps_terms = _support_traces(operator, traj.spectrum,
                                adjoint_images + _images(operator.apply, traj.grid, rows))
    f_values = rates + eps_terms
    tests = {"test_a_passed": test_a(f_values), "test_b_passed": test_b(rates, -witness),
             "test_c_passed": test_c(eps_terms, witness)}
    return WitnessReport(time=traj.grid, entropy_rate=rates, theorem2_bound=-witness,
                         f_value=f_values, nonunitality=witness, excluded=excluded,
                         flags={name: passed & ~excluded for name, passed in tests.items()})


def export_witness_reports(report: WitnessReport, path) -> None:
    """CSV stream: t, rate, bound, f, nonunitality, flags.  The number columns
    go to :func:`write_csv` as the report holds them; a row's flags cell names
    its true tests, sorted and joined by semicolons."""
    names = sorted(report.flags)
    flags = [";".join(compress(names, row))
             for row in zip(*(report.flags[name].tolist() for name in names))]
    write_csv(path, ["t", "entropy_rate", "theorem2_bound", "f", "nonunitality", "flags"],
              [report.time, report.entropy_rate, report.theorem2_bound, report.f_value,
               report.nonunitality, flags])


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
    v(t) = -threshold, is located by :func:`~entroflow._util.refine_brackets`
    on v + threshold, read off the grid by ``evaluate(columns, times)`` for
    each (column, time) pair, to a bracket of at most ``BISECT_ATOL`` that
    holds a change of side, and taken at the bracket's midpoint.  A
    non-finite witness value counts as non-violating.  Grid points under
    the exclusion mask are treated as non-violating: there the rate on the
    support misses more than the threshold, so the grid value is no
    evidence either way.
    """
    violating = (values < -threshold) & ~excluded
    a, b = violating[:-1], violating[1:]
    v0, v1 = values[:-1], values[1:]
    totals = np.sum(np.where(a & b, 0.5 * (-v0 - v1) * np.diff(grid)[:, None], 0.0), axis=0)

    ks, ns = np.nonzero(a != b)  # one window edge per (interval, column)
    if ks.size:
        t0, t1 = grid[ks], grid[ks + 1]
        lo, hi = refine_brackets(lambda index, ts: evaluate(ns[index], ts) + threshold, t0, t1,
                                 v0[ks, ns] + threshold, v1[ks, ns] + threshold, BISECT_ATOL)
        t_star = np.clip(0.5 * (lo + hi), t0, t1)
        np.add.at(totals, ns, np.where(a[ks, ns], 0.5 * (-v0[ks, ns] + threshold) * (t_star - t0),
                                       0.5 * (threshold - v1[ks, ns]) * (t1 - t_star)))
    return totals


def _measure(state_sampler, grid, trajectories, values, evaluate) -> MeasureResult:
    """Max over sampled initial states of the integrated violation of a witness.

    The N sampled states are stacked once, as (N, d, d).
    ``trajectories(starts, grid)`` gives one stacked (T, N, d, d) trajectory
    of that stack, ``values(traj)`` the witness on the grid as a (T, N)
    array, and ``evaluate(starts, traj, columns, times)`` the witness off the
    grid for (state, time) pairs, for the edge search of
    :func:`_violation_integrals`.  A grid point counts where the witness is
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
    -``EPS_WITNESS``, with each window edge placed by
    :func:`_violation_integrals`.  Grid points whose |left-out rate|
    exceeds ``EPS_WITNESS`` are excluded.
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
    the same ``EPS_WITNESS``, left-out-rate exclusion and edge search
    (:func:`_violation_integrals`), whose rounds evolve the sampled states to
    their off-grid times with the family's exact maps.  On the grid the entropy
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
    M_t is :func:`~entroflow.dynamics.intermediate_map`, and rho_0, rho_t
    and rho_2t are decomposed once each.
    """
    if not generator.is_time_independent():
        raise WitnessError("sandwich bounds need a time-independent generator")
    s = generator.superoperator(0.0)
    if np.max(np.abs(s - dagger(s))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not self-adjoint")
    if np.max(np.abs(apply_superoperators(s, np.eye(generator.dim)))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not unital")
    initial = _require_full_rank(rho0, "initial state")
    m_t = intermediate_map(generator, 0.0, t)
    rho_t = hermitian_part(apply_superoperators(m_t, rho0))
    rho_2t = hermitian_part(apply_superoperators(m_t, rho_t))
    at_t, at_2t = spectral_decompose(rho_t), spectral_decompose(rho_2t)

    entropy = float(at_t.entropies())
    lower = -float(at_2t.support_logs() @ at_2t.expectations(as_matrix(rho0)))
    upper = -float(initial.support_logs() @ initial.expectations(rho_2t))
    if not (lower - SANDWICH_SLACK <= entropy <= upper + SANDWICH_SLACK):
        raise WitnessError(
            f"sandwich violated at t={t}: {lower} <= {entropy} <= {upper}"
        )
    d = relative_entropy(initial, at_2t)
    if is_infinite(d):
        raise WitnessError("relative entropy bound is infinite on a full-rank pair")
    return SandwichBounds(lower=lower, entropy=entropy, upper=upper,
                          initial_entropy=float(initial.entropies()),
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
    if not is_sub_unital(channel):
        raise WitnessError("Pinsker pair needs a sub-unital operation")
    spectrum = _require_full_rank(rho)
    back = _back_action(channel, rho)
    d = relative_entropy(spectrum, _require_full_rank(back, "N^dag N(rho)"))
    if is_infinite(d):
        raise WitnessError("relative entropy infinite despite full-rank back action")
    d = float(d)
    tn = schatten_norm(as_matrix(rho) - back, 1)
    log_norm = -float(np.log(spectrum.eigenvalues[-1]))
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
    joint = np.kron(as_matrix(rho_a), as_matrix(theta_c))
    out = hermitian_part(interaction.apply(joint))
    delta_s = von_neumann_entropy(out) - von_neumann_entropy(rho_a)
    d = relative_entropy(joint, _back_action(interaction, joint))
    if is_infinite(d):
        raise WitnessError("simulation bound is infinite; support collapsed")
    bound = von_neumann_entropy(theta_c) + float(d)
    if delta_s < bound - SIMULATION_BOUND_SLACK:
        raise WitnessError(f"simulation bound violated: {delta_s} < {bound}")
    if (len(interaction.kraus) == 1 and trace_defects(interaction.superoperator()) < 1e-10
            and abs(delta_s - bound) > UNITARY_SATURATION_ATOL):
        raise WitnessError(f"unitary interaction should saturate the bound: {delta_s} vs {bound}")
    return delta_s, bound
