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
from functools import cached_property
from itertools import compress

import numpy as np

from ._util import refine_brackets, write_csv
from .channels import (
    LindbladGenerator,
    QuantumChannel,
    _map_of,
    _preserves_trace,
    apply_superoperators,
    is_sub_unital,
)
from .dynamics import (
    ChannelFamily,
    Trajectory,
    _checked_grid,
    _expectations,
    _images,
    _integration_operator,
    _rows_off_grid,
    _state_stack,
    entropy_rate,
    intermediate_map,
    propagate,
)
from .linalg import (
    INFINITE_DIVERGENCE,
    DensityMatrix,
    EigenSystem,
    _eigh,
    _entropies,
    as_matrix,
    dagger,
    hermitian_part,
    relative_entropies,
    spectral_decompose,
    von_neumann_entropy,
)

__all__ = [
    "EPS_WITNESS",
    "EPS_TEST_C",
    "WitnessError",
    "WitnessReport",
    "MeasureResult",
    "Claim",
    "channel_claims",
    "entropy_change",
    "entropy_change_lower_bound",
    "entropy_change_upper_bound",
    "theorem2_bound",
    "rate_limit",
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
    "semigroup_sandwich",
    "PinskerGap",
    "pinsker_gap",
    "environment_simulation_bound",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

EPS_WITNESS = 1e-7       # violation threshold for the rate tests
EPS_TEST_C = 1e-6        # mismatch threshold for the derivative-consistency test
BISECT_ATOL = 1e-6       # largest width of the final bracket of a violation window's edge
SANDWICH_GENERATOR_ATOL = 1e-9  # entrywise L - L^dag and L(I) of a self-adjoint unital generator
SANDWICH_SLACK = 1e-8           # allowed violation of the semigroup sandwich
CHANNEL_SLACK = 1e-10           # allowed violation of Theorem 1, its relaxation or the Pinsker pair
SIMULATION_BOUND_SLACK = 1e-9   # allowed Delta S below the environment-simulation bound


class WitnessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Claims: the paper's inequalities, row by row
# ---------------------------------------------------------------------------

class Claim:
    """lhs >= rhs row by row within ``tol``, with ``lhs``, ``rhs`` and ``masked``
    broadcast to one shape, () for one row.  ``masked`` marks the rows where ``needs``,
    the inequality's precondition, fails.  A violation is a negative slack, not an error."""

    def __init__(self, name: str, lhs, rhs, tol: float, masked, needs: str):
        self.name, self.tol, self.needs = name, tol, needs
        self.lhs, self.rhs, self.masked = np.broadcast_arrays(lhs, rhs, masked)
        self.slack = self.lhs - self.rhs

    def worst(self) -> tuple[float, tuple[int, ...] | None]:
        """The smallest slack outside the mask and its index; (NaN, None) if none is."""
        if self.masked.all():
            return np.nan, None
        k = np.unravel_index(np.argmin(np.where(self.masked, np.inf, self.slack)), self.slack.shape)
        return float(self.slack[k]), tuple(map(int, k))

    def holds(self) -> bool:
        """Every row outside the mask holds, and one row at least is outside it."""
        return bool(self.worst()[0] >= -self.tol)


class _Sides:
    """N(rho), N^dag N(rho) and what the inequalities read from them, each built
    on first read: one map or :class:`QuantumChannel` on any stack of states, or
    maps (T, ...) on states (T, N, d, d), row t through map t."""

    def __init__(self, maps, states):
        self.maps, self.states, self.rho = _map_of(maps), states, as_matrix(states)

    spectrum = cached_property(lambda self: spectral_decompose(self.states))
    image = cached_property(lambda self: hermitian_part(apply_superoperators(self.maps, self.rho)))
    back = cached_property(lambda self: hermitian_part(  # the matrix of N^dag is S^dag
        apply_superoperators(dagger(self.maps), self.image)))
    entropies = cached_property(lambda self: self.spectrum.entropies())
    entropy_changes = cached_property(  # S(N(rho)) from the eigenvalues of N(rho) alone
        lambda self: _entropies(np.linalg.eigvalsh(self.image)) - self.entropies)
    divergences = cached_property(  # D(rho || N^dag N(rho)), inf where the support leaks
        lambda self: relative_entropies(self.rho, self.entropies, _eigh(self.back)))
    upper_traces = cached_property(  # Tr{[rho - N^dag N(rho)] log rho}, log on the support
        lambda self: (self.spectrum.support_logs()
                      * self.spectrum.expectations(self.rho - self.back)).sum(axis=-1))
    trace_norms = cached_property(
        lambda self: np.abs(np.linalg.eigvalsh(self.rho - self.back)).sum(axis=-1))
    full_rank = cached_property(lambda self: self.spectrum.support_mask().all(axis=-1))
    log_norms = cached_property(lambda self: -np.log(  # ||log rho||_inf, NaN unless rho > 0
        np.where(self.full_rank, self.spectrum.eigenvalues[..., -1], np.nan)))
    not_trace_preserving = cached_property(lambda self: ~self.per_map(_preserves_trace))

    def per_map(self, test) -> np.ndarray:  # test(maps), shaped to broadcast against the rows
        values = np.asarray(test(self.maps))
        return values.reshape(values.shape + (1,) * (self.image.ndim - self.maps.ndim))


def channel_claims(maps, states) -> dict[str, Claim]:
    """Theorem 1 (Buscemi, Das & Wilde, PRA 93, 062314 (2016)), its Hölder
    relaxation and the Pinsker pair as claims keyed by name, for maps N and
    states rho (:class:`_Sides`), with Delta S = S(N(rho)) - S(rho) and
    sigma = N^dag N(rho): ``theorem1_lower`` Delta S >= D(rho || sigma) for
    positive trace-preserving N (Müller-Hermes & Reeb, AHP 18, 1777 (2017));
    for sub-unital N and rho > 0, ``theorem1_upper`` Tr{(rho - sigma) log rho}
    and ``theorem1_holder`` ||rho - sigma||_1 ||log rho||_inf >= Delta S,
    ``pinsker`` D >= ||rho - sigma||_1^2 / 2 and ``reverse_pinsker``
    ||rho - sigma||_1 >= D / ||log rho||_inf.  Positivity is not tested, so a
    negative ``theorem1_lower`` slack on step maps witnesses one that is not."""
    sides = _Sides(maps, states)
    ds, d, tn = sides.entropy_changes, sides.divergences, sides.trace_norms
    masked = sides.not_trace_preserving | ~sides.per_map(is_sub_unital) | ~sides.full_rank
    needs = "a trace-preserving sub-unital map and a full-rank state"
    return {claim.name: claim for claim in (
        Claim("theorem1_lower", ds, d, CHANNEL_SLACK, sides.not_trace_preserving,
              "a trace-preserving map"),
        Claim("theorem1_upper", sides.upper_traces, ds, CHANNEL_SLACK, masked, needs),
        Claim("theorem1_holder", tn * sides.log_norms, ds, CHANNEL_SLACK, masked, needs),
        Claim("pinsker", d, 0.5 * tn * tn, CHANNEL_SLACK, masked, needs),
        Claim("reverse_pinsker", tn, d / sides.log_norms, CHANNEL_SLACK, masked, needs))}


def entropy_change(channel: QuantumChannel, rho) -> float:
    """S(N(rho)) - S(rho); a mis-shaped state raises ChannelError."""
    return float(_Sides(channel, rho).entropy_changes)


def entropy_change_lower_bound(channel: QuantumChannel, rho):
    """D(rho || N^dag(N(rho))) of ``theorem1_lower`` (:func:`channel_claims`),
    or the infinite-divergence sentinel on support violation."""
    d = _Sides(channel, rho).divergences
    return INFINITE_DIVERGENCE if np.isinf(d) else float(d)


def entropy_change_upper_bound(channel: QuantumChannel, rho) -> float:
    """Tr{[rho - N^dag(N(rho))] log rho} of ``theorem1_upper`` (:func:`channel_claims`)."""
    return float(_Sides(channel, rho).upper_traces)


# ---------------------------------------------------------------------------
# Rate bound and non-unitality witness
# ---------------------------------------------------------------------------

def _support_traces(operator, spectrum: EigenSystem, rows: np.ndarray) -> np.ndarray:
    """Re Tr{Pi A} for the operators A held as coordinate rows (T, ..., m) of
    ``operator``, with Pi the support projectors of ``spectrum``: read from
    the rows' populations for the spectra of a diagonal stack, and from the
    scattered stack otherwise (:func:`~entroflow.dynamics._expectations`)."""
    return spectrum.support_sums(_expectations(operator, spectrum, rows))


def _pinned_adjoint_traces(operator, times, rows: np.ndarray,
                           spectrum: EigenSystem) -> np.ndarray:
    """Tr{Pi L_t^dag(rho)} for states held as coordinate rows (T, ..., m) of
    ``operator`` (:attr:`Trajectory.operator`, a dense restriction to the
    invariant sets they touch, exact for L_t^dag too, or the whole
    generator), with their spectra, at times (T,)."""
    return _support_traces(operator, spectrum, _images(operator.adjoint_apply, times, rows))


def nonunitality_witness(generator: LindbladGenerator, t: float, rho) -> float:
    """Tr{Pi_t L_t^dag(rho_t)}: the one-state case of
    :func:`_pinned_adjoint_traces`, through the operator :func:`propagate`
    would integrate rho with.

    Zero for unital dynamics at full-rank states, where Pi = I and
    Tr{L^dag(rho)} = Tr{rho L(I)} = 0.  At rank-deficient states it need not
    vanish: the sigma_z dephasing generator at |+> gives -gamma/2.
    """
    states = _state_stack(as_matrix(rho)[None], generator.dim, "generator")
    operator = _integration_operator(generator, states)
    return float(_pinned_adjoint_traces(operator, [t], operator.coordinates(states),
                                        spectral_decompose(rho)[None])[0])


def theorem2_bound(generator: LindbladGenerator, t: float, rho) -> float:
    """-Tr{Pi_t L_t^dag(rho_t)}: the CP-divisible lower limit on dS/dt, the
    negative of :func:`nonunitality_witness`."""
    return -nonunitality_witness(generator, t, rho)


def _rate_claim(name: str, lhs, rhs, traj: Trajectory, tol: float) -> Claim:
    """lhs >= rhs within ``tol`` for a rate read on the trajectory's supports: masked
    where |:meth:`Trajectory.left_out_rates`| > ``tol``, as that rate is left out."""
    return Claim(name, lhs, rhs, tol, np.abs(traj.left_out_rates()) > tol,
                 "a left-out entropy rate within tol")


def rate_limit(traj: Trajectory, tol: float) -> Claim:
    """Theorem 2 as the claim ``theorem2``, dS/dt >= -Tr{Pi_t L_t^dag(rho_t)} for
    CP-divisible dynamics, on the rows of a :func:`propagate` trajectory
    (:func:`_rate_claim`)."""
    if traj.operator is None:
        raise WitnessError("the rate limit needs a trajectory from propagate")
    bounds = -_pinned_adjoint_traces(traj.operator, traj.grid, traj.coordinates(), traj.spectrum)
    return _rate_claim("theorem2", traj.entropy_rates(), bounds, traj, tol)


# ---------------------------------------------------------------------------
# Channel-side witness: the short-time derivative and f(t)
# ---------------------------------------------------------------------------

def _epsilon_derivatives(steps: np.ndarray, states: np.ndarray,
                         spectrum: EigenSystem) -> np.ndarray:
    """d/d eps Tr{Pi_t (M_{t+eps,t})^dag M_{t+eps,t}(rho_t)} at eps = 0 for
    states (T, N, d, d) with their spectra, from K_t (T, d^2, d^2): a (T, N) array.

    Tr{Pi M^dag M(rho)} is <M(Pi), M(rho)>_HS and M_{t,t} = id, so the limit
    is <K_t(Pi), rho> + <Pi, K_t(rho)> = Tr{Pi (K_t + K_t^dag)(rho)}, with
    K_t the family's step generator: one product over the stack, whose
    expectations are summed over the supports.  For a Lindblad generator
    K_t = L_t, and :func:`witness_reports` reads the term from the images
    of L_t and L_t^dag instead.
    """
    return spectrum.support_traces(apply_superoperators(steps + dagger(steps), states))


def epsilon_derivative(family: ChannelFamily, rho_t, t: float) -> float:
    """d/d eps Tr{Pi_t (M_{t+eps,t})^dag M_{t+eps,t}(rho_t)} at eps = 0, for
    one state: the T = N = 1 case of the stacked derivative."""
    a = hermitian_part(as_matrix(rho_t))[None, None]
    spectrum = spectral_decompose(rho_t)[None, None]
    return float(_epsilon_derivatives(family.step_generators([t]), a, spectrum)[0, 0])


def _f_parts(states: np.ndarray, dots: np.ndarray, spectrum: EigenSystem,
             steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entropy rates, short-time derivative terms) of f for states (T, N, d, d)
    with their derivatives, spectra and K_t, from :meth:`ChannelFamily.evolve`."""
    return entropy_rate(spectrum, dots), _epsilon_derivatives(steps, states, spectrum)


def f_components(family: ChannelFamily, rho0, times) -> tuple[np.ndarray, np.ndarray]:
    """(entropy rates, short-time derivative terms) along the family
    trajectory at an array of times, computed as one stack.  The rate reads
    the state's derivative from the family's exact d/dt M_{t,0}."""
    rates, eps_terms = _f_parts(*family.evolve([rho0], times))
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
    as (T,) float64 arrays: ``entropy_rate``, ``theorem2_bound`` and ``excluded``
    are the sides and mask of ``theorem2``, :func:`rate_limit`'s claim at
    ``EPS_WITNESS``.  ``flags`` maps each test's flag name to its (T,)
    outcomes, false on excluded rows."""

    time: np.ndarray
    theorem2: Claim
    f_value: np.ndarray
    nonunitality: np.ndarray
    flags: dict[str, np.ndarray]

    entropy_rate = property(lambda self: self.theorem2.lhs)
    theorem2_bound = property(lambda self: self.theorem2.rhs)
    excluded = property(lambda self: self.theorem2.masked)


def witness_reports(generator: LindbladGenerator, traj: Trajectory) -> WitnessReport:
    """The :class:`WitnessReport` of a one-state trajectory that
    :func:`propagate` integrated with ``generator``; any other trajectory,
    a stack of several states among them, raises :class:`WitnessError`.

    The f column and test (a)/(c) need the short-time derivative term
    Tr{Pi (K_t + K_t^dag)(rho_t)}, and K_t = L_t for a Lindblad generator:
    with the witness Tr{Pi L_t^dag(rho_t)} it is read from the images of
    L_t^dag and L_t on the rows, one product each of
    :attr:`Trajectory.operator` over the whole trajectory.
    """
    if traj.generator is not generator:
        raise WitnessError("witness reports need a trajectory propagated with the generator")
    if traj.spectrum.eigenvalues.ndim != 2:
        raise WitnessError(f"witness reports need a one-state trajectory, not a stack of shape "
                           f"{traj.spectrum.eigenvalues.shape[:-1]}")
    rates = traj.entropy_rates()
    operator, rows = traj.operator, traj.coordinates()
    adjoint_images = _images(operator.adjoint_apply, traj.grid, rows)
    witness = _support_traces(operator, traj.spectrum, adjoint_images)
    eps_terms = _support_traces(operator, traj.spectrum,
                                adjoint_images + _images(operator.apply, traj.grid, rows))
    f_values = rates + eps_terms
    theorem2 = _rate_claim("theorem2", rates, -witness, traj, EPS_WITNESS)
    tests = {"test_a_passed": test_a(f_values), "test_b_passed": test_b(rates, -witness),
             "test_c_passed": test_c(eps_terms, witness)}
    return WitnessReport(time=traj.grid, theorem2=theorem2, f_value=f_values, nonunitality=witness,
                         flags={name: passed & ~theorem2.masked for name, passed in tests.items()})


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


def _measure(state_sampler, grid, on_grid, evaluate) -> MeasureResult:
    """Max over sampled initial states of the integrated violation of a witness.

    The N sampled states are stacked once, as (N, d, d).
    ``on_grid(starts, grid)`` gives one stacked (T, N, d, d) trajectory of
    that stack and the witness on the grid as a (T, N) :class:`Claim`, and
    ``evaluate(starts, traj, columns, times)`` the witness off the
    grid for (state, time) pairs, for the edge search of
    :func:`_violation_integrals`.  A grid point counts where the witness is
    below -``EPS_WITNESS`` and unmasked: the claims mask |left-out rates| above it.
    """
    states = list(state_sampler)
    if not states:
        raise WitnessError("state sampler yielded no states")
    grid = np.asarray(grid, dtype=float)
    starts = np.stack([as_matrix(rho) for rho in states])
    traj, claim = on_grid(starts, grid)
    integrals = _violation_integrals(grid, claim.slack, EPS_WITNESS,
                                     lambda ns, ts: evaluate(starts, traj, ns, ts), claim.masked)
    best = int(np.argmax(integrals))
    return MeasureResult(value=float(integrals[best]), argmax_state=states[best],
                         samples_used=len(states), sample_values=tuple(map(float, integrals)))


def measure_generator(generator: LindbladGenerator, state_sampler, grid) -> MeasureResult:
    """Max over initial states of the integrated Theorem-2 violation.

    The whole sampler is propagated as one stack, and for each sampled rho_0
    |dS/dt + Tr{Pi L^dag rho}| is integrated over the times where it is below
    -``EPS_WITNESS``, with each window edge placed by
    :func:`_violation_integrals`, the slack of :func:`rate_limit` on the grid.
    Every round of that search reads its states off the grid as rows of
    the operator that :func:`propagate` kept on the trajectory
    (:func:`~entroflow.dynamics.states_off_grid`, certified RK4), and the
    witness and L_t(rho_t) are products of that same operator.
    """
    def on_grid(starts, grid) -> tuple[Trajectory, Claim]:
        traj = propagate(generator, starts, grid)
        return traj, rate_limit(traj, EPS_WITNESS)

    def evaluate(starts, traj, ns, ts) -> np.ndarray:
        operator, rows = traj.operator, _rows_off_grid(traj, ns, ts)
        spectrum = spectral_decompose(operator.states(rows))
        dots = operator.states(_images(operator.apply, ts, rows))
        return entropy_rate(spectrum, dots) + _pinned_adjoint_traces(operator, ts, rows, spectrum)

    return _measure(state_sampler, grid, on_grid, evaluate)


def measure_channel(family: ChannelFamily, state_sampler, grid) -> MeasureResult:
    """Max over initial states of the integrated negative part of f(t): as
    :func:`measure_generator`, with f in place of the Theorem-2 witness and
    the same ``EPS_WITNESS``, left-out-rate exclusion and edge search
    (:func:`_violation_integrals`), whose rounds evolve the sampled states to
    their off-grid times with the family's exact maps.  Each stack reads the
    K_t its :meth:`ChannelFamily.evolve` built."""
    def on_grid(starts, grid) -> tuple[Trajectory, Claim]:
        grid = _checked_grid(grid)
        states, dots, spectrum, steps = family.evolve(starts, grid)
        traj = Trajectory(grid, states, dots, spectrum=spectrum)
        f_values = traj.entropy_rates() + _epsilon_derivatives(steps, states, spectrum)
        return traj, _rate_claim("f", f_values, 0.0, traj, EPS_WITNESS)

    def evaluate(starts, traj, ns, ts) -> np.ndarray:
        # row c at time ts[c] only
        rates, eps_terms = _f_parts(*family.evolve(starts[ns][:, None], ts))
        return (rates + eps_terms)[:, 0]

    return _measure(state_sampler, grid, on_grid, evaluate)


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

def semigroup_sandwich(generator: LindbladGenerator, rho0, t: float) -> dict[str, Claim]:
    """-Tr{rho_0 log rho_2t} <= S(rho_t) <= -Tr{rho_2t log rho_0} for a self-adjoint unital
    semigroup, as the claims ``sandwich_lower`` and ``sandwich_upper``, masked unless rho_0 > 0:
    M_t is self-adjoint, so rho_t and rho_2t are the image and back action of rho_0, and the
    sides are Theorem 1's shifted by S(rho_0).  A generator that is not time independent,
    self-adjoint and unital within ``SANDWICH_GENERATOR_ATOL`` raises :class:`WitnessError`."""
    if not generator.is_time_independent():
        raise WitnessError("sandwich bounds need a time-independent generator")
    s = generator.superoperator(0.0)
    if np.max(np.abs(s - dagger(s))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not self-adjoint")
    if np.max(np.abs(apply_superoperators(s, np.eye(generator.dim)))) > SANDWICH_GENERATOR_ATOL:
        raise WitnessError("generator is not unital")
    sides = _Sides(intermediate_map(generator, 0.0, t), rho0)
    s0, entropy = sides.entropies, sides.entropies + sides.entropy_changes
    return {claim.name: claim for claim in (
        Claim("sandwich_lower", entropy, s0 + sides.divergences, SANDWICH_SLACK,
              ~sides.full_rank, "a full-rank initial state"),
        Claim("sandwich_upper", s0 + sides.upper_traces, entropy, SANDWICH_SLACK,
              ~sides.full_rank, "a full-rank initial state"))}


@dataclass(frozen=True)
class PinskerGap:
    relative_entropy: float
    half_trace_norm_sq: float
    reverse_bound: float


def pinsker_gap(channel: QuantumChannel, rho) -> PinskerGap:
    """D(rho || N^dag N(rho)), ||rho - N^dag N(rho)||_1^2 / 2 and D / ||log rho||_inf:
    the sides of ``pinsker`` and ``reverse_pinsker`` (:func:`channel_claims`).
    The reverse bound follows from Jensen's operator inequality for the
    unital N^dag N, so a trace-non-increasing N can break it: N = sqrt(1/2) id
    on I/2 gives D = log 4 > ||rho - N^dag N(rho)||_1 ||log rho||_inf."""
    sides = _Sides(channel, rho)
    d, tn = float(sides.divergences), float(sides.trace_norms)
    return PinskerGap(relative_entropy=d, half_trace_norm_sq=0.5 * tn * tn,
                      reverse_bound=d / float(sides.log_norms))


def environment_simulation_bound(interaction: QuantumChannel, theta_c, rho_a) -> Claim:
    """The claim ``environment_simulation`` for E(rho_A) = F(rho_A (x) theta_C),
    S(E(rho_A)) - S(rho_A) >= S(theta_C) + D(rho_A (x) theta_C || F^dag F(...)):
    Theorem 1 on rho_A (x) theta_C shifted by S(theta_C), masked unless F is
    trace preserving, and saturated by a unitary F."""
    sides = _Sides(interaction, np.kron(as_matrix(rho_a), as_matrix(theta_c)))
    shift = von_neumann_entropy(theta_c)
    return Claim("environment_simulation", sides.entropy_changes + shift,
                 sides.divergences + shift, SIMULATION_BOUND_SLACK, sides.not_trace_preserving,
                 "a trace-preserving interaction")
