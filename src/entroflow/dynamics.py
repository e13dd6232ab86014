"""Master-equation integration, intermediate propagators, and entropy rates.

Trajectories carry states, whose spectra give supports and ranks, and
generator-consistent derivatives on a fixed time grid.  One linear-dynamics
engine serves both layers: ``propagate_many`` advances a stack of states with
RK4 and step doubling (``propagate`` is its single-state call), and intermediate maps
M_{t,s} are products of commutator-free 4th-order Magnus steps, doubled until
successive products agree.  Both stopping rules double as convergence
certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from ._util import central_difference, one_sided_difference, time_derivative, write_csv
from .channels import LindbladGenerator, QuantumChannel, SuperOperator, gadc, dephasing_channel
from .linalg import (
    ZERO_EIGENVALUE_RTOL,
    DensityMatrix,
    LinalgError,
    SupportProjector,
    as_matrix,
    hermitian_part,
    matrix_log_on_support,
    spectral_decompose,
    support_projector,
    von_neumann_entropy,
)

__all__ = [
    "IntegrationError",
    "TailMassError",
    "Trajectory",
    "propagate",
    "propagate_many",
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


@dataclass
class Trajectory:
    """States and their derivatives on an increasing time grid; ranks and
    supports are read from the states' spectra, not stored.

    ``state_fn``/``derivative_fn`` are set for closed-form trajectories and
    bypass the integrator; ``generator`` is set when the trajectory came from
    propagating a master equation.  ``renormalization_defects`` logs the
    trace defect removed at each grid point.
    """

    grid: np.ndarray
    states: list[DensityMatrix]
    derivatives: list[np.ndarray]
    generator: LindbladGenerator | None = None
    state_fn: object = None
    derivative_fn: object = None
    renormalization_defects: np.ndarray | None = None
    truncated_at: float | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if len(self.grid) != len(self.states):
            raise IntegrationError("grid and states lengths differ")
        if np.any(np.diff(self.grid) <= 0):
            raise IntegrationError("time grid must be strictly increasing")
        for k, rho_dot in enumerate(self.derivatives):
            tr = abs(np.trace(rho_dot))
            if tr > TRACE_DOT_ATOL:
                raise IntegrationError(f"Tr(rho_dot) = {tr:.3e} at grid point {k}")
        ranks = self.ranks()
        for k in range(len(self.grid)):
            if len(set(ranks[max(k - 1, 0):k + 2])) > 1:  # the rank changes next to k
                continue
            pinned = abs(np.trace(support_projector(self.states[k]).entries @ self.derivatives[k]))
            if pinned > SUPPORT_DOT_ATOL:
                raise IntegrationError(
                    f"Tr(Pi rho_dot) = {pinned:.3e} at grid point {k}"
                )

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def supports(self) -> list[SupportProjector]:
        return [support_projector(s) for s in self.states]

    def ranks(self) -> np.ndarray:
        return np.array([s.spectrum.rank for s in self.states])

    def rank_change_times(self) -> np.ndarray:
        ranks = self.ranks()
        jumps = np.where(np.diff(ranks) != 0)[0]
        return self.grid[jumps + 1]

    def rank_jump_rows(self, margin: float) -> np.ndarray:
        """Grid points within ``margin`` of a rank change, and the point just
        before each jump: there the rate on the support misses the jump (at a
        pure state it reads 0 while its right limit is +inf)."""
        rows = np.zeros(len(self.grid), dtype=bool)
        for c in self.rank_change_times():
            rows |= np.abs(self.grid - c) < margin
        rows[:-1] |= np.diff(self.ranks()) != 0
        return rows

    def entropies(self) -> np.ndarray:
        return np.array([von_neumann_entropy(s) for s in self.states])

    def entropy_rates(self) -> np.ndarray:
        return np.array([
            entropy_rate(s, d) for s, d in zip(self.states, self.derivatives)
        ])

    def state_at(self, t: float, steps: int = 8) -> np.ndarray:
        """State at an off-grid time, from the closed form or a local integration."""
        if self.state_fn is not None:
            return as_matrix(self.state_fn(t))
        if self.generator is None:
            raise IntegrationError("trajectory has neither closed form nor generator")
        k = int(np.argmin(np.abs(self.grid - t)))
        return _rk4_segment(self.generator, self.states[k].entries,
                            float(self.grid[k]), t, steps)


def _rk4_step(generator: LindbladGenerator, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = generator.apply(t, rho)
    k2 = generator.apply(t + 0.5 * dt, rho + 0.5 * dt * k1)
    k3 = generator.apply(t + 0.5 * dt, rho + 0.5 * dt * k2)
    k4 = generator.apply(t + dt, rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_segment(generator, rho, t0: float, t1: float, substeps: int) -> np.ndarray:
    """RK4 from t0 to t1 in equal substeps, for one state or a stack (N, d, d)."""
    if t1 == t0:
        return rho.copy()
    dt = (t1 - t0) / substeps
    out = np.array(rho, dtype=complex)
    for j in range(substeps):
        out = _rk4_step(generator, out, t0 + j * dt, dt)
    return hermitian_part(out)


def _clean(raw: np.ndarray, t: float) -> tuple[np.ndarray, list[DensityMatrix], np.ndarray]:
    """Re-Hermitize and trace-renormalize a stack; returns it, its states and the trace defects."""
    sym = hermitian_part(raw)
    tr = np.real(np.trace(sym, axis1=-2, axis2=-1))
    sym = sym / tr[:, None, None]
    try:
        states = [DensityMatrix(rho) for rho in sym]
    except LinalgError as exc:
        raise IntegrationError(f"state at t={t:.6g} lost positivity: {exc}") from exc
    return sym, states, np.abs(tr - 1.0)


def propagate_many(generator: LindbladGenerator, states, grid,
                   error_target: float = 1e-7, max_refinements: int = 12,
                   on_tail_breach: str = "raise") -> list[Trajectory]:
    """Integrate rho_dot = L_t(rho_t) over the grid for a stack of initial states.

    The states are advanced together as one (N, d, d) stack with classical
    RK4.  Each grid interval is integrated with a doubling substep count
    until two successive refinements of every state agree in trace norm
    within ``error_target`` per unit time, so the accumulated error over the
    grid respects the same budget.  Accepted states are re-Hermitized and
    trace-renormalized (defect logged per state); one failing the
    DensityMatrix PSD check is an integration failure.  For generators
    carrying a tail guard, each state's population breach either raises
    (``on_tail_breach="raise"``) or truncates that state's trajectory at its
    last trusted grid point (``"truncate"``) and drops it from the stack.
    Returns one trajectory per initial state, in order.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise IntegrationError("time grid must be strictly increasing")
    if on_tail_breach not in ("raise", "truncate"):
        raise ValueError("on_tail_breach must be 'raise' or 'truncate'")
    guard = generator.tail_guard

    current, accepted, defect0 = _clean(np.stack([as_matrix(rho) for rho in states]), float(grid[0]))
    n = len(current)
    live = list(range(n))  # stack row -> state index
    kept: list[list[DensityMatrix]] = [[rho] for rho in accepted]
    derivatives: list[list[np.ndarray]] = [[dot] for dot in generator.apply(float(grid[0]), current)]
    defects: list[list[float]] = [[float(d)] for d in defect0]
    truncated_at: list[float | None] = [None] * n
    substeps = 1
    for k in range(len(grid) - 1):
        t0, t1 = float(grid[k]), float(grid[k + 1])
        budget = error_target * (t1 - t0)
        substeps = max(1, substeps // 2)
        trial = _rk4_segment(generator, current, t0, t1, substeps)
        for _ in range(max_refinements):
            substeps *= 2
            refined = _rk4_segment(generator, current, t0, t1, substeps)
            disagreement = float(np.abs(np.linalg.eigvalsh(trial - refined)).sum(axis=-1).max())
            trial = refined
            if disagreement <= budget:
                break
        else:
            raise IntegrationError(
                f"integrator stalled on [{t0:.6g}, {t1:.6g}]: "
                f"no convergence to {budget:.1e} within {max_refinements} doublings"
            )
        current, accepted, defect = _clean(trial, t1)
        if guard is not None:
            tails = np.array([guard.check(rho) for rho in current])
            breached = tails > guard.bound
            if breached.any():
                if on_tail_breach == "raise":
                    raise TailMassError(
                        f"tail mass {tails.max():.3e} exceeds {guard.bound:.1e} at t={t1:.6g}"
                    )
                for row in np.flatnonzero(breached):
                    truncated_at[live[row]] = t1
                keep = ~breached
                live = [i for i, alive in zip(live, keep) if alive]
                accepted = [rho for rho, alive in zip(accepted, keep) if alive]
                current, defect = current[keep], defect[keep]
                if not live:
                    break
        dots = generator.apply(t1, current)
        for row, i in enumerate(live):
            kept[i].append(accepted[row])
            derivatives[i].append(dots[row])
            defects[i].append(float(defect[row]))

    trajectories = []
    for i in range(n):
        if truncated_at[i] is not None and len(kept[i]) < 3:
            raise TailMassError("tail guard tripped before any usable grid point")
        trajectories.append(Trajectory(
            grid=grid[:len(kept[i])], states=kept[i], derivatives=derivatives[i], generator=generator,
            renormalization_defects=np.array(defects[i]), truncated_at=truncated_at[i]))
    return trajectories


def propagate(generator: LindbladGenerator, rho0: DensityMatrix, grid,
              error_target: float = 1e-7, max_refinements: int = 12,
              on_tail_breach: str = "raise") -> Trajectory:
    """Integrate rho_dot = L_t(rho_t) over the grid from one initial state.

    The single-state call of :func:`propagate_many`, with the same step
    doubling, certificates and tail-guard handling.
    """
    return propagate_many(generator, [rho0], grid, error_target=error_target,
                          max_refinements=max_refinements, on_tail_breach=on_tail_breach)[0]


def closed_form_trajectory(state_fn, grid, derivative_fn=None,
                           fd_step: float = 1e-6) -> Trajectory:
    """Trajectory from a closed-form state callable, bypassing the integrator.

    Derivatives come from ``derivative_fn`` when supplied, otherwise from
    second-order one-sided differences of the state callable (forward, so
    right-limits are taken at rank-change instants).
    """
    grid = np.asarray(grid, dtype=float)
    states = [DensityMatrix(hermitian_part(as_matrix(state_fn(float(t))))) for t in grid]
    if derivative_fn is not None:
        derivatives = [hermitian_part(as_matrix(derivative_fn(float(t)))) for t in grid]
    else:
        derivatives = [hermitian_part(one_sided_difference(
            lambda tau: as_matrix(state_fn(tau)), float(t), fd_step)) for t in grid]
    return Trajectory(grid=grid, states=states, derivatives=derivatives,
                      state_fn=state_fn, derivative_fn=derivative_fn)


# Commutator-free 4th-order Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep.
# 470, 151 (2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)):
# generators at the two Gauss points, mixed with these weights into two
# exponentials per step.
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)


def intermediate_map(generator: LindbladGenerator, s: float, t: float,
                     steps: int = 1, atol: float = 1e-8,
                     max_doublings: int = 14) -> SuperOperator:
    """Propagator M_{t,s} by commutator-free 4th-order Magnus steps.

    Each step of length h from tau takes the generators L1, L2 at the Gauss
    points tau + (1/2 -+ sqrt(3)/6) h and multiplies
    exp(h (a1 L1 + a2 L2)) exp(h (a2 L1 + a1 L2)) onto the product, with
    a1, a2 = (3 -+ 2 sqrt(3))/12.  The step count is doubled from ``steps``
    until successive products agree entrywise within ``atol``, which is the
    convergence certificate.  The step is exact for a time-independent
    generator, so those converge at the first comparison.
    """
    if t < s:
        raise IntegrationError("intermediate map requires s <= t")
    d = generator.dim
    if t == s:
        return SuperOperator.identity(d)
    (c1, c2), (a1, a2) = _GAUSS_NODES, _CF4_WEIGHTS

    def ordered_product(n: int) -> np.ndarray:
        h = (t - s) / n
        out = np.eye(d * d, dtype=complex)
        for j in range(n):
            tau = s + j * h
            l1 = generator.superoperator(tau + c1 * h).matrix
            l2 = generator.superoperator(tau + c2 * h).matrix
            out = expm(h * (a1 * l1 + a2 * l2)) @ (expm(h * (a2 * l1 + a1 * l2)) @ out)
        return out

    current = ordered_product(steps)
    for _ in range(max_doublings):
        steps *= 2
        refined = ordered_product(steps)
        if np.max(np.abs(refined - current)) <= atol:
            return SuperOperator(refined, dim_in=d, dim_out=d)
        current = refined
    raise IntegrationError(
        f"time-ordered product did not converge to {atol:.1e} "
        f"within {max_doublings} doublings"
    )


def entropy_rate(rho, rho_dot) -> float:
    """dS/dt = -Tr{rho_dot log rho} with the logarithm taken on supp(rho)."""
    dot = as_matrix(rho_dot)
    tr = abs(np.trace(dot))
    if tr > TRACE_DOT_ATOL:
        raise ValueError(f"state derivative must be traceless, got Tr = {tr:.3e}")
    return float(-np.real(np.trace(dot @ matrix_log_on_support(rho))))


def _rank_change_distance(rho, rho_dot) -> float:
    """Time for the smallest eigenvalue to reach 0 at its current speed; inf
    when the state is rank-deficient or that eigenvalue is not moving."""
    es = spectral_decompose(rho)
    lam_min, v = es.eigenvalues[-1], es.eigenvectors[:, -1]
    speed = abs(float(np.real(np.conj(v) @ as_matrix(rho_dot) @ v)))
    if lam_min <= ZERO_EIGENVALUE_RTOL * es.eigenvalues[0] or speed == 0.0:
        return np.inf
    return float(lam_min) / speed


def entropy_rate_fd(traj: Trajectory, index: int, h: float = 1e-4,
                    richardson: bool = False) -> float:
    """Finite-difference entropy rate at a grid point, as an oracle.

    Central difference (S(t+h) - S(t-h)) / 2h using the closed form when the
    trajectory has one, a short local integration when it has a generator,
    and the neighboring grid states otherwise (then h is the grid spacing).
    ``richardson=True`` combines the h and h/2 stencils for fourth-order
    accuracy, which matters near rank-change instants.  Off the grid, h is
    capped at 1 % of the estimated distance to the nearest rank change,
    lambda_min / |<v_min| rho_dot |v_min>|, so that neither stencil reaches
    across it.
    """
    t = float(traj.grid[index])

    if traj.state_fn is None and traj.generator is None:
        if index <= 0 or index >= len(traj) - 1:
            raise IndexError("finite differences need an interior grid point")
        h = float(traj.grid[index + 1] - traj.grid[index])
        s_plus = von_neumann_entropy(traj.states[index + 1])
        s_minus = von_neumann_entropy(traj.states[index - 1])
        return (s_plus - s_minus) / (2.0 * h)

    h = min(h, 0.01 * _rank_change_distance(traj.states[index], traj.derivatives[index]))

    def entropy_at(tau: float) -> float:
        return von_neumann_entropy(hermitian_part(traj.state_at(tau)))

    coarse = central_difference(entropy_at, t, h)
    if not richardson:
        return coarse
    fine = central_difference(entropy_at, t, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


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
    from .channels import is_cptp  # local import avoids a cycle at module load

    grid = np.asarray(grid, dtype=float)
    evidence = []
    worst_map: SuperOperator | None = None
    worst_eig = np.inf
    for a, b in zip(grid[:-1], grid[1:]):
        m = intermediate_map(generator, float(a), float(b))
        report = is_cptp(m, atol=atol)
        evidence.append(IntervalEvidence(float(a), float(b),
                                         report.choi_min_eigenvalue, report.trace_defect))
        if report.choi_min_eigenvalue < worst_eig:
            worst_eig = report.choi_min_eigenvalue
            worst_map = m

    midpoints = 0.5 * (grid[:-1] + grid[1:])
    min_rates = tuple(
        float(min(term.rate_at(float(t)) for t in midpoints))
        for term in generator.jumps
    )

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
# Channel families: trajectories plus intermediate maps
# ---------------------------------------------------------------------------

class ChannelFamily:
    """A dynamics described by channels: M_{t,0} plus intermediate maps.

    Subclasses provide ``at(t)`` (the map from time 0 to t) and
    ``step(t, eps)`` (the intermediate map from t to t + eps).
    """

    dim: int

    def at(self, t: float):
        raise NotImplementedError

    def step(self, t: float, eps: float):
        raise NotImplementedError

    def state(self, rho0, t: float) -> np.ndarray:
        return as_matrix(self.at(t).apply(rho0))

    def trajectory(self, rho0: DensityMatrix, grid, fd_step: float = 1e-5) -> Trajectory:
        def state_fn(t):
            if t < 0:  # families are defined for t >= 0 only
                raise IntegrationError("channel family evaluated at negative time")
            return self.state(rho0, t)

        return closed_form_trajectory(
            state_fn, grid, derivative_fn=lambda t: time_derivative(state_fn, t, fd_step))


class GadcFamily(ChannelFamily):
    """Generalized-amplitude-damping dynamics at modulation frequency omega.

    The intermediate map over a short window is the channel at time eps
    itself, which is the convention under which the evolved maximally mixed
    state picks up the population imbalance W_t.
    """

    def __init__(self, omega: float):
        self.omega = float(omega)
        self.dim = 2

    def at(self, t: float) -> QuantumChannel:
        return gadc(t, self.omega)

    def step(self, t: float, eps: float) -> QuantumChannel:
        return gadc(eps, self.omega)


class DephasingFamily(ChannelFamily):
    """Pure-decoherence dynamics with accumulated decoherence Gamma(t).

    ``gamma_integral`` must be the antiderivative of the decoherence rate
    with Gamma(0) = 0; intermediate maps scale coherences by
    exp(Gamma(t) - Gamma(t + eps)).  Where Gamma decreases over the window
    that factor exceeds 1 and the map is not CP, so it comes back as a
    ``SuperOperator`` instead of a ``QuantumChannel``.
    """

    def __init__(self, gamma_integral):
        self.gamma_integral = gamma_integral
        self.dim = 2

    def at(self, t: float) -> QuantumChannel:
        return dephasing_channel(float(np.exp(-self.gamma_integral(t))))

    def step(self, t: float, eps: float) -> QuantumChannel | SuperOperator:
        decay = self.gamma_integral(t + eps) - self.gamma_integral(t)
        coherence = float(np.exp(-decay))
        if coherence <= 1.0:
            return dephasing_channel(coherence)
        return SuperOperator(np.diag([1.0, coherence, coherence, 1.0]))


class GeneratorFamily(ChannelFamily):
    """Dynamics induced by a Lindblad generator, via time-ordered propagators."""

    def __init__(self, generator: LindbladGenerator, map_atol: float = 1e-9):
        self.generator = generator
        self.dim = generator.dim
        self.map_atol = map_atol
        self._cache: dict[tuple[float, float], SuperOperator] = {}

    def _map(self, s: float, t: float) -> SuperOperator:
        key = (s, t)
        if key not in self._cache:
            self._cache[key] = intermediate_map(self.generator, s, t, atol=self.map_atol)
        return self._cache[key]

    def at(self, t: float) -> SuperOperator:
        return self._map(0.0, float(t))

    def step(self, t: float, eps: float) -> SuperOperator:
        return self._map(float(t), float(t) + float(eps))

    def trajectory(self, rho0: DensityMatrix, grid, fd_step: float = 1e-5) -> Trajectory:
        return propagate(self.generator, rho0, grid)


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
    d = traj.states[0].dim
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    header += ["entropy", "entropy_rate"]
    rows = []
    for t, state, dot in zip(traj.grid, traj.states, traj.derivatives):
        row = [t]
        for v in state.entries.reshape(-1):
            row += [v.real, v.imag]
        rows.append(row + [von_neumann_entropy(state), entropy_rate(state, dot)])
    write_csv(path, header, rows)
