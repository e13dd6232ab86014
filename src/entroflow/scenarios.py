"""Declarative scenario pipelines behind the command-line runner.

Each scenario takes an explicit parameter dict (no hidden physical
constants), writes plot-ready CSV tables, and returns pass/fail checks with
the measured values.  Identical configurations and seeds produce
byte-identical tables.

Every parameter is declared once, as a :class:`Param` in the catalog
``SCENARIOS``; ``DEFAULT_CONFIGS`` and the ``list`` text derive from it, and
``validate_config`` is one loop over it: unknown and missing names, each
value's JSON type and range, the time grid the run builds (two strictly
increasing points at least, and at most ``MAX_GRID_POINTS``, counted before
the grid is allocated), then the scenario's cross-parameter ``"check"`` or
``"build"``.  Runners read the validated values as they are, or what was built.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nonunitarity, witnesses
from ._util import is_finite_number, is_int, refine_brackets, write_csv
from .channels import (
    ChannelError,
    ConstantCoefficient,
    CosineSquaredCoefficient,
    JumpTerm,
    LindbladGenerator,
    SIGMA_Z,
    bosonic_generator,
    check_bosonic_rates,
    check_cutoff,
    check_thermal_tail,
    dephasing_generator,
    depolarizing,
    thermal_state,
)
from .dynamics import (
    DephasingFamily,
    GadcFamily,
    IntegrationError,
    TailMassError,
    damping_qubit_trajectory,
    entropy_rate_fd,
    export_trajectory,
    oscillating_qubit_trajectory,
    propagate,
)
from .linalg import DensityMatrix, LinalgError
from .sampling import default_pair_sampler, default_state_sampler
from .serialize import SerializationError, generator_from_document, matrix_from_document

__all__ = [
    "ScenarioError",
    "CheckResult",
    "RunReport",
    "SCENARIOS",
    "DEFAULT_CONFIGS",
    "list_scenarios",
    "validate_config",
    "run_config",
]


class ScenarioError(ValueError):
    pass


MAX_GRID_POINTS = 100_000  # the largest default grid, fig1_gadc's, has 3,001
MAX_CUTOFF = 400           # Fock levels; the CI runs 120, the default 40
MAX_SAMPLES = 10_000       # sampled states, pairs or optimizer starts
MAX_DEPOLARIZING_DIM = 16  # fig2_depolarizing's dimensions; the defaults are 2 and 3


_JSON_TYPES = {
    int: ("integer", is_int),
    float: ("number", is_finite_number),
    list: ("list", lambda value: isinstance(value, list)),
    dict: ("mapping", lambda value: isinstance(value, dict)),
}


@dataclass(frozen=True)
class Param:
    """One scenario parameter: default, doc and range (>= low, > low if
    strict; <= high).

    The JSON type comes from the default: an integer default takes integers
    only, a float default any finite number, a list or dict default the same
    container; ``bool`` is never a number.  Every integer parameter has a
    ``high``, so that no count reaches numpy or a float power unbounded.
    Ranges a package helper already checks (Fock cutoff, thermal occupation,
    bosonic rates) get no ``low``: the scenario's ``check`` calls that
    helper, so a bad value is reported once, in the run's own words, and no
    generator is built.
    """

    default: object
    doc: str
    low: float | None = None
    strict: bool = False
    high: int | None = None

    @property
    def spec(self) -> str:
        """The JSON type and range, as in ``number > 0`` or ``integer >= 1, <= 10000``."""
        kind = _JSON_TYPES[type(self.default)][0]
        bounds = [] if self.low is None else [f"{'>' if self.strict else '>='} {self.low:g}"]
        bounds += [] if self.high is None else [f"<= {self.high}"]
        return f"{kind} {', '.join(bounds)}" if bounds else kind

    def problems(self, name: str, value) -> list[str]:
        ok = (_JSON_TYPES[type(self.default)][1](value)
              and (self.low is None or value > self.low or (value == self.low and not self.strict))
              and (self.high is None or value <= self.high))
        return [] if ok else [f"{name}: expected {self.spec}, got {value!r}"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str

    def __post_init__(self):
        # Comparisons on numpy scalars give numpy.bool, which json cannot write.
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass
class RunReport:
    """The checks and output files of one scenario run.  ``wall_time_s`` times
    the scenario's runner alone, after the validation, where ``custom`` builds
    its generator; a first-use import inside the runner would fall within it
    (no default run makes one: none loads ``scipy.sparse`` or ``scipy.linalg``)."""

    scenario: str
    seed: int
    wall_time_s: float
    checks: list[CheckResult] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_document(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "outputs": self.outputs,
        }


# ---------------------------------------------------------------------------
# fig1_gadc
# ---------------------------------------------------------------------------

def _gadc_closed_form(omega: float, t: np.ndarray):
    w = np.cos(2.0 * omega * t) * (1.0 - np.exp(-t))
    w_dot = -2.0 * omega * np.sin(2.0 * omega * t) * (1.0 - np.exp(-t)) \
        + np.cos(2.0 * omega * t) * np.exp(-t)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = 0.5 * w_dot * (np.log((1.0 - w) / 2.0) - np.log((1.0 + w) / 2.0))
    rate = np.where(w == 0.0, 0.0, rate)
    return w, w_dot, rate, rate + w


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """The k at which values[k] is nonzero and values[k + 1] has the other
    sign, read from the signs, whose product cannot overflow or underflow."""
    return np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)


def _gadc_closed_roots(omega: float, grid: np.ndarray, f_closed: np.ndarray) -> np.ndarray:
    """The zeros of the closed-form f, one per sign change of ``f_closed`` on
    ``grid``: the midpoints of the brackets :func:`refine_brackets` narrows
    to 1e-12 + 4 eps |t|, the stop width of plain bisection (the relative
    term ends it where adjacent floats lie farther apart than 1e-12)."""
    ks = _sign_changes(f_closed)
    lo, hi = refine_brackets(lambda _, t: _gadc_closed_form(omega, t)[3], grid[ks], grid[ks + 1],
                             f_closed[ks], f_closed[ks + 1],
                             1e-12 + 4.0 * np.finfo(float).eps * np.abs(grid[ks + 1]))
    return 0.5 * (lo + hi)


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    """``points`` evenly spaced times on [start, stop], refused before allocation above the cap."""
    if points > MAX_GRID_POINTS:
        raise ScenarioError(f"the time grid asks for more than {MAX_GRID_POINTS} points")
    return np.linspace(start, stop, points)


def _step_grid(params: dict) -> np.ndarray:
    """0, t_step, ..., t_max: the grid of the scenarios set by a step (its
    count capped before rounding, where t_max / t_step may overflow)."""
    return _grid(0.0, params["t_max"],
                 round(min(params["t_max"] / params["t_step"], MAX_GRID_POINTS)) + 1)


def _window_grid(params: dict) -> np.ndarray:
    """n_points evenly spaced times on [0, t_max]."""
    return _grid(0.0, params["t_max"], params["n_points"])


def _check_fig1_gadc(params: dict) -> list[str]:
    t_end = _step_grid(params)[-1]
    if params["compare_from"] > t_end:
        return [f"compare_from {params['compare_from']:g} leaves no grid point on "
                f"[0, {t_end:g}] for the closed-form comparison"]
    return []


def run_fig1_gadc(params: dict, outdir: Path, seed: int) -> tuple[list[CheckResult], list[str]]:
    omega = params["omega"]
    grid = _step_grid(params)
    family = GadcFamily(omega)
    rho0 = DensityMatrix.maximally_mixed(2)

    start = time.perf_counter()
    rates, eps_terms = witnesses.f_components(family, rho0, grid)
    f_pipe = rates + eps_terms
    elapsed = time.perf_counter() - start

    w, _, _, f_closed = _gadc_closed_form(omega, grid)
    table = outdir / "fig1_gadc.csv"
    write_csv(table, ["t", "W", "entropy_rate", "f"], [grid, w, rates, f_pipe])

    compare = grid >= params["compare_from"]
    max_err = float(np.max(np.abs(f_pipe[compare] - f_closed[compare])))

    ks = _sign_changes(f_pipe)
    pipe_roots = grid[ks] - f_pipe[ks] * (grid[ks + 1] - grid[ks]) / (f_pipe[ks + 1] - f_pipe[ks])
    closed_roots = _gadc_closed_roots(omega, grid, f_closed)
    boundary_ok = len(pipe_roots) == len(closed_roots) and all(
        abs(a - b) <= params["boundary_tol"] + params["t_step"]
        for a, b in zip(pipe_roots, closed_roots)
    )

    checks = [
        CheckResult("f attains negative values", float(np.min(f_pipe)) < 0.0,
                    f"min f = {np.min(f_pipe):.6g}", "< 0"),
        CheckResult("f matches closed form", max_err <= params["match_tol"],
                    f"max |err| = {max_err:.3e}",
                    f"<= {params['match_tol']:g} on t >= {params['compare_from']:g}"),
        CheckResult("negative-window boundaries", boundary_ok,
                    f"{len(pipe_roots)} crossings", f"within {params['boundary_tol']:g}"),
        CheckResult("runtime", elapsed < 60.0, f"{elapsed:.1f} s", "< 60 s"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# fig2_depolarizing
# ---------------------------------------------------------------------------

def _depolarizing_points(params: dict) -> list[tuple]:
    """The (d, q) points of the run: each of q_values at d, then extra_points."""
    d = params["d"]
    return [(d, q) for q in params["q_values"]] + [tuple(p) for p in params["extra_points"]]


def _check_fig2_depolarizing(params: dict) -> list[str]:
    problems = [f"q_values entry {q!r} is not a number"
                for q in params["q_values"] if not is_finite_number(q)]
    problems += [f"extra_points entry {p!r} is not a [d, q] pair of an integer and a number"
                 for p in params["extra_points"] if not (
                     isinstance(p, list) and len(p) == 2
                     and is_int(p[0]) and is_finite_number(p[1]))]
    points = [] if problems else _depolarizing_points(params)
    if not (problems or points):
        return ["q_values and extra_points are both empty: no (d, q) point to compute"]
    return problems + [f"point (d={d}, q={q}) out of range: 2 <= d <= {MAX_DEPOLARIZING_DIM} "
                       f"and 0 <= q <= d^2/(d^2-1)" for d, q in points
                       if not 2 <= d <= MAX_DEPOLARIZING_DIM or not 0.0 <= q <= d**2 / (d**2 - 1)]


def run_fig2_depolarizing(params: dict, outdir: Path, seed: int) -> tuple[list[CheckResult], list[str]]:
    points = _depolarizing_points(params)

    start = time.perf_counter()
    analytic = np.array([nonunitarity.oslash_depolarizing_analytic(d, q) for d, q in points])
    numeric = np.array([nonunitarity.oslash_norm(depolarizing(d, q), starts=params["starts"],
                                                 seed=seed + k).value
                        for k, (d, q) in enumerate(points)])
    errors = np.abs(numeric - analytic)
    elapsed = time.perf_counter() - start

    table = outdir / "fig2_depolarizing.csv"
    write_csv(table, ["d", "q", "analytic", "numeric", "abs_error"],
              [[d for d, _ in points], [q for _, q in points], analytic, numeric, errors])
    max_err = float(np.max(errors))
    checks = [
        CheckResult("numeric matches analytic", max_err <= params["tol"],
                    f"max |err| = {max_err:.3e}", f"<= {params['tol']:g}"),
        CheckResult("runtime", elapsed < 120.0, f"{elapsed:.1f} s", "< 120 s"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# Appendix-style closed-form trajectories
# ---------------------------------------------------------------------------

def _fd_rate_check(trajectory, grid, params: dict, table: Path) -> tuple[CheckResult, list[str]]:
    """Tabulate the entropy rate of ``trajectory(grid)``, a closed-form
    trajectory, and its finite differences; compare.  Where the trajectory
    cannot be read on the grid (its rank change at the first grid point, or
    a stencil before t = 0), the check fails naming why, and no table is
    written."""
    expected = f"<= {params['tol']:g}"
    try:
        traj = trajectory(grid)
        rates = traj.entropy_rates()
        rates_fd = entropy_rate_fd(traj, np.arange(len(traj)), h=params["fd_h"])
    except IntegrationError as exc:
        return CheckResult("rate matches finite differences", False, str(exc), expected), []
    write_csv(table, ["t", "entropy", "entropy_rate", "entropy_rate_fd"],
              [traj.grid, traj.entropies(), rates, rates_fd])
    max_disc = float(np.max(np.abs(rates - rates_fd)))
    return CheckResult("rate matches finite differences", max_disc <= params["tol"],
                       f"max |rate - fd| = {max_disc:.3e}", expected), [str(table)]


def _check_fd_step(params: dict) -> list[str]:
    """The stencils reach t +- fd_h/2, so half a step must move t_max: a
    smaller fd_h divides 0 by 0, or differences states rounding tells apart.
    Rounding alone moves |rate - fd| by about 2 eps/fd_h on the damping
    trajectory and 10 eps/fd_h on the oscillatory one: 10 eps/fd_h must be <= tol."""
    t_max, h, tol = params["t_max"], params["fd_h"], params["tol"]
    if t_max + h / 2 == t_max:
        return [f"fd_h {h:g} is too small: t_max + fd_h/2 rounds to t_max = {t_max:g}"]
    if 10.0 * np.finfo(float).eps / h > tol:
        return [f"fd_h {h:g} is too small for tol {tol:g}: rounding alone moves the finite "
                f"differences by about 10 eps/fd_h = {10.0 * np.finfo(float).eps / h:.1e}"]
    return []


def _damping_grid(params: dict) -> np.ndarray:
    """n_points evenly spaced times on [t_min, t_max]."""
    return _grid(params["t_min"], params["t_max"], params["n_points"])


def run_appendix_damping(params: dict, outdir: Path, seed: int):
    fd_check, outputs = _fd_rate_check(damping_qubit_trajectory, _damping_grid(params), params,
                                       outdir / "appendixB_damping.csv")
    half_life = float(np.log(2.0))
    peak_traj = damping_qubit_trajectory(np.array([half_life, 1.0]))
    rate_ln2, rate_one = peak_traj.entropy_rates()
    analytic_one = float(np.exp(-1.0) * np.log(np.exp(-1.0) / (1.0 - np.exp(-1.0))))

    checks = [
        fd_check,
        CheckResult("rate vanishes at t = ln 2", abs(rate_ln2) <= 1e-8,
                    f"{rate_ln2:.3e}", "0 within 1e-8"),
        CheckResult("rate at t = 1", abs(rate_one - analytic_one) <= 1e-5,
                    f"{rate_one:.8f}", f"{analytic_one:.8f} within 1e-5"),
    ]
    return checks, outputs


def _oscillatory_grid(params: dict) -> np.ndarray:
    """The grid points at least ``margin`` away from every rank change, the
    half-integers; the nearest one to t is round(2t)/2."""
    margin = params["margin"]
    grid = _grid(margin, params["t_max"] - margin, params["n_points"])
    return grid[np.abs(grid - np.round(2.0 * grid) / 2.0) >= margin]


def run_appendix_oscillatory(params: dict, outdir: Path, seed: int):
    fd_check, outputs = _fd_rate_check(oscillating_qubit_trajectory, _oscillatory_grid(params),
                                       params, outdir / "appendixB_oscillatory.csv")
    spot = oscillating_qubit_trajectory(np.array([1e-10, 0.25]))
    limit_rate, quarter_rate = spot.entropy_rates()
    checks = [
        fd_check,
        CheckResult("rate at t = 1/4", abs(quarter_rate) <= 1e-6,
                    f"{quarter_rate:.3e}", "0 within 1e-6"),
        CheckResult("one-sided limit at t -> 0+", abs(limit_rate) <= 1e-6,
                    f"{limit_rate:.3e}", "0 within 1e-6"),
    ]
    return checks, outputs


# ---------------------------------------------------------------------------
# gaussian_bounds
# ---------------------------------------------------------------------------

def _check_gaussian_bounds(params: dict) -> list[str]:
    dynamics = params["dynamics"]
    if not dynamics:
        return ["dynamics is empty: no map to check"]
    problems = [f"dynamics[{kind!r}] needs numbers gamma_plus and gamma_minus only, got {gammas!r}"
                for kind, gammas in dynamics.items()
                if not (isinstance(gammas, dict) and set(gammas) == {"gamma_plus", "gamma_minus"}
                        and all(is_finite_number(g) for g in gammas.values()))]
    if problems:
        return problems
    try:  # the checks the run itself makes, in its order: cutoff, rates, thermal tail mass
        for gammas in dynamics.values():
            check_cutoff(params["cutoff"])
            check_bosonic_rates(gammas["gamma_plus"], gammas["gamma_minus"], params["cutoff"])
        check_thermal_tail(params["mean_photons"], params["cutoff"])
    except ChannelError as exc:
        return [str(exc)]
    return []


def run_gaussian_bounds(params: dict, outdir: Path, seed: int):
    grid = _window_grid(params)
    rho0 = thermal_state(params["mean_photons"], params["cutoff"])

    kinds, parts = [], ([], [], [])  # the dynamics column; t, entropy_rate, theorem2_bound per kind
    checks = []
    for kind, gammas in params["dynamics"].items():
        gp, gm = gammas["gamma_plus"], gammas["gamma_minus"]
        generator = bosonic_generator(gp, gm, params["cutoff"])
        try:
            traj = propagate(generator, rho0, grid, on_tail_breach="truncate")
        except TailMassError as exc:  # the grid is too coarse for the tail guard
            checks.append(CheckResult(f"{kind}: tail guard leaves a usable grid", False,
                                      str(exc), "at least 3 grid points"))
            continue
        except IntegrationError as exc:  # lost positivity, non-finite states, or a stall
            checks.append(CheckResult(f"{kind}: trajectory produced", False, str(exc),
                                      f"trajectory invariants validated on [0, {params['t_max']:g}]"))
            continue
        expected = gp - gm
        # Where the left-out rate exceeds rate_tol (a level entering a vacuum
        # start's support), the rate on the support is not the entropy rate:
        # the claim masks and the checks name those rows; with none left both fail.
        claim = witnesses.rate_limit(traj, params["rate_tol"])
        bounds, excluded, kept = claim.rhs, claim.masked, ~claim.masked
        kinds += [kind] * len(traj)
        for part, values in zip(parts, (traj.grid, claim.lhs, bounds)):
            part.append(values)
        bound_err = float(np.max(np.abs(bounds - expected)[kept])) if kept.any() else np.nan
        skipped = ""
        if excluded.any():
            times = ", ".join(f"{t:.3g}" for t in traj.grid[excluded])
            skipped = f" (rows whose left-out entropy rate exceeds rate_tol excluded: t = {times})"
        if kept.any():
            measured = (f"min(rate - bound) = {claim.worst()[0]:.3e}{skipped}",
                        f"max |bound - ({expected:g})| = {bound_err:.3e}{skipped}")
        else:
            measured = (f"no row left: the left-out entropy rate exceeds rate_tol "
                        f"on all {len(traj)} rows",) * 2
        span = f"[0, {traj.grid[-1]:.3g}]"
        if traj.truncated_at is not None:
            span += f" (tail-guard truncation at t={traj.truncated_at:.3g})"
        checks.append(CheckResult(
            f"{kind}: rate above lower limit on {span}", claim.holds(),
            measured[0], f">= -{params['rate_tol']:g}"))
        checks.append(CheckResult(
            f"{kind}: bound equals gamma_+ - gamma_-",
            bound_err <= params["bound_tol"], measured[1], f"<= {params['bound_tol']:g}"))

    table = outdir / "gaussian_bounds.csv"
    write_csv(table, ["dynamics", "t", "entropy_rate", "theorem2_bound"],
              [kinds, *(np.concatenate([np.empty(0), *part]) for part in parts)])
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# decoherence_measures
# ---------------------------------------------------------------------------

def _oscillating_dephasing(base: float, amplitude: float, frequency: float):
    """gamma(t) = base + amplitude cos(frequency t) split into serializable
    jump terms, with its closed-form antiderivative for the channel family."""
    jumps = [
        JumpTerm(ConstantCoefficient(0.5 * (base - amplitude)), SIGMA_Z),
        JumpTerm(CosineSquaredCoefficient(omega=0.5 * frequency, scale=amplitude), SIGMA_Z),
    ]
    generator = LindbladGenerator(2, jumps=jumps)

    def gamma_integral(t: float) -> float:
        return base * t + (amplitude / frequency) * np.sin(frequency * t)

    return generator, DephasingFamily(gamma_integral)


def _check_decoherence_measures(params: dict) -> list[str]:
    """Gamma(t) = base t + (amplitude/frequency) sin(frequency t) must stay >= 0
    on [0, t_max], or the dephasing maps are not completely positive.  Its
    minima lie at the window's ends or where cos(frequency t) = -base/amplitude,
    at t = (+-phi + 2 pi k)/frequency with phi = arccos(-base/amplitude).  On
    each branch sin(frequency t) is fixed, so Gamma is linear in k and only the
    first and last k in the window matter.  Gamma must be finite there in
    floating point, which fails where amplitude/frequency overflows.  The
    state sampler must also hold more than the maximally mixed state, a
    fixed point of unital dephasing on which no witness can fire, and at
    about 0.54 KiB per (grid point, sampled state) row, at most 1e6 rows."""
    problems = []
    samples = 1 + params["n_random"] + params["bloch_points"]  # the maximally mixed state first
    if params["n_random"] == 0 and params["bloch_points"] == 0:
        problems.append("n_random and bloch_points are both 0: the sampler holds only the "
                        "maximally mixed state, which dephasing leaves fixed")
    points = len(_step_grid(params))
    if points * samples > 1_000_000:
        problems.append(f"{points} grid points x {samples} sampled states = {points * samples} "
                        "rows exceed the 1,000,000 the measures may hold")
    base, amplitude, frequency = params["base"], params["amplitude"], params["frequency"]
    t_max = params["t_max"]
    times = [0.0, t_max]
    if amplitude != 0.0 and abs(base / amplitude) <= 1.0:
        for theta in np.array([1.0, -1.0]) * np.arccos(-base / amplitude):
            first = np.ceil(-theta / (2.0 * np.pi))
            last = np.floor((frequency * t_max - theta) / (2.0 * np.pi))
            if first <= last:
                times += [(theta + 2.0 * np.pi * k) / frequency for k in (first, last)]
    times = np.clip(times, 0.0, t_max)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * sin(0) is NaN, reported below
        gamma = base * times + (amplitude / frequency) * np.sin(frequency * times)
    k = int(np.argmin(np.where(np.isfinite(gamma), gamma, -np.inf)))
    if not gamma[k] >= 0.0:
        why = "the dephasing maps are not CP" if gamma[k] < 0.0 else "not finite in floating point"
        problems.append(f"the integrated rate base*t + (amplitude/frequency)*sin(frequency*t) "
                        f"is {gamma[k]:.3g} at t = {times[k]:.4g}: {why}")
    return problems


def _rate_minimum(params: dict) -> tuple[float, float]:
    """(min, argmin) of gamma(t) = base + amplitude cos(frequency t) on
    [0, t_max] in closed form: at an end of the window, or at the first
    t = pi / frequency where cos(frequency t) = -1 for a positive amplitude
    (a negative amplitude reaches base - |amplitude| at t = 0)."""
    base, amplitude, frequency = params["base"], params["amplitude"], params["frequency"]
    times = [0.0, params["t_max"]]
    if amplitude > 0.0 and frequency * params["t_max"] >= np.pi:
        times.append(np.pi / frequency)
    gamma = [base + amplitude * np.cos(frequency * t) for t in times]
    k = int(np.argmin(gamma))
    return float(gamma[k]), times[k]


def run_decoherence_measures(params: dict, outdir: Path, seed: int):
    """Both measures and BLP on the Markovian control and the oscillating
    profile.  The oscillating profile's expectation comes from its closed-form
    rate on the whole window [0, t_max], with no margin: where gamma >= 0
    everywhere the dynamics are CP-divisible and every measure must be silent,
    at the Markovian row's thresholds; where gamma < 0 anywhere, detection is
    expected.  A negative window narrower than one grid step still expects
    detection; the measures read the witness on the grid and cannot see it,
    so the check fails and says that no grid point has gamma < 0."""
    grid = _step_grid(params)
    rng = np.random.default_rng(seed)
    sampler = default_state_sampler(2, rng, n_random=params["n_random"],
                                    bloch_points=params["bloch_points"])
    pairs = default_pair_sampler(2, np.random.default_rng(seed + 1), n_pairs=params["n_pairs"])

    markov_gen = dephasing_generator(params["markovian_rate"])
    markov_family = DephasingFamily(lambda t: params["markovian_rate"] * t)
    osc_gen, osc_family = _oscillating_dephasing(
        params["base"], params["amplitude"], params["frequency"])

    results = {}
    for tag, gen, family in [("markovian", markov_gen, markov_family),
                             ("oscillating", osc_gen, osc_family)]:
        try:
            m_gen = witnesses.measure_generator(gen, sampler, grid)
            m_chan = witnesses.measure_channel(family, sampler, grid)
        except IntegrationError as exc:  # a huge rate's rounding breaks an invariant, or a stall
            return [CheckResult(f"{tag} profile measured", False, f"{type(exc).__name__}: {exc}",
                                f"trajectory invariants validated on [0, {params['t_max']:g}]")], []
        blp = witnesses.blp_measure(family, pairs, grid)
        results[tag] = (m_gen.value, m_chan.value, blp)

    table = outdir / "decoherence_measures.csv"
    write_csv(table, ["profile", "measure_generator", "measure_channel", "blp"],
              [list(results), *zip(*results.values())])

    tol = params["measure_tol"]
    mg_m, mc_m, blp_m = results["markovian"]
    mg_o, mc_o, blp_o = results["oscillating"]
    detect_tol = 1e-8

    def silent(tag: str, mg: float, mc: float, blp: float, note: str = "") -> CheckResult:
        return CheckResult(f"{tag} profile is silent",
                           max(mg, mc) <= detect_tol and blp <= 1e-6,
                           f"measures = ({mg:.2e}, {mc:.2e}), blp = {blp:.2e}{note}", "all ~ 0")

    gamma_min, t_min = _rate_minimum(params)
    if gamma_min >= 0.0:
        oscillating = silent("oscillating", mg_o, mc_o, blp_o,
                             f"; min gamma = {gamma_min:.3g} at t = {t_min:.4g}")
    else:
        detail = f"measure = {mg_o:.6f}, blp = {blp_o:.6f}"
        osc_rates = params["base"] + params["amplitude"] * np.cos(params["frequency"] * grid)
        if not np.any(osc_rates < 0.0):
            detail += (f"; gamma = {gamma_min:.3g} at t = {t_min:.4g}, but no grid point "
                       f"has gamma < 0")
        oscillating = CheckResult("oscillating profile detected",
                                  mg_o > detect_tol and blp_o > detect_tol, detail, "> 0")
    checks = [
        silent("markovian", mg_m, mc_m, blp_m),
        CheckResult("unital measures agree", abs(mg_o - mc_o) <= tol,
                    f"|{mg_o:.6f} - {mc_o:.6f}| = {abs(mg_o - mc_o):.2e}",
                    f"<= {tol:g}"),
        oscillating,
        CheckResult("detection agrees with trace-distance revivals",
                    (mg_o > detect_tol) == (blp_o > detect_tol)
                    and (mg_m > detect_tol) == (blp_m > detect_tol),
                    "sign patterns match", "equal positivity"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# custom
# ---------------------------------------------------------------------------

def _custom_inputs(params: dict) -> dict:
    """The run's parameters, with the generator and initial state built from
    their documents.  The generator's 'dim' must be the initial state's,
    checked before the generator and its d^2 x d^2 blocks are built."""
    rho0 = DensityMatrix(matrix_from_document(params["initial_state"]))
    doc = params["generator"]
    dim = doc.get("dim") if isinstance(doc, dict) else None
    if is_int(dim) and dim != rho0.dim:
        raise SerializationError(f"initial_state is {rho0.dim}x{rho0.dim} but the generator "
                                 f"acts on dimension {dim}")
    return {**params, "generator": generator_from_document(doc), "initial_state": rho0}


def run_custom(params: dict, outdir: Path, seed: int):
    generator, rho0 = params["generator"], params["initial_state"]
    expected = f"trajectory invariants validated on [0, {params['t_max']:g}]"
    try:
        traj = propagate(generator, rho0, _window_grid(params), on_tail_breach="truncate")
    except IntegrationError as exc:  # lost positivity, stalled, or no usable grid
        return [CheckResult("trajectory produced", False, str(exc), expected)], []
    report = witnesses.witness_reports(generator, traj)

    traj_table = outdir / "custom_trajectory.csv"
    export_trajectory(traj, traj_table)
    witness_table = outdir / "custom_witnesses.csv"
    witnesses.export_witness_reports(report, witness_table)

    worst = report.theorem2.worst()[0]
    span = f"[0, {traj.grid[-1]:.3g}]"
    if traj.truncated_at is not None:
        span += f" (tail-guard truncation at t={traj.truncated_at:.3g})"
    checks = [
        CheckResult("trajectory produced", traj.truncated_at is None,
                    f"{len(traj)} points on {span}", expected),
        CheckResult("worst rate-bound gap reported", True,
                    f"{worst:.6g}", "informational"),
    ]
    return checks, [str(traj_table), str(witness_table)]


# ---------------------------------------------------------------------------
# Catalog, validation, dispatch
# ---------------------------------------------------------------------------

SCENARIOS = {
    "fig1_gadc": {
        "runner": run_fig1_gadc, "grid": _step_grid, "check": _check_fig1_gadc,
        "description": "Memory witness f(t) for the generalized amplitude damping family",
        "parameters": {
            "omega": Param(5.0, "modulation frequency"),
            "t_max": Param(3.0, "end of the time window", low=0, strict=True),
            "t_step": Param(1e-3, "grid spacing", low=0, strict=True),
            "compare_from": Param(0.01, "first time included in the closed-form comparison"),
            "match_tol": Param(1e-4, "allowed |pipeline - closed form|", low=0),
            "boundary_tol": Param(1e-3, "allowed sign-change mismatch", low=0),
        },
    },
    "fig2_depolarizing": {
        "runner": run_fig2_depolarizing, "check": _check_fig2_depolarizing,
        "description": "Non-unitarity norm of depolarizing channels vs the closed form",
        "parameters": {
            "d": Param(2, "input dimension of q_values", low=2, high=MAX_DEPOLARIZING_DIM),
            "q_values": Param([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                               0.8, 0.9, 1.0, 1.1, 1.2, 1.3],
                              "depolarizing parameters q in [0, d^2/(d^2-1)]"),
            "extra_points": Param([[3, 0.5], [3, 1.0]],
                                  f"extra [d, q] pairs, 2 <= d <= {MAX_DEPOLARIZING_DIM}"),
            "starts": Param(32, "optimizer starts per point; fewer once the bracket closes",
                            low=1, high=MAX_SAMPLES),
            "tol": Param(1e-3, "allowed |numeric - analytic|", low=0),
        },
    },
    "appendixB_damping": {
        "runner": run_appendix_damping, "grid": _damping_grid, "check": _check_fd_step,
        "description": "Entropy rate vs finite differences for the damping trajectory",
        "parameters": {
            "t_min": Param(1e-3, "first grid time, past the t = 0 rank jump", low=0, strict=True),
            "t_max": Param(3.0, "last grid time", low=0, strict=True),
            "n_points": Param(120, "grid size", low=2, high=MAX_GRID_POINTS),
            "fd_h": Param(1e-4, "finite-difference step", low=0, strict=True),
            "tol": Param(1e-6, "allowed |rate - finite difference|", low=0, strict=True),
        },
    },
    "appendixB_oscillatory": {
        "runner": run_appendix_oscillatory, "grid": _oscillatory_grid, "check": _check_fd_step,
        "description": "Entropy rate vs finite differences for the oscillatory trajectory",
        "parameters": {
            "t_max": Param(3.0, "last grid time", low=0, strict=True),
            "n_points": Param(160, "grid size before rank-change trimming", low=2,
                              high=MAX_GRID_POINTS),
            "margin": Param(1e-3, "excluded neighborhood of rank changes", low=0, strict=True),
            "fd_h": Param(1e-4, "finite-difference step", low=0, strict=True),
            "tol": Param(1e-6, "allowed |rate - finite difference|", low=0, strict=True),
        },
    },
    "gaussian_bounds": {
        "runner": run_gaussian_bounds, "grid": _window_grid, "check": _check_gaussian_bounds,
        "description": "Rate lower limits gamma_+ - gamma_- for truncated bosonic dynamics",
        "parameters": {
            "mean_photons": Param(0.2, "thermal occupation of the initial state, at least 0"),
            "cutoff": Param(40, "Fock-space truncation, at least 2", high=MAX_CUTOFF),
            "t_max": Param(5.0, "end of the time window", low=0, strict=True),
            "n_points": Param(101, "grid size", low=2, high=MAX_GRID_POINTS),
            "rate_tol": Param(1e-6, "slack for rate >= bound", low=0),
            "bound_tol": Param(1e-6, "slack for bound = gamma_+ - gamma_-", low=0),
            "dynamics": Param({"amplifier": {"gamma_plus": 1.2, "gamma_minus": 0.2},
                               "lossy": {"gamma_plus": 0.2, "gamma_minus": 1.2},
                               "additive": {"gamma_plus": 0.2, "gamma_minus": 0.2}},
                              "map kind -> {gamma_plus, gamma_minus}, non-negative rates"),
        },
    },
    "decoherence_measures": {
        "runner": run_decoherence_measures, "grid": _step_grid,
        "check": _check_decoherence_measures,
        "description": "Generator/channel memory measures and the trace-distance baseline",
        "parameters": {
            "markovian_rate": Param(1.0, "constant dephasing rate of the control profile", low=0),
            "base": Param(0.5, "constant part of the oscillating rate"),
            "amplitude": Param(1.0, "cosine amplitude of the oscillating rate"),
            "frequency": Param(2.0, "cosine frequency of the oscillating rate", low=0, strict=True),
            "t_max": Param(3.0, "end of the time window", low=0, strict=True),
            "t_step": Param(4e-3, "grid spacing", low=0, strict=True),
            "n_random": Param(16, "random states in the sampler", low=0, high=MAX_SAMPLES),
            "bloch_points": Param(48, "Bloch-grid size in the sampler", low=0, high=MAX_SAMPLES),
            "n_pairs": Param(64, "state pairs for the trace-distance baseline", low=1,
                             high=MAX_SAMPLES),
            "measure_tol": Param(1e-5, "allowed |measure_generator - measure_channel|", low=0),
        },
    },
    "custom": {
        "runner": run_custom, "grid": _window_grid, "build": _custom_inputs,
        "description": "Propagate a serialized generator and export trajectory + witnesses",
        "parameters": {
            "generator": Param({"kind": "lindblad_generator", "dim": 2, "hamiltonian": None,
                                "jumps": [{"rate": {"type": "constant", "value": 0.5},
                                           "operator": [[[1.0, 0.0], [0.0, 0.0]],
                                                        [[0.0, 0.0], [-1.0, 0.0]]]}]},
                               "serialized generator document"),
            "initial_state": Param([[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
                                   "matrix document of the initial state, generator-sized"),
            "t_max": Param(2.0, "end of the time window", low=0, strict=True),
            "n_points": Param(101, "grid size", low=2, high=MAX_GRID_POINTS),
        },
    },
}


DEFAULT_CONFIGS = {
    name: {"scenario": name, "seed": 7,
           "parameters": {key: copy.deepcopy(p.default) for key, p in meta["parameters"].items()}}
    for name, meta in SCENARIOS.items()
}


def list_scenarios() -> dict:
    return {
        name: {"description": meta["description"],
               "parameters": {key: f"{p.doc} ({p.spec})" for key, p in meta["parameters"].items()}}
        for name, meta in SCENARIOS.items()
    }


def _validated(config: dict) -> tuple[list[str], dict | None]:
    """The diagnostics of :func:`validate_config`, and the parameters the
    runner reads: the config's own, or what the scenario's ``"build"`` made."""
    if not isinstance(config, dict):
        return [f"a config is a mapping of scenario, seed and parameters, got {config!r}"], None
    scenario = config.get("scenario")
    if scenario is None:
        return ["missing 'scenario'; required fields: scenario, seed, parameters"], None
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        return [f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}"], None
    meta = SCENARIOS[scenario]
    spec = meta["parameters"]
    problems = [] if is_int(config.get("seed", 0)) else ["'seed' must be an integer"]
    params = config.get("parameters")
    if not isinstance(params, dict):
        return problems + ["missing 'parameters' mapping; required parameters: "
                           + ", ".join(spec)], None
    problems += [f"unknown parameter {name!r}; known: {', '.join(spec)}"
                 for name in params if name not in spec]
    for name, param in spec.items():
        problems += param.problems(name, params[name]) if name in params \
            else [f"missing parameter {name!r}"]
    if problems:
        return problems, None
    if "grid" in meta:
        try:
            grid = meta["grid"](params)
        except ScenarioError as exc:
            return [str(exc)], None
        if len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
            span = f" on [{grid[0]:g}, {grid[-1]:g}]" if len(grid) else ""
            return [f"the time grid must hold at least two strictly increasing points; "
                    f"these parameters give {len(grid)}{span}"], None
    if "build" in meta:
        try:
            return [], meta["build"](params)
        except (SerializationError, ChannelError, LinalgError) as exc:
            return [str(exc)], None
    return (meta["check"](params) if "check" in meta else []), params


def validate_config(config: dict) -> list[str]:
    """Schema, range and construction diagnostics, derived from the catalog;
    runs no scenario, and reports a malformed value instead of raising."""
    return _validated(config)[0]


def run_config(config: dict, output_dir, seed_override: int | None = None) -> RunReport:
    """Validate a config, then run its scenario into ``output_dir``.  The
    report's ``wall_time_s`` times the runner alone, after the validation
    (:class:`RunReport`)."""
    problems, params = _validated(config)
    if problems:
        raise ScenarioError("; ".join(problems))
    scenario = config["scenario"]
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    checks, outputs = SCENARIOS[scenario]["runner"](params, outdir, seed)
    elapsed = time.perf_counter() - start
    return RunReport(scenario=scenario, seed=seed, wall_time_s=elapsed,
                     checks=checks, outputs=outputs)
