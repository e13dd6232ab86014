"""Declarative scenario pipelines behind the command-line runner.

Each scenario takes an explicit parameter dict (no hidden physical
constants), writes plot-ready CSV tables, and returns pass/fail checks with
the measured values.  Identical configurations and seeds produce
byte-identical tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from . import nonunitarity, witnesses
from ._util import write_csv
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
    depolarizing,
    thermal_state,
)
from .dynamics import (
    DephasingFamily,
    GadcFamily,
    Trajectory,
    _entropy_rates_fd,
    closed_form_trajectory,
    damping_qubit_state,
    export_trajectory,
    oscillating_qubit_state,
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
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "measured": c.measured, "expected": c.expected}
                for c in self.checks
            ],
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


def _sign_change_times(grid: np.ndarray, values: np.ndarray) -> list[float]:
    times = []
    for k in range(len(grid) - 1):
        a, b = values[k], values[k + 1]
        if a == 0.0 or a * b >= 0.0:
            continue
        times.append(float(grid[k] + (0.0 - a) * (grid[k + 1] - grid[k]) / (b - a)))
    return times


def _step_grid(params: dict) -> np.ndarray:
    """0, t_step, ..., t_max: the grid of the scenarios set by a step."""
    return np.linspace(0.0, params["t_max"], round(params["t_max"] / params["t_step"]) + 1)


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
    write_csv(table, ["t", "W", "entropy_rate", "f"],
              zip(grid, w, rates, f_pipe))

    compare = grid >= params["compare_from"]
    max_err = float(np.max(np.abs(f_pipe[compare] - f_closed[compare])))

    def closed_f(t: float) -> float:
        return float(_gadc_closed_form(omega, np.array([t]))[3][0])

    pipe_roots = _sign_change_times(grid, f_pipe)
    closed_roots = []
    for k in range(len(grid) - 1):
        if f_closed[k] != 0.0 and f_closed[k] * f_closed[k + 1] < 0.0:
            closed_roots.append(brentq(closed_f, grid[k], grid[k + 1], xtol=1e-12))
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

def run_fig2_depolarizing(params: dict, outdir: Path, seed: int) -> tuple[list[CheckResult], list[str]]:
    points = [(int(params["d"]), float(q)) for q in params["q_values"]]
    points += [(int(d), float(q)) for d, q in params.get("extra_points", [])]

    start = time.perf_counter()
    rows = []
    for k, (d, q) in enumerate(points):
        analytic = nonunitarity.oslash_depolarizing_analytic(d, q)
        numeric = nonunitarity.oslash_norm(
            depolarizing(d, q), starts=int(params["starts"]), seed=seed + k
        ).value
        rows.append((d, q, analytic, numeric, abs(numeric - analytic)))
    elapsed = time.perf_counter() - start

    table = outdir / "fig2_depolarizing.csv"
    write_csv(table, ["d", "q", "analytic", "numeric", "abs_error"], rows)
    max_err = max(r[4] for r in rows)
    checks = [
        CheckResult("numeric matches analytic", max_err <= params["tol"],
                    f"max |err| = {max_err:.3e}", f"<= {params['tol']:g}"),
        CheckResult("runtime", elapsed < 120.0, f"{elapsed:.1f} s", "< 120 s"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# Appendix-style closed-form trajectories
# ---------------------------------------------------------------------------

def _closed_form_rate_table(traj: Trajectory, fd_h: float):
    rates = traj.entropy_rates()
    rates_fd = _entropy_rates_fd(traj, np.arange(len(traj)), h=fd_h, richardson=True)
    return rates, rates_fd


def run_appendix_damping(params: dict, outdir: Path, seed: int):
    grid = np.linspace(params["t_min"], params["t_max"], int(params["n_points"]))
    traj = closed_form_trajectory(damping_qubit_state, grid)
    rates, rates_fd = _closed_form_rate_table(traj, params["fd_h"])
    table = outdir / "appendixB_damping.csv"
    write_csv(table, ["t", "entropy", "entropy_rate", "entropy_rate_fd"],
              zip(grid, traj.entropies(), rates, rates_fd))

    max_disc = float(np.max(np.abs(rates - rates_fd)))
    half_life = float(np.log(2.0))
    peak_traj = closed_form_trajectory(damping_qubit_state, np.array([half_life, 1.0]))
    rate_ln2, rate_one = peak_traj.entropy_rates()
    analytic_one = float(np.exp(-1.0) * np.log(np.exp(-1.0) / (1.0 - np.exp(-1.0))))

    checks = [
        CheckResult("rate matches finite differences", max_disc <= params["tol"],
                    f"max |rate - fd| = {max_disc:.3e}", f"<= {params['tol']:g}"),
        CheckResult("rate vanishes at t = ln 2", abs(rate_ln2) <= 1e-8,
                    f"{rate_ln2:.3e}", "0 within 1e-8"),
        CheckResult("rate at t = 1", abs(rate_one - analytic_one) <= 1e-5,
                    f"{rate_one:.8f}", f"{analytic_one:.8f} within 1e-5"),
    ]
    return checks, [str(table)]


def _oscillatory_grid(params: dict) -> np.ndarray:
    """The grid points at least ``margin`` away from every rank change."""
    margin = params["margin"]
    grid = np.linspace(margin, params["t_max"] - margin, int(params["n_points"]))
    half_integers = np.arange(0.0, params["t_max"] + 0.5, 0.5)
    keep = np.array([
        np.min(np.abs(half_integers - t)) >= margin for t in grid
    ], dtype=bool)
    return grid[keep]


def run_appendix_oscillatory(params: dict, outdir: Path, seed: int):
    grid = _oscillatory_grid(params)
    traj = closed_form_trajectory(oscillating_qubit_state, grid)
    rates, rates_fd = _closed_form_rate_table(traj, params["fd_h"])
    table = outdir / "appendixB_oscillatory.csv"
    write_csv(table, ["t", "entropy", "entropy_rate", "entropy_rate_fd"],
              zip(grid, traj.entropies(), rates, rates_fd))

    max_disc = float(np.max(np.abs(rates - rates_fd)))
    spot = closed_form_trajectory(oscillating_qubit_state, np.array([1e-10, 0.25]))
    limit_rate, quarter_rate = spot.entropy_rates()
    checks = [
        CheckResult("rate matches finite differences", max_disc <= params["tol"],
                    f"max |rate - fd| = {max_disc:.3e}", f"<= {params['tol']:g}"),
        CheckResult("rate at t = 1/4", abs(quarter_rate) <= 1e-6,
                    f"{quarter_rate:.3e}", "0 within 1e-6"),
        CheckResult("one-sided limit at t -> 0+", abs(limit_rate) <= 1e-6,
                    f"{limit_rate:.3e}", "0 within 1e-6"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# gaussian_bounds
# ---------------------------------------------------------------------------

def run_gaussian_bounds(params: dict, outdir: Path, seed: int):
    cutoff = int(params["cutoff"])
    mean_photons = params["mean_photons"]
    grid = np.linspace(0.0, params["t_max"], int(params["n_points"]))
    rho0 = thermal_state(mean_photons, cutoff)

    rows = []
    checks = []
    for kind, gammas in params["dynamics"].items():
        gp, gm = gammas["gamma_plus"], gammas["gamma_minus"]
        generator = bosonic_generator(gp, gm, cutoff)
        traj = propagate(generator, rho0, grid, on_tail_breach="truncate")
        expected = gp - gm
        rates = traj.entropy_rates()
        bounds = -witnesses._pinned_adjoint_traces(generator, traj.grid, traj.entries,
                                                   traj.spectrum.projectors())
        for t, r, b in zip(traj.grid, rates, bounds):
            rows.append((kind, t, r, b))
        worst_gap = float(np.min(rates - bounds))
        bound_err = float(np.max(np.abs(bounds - expected)))
        span = f"[0, {traj.grid[-1]:.3g}]"
        if traj.truncated_at is not None:
            span += f" (tail-guard truncation at t={traj.truncated_at:.3g})"
        checks.append(CheckResult(
            f"{kind}: rate above lower limit on {span}",
            worst_gap >= -params["rate_tol"],
            f"min(rate - bound) = {worst_gap:.3e}", f">= -{params['rate_tol']:g}"))
        checks.append(CheckResult(
            f"{kind}: bound equals gamma_+ - gamma_-",
            bound_err <= params["bound_tol"],
            f"max |bound - ({expected:g})| = {bound_err:.3e}",
            f"<= {params['bound_tol']:g}"))

    table = outdir / "gaussian_bounds.csv"
    write_csv(table, ["dynamics", "t", "entropy_rate", "theorem2_bound"], rows)
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


def run_decoherence_measures(params: dict, outdir: Path, seed: int):
    grid = _step_grid(params)
    rng = np.random.default_rng(seed)
    sampler = default_state_sampler(2, rng, n_random=int(params["n_random"]),
                                    bloch_points=int(params["bloch_points"]))
    pairs = default_pair_sampler(2, np.random.default_rng(seed + 1),
                                 n_pairs=int(params["n_pairs"]))

    markov_gen = LindbladGenerator(
        2, jumps=[JumpTerm(ConstantCoefficient(0.5 * params["markovian_rate"]), SIGMA_Z)])
    markov_family = DephasingFamily(lambda t: params["markovian_rate"] * t)
    osc_gen, osc_family = _oscillating_dephasing(
        params["base"], params["amplitude"], params["frequency"])

    results = {}
    for tag, gen, family in [("markovian", markov_gen, markov_family),
                             ("oscillating", osc_gen, osc_family)]:
        m_gen = witnesses.measure_generator(gen, sampler, grid)
        m_chan = witnesses.measure_channel(family, sampler, grid)
        blp = witnesses.blp_measure(family, pairs, grid)
        results[tag] = (m_gen.value, m_chan.value, blp)

    table = outdir / "decoherence_measures.csv"
    write_csv(table, ["profile", "measure_generator", "measure_channel", "blp"],
              [(tag, *vals) for tag, vals in results.items()])

    tol = params["measure_tol"]
    mg_m, mc_m, blp_m = results["markovian"]
    mg_o, mc_o, blp_o = results["oscillating"]
    detect_tol = 1e-8
    checks = [
        CheckResult("markovian profile is silent",
                    max(mg_m, mc_m) <= detect_tol and blp_m <= 1e-6,
                    f"measures = ({mg_m:.2e}, {mc_m:.2e}), blp = {blp_m:.2e}",
                    "all ~ 0"),
        CheckResult("unital measures agree", abs(mg_o - mc_o) <= tol,
                    f"|{mg_o:.6f} - {mc_o:.6f}| = {abs(mg_o - mc_o):.2e}",
                    f"<= {tol:g}"),
        CheckResult("oscillating profile detected", mg_o > detect_tol and blp_o > detect_tol,
                    f"measure = {mg_o:.6f}, blp = {blp_o:.6f}", "> 0"),
        CheckResult("detection agrees with trace-distance revivals",
                    (mg_o > detect_tol) == (blp_o > detect_tol)
                    and (mg_m > detect_tol) == (blp_m > detect_tol),
                    "sign patterns match", "equal positivity"),
    ]
    return checks, [str(table)]


# ---------------------------------------------------------------------------
# custom
# ---------------------------------------------------------------------------

def run_custom(params: dict, outdir: Path, seed: int):
    generator = generator_from_document(params["generator"])
    rho0 = DensityMatrix(matrix_from_document(params["initial_state"]))
    grid = np.linspace(0.0, params["t_max"], int(params["n_points"]))
    traj = propagate(generator, rho0, grid)
    reports = witnesses.witness_reports(generator, traj)

    traj_table = outdir / "custom_trajectory.csv"
    export_trajectory(traj, traj_table)
    witness_table = outdir / "custom_witnesses.csv"
    witnesses.export_witness_reports(reports, witness_table)

    excluded = traj.rank_jump_rows(witnesses.RANK_CHANGE_MARGIN)
    worst = min(r.violation for r, skip in zip(reports, excluded) if not skip)
    checks = [
        CheckResult("trajectory produced", True,
                    f"{len(traj)} points", "trajectory invariants validated"),
        CheckResult("worst rate-bound gap reported", True,
                    f"{worst:.6g}", "informational"),
    ]
    return checks, [str(traj_table), str(witness_table)]


# ---------------------------------------------------------------------------
# Catalog, validation, dispatch
# ---------------------------------------------------------------------------

SCENARIOS = {
    "fig1_gadc": {
        "runner": run_fig1_gadc,
        "description": "Memory witness f(t) for the generalized amplitude damping family",
        "parameters": {
            "omega": "modulation frequency (real)",
            "t_max": "end of the time window (> 0)",
            "t_step": "grid spacing (> 0, at least two grid points)",
            "compare_from": "first time included in the closed-form comparison",
            "match_tol": "allowed |pipeline - closed form|",
            "boundary_tol": "allowed sign-change mismatch",
        },
    },
    "fig2_depolarizing": {
        "runner": run_fig2_depolarizing,
        "description": "Non-unitarity norm of depolarizing channels vs the closed form",
        "parameters": {
            "d": "input dimension (>= 2)",
            "q_values": "list of depolarizing parameters in [0, d^2/(d^2-1)]",
            "extra_points": "extra [d, q] pairs",
            "starts": "optimizer starts per point, at most; stops once the bracket closes",
            "tol": "allowed |numeric - analytic|",
        },
    },
    "appendixB_damping": {
        "runner": run_appendix_damping,
        "description": "Entropy rate vs finite differences for the damping trajectory",
        "parameters": {
            "t_min": "first grid time (> 0, past the rank jump)",
            "t_max": "last grid time",
            "n_points": "grid size (integer >= 2)",
            "fd_h": "finite-difference step",
            "tol": "allowed |rate - finite difference|",
        },
    },
    "appendixB_oscillatory": {
        "runner": run_appendix_oscillatory,
        "description": "Entropy rate vs finite differences for the oscillatory trajectory",
        "parameters": {
            "t_max": "last grid time",
            "n_points": "grid size before rank-change trimming (at least two points left)",
            "margin": "excluded neighborhood around rank changes",
            "fd_h": "finite-difference step",
            "tol": "allowed |rate - finite difference|",
        },
    },
    "gaussian_bounds": {
        "runner": run_gaussian_bounds,
        "description": "Rate lower limits gamma_+ - gamma_- for truncated bosonic dynamics",
        "parameters": {
            "mean_photons": "thermal occupation of the initial state",
            "cutoff": "Fock-space truncation (>= 2)",
            "t_max": "end of the time window",
            "n_points": "grid size (integer >= 2)",
            "rate_tol": "slack for rate >= bound",
            "bound_tol": "slack for bound = gamma_+ - gamma_-",
            "dynamics": "map kind -> {gamma_plus, gamma_minus}",
        },
    },
    "decoherence_measures": {
        "runner": run_decoherence_measures,
        "description": "Generator/channel memory measures and the trace-distance baseline",
        "parameters": {
            "markovian_rate": "constant decoherence rate of the control profile",
            "base": "constant part of the oscillating rate",
            "amplitude": "cosine amplitude of the oscillating rate",
            "frequency": "cosine frequency of the oscillating rate",
            "t_max": "end of the time window",
            "t_step": "grid spacing (> 0, at least two grid points)",
            "n_random": "random states in the sampler (integer >= 0)",
            "bloch_points": "Bloch-grid size in the sampler (integer >= 0)",
            "n_pairs": "state pairs for the trace-distance baseline (integer >= 1)",
            "measure_tol": "allowed |measure_generator - measure_channel|",
        },
    },
    "custom": {
        "runner": run_custom,
        "description": "Propagate a serialized generator and export trajectory + witnesses",
        "parameters": {
            "generator": "serialized generator document",
            "initial_state": "matrix document of the initial state, of the generator's dimension",
            "t_max": "end of the time window",
            "n_points": "grid size (integer >= 2)",
        },
    },
}


DEFAULT_CONFIGS = {
    "fig1_gadc": {
        "scenario": "fig1_gadc",
        "seed": 7,
        "parameters": {
            "omega": 5.0,
            "t_max": 3.0,
            "t_step": 1e-3,
            "compare_from": 0.01,
            "match_tol": 1e-4,
            "boundary_tol": 1e-3,
        },
    },
    "fig2_depolarizing": {
        "scenario": "fig2_depolarizing",
        "seed": 7,
        "parameters": {
            "d": 2,
            "q_values": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                         0.8, 0.9, 1.0, 1.1, 1.2, 1.3],
            "extra_points": [[3, 0.5], [3, 1.0]],
            "starts": 32,
            "tol": 1e-3,
        },
    },
    "appendixB_damping": {
        "scenario": "appendixB_damping",
        "seed": 7,
        "parameters": {
            "t_min": 1e-3,
            "t_max": 3.0,
            "n_points": 120,
            "fd_h": 1e-4,
            "tol": 1e-6,
        },
    },
    "appendixB_oscillatory": {
        "scenario": "appendixB_oscillatory",
        "seed": 7,
        "parameters": {
            "t_max": 3.0,
            "n_points": 160,
            "margin": 1e-3,
            "fd_h": 1e-4,
            "tol": 1e-6,
        },
    },
    "gaussian_bounds": {
        "scenario": "gaussian_bounds",
        "seed": 7,
        "parameters": {
            "mean_photons": 0.2,
            "cutoff": 40,
            "t_max": 5.0,
            "n_points": 101,
            "rate_tol": 1e-6,
            "bound_tol": 1e-6,
            "dynamics": {
                "amplifier": {"gamma_plus": 1.2, "gamma_minus": 0.2},
                "lossy": {"gamma_plus": 0.2, "gamma_minus": 1.2},
                "additive": {"gamma_plus": 0.2, "gamma_minus": 0.2},
            },
        },
    },
    "decoherence_measures": {
        "scenario": "decoherence_measures",
        "seed": 7,
        "parameters": {
            "markovian_rate": 1.0,
            "base": 0.5,
            "amplitude": 1.0,
            "frequency": 2.0,
            "t_max": 3.0,
            "t_step": 4e-3,
            "n_random": 16,
            "bloch_points": 48,
            "n_pairs": 64,
            "measure_tol": 1e-5,
        },
    },
    "custom": {
        "scenario": "custom",
        "seed": 7,
        "parameters": {
            "generator": {
                "kind": "lindblad_generator",
                "dim": 2,
                "hamiltonian": None,
                "jumps": [{
                    "rate": {"type": "constant", "value": 0.5},
                    "operator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                }],
            },
            "initial_state": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
            "t_max": 2.0,
            "n_points": 101,
        },
    },
}


def list_scenarios() -> dict:
    return {
        name: {"description": meta["description"], "parameters": meta["parameters"]}
        for name, meta in SCENARIOS.items()
    }


def validate_config(config: dict) -> list[str]:
    """Schema and range diagnostics without executing anything."""
    problems = []
    scenario = config.get("scenario")
    if scenario is None:
        problems.append("missing 'scenario'; required fields: scenario, seed, parameters")
        return problems
    if scenario not in SCENARIOS:
        problems.append(f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")
        return problems
    if not isinstance(config.get("seed", 0), int):
        problems.append("'seed' must be an integer")
    params = config.get("parameters")
    if not isinstance(params, dict):
        problems.append("missing 'parameters' mapping; required parameters: "
                        + ", ".join(SCENARIOS[scenario]["parameters"]))
        return problems
    for name in SCENARIOS[scenario]["parameters"]:
        if name not in params:
            problems.append(f"missing parameter {name!r}")
    if problems:
        return problems

    def count(name: str, minimum: int) -> None:
        value = params[name]
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
            problems.append(f"{name} must be an integer >= {minimum}, got {value!r}")

    def step_grid() -> None:
        if params["t_max"] <= 0 or params["t_step"] <= 0:
            problems.append("t_max and t_step must be positive")
        elif len(_step_grid(params)) < 2:
            problems.append(f"t_step {params['t_step']:g} leaves fewer than two grid points "
                            f"on [0, {params['t_max']:g}]")

    if scenario == "fig2_depolarizing":
        d = params["d"]
        if not (isinstance(d, int) and d >= 2):
            problems.append("d must be an integer >= 2")
        else:
            q_max = d**2 / (d**2 - 1)
            for q in params["q_values"]:
                if not 0.0 <= q <= q_max:
                    problems.append(
                        f"q={q} out of range: q must satisfy q <= d^2/(d^2-1) = {q_max:.6g}"
                    )
            for dd, q in params.get("extra_points", []):
                qm = dd**2 / (dd**2 - 1)
                if not 0.0 <= q <= qm:
                    problems.append(
                        f"extra point (d={dd}, q={q}) out of range: q <= d^2/(d^2-1) = {qm:.6g}"
                    )
        count("starts", 1)
    if scenario in ("fig1_gadc", "decoherence_measures"):
        step_grid()
    if scenario in ("appendixB_damping", "appendixB_oscillatory", "gaussian_bounds", "custom"):
        count("n_points", 2)
    if scenario in ("appendixB_damping", "appendixB_oscillatory"):
        if params["fd_h"] <= 0 or params["tol"] <= 0:
            problems.append("fd_h and tol must be positive")
    if scenario == "appendixB_damping" and params["t_min"] <= 0:
        problems.append("t_min must be positive (the rank changes at t = 0)")
    if scenario == "appendixB_oscillatory" and not problems and len(_oscillatory_grid(params)) < 2:
        problems.append(f"margin {params['margin']:g} leaves fewer than two grid points "
                        "between rank changes")
    if scenario == "gaussian_bounds":
        try:  # the checks the run itself makes, in its order: rates, cutoff, thermal tail mass
            for gammas in params["dynamics"].values():
                check_bosonic_rates(gammas["gamma_plus"], gammas["gamma_minus"])
                check_cutoff(int(params["cutoff"]))
            check_thermal_tail(params["mean_photons"], int(params["cutoff"]))
        except ChannelError as exc:
            problems.append(str(exc))
    if scenario == "decoherence_measures":
        count("n_random", 0)
        count("bloch_points", 0)
        count("n_pairs", 1)
    if scenario == "custom":
        try:  # the generator and state the run builds
            generator = generator_from_document(params["generator"])
            rho0 = DensityMatrix(matrix_from_document(params["initial_state"]))
            if rho0.dim != generator.dim:
                problems.append(f"initial_state is {rho0.dim}x{rho0.dim} but the generator "
                                f"acts on dimension {generator.dim}")
        except (SerializationError, ChannelError, LinalgError) as exc:
            problems.append(str(exc))
    return problems


def run_config(config: dict, output_dir, seed_override: int | None = None) -> RunReport:
    problems = validate_config(config)
    if problems:
        raise ScenarioError("; ".join(problems))
    scenario = config["scenario"]
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    checks, outputs = SCENARIOS[scenario]["runner"](config["parameters"], outdir, seed)
    elapsed = time.perf_counter() - start
    return RunReport(scenario=scenario, seed=seed, wall_time_s=elapsed,
                     checks=checks, outputs=outputs)
