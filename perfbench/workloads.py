"""The benchmark's workloads: seeded inputs, tasks, and their checks.

A workload is built once per process (that is the set-up the benchmark
times) and then run pass after pass.  Each task is one call into a public
entry point of ``entroflow`` -- ``scenarios.run_config`` or a public function
of ``witnesses``, ``dynamics`` or ``nonunitarity`` -- followed by a check
against an independent reference from ``references``, at the tolerance the
owning scenario already states.

Calls go through module attributes (``witnesses.measure_generator``, not a
name imported from it) so that the traced run can wrap them.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entroflow
from entroflow import channels, dynamics, nonunitarity, sampling, scenarios, serialize, witnesses

import references as ref

__all__ = ["KnownDefect", "Task", "Workload", "WORKLOADS", "build"]

# Thresholds of the decoherence_measures scenario.
DETECT_TOL = 1e-8
BLP_SILENT_TOL = 1e-6
MEASURE_TOL = 1e-5
# Slack of the package's own inequality checks (pinsker_gap, tests).
INEQUALITY_SLACK = 1e-9


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the package that makes a task fail today, and the way it
    fails: ``matches`` gets what the task returned, or the exception it
    raised, and says whether this defect explains the failure."""

    why: str
    matches: Callable[[object], bool]


@dataclass
class Task:
    """One call into the package plus the check of its result.

    ``check`` returns (passed, detail).  A failure that ``known_defect``
    explains is counted but does not make the run incorrect; any other
    failure does.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    known_defect: KnownDefect | None = None

    def fails_as_known(self, outcome: object) -> bool:
        """Whether a failure with this result or exception is the known defect."""
        if self.known_defect is None:
            return False
        try:
            return bool(self.known_defect.matches(outcome))
        except Exception:  # an outcome of another shape is another failure
            return False


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    inputs_digest: str


def _digest(*objects) -> str:
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, entroflow.DensityMatrix):
            feed(obj.entries)
        elif isinstance(obj, entroflow.QuantumChannel):
            for k in obj.kraus:
                feed(k)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(json.dumps(obj, sort_keys=True).encode())

    for obj in objects:
        feed(obj)
    return h.hexdigest()[:16]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _within(label: str, error: float, tol: float) -> tuple[bool, str]:
    return bool(error <= tol), f"{label} {error:.3e} (tol {tol:g})"


def _scenario_tasks(label: str, config: dict, outdir: Path, seed: int, reference,
                    run_defect: tuple[str, list[str]] | None = None,
                    json_defect: KnownDefect | None = None) -> list[Task]:
    """run_config plus the CLI's report.json serialization, as two tasks.

    The run passes when every check of the scenario passes and the written
    tables match ``reference(params, table_dir)``.  ``run_defect`` is a
    known defect's reason and the names of the scenario checks it fails; a
    failed run is that defect only if exactly those checks fail and the
    tables still match the reference.
    """
    table_dir = outdir / label
    last: dict = {}

    def run():
        last.clear()
        last["report"] = scenarios.run_config(copy.deepcopy(config), table_dir,
                                              seed_override=seed)
        return last["report"]

    def check(report):
        failing = [c.name for c in report.checks if not c.passed]
        ok, detail = reference(config["parameters"], table_dir)
        if failing:
            return False, f"scenario checks failed: {failing}; {detail}"
        return ok, detail

    def dump():
        # Exactly what `entroflow run` writes to report.json.
        return json.dumps(last["report"].to_document(), indent=1)

    def check_dump(text):
        doc = json.loads(text)
        ok = doc["passed"] == last["report"].passed and len(doc["checks"]) == len(last["report"].checks)
        return ok, f"{len(text)} bytes"

    known_run = None
    if run_defect is not None:
        why, expected_failing = run_defect

        def fails_as_known(report):
            failing = [c.name for c in report.checks if not c.passed]
            return failing == expected_failing and reference(config["parameters"], table_dir)[0]

        known_run = KnownDefect(why, fails_as_known)

    return [Task(f"{label}.run", run, check, known_run),
            Task(f"{label}.report_json", dump, check_dump, json_defect)]


# ---------------------------------------------------------------------------
# memory_measures
# ---------------------------------------------------------------------------

# The Markovian measures read 0.95e-7 and 1.9e-7 on seeds 1-12.
MARKOVIAN_DEFECT_MAX = 1e-6


def _oscillating_generator(profile: ref.Dephasing) -> channels.LindbladGenerator:
    """gamma(t)/2 sigma_z dissipator with gamma = base + amplitude cos(frequency t),
    split into the serializable constant and cosine-squared coefficients."""
    return channels.LindbladGenerator(2, jumps=[
        channels.JumpTerm(channels.ConstantCoefficient(0.5 * (profile.base - profile.amplitude)),
                          channels.SIGMA_Z),
        channels.JumpTerm(channels.CosineSquaredCoefficient(omega=0.5 * profile.frequency,
                                                            scale=profile.amplitude),
                          channels.SIGMA_Z),
    ])


def _measure_reference(profile: ref.Dephasing, states, grid) -> float:
    """Max over states of the grid violation integral of the closed-form rate.

    The generator is unital and the states are full rank for t > 0, so the
    Theorem 2 limit is 0 and the violation is the entropy rate itself."""
    best = 0.0
    for rho in states:
        rho0 = rho.entries
        values = profile.entropy_rate(rho0, grid)
        integral = ref.violation_integral(
            grid, values, witnesses.EPS_WITNESS,
            lambda t, rho0=rho0: float(profile.entropy_rate(rho0, t)))
        best = max(best, integral)
    return best


def _build_memory_measures(seed: int, outdir: Path) -> Workload:
    grid = np.linspace(0.0, 3.0, 61)
    # Maximally mixed, one Bloch-grid and two random states: small enough
    # for five passes in a run, and the pure ones show the t = 0+ defect.
    states = sampling.default_state_sampler(2, np.random.default_rng(seed),
                                            n_random=2, bloch_points=1)
    # Full-rank states only, on which the Markovian channel-side measure is silent.
    mixed_rng = np.random.default_rng(seed + 3)
    mixed_states = [entroflow.DensityMatrix.maximally_mixed(2)] + [
        sampling.random_mixed_state(mixed_rng, 2) for _ in range(3)]
    # Four antipodal Bloch-grid pairs (the same for every seed) and four
    # seeded ones: Haar pure against Haar pure, mixed against Haar pure.
    pair_rng = np.random.default_rng(seed + 1)
    pairs = sampling.default_pair_sampler(2, pair_rng, n_pairs=4)
    for _ in range(2):
        pairs.append((sampling.haar_pure_state(pair_rng, 2), sampling.haar_pure_state(pair_rng, 2)))
        pairs.append((sampling.random_mixed_state(pair_rng, 2), sampling.haar_pure_state(pair_rng, 2)))

    markov = ref.Dephasing(base=1.0)
    oscillating = ref.Dephasing(base=0.5, amplitude=1.0, frequency=2.0)
    markov_gen = channels.LindbladGenerator(
        2, jumps=[channels.JumpTerm(channels.ConstantCoefficient(0.5), channels.SIGMA_Z)])
    markov_family = dynamics.DephasingFamily(markov.gamma_integral)
    osc_gen = _oscillating_generator(oscillating)
    osc_family = dynamics.DephasingFamily(oscillating.gamma_integral)
    # One interval across the edge of the non-CP window (pi/3, 2pi/3), one inside.
    cp_grid = np.array([1.0, 1.1, 1.2])

    rho_custom = sampling.random_mixed_state(np.random.default_rng(seed + 2), 2)
    custom_config = {
        "scenario": "custom",
        "seed": seed,
        "parameters": {
            "generator": serialize.generator_to_document(osc_gen),
            "initial_state": serialize.matrix_to_document(rho_custom.entries),
            "t_max": 3.0,
            "n_points": 21,
        },
    }
    problems = scenarios.validate_config(custom_config)
    if problems:
        raise ValueError(f"custom config invalid: {problems}")

    osc_measure_ref = _measure_reference(oscillating, states, grid)

    def silent(result):
        return _within("measure", result.value, DETECT_TOL)

    def silent_on_every_state(result):
        values = np.array(result.sample_values)
        ok = (result.samples_used == len(mixed_states) == len(values)
              and bool(np.all((values >= 0.0) & (values <= DETECT_TOL))))
        return ok and result.value == values.max(), (
            f"measure {result.value:.3e}, max per state {values.max():.3e} (tol {DETECT_TOL:g})")

    markovian_not_silent = KnownDefect(
        "Markovian measure is not silent: pure sampled states change rank at t = 0+, "
        "which leaves a ~1e-7 violation above the 1e-8 check",
        lambda result: DETECT_TOL < result.value <= MARKOVIAN_DEFECT_MAX)

    def detected(result):
        ok, detail = _within("|measure - closed form|",
                             abs(result.value - osc_measure_ref), MEASURE_TOL)
        return ok and result.value > DETECT_TOL, f"measure {result.value:.6f}; {detail}"

    def blp_reference(family_profile):
        return max(ref.revival_integral(grid, family_profile.trace_distance(
            a.entries, b.entries, grid)) for a, b in pairs)

    blp_osc_ref = blp_reference(oscillating)

    def blp_silent(value):
        return _within("blp", value, BLP_SILENT_TOL)

    def blp_detected(value):
        ok, detail = _within("|blp - closed form|", abs(value - blp_osc_ref), MEASURE_TOL)
        return ok and value > DETECT_TOL, f"blp {value:.6f}; {detail}"

    def cp_check(report):
        worst = max(abs(e.choi_min_eigenvalue - oscillating.interval_choi_min(e.t_start, e.t_end))
                    for e in report.intervals)
        ok, detail = _within("max |Choi min eig - closed form|", worst, 1e-8)
        return ok and report.verdict == "not_cp_divisible", f"{report.verdict}; {detail}"

    def custom_reference(params, table_dir):
        rows = _read_csv(table_dir / "custom_trajectory.csv")
        t = _column(rows, "t")
        rho0 = rho_custom.entries
        bloch = np.stack([2.0 * _column(rows, "re_rho_01"), -2.0 * _column(rows, "im_rho_01"),
                          _column(rows, "re_rho_00") - _column(rows, "re_rho_11")], axis=-1)
        state_err = float(np.max(np.abs(bloch - oscillating.bloch_at(rho0, t))))
        rate_err = float(np.max(np.abs(_column(rows, "entropy_rate")
                                       - oscillating.entropy_rate(rho0, t))))
        # propagate's error target is 1e-7 per unit time.
        ok1, d1 = _within("max |Bloch - closed form|", state_err, 1e-7 * params["t_max"])
        ok2, d2 = _within("max |rate - closed form|", rate_err, MEASURE_TOL)
        return ok1 and ok2, f"{d1}; {d2}"

    tasks = [
        Task("measure_generator.markovian",
             lambda: witnesses.measure_generator(markov_gen, states, grid), silent,
             markovian_not_silent),
        Task("measure_generator.oscillating",
             lambda: witnesses.measure_generator(osc_gen, states, grid), detected),
        Task("measure_channel.markovian",
             lambda: witnesses.measure_channel(markov_family, states, grid), silent,
             markovian_not_silent),
        Task("measure_channel.markovian_full_rank",
             lambda: witnesses.measure_channel(markov_family, mixed_states, grid),
             silent_on_every_state),
        Task("blp_measure.markovian",
             lambda: witnesses.blp_measure(markov_family, pairs, grid), blp_silent),
        Task("blp_measure.oscillating",
             lambda: witnesses.blp_measure(osc_family, pairs, grid), blp_detected),
        Task("cp_divisibility_check.oscillating",
             lambda: dynamics.cp_divisibility_check(osc_gen, cp_grid), cp_check),
        *_scenario_tasks("custom_oscillating", custom_config, outdir, seed, custom_reference),
    ]
    return Workload("memory_measures", tasks, _digest(states, mixed_states, pairs, custom_config))


# ---------------------------------------------------------------------------
# diamond_norm
# ---------------------------------------------------------------------------

FIXED_CHANNEL_SEED = 1707


def _build_diamond_norm(seed: int, outdir: Path) -> Workload:
    config = copy.deepcopy(scenarios.DEFAULT_CONFIGS["fig2_depolarizing"])
    config["parameters"].update(q_values=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25],
                                extra_points=[[3, 0.5]], starts=4)
    problems = scenarios.validate_config(config)
    if problems:
        raise ValueError(f"fig2 config invalid: {problems}")

    # The seed drives the optimizer's random starts.  The d = 3 channels are
    # drawn once from a fixed seed: on eight draws the ascent from the
    # maximally entangled start took 2419 to 6048 objective evaluations, a
    # spread that would swamp any comparison across seeds.  They keep only
    # that start (~0.8 s each); fig2 exercises the random starts.
    rng = np.random.default_rng(FIXED_CHANNEL_SEED)
    mixed = [sampling.random_mixed_unitary_channel(rng, 3, n_unitaries=3) for _ in range(2)]
    unitary = channels.unitary_channel(sampling.random_unitary(rng, 3))
    starts = 1

    def fig2_reference(params, table_dir):
        rows = _read_csv(table_dir / "fig2_depolarizing.csv")
        err = max(abs(float(r["numeric"]) - ref.depolarizing_oslash(round(float(r["d"])), float(r["q"])))
                  for r in rows)
        return _within("max |numeric - closed form|", err, params["tol"])

    def bracket_check(value, matrix):
        lower, upper = ref.diamond_bracket(matrix, 3)
        ok = lower - INEQUALITY_SLACK <= value <= upper + INEQUALITY_SLACK
        return ok, f"{lower:.6f} <= {value:.6f} <= {upper:.6f}"

    oslash_matrix = np.eye(9) - ref.kraus_superoperator(
        [a.conj().T @ b for a in mixed[0].kraus for b in mixed[0].kraus])
    distance_matrix = ref.kraus_superoperator(mixed[1].kraus) - ref.kraus_superoperator(unitary.kraus)

    tasks = [
        *_scenario_tasks("fig2_depolarizing", config, outdir, seed, fig2_reference),
        Task("oslash_norm.mixed_unitary_d3",
             lambda: nonunitarity.oslash_norm(mixed[0], starts=starts, seed=seed),
             lambda result: bracket_check(result.value, oslash_matrix)),
        Task("diamond_distance.mixed_unitary_d3_vs_unitary",
             lambda: nonunitarity.diamond_distance(mixed[1], unitary, starts=starts, seed=seed),
             lambda value: bracket_check(value, distance_matrix)),
    ]
    return Workload("diamond_norm", tasks, _digest(config, seed, mixed, unitary))


# ---------------------------------------------------------------------------
# channel_witness
# ---------------------------------------------------------------------------

SERIALIZE_DEFECT = KnownDefect(
    "CheckResult.passed holds a numpy.bool, so report.json cannot be written",
    lambda outcome: (isinstance(outcome, TypeError)
                     and str(outcome) == "Object of type bool is not JSON serializable"))
FD_ORACLE_DEFECT = (
    "finite-difference oracle step h = 1e-4 is too large next to the rank change at t = 0",
    ["rate matches finite differences"])


def _theorem1_task(pairs) -> Task:
    def run():
        return [(witnesses.entropy_change(ch, rho),
                 witnesses.entropy_change_lower_bound(ch, rho),
                 witnesses.entropy_change_upper_bound(ch, rho) if sub_unital else None)
                for ch, rho, sub_unital in pairs]

    def check(results):
        worst_ref, worst_gap = 0.0, np.inf
        for (ch, rho, sub_unital), (ds, lower, upper) in zip(pairs, results):
            a = rho.entries
            out = ref.kraus_apply(ch.kraus, a)
            back = ref.kraus_adjoint_apply(ch.kraus, out)
            ds_ref = ref.entropy(out) - ref.entropy(a)
            errors = [abs(ds - ds_ref),
                      abs(lower - ref.relative_entropy_full_rank(a, back))]
            gaps = [ds - lower]
            if sub_unital:
                errors.append(abs(upper - ref.upper_bound_theorem1(a, back)))
                gaps.append(upper - ds)
            worst_ref = max(worst_ref, *errors)
            worst_gap = min(worst_gap, *gaps)
        ok = worst_ref <= INEQUALITY_SLACK and worst_gap >= -INEQUALITY_SLACK
        return ok, f"max |value - numpy| {worst_ref:.2e}, min bound gap {worst_gap:.3e}"

    return Task("witnesses.theorem1_bounds", run, check)


def _pinsker_task(pairs) -> Task:
    def run():
        return [witnesses.pinsker_gap(op, rho) for op, rho in pairs]

    def check(results):
        worst = 0.0
        for (op, rho), gap in zip(pairs, results):
            a = rho.entries
            back = ref.kraus_adjoint_apply(op.kraus, ref.kraus_apply(op.kraus, a))
            tn = ref.trace_norm(a - back)
            worst = max(worst,
                        abs(gap.relative_entropy - ref.relative_entropy_full_rank(a, back)),
                        abs(gap.half_trace_norm_sq - 0.5 * tn * tn))
        return _within("max |value - numpy|", worst, INEQUALITY_SLACK)

    return Task("witnesses.pinsker_gap", run, check)


def _build_channel_witness(seed: int, outdir: Path) -> Workload:
    fig1 = copy.deepcopy(scenarios.DEFAULT_CONFIGS["fig1_gadc"])
    fig1["parameters"]["t_step"] = 5e-3
    damping = copy.deepcopy(scenarios.DEFAULT_CONFIGS["appendixB_damping"])
    oscillatory = copy.deepcopy(scenarios.DEFAULT_CONFIGS["appendixB_oscillatory"])
    for config in (fig1, damping, oscillatory):
        problems = scenarios.validate_config(config)
        if problems:
            raise ValueError(f"{config['scenario']} config invalid: {problems}")

    rng = np.random.default_rng(seed + 4)
    bound_pairs = []
    for dim in (2, 3):
        for _ in range(4):
            bound_pairs.append((sampling.random_mixed_unitary_channel(rng, dim),
                                sampling.random_full_rank_state(rng, dim), True))
            bound_pairs.append((sampling.random_cptp_channel(rng, dim),
                                sampling.random_full_rank_state(rng, dim), False))
    pinsker_channels = [(sampling.random_mixed_unitary_channel(rng, dim),
                         sampling.random_full_rank_state(rng, dim))
                        for dim in (2, 3) for _ in range(4)]

    def fig1_reference(params, table_dir):
        rows = _read_csv(table_dir / "fig1_gadc.csv")
        t = _column(rows, "t")
        keep = t >= params["compare_from"]
        err = float(np.max(np.abs(_column(rows, "f")[keep] - ref.gadc_f(params["omega"], t[keep]))))
        return _within("max |f - closed form|", err, params["match_tol"])

    def rate_reference(closed_form):
        def check(params, table_dir):
            rows = _read_csv(next(table_dir.glob("appendixB_*.csv")))
            t = _column(rows, "t")
            err = float(np.max(np.abs(_column(rows, "entropy_rate") - closed_form(t))))
            return _within("max |rate - closed form|", err, params["tol"])
        return check

    tasks = [
        *_scenario_tasks("fig1_gadc", fig1, outdir, seed, fig1_reference),
        *_scenario_tasks("appendixB_damping", damping, outdir, seed,
                         rate_reference(ref.damping_rate),
                         run_defect=FD_ORACLE_DEFECT, json_defect=SERIALIZE_DEFECT),
        *_scenario_tasks("appendixB_oscillatory", oscillatory, outdir, seed,
                         rate_reference(ref.oscillating_rate), json_defect=SERIALIZE_DEFECT),
        _theorem1_task(bound_pairs),
        _pinsker_task(pinsker_channels),
    ]
    return Workload("channel_witness", tasks, _digest(fig1, bound_pairs, pinsker_channels))


# ---------------------------------------------------------------------------
# bosonic_bounds
# ---------------------------------------------------------------------------

def _build_bosonic_bounds(seed: int, outdir: Path) -> Workload:
    config = copy.deepcopy(scenarios.DEFAULT_CONFIGS["gaussian_bounds"])
    # The seed sets the initial thermal occupation.  The range is narrow so
    # the amplifier's tail-guard cut, and with it the work, barely moves.
    config["parameters"]["mean_photons"] = float(np.random.default_rng(seed + 5).uniform(0.19, 0.21))
    problems = scenarios.validate_config(config)
    if problems:
        raise ValueError(f"gaussian_bounds config invalid: {problems}")

    def thermal_reference(params, table_dir):
        rows = _read_csv(table_dir / "gaussian_bounds.csv")
        worst = 0.0
        for kind, g in params["dynamics"].items():
            mine = [r for r in rows if r["dynamics"] == kind]
            t = _column(mine, "t")
            exact = ref.thermal_rate(params["mean_photons"], g["gamma_plus"], g["gamma_minus"], t)
            worst = max(worst, float(np.max(np.abs(_column(mine, "entropy_rate") - exact))))
        return _within("max |rate - thermal closed form|", worst, params["rate_tol"])

    tasks = _scenario_tasks("gaussian_bounds", config, outdir, seed, thermal_reference)
    return Workload("bosonic_bounds", tasks, _digest(config))


WORKLOADS = {
    "memory_measures": _build_memory_measures,
    "diamond_norm": _build_diamond_norm,
    "channel_witness": _build_channel_witness,
    "bosonic_bounds": _build_bosonic_bounds,
}


def build(name: str, seed: int, outdir: Path) -> Workload:
    return WORKLOADS[name](seed, Path(outdir))
