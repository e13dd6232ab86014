import copy
import csv
import json
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from entroflow.channels import (ChannelError, LindbladGenerator, _Restriction, bosonic_generator,
                                thermal_state)
from entroflow.cli import main
from entroflow.dynamics import propagate
from entroflow.linalg import EigenSystem
from entroflow import scenarios
from entroflow.serialize import generator_from_document, generator_to_document, matrix_to_document
from entroflow.scenarios import (
    SCENARIOS,
    DEFAULT_CONFIGS,
    CheckResult,
    RunReport,
    _gadc_closed_form,
    _gadc_closed_roots,
    _oscillatory_grid,
    _rate_minimum,
    _sign_changes,
    _step_grid,
    run_config,
    validate_config,
)

from conftest import fresh_interpreter


def test_check_result_coerces_numpy_bool_for_report_json():
    check = CheckResult("bound", np.float64(1.0) < np.float64(2.0), "1", "< 2")
    assert type(check.passed) is bool
    report = RunReport(scenario="s", seed=0, wall_time_s=0.0, checks=[check])
    assert json.loads(json.dumps(report.to_document()))["checks"][0]["passed"] is True


def test_vectorized_grid_helpers_match_their_loops(rng):
    values = rng.normal(size=200)
    values[::7] = 0.0
    loop = [k for k in range(len(values) - 1) if values[k] != 0.0 and values[k] * values[k + 1] < 0.0]
    assert _sign_changes(values).tolist() == loop
    for margin, n_points in [(1e-3, 160), (0.05, 301), (0.2, 41)]:
        grid = np.linspace(margin, 3.0 - margin, n_points)
        keep = [np.min(np.abs(np.arange(0.0, 3.5, 0.5) - t)) >= margin for t in grid]
        params = {"t_max": 3.0, "n_points": n_points, "margin": margin}
        assert np.array_equal(_oscillatory_grid(params), grid[keep])


@pytest.mark.parametrize("omega, crossings", [(5.0, 19), (2.0, 7), (11.0, 41)])  # 5.0: the default
def test_closed_form_roots_match_brentq(omega, crossings):
    grid = _step_grid(DEFAULT_CONFIGS["fig1_gadc"]["parameters"])
    f_closed = _gadc_closed_form(omega, grid)[3]
    roots = _gadc_closed_roots(omega, grid, f_closed)
    expected = [brentq(lambda t: _gadc_closed_form(omega, np.array([t]))[3][0],
                       grid[k], grid[k + 1], xtol=1e-12) for k in _sign_changes(f_closed)]
    assert len(roots) == len(expected) == crossings
    np.testing.assert_allclose(roots, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("omega", [2.0, 5.0, 11.0])
def test_closed_form_roots_take_few_rounds_inside_their_brackets(monkeypatch, omega):
    # One closed-form evaluation per vectorized round of refine_brackets;
    # plain bisection needs 30 rounds on the default grid.
    grid = _step_grid(DEFAULT_CONFIGS["fig1_gadc"]["parameters"])
    f_closed = _gadc_closed_form(omega, grid)[3]
    rounds = []

    def counting(omega, t):
        rounds.append(len(t))
        return _gadc_closed_form(omega, t)

    monkeypatch.setattr("entroflow.scenarios._gadc_closed_form", counting)
    roots = _gadc_closed_roots(omega, grid, f_closed)
    ks = _sign_changes(f_closed)
    assert 0 < len(rounds) <= 5
    assert np.all((grid[ks] < roots) & (roots < grid[ks + 1]))


def test_closed_form_roots_without_a_sign_change(monkeypatch):
    def never_called(omega, t):
        raise AssertionError("the closed form was evaluated off the grid")

    monkeypatch.setattr("entroflow.scenarios._gadc_closed_form", never_called)
    grid = np.linspace(0.0, 1.0, 11)
    roots = _gadc_closed_roots(5.0, grid, np.ones_like(grid))
    assert roots.shape == (0,)


def test_imports_and_closed_form_runs_leave_scipy_out(tmp_path):
    # A fresh interpreter.  scipy.optimize, scipy.sparse and scipy.linalg
    # cost most of a start-up: the package imports none of them, and the
    # closed-form scenarios never load scipy.sparse or scipy.linalg.
    code = ("import sys\n"
            "def loaded(): return sorted(m for m in sys.modules\n"
            "                            if m.startswith(('scipy.optimize', 'scipy.sparse', 'scipy.linalg')))\n"
            "import entroflow, entroflow.cli, entroflow.scenarios\n"
            "print(loaded())\n"
            "from entroflow.scenarios import DEFAULT_CONFIGS, run_config\n"
            "for name in sys.argv[2:]:\n"
            "    assert all(c.passed for c in run_config(DEFAULT_CONFIGS[name], sys.argv[1]).checks)\n"
            "print(loaded())\n")
    out = fresh_interpreter(code, str(tmp_path), "fig1_gadc", "fig2_depolarizing",
                            "appendixB_damping", "appendixB_oscillatory")
    assert out.splitlines() == ["[]", "[]"]


def test_generator_runs_leave_scipy_sparse_out(tmp_path):
    # A fresh interpreter.  A generator compiles in numpy, and a default run
    # propagates every stack on a dense restriction, and dynamics.expm builds
    # every map in numpy (elementwise for a diagonal exponent, by its Padé
    # kernel otherwise), so decoherence_measures, custom and gaussian_bounds
    # load neither scipy.sparse nor scipy.linalg.  Only a whole-space
    # product loads scipy.sparse: the coherent Fock start at cutoff 12
    # touches 34 > 16 coordinates, so propagate takes the sparse apply,
    # which must match the dense superoperator.
    code = ("import sys\n"
            "import numpy as np\n"
            "def loaded(): return sorted({m.split('.')[1] for m in sys.modules\n"
            "                             if m.startswith(('scipy.sparse', 'scipy.linalg'))})\n"
            "from entroflow.channels import bosonic_generator\n"
            "from entroflow.dynamics import propagate\n"
            "from entroflow.linalg import DensityMatrix\n"
            "from entroflow.scenarios import DEFAULT_CONFIGS, run_config\n"
            "for name in sys.argv[2:]:\n"
            "    assert run_config(DEFAULT_CONFIGS[name], sys.argv[1]).passed\n"
            "    print(name, loaded())\n"
            "generator = bosonic_generator(0.0, 1.0, 12)\n"
            "plus = np.zeros(12)\n"
            "plus[:2] = 2 ** -0.5\n"
            "traj = propagate(generator, DensityMatrix.pure(plus), np.linspace(0.0, 1.0, 11))\n"
            "print('propagate', loaded())\n"
            "x = traj.entries[1:]\n"
            "dense = generator.superoperator(0.3)\n"
            "for adjoint, m in ((False, dense), (True, dense.conj().T)):\n"
            "    act = generator.adjoint_apply if adjoint else generator.apply\n"
            "    expected = (x.reshape(len(x), -1) @ m.T).reshape(x.shape)\n"
            "    assert np.abs(act(0.3, x) - expected).max() <= 1e-14 * np.abs(expected).max()\n")
    out = fresh_interpreter(code, str(tmp_path), "decoherence_measures", "custom", "gaussian_bounds")
    assert out.splitlines() == ["decoherence_measures []", "custom []", "gaussian_bounds []",
                                "propagate ['sparse']"]


TRACE_TWO_STATE = [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]
QUTRIT_STATE = [[[p if i == j else 0.0, 0.0] for j in range(3)] for i, p in enumerate([0.34, 0.33, 0.33])]
QUTRIT_MATRIX = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
QUTRIT_JUMP_GENERATOR = {"kind": "lindblad_generator", "dim": 2, "hamiltonian": None,
                         "jumps": [{"rate": {"type": "constant", "value": 0.5}, "operator": QUTRIT_MATRIX}]}
QUTRIT_HAMILTONIAN_GENERATOR = {**QUTRIT_JUMP_GENERATOR, "hamiltonian": QUTRIT_MATRIX,
                                "jumps": DEFAULT_CONFIGS["custom"]["parameters"]["generator"]["jumps"]}
RATELESS_GENERATOR = {**QUTRIT_JUMP_GENERATOR, "jumps": [
    {"rate": {"type": "constant"}, "operator": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
NAN_STATE = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
NAN_RATE_GENERATOR = {**QUTRIT_JUMP_GENERATOR, "jumps": [
    {"rate": {"type": "constant", "value": float("nan")}, "operator": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
NAN_HAMILTONIAN_GENERATOR = {**QUTRIT_HAMILTONIAN_GENERATOR,
                             "hamiltonian": [[[0.0, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
HUGE = 10**400  # a JSON integer too large for a float
HUGE_STATE = [[[HUGE, 0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
HUGE_RATE_GENERATOR = {**QUTRIT_JUMP_GENERATOR, "jumps": [
    {"rate": {"type": "constant", "value": HUGE}, "operator": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
DEFAULT_GENERATOR = DEFAULT_CONFIGS["custom"]["parameters"]["generator"]
HUGE_DIM_GENERATOR = {**DEFAULT_GENERATOR, "dim": 100000}  # a 149 GiB dense Hamiltonian, if built
TEXT_LEVELS_GENERATOR = {**DEFAULT_GENERATOR, "tail_guard": {"levels": "x", "bound": 1e-8}}
TEXT_BOUND_GENERATOR = {**DEFAULT_GENERATOR, "tail_guard": {"levels": 1, "bound": "a"}}
NO_LEVELS_GENERATOR = {**DEFAULT_GENERATOR, "tail_guard": {"levels": 0, "bound": 1e-8}}
OVERFLOWING_JUMP_GENERATOR = {**DEFAULT_GENERATOR, "jumps": [  # 1e308 * 2 * 2 overflows
    {"rate": {"type": "constant", "value": 1e308}, "operator": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}]}


@pytest.mark.parametrize("scenario, key, value", [
    ("gaussian_bounds", "cutoff", 5),                     # thermal tail mass 1.3e-4
    ("appendixB_oscillatory", "margin", 0.3),             # no grid point left
    ("custom", "initial_state", TRACE_TWO_STATE),         # not a density matrix
    ("custom", "initial_state", QUTRIT_STATE),            # 3x3 state, 2-level generator
    ("custom", "generator", QUTRIT_JUMP_GENERATOR),       # 3x3 jump operator, dim 2
    ("custom", "generator", QUTRIT_HAMILTONIAN_GENERATOR),  # 3x3 Hamiltonian, dim 2
    ("fig2_depolarizing", "starts", 0),                   # no optimizer start
    ("fig1_gadc", "t_step", 10),                          # one grid point
    ("decoherence_measures", "t_step", 10),               # one grid point
    ("decoherence_measures", "n_pairs", 0),               # no pair for the trace-distance baseline
    ("decoherence_measures", "bloch_points", -1),         # negative sample count
    ("decoherence_measures", "n_random", 2.5),            # non-integer sample count
    ("gaussian_bounds", "cutoff", 1),                     # no room for a ladder operator
    ("gaussian_bounds", "mean_photons", -1),              # negative occupation
    ("fig1_gadc", "t_max", "abc"),                        # not a number
    ("fig1_gadc", "omega", "abc"),                        # not a number
    ("fig1_gadc", "t_stpe", 0.01),                        # misspelt parameter name
    ("fig1_gadc", "compare_from", 5.0),                   # nothing left to compare
    ("fig2_depolarizing", "q_values", 0.3),               # not a list
    ("fig2_depolarizing", "q_values", [0.3, "x"]),        # non-number entry
    ("fig2_depolarizing", "extra_points", [[1, 0.5]]),    # d = 1
    ("fig2_depolarizing", "extra_points", [[3]]),         # not a [d, q] pair
    ("appendixB_damping", "t_max", -1),                   # window ends before it starts
    ("decoherence_measures", "frequency", 0),             # divides the rate integral
    ("gaussian_bounds", "dynamics", {"a": {"gamma_plus": 1}}),  # no gamma_minus
    ("gaussian_bounds", "dynamics", {}),                  # nothing to check
    ("gaussian_bounds", "cutoff", 40.0),                  # not an integer
    ("custom", "t_max", -2),                              # negative window
    ("custom", "generator", {"kind": "lindblad_generator", "dim": 2}),  # no hamiltonian, jumps
    ("custom", "initial_state", [[1, 0], [0, 0]]),        # entries are not [re, im] pairs
    ("custom", "generator", RATELESS_GENERATOR),          # constant rate without a value
    ("custom", "initial_state", NAN_STATE),               # NaN entry
    ("custom", "generator", NAN_RATE_GENERATOR),          # NaN rate
    ("custom", "generator", NAN_HAMILTONIAN_GENERATOR),   # NaN Hamiltonian entry
    ("decoherence_measures", "base", 0),                  # Gamma(t) < 0 for t > pi/2
    ("decoherence_measures", "base", -0.5),               # Gamma(t) < 0 for t > 0.95
    ("decoherence_measures", "amplitude", 7),             # Gamma(t) < 0 near t = 2.3
    ("fig1_gadc", "t_step", 1e-6),                        # 3,000,001 grid points
    ("gaussian_bounds", "n_points", 3000000),             # 3,000,000 grid points
    ("fig1_gadc", "t_step", 1e-9),                        # 3e9 points, 24 GB as a grid
    pytest.param("fig1_gadc", "t_max", HUGE, id="fig1_gadc-t_max-huge"),  # beyond the float range
    ("custom", "initial_state", HUGE_STATE),              # entry beyond the float range
    ("custom", "generator", HUGE_RATE_GENERATOR),         # rate beyond the float range
    pytest.param("gaussian_bounds", "cutoff", HUGE, id="gaussian_bounds-cutoff-huge"),  # overflows the tail power
    ("gaussian_bounds", "cutoff", 100_000_000),           # a 10^8-level mode
    ("gaussian_bounds", "cutoff", 401),                   # one level past the cap
    pytest.param("decoherence_measures", "n_random", HUGE, id="decoherence_measures-n_random-huge"),
    ("decoherence_measures", "bloch_points", 10_001),     # one sample past the cap
    ("decoherence_measures", "n_pairs", 10_001),          # one pair past the cap
    ("fig2_depolarizing", "starts", 10_001),              # one start past the cap
    ("fig2_depolarizing", "d", 17),                       # one dimension past the cap
    ("fig2_depolarizing", "extra_points", [[17, 0.5]]),   # the same d as an extra point
    ("fig2_depolarizing", "extra_points", [[HUGE, 0.5]]),  # d beyond the float range
    ("custom", "generator", HUGE_DIM_GENERATOR),          # dim 100000 for a 2x2 state
    ("custom", "generator", TEXT_LEVELS_GENERATOR),       # tail-guard levels not an integer
    ("custom", "generator", TEXT_BOUND_GENERATOR),        # tail-guard bound not a number
    ("custom", "generator", NO_LEVELS_GENERATOR),         # a tail guard over no level
    ("custom", "generator", OVERFLOWING_JUMP_GENERATOR),  # rate times operator overflows
    ("gaussian_bounds", "dynamics", {"amplifier": {"gamma_plus": 1e308, "gamma_minus": 0}}),
    ("appendixB_damping", "fd_h", 5e-324),                # fd_h/2 rounds to 0: a 0/0 rate
    ("appendixB_oscillatory", "fd_h", 5e-324),
    ("appendixB_damping", "fd_h", 1e-300),                # t_max + fd_h/2 rounds to t_max
    ("appendixB_oscillatory", "fd_h", 1e-300),
    ("decoherence_measures", "n_random", 2000),           # 751 x 2049 rows, about 0.8 GiB
    ("decoherence_measures", "t_step", 1e-4),             # 30,001 x 65 rows
    ("appendixB_damping", "fd_h", 1e-15),                 # rounding, about 10 eps/fd_h, above tol
    ("appendixB_oscillatory", "fd_h", 1e-15),
    ("appendixB_damping", "fd_h", 1e-12),
    ("appendixB_oscillatory", "fd_h", 1e-12),
    ("appendixB_damping", "fd_h", 1e-10),
    ("appendixB_oscillatory", "fd_h", 1e-10),
])
def test_bad_config_fails_in_validate(scenario, key, value, tmp_path):
    config = copy.deepcopy(DEFAULT_CONFIGS[scenario])
    config["parameters"][key] = value
    assert validate_config(config)
    status = main(["run", "--scenario", scenario, "--param", f"{key}={json.dumps(value)}",
                   "--output-dir", str(tmp_path)])
    assert status == 2


def test_huge_gadc_frequency_fails_a_check_without_a_warning(tmp_path, capsys):
    # At omega = 1e300 the pipeline's f reaches -1e300, where the product of
    # neighbouring values overflows.  The crossings are read from the signs,
    # so the run fails the closed-form comparison with no RuntimeWarning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", "--scenario", "fig1_gadc", "--param", "omega=1e300",
                       "--output-dir", str(tmp_path)])
    printed = capsys.readouterr()
    assert status == 1
    assert "FAIL f matches closed form" in printed.out + printed.err
    assert "Traceback" not in printed.out + printed.err
    assert [str(w.message) for w in caught] == []


def test_sign_changes_read_signs():
    # Products of these neighbours overflow (k = 0) or underflow to -0 (k = 6);
    # NaN and zero change no sign.
    values = np.array([1e300, -1e300, np.nan, 1.0, 0.0, -1.0, -1e-200, 1e-200])
    np.testing.assert_array_equal(_sign_changes(values), [0, 6])


def test_decoherence_sampler_of_the_mixed_state_alone_fails_in_validate(tmp_path, capsys):
    # With no random state and no Bloch point the sampler holds only the
    # maximally mixed state, a fixed point of unital dephasing, and the run
    # would fail "oscillating profile detected".  Either count alone is fine.
    config = copy.deepcopy(DEFAULT_CONFIGS["decoherence_measures"])
    for params, problems in (({"n_random": 0}, 0), ({"bloch_points": 0}, 0),
                             ({"n_random": 0, "bloch_points": 0}, 1)):
        config["parameters"].update(DEFAULT_CONFIGS["decoherence_measures"]["parameters"], **params)
        assert len(validate_config(config)) == problems
    [problem] = validate_config(config)
    assert problem.startswith("n_random and bloch_points are both 0")
    status = main(["run", "--scenario", "decoherence_measures", "--param", "n_random=0",
                   "--param", "bloch_points=0", "--output-dir", str(tmp_path)])
    out = capsys.readouterr()
    assert status == 2 and "Traceback" not in out.out + out.err
    assert problem in out.out + out.err


@pytest.mark.parametrize("base, amplitude, frequency, t_max", [
    (0.5, 1.0, 2.0, 3.0), (0.5, 0.0, 2.0, 3.0), (0.5, -0.4, 2.0, 3.0), (0.5, 1.0, 2.0, 1.0),
    (1.0, 0.8, 0.5, 9.0), (0.2, 0.3, 7.0, 0.3)])
def test_rate_minimum_matches_a_dense_sample(base, amplitude, frequency, t_max):
    params = {"base": base, "amplitude": amplitude, "frequency": frequency, "t_max": t_max}
    gamma_min, t_min = _rate_minimum(params)
    times = np.linspace(0.0, t_max, 200_001)
    gamma = base + amplitude * np.cos(frequency * times)
    assert gamma.min() - 1e-9 <= gamma_min <= gamma.min()
    assert 0.0 <= t_min <= t_max and gamma_min == base + amplitude * np.cos(frequency * t_min)


# A small sampler keeps the non-default runs short.
SMALL_SAMPLER = ["--param", "n_random=2", "--param", "bloch_points=1", "--param", "n_pairs=4"]


@pytest.mark.parametrize("amplitude, extra, status, line", [
    # gamma = 0.5 > 0: CP-divisible, so every measure and BLP must be silent
    ("0", [], 0, "PASS oscillating profile is silent: measures = (0.00e+00, 0.00e+00), "
                 "blp = 0.00e+00; min gamma = 0.5 at t = 0"),
    # gamma touches 0 at t = pi/2 and never goes below it
    ("0.5", SMALL_SAMPLER, 0, "PASS oscillating profile is silent"),
    # gamma dips to -1e-7 on a window narrower than the 4e-3 grid step: the
    # expectation has no margin, so detection is expected and the miss fails
    ("0.5000001", SMALL_SAMPLER, 1, "no grid point has gamma < 0"),
])
def test_decoherence_expectation_follows_the_closed_form_rate(amplitude, extra, status, line,
                                                              tmp_path, capsys):
    assert main(["run", "--scenario", "decoherence_measures", "--param", f"amplitude={amplitude}",
                 *extra, "--output-dir", str(tmp_path)]) == status
    out = capsys.readouterr()
    assert line in out.out and "Traceback" not in out.out + out.err
    assert ("FAIL" in out.out) == bool(status)


@pytest.mark.parametrize("key, profile", [("markovian_rate", "markovian"), ("base", "oscillating")])
def test_decoherence_integration_error_fails_a_check(key, profile, tmp_path):
    # At a rate of 1e9 the rounding of the propagated states breaks the
    # Tr(Pi rho_dot) invariant of a measure's trajectory.  validate accepts
    # the config, and the run reports a failed check naming the profile and
    # the error instead of raising.
    config = copy.deepcopy(DEFAULT_CONFIGS["decoherence_measures"])
    config["parameters"][key] = 1e9
    assert validate_config(config) == []
    [check] = run_config(config, tmp_path).checks
    assert (check.name, check.passed) == (f"{profile} profile measured", False)
    assert check.measured.startswith("IntegrationError: Tr(Pi rho_dot) = ")


@pytest.mark.parametrize("params", [{"frequency": 5e-324}, {"amplitude": 1e300, "frequency": 1e-10}])
def test_decoherence_overflowing_rate_integral_fails_in_validate(params, tmp_path, capsys):
    # amplitude/frequency overflows, so the closed form of Gamma reads
    # inf * sin(0) = NaN at t = 0: validate reports it with no RuntimeWarning
    # (an error under pytest), and the run exits 2 with no traceback.
    config = copy.deepcopy(DEFAULT_CONFIGS["decoherence_measures"])
    config["parameters"].update(params)
    [problem] = validate_config(config)
    assert problem.endswith("is nan at t = 0: not finite in floating point")
    overrides = [arg for key, value in params.items() for arg in ("--param", f"{key}={value!r}")]
    assert main(["run", "--scenario", "decoherence_measures", *overrides,
                 "--output-dir", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert problem in out.out + out.err and "Traceback" not in out.out + out.err


def test_every_integer_parameter_is_bounded():
    for scenario, meta in SCENARIOS.items():
        for name, param in meta["parameters"].items():
            if type(param.default) is int:
                assert param.high is not None, (scenario, name)
                config = copy.deepcopy(DEFAULT_CONFIGS[scenario])
                config["parameters"][name] = param.high + 1
                assert validate_config(config) == [
                    f"{name}: expected {param.spec}, got {param.high + 1}"], (scenario, name)


@pytest.mark.parametrize("key, value, named", [
    ("generator", {"kind": "lindblad_generator", "dim": 2}, "no 'hamiltonian'"),
    ("initial_state", [[1, 0], [0, 0]], "entry [0][0]"),
    ("generator", RATELESS_GENERATOR, "no 'value'"),
    ("initial_state", NAN_STATE, "entry [0][0] is not finite"),
    ("generator", NAN_RATE_GENERATOR, "'value' must be a finite number"),
    ("generator", NAN_HAMILTONIAN_GENERATOR, "entry [0][1] is not finite"),
    ("generator", HUGE_DIM_GENERATOR, "initial_state is 2x2 but the generator acts on dimension 100000"),
    ("generator", TEXT_LEVELS_GENERATOR, "integer 'levels' in [1, 2]"),
    ("generator", TEXT_BOUND_GENERATOR, "'bound' must be a finite number"),
    ("generator", NO_LEVELS_GENERATOR, "integer 'levels' in [1, 2]"),
    ("generator", OVERFLOWING_JUMP_GENERATOR, "jump 0 gives a non-finite generator entry"),
])
def test_custom_validate_names_the_malformed_part(key, value, named):
    config = copy.deepcopy(DEFAULT_CONFIGS["custom"])
    config["parameters"][key] = value
    [problem] = validate_config(config)
    assert named in problem


def test_custom_dim_is_checked_before_the_generator_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(LindbladGenerator, "__init__", lambda *args, **kw: built.append(args))
    config = copy.deepcopy(DEFAULT_CONFIGS["custom"])
    config["parameters"]["generator"] = HUGE_DIM_GENERATOR
    assert validate_config(config) and built == []


def test_custom_run_builds_its_generator_once(tmp_path, monkeypatch):
    # validate and run share one build of the generator and initial state.
    built = []
    monkeypatch.setattr(scenarios, "generator_from_document",
                        lambda doc: built.append(doc) or generator_from_document(doc))
    assert run_config(copy.deepcopy(DEFAULT_CONFIGS["custom"]), tmp_path).passed
    assert len(built) == 1


def test_custom_bool_dim_is_not_an_integer():
    # isinstance(True, int) holds: without the bool test, true would read as dim 1.
    config = copy.deepcopy(DEFAULT_CONFIGS["custom"])
    config["parameters"]["generator"] = {**DEFAULT_GENERATOR, "dim": True, "jumps": []}
    config["parameters"]["initial_state"] = [[[1.0, 0.0]]]
    [problem] = validate_config(config)
    assert "'dim' must be a positive integer" in problem


@pytest.mark.parametrize("key, value", [
    ("cutoff", 1), ("cutoff", 5), ("mean_photons", -1),
    ("dynamics", {"amplifier": {"gamma_plus": 1.2, "gamma_minus": -0.2}}),
    ("dynamics", {"amplifier": {"gamma_plus": 1e308, "gamma_minus": 0}}),
])
def test_gaussian_bounds_validate_reports_what_the_run_raises(key, value, monkeypatch):
    params = copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"]["parameters"])
    params[key] = value
    with pytest.raises(ChannelError) as raised:
        for gammas in params["dynamics"].values():
            bosonic_generator(gammas["gamma_plus"], gammas["gamma_minus"], params["cutoff"])
        thermal_state(params["mean_photons"], params["cutoff"])
    built = []
    monkeypatch.setattr(LindbladGenerator, "__init__", lambda *args, **kw: built.append(args))
    config = {**DEFAULT_CONFIGS["gaussian_bounds"], "parameters": params}
    assert validate_config(config) == [str(raised.value)]
    assert built == []


def test_coarse_gaussian_grid_fails_a_check_and_keeps_the_other_rows(tmp_path):
    # At 6 points the amplifier breaches the tail guard in its first interval.
    config = copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"])
    config["parameters"]["n_points"] = 6
    report = run_config(config, tmp_path)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["amplifier: tail guard leaves a usable grid"]
    assert "tail guard tripped" in failed[0].measured
    with open(tmp_path / "gaussian_bounds.csv") as fh:
        kinds = [row["dynamics"] for row in csv.DictReader(fh)]
    assert kinds == ["lossy"] * 6 + ["additive"] * 6


def test_huge_gaussian_rate_fails_a_check_without_a_warning(tmp_path, capsys):
    # At gamma_+ = 1e300 the interval maps overflow: the first state past
    # t = 0 is not finite.  The run fails that check, with no traceback, and
    # the chained rows are never divided by their NaN traces, so no
    # RuntimeWarning is emitted (pytest turns one into an error).
    path = tmp_path / "config.json"
    config = copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"])
    config["parameters"]["dynamics"] = {"amplifier": {"gamma_plus": 1e300, "gamma_minus": 0}}
    path.write_text(json.dumps(config))
    status = main(["run", "--config", str(path), "--output-dir", str(tmp_path)])
    printed = capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert status == 1
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("amplifier: trajectory produced", False)]
    assert report["checks"][0]["measured"] == "state at t=0.05 is not finite"
    assert "FAIL amplifier:" in printed.out + printed.err
    assert "Traceback" not in printed.out + printed.err
    # No kind produced rows, so the table holds its header alone.
    assert (tmp_path / "gaussian_bounds.csv").read_text() == \
        "dynamics,t,entropy_rate,theorem2_bound\n"


def test_vacuum_gaussian_start_skips_its_pure_row(tmp_path):
    # The vacuum is pure: at t = 0 the rate on the support reads 0 while the
    # entering eigenvalue's left-out part is far above rate_tol.  The checks
    # skip that row alone and name it; the table keeps every row, t = 0
    # included.
    config = copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"])
    config["parameters"]["mean_photons"] = 0
    report = run_config(config, tmp_path)
    assert report.passed
    assert len(report.checks) == 6
    for check in report.checks:
        assert check.measured.endswith(
            " (rows whose left-out entropy rate exceeds rate_tol excluded: t = 0)")
    with open(tmp_path / "gaussian_bounds.csv") as fh:
        starts = [row for row in csv.DictReader(fh) if float(row["t"]) == 0.0]
    assert [row["dynamics"] for row in starts] == ["amplifier", "lossy", "additive"]
    assert all(float(row["entropy_rate"]) == 0.0 for row in starts)


def test_default_gaussian_checks_read_every_row(tmp_path):
    # The thermal start is full rank: no row is excluded from any check,
    # although its rank keeps changing as the top levels fill.
    report = run_config(copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"]), tmp_path)
    assert report.passed and len(report.checks) == 6
    assert not [check.measured for check in report.checks if "excluded" in check.measured]


def test_default_gaussian_bounds_take_no_whole_space_adjoint(tmp_path, monkeypatch):
    # The Theorem 2 column comes from the restriction of each generator to
    # the populations of its Fock-diagonal trajectory: no sparse L_t^dag
    # product, and the whole space's values within rounding.
    calls = []
    adjoint_apply = LindbladGenerator.adjoint_apply
    monkeypatch.setattr(LindbladGenerator, "adjoint_apply",
                        lambda self, t, x: calls.append(t) or adjoint_apply(self, t, x))
    config = copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"])
    assert run_config(config, tmp_path).passed
    assert calls == []
    with open(tmp_path / "gaussian_bounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    params = config["parameters"]
    grid = np.linspace(0.0, params["t_max"], params["n_points"])
    for kind, gammas in params["dynamics"].items():
        generator = bosonic_generator(gammas["gamma_plus"], gammas["gamma_minus"], params["cutoff"])
        traj = propagate(generator, thermal_state(params["mean_photons"], params["cutoff"]), grid,
                         on_tail_breach="truncate")
        whole = -traj.spectrum.support_traces(generator.adjoint_apply(traj.grid, traj.entries))
        column = [float(row["theorem2_bound"]) for row in rows if row["dynamics"] == kind]
        assert len(column) == len(traj)
        np.testing.assert_allclose(column, whole, rtol=0, atol=1e-14)


def test_default_gaussian_bounds_scatter_no_state_stack(tmp_path, monkeypatch):
    # The thermal starts stay Fock-diagonal, so every spectrum, check, rate
    # and Theorem 2 trace is read from the population rows: no restriction
    # scatters rows into a (T, d, d) stack, and no spectrum builds its
    # permutation eigenvectors.
    scattered, vectors = [], []
    states, eigenvectors = _Restriction.states, EigenSystem.eigenvectors
    monkeypatch.setattr(_Restriction, "states",
                        lambda self, y: scattered.append(y.shape) or states(self, y))
    monkeypatch.setattr(EigenSystem, "eigenvectors",
                        property(lambda self: vectors.append(1) or eigenvectors.fget(self)))
    assert run_config(copy.deepcopy(DEFAULT_CONFIGS["gaussian_bounds"]), tmp_path).passed
    assert scattered == [] and vectors == []


def test_default_custom_scatters_its_states_once(tmp_path, monkeypatch):
    # The qubit's rows (m = 4) are scattered once to be validated, and the
    # trajectory keeps that stack as its states for the export; the
    # derivatives' expectations and the two witness images take one scatter
    # each.
    scattered = []
    states = _Restriction.states
    monkeypatch.setattr(_Restriction, "states",
                        lambda self, y: scattered.append(y.shape) or states(self, y))
    assert run_config(copy.deepcopy(DEFAULT_CONFIGS["custom"]), tmp_path).passed
    assert scattered == [(101, 1, 4)] + [(101, 4)] * 3


def _table(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


def test_fig1_gadc_f_is_the_closed_form(tmp_path):
    config = DEFAULT_CONFIGS["fig1_gadc"]
    assert run_config(config, tmp_path).passed
    table = _table(tmp_path / "fig1_gadc.csv")
    f_closed = _gadc_closed_form(config["parameters"]["omega"], table["t"])[3]
    assert np.max(np.abs(table["f"] - f_closed)) <= 1e-12


def _damping_rate(t):
    e = np.exp(-t)
    return e * np.log(e / (1.0 - e))


def _oscillating_rate(t):
    return np.pi * np.sin(2.0 * np.pi * t) * np.log(np.cos(np.pi * t) ** 2 / np.sin(np.pi * t) ** 2)


@pytest.mark.parametrize("scenario, rate", [("appendixB_damping", _damping_rate),
                                            ("appendixB_oscillatory", _oscillating_rate)])
def test_appendix_rates_are_the_closed_form(scenario, rate, tmp_path):
    assert run_config(DEFAULT_CONFIGS[scenario], tmp_path).passed
    table = _table(tmp_path / f"{scenario}.csv")
    assert np.max(np.abs(table["entropy_rate"] - rate(table["t"]))) <= 1e-12


def test_default_custom_run_flags_nothing_at_the_rank_jump(tmp_path):
    # |+> under constant damping changes rank at t = 0+; the rows at that jump
    # carry a one-sided rate and must neither flag memory nor set the worst gap.
    assert main(["run", "--scenario", "custom", "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "custom_witnesses.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["flags"] for r in rows] == [""] * len(rows)
    report = json.loads((tmp_path / "report.json").read_text())
    gap = next(c for c in report["checks"] if c["name"] == "worst rate-bound gap reported")
    assert float(gap["measured"]) >= 0.0


def _run_custom(tmp_path, capsys, **parameters):
    """Run ``custom`` from the CLI with overridden parameters; return the exit
    status, the report's failed checks and everything printed."""
    config = copy.deepcopy(DEFAULT_CONFIGS["custom"])
    config["parameters"].update(parameters)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    status = main(["run", "--config", str(path), "--output-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    printed = capsys.readouterr()
    return status, [c for c in report["checks"] if not c["passed"]], printed.out + printed.err


def test_custom_tail_guarded_amplifier_fails_a_check(tmp_path, capsys):
    # The amplifier outgrows its Fock cutoff at t = 0.25: the run writes the
    # trusted span and fails the check that names it, instead of raising.
    status, failed, printed = _run_custom(
        tmp_path, capsys, generator=generator_to_document(bosonic_generator(1.2, 0.2, 20)),
        initial_state=matrix_to_document(thermal_state(0.2, 20).entries), t_max=3.0, n_points=61)
    assert status == 1
    assert [c["name"] for c in failed] == ["trajectory produced"]
    assert "on [0, 0.2] (tail-guard truncation at t=0.25)" in failed[0]["measured"]
    assert len(_table(tmp_path / "custom_trajectory.csv")["t"]) == 5
    assert "Traceback" not in printed


def test_custom_lost_positivity_fails_a_check(tmp_path, capsys):
    generator = copy.deepcopy(DEFAULT_CONFIGS["custom"]["parameters"]["generator"])
    generator["jumps"][0]["rate"]["value"] = -0.5
    status, failed, printed = _run_custom(tmp_path, capsys, generator=generator)
    assert status == 1
    assert [c["name"] for c in failed] == ["trajectory produced"]
    assert "state at t=0.02 lost positivity" in failed[0]["measured"]
    assert "Traceback" not in printed


@pytest.mark.parametrize("text, params", [
    (None, None),                          # no such file
    ("{", None),                           # malformed JSON
    ("[]", None),                          # not a JSON object
    (json.dumps({"scenario": "fig1_gadc", "seed": 7, "parameters": []}), ["t_max=1"]),
])
def test_bad_config_file_exits_2(text, params, tmp_path):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    overrides = [arg for p in params or [] for arg in ("--param", p)]
    assert main(["validate", "--config", str(path), *overrides]) == 2
    assert main(["run", "--config", str(path), *overrides, "--output-dir", str(tmp_path)]) == 2


def _json_type_matches(value, default) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value) is type(default)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_validate_never_raises(scenario):
    for key, param in SCENARIOS[scenario]["parameters"].items():
        for value in ["x", None, True, [], {}, -1, 0]:
            config = copy.deepcopy(DEFAULT_CONFIGS[scenario])
            config["parameters"][key] = value
            problems = validate_config(config)
            assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
            if not _json_type_matches(value, param.default):
                assert problems, (key, value)
