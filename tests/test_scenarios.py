import copy
import csv
import json

import numpy as np
import pytest

from entroflow.channels import ChannelError, LindbladGenerator, bosonic_generator, thermal_state
from entroflow.cli import main
from entroflow.scenarios import DEFAULT_CONFIGS, CheckResult, RunReport, validate_config


def test_check_result_coerces_numpy_bool_for_report_json():
    check = CheckResult("bound", np.float64(1.0) < np.float64(2.0), "1", "< 2")
    assert type(check.passed) is bool
    report = RunReport(scenario="s", seed=0, wall_time_s=0.0, checks=[check])
    assert json.loads(json.dumps(report.to_document()))["checks"][0]["passed"] is True


TRACE_TWO_STATE = [[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]
QUTRIT_STATE = [[[p if i == j else 0.0, 0.0] for j in range(3)] for i, p in enumerate([0.34, 0.33, 0.33])]
QUTRIT_MATRIX = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
QUTRIT_JUMP_GENERATOR = {"kind": "lindblad_generator", "dim": 2, "hamiltonian": None,
                         "jumps": [{"rate": {"type": "constant", "value": 0.5}, "operator": QUTRIT_MATRIX}]}
QUTRIT_HAMILTONIAN_GENERATOR = {**QUTRIT_JUMP_GENERATOR, "hamiltonian": QUTRIT_MATRIX,
                                "jumps": DEFAULT_CONFIGS["custom"]["parameters"]["generator"]["jumps"]}


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
])
def test_bad_config_fails_in_validate(scenario, key, value, tmp_path):
    config = copy.deepcopy(DEFAULT_CONFIGS[scenario])
    config["parameters"][key] = value
    assert validate_config(config)
    status = main(["run", "--scenario", scenario, "--param", f"{key}={json.dumps(value)}",
                   "--output-dir", str(tmp_path)])
    assert status == 2


@pytest.mark.parametrize("key, value", [
    ("cutoff", 1), ("cutoff", 5), ("mean_photons", -1),
    ("dynamics", {"amplifier": {"gamma_plus": 1.2, "gamma_minus": -0.2}}),
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
