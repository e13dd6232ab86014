import json

import pytest

from entroflow.cli import main


def test_fig2_depolarizing_default_config(tmp_path):
    """Default config: 16 points, at most 32 starts each, tol 1e-3."""
    status = main(["run", "--scenario", "fig2_depolarizing", "--output-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert status == 0


@pytest.mark.parametrize("scenario", ["fig1_gadc", "appendixB_damping", "appendixB_oscillatory",
                                      "gaussian_bounds", "decoherence_measures", "custom"])
def test_default_config_passes(scenario, tmp_path):
    """Every builtin scenario with its real default config; decoherence_measures takes seconds."""
    status = main(["run", "--scenario", scenario, "--output-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True, [c for c in report["checks"] if not c["passed"]]
    assert status == 0
