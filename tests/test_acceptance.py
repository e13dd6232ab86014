import json

import pytest

from entroflow.cli import main
from entroflow.scenarios import SCENARIOS
from test_golden import assert_matches_golden


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_default_config_passes(scenario, tmp_path):
    """Every builtin scenario with its real default config, whose tables
    match the golden files; decoherence_measures takes seconds."""
    status = main(["run", "--scenario", scenario, "--output-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True, [c for c in report["checks"] if not c["passed"]]
    assert status == 0
    assert_matches_golden(report["outputs"])
