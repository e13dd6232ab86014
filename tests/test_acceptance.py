import json

from entroflow.cli import main


def test_fig2_depolarizing_default_config(tmp_path):
    """Default config: 16 points, at most 32 starts each, tol 1e-3."""
    status = main(["run", "--scenario", "fig2_depolarizing", "--output-dir", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert status == 0
