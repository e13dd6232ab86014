import json

import numpy as np

from entroflow.scenarios import CheckResult, RunReport


def test_check_result_coerces_numpy_bool_for_report_json():
    check = CheckResult("bound", np.float64(1.0) < np.float64(2.0), "1", "< 2")
    assert type(check.passed) is bool
    report = RunReport(scenario="s", seed=0, wall_time_s=0.0, checks=[check])
    assert json.loads(json.dumps(report.to_document()))["checks"][0]["passed"] is True
