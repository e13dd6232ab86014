import importlib.util
from pathlib import Path


def test_benchmark_tracer_wraps_every_name():
    # perfbench/spans.py lists a traced name the package no longer has in
    # ``missing`` and carries on, so a rename or deletion would only make its
    # per-layer metrics read 0.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
