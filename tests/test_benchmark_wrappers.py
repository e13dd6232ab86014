import importlib.util
from pathlib import Path

from conftest import fresh_interpreter


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


def test_generator_workloads_leave_scipy_sparse_out(tmp_path):
    # The memory_measures set-up builds Lindblad generators, and its tasks
    # and bosonic_bounds' propagate every stack on a dense restriction: a
    # fresh interpreter must not load scipy.sparse for the build or for one
    # pass of their tasks, each of which must pass its check.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import workloads\n"
            "def loaded(): return 'scipy.sparse' in sys.modules\n"
            "for name in ('memory_measures', 'bosonic_bounds'):\n"
            "    outdir = Path(sys.argv[2]) / name\n"
            "    outdir.mkdir()\n"
            "    workload = workloads.build(name, 1, outdir)\n"
            "    print(name, loaded())\n"
            "    for task in workload.tasks:\n"
            "        assert task.check(task.run())[0], task.name\n"
            "    print(name, loaded())\n")
    out = fresh_interpreter(code, str(root / "perfbench"), str(tmp_path))
    assert out.splitlines() == ["memory_measures False"] * 2 + ["bosonic_bounds False"] * 2


def test_every_workload_task_passes_its_check(tmp_path):
    # The benchmark reads the package through its workloads' tasks (report
    # fields such as DivisibilityReport.intervals, PinskerGap and the
    # oslash_norm bracket): each of the four, built with seed 1 in a fresh
    # interpreter, must pass every task's own check once.
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import workloads\n"
            "checked = set()\n"
            "for name in workloads.WORKLOADS:\n"
            "    outdir = Path(sys.argv[2]) / name\n"
            "    outdir.mkdir()\n"
            "    for task in workloads.build(name, 1, outdir).tasks:\n"
            "        passed, detail = task.check(task.run())\n"
            "        if not passed:\n"
            "            print('failed', name, task.name, detail)\n"
            "        checked.add(name)\n"
            "print('checked', *sorted(checked))\n")
    out = fresh_interpreter(code, str(root / "perfbench"), str(tmp_path))
    assert out.splitlines() == ["checked bosonic_bounds channel_witness diamond_norm "
                                "memory_measures"]
