"""entroflow benchmark: one workload per call, or all of them in a row.

    python3 perfbench/run.py --workload memory_measures --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from wrapped calls (see ``spans.py``).  Scenario tables go to a scratch
directory under ``.perfbench_out/`` that is removed at the end; the run's
full record (environment, per-task outcomes, every sample) and, for traced
runs, the spans are kept there.

BLAS is pinned to one thread before numpy loads, and ENTROFLOW_THREADS is
removed, so the package runs its serial paths.

Times are reported in seconds of the reference host: every task is timed
between two calls of a fixed calibration kernel, and every set-up probe
right after an interpreter that imports only numpy and scipy, and each is
scaled by its calibration's speed at that moment (see ``calibration.py``),
so that the host's drifting speed cancels.  The times as measured are
printed on ``# measured`` lines and kept in the run's record.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ENTROFLOW_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path.cwd() / ".perfbench_out"
WORKLOAD_NAMES = ["memory_measures", "diamond_norm", "channel_witness", "bosonic_bounds"]
# Set-up is timed in this many fresh interpreters, taken between the timed
# passes, each right after a fresh interpreter that only imports what the
# package imports; the median ratio is reported.
SETUP_SAMPLES = 3
# Timed passes per run, at least; more while --seconds lasts.
MIN_PASSES = 6
SETUP_TIMEOUT_S = 60

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verified_share", "1"),
]


def _require_source() -> None:
    if not (SRC / "entroflow" / "__init__.py").is_file():
        sys.exit(f"error: no entroflow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ENTROFLOW_THREADS")},
    }


def _build(workload: str, seed: int, scratch: Path):
    import workloads

    return workloads.build(workload, seed, scratch)


def _probe(kind: str, workload: str, seed: int) -> None:
    """Child mode.  ``setup``: time importing entroflow and building the
    inputs once.  ``import``: time importing the libraries entroflow imports,
    the calibration of set-up."""
    start = time.perf_counter()
    if kind == "import":
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401

        print(json.dumps({"seconds": time.perf_counter() - start}))
        return
    _require_source()
    import entroflow  # noqa: F401  (the import is part of what is timed)

    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        _build(workload, seed, Path(scratch))
        print(json.dumps({"seconds": time.perf_counter() - start}))


def _setup_sample(workload: str, seed: int) -> dict:
    """An import probe, then a set-up probe, each in a fresh interpreter."""
    sample = {}
    for kind in ("import", "setup"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe", kind],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} probe failed: {proc.stderr.strip()[-2000:]}")
        sample[f"{kind}_s"] = json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]
    return sample


def _run_pass(tasks, tracer=None) -> list[dict]:
    """Run every task once: the call, then its check.  Time both, and the
    calibration kernel before and after each task.

    A failure is ``known_defect`` if the task's known defect explains it,
    else ``unexpected``."""
    import calibration

    outcomes = []
    before = calibration.measure()
    for task in tasks:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        error = None
        try:
            if tracer is not None:
                tracer.active = True
            try:
                result = task.run()
            finally:
                if tracer is not None:
                    tracer.active = False
            passed, detail = task.check(result)
        except Exception as exc:  # a task that raises counts as failed, the run goes on
            result, passed = exc, False
            detail, error = f"{type(exc).__name__}: {exc}", type(exc).__name__
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = calibration.measure()
        if passed:
            status = "ok"
        else:
            status = "known_defect" if task.fails_as_known(result) else "unexpected"
        outcomes.append({
            "task": task.name,
            "wall_s": wall,
            "cpu_s": cpu,
            "kernel_wall_s": (before[0] + after[0]) / 2,
            "kernel_cpu_s": (before[1] + after[1]) / 2,
            "passed": bool(passed),
            "status": status,
            "detail": detail,
            "error": error,
            "known_defect": task.known_defect.why if task.known_defect else None,
        })
        before = after
    return outcomes


def _pass_time(passes: list[list[dict]], key: str, scaled: bool = True) -> float:
    """Sum over tasks of each task's median time across passes, in seconds
    of the reference host (``scaled``) or as measured.

    Per-task medians damp the host's bursts of slow CPU better than the
    median of whole-pass totals, because a burst hits one task of one pass.
    """
    import calibration

    def time_of(o):
        return o[key] / o[f"kernel_{key}"] * calibration.REFERENCE_S if scaled else o[key]

    n_tasks = len(passes[0])
    return sum(statistics.median(time_of(p[i]) for p in passes) for i in range(n_tasks))


def _timed_passes(tasks, seconds: float, take_setup_sample) -> tuple[list[list[dict]], list[dict]]:
    """Passes until they add up to ``seconds``, at least MIN_PASSES of them.

    One set-up sample is taken before each pass until there are
    SETUP_SAMPLES of them (after the last pass if the passes run out), so
    that set-up and passes see the same host.  Set-up samples are not part
    of the ``seconds``."""
    passes, setup_samples, elapsed = [], [], 0.0
    while len(passes) < MIN_PASSES or elapsed < seconds:
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(take_setup_sample())
        start = time.perf_counter()
        passes.append(_run_pass(tasks))
        elapsed += time.perf_counter() - start
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(take_setup_sample())
    return passes, setup_samples


def _traced_passes(tasks, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes, so slow drift of the host's
    speed cancels in the tracing overhead.  Returns both lists of passes and
    the per-layer metrics of each traced pass."""
    import spans

    tracer = spans.Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(_run_pass(tasks))
        tracer.install()
        try:
            tracer.clear()
            traced.append(_run_pass(tasks, tracer))
        finally:
            tracer.uninstall()
        layers.append(spans.layer_metrics(tracer))
    tracer.save(spans_path)
    if tracer.missing:
        print(f"# not traced, missing from the package: {tracer.missing}")
    return plain, traced, layers


def _measure(args) -> dict:
    _require_source()
    import calibration

    OUT.mkdir(exist_ok=True)

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = _build(args.workload, args.seed, scratch)
        env = _environment(args.seed)
        record = {"workload": args.workload, "environment": env,
                  "inputs_digest": workload.inputs_digest,
                  "tasks": [t.name for t in workload.tasks]}
        if args.trace:
            import spans

            plain, traced, samples = _traced_passes(
                workload.tasks, args.seconds, OUT / f"{args.workload}-seed{args.seed}-spans.npz")
            metrics = {}
            for name, unit, _ in spans.LAYER_METRICS:
                values = [s[name] for s in samples]
                # Counts are from the first traced pass; times are medians.
                value = values[0] if unit != "s" else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
            metrics["tracing.overhead_s"] = {
                "value": _pass_time(traced, "wall_s") - _pass_time(plain, "wall_s"), "unit": "s"}
            record["layer_samples"] = samples
            record["counts_repeat_across_passes"] = all(
                s[name] == samples[0][name] for s in samples
                for name, unit, _ in spans.LAYER_METRICS if unit == "count")
            timed = plain + traced
        else:
            timed, setup_samples = _timed_passes(
                workload.tasks, args.seconds, lambda: _setup_sample(args.workload, args.seed))
            record["setup_samples"] = setup_samples
            record["measured"] = {
                "wall_s": _pass_time(timed, "wall_s", scaled=False),
                "cpu_s": _pass_time(timed, "cpu_s", scaled=False),
                "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
                "import_s": statistics.median(s["import_s"] for s in setup_samples),
                "kernel_s": statistics.median(o["kernel_wall_s"] for p in timed for o in p),
            }
            setup_ratio = statistics.median(s["setup_s"] / s["import_s"] for s in setup_samples)
            metrics = {
                "wall_s": _pass_time(timed, "wall_s"),
                "cpu_s": _pass_time(timed, "cpu_s"),
                "setup_s": setup_ratio * calibration.REFERENCE_IMPORT_S,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            outcomes = [o for p in timed for o in p]
            metrics["verified_share"] = sum(o["passed"] for o in outcomes) / len(outcomes)
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes = [o for p in timed for o in p]
    unexpected = sorted({o["task"] for o in outcomes if o["status"] == "unexpected"})
    record.update(passes=len(timed), outcomes=outcomes, unexpected_failures=unexpected,
                  metrics=metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": sum(not o["passed"] for o in outcomes),
        "metrics": metrics,
        "_record": record,
    }


def _print_report(workload: str, result: dict) -> None:
    record = result["_record"]
    env = record["environment"]
    print(f"# entroflow benchmark: workload={workload} seed={env['seed']} "
          f"passes={record['passes']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} nproc={env['nproc']} cpu={env['cpu']!r}")
    last = {o["task"]: o for o in record["outcomes"]}
    for name, o in last.items():
        status = {"ok": "ok", "known_defect": "KNOWN-DEFECT", "unexpected": "FAIL"}[o["status"]]
        print(f"#   {status:12s} {name}: {o['detail']}")
    for name, value in record.get("measured", {}).items():
        print(f"# measured {name} {value:.6g} s")
    for name, m in result["metrics"].items():
        print(f"{workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")


def _run_all(args) -> dict:
    """Each workload in its own process, so set-up and peak memory are its
    own; then one row per workload, one column per metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        rows[workload] = result["metrics"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    columns = [(name, m["unit"]) for name, m in rows[WORKLOAD_NAMES[0]].items()]
    print("workload".ljust(16) + "".join(f"{name}[{unit}]".rjust(24) for name, unit in columns))
    for workload, metrics in rows.items():
        print(workload.ljust(16) + "".join(f"{metrics[name]['value']:.6g}".rjust(24)
                                           for name, _ in columns))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        _probe(args.probe, args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = _measure(args)
        _print_report(args.workload, result)
        del result["_record"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
