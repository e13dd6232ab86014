"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload it checks that
  * two traced runs with one seed report identical counts (every per-layer
    metric whose unit is ``count``);
  * a second seed changes the generated inputs but not the set of tasks;
that each known defect rejects outcomes it does not describe (a NaN or far
too large measure, an unrelated exception, a report with other failing
checks); and, once, that the benchmark refuses to run (non-zero exit, no result line)
in a directory holding only BENCHMARK.json and the benchmark's own files.
Run it from the root of a source checkout; it exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = Path.cwd() / ".perfbench_out"
WORKLOADS = ["memory_measures", "diamond_norm", "channel_witness", "bosonic_bounds"]
SECONDS = "2"
SEED, OTHER_SEED = 3, 4


def _run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-seed{seed}-trace1.json") as fh:
        record = json.load(fh)
    return result, record


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def check_workload(workload: str) -> list[str]:
    seed, other_seed = SEED, OTHER_SEED
    problems = []
    first, first_record = _run(workload, seed)
    second, _ = _run(workload, seed)
    other, other_record = _run(workload, other_seed)
    a, b = _counts(first), _counts(second)
    diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if diff:
        problems.append(f"{workload}: counts differ between two runs of seed {seed}: {diff}")
    if not first_record["counts_repeat_across_passes"]:
        problems.append(f"{workload}: counts differ between traced passes of one run")
    if first_record["tasks"] != other_record["tasks"]:
        problems.append(f"{workload}: seeds {seed} and {other_seed} run different tasks")
    if first_record["inputs_digest"] == other_record["inputs_digest"]:
        problems.append(f"{workload}: seeds {seed} and {other_seed} generate the same inputs")
    for result in (first, second, other):
        if not result["correct"]:
            problems.append(f"{workload}: a task failed that is not a known defect")
    print(f"{workload}: {len(a)} counts repeat={not diff}; "
          f"digests {first_record['inputs_digest']} / {other_record['inputs_digest']}", flush=True)
    return problems


def check_refuses_without_source() -> list[str]:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / RUN.name), "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return ["benchmark ran without the package sources"]
    print(f"bare checkout: exit {proc.returncode}, no result line", flush=True)
    return []


def check_known_defects_are_narrow() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    others = [None, RuntimeError("unrelated"), TypeError("unrelated"),
              SimpleNamespace(value=float("nan"), checks=[]),
              SimpleNamespace(value=0.1, checks=[])]
    problems, n_defects = [], 0
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for name in WORKLOADS:
            for task in workloads.build(name, SEED, Path(scratch)).tasks:
                if task.known_defect is None:
                    continue
                n_defects += 1
                accepted = [repr(o) for o in others if task.fails_as_known(o)]
                if accepted:
                    problems.append(f"{name}: known defect of {task.name} accepts {accepted}")
    print(f"known defects: {n_defects}, each rejects {len(others)} other outcomes", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    problems = check_refuses_without_source() + check_known_defects_are_narrow()
    for workload in args.workload or WORKLOADS:
        problems += check_workload(workload)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
