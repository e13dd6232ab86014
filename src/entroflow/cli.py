"""Command-line scenario runner: run, validate, list.

Configs are JSON documents with explicit physical parameters; builtins are
available by name.  ``run`` writes the output tables and a report.json, and
exits nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from .scenarios import DEFAULT_CONFIGS, ScenarioError, list_scenarios, run_config, validate_config

__all__ = ["main"]


def _load_config(args) -> dict:
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable file, malformed JSON
            raise ScenarioError(f"cannot load config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise ScenarioError(f"config {args.config} is not a JSON object")
    elif args.scenario:
        if args.scenario not in DEFAULT_CONFIGS:
            raise ScenarioError(
                f"no builtin config for {args.scenario!r}; known: {sorted(DEFAULT_CONFIGS)}"
            )
        config = copy.deepcopy(DEFAULT_CONFIGS[args.scenario])
    else:
        raise ScenarioError("provide --config FILE or --scenario NAME")
    for override in args.param or []:
        key, _, raw = override.partition("=")
        if not _:
            raise ScenarioError(f"malformed --param {override!r}, expected KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params = config.setdefault("parameters", {})
        if not isinstance(params, dict):
            raise ScenarioError(f"cannot set {key!r}: 'parameters' is not a mapping")
        params[key] = value
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_config(config, output_dir=args.output_dir, seed_override=args.seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{report.scenario}] {status} {check.name}: "
              f"{check.measured} (expected {check.expected})")
    report_path = Path(args.output_dir) / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report.to_document(), fh, indent=1)
        fh.write("\n")
    print(f"[{report.scenario}] report: {report_path}"
          f" ({'ok' if report.passed else 'FAILED'}, {report.wall_time_s:.1f} s)")
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    config = _load_config(args)
    problems = validate_config(config)
    if not problems:
        print("ok")
        return 0
    for p in problems:
        print(f"error: {p}")
    return 1


def _cmd_list(args) -> int:
    for name, meta in list_scenarios().items():
        print(f"{name}: {meta['description']}")
        for pname, doc in meta["parameters"].items():
            print(f"    {pname}: {doc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Entropy-rate witnesses for open quantum dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and write its tables")
    val_p = sub.add_parser("validate", help="check a config without running it")
    for p in (run_p, val_p):
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--scenario", help="builtin scenario name (uses its default config)")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a parameter (value parsed as JSON)")
    run_p.add_argument("--output-dir", default="entroflow-out",
                       help="directory for tables and report.json")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("list", help="describe the available scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
