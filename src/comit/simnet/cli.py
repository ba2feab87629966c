"""Command line harness.

    comit-sim run <scenario-file> [--seed N] [--report <path>] [--format json|text]
    comit-sim validate <scenario-file>
    comit-sim demo <name> [--seed N] [--report <path>] [--format json|text]

`run` and `demo` exit 0 exactly when the report's violation list is empty;
`validate` exits 0 exactly when the file is a well-formed scenario.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from typing import Optional

from .engine import run_scenario
from .report import render_text, report_json
from .scenario import load_scenario, validate_scenario, with_seed


def _demo_names() -> list[str]:
    root = resources.files("comit.simnet") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def _execute(scenario, report_path: Optional[str], fmt: str) -> int:
    report = run_scenario(scenario)
    text = report_json(report) if report_path or fmt == "json" else ""
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text if fmt == "json" else render_text(report))
    return 0 if not report["violations"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="comit-sim",
        description="Deterministic multi-chain payment network simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--report", default=None, help="also write the JSON report to this path")
        p.add_argument(
            "--format", choices=("json", "text"), default="text",
            help="stdout format (default: text)",
        )

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    add_run_flags(p_run)

    p_val = sub.add_parser("validate", help="check a scenario file without running it")
    p_val.add_argument("scenario", help="path to a scenario JSON file")

    p_demo = sub.add_parser("demo", help="run a bundled example scenario")
    p_demo.add_argument("name", help="demo name (see error output for the list)")
    add_run_flags(p_demo)

    args = parser.parse_args(argv)

    if args.command == "demo":
        names = _demo_names()
        if args.name not in names:
            print(f"unknown demo {args.name!r}; available: {', '.join(names)}", file=sys.stderr)
            return 2
        text = (resources.files("comit.simnet") / "scenarios" / f"{args.name}.json").read_bytes()
        scenario, errors = validate_scenario(text)
    else:
        scenario, errors = load_scenario(args.scenario)
    if not errors and args.command != "validate" and args.seed is not None:
        scenario, errors = with_seed(scenario, args.seed)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1 if args.command == "validate" else 2
    if args.command == "validate":
        print(f"ok: {args.scenario} ({len(scenario.payments)} payments, "
              f"{len(scenario.channels)} channels, {len(scenario.chains)} chains)")
        return 0
    return _execute(scenario, args.report, args.format)


if __name__ == "__main__":
    raise SystemExit(main())
