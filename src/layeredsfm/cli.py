"""Command-line entry point for the experiment harness.

One subcommand per experiment mode; the report is written to --out (JSON
or CSV) or printed to stdout, and the exit code is 0 exactly when every
assertion in the report passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .harness import RUNNERS, ExperimentConfig, run_experiment
from .solvers import SOLVERS


def _parse_n(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer or comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layeredsfm",
        description=(
            "Experiments on layered hard-to-minimize submodular functions: "
            "structure verification, adversary duels, parallel-round runs, "
            "information-hiding estimates, and query benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help_text) in RUNNERS.items():
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file with config fields; explicit flags override it")
        p.add_argument("--n", type=_parse_n, default=None,
                       help="ground-set size (bench accepts a comma-separated sweep)")
        p.add_argument("--r", type=int, default=None, help="layer half-width")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument("--trials", type=int, default=None,
                       help="instances per run, or Monte-Carlo samples for hiding")
        p.add_argument("--solver", choices=sorted(SOLVERS), default=None,
                       help="solver to duel (duel mode)")
        p.add_argument("--queries-per-round", type=int, default=None,
                       help="random queries per round for the parallel baseline")
        p.add_argument("--out", type=Path, default=None, help="report file path")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {"mode": args.mode, "n": [8]}
    if args.config is not None:
        loaded = json.loads(args.config.read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"--config must hold a JSON object, got {type(loaded).__name__}")
        loaded.setdefault("mode", args.mode)
        if loaded["mode"] != args.mode:
            raise ValueError(f"--config mode {loaded['mode']!r} conflicts with subcommand {args.mode!r}")
        base.update(loaded)
    for f in fields(ExperimentConfig):  # every field has a flag of the same name
        value = getattr(args, f.name)
        if value is not None:
            base[f.name] = value
    return ExperimentConfig.from_json(base)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_experiment(config)

    for assertion in report.assertions:
        marker = "PASS" if assertion["passed"] else "FAIL"
        print(f"[{marker}] {assertion['name']}: {assertion['detail']}")
    rendered = report.to_csv_text() if args.format == "csv" else report.to_json_text()
    if args.out is not None:
        try:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(rendered)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.out}")
    else:
        print(rendered, end="")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
