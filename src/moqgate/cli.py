"""Command-line entry point: run, validate, or predict scenarios."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .harness import ScenarioTimeoutError, predict_bounds, run_scenario
from .report import Report
from .scenario import (
    Scenario, ScenarioError, bundled_scenario_names, bundled_scenario_path, load_scenario,
)


def _resolve_scenario(arg: str) -> Scenario:
    if os.path.isfile(arg):
        return load_scenario(arg)
    if "/" not in arg and not arg.endswith(".json"):
        try:
            return load_scenario(bundled_scenario_path(arg))
        except ScenarioError:
            raise ScenarioError(
                f"{arg!r} is neither a file nor a bundled scenario; "
                f"bundled: {', '.join(bundled_scenario_names())}"
            ) from None
    raise ScenarioError(f"scenario file not found: {arg}")


#: Output format -> its file name under ``--out``.
_OUT_FILES = {"json": "report.json", "csv": "report.csv", "text": "report.txt"}


def _render(report: Report, fmt: str) -> str:
    return getattr(report, f"to_{fmt}")()


def _write_out_dir(report: Report, out_dir: str, rendered: dict[str, str]) -> None:
    """Write every format; ``rendered`` holds those already rendered."""
    os.makedirs(out_dir, exist_ok=True)
    for fmt, name in _OUT_FILES.items():
        text = rendered[fmt] if fmt in rendered else _render(report, fmt)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _print(text: str, end: str = "\n") -> None:
    """Print to stdout; a character its encoding cannot hold is printed as
    a backslash escape instead of raising, so ASCII text is unchanged."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), end=end)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    try:
        report = run_scenario(scenario)
    except ScenarioTimeoutError as exc:
        print(exc, file=sys.stderr)
        report = exc.report
    text = _render(report, args.format)
    if args.out:  # before stdout, so the files are there whatever stdout does
        _write_out_dir(report, args.out, {args.format: text})
    _print(text, end="")
    return 0 if report.passed else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario)
    roles = sum(1 for c in scenario.clients if c.analyze or c.filter)
    _print(
        f"ok: {scenario.name} ({len(scenario.clients)} clients, "
        f"{roles} with analyze/filter roles)"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario)
    bounds = predict_bounds(scenario)
    if not bounds:
        print("no filtered clients")
        return 0
    for name in sorted(bounds):
        _print(f"{name}: {bounds[name]} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moqgate",
        description="Replay relay-gating scenarios on a simulated network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and report checks")
    run.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    run.add_argument("--out", help="directory for report.json/report.csv/report.txt")
    run.add_argument(
        "--format", choices=tuple(_OUT_FILES), default="text", help="stdout format"
    )
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.set_defaults(fn=_cmd_run)

    validate = sub.add_parser("validate", help="check a scenario file and exit")
    validate.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    validate.set_defaults(fn=_cmd_validate)

    predict = sub.add_parser(
        "predict", help="print the latency bound for each filtered client"
    )
    predict.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    predict.set_defaults(fn=_cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
