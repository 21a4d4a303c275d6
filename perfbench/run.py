"""moqgate benchmark: end-to-end metrics, or a traced per-layer breakdown.

Run from the root of a source checkout (nothing needs building):

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

An *op* is one ``run_scenario`` call plus ``Report.to_json()`` on one
scenario; a *pass* runs every scenario of the workload once.  The load is
one process with one thread, like the simulator.

The host this benchmark was defined on changes speed by up to 1.6x over
minutes, so raw timings of two runs are not comparable.  Every timing is
therefore paired: each program pass (or fresh-interpreter set-up) is matched
by the same work done by ``reference/moqgate_ref``, a frozen copy of the
simulator, run right before or after it in alternating order.  A timing
metric is the median over pairs of program / reference, times the
reference's own figure from ``reference/scale.json``: it reads as host
seconds on the host the scale was taken on, and it moves only when the
program does.  The raw medians of both sides are printed too.

With ``--trace 0`` the run

* pairs fresh interpreters that import the package and load and validate
  the workload's scenarios (``setup_s``),
* runs one untimed program pass under tracemalloc (``peak_mib``), which
  also warms the interpreter,
* then pairs program and reference passes for ``--seconds`` (``pass_s``,
  and ``events_per_s`` from the simulated events and the host seconds
  spent inside ``run_until_idle``).

With ``--trace 1`` it alternates untraced and traced program passes for
``--seconds`` and reports raw per-layer counts and self times (see
tracer.py), the tracing overhead, and writes the spans of the last traced
pass under ``perfbench/out/``.

Every program op is checked: it fails if it raises, times out, produces a
report that did not pass, or produces a report whose sha256 differs from
the golden digest (at the default seed) or from the same scenario's report
earlier in the run.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
PROGRAM = "moqgate"
REFERENCE = "moqgate_ref"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PAIRS = 5
LOAD_REPEATS = 11
MIN_TIMED_PAIRS = 5
MIN_TRACED_PASSES = 2

#: Counts that must repeat exactly between two traced passes (or runs) on
#: the same seed.
EXACT_REPEAT = json.loads((BENCH_DIR / "notes.json").read_text())["exact_repeat_counts"]


class Checker:
    """Runs ops of one package and keeps the correctness tally behind
    ``fail_rate``."""

    def __init__(self, package: str, golden: dict[str, str] | None) -> None:
        self.harness = importlib.import_module(f"{package}.harness")
        # Without golden digests each scenario's first report in the run
        # becomes the reference for its repeats.
        self.golden = golden is not None
        self.expected: dict[str, str] = dict(golden or {})
        self.attempted = 0
        self.failed = 0
        # Failed self-checks of the benchmark itself (not ops).
        self.problems: list[str] = []

    def run_op(self, scenario, call) -> int:
        """One op through ``call(kind, fn, *args)``; returns report bytes."""
        self.attempted += 1
        try:
            report = call("harness.run_scenario", self.harness.run_scenario, scenario)
            text = call("harness.to_json", report.to_json)
        except self.harness.ScenarioTimeoutError as exc:
            print(f"op failed: {scenario.name}: timed out: {exc}", file=sys.stderr)
            self.failed += 1
            return 0
        except Exception:  # any escape from the program counts as a failed op
            print(f"op failed: {scenario.name}: raised", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.golden:
            expected = self.expected.get(scenario.name, "(none)")
        else:
            expected = self.expected.setdefault(scenario.name, digest)
        if not report.passed or digest != expected:
            print(
                f"op failed: {scenario.name}: passed={report.passed} "
                f"sha256 {digest[:12]} expected {expected[:12]}",
                file=sys.stderr,
            )
            self.failed += 1
        return len(text)


def _direct(kind, fn, *args):
    return fn(*args)


def run_pass(checker: Checker, scenarios: list, call=_direct) -> int:
    """One pass; returns total report bytes."""
    return sum(checker.run_op(s, call) for s in scenarios)


def timed_pass(checker: Checker, scenarios: list) -> float:
    """Host seconds for one pass, started from a collected heap so that no
    pass pays for garbage left by the one before."""
    gc.collect()
    start = time.perf_counter()
    run_pass(checker, scenarios)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int, package: str) -> float:
    """Wall seconds for a fresh interpreter that imports ``package`` and
    loads and validates the workload's scenarios."""
    path = SRC if package == PROGRAM else REFERENCE_DIR
    code = (
        f"import sys; sys.path[:0] = [{str(path)!r}, {str(BENCH_DIR)!r}]; "
        f"import workloads; workloads.load({workload!r}, {seed}, {package!r})"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - start


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def _paired(measure, count: int | None = None, seconds: float = 0.0) -> tuple[list, list]:
    """``measure(package)`` for the program and the reference, in
    alternating order, ``count`` times or until ``seconds`` have passed
    (at least ``MIN_TIMED_PAIRS`` times)."""
    program: list = []
    reference: list = []
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        if count is not None:
            return len(program) < count
        return len(program) < MIN_TIMED_PAIRS or time.perf_counter() < deadline

    while more():
        first_program = len(program) % 2 == 0
        for package in (PROGRAM, REFERENCE) if first_program else (REFERENCE, PROGRAM):
            (program if package == PROGRAM else reference).append(measure(package))
    return program, reference


def timed_run(workload: str, seed: int, seconds: float, scenarios: list, checker: Checker):
    scale = json.loads((REFERENCE_DIR / "scale.json").read_text())[workload]
    setup, setup_ref = _paired(lambda package: setup_seconds(workload, seed, package), SETUP_PAIRS)

    tracemalloc.start()
    run_pass(checker, scenarios)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    reference = Checker(REFERENCE, None)
    ref_scenarios = workloads.load(workload, seed, REFERENCE)
    run_pass(reference, ref_scenarios)  # warm-up
    sides = {
        PROGRAM: (checker, scenarios, importlib.import_module(f"{PROGRAM}.transport")),
        REFERENCE: (reference, ref_scenarios, importlib.import_module(f"{REFERENCE}.transport")),
    }

    def measure(package: str) -> tuple[float, float]:
        side_checker, side_scenarios, transport = sides[package]
        meter = {"loop_s": 0.0, "events": 0}
        with tracing.loop_meter(meter, transport.SimNetwork):
            elapsed = timed_pass(side_checker, side_scenarios)
        return elapsed, meter["events"] / meter["loop_s"] if meter["loop_s"] else 0.0

    program, ref = _paired(measure, seconds=seconds)
    if reference.failed:
        checker.problems.append(f"reference copy failed {reference.failed} ops")

    def ratio(a: list[float], b: list[float]) -> float:
        return statistics.median(x / y for x, y in zip(a, b) if y)

    pass_s = [p for p, _ in program]
    ref_pass_s = [r for r, _ in ref]
    rates = [e for _, e in program]
    ref_rates = [e for _, e in ref]
    metrics = {
        "pass_s": (
            ratio(pass_s, ref_pass_s) * scale["pass_s"],
            "s",
            f"raw median {statistics.median(pass_s):.6g} s, reference {statistics.median(ref_pass_s):.6g} s, {_quartiles(pass_s)}",
        ),
        "events_per_s": (
            ratio(rates, ref_rates) * scale["events_per_s"],
            "1/s",
            f"raw median {statistics.median(rates):.6g}, reference {statistics.median(ref_rates):.6g}",
        ),
        "peak_mib": (peak / 2**20, "MiB", "one pass under tracemalloc"),
        "setup_s": (
            ratio(setup, setup_ref) * scale["setup_s"],
            "s",
            f"raw median {statistics.median(setup):.6g} s, reference {statistics.median(setup_ref):.6g} s, n={len(setup)}",
        ),
    }
    return metrics, {"pairs": len(program)}


def traced_run(workload: str, seed: int, seconds: float, scenarios: list, checker: Checker):
    load_s = []
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        workloads.load(workload, seed)
        load_s.append(time.perf_counter() - start)

    run_pass(checker, scenarios)  # warm-up
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    layer_s: list[dict[str, float]] = []
    counts: dict | None = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(timed_pass(checker, scenarios))

        tracer.reset()
        gc.collect()

        def one_pass():
            total = 0
            for op, scenario in enumerate(scenarios):
                tracer.op = op
                total += checker.run_op(scenario, tracer.call)
            return total

        with tracing.installed(tracer):
            report_bytes = tracer.call("bench.pass", one_pass)
        root = tracer.spans[0]
        traced.append(root[2] - root[1])
        times = tracing.self_times(tracer.spans)
        if abs(sum(times.values()) - traced[-1]) > 1e-6:
            checker.problems.append("layer self times do not add up to the traced pass")
        layer_s.append(times)
        pass_counts = dict(tracer.counts, **{"harness.report_bytes": report_bytes})
        if counts is not None and pass_counts != counts:
            changed = sorted(k for k in counts if counts[k] != pass_counts[k])
            checker.problems.append(f"counts differ between traced passes: {changed}")
        counts = pass_counts

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.csv.gz"
    tracing.write_spans(tracer.spans, span_file)

    def med(name: str) -> float:
        return statistics.median(t[name] for t in layer_s)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    c = counts
    traced_pass = statistics.median(traced)
    untraced_pass = statistics.median(untraced)
    metrics: dict[str, tuple] = {}
    for name in tracing.KIND_METRIC.values():
        metrics[name] = (med(name), "s", "")
    for name, value in c.items():
        metrics[name] = (value, "bytes" if "bytes" in name else "count", "")
    metrics.update(
        {
            "analysis.frames_per_s": (per(c["analysis.frames"], med("analysis.detector_s")), "1/s", ""),
            "framing.feed_MBps": (per(c["framing.feed_bytes"], med("framing.feed_s")) / 1e6, "MB/s", ""),
            "transport.us_per_event": (per(med("transport.loop_self_s"), c["transport.events"]) * 1e6, "us", ""),
            "relay.gate_us_per_group": (per(med("relay.gate_s"), c["relay.ingests"]) * 1e6, "us", ""),
            "relay.release_ratio": (
                per(c["relay.releasing_calls"], c["relay.ingests"] + c["relay.approves"]),
                "ratio",
                "releasing calls / (ingests + approves)",
            ),
            "harness.load_s": (statistics.median(load_s), "s", _quartiles(load_s)),
            "trace.pass_s": (traced_pass, "s", _quartiles(traced)),
            "trace.untraced_pass_s": (untraced_pass, "s", _quartiles(untraced)),
            "trace.overhead": (traced_pass / untraced_pass - 1.0, "ratio", "traced / untraced - 1"),
        }
    )
    repeat = {name: c[name] for name in EXACT_REPEAT}
    info = {
        "exact-repeat counts sha256": hashlib.sha256(
            json.dumps(repeat, sort_keys=True).encode()
        ).hexdigest()[:16],
        "spans": f"{len(tracer.spans)} written to {span_file.relative_to(ROOT)}",
    }
    return metrics, info


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "moqgate" / "__init__.py").is_file():
        print(f"error: no moqgate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(REFERENCE_DIR)]
    import moqgate

    if Path(moqgate.__file__).resolve().parent != SRC / "moqgate":
        print(f"error: imported moqgate from {moqgate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scenarios = workloads.load(workload, seed)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[workload]
    checker = Checker(PROGRAM, golden if seed == workloads.DEFAULT_SEED else None)
    run = traced_run if trace else timed_run
    metrics, info = run(workload, seed, seconds, scenarios, checker)

    print(f"workload {workload}  seed {seed}  scenarios {len(scenarios)}  trace {int(trace)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:26} {value:>16.6g} {unit:6} {note}")
    fail_rate = checker.failed / checker.attempted
    print(f"  {'fail_rate':26} {fail_rate:>16.6g} {'ratio':6} {checker.failed} of {checker.attempted} ops failed")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for problem in checker.problems:
        print(f"  self-check failed: {problem}")
    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter; the last line merges them with
    metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
