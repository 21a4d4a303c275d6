"""Record the golden sha256 of every workload scenario's ``report.json`` at
the default seed into ``golden.json``.

    python3 perfbench/record_golden.py

Re-record only when a change to moqgate is meant to alter reports, and say
so where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from moqgate.harness import run_scenario  # noqa: E402


def main() -> None:
    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for scenario in workloads.load(workload, workloads.DEFAULT_SEED):
            report = run_scenario(scenario)
            if not report.passed:
                raise SystemExit(f"{workload}/{scenario.name}: report did not pass")
            text = report.to_json()
            golden[workload][scenario.name] = hashlib.sha256(text.encode()).hexdigest()
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
