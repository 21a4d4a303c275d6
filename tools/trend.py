"""Each workload's ``pass_s`` and ``peak_mib`` from every committed
``BENCH_<n>.json``, one row per file in order of ``n``.

The files were written over many changes in several layouts: a
``perfbench/run.py`` report per tree
(``{"metrics": {"bundled.pass_s": {"value": ...}}}``), lists of
alternating pairs whose ``"change"`` side holds ``"bundled.pass_s"`` or
``{"bundled": {"pass_s": ...}}``, series named after a workload
(``"big_groups_seed7"``, ``"bundled_pairs"``) and summaries with a
``"change_median"``.  This reader walks each file whole and keeps every
number that sits on the change's side and names a workload and one of the
two metrics, skipping traced runs (under a ``trace1`` key), whose times
include the tracer.  A figure is the median of the file's paired runs of
the change, whatever their seed or series; with no pairs, the median of
its summaries' ``change_median``; with neither, its untraced report.  The
files are only read.

Usage, from the repository root::

    python tools/trend.py
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bundled", "live_fanout", "gated_fanout", "big_groups")
METRICS = ("pass_s", "peak_mib")
#: Sources of a figure, the most direct first.
KINDS = ("pair", "summary", "report")


def _numbers(node, path=()):
    """Every number in ``node`` (bools excepted), with its path of keys and
    list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numbers(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def _classify(path):
    """``(workload, metric, kind)`` of a number at ``path``, or None when it
    is not the change's ``pass_s`` or ``peak_mib`` for one workload."""
    keys = [key for key in path if isinstance(key, str)]
    if any(key.startswith("trace1") for key in keys):
        return None
    if "change" not in keys and keys[-1] != "change_median":
        return None
    words = [part for key in keys for part in key.split(".")]
    metric = next((word for word in words if word in METRICS), None)
    workloads = {
        workload
        for key in keys
        for workload in WORKLOADS
        if key == workload or key.startswith((workload + ".", workload + "_"))
    }
    if metric is None or len(workloads) != 1:
        return None
    if keys[-1] == "change_median":
        kind = "summary"
    elif any(isinstance(key, int) for key in path):
        kind = "pair"
    else:
        kind = "report"
    return workloads.pop(), metric, kind


def figures(data) -> dict[tuple[str, str], float]:
    """``(workload, metric) -> figure`` for one file's parsed contents."""
    found: dict[tuple[str, str], dict[str, list[float]]] = {}
    for path, value in _numbers(data):
        got = _classify(path)
        if got is not None:
            workload, metric, kind = got
            found.setdefault((workload, metric), {}).setdefault(kind, []).append(value)
    return {
        key: statistics.median(next(kinds[kind] for kind in KINDS if kind in kinds))
        for key, kinds in found.items()
    }


def bench_files(root: Path = ROOT) -> list[tuple[int, Path]]:
    """``(n, path)`` of every ``BENCH_<n>.json`` in ``root``, by ``n``."""
    found = []
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def main(root: Path = ROOT) -> int:
    columns = [(workload, metric) for workload in WORKLOADS for metric in METRICS]
    print("n   " + " ".join(f"{w + '.' + m:>23}" for w, m in columns))
    for n, path in bench_files(root):
        got = figures(json.loads(path.read_text(encoding="utf-8")))
        print(f"{n:<3} " + " ".join(
            f"{got[key]:>23.4f}" if key in got else f"{'-':>23}" for key in columns
        ))
    print("pass_s in s, peak_mib in MiB; the change's side of each file; - where it holds none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
