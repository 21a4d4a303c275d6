"""The trend reader (tools/trend.py) prints every workload's figures from
each committed BENCH_*.json, whatever its layout, and writes no file."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def test_every_file_holding_all_four_workloads_prints_all_four(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import trend

    files = trend.bench_files()
    before = {path: path.read_bytes() for _, path in files}
    holding = [
        n
        for n, path in files
        if all(f'"{workload}' in before[path].decode("utf-8") for workload in trend.WORKLOADS)
    ]
    assert len(holding) >= 19
    assert trend.main() == 0
    rows = {
        int(line.split()[0]): line.split()[1:]
        for line in capsys.readouterr().out.splitlines()
        if line.split()[0].isdigit()
    }
    assert {n: len(rows[n]) for n in holding} == {n: 8 for n in holding}
    for n in holding:
        assert "-" not in rows[n], n
        assert all(float(cell) > 0 for cell in rows[n]), n
    assert {path: path.read_bytes() for _, path in files} == before


def test_each_layout_gives_the_change_side_figure(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import trend

    report = {"metrics": {"bundled.pass_s": {"value": 2.0}, "bundled.peak_mib": {"value": 9.0}}}
    pairs = [
        {
            "first": "parent",
            "parent": {"live_fanout": {"pass_s": 5.0}},
            "change": {"live_fanout": {"pass_s": p}},
        }
        for p in (1.0, 3.0, 2.0)
    ]
    data = {
        "parent": {"trace0": report},
        "change": {"trace0": report, "trace1": {"metrics": {"big_groups.pass_s": {"value": 7.0}}}},
        "live_fanout_seed0": {"pairs": pairs},
        "gated_fanout_seed0": {"summary": {"pass_s": {"change_median": 4.0, "parent_median": 6.0}}},
        "bundled_pairs": {"runs": [{"change": {"pass_s": 1.0}}, {"change": {"pass_s": 1.2}}]},
    }
    assert trend.figures(json.loads(json.dumps(data))) == {
        ("bundled", "pass_s"): 1.1,  # the pairs' median, ahead of the report's 2.0
        ("bundled", "peak_mib"): 9.0,
        ("live_fanout", "pass_s"): 2.0,
        ("gated_fanout", "pass_s"): 4.0,
    }
