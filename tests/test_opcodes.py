"""The opcode counter (tools/opcodes.py) counts every code object that runs
in a module of the package, including the methods ``dataclasses``
generates, whose ``co_filename`` is ``<string>``, and the ``__new__`` that
``typing.NamedTuple`` generates, which runs in globals of its own; it also
counts each one's calls and prints its opcodes per call, and compares
another source tree's counts with this one's by qualified name."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from moqgate.client import LatencyRecord
from moqgate.media import EncodedGroup

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_a_dataclass_generated_init_counts_under_its_class(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import opcodes

    records = []
    outer = sys.gettrace()
    counts = opcodes.by_function(
        opcodes.count_opcodes(lambda: records.append(LatencyRecord(0, 1.0, 2.0, 3)))
    )
    assert sys.gettrace() is outer
    assert records == [LatencyRecord(0, 1.0, 2.0, 3)]
    inits = [n for name, n in counts.items() if name.startswith("client.LatencyRecord.__init__:")]
    assert len(inits) == 1 and inits[0] > 0
    assert opcodes.by_module(counts) == {"client": inits[0]}


def test_a_named_tuple_constructor_counts_under_its_class(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import opcodes

    groups = []
    counts = opcodes.by_function(
        opcodes.count_opcodes(lambda: groups.append(EncodedGroup(0, (), ())))
    )
    assert groups == [(0, (), ())]
    news = [n for name, n in counts.items() if name.startswith("media.EncodedGroup.__new__:")]
    assert len(news) == 1 and news[0] > 0
    assert opcodes.by_module(counts) == {"media": news[0]}


def test_calls_and_opcodes_per_call_are_counted_and_printed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import opcodes

    calls = Counter()
    counts = opcodes.by_function(
        opcodes.count_opcodes(lambda: [LatencyRecord(k, 1.0, 2.0, 3) for k in range(3)], calls)
    )
    calls = opcodes.by_function(calls)
    (name,) = counts
    assert name.startswith("client.LatencyRecord.__init__:")
    assert calls == {name: 3}
    assert counts[name] % 3 == 0
    assert opcodes.report("probe", counts, counts, calls)
    line = f"  {counts[name]:>12,} {3:>10,} {counts[name] / 3:>10,.1f}  {name}\n"
    assert line in capsys.readouterr().out


def fake_tree(root: Path, loops: int, padding: int) -> Path:
    """A source tree with a ``moqgate`` whose one workload, ``tiny``, calls
    ``harness.step`` ``loops`` times a pass; ``padding`` blank lines move
    ``step`` within its file."""
    package = root / "src" / "moqgate"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "harness.py").write_text(
        "class Report:\n"
        "    def to_json(self):\n"
        "        return '{}'\n"
        + "\n" * padding
        + "def step(k):\n"
        "    return k + 1\n"
        "\n"
        "def run_scenario(scenario):\n"
        f"    for k in range({loops}):\n"
        "        step(k)\n"
        "    return Report()\n"
    )
    bench = root / "perfbench"
    bench.mkdir()
    (bench / "workloads.py").write_text(
        "WORKLOADS = ('tiny',)\nDEFAULT_SEED = 0\n\n\ndef load(name, seed):\n    return [name]\n"
    )
    return root


def test_another_tree_is_counted_and_compared_by_qualified_name(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    import opcodes

    this = opcodes.count_tree(fake_tree(tmp_path / "this", 3, 0), ["tiny"])["tiny"]
    other = opcodes.count_tree(fake_tree(tmp_path / "other", 5, 4), ["tiny"])["tiny"]
    assert this["agree"] and other["agree"]
    steps = {
        tree: [n for name, n in counts["functions"].items() if name.startswith("harness.step:")]
        for tree, counts in (("this", this), ("other", other))
    }
    # Each call of step runs the same opcodes, on another line in each tree.
    (per_call,) = {n // 3 for n in steps["this"]} & {n // 5 for n in steps["other"]}
    assert steps == {"this": [3 * per_call], "other": [5 * per_call]}
    assert this["functions"].keys() != other["functions"].keys()
    opcodes.report_delta("tiny", Counter(this["functions"]), Counter(other["functions"]), "B")
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tiny: opcodes per pass, this tree and B: this, other, change"
    totals = [sum(counts["functions"].values()) for counts in (this, other)]
    assert f"  {'harness':<12} {totals[0]:>12,} {totals[1]:>12,} {totals[0] - totals[1]:>+12,}" in out
    moved = out[out.index("tiny: per function that moved, by qualified name: this, other, change") + 1 :]
    assert f"  {3 * per_call:>12,} {5 * per_call:>12,} {-2 * per_call:>+12,}  harness.step" in moved
    assert [line.split()[-1] for line in moved] == ["harness.run_scenario", "harness.step"]
