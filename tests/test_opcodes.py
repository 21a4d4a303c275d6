"""The opcode counter (tools/opcodes.py) counts every code object that runs
in a module of the package, including the methods ``dataclasses``
generates, whose ``co_filename`` is ``<string>``, and the ``__new__`` that
``typing.NamedTuple`` generates, which runs in globals of its own; it also
counts each one's calls and prints its opcodes per call."""

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
