"""The benchmark tracer (perfbench/tracer.py) patches moqgate entry points
by name; each must still exist under that name."""

from __future__ import annotations

from pathlib import Path

from moqgate.analysis import StrobeDetector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = StrobeDetector.analyze_group
    # A missing entry point raises KeyError here.
    with tracer.installed(tracer.Tracer()):
        assert StrobeDetector.analyze_group is not original
    assert StrobeDetector.analyze_group is original
