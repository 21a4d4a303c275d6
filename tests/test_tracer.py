"""The benchmark tracer (perfbench/tracer.py) patches moqgate entry points
by name; each must still exist under that name, and a run must still call
through the patched names."""

from __future__ import annotations

from pathlib import Path

from test_harness import mini_scenario

from moqgate.analysis import StrobeDetector
from moqgate.harness import run_scenario
from moqgate.scenario import scenario_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    original = StrobeDetector.analyze_group
    # A missing entry point raises KeyError here.
    with tracer.installed(tracer.Tracer()):
        assert StrobeDetector.analyze_group is not original
    assert StrobeDetector.analyze_group is original


def test_tracer_sees_the_harness_calls(monkeypatch):
    """The tracer patches ``generate_groups`` and ``predict_risky_groups``
    in ``moqgate.harness``; a run that looked them up anywhere else would
    leave those layer figures at zero."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    scenario = scenario_from_dict(mini_scenario())
    recorder = tracer.Tracer()
    with tracer.installed(recorder):
        assert run_scenario(scenario).passed
    assert recorder.counts["analysis.oracle_calls"] >= 1
    assert any(span[0] == "media.generate" for span in recorder.spans)
