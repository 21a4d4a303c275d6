"""Scenario harness: loading, validation, end-to-end runs, reports.

Expected values are derived by hand from the frame-timing formula
(capture ts of frame k = round(k * 1000 / fps), half rounding down), the
configured link delays, and the gating pipeline: the last frame of group g
leaves the publisher at publish_epoch + g*gop + last_frame_ts, crosses the
publisher uplink, reaches each analyzer over its downlink, and the approval
returns over the analyzer uplink before the stored group bursts across the
filtered subscriber's downlink.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import heapq
import json
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from frames import rendered_groups
from payloads import received

import moqgate.client
import moqgate.framing
import moqgate.harness
from moqgate.analysis import StrobeDetector
from moqgate.eventlog import EventLog
from moqgate.harness import ScenarioTimeoutError, predict_bounds, run_scenario
from moqgate.media import generate_groups
from moqgate.relay import RelayServer
from moqgate.report import RecordRow, Report
from moqgate.scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)
from moqgate.wire import Category

# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

ZERO_LINK = {"to_relay_ms": 0.0, "from_relay_ms": 0.0, "jitter_ms": 0.0}


def mini_scenario() -> dict:
    """fps 10, gop 1000 ms, constant source for 2000 ms -> 2 groups.

    Frame spacing is 100 ms; the last frame of each group is captured at
    g*1000 + 900.  With zero link delays and zero analysis time the analyzer
    completes group g at g*1000 + 900, approves instantly, and the burst
    reaches the filtered client at the same instant.  The analyzer first sees
    group g at g*1000, so the added latency of the filtered client is
    900 ms = gop - frame spacing.
    """
    return {
        "name": "mini",
        "track": "cam",
        "seed": 1,
        "publish_epoch_ms": 0.0,
        "source": {
            "width": 16,
            "height": 16,
            "fps": 10,
            "gop_duration_ms": 1000,
            "segments": [{"kind": "constant", "level": 128, "duration_ms": 2000}],
        },
        "links": {
            "publisher": dict(ZERO_LINK),
            "clients": {
                "analyzer0": dict(ZERO_LINK),
                "gated": dict(ZERO_LINK),
                "plain": dict(ZERO_LINK),
            },
        },
        "clients": [
            {"name": "analyzer0", "analyze": ["strobe"], "analysis_time_ms": 0.0},
            {"name": "gated", "filter": ["strobe"]},
            {"name": "plain"},
        ],
        "checks": {"added_latency_band_ms": [890.0, 910.0]},
    }


def impulse_scenario() -> dict:
    """fps 30, 3 groups; the middle second strobes at 15 Hz -> group 1 risky.

    30 fps frame times within a group run 0, 33, 67, ..., 967.  The strobe
    toggles every frame (half period 1 frame), so luma increases arrive
    66/67 ms apart -- well inside the 100 ms risk window.
    """
    return {
        "name": "impulse-mini",
        "track": "cam",
        "seed": 2,
        "source": {
            "width": 16,
            "height": 16,
            "fps": 30,
            "gop_duration_ms": 1000,
            "segments": [
                {"kind": "constant", "level": 128, "duration_ms": 1000},
                {"kind": "strobe", "low": 16, "high": 240, "flash_hz": 15.0, "duration_ms": 1000},
                {"kind": "constant", "level": 128, "duration_ms": 1000},
            ],
        },
        "links": {
            "publisher": dict(ZERO_LINK),
            "clients": {
                "analyzer0": dict(ZERO_LINK),
                "gated": dict(ZERO_LINK),
                "plain": dict(ZERO_LINK),
            },
        },
        "clients": [
            {"name": "analyzer0", "analyze": ["strobe"]},
            {"name": "gated", "filter": ["strobe"]},
            {"name": "plain"},
        ],
        "checks": {},
    }


def run_report(data: dict) -> Report:
    return run_scenario(scenario_from_dict(data))


def publisher_jitter_scenario(seed: int) -> dict:
    """100 ms groups for 500 ms with 200 ms of publisher jitter, so groups
    reach the relay out of order and it fails sessions."""
    link = {"to_relay_ms": 10.0, "from_relay_ms": 10.0, "jitter_ms": 0.0}
    data = mini_scenario()
    data.update(seed=seed, checks={})
    data["source"].update(fps=100, gop_duration_ms=100)
    data["source"]["segments"] = [{"kind": "constant", "level": 128, "duration_ms": 500}]
    data["links"] = {
        "publisher": {**link, "jitter_ms": 200.0},
        "clients": {"analyzer0": link, "gated": link, "plain": link},
    }
    return data


def checks_by_name(report: Report) -> dict[str, bool]:
    return {c["name"]: c["passed"] for c in report.data["checks"]}


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


class TestScenarioLoading:
    def test_minimal_scenario_loads_with_defaults(self):
        data = {
            "name": "tiny",
            "track": "t",
            "source": {
                "width": 4,
                "height": 4,
                "fps": 10,
                "gop_duration_ms": 1000,
                "segments": [{"kind": "constant", "level": 5, "duration_ms": 1000}],
            },
            "links": {"publisher": dict(ZERO_LINK), "clients": {"viewer": dict(ZERO_LINK)}},
            "clients": [{"name": "viewer"}],
        }
        sc = scenario_from_dict(data)
        assert isinstance(sc, Scenario)
        assert sc.seed == 0
        assert sc.publish_epoch_ms == 0.0
        assert sc.duration_ms == 600_000.0
        assert sc.retention_groups == 64
        assert sc.playback_buffer_groups == 1.0
        assert sc.delay_draws is None
        viewer = sc.clients[0]
        assert viewer.analyze == () and viewer.filter == ()
        assert viewer.link.jitter_ms == 0.0
        # detector defaults
        assert viewer.detector.grid_dim == 16
        assert viewer.detector.pixel_delta_threshold == 20
        assert viewer.detector.changed_fraction_threshold == 0.25
        assert viewer.detector.max_interchange_gap_ms == 100.0

    def test_bundled_fixture_names_and_loading(self):
        assert bundled_scenario_names() == [
            "multi_category",
            "paper_replication",
            "random_delays",
            "strobe_impulse",
        ]
        for name in bundled_scenario_names():
            sc = load_scenario(bundled_scenario_path(name))
            assert sc.name == name

    def test_unreadable_scenario_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="^cannot read scenario file: "):
            load_scenario(tmp_path / "missing.json")

    def test_filter_without_covering_analyzer_rejected(self):
        data = mini_scenario()
        data["clients"][1]["filter"] = ["strobe", "smoking"]
        with pytest.raises(ScenarioError) as ei:
            scenario_from_dict(data)
        assert "smoking" in str(ei.value)
        assert "gated" in str(ei.value)
        assert "strobe" not in str(ei.value)  # strobe IS covered

    def test_analyze_and_filter_on_same_client_rejected(self):
        data = mini_scenario()
        data["clients"][0]["filter"] = ["strobe"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_keys_rejected(self):
        data = mini_scenario()
        data["surprise"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)
        data = mini_scenario()
        data["clients"][2]["surprise"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)
        data = mini_scenario()
        data["links"]["clients"]["ghost"] = dict(ZERO_LINK)
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_client_without_link_rejected(self):
        data = mini_scenario()
        del data["links"]["clients"]["plain"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_category_name_rejected(self):
        data = mini_scenario()
        data["clients"][0]["analyze"] = ["smoke"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_empty_role_list_rejected(self):
        data = mini_scenario()
        data["clients"][0]["analyze"] = []
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_duplicate_client_names_rejected(self):
        data = mini_scenario()
        data["clients"][2]["name"] = "gated"
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_check_rejected(self):
        data = mini_scenario()
        data["checks"] = {"bogus": 1}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_delay_draws_validation(self):
        data = mini_scenario()
        data["delay_draws"] = {"count": 0, "seed": 1, "min_ms": 0, "max_ms": 5}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)
        data["delay_draws"] = {"count": 2, "seed": 1, "min_ms": 7, "max_ms": 5}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_detector_overrides_merge(self):
        data = mini_scenario()
        data["detector"] = {"pixel_delta_threshold": 30}
        data["clients"][0]["detector"] = {"grid_dim": 8}
        sc = scenario_from_dict(data)
        analyzer = sc.clients[0]
        assert analyzer.detector.pixel_delta_threshold == 30
        assert analyzer.detector.grid_dim == 8
        # non-analyzer clients still get the scenario-level config
        assert sc.clients[1].detector.pixel_delta_threshold == 30
        data["detector"] = {"nope": 1}
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_coverage_validation_matches_bruteforce(self):
        """Random role assignments: load succeeds iff a brute-force scan over
        (filter client x category) finds no category missing an analyzer."""
        names = ["strobe", "smoking", "alcohol"]
        rng = random.Random(2024)
        for trial in range(60):
            clients = []
            links = {}
            for i in range(rng.randint(0, 2)):
                cats = rng.sample(names, rng.randint(1, 3))
                clients.append({"name": f"an{i}", "analyze": cats})
            for i in range(rng.randint(0, 2)):
                cats = rng.sample(names, rng.randint(1, 3))
                clients.append({"name": f"fi{i}", "filter": cats})
            clients.append({"name": "plain"})
            for c in clients:
                links[c["name"]] = dict(ZERO_LINK)
            data = mini_scenario()
            data["clients"] = clients
            data["links"]["clients"] = links
            data["checks"] = {}

            analyzed = set()
            for c in clients:
                analyzed.update(c.get("analyze", []))
            expected_uncovered = {
                (c["name"], cat)
                for c in clients
                for cat in c.get("filter", [])
                if cat not in analyzed
            }

            if expected_uncovered:
                with pytest.raises(ScenarioError) as ei:
                    scenario_from_dict(data)
                for name, cat in expected_uncovered:
                    assert f"client {name!r}: no analyzer covers" in str(ei.value)
                    assert cat in str(ei.value)
            else:
                scenario_from_dict(data)


def _set(path, value):
    """Edit of mini_scenario(): assign ``value`` at the key path."""

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return edit


def _drop(path):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]

    return edit


# Rejections and their exact messages; a loader rewrite must keep them.
LOADER_MESSAGES = {
    "unknown_top_key": (_set(("surprise",), 1), "scenario: unknown keys ['surprise']"),
    "unknown_client_key": (
        _set(("clients", 2, "colour"), "red"),
        "scenario.clients[2]: unknown keys ['colour']",
    ),
    "missing_top_key": (_drop(("track",)), "scenario: missing keys ['track']"),
    "missing_source_key": (_drop(("source", "fps")), "scenario.source: missing keys ['fps']"),
    "missing_segment_key": (
        _drop(("source", "segments", 0, "level")),
        "scenario.source.segments[0]: missing keys ['level']",
    ),
    "bool_for_integer": (_set(("seed",), True), "scenario.seed: expected an integer, got True"),
    "string_for_number": (
        _set(("links", "publisher", "jitter_ms"), "x"),
        "scenario.links.publisher.jitter_ms: expected a number, got 'x'",
    ),
    "negative_delay": (
        _set(("links", "clients", "gated", "to_relay_ms"), -1),
        "scenario.links.clients.gated.to_relay_ms: must be >= 0.0, got -1",
    ),
    "zero_retention": (
        _set(("retention_groups",), 0),
        "scenario.retention_groups: must be >= 1, got 0",
    ),
    "bad_segment_kind": (
        _set(("source", "segments", 0, "kind"), "sawtooth"),
        "scenario.source.segments[0]: unknown segment kind 'sawtooth'",
    ),
    "zero_draw_count": (
        _set(("delay_draws",), {"count": 0, "seed": 1, "min_ms": 0, "max_ms": 5}),
        "scenario.delay_draws.count: must be >= 1, got 0",
    ),
    "draws_min_above_max": (
        _set(("delay_draws",), {"count": 2, "seed": 1, "min_ms": 7, "max_ms": 5}),
        "scenario.delay_draws: min_ms > max_ms",
    ),
    "band_low_above_high": (
        _set(("checks", "added_latency_band_ms"), [910.0, 890.0]),
        "scenario.checks.added_latency_band_ms: low > high",
    ),
    "uncovered_filter": (
        _set(("clients", 1, "filter"), ["strobe", "alcohol"]),
        "client 'gated': no analyzer covers alcohol",
    ),
    "detector_grid_zero": (
        _set(("clients", 0, "detector"), {"grid_dim": 0}),
        "scenario.clients[0].detector: grid_dim must be at least 1",
    ),
    "unsupported_category_code": (
        _set(("clients", 0, "analyze"), ["strobe", 127]),
        "scenario.clients[0].analyze: unsupported category 127",
    ),
    "stub_verdicts_not_object": (
        _set(("stub_verdicts",), ["smoking"]),
        "scenario.stub_verdicts: expected an object",
    ),
    "stub_verdict_unknown_name": (
        _set(("stub_verdicts",), {"beer": False}),
        "scenario.stub_verdicts: unknown category name 'beer'",
    ),
    "stub_verdict_for_strobe": (
        _set(("stub_verdicts",), {"strobe": False}),
        "scenario.stub_verdicts: 'strobe' has a real detector, not a stub",
    ),
    "stub_verdict_not_bool": (
        _set(("stub_verdicts",), {"smoking": 0}),
        "scenario.stub_verdicts.smoking: expected true/false",
    ),
    "section_not_object": (
        _set(("source",), [16, 16]),
        "scenario.source: expected an object, got list",
    ),
    "empty_string": (_set(("track",), ""), "scenario.track: expected a non-empty string"),
    "category_neither_name_nor_code": (
        _set(("clients", 0, "analyze"), [1.5]),
        "scenario.clients[0].analyze: expected a category name or code, got 1.5",
    ),
    "duplicate_category": (
        _set(("clients", 0, "analyze"), ["strobe", "strobe"]),
        "scenario.clients[0].analyze: duplicate category 'strobe'",
    ),
    "empty_segments": (
        _set(("source", "segments"), []),
        "scenario.source.segments: expected a non-empty list",
    ),
    "segment_without_kind": (
        _drop(("source", "segments", 0, "kind")),
        "scenario.source.segments[0]: expected an object with a 'kind'",
    ),
    "band_not_a_pair": (
        _set(("checks", "added_latency_band_ms"), [890.0]),
        "scenario.checks.added_latency_band_ms: expected [low, high]",
    ),
    "client_links_not_object": (
        _set(("links", "clients"), []),
        "scenario.links.clients: expected an object",
    ),
    "clients_empty": (_set(("clients",), []), "scenario.clients: expected a non-empty list"),
    "analysis_time_on_viewer": (
        _set(("clients", 2, "analysis_time_ms"), 5.0),
        "scenario.clients[2]: analysis_time_ms only applies to analyzers",
    ),
    "detector_on_viewer": (
        _set(("clients", 2, "detector"), {"grid_dim": 2}),
        "scenario.clients[2]: detector overrides only apply to analyzers",
    ),
    "detector_grid_above_frame": (
        _set(("clients", 0, "detector"), {"grid_dim": 17}),
        "scenario.clients[0].detector: grid_dim 17 exceeds frame dimensions 16x16",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADER_MESSAGES))
def test_loader_rejection_messages(case):
    edit, message = LOADER_MESSAGES[case]
    data = mini_scenario()
    edit(data)
    with pytest.raises(ScenarioError) as ei:
        scenario_from_dict(data)
    assert str(ei.value) == message


def test_stub_verdicts_load_as_the_set_of_rejected_stubs():
    data = mini_scenario()
    assert scenario_from_dict(data).rejected_stubs == frozenset()
    data["stub_verdicts"] = {"smoking": False, "alcohol": True}
    assert scenario_from_dict(data).rejected_stubs == {Category.SMOKING}


def _property_scenario() -> dict:
    """A valid mini scenario using every kind of scalar the loader reads."""
    data = mini_scenario()
    data["source"]["segments"] = [
        {"kind": "constant", "level": 128, "duration_ms": 1000},
        {"kind": "strobe", "low": 16, "high": 240, "flash_hz": 5.0, "duration_ms": 1000},
        {"kind": "ramp", "start_level": 60, "end_level": 180, "duration_ms": 1000},
    ]
    data["detector"] = {"pixel_delta_threshold": 20, "changed_fraction_threshold": 0.25}
    data["clients"][0]["detector"] = {"grid_dim": 8, "max_interchange_gap_ms": 100}
    data["delay_draws"] = {"count": 2, "seed": 1, "min_ms": 0, "max_ms": 5}
    data["retention_groups"] = 8
    data["duration_ms"] = 60_000.0
    data["playback_buffer_groups"] = 1.0
    return data


def _scalar_paths(value, path=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return [path]
    else:
        return []
    return [p for key, item in items for p in _scalar_paths(item, path + (key,))]


SCALAR_PATHS = _scalar_paths(_property_scenario())

#: Beyond what any field means: past int64 and the float range, denormal,
#: non-finite.
EXTREME = [2**31, 2**63, 10**400, -(10**400), 1e300, 5e-324, float("inf"), float("nan")]


@st.composite
def _replaced_scalar(draw):
    path = draw(st.sampled_from(SCALAR_PATHS))
    data = _property_scenario()
    target = data
    for key in path[:-1]:
        target = target[key]
    original = target[path[-1]]
    target[path[-1]] = draw(
        st.one_of(
            st.booleans(),
            st.text(max_size=3),
            st.none(),
            st.integers(min_value=-1000, max_value=-1),
            st.floats(min_value=-1000.0, max_value=-0.001),
            st.just(original + 0.5),
            st.sampled_from(EXTREME),
        )
    )
    return data


#: Sources longer than this are not rendered.
RENDER_LIMIT_FRAMES = 10_000


@settings(max_examples=300, deadline=None)
@given(_replaced_scalar())
def test_accepted_scenario_source_and_detectors_run(data):
    """Load accepts => the run cannot crash on the input: the source renders
    and every analyzer's detector samples its frames."""
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError:
        return
    source = scenario.source
    analyzers = [spec for spec in scenario.clients if spec.analyze]
    for spec in analyzers:
        assert spec.detector.grid_dim <= min(source.width, source.height)
    n_frames = sum(seg.duration_ms for seg in source.segments) * source.fps // 1000
    if n_frames > RENDER_LIMIT_FRAMES:
        return
    groups = rendered_groups(source)
    for spec in analyzers:
        detector = StrobeDetector(spec.detector)
        for group in groups:
            detector.analyze_group(received(group))


# ---------------------------------------------------------------------------
# end-to-end runs on inline mini scenarios
# ---------------------------------------------------------------------------


class TestRunScenario:
    def test_zero_delay_records(self):
        report = run_report(mini_scenario())
        run = report.data["runs"][0]
        an = run["records"]["analyzer0"]
        assert [r["group_id"] for r in an] == [0, 1]
        assert an[0]["first_arrival_ms"] == 0.0
        assert an[0]["complete_arrival_ms"] == 900.0
        assert an[0]["frame_count"] == 10
        assert an[1]["first_arrival_ms"] == 1000.0
        assert an[1]["complete_arrival_ms"] == 1900.0

        gated = run["records"]["gated"]
        assert gated[0]["first_arrival_ms"] == 900.0
        assert gated[0]["complete_arrival_ms"] == 900.0
        assert gated[0]["added_ms"] == 900.0
        assert gated[0]["e2e_ms"] == 900.0
        assert gated[1]["complete_arrival_ms"] == 1900.0
        assert gated[1]["added_ms"] == 900.0
        assert gated[1]["e2e_ms"] == 900.0
        assert an[0]["added_ms"] is None

        plain = run["records"]["plain"]
        assert plain[0]["complete_arrival_ms"] == 900.0
        assert run["delivered"]["gated"] == [0, 1]
        assert run["skipped"]["gated"] == []
        assert run["delivered"]["plain"] == [0, 1]

    def test_zero_delay_checks_pass(self):
        report = run_report(mini_scenario())
        assert report.passed is True
        verdicts = checks_by_name(report)
        assert verdicts == {
            "added_latency_band": True,
            "latency_bound": True,
            "gating_safety": True,
            "approval_audit": True,
            "realtime_analysis": True,
        }
        bounds = report.data["runs"][0]["bounds"]["gated"]
        assert bounds["predicted_ms"] == 1000.0
        assert bounds["max_observed_e2e_ms"] == 900.0
        assert bounds["max_added_ms"] == 900.0
        # playback: zero-delay arrivals never stall
        playback = report.data["runs"][0]["playback"]["gated"]
        assert playback["start_ms"] == 1900.0  # first complete + one-group buffer
        assert playback["stalls"] == []

    def test_band_check_fails_when_out_of_band(self):
        # All 7 groups reach "gated" 900 ms after the analyzer: the detail
        # names the first five, in order, and no more.
        data = mini_scenario()
        data["source"]["segments"][0]["duration_ms"] = 7000
        data["checks"] = {"added_latency_band_ms": [0.0, 10.0]}
        report = run_report(data)
        assert report.passed is False
        verdicts = checks_by_name(report)
        assert verdicts["added_latency_band"] is False
        assert verdicts["gating_safety"] is True
        assert verdicts["latency_bound"] is True
        assert check_named(report, "added_latency_band")["detail"] == (
            "outside [0.0, 10.0] ms: "
            + "; ".join(f"run 0 gated group {g}: 900.0" for g in range(5))
        )

    def test_impulse_gating_and_skip(self):
        report = run_report(impulse_scenario())
        assert report.passed is True
        run = report.data["runs"][0]
        assert run["delivered"]["gated"] == [0, 2]
        assert run["skipped"]["gated"] == [1]
        assert run["delivered"]["analyzer0"] == [0, 1, 2]
        assert run["delivered"]["plain"] == [0, 1, 2]
        gated = run["records"]["gated"]
        # 30 fps: last frame of a group is captured at g*1000 + 967
        assert gated[0]["complete_arrival_ms"] == 967.0
        assert gated[1]["group_id"] == 2
        assert gated[1]["complete_arrival_ms"] == 2967.0

    def test_oracle_reads_the_covering_analyzers_detector(self):
        # A blind strobe analyzer (no pixel delta reaches 255) flags no
        # group of strobe_impulse, so "gated" gets every group.  The other
        # clients keep the default detector, which flags groups 4 and 5; an
        # oracle that read theirs would expect those two skipped.
        data = json.loads(bundled_scenario_path("strobe_impulse").read_text(encoding="utf-8"))
        data["clients"][0]["detector"] = {"pixel_delta_threshold": 255}
        report = run_report(data)
        assert report.passed is True
        run = report.data["runs"][0]
        assert run["delivered"]["gated"] == list(range(10))
        assert run["skipped"]["gated"] == []
        assert checks_by_name(report)["gating_safety"] is True

    def test_oracle_reads_only_the_analyzers_detectors(self):
        # At 5 Hz the rises are 200 ms apart: the default detector, which
        # every non-analyzer client carries too, flags nothing, and the
        # analyzer's 250 ms window flags group 1.  An oracle that also read
        # the other clients' detectors would expect group 1 delivered.
        data = impulse_scenario()
        data["source"]["segments"][1]["flash_hz"] = 5.0
        data["clients"][0]["detector"] = {"max_interchange_gap_ms": 250}
        report = run_report(data)
        assert report.passed is True
        assert report.data["runs"][0]["delivered"]["gated"] == [0, 2]

    def test_realtime_violation_fails_report(self):
        data = mini_scenario()
        data["checks"] = {}
        data["clients"][0]["analysis_time_ms"] = 1500.0
        report = run_report(data)
        assert report.passed is False
        verdicts = checks_by_name(report)
        assert verdicts["realtime_analysis"] is False
        (realtime,) = [c for c in report.data["checks"] if c["name"] == "realtime_analysis"]
        assert realtime["detail"] == "analyzer0: analysis 1500.0 ms >= group 1000.0 ms"
        assert verdicts["gating_safety"] is True
        assert verdicts["latency_bound"] is True  # bound includes analysis time
        run = report.data["runs"][0]
        # approvals land late but in order: complete + 1500 ms
        assert run["records"]["gated"][0]["complete_arrival_ms"] == 2400.0
        assert run["delivered"]["gated"] == [0, 1]

    def test_stub_rejection_blocks_everything(self):
        data = mini_scenario()
        data["checks"] = {}
        data["clients"] = [
            {"name": "analyzer0", "analyze": ["smoking"]},
            {"name": "gated_smoke", "filter": ["smoking"]},
        ]
        data["links"]["clients"] = {
            "analyzer0": dict(ZERO_LINK),
            "gated_smoke": dict(ZERO_LINK),
        }
        data["stub_verdicts"] = {"smoking": False}
        report = run_report(data)
        assert report.passed is True
        run = report.data["runs"][0]
        assert run["delivered"]["gated_smoke"] == []
        assert run["skipped"]["gated_smoke"] == [0, 1]
        assert run["playback"]["gated_smoke"]["start_ms"] is None

    def test_report_json_bytes_identical_across_runs(self):
        data = mini_scenario()
        first = run_report(copy.deepcopy(data)).to_json()
        second = run_report(copy.deepcopy(data)).to_json()
        assert first == second
        parsed = json.loads(first)
        assert parsed["passed"] is True

    def test_jitter_is_seeded_and_deterministic(self):
        data = mini_scenario()
        data["checks"] = {}
        for spec in data["links"]["clients"].values():
            spec["jitter_ms"] = 2.0
        first = run_report(copy.deepcopy(data))
        second = run_report(copy.deepcopy(data))
        assert first.to_json() == second.to_json()
        assert first.passed is True

    def test_jittered_report_is_pinned(self):
        # No bundled scenario or benchmark workload has jitter, so their
        # digests cannot see a change in the draws; this report can.
        data = mini_scenario()
        data["checks"] = {}
        data["links"]["publisher"] = {"to_relay_ms": 5.0, "from_relay_ms": 5.0, "jitter_ms": 2.0}
        for spec in data["links"]["clients"].values():
            spec.update(to_relay_ms=5.0, from_relay_ms=5.0, jitter_ms=2.0)
        text = run_report(data).to_json()
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "e98d0bbd86bcc8fc84fc57f377cea5789f684e4e62e9007f7f03f0254e1a538a"
        )

    def test_csv_rows_cover_groups_times_clients(self):
        report = run_report(mini_scenario())
        lines = report.to_csv().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "run",
            "client",
            "group_id",
            "status",
            "first_arrival_ms",
            "complete_arrival_ms",
            "frame_count",
            "e2e_ms",
            "added_ms",
        ]
        assert len(lines) - 1 == 2 * 3  # groups x clients
        gated_row = next(l for l in lines[1:] if l.startswith("0,gated,0,"))
        cells = gated_row.split(",")
        assert cells[3] == "delivered"
        assert float(cells[5]) == 900.0
        assert float(cells[8]) == 900.0

    def test_csv_marks_skipped_groups(self):
        report = run_report(impulse_scenario())
        lines = report.to_csv().strip().splitlines()
        assert len(lines) - 1 == 3 * 3
        skipped_row = next(l for l in lines[1:] if l.startswith("0,gated,1,"))
        cells = skipped_row.split(",")
        assert cells[3] == "skipped"
        assert cells[4] == "" and cells[5] == "" and cells[8] == ""

    def test_text_render_has_check_lines(self):
        good = run_report(mini_scenario()).to_text()
        assert "[PASS] added_latency_band" in good
        assert "[PASS] gating_safety" in good
        assert "RESULT: PASSED" in good
        data = mini_scenario()
        data["checks"] = {"added_latency_band_ms": [0.0, 10.0]}
        bad = run_report(data).to_text()
        assert "[FAIL] added_latency_band" in bad
        assert "RESULT: FAILED" in bad

    def test_delay_draws_run_per_draw(self):
        data = mini_scenario()
        data["checks"] = {}
        data["delay_draws"] = {"count": 3, "seed": 9, "min_ms": 1, "max_ms": 9}
        report = run_report(copy.deepcopy(data))
        assert report.passed is True
        runs = report.data["runs"]
        assert [r["run"] for r in runs] == [0, 1, 2]
        seen = set()
        for run in runs:
            links = run["links"]
            values = [links["publisher"]["to_relay_ms"], links["publisher"]["from_relay_ms"]]
            for name in ("analyzer0", "gated", "plain"):
                values.append(links["clients"][name]["to_relay_ms"])
                values.append(links["clients"][name]["from_relay_ms"])
            assert all(1 <= v <= 9 and float(v).is_integer() for v in values)
            seen.add(tuple(values))
        assert len(seen) > 1  # draws actually vary
        again = run_report(copy.deepcopy(data))
        assert again.to_json() == report.to_json()

    def test_event_log_grows_with_groups_not_frames(self, monkeypatch):
        # Every logged event is per group (approval, delivery), so 200 fps
        # logs exactly what 30 fps does.  The kinds are pinned, so a new
        # kind, or one that comes back to restate what a record or the
        # relay's state already holds, fails here.
        kinds: list[str] = []
        emit = EventLog.emit

        def recording_emit(log, source, kind, **detail):
            kinds.append(kind)
            return emit(log, source, kind, **detail)

        monkeypatch.setattr(EventLog, "emit", recording_emit)
        logged = []
        for fps in (30, 200):
            data = mini_scenario()
            data["source"]["fps"] = fps
            data["source"]["segments"] = [
                {"kind": "constant", "level": 128, "duration_ms": 10_000}
            ]
            data["checks"] = {}
            kinds.clear()
            assert run_report(data).passed is True
            logged.append(Counter(kinds))
        assert logged[0]["approve_recorded"] == 10
        assert set(logged[0]) == {"approve_recorded", "group_delivered"}
        assert logged[0] == logged[1]

    def test_event_heap_does_not_grow_with_run_length(self, monkeypatch):
        # The publisher keeps one pending event, so the most events ever
        # waiting at once is the same at 50 and at 400 groups.
        high = 0
        heappop = heapq.heappop

        def recording_pop(heap):
            nonlocal high
            high = max(high, len(heap))
            return heappop(heap)

        monkeypatch.setattr(heapq, "heappop", recording_pop)
        link = {"to_relay_ms": 5.0, "from_relay_ms": 7.0, "jitter_ms": 0.0}
        marks = []
        for n_groups in (50, 400):
            data = mini_scenario()
            data["checks"] = {}
            data["source"].update(width=4, height=4)
            data["clients"][0]["detector"] = {"grid_dim": 4}
            data["source"]["segments"] = [
                {"kind": "constant", "level": 128, "duration_ms": 1000 * n_groups}
            ]
            data["links"] = {
                "publisher": link,
                "clients": {"analyzer0": link, "gated": link, "plain": link},
            }
            high = 0
            report = run_report(data)
            assert report.passed is True and report.data["n_groups"] == n_groups
            marks.append(high)
        assert marks[0] == marks[1] < 50  # fewer events than the short run has groups

    @pytest.mark.parametrize("seed", [0, 2])
    def test_publisher_jitter_fails_a_check_not_the_run(self, seed, monkeypatch):
        # 100 ms groups with 200 ms publisher jitter: group 3's stream ends
        # before group 2's, so the relay refuses it as out of order and fails
        # the publisher's session.  The analyzer saw group 3 live and approves
        # it, which fails its session too; the gated client misses groups 2-4,
        # and gating_safety names both failed sessions with the reason.
        relay_events = []
        emit = EventLog.emit

        def recording_emit(log, source, kind, **detail):
            if source == "relay" and kind == "protocol_error":
                relay_events.append(detail)
            return emit(log, source, kind, **detail)

        monkeypatch.setattr(EventLog, "emit", recording_emit)
        report = run_report(publisher_jitter_scenario(seed))
        assert relay_events == [
            {"sid": "publisher", "reason": "track 'cam' expected group 2, got 3"},
            {"sid": "analyzer0", "reason": "approval for group 3 of track 'cam', which has not been ingested"},
        ]
        assert check_named(report, "gating_safety") == {
            "name": "gating_safety",
            "passed": False,
            "detail": "run 0 gated: delivered [0, 1], expected [0, 1, 2, 3, 4]; "
            "run 0 relay failed publisher: track 'cam' expected group 2, got 3; "
            "run 0 relay failed analyzer0: approval for group 3 of track 'cam', "
            "which has not been ingested",
        }

    def test_virtual_time_cap_yields_partial_report(self):
        data = mini_scenario()
        data["duration_ms"] = 500.0
        with pytest.raises(ScenarioTimeoutError) as ei:
            run_report(data)
        assert "exceeds budget 500.0 ms" in str(ei.value)
        partial = ei.value.report
        assert partial.data["timeout"] is True
        assert partial.passed is False

    def test_a_timed_out_report_names_what_it_had_not_done(self):
        # At 500 ms no group is complete: the checks run over the partial
        # run, and gating_safety names the groups the filtered client never
        # got.  The report still does not pass.
        data = mini_scenario()
        data["duration_ms"] = 500.0
        with pytest.raises(ScenarioTimeoutError) as ei:
            run_report(data)
        partial = ei.value.report
        assert [c["name"] for c in partial.data["checks"]] == [
            "added_latency_band", "latency_bound", "gating_safety", "approval_audit", "realtime_analysis"
        ]
        assert check_named(partial, "gating_safety") == {
            "name": "gating_safety",
            "passed": False,
            "detail": "run 0 gated: delivered [], expected [0, 1]",
        }
        assert partial.data["timeout"] is True and partial.passed is False

    def test_delay_draws_stop_at_the_first_run_that_times_out(self):
        data = mini_scenario()
        data["duration_ms"] = 500.0
        data["delay_draws"] = {"count": 3, "seed": 1, "min_ms": 0, "max_ms": 5}
        with pytest.raises(ScenarioTimeoutError) as ei:
            run_report(data)
        partial = ei.value.report
        assert [run["run"] for run in partial.data["runs"]] == [0]
        assert partial.data["timeout"] is True

    def test_event_cap_is_named_when_it_stops_a_run(self, monkeypatch):
        run_until_idle = moqgate.harness.SimNetwork.run_until_idle

        def capped(net, max_virtual_ms):
            return run_until_idle(net, max_virtual_ms, max_events=10)

        monkeypatch.setattr(moqgate.harness.SimNetwork, "run_until_idle", capped)
        with pytest.raises(ScenarioTimeoutError) as ei:
            run_report(mini_scenario())
        assert str(ei.value) == "scenario 'mini' stopped early: exceeded event budget of 10"
        assert ei.value.report.data["timeout"] is True
        # report.json keeps "timeout" a bool, so the text names both budgets.
        text = ei.value.report.to_text().splitlines()
        assert text[-2:] == [
            "WARNING: a run exhausted its virtual-time or event budget; report is partial",
            "RESULT: FAILED",
        ]


def _scan(scenario: Scenario, events: list[tuple]) -> tuple:
    """The facts the checks read, taken from a run's full event list in one
    pass once the run is over, and each analyzer's recorded approvals as
    ``(group, categories)`` in order."""
    recorded: dict[str, list] = {spec.name: [] for spec in scenario.clients if spec.analyze}
    approved_at: dict[tuple[int, int], float] = {}
    gated = []
    faults = []
    filtered = {spec.name for spec in scenario.clients if spec.filter}
    fault_kinds = ("detector_error", "approve_failed", "approve_ignored", "publish_failed", "protocol_error")
    for time_ms, source, kind, detail in events:
        if kind == "approve_recorded":
            recorded[detail["sid"]].append((detail["group_id"], detail["categories"]))
            for code in detail["categories"]:
                approved_at.setdefault((detail["group_id"], code), time_ms)
        elif kind == "group_delivered" and detail["sid"] in filtered:
            gated.append((time_ms, detail["sid"], detail["group_id"]))
        elif kind in fault_kinds:
            faults.append([time_ms, source, kind, detail])
    return recorded, approved_at, gated, faults


def _bundled(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))


class TestRunLedger:
    """Each run folds the facts its checks read as events are emitted and
    keeps no event list."""

    def test_no_harness_log_keeps_an_event(self, monkeypatch):
        logs: list[EventLog] = []

        def recording_log(*args, **kwargs):
            logs.append(EventLog(*args, **kwargs))
            return logs[-1]

        monkeypatch.setattr(moqgate.harness, "EventLog", recording_log)
        emitted = 0
        emit = EventLog.emit

        def counting_emit(log, source, kind, **detail):
            nonlocal emitted
            emitted += 1
            return emit(log, source, kind, **detail)

        monkeypatch.setattr(EventLog, "emit", counting_emit)
        report = run_scenario(_bundled("random_delays"))
        assert report.passed is True
        assert len(logs) == len(report.data["runs"]) == 20
        assert emitted == 20 * 2 * 5  # every run recorded and delivered each of its 5 groups
        assert [log.events for log in logs] == [[]] * 20

    @pytest.mark.parametrize(
        "scenario, fails_sessions",
        [
            pytest.param(lambda: _bundled("strobe_impulse"), False, id="strobe_impulse"),
            pytest.param(lambda: _bundled("random_delays"), False, id="random_delays"),
            pytest.param(
                lambda: scenario_from_dict(publisher_jitter_scenario(0)), True, id="publisher_jitter"
            ),
        ],
    )
    def test_folded_facts_equal_a_scan_of_the_full_log(self, scenario, fails_sessions, monkeypatch):
        scenario = scenario()
        full_logs: list[list[tuple]] = []
        results = []
        run_once = moqgate.harness._run_once

        def recording_run_once(*args):
            full_logs.append([])
            results.append(run_once(*args))
            return results[-1]

        emit = EventLog.emit

        def recording_emit(log, source, kind, **detail):
            full_logs[-1].append((log.clock(), source, kind, detail))
            return emit(log, source, kind, **detail)

        monkeypatch.setattr(moqgate.harness, "_run_once", recording_run_once)
        monkeypatch.setattr(EventLog, "emit", recording_emit)
        run_scenario(scenario)
        assert len(results) == (scenario.delay_draws.count if scenario.delay_draws else 1)
        for result, events in zip(results, full_logs):
            recorded, approved_at, gated, faults = _scan(scenario, events)
            assert result.approved_at == approved_at
            assert result.gated_deliveries == gated
            assert result.faults == faults
            assert approved_at and gated
            refused = [detail for _, _, kind, detail in faults if kind == "protocol_error"]
            assert bool(refused) is fails_sessions
            # Each analyzer's approvals are the ones the relay recorded, in
            # order, then the one the relay refused as it failed the analyzer.
            assert list(result.approvals_sent) == list(recorded)
            for name, approvals in result.approvals_sent.items():
                sent = [(group_id, categories) for _, group_id, categories in approvals]
                assert sent[: len(recorded[name])] == recorded[name]
                unrecorded = sent[len(recorded[name]) :]
                reasons = [d["reason"] for d in refused if d["sid"] == name]
                assert len(unrecorded) == len(reasons)
                for (group_id, _), reason in zip(unrecorded, reasons):
                    assert reason.startswith(f"approval for group {group_id} of track")


class TestFaults:
    """Each run's report lists the faults its peers hit, in order, under
    ``faults``, and the text report prints each one."""

    def test_approvals_of_evicted_groups_are_listed(self):
        # Retention 1, and an analyzer 300 ms away that takes 500 ms: group
        # g's approval reaches the relay at 1000g + 2000 ms, after group
        # g + 1 ended at 1000g + 1900 and evicted it.  Only the last group's
        # approval finds it held.
        data = mini_scenario()
        data["source"]["segments"][0]["duration_ms"] = 4000
        data["retention_groups"] = 1
        data["links"]["clients"]["analyzer0"] = {"to_relay_ms": 300.0, "from_relay_ms": 300.0, "jitter_ms": 0.0}
        data["clients"][0]["analysis_time_ms"] = 500.0
        data["checks"] = {}
        report = run_report(data)
        assert report.data["runs"][0]["faults"] == [
            [1000.0 * g + 2000.0, "relay", "approve_ignored",
             {"sid": "analyzer0", "group_id": g, "reason": "group evicted"}]
            for g in range(3)
        ]
        assert check_named(report, "gating_safety") == {
            "name": "gating_safety",
            "passed": False,
            "detail": "run 0 gated: delivered [3], expected [0, 1, 2, 3]",
        }
        assert (
            "run 0 relay approve_ignored at 2000.0 ms: sid=analyzer0 group_id=0 reason=group evicted\n"
            in report.to_text()
        )

    def test_a_detector_error_is_listed_and_printed(self, monkeypatch):
        analyze_group = StrobeDetector.analyze_group

        def failing_on_group_1(detector, group):
            if group.frames[0][3] == 1000:  # group 1's first capture time
                raise RuntimeError("lens cap on")
            return analyze_group(detector, group)

        monkeypatch.setattr(StrobeDetector, "analyze_group", failing_on_group_1)
        report = run_report(mini_scenario())
        fault = [1900.0, "analyzer0", "detector_error",
                 {"group_id": 1, "category": Category.STROBE, "error": "lens cap on"}]
        assert report.data["runs"][0]["faults"] == [fault]
        assert json.loads(report.to_json())["runs"][0]["faults"] == [fault]
        assert (
            "run 0 analyzer0 detector_error at 1900.0 ms: group_id=1 category=1 error=lens cap on\n"
            in report.to_text()
        )
        assert report.data["runs"][0]["delivered"]["gated"] == [0]  # group 1 failed closed

    def test_a_run_without_faults_has_no_faults_key(self):
        report = run_report(mini_scenario())
        assert report.passed is True
        assert "faults" not in report.data["runs"][0]
        assert "faults" not in report.to_json()


def check_named(report: Report, name: str) -> dict:
    (check,) = [c for c in report.data["checks"] if c["name"] == name]
    return check


def analyzer_late_by(extra_ms: float) -> type:
    """An analyzer client that takes ``extra_ms`` more than its scenario
    declares, so each approval leaves that much after complete arrival +
    analysis time."""

    class LateAnalyzer(moqgate.client.AnalyzerClient):
        def __init__(self, *args, analysis_time_ms, **kwargs):
            super().__init__(*args, analysis_time_ms=analysis_time_ms + extra_ms, **kwargs)

    return LateAnalyzer


class TestFailingChecks:
    """Each check forced to fail on the mini scenario (2 groups, zero
    delays), with its whole check dict pinned."""

    def test_latency_bound(self, monkeypatch):
        # e2e 900 ms against bound 1000 ms: only a margin below -100 fails
        monkeypatch.setattr(moqgate.harness, "BOUND_EPSILON_MS", -150.0)
        assert check_named(run_report(mini_scenario()), "latency_bound") == {
            "name": "latency_bound",
            "passed": False,
            "detail": "run 0 gated group 0: 900.0 ms > bound 1000.0 + -150.0; "
            "run 0 gated group 1: 900.0 ms > bound 1000.0 + -150.0",
        }

    def test_gating_safety(self, monkeypatch):
        # The oracle calls group 0 risky; the analyzer approves it anyway.
        monkeypatch.setattr(moqgate.harness, "predict_risky_groups", lambda source, config: {0})
        assert check_named(run_report(mini_scenario()), "gating_safety") == {
            "name": "gating_safety",
            "passed": False,
            "detail": "run 0 gated: delivered [0, 1], expected [1]",
        }

    def test_approval_audit(self, monkeypatch):
        # Without the relay's approve_recorded events no delivery is covered.
        emit = EventLog.emit

        def dropping_emit(log, source, kind, **detail):
            if (source, kind) != ("relay", "approve_recorded"):
                return emit(log, source, kind, **detail)

        monkeypatch.setattr(EventLog, "emit", dropping_emit)
        assert check_named(run_report(mini_scenario()), "approval_audit") == {
            "name": "approval_audit",
            "passed": False,
            "detail": "run 0 gated group 0: category strobe not approved at delivery; "
            "run 0 gated group 1: category strobe not approved at delivery",
        }

    def test_realtime_approval_schedule(self, monkeypatch):
        monkeypatch.setattr(moqgate.harness, "AnalyzerClient", analyzer_late_by(10.0))
        assert check_named(run_report(mini_scenario()), "realtime_analysis") == {
            "name": "realtime_analysis",
            "passed": False,
            "detail": "run 0 analyzer0 group 0: approval at 910.0 ms, expected 900.0 ms; "
            "run 0 analyzer0 group 1: approval at 1910.0 ms, expected 1900.0 ms",
        }


class TestCheckBoundaries:
    """Each check on its own boundary, on the mini scenario: every filtered
    delivery adds 900 ms with an e2e of 900 ms against a 1000 ms bound, and
    a group lasts 1000 ms."""

    @pytest.mark.parametrize("band", [[900.0, 910.0], [890.0, 900.0]])
    def test_added_latency_on_either_end_of_the_band_passes(self, band):
        data = mini_scenario()
        data["checks"] = {"added_latency_band_ms": band}
        check = check_named(run_report(data), "added_latency_band")
        assert check["passed"] is True
        assert check["detail"] == f"2 filtered deliveries within [{band[0]}, {band[1]}] ms"

    def test_e2e_exactly_at_the_bound_plus_margin_passes(self, monkeypatch):
        monkeypatch.setattr(moqgate.harness, "BOUND_EPSILON_MS", -100.0)
        check = check_named(run_report(mini_scenario()), "latency_bound")
        assert check["passed"] is True

    def test_analysis_of_exactly_one_group_fails_realtime(self):
        data = mini_scenario()
        data["checks"] = {}
        data["clients"][0]["analysis_time_ms"] = 1000.0
        assert check_named(run_report(data), "realtime_analysis") == {
            "name": "realtime_analysis",
            "passed": False,
            "detail": "analyzer0: analysis 1000.0 ms >= group 1000.0 ms",
        }

    def test_an_approval_half_a_millisecond_late_fails_realtime(self, monkeypatch):
        # Late beyond the check's tolerance, by far less than a frame.
        monkeypatch.setattr(moqgate.harness, "AnalyzerClient", analyzer_late_by(0.5))
        assert check_named(run_report(mini_scenario()), "realtime_analysis") == {
            "name": "realtime_analysis",
            "passed": False,
            "detail": "run 0 analyzer0 group 0: approval at 900.5 ms, expected 900.0 ms; "
            "run 0 analyzer0 group 1: approval at 1900.5 ms, expected 1900.0 ms",
        }

    def test_a_protocol_error_in_a_run_with_right_deliveries_passes_gating(self, monkeypatch):
        # The relay fails the plain viewer, which no filter covers: the run's
        # report lists the refusal as a fault, and every filtered client
        # still gets exactly the approved groups.
        class UnknownMessageViewer(moqgate.client.SubscriberClient):
            def start(self):
                super().start()
                if self.filter_categories is None:  # the plain viewer
                    self.session.send_control(bytes([0x04, 0x02, 0x01]))

        monkeypatch.setattr(moqgate.harness, "SubscriberClient", UnknownMessageViewer)
        report = run_report(mini_scenario())
        fault = [0.0, "relay", "protocol_error",
                 {"reason": "undecodable control bytes: unknown message type 0x04", "sid": "plain"}]
        assert report.data["runs"][0]["faults"] == [fault]
        assert (
            "run 0 relay protocol_error at 0.0 ms: sid=plain "
            "reason=undecodable control bytes: unknown message type 0x04\n"
        ) in report.to_text()
        text = report.to_json()
        assert json.loads(text)["runs"][0]["faults"] == [fault]
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
        assert report.data["runs"][0]["delivered"]["gated"] == [0, 1]
        assert check_named(report, "gating_safety") == {
            "name": "gating_safety",
            "passed": True,
            "detail": "every filtered client received exactly the approved groups, in order",
        }


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------


class TestBundledFixtures:
    def test_paper_replication_adds_one_group_of_latency(self):
        report = run_scenario(load_scenario(bundled_scenario_path("paper_replication")))
        assert report.passed is True
        run = report.data["runs"][0]
        gated = run["records"]["gated"]
        assert [r["group_id"] for r in gated] == list(range(10))
        # 200 fps: last frame at g*1000 + 995; zero link delay, zero analysis
        for r in gated:
            assert r["added_ms"] == 995.0
            assert r["e2e_ms"] == 995.0
        bounds = run["bounds"]["gated"]
        assert bounds["predicted_ms"] == 1000.0
        assert bounds["max_observed_e2e_ms"] == 995.0

    def test_strobe_impulse_skips_risky_groups(self):
        report = run_scenario(load_scenario(bundled_scenario_path("strobe_impulse")))
        assert report.passed is True
        run = report.data["runs"][0]
        assert run["delivered"]["gated"] == [0, 1, 2, 3, 6, 7, 8, 9]
        assert run["skipped"]["gated"] == [4, 5]
        assert run["delivered"]["analyzer0"] == list(range(10))
        assert run["delivered"]["plain"] == list(range(10))
        # pub uplink 10 + downlink 5 puts first frame at 15; last frame lands
        # at 982; approve (5 ms analysis) reaches relay at 992; burst at 997.
        gated = run["records"]["gated"]
        assert gated[0]["complete_arrival_ms"] == 997.0
        assert gated[0]["added_ms"] == 982.0
        # the two skipped groups stall playback for exactly their duration
        playback = run["playback"]["gated"]
        assert playback["start_ms"] == 1997.0
        assert playback["stalls"] == [[5997.0, 1000.0]]
        assert playback["total_stall_ms"] == 1000.0

    def test_multi_category_approves_only_safe_category(self):
        report = run_scenario(load_scenario(bundled_scenario_path("multi_category")))
        assert report.passed is True
        run = report.data["runs"][0]
        assert run["delivered"]["filter_smoke"] == [0, 1, 2]
        assert run["delivered"]["filter_strobe"] == []
        assert run["skipped"]["filter_strobe"] == [0, 1, 2]
        assert run["delivered"]["plain"] == [0, 1, 2]
        # every approval carried the smoking category only (code 2)
        approvals = run["approvals"]["analyzer0"]
        assert approvals == [[0, [2]], [1, [2]], [2, [2]]]

    def test_random_delays_hold_the_latency_bound(self):
        report = run_scenario(load_scenario(bundled_scenario_path("random_delays")))
        assert report.passed is True
        runs = report.data["runs"]
        assert len(runs) == 20
        for run in runs:
            bounds = run["bounds"]["gated"]
            assert bounds["max_observed_e2e_ms"] <= bounds["predicted_ms"] + 2.0
            # 125 fps: the last frame leaves one spacing (8 ms) before the
            # group boundary, so the bound is met with exactly 8 ms to spare
            assert bounds["predicted_ms"] - bounds["max_observed_e2e_ms"] == 8.0

    def test_random_delays_encodes_each_frame_once(self, monkeypatch):
        # The 20 delay draws all send the publication rendered up front: one
        # render of 625 frame chunks (5 s at 125 fps), not one per draw.
        renders = []

        def counting_render(source, track):
            renders.append(generate_groups(source, track))
            return renders[-1]

        monkeypatch.setattr(moqgate.harness, "generate_groups", counting_render)
        report = run_scenario(load_scenario(bundled_scenario_path("random_delays")))
        assert len(report.data["runs"]) == 20
        assert len(renders) == 1
        assert sum(len(group.chunks) for group in renders[0]) == 625

    def test_runs_leave_no_relay_for_the_cyclic_collector(self, monkeypatch):
        # Sessions point at each other and their callbacks at the relay and
        # clients; each run must tear that graph down itself, so with the
        # cyclic collector off no run's relay outlives run_scenario.
        servers = []
        init = RelayServer.__init__

        def recording_init(server, *args, **kwargs):
            init(server, *args, **kwargs)
            servers.append(weakref.ref(server))

        monkeypatch.setattr(RelayServer, "__init__", recording_init)
        scenario = load_scenario(bundled_scenario_path("random_delays"))
        gc.disable()
        try:
            run_scenario(scenario)
            alive = [ref for ref in servers if ref() is not None]
        finally:
            gc.enable()
        assert len(servers) == 20
        assert alive == []

    def test_predict_bounds(self):
        assert predict_bounds(load_scenario(bundled_scenario_path("paper_replication"))) == {
            "gated": 1000.0
        }
        # gop 1000 + pub 10 + analyzer down 5 + analyzer up 5 + analysis 12 + sub down 5
        assert predict_bounds(load_scenario(bundled_scenario_path("random_delays"))) == {
            "gated": 1037.0
        }
        assert predict_bounds(load_scenario(bundled_scenario_path("multi_category"))) == {
            "filter_smoke": 1000.0,
            "filter_strobe": 1000.0,
        }


_LINK_MS = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
_LINKS = st.fixed_dictionaries(
    {"to_relay_ms": _LINK_MS, "from_relay_ms": _LINK_MS, "jitter_ms": _LINK_MS}
)
_CATEGORY_NAMES = ["strobe", "smoking", "alcohol"]


@st.composite
def _bound_scenarios(draw) -> dict:
    """1-3 analyzers with overlapping category sets and 1-3 filtered
    clients, each filtering on categories some analyzer covers."""
    categories = st.lists(st.sampled_from(_CATEGORY_NAMES), min_size=1, unique=True)
    analyzers = [
        {
            "name": f"analyzer{i}",
            "analyze": draw(categories),
            "analysis_time_ms": draw(st.floats(min_value=0.0, max_value=500.0)),
        }
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    covered = sorted({c for a in analyzers for c in a["analyze"]})
    gated = [
        {"name": f"gated{i}", "filter": draw(st.lists(st.sampled_from(covered), min_size=1, unique=True))}
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    data = mini_scenario()
    gop = 100 * draw(st.integers(min_value=1, max_value=50))  # whole 10 fps frames
    data["source"]["gop_duration_ms"] = gop
    data["source"]["segments"][0]["duration_ms"] = 2 * gop
    data["clients"] = analyzers + gated
    data["links"] = {
        "publisher": draw(_LINKS),
        "clients": {c["name"]: draw(_LINKS) for c in data["clients"]},
    }
    data["checks"] = {}
    return data


def _hand_bound(data: dict, name: str) -> float:
    """The bound spelled out term by term from the scenario's own fields."""
    (spec,) = [c for c in data["clients"] if c["name"] == name]
    covering = [a for a in data["clients"] if set(a.get("analyze", ())) & set(spec["filter"])]
    links = data["links"]["clients"]
    pub = data["links"]["publisher"]
    worst_down = max(links[a["name"]]["from_relay_ms"] + links[a["name"]]["jitter_ms"] for a in covering)
    worst_up = max(links[a["name"]]["to_relay_ms"] + links[a["name"]]["jitter_ms"] for a in covering)
    worst_analysis = max(a["analysis_time_ms"] for a in covering)
    return (
        data["source"]["gop_duration_ms"]
        + pub["to_relay_ms"]
        + pub["jitter_ms"]
        + worst_down
        + worst_up
        + worst_analysis
        + links[name]["from_relay_ms"]
        + links[name]["jitter_ms"]
    )


@settings(max_examples=200, deadline=None)
@given(_bound_scenarios())
def test_predict_bounds_matches_the_hand_written_sum(data):
    bounds = predict_bounds(scenario_from_dict(data))
    assert sorted(bounds) == sorted(c["name"] for c in data["clients"] if "filter" in c)
    for name, bound in bounds.items():
        assert abs(bound - _hand_bound(data, name)) <= 1e-9


# The benchmark's golden digests of the bundled reports as shipped and of
# its synthetic workloads; any change to a report's bytes must re-record
# them on purpose.
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_GOLDEN_ALL = json.loads((_PERFBENCH / "golden.json").read_text())
_GOLDEN = _GOLDEN_ALL["bundled"]


def test_golden_digests_cover_every_bundled_scenario():
    assert sorted(_GOLDEN) == bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_bundled_report_matches_golden_digest(name):
    text = run_scenario(load_scenario(bundled_scenario_path(name))).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN[name]


@pytest.mark.parametrize("workload", ["live_fanout", "gated_fanout", "big_groups"])
def test_synthetic_workload_reports_match_golden_digests(workload, monkeypatch):
    # 64 plain clients, 96 filtered clients over three filter sets, and
    # 2 MB groups: sizes no bundled scenario reaches.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import workloads

    digests = {
        scenario.name: hashlib.sha256(run_scenario(scenario).to_json().encode()).hexdigest()
        for scenario in workloads.load(workload, workloads.DEFAULT_SEED)
    }
    assert digests == _GOLDEN_ALL[workload]


# ---------------------------------------------------------------------------
# report.json writer
# ---------------------------------------------------------------------------

JSON_KEYS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", "€", "😀"])
JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf")]
)
JSON_SCALARS = (
    st.integers(-(2**80), 2**80)
    | st.booleans()
    | st.none()
    | st.sampled_from(list(Category))
    | JSON_FLOATS
    | st.text(max_size=8)
)
JSON_ROWS = st.builds(
    RecordRow,
    group_id=st.integers(-(2**80), 2**80),
    first_arrival_ms=JSON_FLOATS,
    complete_arrival_ms=JSON_FLOATS,
    frame_count=st.integers(-(2**80), 2**80),
    e2e_ms=JSON_FLOATS,
    added_ms=st.none() | JSON_FLOATS,
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=20,
)
JSON_ROW_TREES = st.recursive(
    JSON_ROWS | JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(JSON_KEYS, children, max_size=3),
    max_leaves=10,
)


class _Milliseconds(float):
    pass


def _row_cases() -> dict[str, dict]:
    """Row fields, over :data:`_RECORD`, at the edges of the fast path."""
    cases = {}
    for field in ("first_arrival_ms", "complete_arrival_ms", "e2e_ms", "added_ms"):
        for value in (float("nan"), float("inf"), -float("inf")):
            cases[f"{field} {value}"] = {field: value}
        cases[f"{field} a float subclass"] = {field: _Milliseconds(12.5)}
    cases["added_ms None"] = {"added_ms": None}
    cases["added_ms a float"] = {"added_ms": 3.25}
    cases["added_ms an int"] = {"added_ms": 3}
    for field in ("group_id", "frame_count"):
        cases[f"{field} a bool"] = {field: True}
        cases[f"{field} a Category"] = {field: Category.STROBE}
    cases["finite floats whose sum overflows"] = {
        "first_arrival_ms": 1e308, "complete_arrival_ms": 1e308, "e2e_ms": -0.0
    }
    cases["the least float and an int past 64 bits"] = {"e2e_ms": 5e-324, "frame_count": 2**80}
    return cases


ROW_CASES = _row_cases()
_TOOLS = Path(__file__).resolve().parent.parent / "tools"


class TestReportJson:
    """``Report.to_json`` writes what ``json.dumps`` writes."""

    @settings(max_examples=100, deadline=None)
    @given(tree=st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
    def test_matches_json_dumps(self, tree):
        assert Report(tree).to_json() == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    def test_subclasses_print_as_json_prints_them(self):
        class Text(str):
            pass

        data = {"category": Category.STROBE, "text": Text("x"), "empty": ([], {})}
        assert Report(data).to_json() == json.dumps(data, sort_keys=True, indent=2) + "\n"

    def test_row_fields_of_a_float_subclass_print_as_floats(self):
        class Milliseconds(float):
            pass

        row = RecordRow(group_id=7, **dict(_RECORD, e2e_ms=Milliseconds(12.5)))
        want = json.dumps({"row": dict(row)}, sort_keys=True, indent=2) + "\n"
        assert Report({"row": row}).to_json() == want
        assert '"e2e_ms": 12.5' in want
        assert repr(row) == f"RecordRow({dict(row)!r})"

    @pytest.mark.parametrize("data", [{1: "a"}, {"a": {None: 1}}, {"a": [{2.5: 1}]}])
    def test_non_str_key_is_type_error(self, data):
        with pytest.raises(TypeError, match="report keys must be str"):
            Report(data).to_json()

    @pytest.mark.parametrize("data", [5, None, True])
    def test_a_report_that_is_not_a_dict_is_type_error(self, data):
        with pytest.raises(TypeError, match="a report is a dict"):
            Report(data).to_json()

    def test_unserializable_value_is_type_error(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            Report({"a": object()}).to_json()

    def test_peak_memory_is_at_most_two_and_a_half_texts(self):
        # The floor for a writer that returns one str is 2x the text: the
        # finished pieces plus their joined copy.  Holding one piece per
        # item until the end peaks near 4x.
        report = _records_report(lambda group_id: dict(_RECORD, group_id=group_id))
        text, peak, _ = _traced(report.to_json)
        assert len(text) >= 200_000
        assert peak <= 2.5 * len(text)

    def test_peak_memory_with_record_rows_is_at_most_two_and_a_half_texts(self):
        report = _records_report(lambda group_id: RecordRow(group_id=group_id, **_RECORD))
        text, peak, _ = _traced(report.to_json)
        assert text == _records_report(lambda group_id: dict(_RECORD, group_id=group_id)).to_json()
        assert len(text) >= 200_000
        assert peak <= 2.5 * len(text)

    @settings(max_examples=100, deadline=None)
    @given(
        tree=st.fixed_dictionaries(
            {
                "items": st.lists(JSON_ROWS, max_size=3),
                "values": st.dictionaries(JSON_KEYS, JSON_ROWS, max_size=3),
                "nested": st.lists(st.lists(JSON_ROWS, max_size=2), max_size=2),
                "mixed": JSON_ROW_TREES,
            }
        )
    )
    def test_rows_print_as_json_prints_their_dicts(self, tree):
        assert Report(tree).to_json() == json.dumps(_plain(tree), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fields", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_rows_at_the_edges_of_the_fast_path_print_as_json_prints_their_dicts(self, fields):
        # A row takes one f-string of reprs only when its arrival fields are
        # exact finite floats, its ids exact ints and added_ms None or an
        # exact finite float; each case sits on one side of that line.
        row = RecordRow(**{**_RECORD, "group_id": 7, **fields})
        data = {"rows": [row, [row]], "row": row}
        want = json.dumps(_plain(data), sort_keys=True, indent=2) + "\n"
        assert Report(data).to_json() == want

    @pytest.mark.parametrize(
        "items",
        [[], [0, -1, 2**80], (3, 4), [1, True, 3], [True], [Category.STROBE, 2], [1, 2.5], [1, None]],
        ids=repr,
    )
    def test_lists_print_as_json_prints_them(self, items):
        # A list of exact ints only is written in one join.
        data = {"list": items, "nested": [items, [items], {"k": items}]}
        assert Report(data).to_json() == json.dumps(data, sort_keys=True, indent=2) + "\n"

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="opcode counts depend on the bytecode; they are pinned on CPython 3.11",
    )
    def test_a_row_costs_at_most_128_opcodes(self, monkeypatch):
        # Written value by value through _item_text, the row took 229.
        monkeypatch.syspath_prepend(str(_TOOLS))
        import opcodes

        from moqgate.report import _row_text

        row = RecordRow(group_id=7, **_RECORD)
        text = []
        counts = opcodes.count_opcodes(lambda: text.append(_row_text(row, "\n")))
        assert text == [json.dumps(dict(row), sort_keys=True, indent=2)]
        assert sum(counts.values()) <= 128

    def test_row_is_a_read_only_mapping_of_six_sorted_keys(self):
        row = RecordRow(group_id=7, **_RECORD)
        assert row == dict(row) and dict(row) == row
        assert row != dict(row, e2e_ms=0.0)
        assert list(row) == sorted(row) == sorted(dict(_RECORD, group_id=7))
        assert len(row) == 6
        assert row["e2e_ms"] == row.e2e_ms == 900.25
        for key in ("latency_ms", "__class__", "_ROW_KEYS"):
            with pytest.raises(KeyError):
                row[key]
        with pytest.raises(TypeError):
            row["e2e_ms"] = 0.0  # type: ignore[index]
        assert not hasattr(row, "__dict__")


_RECORD = {
    "added_ms": 995.0,
    "complete_arrival_ms": 900.25,
    "e2e_ms": 900.25,
    "first_arrival_ms": 0.5,
    "frame_count": 30,
}


def _records_report(row) -> Report:
    """Two runs of 20 clients by 30 groups, each record ``row(group_id)``."""
    return Report(
        {
            "runs": [
                {
                    "records": {f"client{c}": [row(g) for g in range(30)] for c in range(20)},
                    "run": run,
                }
                for run in range(2)
            ]
        }
    )


def _plain(tree):
    """``tree`` with every :class:`RecordRow` replaced by its dict."""
    if isinstance(tree, RecordRow):
        return dict(tree)
    if isinstance(tree, list):
        return [_plain(item) for item in tree]
    if isinstance(tree, dict):
        return {key: _plain(value) for key, value in tree.items()}
    return tree


def _traced(fn):
    """``fn()``, the bytes it allocated at its peak, and the bytes still
    allocated after a full collection, both above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak, held


def test_report_holds_under_330_bytes_per_record_row(monkeypatch):
    # 3,180 records: on Python 3.11 the report held about 420 B a record
    # with a dict per record and holds about 230 B with RecordRow.
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    import workloads

    (scenario,) = workloads.load("gated_fanout", workloads.DEFAULT_SEED)
    report, _, held = _traced(lambda: run_scenario(scenario))
    rows = sum(len(records) for run in report.data["runs"] for records in run["records"].values())
    assert rows >= 1000
    assert held <= 330 * rows
