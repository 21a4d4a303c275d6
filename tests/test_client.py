"""Client role tests: publisher pacing, analyzer approvals, subscriber records,
playback reconstruction, and the end-to-end latency bound model."""

from __future__ import annotations

import pytest
from recording import Recorder, ended, joined, times

from moqgate.analysis import DetectorRegistry, StrobeDetector
from moqgate.client import (
    AnalyzerClient,
    LatencyModel,
    LatencyRecord,
    PublisherClient,
    SubscriberClient,
    compute_playback,
    encode_publication,
    predict_latency_bound,
)
from moqgate.eventlog import EventLog
from moqgate.framing import encode_frame_chunk, encode_group_header, encode_group_stream
from moqgate.media import (
    Constant,
    LuminanceFrame,
    SourceConfig,
    Strobe,
    encode_frame_payload,
    generate_groups,
)
from moqgate.relay import RelayServer
from moqgate.transport import Link, SimNetwork
from moqgate.wire import Category

STROBE, SMOKING = Category.STROBE, Category.SMOKING


def const_source(fps=10, seconds=1, level=128):
    return SourceConfig(16, 16, fps, 1000, (Constant(level, seconds * 1000),))


def analyzed(analyzer):
    """``group_id -> (approved, rejected)`` from the analyzer's log."""
    return {
        e.detail["group_id"]: (e.detail["approved"], e.detail["rejected"])
        for e in analyzer.log.filter(kind="group_analyzed")
    }


def group_ids(client):
    return [r.group_id for r in client.records]


class Rig:
    """Relay plus clients over zero-or-given-delay links."""

    def __init__(self):
        self.net = SimNetwork()
        self.server = RelayServer(self.net, log=EventLog(lambda: self.net.now))

    def analyzer(self, cats, sub_id=2, delay=0.0, analysis=0.0, registry=None, name="an"):
        local, remote = self.net.connect(Link(delay_ms=delay), name, "relay")
        self.server.attach(name, remote)
        client = AnalyzerClient(
            self.net, local, "cam", tuple(cats), sub_id,
            registry=registry, analysis_time_ms=analysis, name=name,
        )
        client.start()
        return client

    def subscriber(self, cats=None, sub_id=3, delay=0.0, name="sub"):
        local, remote = self.net.connect(Link(delay_ms=delay), name, "relay")
        self.server.attach(name, remote)
        client = SubscriberClient(
            self.net, local, "cam", sub_id,
            filter_categories=tuple(cats) if cats else None, name=name,
        )
        client.start()
        return client

    def publisher(self, groups, epoch=0.0, delay=0.0):
        local, remote = self.net.connect(Link(delay_ms=delay), "pub", "relay")
        self.server.attach("pub", remote)
        client = PublisherClient(self.net, local, encode_publication("cam", groups), epoch_ms=epoch)
        client.start()
        return client


class TestPublisherPacing:
    def test_frames_sent_at_epoch_plus_capture_ts(self):
        net = SimNetwork()
        a, b = net.connect(Link(delay_ms=0.0), "pub", "peer")
        groups = generate_groups(const_source(fps=10, seconds=1))
        received = Recorder(net, b)
        PublisherClient(net, a, encode_publication("cam", groups), epoch_ms=50.0).start()
        net.run_until_idle()
        (chunks,) = received.by_stream()
        # Header travels with frame 0; one chunk arrival per frame.
        assert times(chunks) == [50.0 + 100.0 * k for k in range(10)]
        assert ended(chunks)
        assert joined(chunks) == encode_group_stream("cam", groups[0])

    def test_each_group_gets_its_own_stream(self):
        net = SimNetwork()
        a, b = net.connect(Link(delay_ms=0.0), "pub", "peer")
        groups = generate_groups(const_source(fps=10, seconds=2))
        received = Recorder(net, b)
        PublisherClient(net, a, encode_publication("cam", groups), epoch_ms=0.0).start()
        net.run_until_idle()
        streams = received.by_stream()
        assert len(streams) == 2
        assert times(streams[0]) == [100.0 * k for k in range(10)]
        assert times(streams[1]) == [1000.0 + 100.0 * k for k in range(10)]
        assert joined(streams[1]) == encode_group_stream("cam", groups[1])

    def test_single_frame_group_is_one_burst(self):
        net = SimNetwork()
        a, b = net.connect(Link(delay_ms=0.0), "pub", "peer")
        groups = generate_groups(
            SourceConfig(4, 4, 1, 1000, (Constant(9, 1000),))
        )
        assert len(groups[0].frames) == 1
        received = Recorder(net, b)
        PublisherClient(net, a, encode_publication("cam", groups), epoch_ms=5.0).start()
        net.run_until_idle()
        (chunks,) = received.by_stream()
        assert times(chunks) == [5.0]
        assert ended(chunks)


    def test_refused_chunks_after_relay_fails_the_session_are_logged(self):
        # Once the relay has failed the publisher's session, each refused
        # chunk (group 1's rest and all of group 2, whose stream cannot
        # even open) logs publish_failed; nothing raises, no stream is kept.
        rig = Rig()
        sub = rig.subscriber(name="plain")
        pub = rig.publisher(generate_groups(const_source(fps=10, seconds=3)))
        rig.net.at(1500, lambda: rig.server._fail_session("pub", "forced"))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        failed = [(e.time_ms, e.detail["group_id"]) for e in pub.log.filter(kind="publish_failed")]
        assert failed == [(1000.0 + 100.0 * k, 1) for k in range(6, 10)] + [
            (2000.0 + 100.0 * k, 2) for k in range(10)
        ]
        assert pub._streams == {}
        assert group_ids(sub) == [0]


class TestAnalyzerClient:
    def test_approves_safe_group_after_analysis_time(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE], analysis=40.0)
        rig.publisher(generate_groups(const_source(fps=10)))
        rig.net.run_until_idle()
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["group_id"] == 0
        assert approve.detail["categories"] == [1]
        assert approve.time_ms == 940.0  # last frame at 900 + 40 ms analysis
        assert analyzer.records[0].first_arrival_ms == 0.0
        assert analyzer.records[0].complete_arrival_ms == 900.0
        assert analyzer.records[0].frame_count == 10
        assert analyzed(analyzer) == {0: ([STROBE], [])}

    def test_risky_group_sends_nothing(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        rig.publisher(generate_groups(src))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        assert rig.server.log.filter(kind="approve_recorded") == []
        assert analyzed(analyzer)[0] == ([], [STROBE])

    def test_partial_approval_for_mixed_categories(self):
        rig = Rig()
        rig.analyzer([STROBE, SMOKING])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        rig.publisher(generate_groups(src))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["categories"] == [2]  # smoking stub approves

    def test_detector_exception_fails_closed(self):
        class Boom:
            def initial_state(self):
                return None

            def analyze_group(self, group, state):
                raise RuntimeError("model crashed")

        registry = DetectorRegistry()
        registry.register(STROBE, StrobeDetector())
        registry.register(SMOKING, Boom())
        rig = Rig()
        analyzer = rig.analyzer([STROBE, SMOKING], registry=registry)
        rig.publisher(generate_groups(const_source(fps=10)))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["categories"] == [1]  # strobe fine, smoking failed closed
        assert analyzed(analyzer)[0] == ([STROBE], [SMOKING])
        (error,) = analyzer.log.filter(kind="detector_error")
        assert error.detail["category"] == SMOKING
        assert "model crashed" in error.detail["error"]

    def test_detector_state_carries_across_groups(self):
        # 15 Hz strobe spanning two groups at 30 fps: every group risky, and
        # the first frame of group 1 continues the pattern from group 0.
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 2000),))
        rig.publisher(generate_groups(src))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert analyzed(analyzer) == {0: ([], [STROBE]), 1: ([], [STROBE])}


class TestSubscriberClient:
    def test_live_subscriber_records_per_frame_arrivals(self):
        rig = Rig()
        sub = rig.subscriber()
        rig.publisher(generate_groups(const_source(fps=10)))
        rig.net.run_until_idle()
        rec = sub.records[0]
        assert rec.first_arrival_ms == 0.0
        assert rec.complete_arrival_ms == 900.0
        assert rec.frame_count == 10
        assert group_ids(sub) == [0]

    def test_filtered_subscriber_gets_one_burst(self):
        rig = Rig()
        rig.analyzer([STROBE], analysis=40.0)
        sub = rig.subscriber(cats=[STROBE])
        rig.publisher(generate_groups(const_source(fps=10)))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        rec = sub.records[0]
        assert rec.first_arrival_ms == rec.complete_arrival_ms == 940.0
        assert rec.frame_count == 10

    def test_added_latency_one_group_minus_one_frame(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        sub = rig.subscriber(cats=[STROBE])
        rig.publisher(generate_groups(const_source(fps=10)))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        added = sub.records[0].complete_arrival_ms - analyzer.records[0].first_arrival_ms
        assert added == 900.0  # gop 1000 ms minus one 100 ms frame interval

    def test_filtered_subscriber_skips_unapproved(self):
        rig = Rig()
        rig.analyzer([STROBE])
        sub = rig.subscriber(cats=[STROBE])
        src = SourceConfig(
            16, 16, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 15.0, 1000), Constant(128, 1000)),
        )
        rig.publisher(generate_groups(src))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert group_ids(sub) == [0, 2]


class TestMalformedGroup:
    def test_zero_frame_group_fails_publisher_session(self):
        rig = Rig()
        sub = rig.subscriber(name="plain")
        analyzer = rig.analyzer([STROBE])
        pub, remote = rig.net.connect(Link(delay_ms=0.0), "pub", "relay")
        rig.server.attach("pub", remote)
        rig.net.at(10, lambda: pub.open_stream().end(encode_group_header("cam", 0, 0)))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail["sid"] == "pub"
        assert "at least one frame" in error.detail["reason"]
        assert sub.records == [] and analyzer.records == []

    def _undecodable_group(self, payloads):
        """Publish one group whose frame payloads the relay forwards as is
        and check that every client failed closed; return the analyzer's
        logged detector error."""
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        gated = rig.subscriber([STROBE], sub_id=3, name="gated")
        plain = rig.subscriber(sub_id=4, name="plain")
        pub, remote = rig.net.connect(Link(delay_ms=0.0), "pub", "relay")
        rig.server.attach("pub", remote)
        stream = encode_group_header("cam", 0, len(payloads)) + b"".join(
            encode_frame_chunk(p) for p in payloads
        )
        rig.net.at(10, lambda: pub.open_stream().end(stream))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        assert rig.server.log.filter(kind="approve_recorded") == []
        assert analyzer.log.filter(kind="approve_sent") == []
        assert gated.records == []
        assert group_ids(plain) == [0]
        assert analyzed(analyzer) == {0: ([], [STROBE])}
        (error,) = analyzer.log.filter(kind="detector_error")
        assert error.detail["group_id"] == 0 and error.detail["category"] == STROBE
        return error.detail["error"]

    def test_truncated_frame_payload_fails_closed(self):
        error = self._undecodable_group([b"\x00\x10\x00"])
        assert "header needs 4 bytes" in error

    def test_decreasing_capture_ts_fails_closed(self):
        frames = [LuminanceFrame(4, 4, 0, 500, bytes(16)), LuminanceFrame(4, 4, 1, 100, bytes(16))]
        error = self._undecodable_group([encode_frame_payload(f) for f in frames])
        assert "non-decreasing" in error


class TestPlayback:
    def test_steady_arrivals_never_stall(self):
        records = [LatencyRecord(i, 1000.0 * i, 1000.0 * i + 900.0, 10) for i in range(5)]
        stats = compute_playback(records, gop_duration_ms=1000.0, startup_buffer_ms=100.0)
        assert stats.start_ms == 1000.0  # first complete arrival 900 + 100 buffer
        assert stats.stalls == ()
        assert stats.total_stall_ms == 0.0

    def test_late_group_stalls_and_shifts_schedule(self):
        records = [
            LatencyRecord(0, 900.0, 1000.0, 1),
            LatencyRecord(1, 1900.0, 2000.0, 1),
            LatencyRecord(2, 3400.0, 3500.0, 1),
            LatencyRecord(3, 4400.0, 4500.0, 1),
        ]
        stats = compute_playback(records, gop_duration_ms=1000.0, startup_buffer_ms=0.0)
        assert stats.start_ms == 1000.0
        # Group 2 was due at 3000 but completed at 3500; group 3 due at 4500.
        assert stats.stalls == ((3000.0, 500.0),)
        assert stats.total_stall_ms == 500.0

    def test_empty_records(self):
        stats = compute_playback([], 1000.0, 0.0)
        assert stats.start_ms is None
        assert stats.stalls == ()


class TestLatencyBound:
    def test_zero_delay_bound_is_one_gop(self):
        model = LatencyModel(
            gop_duration_ms=1000.0,
            publisher_uplink_ms=0.0,
            analyzer_links_ms=((0.0, 0.0),),
            subscriber_downlink_ms=0.0,
            analysis_time_ms=0.0,
        )
        assert predict_latency_bound(model) == 1000.0

    def test_worst_analyzer_path_dominates(self):
        model = LatencyModel(
            gop_duration_ms=1000.0,
            publisher_uplink_ms=10.0,
            analyzer_links_ms=((5.0, 10.0), (10.0, 10.0)),
            subscriber_downlink_ms=5.0,
            analysis_time_ms=10.0,
        )
        assert predict_latency_bound(model) == 1045.0

    def test_no_analyzers_is_an_error(self):
        model = LatencyModel(1000.0, 0.0, (), 0.0, 0.0)
        with pytest.raises(ValueError):
            predict_latency_bound(model)
