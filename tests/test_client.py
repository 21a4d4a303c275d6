"""Client role tests: publisher pacing, analyzer approvals, subscriber records,
playback reconstruction, and the end-to-end latency bound model."""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest
from frames import LuminanceFrame, encode_frame_chunk, encode_frame_payload, reference_groups
from recording import Recorder, ended, joined, times
from streams import encode_group_stream

from moqgate.analysis import StrobeConfig
from moqgate.client import (
    AnalyzerClient,
    LatencyModel,
    LatencyRecord,
    PublisherClient,
    SubscriberClient,
    compute_playback,
    predict_latency_bound,
)
from moqgate.eventlog import EventLog
from moqgate.framing import encode_group_header
from moqgate.media import Constant, SourceConfig, Strobe, generate_groups
from moqgate.relay import RelayServer
from moqgate.transport import SimNetwork, SimTimeoutError
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

    def analyzer(self, cats, sub_id=2, delay=0.0, analysis=0.0, detector=StrobeConfig(), name="an"):
        local, remote = self.net.connect(name, "relay", delay, delay)
        self.server.attach(name, remote)
        client = AnalyzerClient(
            self.net, local, "cam", tuple(cats), sub_id,
            detector=detector, analysis_time_ms=analysis, name=name,
        )
        client.start()
        return client

    def subscriber(self, cats=None, sub_id=3, delay=0.0, name="sub"):
        local, remote = self.net.connect(name, "relay", delay, delay)
        self.server.attach(name, remote)
        client = SubscriberClient(
            self.net, local, "cam", sub_id,
            filter_categories=tuple(cats) if cats else None,
        )
        client.start()
        return client

    def publisher(self, source, epoch=0.0, delay=0.0):
        local, remote = self.net.connect("pub", "relay", delay, delay)
        self.server.attach("pub", remote)
        client = PublisherClient(self.net, local, generate_groups(source, "cam"), epoch_ms=epoch)
        client.start()
        return client


class TestPublisherPacing:
    def test_frames_sent_at_epoch_plus_capture_ts(self):
        net = SimNetwork()
        a, b = net.connect("pub", "peer", 0.0, 0.0)
        source = const_source(fps=10, seconds=1)
        received = Recorder(net, b)
        PublisherClient(net, a, generate_groups(source, "cam"), epoch_ms=50.0).start()
        net.run_until_idle()
        (chunks,) = received.by_stream()
        # Header travels with frame 0; one chunk arrival per frame.
        assert times(chunks) == [50.0 + 100.0 * k for k in range(10)]
        assert ended(chunks)
        assert joined(chunks) == encode_group_stream("cam", reference_groups(source)[0])

    def test_each_group_gets_its_own_stream(self):
        net = SimNetwork()
        a, b = net.connect("pub", "peer", 0.0, 0.0)
        source = const_source(fps=10, seconds=2)
        received = Recorder(net, b)
        PublisherClient(net, a, generate_groups(source, "cam"), epoch_ms=0.0).start()
        net.run_until_idle()
        streams = received.by_stream()
        assert len(streams) == 2
        assert times(streams[0]) == [100.0 * k for k in range(10)]
        assert times(streams[1]) == [1000.0 + 100.0 * k for k in range(10)]
        assert joined(streams[1]) == encode_group_stream("cam", reference_groups(source)[1])

    @staticmethod
    def tie_run(schedule_other):
        """Arrivals over a zero-delay link from a publisher of one group at
        10 fps, with ``schedule_other(net, session)`` called after ``start``."""
        net = SimNetwork()
        a, b = net.connect("pub", "peer", 0.0, 0.0)
        arrivals = []
        b.set_on_control(lambda data: arrivals.append((data, net.now)))
        b.set_on_stream(
            lambda rs: rs.set_on_data(lambda data, fin: arrivals.append(("chunk", net.now)))
        )
        PublisherClient(net, a, generate_groups(const_source(fps=10, seconds=1), "cam")).start()
        schedule_other(net, a)
        net.run_until_idle()
        return arrivals[:3]

    def test_tied_event_scheduled_before_the_chunk_runs_first(self):
        # The marker at 100 ms is scheduled before chunk 0 has run, and
        # chunk 1 (also at 100 ms) only when chunk 0 is sent.
        def marker(net, a):
            net.at(100, lambda: a.send_control(b"marker"))

        assert self.tie_run(marker) == [("chunk", 0.0), (b"marker", 100.0), ("chunk", 100.0)]

    def test_tied_event_scheduled_after_the_chunk_runs_second(self):
        # A callback at 50 ms, after chunk 0 was sent, schedules the marker
        # at 100 ms behind chunk 1.
        def marker(net, a):
            net.at(50, lambda: net.at(100, lambda: a.send_control(b"marker")))

        assert self.tie_run(marker) == [("chunk", 0.0), ("chunk", 100.0), (b"marker", 100.0)]

    def test_one_pending_event_after_start_and_after_every_chunk(self):
        net = SimNetwork()
        a, _ = net.connect("pub", "peer", 0.0, 0.0)
        publication = generate_groups(const_source(fps=10, seconds=2), "cam")
        PublisherClient(net, a, publication).start()

        def probe():
            pending.append(sum(fn is not probe for _, _, fn in net._heap))

        pending = []
        probe()
        for t in range(50, 2000, 100):  # halfway between chunks, one per chunk
            net.at(t, probe)
        net.run_until_idle()
        assert pending == [1] * 20 + [0]

    def test_run_cut_short_leaves_nothing_for_the_cyclic_collector(self):
        net = SimNetwork()
        a, _ = net.connect("pub", "peer", 0.0, 0.0)
        publication = generate_groups(const_source(fps=10, seconds=2), "cam")
        publisher = PublisherClient(net, a, publication)
        publisher.start()
        alive = weakref.ref(publisher)
        del publisher
        with pytest.raises(SimTimeoutError):
            net.run_until_idle(max_virtual_ms=350)
        gc.disable()
        try:
            net.shutdown()
            assert alive() is None
        finally:
            gc.enable()

    def test_capture_time_going_back_raises_at_that_chunk(self):
        net = SimNetwork()
        a, _ = net.connect("pub", "peer", 0.0, 0.0)
        publication = generate_groups(const_source(fps=10, seconds=2), "cam")
        publication[1] = publication[1]._replace(capture_ts=(500,) + publication[1].capture_ts[1:])
        PublisherClient(net, a, publication).start()
        with pytest.raises(ValueError, match="cannot schedule at 500"):
            net.run_until_idle()
        assert net.now == 900.0  # group 0's last chunk, which was sent
        assert [g.group_id for g in publication] == [1]

    def test_each_group_is_dropped_once_its_last_chunk_is_sent(self):
        net = SimNetwork()
        a, _ = net.connect("pub", "peer", 0.0, 0.0)
        publication = generate_groups(const_source(fps=10, seconds=3), "cam")
        publisher = PublisherClient(net, a, publication)
        publisher.start()
        held = []
        for t in (850, 950, 1950, 2950):  # around each group's last chunk (900 ms)
            net.at(t, lambda: held.append([g.group_id for g in publication]))
        net.run_until_idle()
        assert held == [[0, 1, 2], [1, 2], [2], []]
        assert publisher.publication is publication == []

    def test_single_frame_group_is_one_burst(self):
        net = SimNetwork()
        a, b = net.connect("pub", "peer", 0.0, 0.0)
        publication = generate_groups(SourceConfig(4, 4, 1, 1000, (Constant(9, 1000),)), "cam")
        assert len(publication[0].chunks) == 1
        received = Recorder(net, b)
        PublisherClient(net, a, publication, epoch_ms=5.0).start()
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
        pub = rig.publisher(const_source(fps=10, seconds=3))
        rig.net.at(1500, lambda: rig.server._fail_session("pub", "forced"))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        failed = [(e.time_ms, e.detail["group_id"]) for e in pub.log.filter(kind="publish_failed")]
        assert failed == [(1000.0 + 100.0 * k, 1) for k in range(6, 10)] + [
            (2000.0 + 100.0 * k, 2) for k in range(10)
        ]
        assert pub._stream is None
        assert group_ids(sub) == [0]


class TestAnalyzerClient:
    def test_approves_safe_group_after_analysis_time(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE], analysis=40.0)
        rig.publisher(const_source(fps=10))
        rig.net.run_until_idle()
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["group_id"] == 0
        assert approve.detail["categories"] == [1]
        assert approve.time_ms == 940.0  # last frame at 900 + 40 ms analysis
        assert analyzer.records[0].first_arrival_ms == 0.0
        assert analyzer.records[0].complete_arrival_ms == 900.0
        assert analyzer.records[0].frame_count == 10
        assert analyzed(analyzer) == {0: ([STROBE], [])}

    def test_approval_after_the_relay_fails_the_session_is_logged(self):
        # Group 0 completes at 900 ms and its approval is due at 940 ms; the
        # relay fails the analyzer in between, so the send is refused.
        rig = Rig()
        analyzer = rig.analyzer([STROBE], analysis=40.0)
        rig.publisher(const_source(fps=10))
        rig.net.at(920, lambda: rig.server._fail_session("an", "forced"))
        rig.net.run_until_idle()
        assert analyzed(analyzer) == {0: ([STROBE], [])}
        failed = [(e.time_ms, e.detail) for e in analyzer.log.filter(kind="approve_failed")]
        assert failed == [(940.0, {"group_id": 0})]
        assert analyzer.log.filter(kind="approve_sent") == []
        assert rig.server.log.filter(kind="approve_recorded") == []

    def test_risky_group_sends_nothing(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        rig.publisher(src)
        rig.net.run_until_idle(max_virtual_ms=30_000)
        assert rig.server.log.filter(kind="approve_recorded") == []
        assert analyzed(analyzer)[0] == ([], [STROBE])

    def test_partial_approval_for_mixed_categories(self):
        rig = Rig()
        rig.analyzer([STROBE, SMOKING])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        rig.publisher(src)
        rig.net.run_until_idle(max_virtual_ms=30_000)
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["categories"] == [2]  # smoking stub approves

    def test_detector_exception_fails_closed(self):
        # 4x4 frames do not fit the 16x16 grid: the strobe detector raises.
        rig = Rig()
        analyzer = rig.analyzer([STROBE, SMOKING], detector=StrobeConfig(grid_dim=16))
        rig.publisher(SourceConfig(4, 4, 10, 1000, (Constant(128, 1000),)))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["categories"] == [2]  # smoking fine, strobe failed closed
        assert analyzed(analyzer)[0] == ([SMOKING], [STROBE])
        (error,) = analyzer.log.filter(kind="detector_error")
        assert error.detail["category"] == STROBE
        assert "exceeds frame dimensions 4x4" in error.detail["error"]

    def test_detector_state_carries_across_groups(self):
        # 15 Hz strobe spanning two groups at 30 fps: every group risky, and
        # the first frame of group 1 continues the pattern from group 0.
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        src = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, 15.0, 2000),))
        rig.publisher(src)
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert analyzed(analyzer) == {0: ([], [STROBE]), 1: ([], [STROBE])}

    def test_verdicts_of_a_rendered_publication(self):
        src = SourceConfig(
            16, 16, 30, 1000,
            (Constant(128, 1000), Strobe(16, 240, 15.0, 1000), Constant(128, 1000)),
        )
        rig = Rig()
        analyzer = rig.analyzer([STROBE, SMOKING])
        rig.publisher(src)
        rig.net.run_until_idle(max_virtual_ms=60_000)
        approvals = rig.server.log.filter(kind="approve_recorded")
        assert analyzed(analyzer) == {
            0: ([STROBE, SMOKING], []), 1: ([SMOKING], [STROBE]), 2: ([STROBE, SMOKING], [])
        }
        assert [(e.detail["group_id"], e.detail["categories"]) for e in approvals] == [
            (0, [STROBE, SMOKING]), (1, [SMOKING]), (2, [STROBE, SMOKING])
        ]

    def test_the_analyzer_path_copies_no_pixels(self):
        # A publisher's 30 fps strobe of 64x64 frames goes straight to an
        # analyzer, whose frames stay in the chunks they arrived in: while a
        # group is analyzed, the run holds less than one frame's pixels
        # (4,096 bytes) per frame more than the publication itself.
        src = SourceConfig(64, 64, 30, 1000, (Strobe(16, 240, 15.0, 1000),))
        publication = generate_groups(src, "cam")
        net = SimNetwork()
        pub, an = net.connect("pub", "an", 0.0, 0.0)
        analyzer = AnalyzerClient(net, an, "cam", (STROBE,), 1)
        analyzer.start()
        PublisherClient(net, pub, publication.copy()).start()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.run_until_idle()
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert analyzed(analyzer) == {0: ([], [STROBE])}
        assert grown < 30 * 64 * 64


class TestSubscriberClient:
    def test_live_subscriber_records_per_frame_arrivals(self):
        rig = Rig()
        sub = rig.subscriber()
        rig.publisher(const_source(fps=10))
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
        rig.publisher(const_source(fps=10))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        rec = sub.records[0]
        assert rec.first_arrival_ms == rec.complete_arrival_ms == 940.0
        assert rec.frame_count == 10

    def test_added_latency_one_group_minus_one_frame(self):
        rig = Rig()
        analyzer = rig.analyzer([STROBE])
        sub = rig.subscriber(cats=[STROBE])
        rig.publisher(const_source(fps=10))
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
        rig.publisher(src)
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert group_ids(sub) == [0, 2]


class TestMalformedGroup:
    def test_zero_frame_group_fails_publisher_session(self):
        rig = Rig()
        sub = rig.subscriber(name="plain")
        analyzer = rig.analyzer([STROBE])
        pub, remote = rig.net.connect("pub", "relay", 0.0, 0.0)
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
        pub, remote = rig.net.connect("pub", "relay", 0.0, 0.0)
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
