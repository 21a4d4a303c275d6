"""Client role tests: publisher pacing, analyzer approvals, subscriber records,
playback reconstruction, and the end-to-end latency bound model."""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import pytest
from frames import (
    LuminanceFrame,
    encode_frame_chunk,
    encode_frame_payload,
    encode_group_chunks,
    reference_groups,
)
from recording import Recorder, ended, joined, times
from streams import ReferenceGroupParser, encode_group_stream

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
from moqgate.framing import GroupParse, GroupStreamParser, SharedParses, encode_group_header
from moqgate.media import Constant, SourceConfig, Strobe, generate_groups
from moqgate.relay import RelayCore, RelayServer
from moqgate.transport import SimNetwork, SimTimeoutError
from moqgate.wire import Category, IncompleteError, MalformedError, WireError

STROBE, SMOKING = Category.STROBE, Category.SMOKING
TOOLS = Path(__file__).resolve().parent.parent / "tools"


def const_source(fps=10, seconds=1, level=128):
    return SourceConfig(16, 16, fps, 1000, (Constant(level, seconds * 1000),))


def analyzed(analyzer):
    """``group_id -> (approved, rejected)`` for every group the analyzer
    received, once its clock has run: approved as its sent APPROVE names
    them, rejected the rest of its categories."""
    analyzer.clock.run_until_idle()
    sent = {group_id: categories for _, group_id, categories in analyzer.approvals}
    verdicts = {}
    for record in analyzer.records:
        approved = sent.get(record.group_id, [])
        verdicts[record.group_id] = (approved, [c for c in analyzer.categories if c not in approved])
    return verdicts


def group_ids(client):
    return [r.group_id for r in client.records]


class Rig:
    """Relay plus clients over zero-or-given-delay links.  With ``shared``
    every client shares the relay's record, as in a scenario run; without,
    each makes its own, and every client parses what it receives."""

    def __init__(self, shared=False):
        self.net = SimNetwork()
        self.server = RelayServer(self.net, log=EventLog(lambda: self.net.now))
        self.shared = self.server.shared if shared else None

    def analyzer(self, cats, sub_id=2, delay=0.0, analysis=0.0, detector=StrobeConfig(), name="an"):
        local, remote = self.net.connect(name, "relay", delay, delay)
        self.server.attach(name, remote)
        client = AnalyzerClient(
            self.net, local, "cam", tuple(cats), sub_id,
            detector=detector, analysis_time_ms=analysis, shared=self.shared,
        )
        client.start()
        return client

    def subscriber(self, cats=None, sub_id=3, delay=0.0, name="sub", jitter=0.0):
        local, remote = self.net.connect(name, "relay", delay, delay, jitter, sub_id)
        self.server.attach(name, remote)
        client = SubscriberClient(
            self.net, local, "cam", sub_id,
            filter_categories=tuple(cats) if cats else None,
            shared=self.shared,
        )
        client.start()
        return client

    def publisher(self, source, epoch=0.0, delay=0.0, jitter=0.0):
        local, remote = self.net.connect("pub", "relay", delay, delay, jitter)
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
        failed = [(e.time_ms, e.detail) for e in analyzer.log.filter(kind="approve_failed")]
        assert failed == [(940.0, {"group_id": 0})]
        assert analyzer.approvals == []
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


class Endpoint:
    """Stands in for a session and for each stream it receives: keeps the
    callbacks a client registers, so a test calls them directly."""

    def set_on_stream(self, fn):
        self.on_stream = fn

    def set_on_data(self, fn):
        self.on_data = fn


def viewer(clock, shared):
    """A filtered subscriber on an :class:`Endpoint`, sharing ``shared``
    (or with a slot of its own when None)."""
    return SubscriberClient(clock, Endpoint(), "cam", 1, (STROBE,), shared=shared)


def deliver(client, *chunks):
    """Open a stream to ``client`` and hand it ``chunks``, the last with
    ``fin``."""
    stream = Endpoint()
    client.session.on_stream(stream)
    for k, chunk in enumerate(chunks):
        stream.on_data(chunk, k == len(chunks) - 1)


def count_feeds(monkeypatch):
    """The chunks every GroupStreamParser.feed is given from now on."""
    fed = []
    feed = GroupStreamParser.feed

    def counted(parser, data, fin=False, frames=None):
        fed.append(data)
        return feed(parser, data, fin, frames)

    monkeypatch.setattr(GroupStreamParser, "feed", counted)
    return fed


#: A 10-frame group's whole stream, as the relay releases it.
BURST = encode_group_stream("cam", reference_groups(const_source(fps=10))[0])


class TestSharedBurstCheck:
    """Subscribers that share a :class:`SharedParses` parse a burst object
    once; every record equals what a subscriber with a slot of its own
    gets, and anything that is not that same object, whole in one chunk,
    is parsed."""

    @staticmethod
    def gated_records(shared):
        rig = Rig(shared)
        rig.analyzer([STROBE], analysis=40.0)
        subs = [rig.subscriber([STROBE], sub_id=3 + k, name=f"sub{k}") for k in range(2)]
        rig.publisher(const_source(fps=10, seconds=2))
        rig.net.run_until_idle(max_virtual_ms=30_000)
        return [sub.records for sub in subs]

    def test_two_viewers_sharing_a_record_parse_each_burst_once(self, monkeypatch):
        fed = count_feeds(monkeypatch)
        unshared = self.gated_records(False)
        bursts = [data for data in fed if len(data) > 1000]  # not the per-frame live chunks
        assert len(bursts) == 4 and bursts[0] is bursts[1] and bursts[2] is bursts[3]
        fed.clear()
        shared = self.gated_records(True)
        assert shared == unshared == [
            [LatencyRecord(0, 940.0, 940.0, 10), LatencyRecord(1, 1940.0, 1940.0, 10)]
        ] * 2
        assert [data for data in fed if len(data) > 1000] == [bursts[0], bursts[2]]

    def test_an_equal_copy_is_parsed(self, monkeypatch):
        net, shared = SimNetwork(), SharedParses()
        first, second = viewer(net, shared), viewer(net, shared)
        fed = count_feeds(monkeypatch)
        deliver(first, BURST)
        copy = bytes(bytearray(BURST))
        deliver(second, copy)
        assert len(fed) == 2 and fed[1] is copy
        assert first.records == second.records == [LatencyRecord(0, 0.0, 0.0, 10)]

    def test_a_malformed_burst_raises_every_time(self):
        net, shared = SimNetwork(), SharedParses()
        malformed = BURST + b"\x00"
        for _ in range(2):
            client = viewer(net, shared)
            with pytest.raises(MalformedError, match="data after the declared final frame"):
                deliver(client, malformed)
            assert client.records == []
        assert shared.burst is None

    def test_a_stream_with_an_earlier_chunk_is_parsed(self, monkeypatch):
        # Read after a header declaring group 9 of seven frames, the
        # remembered one-frame group 0 is those seven frames: "cam", an
        # empty one (its group id), one holding its frame's length byte,
        # then four empty ones (its payload's zero bytes).
        remembered = encode_group_header("cam", 0, 1) + encode_frame_chunk(bytes(4))
        earlier = encode_group_header("cam", 9, 7)
        net, shared = SimNetwork(), SharedParses()
        first, second, alone = viewer(net, shared), viewer(net, shared), viewer(net, None)
        deliver(first, remembered)
        fed = count_feeds(monkeypatch)
        deliver(second, earlier, remembered)
        deliver(alone, earlier, remembered)
        assert fed == [earlier, remembered] * 2
        assert first.records == [LatencyRecord(0, 0.0, 0.0, 1)]
        assert second.records == alone.records == [LatencyRecord(9, 0.0, 0.0, 7)]

    def test_an_analyzer_parses_a_burst_a_viewer_checked(self, monkeypatch):
        # It needs the frames, which the slot does not keep.
        net, shared = SimNetwork(), SharedParses()
        relay, local = net.connect("relay", "an", 0.0, 0.0)
        analyzer = AnalyzerClient(net, local, "cam", (STROBE,), 1, shared=shared)
        sub = viewer(net, shared)
        fed = count_feeds(monkeypatch)
        deliver(sub, BURST)
        relay.open_stream().end(BURST)
        net.run_until_idle()
        assert len(fed) == 2 and fed[0] is fed[1] is BURST
        assert analyzer.records == sub.records == [LatencyRecord(0, 0.0, 0.0, 10)]
        assert analyzed(analyzer) == {0: ([STROBE], [])}
        assert shared.burst is BURST

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="opcode counts depend on the bytecode; they are pinned on CPython 3.11",
    )
    def test_a_remembered_burst_costs_a_second_viewer_at_most_47_opcodes(self, monkeypatch):
        # The first viewer's on_data parses the burst, in 627 opcodes; the
        # second's takes the shared slot's verdict and makes no parser.
        monkeypatch.syspath_prepend(str(TOOLS))
        import opcodes

        net, shared = SimNetwork(), SharedParses()
        first, second = viewer(net, shared), viewer(net, shared)
        deliver(first, BURST)
        stream = Endpoint()
        second.session.on_stream(stream)
        counts = opcodes.count_opcodes(lambda: stream.on_data(BURST, True))
        assert second.records == first.records
        assert sum(counts.values()) <= 47


class Ticker:
    """A clock whose time the test sets."""

    now = 0.0


def plain_viewer(clock, shared):
    """A plain subscriber on an :class:`Endpoint`, sharing ``shared`` (or
    with a slot of its own when None)."""
    return SubscriberClient(clock, Endpoint(), "cam", 1, shared=shared)


class RelayPlayer:
    """Plays the relay's part in ``shared``: feeds each chunk of its stream
    to a :class:`GroupParse` through the record's own ``feed``, publishes
    the record once its header is parsed and clears the slot at ``fin``,
    as ``RelayServer`` does; a chunk whose parse raises ends its part."""

    def __init__(self, shared, stream):
        self.shared = shared
        self.stream = stream
        self.parse = GroupParse()
        self.failed = False

    def at(self, k):
        if self.failed or k >= len(self.stream):
            return
        parse, shared = self.parse, self.shared
        chunk, fin = self.stream[k]
        started = parse.parser.track is not None
        try:
            parse.feed(chunk, fin)
        except WireError:
            self.failed = True
            return
        if not started and parse.parser.track is not None:
            shared.live = parse
        if fin and shared.live is parse:
            shared.live = None


def alone(stream):
    """What a plain viewer with a slot of its own gets from ``stream``,
    handed to it as :func:`lockstep` hands it."""
    clock = Ticker()
    return lockstep(clock, [plain_viewer(clock, None)], [stream])[0]


def lockstep(clock, clients, streams, relay=None):
    """Open one stream to each client and hand it its chunks, a list of
    ``(chunk, fin)`` each, position by position: at position ``k``, time
    10 k ms, ``relay`` (a :class:`RelayPlayer`) parses its chunk ``k``
    first, then every client in turn gets its chunk ``k``.  A client whose
    ``on_data`` raises gets nothing more.  Returns each client's outcome:
    its records, or what it raised as ``(type, message)``."""
    ends = [None] * len(clients)
    handlers = []
    for client in clients:
        handlers.append(Endpoint())
        client.session.on_stream(handlers[-1])
    for k in range(max(map(len, streams))):
        clock.now = 10.0 * k
        if relay is not None:
            relay.at(k)
        for i, (handler, chunks) in enumerate(zip(handlers, streams)):
            if k < len(chunks) and ends[i] is None:
                try:
                    handler.on_data(*chunks[k])
                except WireError as exc:
                    ends[i] = (type(exc), str(exc))
    return [end or client.records for end, client in zip(ends, clients)]


#: Groups 0 and 1 of a 10 fps source as the publisher sends them, one
#: chunk per frame, and group 0's stream as ``(chunk, fin)`` pairs.
CHUNKS, OTHER = (
    encode_group_chunks("cam", group) for group in reference_groups(const_source(fps=10, seconds=2))
)
LIVE = [(chunk, False) for chunk in CHUNKS[:-1]] + [(CHUNKS[-1], True)]


def diverging(kind, k):
    """``LIVE`` as a receiver gets it when it diverges from the relay's
    stream at position ``k``: an equal copy of chunk ``k``, group 1's chunk
    ``k``, chunk ``k`` with ``fin`` (which ends the stream), or the last
    chunk without ``fin`` followed by an empty ``fin`` chunk or by one
    chunk too many."""
    stream = list(LIVE)
    chunk, fin = stream[k]
    if kind == "copy":
        stream[k] = (bytes(bytearray(chunk)), fin)
    elif kind == "other":
        stream[k] = (OTHER[k], fin)
    elif kind == "fin":
        stream[k:] = [(chunk, True)]
    elif kind == "no_fin_then_end":
        stream[k:] = [(chunk, False), (b"", True)]
    else:
        stream[k:] = [(chunk, False), (OTHER[1], True)]
    return stream


class TestSharedLiveCheck:
    """Live receivers follow the relay's parse: the relay parses each chunk
    before it forwards it and publishes its record in the run's
    :class:`SharedParses`, and a receiver whose chunk at a position ``is``
    the relay's chunk there, with ``fin`` only where the relay had it,
    takes the recorded result.  Any other chunk is parsed privately, from
    the identical prefix on, so every record, frame and error equals what
    a receiver with a slot of its own gets."""

    @staticmethod
    def live_records(shared):
        rig = Rig(shared)
        subs = [rig.subscriber(sub_id=3 + k, name=f"p{k}", delay=float(k % 3)) for k in range(4)]
        rig.publisher(const_source(fps=10, seconds=3))
        rig.net.run_until_idle()
        return [sub.records for sub in subs]

    def test_viewers_sharing_a_record_parse_no_live_chunk(self, monkeypatch):
        fed = count_feeds(monkeypatch)
        unshared = self.live_records(False)
        assert len(fed) == 30 + 4 * 30  # the relay's feeds, then the viewers'
        fed.clear()
        shared = self.live_records(True)
        assert shared == unshared
        assert len(fed) == 30
        want = []
        for group in reference_groups(const_source(fps=10, seconds=3)):
            parser = ReferenceGroupParser()
            parser.feed(encode_group_stream("cam", group), True)
            want.append((parser.group_id, parser.frame_count))
        assert want == [(0, 10), (1, 10), (2, 10)]
        # A viewer d ms away subscribes at 0 and joins group 0 at d ms, when
        # the relay sends it the one chunk so far; the relay's join of one
        # chunk is that very object, so it follows too.
        for k, records in enumerate(shared):
            d = k % 3
            assert [(r.group_id, r.frame_count) for r in records] == want
            assert [r.first_arrival_ms for r in records] == [2.0 * d, 1000.0 + d, 2000.0 + d]

    @pytest.mark.parametrize(
        "kind, k",
        [(kind, k) for kind in ("copy", "other") for k in range(len(CHUNKS))]
        + [("fin", k) for k in range(len(CHUNKS) - 1)]
        + [("no_fin_then_end", len(CHUNKS) - 1), ("no_fin_then_more", len(CHUNKS) - 1)],
    )
    def test_a_divergence_gets_the_private_result_or_error(self, monkeypatch, kind, k):
        stream = diverging(kind, k)
        private = alone(stream)
        clock, shared = Ticker(), SharedParses()
        first, second = plain_viewer(clock, shared), plain_viewer(clock, shared)
        fed = count_feeds(monkeypatch)
        got = lockstep(clock, [first, second], [LIVE, stream], RelayPlayer(shared, LIVE))
        assert got == [[LatencyRecord(0, 0.0, 90.0, 10)], private]
        # The relay feeds chunk j at position j.  Before the divergence the
        # second receiver feeds nothing; there its own parser takes the
        # relay's prefix again, then its chunk.  The last chunk without
        # fin is still the relay's chunk, fed alike, so those two kinds
        # diverge one position later.
        at = k + 1 if kind.startswith("no_fin") else k
        want = []
        for j in range(max(len(stream), len(CHUNKS))):
            want += CHUNKS[j : j + 1]
            if j == at:
                want += CHUNKS[:at] + [stream[at][0]]
            elif at < j < len(stream):
                want.append(stream[j][0])
        assert fed == want
        if kind == "fin":
            assert private == (IncompleteError, "stream ended before the declared final frame")
        elif kind == "no_fin_then_more":
            assert private == (MalformedError, "data after the declared final frame")
        else:
            group_id = 1 if (kind, k) == ("other", 0) else 0
            end = 100.0 if kind == "no_fin_then_end" else 90.0
            assert private == [LatencyRecord(group_id, 0.0, end, 10)]

    @pytest.mark.parametrize("k", [1, 5, len(CHUNKS) - 1])
    def test_a_receiver_ahead_of_the_relays_parse_parses_privately(self, monkeypatch, k):
        # The relay parses a chunk before it forwards it, so this needs a
        # chunk from elsewhere: one that reaches a follower at k before the
        # record has it is parsed privately, from k on.
        clock, shared = Ticker(), SharedParses()
        follow = plain_viewer(clock, shared)
        relay = RelayPlayer(shared, LIVE)
        handler = Endpoint()
        follow.session.on_stream(handler)
        fed = count_feeds(monkeypatch)
        for j, (chunk, fin) in enumerate(LIVE):
            clock.now = 10.0 * j
            if j != k:
                relay.at(j)
            handler.on_data(chunk, fin)
            if j == k:
                relay.at(j)
        assert fed == CHUNKS[:k] + CHUNKS[: k + 1] + [c for c in CHUNKS[k:] for _ in (0, 1)][1:]
        assert follow.records == alone(LIVE) == [LatencyRecord(0, 0.0, 90.0, 10)]

    def test_a_first_frame_after_the_first_chunk_is_timed_as_alone(self, monkeypatch):
        # Group 0's header arrives alone at 0 ms and its first frame at 10:
        # two viewers follow, and one gets a copy of the frame, so its own
        # parser completes it.
        header = encode_group_header("cam", 0, len(CHUNKS))
        frame = CHUNKS[0][len(header) :]
        stream = [(header, False), (frame, False)] + LIVE[1:]
        copied = [stream[0], (bytes(bytearray(frame)), False)] + stream[2:]
        clock, shared = Ticker(), SharedParses()
        viewers = [plain_viewer(clock, shared) for _ in range(3)]
        fed = count_feeds(monkeypatch)
        got = lockstep(clock, viewers, [stream, stream, copied], RelayPlayer(shared, stream))
        lead = [chunk for chunk, _ in stream]
        assert fed == lead[:2] + [header, copied[1][0]] + [c for c in lead[2:] for _ in (0, 1)]
        assert got == [alone(stream)] * 3 == [[LatencyRecord(0, 10.0, 100.0, 10)]] * 3

    @pytest.mark.parametrize("at", [0, 4, len(CHUNKS) - 1])
    def test_a_malformed_chunk_raises_at_every_receiver_that_reaches_it(self, at):
        # At 0 a header declares no frames; later a chunk completes the
        # group and carries one frame more.  The relay records no chunk
        # whose parse raised, so every receiver parses it privately.
        if at == 0:
            bad = encode_group_header("cam", 0, 0) + CHUNKS[0]
        else:
            bad = b"".join(CHUNKS[at:]) + CHUNKS[at]
        stream = LIVE[:at] + [(bad, at == len(CHUNKS) - 1)]
        private = alone(stream)
        assert private[0] is MalformedError
        clock, shared = Ticker(), SharedParses()
        relay = RelayPlayer(shared, stream)
        viewers = [plain_viewer(clock, shared) for _ in range(4)]
        got = lockstep(clock, viewers, [stream] * 3 + [LIVE[:at]], relay)
        assert relay.failed and len(relay.parse.chunks) == at
        assert got == [private] * 3 + [[]]

    def test_a_late_joiners_prefix_is_parsed_privately(self, monkeypatch):
        # "late" subscribes at 450 ms, after five chunks of group 0: the
        # relay sends it those five joined as one, then the rest.
        def run(shared):
            rig = Rig(shared)
            subs = [rig.subscriber(sub_id=3 + k, name=f"p{k}") for k in range(2)]
            late = partial(rig.subscriber, sub_id=9, name="late")
            rig.net.at(450, lambda: subs.append(late()))
            rig.publisher(const_source(fps=10, seconds=2))
            rig.net.run_until_idle()
            return [sub.records for sub in subs]

        fed = count_feeds(monkeypatch)
        unshared = run(False)
        assert len(fed) == 20 + 10 + 10 + 6 + 3 * 10  # the relay's 20 feeds first
        fed.clear()
        shared = run(True)
        assert shared == unshared
        assert shared[2] == [
            LatencyRecord(0, 450.0, 900.0, 10), LatencyRecord(1, 1000.0, 1900.0, 10)
        ]
        # The relay feeds its 20 chunks, and "late" its prefix and the five
        # chunks of group 0 after it; every other chunk is followed.
        prefix = b"".join(CHUNKS[:5])
        assert [data for data in fed if data == prefix] == [prefix]
        assert len(fed) == 20 + 6

    def test_a_live_group_starting_between_two_bursts_does_not_evict_it(self, monkeypatch):
        net, shared = SimNetwork(), SharedParses()
        first, second = viewer(net, shared), viewer(net, shared)
        plain = plain_viewer(net, shared)
        fed = count_feeds(monkeypatch)
        deliver(first, BURST)
        relay = RelayPlayer(shared, LIVE)
        relay.at(0)
        stream = Endpoint()
        plain.session.on_stream(stream)
        stream.on_data(CHUNKS[0], False)
        deliver(second, BURST)
        assert fed == [BURST, CHUNKS[0]] and fed[0] is BURST
        assert shared.live is relay.parse and shared.burst is BURST
        assert first.records == second.records == [LatencyRecord(0, 0.0, 0.0, 10)]

    def test_a_finished_live_group_leaves_nothing_for_the_cyclic_collector(self):
        # At 450 ms group 0 is live: the relay's record of it and both
        # viewers' stream callbacks must be freed by reference counting
        # once it ends.
        rig = Rig(shared=True)
        shared = rig.shared
        subs = [rig.subscriber(sub_id=3 + k, name=f"p{k}") for k in range(2)]
        rig.publisher(const_source(fps=10, seconds=2))
        held = []

        def probe():
            held.append(weakref.ref(shared.live.parser))
            for sub in subs:
                held.extend(weakref.ref(rs._on_data) for rs in sub.session._recv_streams.values())

        rig.net.at(450, probe)
        gc.disable()
        try:
            rig.net.run_until_idle()
            assert len(held) == 3 and [ref() for ref in held] == [None] * 3
        finally:
            gc.enable()
        assert shared.live is None
        assert [group_ids(sub) for sub in subs] == [[0, 1]] * 2

    def test_a_viewer_on_a_jittered_link_parses_nothing(self, monkeypatch):
        # Up to 300 ms of jitter each way on the viewer's link: it still
        # gets each chunk after the relay parsed it, so it follows every
        # group.  The publisher starts at 500 ms, after the subscription.
        def run(shared):
            rig = Rig(shared)
            sub = rig.subscriber(name="plain", delay=10.0, jitter=300.0)
            rig.publisher(const_source(fps=10, seconds=3), epoch=500.0)
            rig.net.run_until_idle()
            return sub.records

        fed = count_feeds(monkeypatch)
        unshared = run(False)
        assert len(fed) == 30 + 30
        fed.clear()
        shared = run(True)
        assert shared == unshared and group_ids_of(shared) == [0, 1, 2]
        assert len(fed) == 30  # the relay's

    def test_an_analyzer_that_follows_gets_what_a_private_parse_gives(self, monkeypatch):
        # Strobe groups 1 and 3 are rejected and the others approved; the
        # followed analyzer reads the relay's frames list, the same frames
        # its own parse collects.
        source = SourceConfig(
            16, 16, 30, 1000,
            (
                Constant(128, 1000), Strobe(16, 240, 15.0, 1000),
                Constant(128, 1000), Strobe(16, 240, 15.0, 1000),
            ),
        )
        got_frames = {}
        analyze = AnalyzerClient._analyze

        def kept(analyzer, group_id, frames):
            got_frames.setdefault(id(analyzer), []).append(list(frames))
            analyze(analyzer, group_id, frames)

        monkeypatch.setattr(AnalyzerClient, "_analyze", kept)

        def run(shared):
            rig = Rig(shared)
            analyzer = rig.analyzer([STROBE, SMOKING], delay=5.0)
            rig.publisher(source)
            rig.net.run_until_idle()
            return analyzer

        fed = count_feeds(monkeypatch)
        private = run(False)
        assert len(fed) == 2 * 120
        fed.clear()
        followed = run(True)
        assert len(fed) == 120  # the relay's
        assert followed.records == private.records
        assert followed.approvals == private.approvals
        assert analyzed(followed) == {
            g: ([STROBE, SMOKING], []) if g % 2 == 0 else ([SMOKING], [STROBE]) for g in range(4)
        }
        assert got_frames[id(followed)] == got_frames[id(private)]
        assert [len(frames) for frames in got_frames[id(followed)]] == [30] * 4

    def test_publisher_jitter_that_replaces_the_slot_mid_group_stays_exact(self, monkeypatch):
        # With 300 ms of jitter on the publisher's link, a group's first
        # chunk can reach the relay before the last chunks of the group
        # before it, so the relay publishes a new record while receivers
        # still follow the old one.
        starts = []
        start_group = RelayCore.start_group

        def counted(core, publisher, track, group_id, handle):
            starts.append(len(core._track(track).live))
            return start_group(core, publisher, track, group_id, handle)

        monkeypatch.setattr(RelayCore, "start_group", counted)

        def run(shared):
            rig = Rig(shared)
            analyzer = rig.analyzer([STROBE], delay=20.0)
            subs = [rig.subscriber(sub_id=3 + k, name=f"p{k}", delay=float(40 * k)) for k in range(3)]
            late = partial(rig.subscriber, sub_id=9, name="late", jitter=100.0)
            rig.net.at(650, lambda: subs.append(late()))
            rig.publisher(const_source(fps=10, seconds=4), delay=5.0, jitter=300.0)
            rig.net.run_until_idle()
            return [analyzer.records, analyzer.approvals] + [sub.records for sub in subs]

        fed = count_feeds(monkeypatch)
        unshared = run(False)
        private_feeds = len(fed)
        assert any(starts)
        starts.clear()
        fed.clear()
        shared = run(True)
        assert shared == unshared
        assert [group_ids_of(records) for records in shared[2:]] == [[0, 1, 2, 3]] * 4
        assert any(starts) and len(fed) < private_feeds


    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="opcode counts depend on the bytecode; they are pinned on CPython 3.11",
    )
    def test_a_followed_live_chunk_costs_at_most_17_opcodes(self, monkeypatch):
        # Parsed by its own parser, a chunk cost a viewer 81 opcodes: 15 in
        # on_data and 66 in feed.  Past the first frame a follower only
        # matches the relay's chunk.
        monkeypatch.syspath_prepend(str(TOOLS))
        import opcodes

        clock, shared = Ticker(), SharedParses()
        relay = RelayPlayer(shared, LIVE)
        handler = Endpoint()
        plain_viewer(clock, shared).session.on_stream(handler)
        for k, (chunk, _) in enumerate(LIVE[:5]):
            relay.at(k)
            handler.on_data(chunk, False)
        relay.at(5)
        counts = opcodes.by_function(
            opcodes.count_opcodes(lambda: handler.on_data(CHUNKS[5], False))
        )
        assert [name.partition(":")[0] for name in counts] == [
            "client._receive_groups.<locals>.on_stream.<locals>.on_data"
        ]
        assert sum(counts.values()) <= 17


def group_ids_of(records):
    return [r.group_id for r in records]


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
        assert analyzer.approvals == []
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
