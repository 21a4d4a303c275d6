"""Outside-in tracing of moqgate's layers.

Nothing in moqgate is edited.  While installed, the tracer replaces public
functions and methods where their callers look them up (``from ... import``
binds a name in the caller's module, so a module-level function is patched
in the module that calls it) and records one span per call: kind, start,
end, parent span and op id.  Callbacks are split between the relay server
and the clients by wrapping the functions registered through
``RelayServer.attach``, ``Session.set_on_control``, ``Session.set_on_stream``
and ``RecvStream.set_on_data``.

Spans stay in memory; :func:`self_times` charges each span's self time (its
duration minus its direct children's) to its kind, and every kind belongs to
exactly one layer.  The root span ``bench.pass`` is the benchmark's own loop,
so its self time is the ``unattributed`` bucket.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

#: Span kind -> the per-layer time metric its self time is charged to.
KIND_METRIC = {
    "bench.pass": "unattributed_s",
    "harness.run_scenario": "harness.report_s",
    "harness.to_json": "harness.to_json_s",
    "media.generate": "media.generate_s",
    "media.decode": "media.decode_s",
    "analysis.detector": "analysis.detector_s",
    "analysis.oracle": "analysis.oracle_s",
    "framing.feed": "framing.feed_s",
    "framing.control_feed": "framing.control_feed_s",
    "transport.loop": "transport.loop_self_s",
    "transport.send": "transport.send_s",
    "relay.gate": "relay.gate_s",
    "relay.server": "relay.server_s",
    "client.callback": "client.callback_s",
    "wire.encode": "wire.encode_s",
    "eventlog.emit": "eventlog.emit_s",
    "eventlog.filter": "eventlog.filter_s",
}

#: Counts recorded at the same boundaries as the spans.
COUNTS = (
    "transport.events",
    "transport.chunks_sent",
    "transport.bytes_sent",
    "analysis.frames",
    "analysis.oracle_calls",
    "framing.feeds",
    "framing.feed_bytes",
    "framing.max_feed_bytes",
    "framing.control_feeds",
    "relay.ingests",
    "relay.approves",
    "relay.releasing_calls",
    "relay.deliveries",
    "relay.skipped_groups",
    "client.groups_received",
    "media.decode_frames",
    "wire.control_msgs",
    "eventlog.emits",
    "eventlog.filter_calls",
)

_CALLBACK_KINDS = ("relay.server", "client.callback")


class Tracer:
    """Span and count recorder for one traced pass at a time."""

    def __init__(self) -> None:
        # An open span holds its kind; it becomes (kind, start, end, parent,
        # op) when it closes.
        self.spans: list = []
        self._stack: list[int] = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._attaching = False

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.op = -1
        for name in self.counts:
            self.counts[name] = 0

    def wrap(self, kind: str, fn, after=None):
        """``fn`` recorded as a ``kind`` span; ``after(args, result)``
        updates counts once the call has returned."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(kind)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (kind, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def call(self, kind: str, fn, *args):
        return self.wrap(kind, fn)(*args)

    def callback_kind(self) -> str:
        """Side (relay or client) of the innermost open callback span."""
        for index in reversed(self._stack):
            if self.spans[index] in _CALLBACK_KINDS:
                return self.spans[index]
        raise RuntimeError("stream callback registered outside any traced callback")

    def wrap_data_callback(self, kind: str, fn):
        """Wrap a stream's ``fn(data, fin)``; on the client side a call
        with ``fin`` set completes one received group."""
        if kind == "relay.server":
            return self.wrap(kind, fn)
        counts = self.counts

        def received(args, result):
            if args[1]:
                counts["client.groups_received"] += 1

        return self.wrap(kind, fn, received)


def _patch(saved: list, owner, name: str, new) -> None:
    saved.append((owner, name, vars(owner)[name]))
    setattr(owner, name, new)


@contextmanager
def _patches(install):
    saved: list = []
    try:
        install(saved)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


@contextmanager
def loop_meter(meter: dict, SimNetwork):
    """The only wrapper in a timed run: adds each ``run_until_idle`` call's
    host seconds and simulated events to ``meter``."""
    run_until_idle = SimNetwork.run_until_idle
    clock = time.perf_counter

    def metered(net, *args, **kwargs):
        start = clock()
        try:
            return run_until_idle(net, *args, **kwargs)
        finally:
            meter["loop_s"] += clock() - start
            meter["events"] += net.events_processed

    with _patches(lambda saved: _patch(saved, SimNetwork, "run_until_idle", metered)):
        yield


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    from moqgate import client, harness, relay
    from moqgate.analysis import StrobeDetector
    from moqgate.eventlog import EventLog
    from moqgate.framing import ControlStreamDecoder, GroupStreamParser
    from moqgate.relay import DeliverGroup, RelayCore, RelayServer, SkipGroups
    from moqgate.transport import RecvStream, SendStream, Session, SimNetwork

    counts = tracer.counts

    def events(args, result):
        counts["transport.events"] += args[0].events_processed

    def frames(args, result):
        counts["analysis.frames"] += len(args[1].frames)

    def feed(args, result):
        size = len(args[1])
        counts["framing.feeds"] += 1
        counts["framing.feed_bytes"] += size
        if size > counts["framing.max_feed_bytes"]:
            counts["framing.max_feed_bytes"] = size

    def sent(args, result):
        # SendStream.send transmits only non-empty data; end() and
        # send_control() always transmit.
        counts["transport.chunks_sent"] += 1
        counts["transport.bytes_sent"] += len(args[1]) if len(args) > 1 else 0

    def sent_if_data(args, result):
        if args[1]:
            sent(args, result)

    def gated(name: str):
        def after(args, result):
            counts[name] += 1
            deliveries = sum(1 for a in result if isinstance(a, DeliverGroup))
            counts["relay.deliveries"] += deliveries
            counts["relay.releasing_calls"] += 1 if deliveries else 0
            counts["relay.skipped_groups"] += sum(
                len(a.group_ids) for a in result if isinstance(a, SkipGroups)
            )

        return after

    def counted(name: str):
        def after(args, result):
            counts[name] += 1

        return after

    def attach(original):
        def traced_attach(server, sid, session):
            tracer._attaching = True
            try:
                return original(server, sid, session)
            finally:
                tracer._attaching = False

        return traced_attach

    def session_registration(original):
        def register(session, fn):
            kind = "relay.server" if tracer._attaching else "client.callback"
            return original(session, tracer.wrap(kind, fn))

        return register

    def data_registration(original):
        def register(stream, fn):
            return original(stream, tracer.wrap_data_callback(tracer.callback_kind(), fn))

        return register

    def install(saved: list) -> None:
        def method(owner, name, kind, after=None):
            _patch(saved, owner, name, tracer.wrap(kind, vars(owner)[name], after))

        method(harness, "generate_groups", "media.generate")
        method(harness, "predict_risky_groups", "analysis.oracle", counted("analysis.oracle_calls"))
        method(client, "decode_frame_payload", "media.decode", counted("media.decode_frames"))
        method(relay, "encode_message", "wire.encode", counted("wire.control_msgs"))
        method(client, "encode_message", "wire.encode", counted("wire.control_msgs"))
        method(SimNetwork, "run_until_idle", "transport.loop", events)
        method(SendStream, "send", "transport.send", sent_if_data)
        method(SendStream, "end", "transport.send", sent)
        method(Session, "send_control", "transport.send", sent)
        method(StrobeDetector, "analyze_group", "analysis.detector", frames)
        method(GroupStreamParser, "feed", "framing.feed", feed)
        method(ControlStreamDecoder, "feed", "framing.control_feed", counted("framing.control_feeds"))
        method(RelayCore, "ingest_group", "relay.gate", gated("relay.ingests"))
        method(RelayCore, "handle_approve", "relay.gate", gated("relay.approves"))
        method(EventLog, "emit", "eventlog.emit", counted("eventlog.emits"))
        method(EventLog, "filter", "eventlog.filter", counted("eventlog.filter_calls"))
        _patch(saved, RelayServer, "attach", attach(RelayServer.attach))
        _patch(saved, Session, "set_on_control", session_registration(Session.set_on_control))
        _patch(saved, Session, "set_on_stream", session_registration(Session.set_on_stream))
        _patch(saved, RecvStream, "set_on_data", data_registration(RecvStream.set_on_data))

    with _patches(install):
        yield


def self_times(spans: list) -> dict[str, float]:
    """Seconds of self time per per-layer time metric."""
    child = [0.0] * len(spans)
    for kind, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = dict.fromkeys(KIND_METRIC.values(), 0.0)
    for (kind, start, end, parent, op), covered in zip(spans, child):
        totals[KIND_METRIC[kind]] += (end - start) - covered
    return totals


def write_spans(spans: list, path) -> None:
    """Write spans as gzip-compressed CSV, times in microseconds from the
    first span's start."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write("index,kind,start_us,end_us,parent,op\n")
        for index, (kind, start, end, parent, op) in enumerate(spans):
            out.write(
                f"{index},{kind},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent},{op}\n"
            )
