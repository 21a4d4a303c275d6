"""Client roles: publisher, analyzer, subscriber — plus latency accounting.

* :func:`encode_publication` encodes a source's groups once;
  :class:`PublisherClient` paces their chunks, one per frame, onto
  per-group streams at their capture instants (epoch + capture timestamp).
* :class:`AnalyzerClient` subscribes with the analyze role, receives frames
  live, runs :func:`~moqgate.analysis.analyze` when a group completes, and
  sends one APPROVE naming the approved subset (nothing when the subset is
  empty).  A detector that throws fails closed: its category is withheld.
* :class:`SubscriberClient` subscribes plain (live frames) or with the
  filter role (gated bursts) and records per-group arrival times without
  decoding any frame payloads.
* :func:`compute_playback` replays recorded arrivals against a fixed-rate
  playout clock to find stalls; :func:`predict_latency_bound` gives the
  worst-case end-to-end latency a filtered subscriber should ever see.

Both receiving clients keep ``records``: one :class:`LatencyRecord` per
group, in the order the groups' streams completed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .analysis import DetectorRegistry, Verdict, analyze, default_registry
from .eventlog import EventLog
from .framing import GroupStreamParser, encode_group_chunks
from .media import Group, decode_frame_payload
from .transport import DisconnectedError, RecvStream, SendStream, Session, SimNetwork
from .wire import (
    Approve,
    Subscribe,
    _as_category,
    analyze_parameter,
    encode_message,
    filter_parameter,
)

__all__ = [
    "EncodedGroup",
    "encode_publication",
    "LatencyRecord",
    "PlaybackStats",
    "PublisherClient",
    "AnalyzerClient",
    "SubscriberClient",
    "compute_playback",
    "LatencyModel",
    "predict_latency_bound",
]


@dataclass(frozen=True)
class LatencyRecord:
    """Arrival bookkeeping for one group at one client."""

    group_id: int
    first_arrival_ms: float
    complete_arrival_ms: float
    frame_count: int


@dataclass(frozen=True)
class PlaybackStats:
    """Result of replaying arrivals against a fixed-rate playout clock."""

    start_ms: float | None
    stalls: tuple[tuple[float, float], ...]  # (scheduled time, stall length)
    total_stall_ms: float


class EncodedGroup(NamedTuple):
    """One group as its publisher sends it: each frame's capture timestamp
    and wire chunk, with the group header on chunk 0."""

    group_id: int
    capture_ts: tuple[int, ...]
    chunks: tuple[bytes, ...]


def encode_publication(track: str, groups: Iterable[Group]) -> list[EncodedGroup]:
    """Encode every group once; runs then share the bytes, not the frames."""
    return [
        EncodedGroup(
            group.group_id,
            tuple(frame.capture_ts for frame in group.frames),
            tuple(encode_group_chunks(track, group)),
        )
        for group in groups
    ]


class PublisherClient:
    """Sends an encoded publication, one stream per group, chunk by chunk."""

    def __init__(
        self,
        net: SimNetwork,
        session: Session,
        publication: list[EncodedGroup],
        epoch_ms: float = 0.0,
        log: EventLog | None = None,
        name: str = "publisher",
    ) -> None:
        self.net = net
        self.session = session
        self.publication = publication
        self.epoch_ms = epoch_ms
        self.name = name
        self.log = log if log is not None else EventLog(lambda: net.now)
        self._streams: dict[int, SendStream] = {}  # open group streams by group id

    def start(self) -> None:
        """Schedule every chunk send at epoch + its frame's capture timestamp."""
        for group in self.publication:
            for index, ts in enumerate(group.capture_ts):
                self.net.at(self.epoch_ms + ts, functools.partial(self._send_chunk, group, index))

    def _send_chunk(self, group: EncodedGroup, index: int) -> None:
        chunk = group.chunks[index]
        try:
            if index == 0:
                self._streams[group.group_id] = self.session.open_stream()
            if index == len(group.chunks) - 1:
                self._streams.pop(group.group_id).end(chunk)
            else:
                self._streams[group.group_id].send(chunk)
        except (DisconnectedError, KeyError):  # KeyError: the session refused the open
            self.log.emit(self.name, "publish_failed", group_id=group.group_id)


def _receive_groups(
    net: SimNetwork,
    session: Session,
    on_group: Callable[[LatencyRecord, list[bytes]], None],
) -> None:
    """Receive path shared by the receiving clients: reassemble every
    incoming stream of ``session`` and, as each finishes, call
    ``on_group(record, payloads)`` with when its first frame and its end
    arrived."""

    def on_stream(rs: RecvStream) -> None:
        parser = GroupStreamParser()
        first_arrival: float | None = None

        def on_data(data: bytes, fin: bool) -> None:
            nonlocal first_arrival
            if parser.feed(data, fin) and first_arrival is None:
                first_arrival = net.now
            if fin:
                assert parser.group_id is not None and first_arrival is not None
                payloads = parser.frames
                record = LatencyRecord(parser.group_id, first_arrival, net.now, len(payloads))
                on_group(record, payloads)

        rs.set_on_data(on_data)

    session.set_on_stream(on_stream)


class AnalyzerClient:
    """Receives frames live, analyzes each completed group, sends approvals."""

    def __init__(
        self,
        net: SimNetwork,
        session: Session,
        track: str,
        categories: tuple[int, ...],
        subscribe_id: int,
        registry: DetectorRegistry | None = None,
        analysis_time_ms: float = 0.0,
        log: EventLog | None = None,
        name: str = "analyzer",
    ) -> None:
        self.net = net
        self.session = session
        self.track = track
        self.categories = tuple(categories)
        self.subscribe_id = subscribe_id
        self.registry = registry if registry is not None else default_registry()
        self.analysis_time_ms = analysis_time_ms
        self.name = name
        self.log = log if log is not None else EventLog(lambda: net.now)
        self.records: list[LatencyRecord] = []
        self._states: dict[int, object] = {}
        _receive_groups(net, session, self._on_group)

    def start(self) -> None:
        msg = Subscribe(
            self.subscribe_id, self.track, 0, (analyze_parameter(self.categories),)
        )
        self.session.send_control(encode_message(msg))

    def _on_group(self, record: LatencyRecord, payloads: list[bytes]) -> None:
        group_id = record.group_id
        self.records.append(record)
        try:
            frames = tuple(map(decode_frame_payload, payloads))
            group = Group(group_id, frames, frames[-1].capture_ts - frames[0].capture_ts)
        except ValueError as exc:  # undecodable group: fail closed, states unchanged
            rejected = tuple(_as_category(c) for c in self.categories)
            verdict = Verdict(group_id, (), rejected, tuple((c, str(exc)) for c in rejected))
        else:
            verdict, self._states = analyze(group, self.categories, self.registry, self._states)
        for category, error in verdict.errors:
            self.log.emit(
                self.name,
                "detector_error",
                group_id=group_id,
                category=int(category),
                error=error,
            )
        self.log.emit(
            self.name,
            "group_analyzed",
            group_id=group_id,
            approved=[int(c) for c in verdict.approved],
            rejected=[int(c) for c in verdict.rejected],
        )
        if verdict.approved:
            msg = Approve(self.subscribe_id, group_id, verdict.approved)
            self.net.after(self.analysis_time_ms, lambda: self._send_approve(msg))

    def _send_approve(self, msg: Approve) -> None:
        try:
            self.session.send_control(encode_message(msg))
        except DisconnectedError:
            self.log.emit(self.name, "approve_failed", group_id=msg.group_id)
            return
        self.log.emit(
            self.name,
            "approve_sent",
            group_id=msg.group_id,
            categories=[int(c) for c in msg.categories],
        )


class SubscriberClient:
    """Plain (live) or filtered (gated) subscriber with arrival records.

    Frame payloads are counted, never decoded — the subscriber's timing
    must not depend on content.
    """

    def __init__(
        self,
        net: SimNetwork,
        session: Session,
        track: str,
        subscribe_id: int,
        filter_categories: tuple[int, ...] | None = None,
        log: EventLog | None = None,
        name: str = "subscriber",
    ) -> None:
        self.net = net
        self.session = session
        self.track = track
        self.subscribe_id = subscribe_id
        self.filter_categories = (
            tuple(filter_categories) if filter_categories else None
        )
        self.name = name
        self.log = log if log is not None else EventLog(lambda: net.now)
        self.records: list[LatencyRecord] = []
        _receive_groups(net, session, self._on_group)

    def start(self) -> None:
        params = ()
        if self.filter_categories is not None:
            params = (filter_parameter(self.filter_categories),)
        msg = Subscribe(self.subscribe_id, self.track, 0, params)
        self.session.send_control(encode_message(msg))

    def _on_group(self, record: LatencyRecord, payloads: list[bytes]) -> None:
        self.records.append(record)
        self.log.emit(
            self.name,
            "group_received",
            group_id=record.group_id,
            frame_count=record.frame_count,
        )


def compute_playback(
    records: list[LatencyRecord] | tuple[LatencyRecord, ...],
    gop_duration_ms: float,
    startup_buffer_ms: float,
) -> PlaybackStats:
    """Replay group arrivals against a fixed-rate playout clock.

    Playback starts one startup buffer after the first group completes.
    Each subsequent received group is due one group duration after the
    previous one started playing; a group that completes after its due time
    stalls playback by the difference and shifts the schedule.
    """
    records = list(records)
    if not records:
        return PlaybackStats(None, (), 0.0)
    cursor = records[0].complete_arrival_ms + startup_buffer_ms
    start = cursor
    stalls: list[tuple[float, float]] = []
    for record in records[1:]:
        cursor += gop_duration_ms
        if record.complete_arrival_ms > cursor:
            stalls.append((cursor, record.complete_arrival_ms - cursor))
            cursor = record.complete_arrival_ms
    return PlaybackStats(start, tuple(stalls), sum(gap for _, gap in stalls))


@dataclass(frozen=True)
class LatencyModel:
    """Network/timing inputs for the end-to-end latency bound.

    ``analyzer_links_ms`` holds one ``(downlink, approve uplink)`` pair per
    analyzer whose approval can gate the subscriber (any analyzer sharing at
    least one category with the subscriber's filter set).
    """

    gop_duration_ms: float
    publisher_uplink_ms: float
    analyzer_links_ms: tuple[tuple[float, float], ...]
    subscriber_downlink_ms: float
    analysis_time_ms: float = 0.0


def predict_latency_bound(model: LatencyModel) -> float:
    """Worst-case delay from a group's first capture to its gated delivery.

    The last frame is captured one full group duration after the first
    (rounded up), then crosses the publisher uplink; the whole group must
    reach the slowest relevant analyzer, whose approval crosses the slowest
    approve path back; the burst then crosses the subscriber downlink.  The
    two maxima are taken independently, so the bound stays valid (if
    slightly loose) when the slowest receive and send paths belong to
    different analyzers.
    """
    if not model.analyzer_links_ms:
        raise ValueError("at least one analyzer path is required")
    worst_downlink = max(down for down, _ in model.analyzer_links_ms)
    worst_uplink = max(up for _, up in model.analyzer_links_ms)
    return (
        model.gop_duration_ms
        + model.publisher_uplink_ms
        + worst_downlink
        + worst_uplink
        + model.analysis_time_ms
        + model.subscriber_downlink_ms
    )
