"""Client roles: publisher, analyzer, subscriber — plus latency accounting.

* :class:`PublisherClient` paces a publication's chunks (the
  :class:`~moqgate.media.EncodedGroup` list that
  :func:`~moqgate.media.generate_groups` renders once), one per frame, onto
  per-group streams at their capture instants (epoch + capture timestamp)
  on its clock.  It takes ownership of the publication list and schedules
  each chunk when it sends the one before it, so it keeps one pending event
  on the clock and one stream open.  It removes each group from the list
  once the group's last chunk has been sent, so a run holds only the groups
  still to be sent.
* :class:`AnalyzerClient` subscribes with the analyze role, receives frames
  live and, when a group completes, reads its frames' headers in place,
  inside the chunks they arrived in, and works out one verdict per
  category: strobe from the pixels, read at their offset in those chunks, by
  :class:`~moqgate.analysis.StrobeDetector`, the stub categories
  (:data:`~moqgate.analysis.STUB_CATEGORIES`) from their fixed verdicts.  It
  sends one APPROVE naming the approved subset (nothing when it is empty)
  and keeps each one sent in ``approvals``.
  A detector that throws, or a group that does not decode, fails closed: the
  category is withheld and a ``detector_error`` logged, and a detector that
  throws leaves its memory as it was, so the next group is judged against
  the last group it analyzed in full.
* :class:`SubscriberClient` subscribes plain (live frames) or with the
  filter role (gated bursts) and records per-group arrival times, counting
  frames without decoding any payload.  It logs nothing.
* :func:`compute_playback` replays recorded arrivals against a fixed-rate
  playout clock to find stalls; :func:`predict_latency_bound` gives the
  worst-case end-to-end latency a filtered subscriber should ever see.

Every client runs on a session and a :class:`~moqgate.transport.Clock`,
and logs under the session's name.  Both receiving clients keep
``records``: one :class:`LatencyRecord` per group, in the order the
groups' streams completed, timed by their clock.  They parse nothing the
run has parsed already: a run hands every receiver its relay's
:class:`~moqgate.framing.SharedParses`.  The relay parses every live chunk
before it forwards it, and a receiver whose chunks are the very objects
the relay parsed follows that parse, an analyzer taking the relay's
frames; a burst the relay releases to many filtered viewers is parsed by
the first of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Callable, Iterable

from .analysis import PayloadGroup, StrobeConfig, StrobeDetector
from .eventlog import EventLog
from .framing import GroupParse, GroupStreamParser, SharedParses
from .media import EncodedGroup, decode_frame_payload
from .transport import Clock, DisconnectedError, RecvStream, SendStream, Session
from .wire import (
    CATEGORIES,
    Approve,
    Category,
    Subscribe,
    analyze_parameter,
    encode_message,
    filter_parameter,
)

__all__ = [
    "LatencyRecord",
    "PlaybackStats",
    "PublisherClient",
    "AnalyzerClient",
    "SubscriberClient",
    "compute_playback",
    "LatencyModel",
    "predict_latency_bound",
]


@dataclass(slots=True)
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


class PublisherClient:
    """Sends an encoded publication, one stream per group, chunk by chunk.

    The publisher owns ``publication``: it sends the chunks in list order
    and schedules each chunk on its clock when it sends the one before it,
    so it keeps one pending event.  Groups go out one after another, so one
    stream is open at a time, and each group is deleted from the list once
    its last chunk has been sent.  A caller that runs one publication more
    than once hands each publisher its own shallow copy of the list; the
    bytes are shared.
    """

    def __init__(
        self,
        clock: Clock,
        session: Session,
        publication: list[EncodedGroup],
        epoch_ms: float = 0.0,
        log: EventLog | None = None,
    ) -> None:
        self.clock = clock
        self.session = session
        self.publication = publication
        self.epoch_ms = epoch_ms
        self.log = log if log is not None else EventLog(lambda: clock.now)
        self._stream: SendStream | None = None  # publication[0]'s, once open
        self._index = 0  # publication[0]'s next chunk

    def start(self) -> None:
        """Send every chunk at epoch + its frame's capture timestamp, which
        must not decrease along the publication (the clock refuses a time
        earlier than now)."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.publication:
            ts = self.publication[0].capture_ts[self._index]
            self.clock.at(self.epoch_ms + ts, self._send_chunk)

    def _send_chunk(self) -> None:
        group = self.publication[0]
        index = self._index
        chunk = group.chunks[index]
        last = index == len(group.chunks) - 1
        try:
            if self._stream is None:  # a new group, or the session refused its open
                self._stream = self.session.open_stream()
            if last:
                self._stream.end(chunk)
            else:
                self._stream.send(chunk)
        except DisconnectedError:
            self.log.emit(self.session.name, "publish_failed", group_id=group.group_id)
        if last:
            self._stream = None
            self._index = 0
            del self.publication[0]
        else:
            self._index = index + 1
        self._schedule_next()


#: No chunk is ``None``, so a stream that does not follow a parse never
#: matches at position 0 or -1.
_NO_MATCH = (None,)


def _receive_groups(
    clock: Clock,
    session: Session,
    shared: SharedParses,
    records: list[LatencyRecord],
    analyze: Callable[[int, list[tuple[bytes, int, int]]], None] | None = None,
) -> None:
    """Receive path of both receiving clients: take in every incoming
    stream of ``session`` and, as each finishes, append to ``records`` when
    its first frame and its end arrived.  An analyzing receiver then calls
    ``analyze(group_id, frames)`` with the group's frame payloads as the
    parser gives them, ``(buffer, start, end)`` each; a counting one
    (``analyze`` None) only counts frames.

    A stream whose first chunk carries all of it is no live group the relay
    still parses.  A counting receiver takes it from ``shared`` when it
    ``is`` ``shared.burst``, and otherwise parses it and remembers it there
    for the run's others.  An analyzer parses it, since it needs the
    frames.

    Any other stream follows the relay's parse when its first chunk ``is``
    the first chunk of ``shared.live``: a chunk at position ``k`` that
    ``is`` the relay's chunk ``k`` (with ``fin`` only where the relay had
    ``fin``) takes the recorded result with no ``feed`` call, and at the
    end the record is made from the relay's parser and an analyzer reads
    the relay's frames.  A receiver gets each chunk only after the relay
    has parsed it, so this holds under link jitter too.  At any divergence
    (another object, equal or not; a ``fin`` mismatch; a position the relay
    did not record) the stream parses privately from there on: a new parser
    is fed the identical prefix ``chunks[:k]``, then its chunk, so its
    records, frames and errors are exactly those of a parser of its own."""
    # An analyzer needs each group's frames, so it takes no remembered burst.
    bursts = shared if analyze is None else SharedParses()

    def on_stream(rs: RecvStream) -> None:
        parse: GroupParse | None = None  # the relay's, while this stream follows it
        parser: GroupStreamParser | None = None  # this stream's state, once it has one
        frames: list | None = None if analyze is None else []
        ahead: list | tuple = _NO_MATCH  # parse.chunks once past its first frame
        k = 0  # next position while following; -1 while parsing privately
        first_arrival: float | None = None

        def on_data(data: bytes, fin: bool) -> None:
            nonlocal parse, parser, frames, ahead, k, first_arrival
            # A chunk without fin after the first whole frame, matched by identity.
            if not fin:
                try:
                    if ahead[k] is data:
                        k += 1
                        return
                except IndexError:  # past what the relay has recorded
                    pass
            elif not k:  # the whole stream in this chunk
                if data is bursts.burst:
                    now = clock.now
                    records.append(LatencyRecord(bursts.group_id, now, now, bursts.frame_count))
                    return
                parser = GroupStreamParser()
            if parser is None:
                if parse is None:  # the first chunk of a live stream
                    parse = shared.live
                if parse is not None:
                    chunks = parse.chunks
                    if k < len(chunks) and chunks[k] is data and (not fin or k == parse.fin):
                        if k == parse.first:
                            first_arrival = clock.now
                            ahead = chunks
                        if not fin:
                            k += 1
                            return
                        parser = parse.parser
                        if frames is not None:
                            frames = parse.frames  # read only
                    else:  # diverged: parse privately from here
                        parser = GroupStreamParser()
                        for chunk in chunks[:k]:
                            parser.feed(chunk, False, frames)
                        parse = None
                else:
                    parser = GroupStreamParser()
                if parse is None:
                    ahead = _NO_MATCH
                    k = -1
            if parse is None and parser.feed(data, fin, frames) and first_arrival is None:
                first_arrival = clock.now
            if fin:
                assert parser.group_id is not None and first_arrival is not None
                records.append(
                    LatencyRecord(parser.group_id, first_arrival, clock.now, parser.frame_count)
                )
                if frames is not None:
                    analyze(parser.group_id, frames)
                elif not k:  # a whole stream, parsed: remembered for the run's others
                    bursts.burst = data
                    bursts.group_id = parser.group_id
                    bursts.frame_count = parser.frame_count

        rs.set_on_data(on_data)

    session.set_on_stream(on_stream)


class AnalyzerClient:
    """Receives frames live, analyzes each completed group, sends approvals.

    Strobe is judged by a :class:`StrobeDetector` built from ``detector``;
    a stub category approves every group unless it is in
    ``rejecting_stubs``.  A live group whose chunks are the very ones the
    relay parsed is analyzed from the relay's frames in ``shared.live``
    (see ``_receive_groups``); an analyzer built without ``shared`` makes
    its own, and parses every group.
    """

    def __init__(
        self,
        clock: Clock,
        session: Session,
        track: str,
        categories: tuple[int, ...],
        subscribe_id: int,
        detector: StrobeConfig = StrobeConfig(),
        rejecting_stubs: Iterable[int] = (),
        analysis_time_ms: float = 0.0,
        log: EventLog | None = None,
        shared: SharedParses | None = None,
    ) -> None:
        self.clock = clock
        self.session = session
        self.track = track
        self.categories = tuple(categories)
        unsupported = set(self.categories) - CATEGORIES
        if unsupported:
            raise ValueError(f"no detector for categories {sorted(unsupported)}")
        self.rejecting_stubs = frozenset(rejecting_stubs)
        self.subscribe_id = subscribe_id
        self.strobe = StrobeDetector(detector)
        self.analysis_time_ms = analysis_time_ms
        self.log = log if log is not None else EventLog(lambda: clock.now)
        self.records: list[LatencyRecord] = []
        self.approvals: list[tuple[float, int, list[int]]] = []  # (time, group, categories) sent
        shared = shared if shared is not None else SharedParses()
        _receive_groups(clock, session, shared, self.records, self._analyze)

    def start(self) -> None:
        msg = Subscribe(
            self.subscribe_id, self.track, 0, (analyze_parameter(self.categories),)
        )
        self.session.send_control(encode_message(msg))

    def _analyze(self, group_id: int, frames: list[tuple[bytes, int, int]]) -> None:
        try:  # every frame's header is read, in place, before any is analyzed
            headers = list(starmap(decode_frame_payload, frames))
            stamps = list(map(itemgetter(3), headers))
            if stamps != sorted(stamps):
                raise ValueError("frame capture timestamps must be non-decreasing")
            group = PayloadGroup(headers, list(map(itemgetter(0), frames)))
        except ValueError as exc:  # undecodable group: every category fails closed
            group, failure = None, str(exc)
        approved: list[int] = []
        for category in self.categories:
            error = None
            if group is None:
                risk, error = True, failure
            elif category == Category.STROBE:
                try:
                    risk = self.strobe.analyze_group(group)
                except Exception as exc:  # fail closed, detector memory kept
                    risk, error = True, str(exc)
            else:
                risk = category in self.rejecting_stubs
            if error is not None:
                self.log.emit(
                    self.session.name,
                    "detector_error",
                    group_id=group_id,
                    category=category,
                    error=error,
                )
            if not risk:
                approved.append(category)
        if approved:
            msg = Approve(self.subscribe_id, group_id, tuple(approved))
            self.clock.at(self.clock.now + self.analysis_time_ms, lambda: self._send_approve(msg))

    def _send_approve(self, msg: Approve) -> None:
        try:
            self.session.send_control(encode_message(msg))
        except DisconnectedError:
            self.log.emit(self.session.name, "approve_failed", group_id=msg.group_id)
            return
        self.approvals.append((self.clock.now, msg.group_id, list(msg.categories)))


class SubscriberClient:
    """Plain (live) or filtered (gated) subscriber with arrival records.

    Frames are counted, never copied or decoded — the subscriber's timing
    must not depend on content.  A group whose stream arrives whole in one
    chunk that ``is`` ``shared.burst`` is recorded from ``shared``, not
    parsed again, and a live group whose chunks are the very ones the
    relay parsed follows the relay's parse in ``shared.live`` (see
    ``_receive_groups``); a run hands every receiver its relay's
    :class:`~moqgate.framing.SharedParses`, and a subscriber built without
    one makes its own.  Its ``records`` are its whole output: it logs
    nothing.
    """

    def __init__(
        self,
        clock: Clock,
        session: Session,
        track: str,
        subscribe_id: int,
        filter_categories: tuple[int, ...] | None = None,
        shared: SharedParses | None = None,
    ) -> None:
        self.session = session
        self.track = track
        self.subscribe_id = subscribe_id
        self.filter_categories = (
            tuple(filter_categories) if filter_categories else None
        )
        self.records: list[LatencyRecord] = []
        shared = shared if shared is not None else SharedParses()
        _receive_groups(clock, session, shared, self.records)

    def start(self) -> None:
        params = ()
        if self.filter_categories is not None:
            params = (filter_parameter(self.filter_categories),)
        msg = Subscribe(self.subscribe_id, self.track, 0, params)
        self.session.send_control(encode_message(msg))


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
    arrivals = iter(records)
    first = next(arrivals, None)
    if first is None:
        return PlaybackStats(None, (), 0.0)
    cursor = first.complete_arrival_ms + startup_buffer_ms
    start = cursor
    stalls: list[tuple[float, float]] = []
    for record in arrivals:
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
