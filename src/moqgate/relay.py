"""Relay with per-category gating of media groups.

The relay accepts one publisher stream per group and three kinds of
subscriber:

* **plain** subscribers receive every frame live, as it arrives;
* **analyzer** subscribers also receive frames live, and send back APPROVE
  messages naming the categories they cleared for each group;
* **filter** subscribers receive a group only once *every* category they
  filter on has at least one approval recorded — and then as a single burst.

Gating is head-of-line free: when a later group becomes fully approved while
earlier ones are still unapproved, the earlier groups are skipped permanently
for that subscriber (live playback favors fresh content over stale).

A session's SUBSCRIBE fixes its roles for its whole life.  A filtered
session is gated from the first group the relay has not yet ingested; any
other session joins every live group at once, and every later one at its
header.

The relay models the paper's gating extensions, not MoQT session setup: it
sends no control message.  A refused SUBSCRIBE, or control bytes of a type
the codec does not know, close the session with a named protocol error.

:class:`RelayCore` is the one state machine that decides who gets every
group, live or gated, with no knowledge of transport: its handlers return
:data:`Action` lists.  Per track it holds the live groups (the server's
opaque handle of each group whose header has arrived and which has not
ended) and the held groups (the last ``retention`` ingested ids, each with
its bytes and the categories approved so far).  A track is bound to the
first session whose group header it accepts, until that session is removed;
that session may not subscribe to it.  A group header whose id is already
live or already ingested, or that a subscriber of its track or a session
other than its publisher sends, is refused before any byte of it is
forwarded.  Only approvals release groups: an ingested group has no
approvals yet.

:class:`RelayServer` only moves bytes over transport sessions and a
:class:`~moqgate.transport.Clock`: it parses every publisher chunk, to
validate it and to learn the group's header, and once the header is whole
passes each chunk on as it arrived, the very bytes object, whole frames or
not.  It publishes that parse, a :class:`~moqgate.framing.GroupParse`, in
its :class:`~moqgate.framing.SharedParses`, which a run hands every live
receiver to follow, from the group's whole header to its end; a receiver
gets each chunk only after the relay parsed it.  It keeps each live
group's parse and send streams (the one record of who receives the
group) and carries out the core's actions.  A live join is a new stream
with the chunks forwarded so far, then the rest as they arrive.
A group is held as the stream received, and every gated delivery of it sends
the same object.  A session that closes is forgotten.  The server also
schedules log-only stall alarms on its clock when gating starves a
subscriber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Union

from .eventlog import EventLog
from .framing import ControlStreamDecoder, GroupParse, SharedParses
from .transport import Clock, DisconnectedError, Session
from .wire import (
    ANALYZE_PARAM,
    CATEGORIES,
    FILTER_PARAM,
    Approve,
    ControlMessage,
    Parameter,
    Subscribe,
    WireError,
    parameter_categories,
)
# perfbench/tracer.py patches the encoder through this module's name.
from .wire import encode_message  # noqa: F401

__all__ = [
    "ProtocolError",
    "MonotonicityError",
    "DeliverGroup",
    "SkipGroups",
    "JoinLive",
    "SessionState",
    "RelayCore",
    "RelayServer",
    "STALL_ALARM_MS",
]

# How long a filtered subscriber may wait on one group before the server
# logs a ``gating_stalled`` alarm (virtual ms).
STALL_ALARM_MS = 10_000.0


class ProtocolError(Exception):
    """Peer violated the subscription/approval protocol."""


class MonotonicityError(ProtocolError):
    """Publisher sent a group id out of sequence: a header whose id is
    already live or ingested, or a finished group that is not the successor
    of the last one."""


@dataclass(slots=True)
class DeliverGroup:
    sid: object
    group_id: int
    payload: object


@dataclass(slots=True)
class SkipGroups:
    sid: object
    group_ids: tuple[int, ...]


@dataclass(slots=True)
class JoinLive:
    sid: object
    handle: object


Action = Union[DeliverGroup, SkipGroups, JoinLive]


@dataclass
class SessionState:
    sid: object
    subscribe_id: int
    track: str
    analyze: tuple[int, ...] | None = None
    filter: tuple[int, ...] | None = None
    next_deliver: int = 0


@dataclass
class _Held:
    payload: object
    # Categories with at least one approval recorded for the group.
    approved: set = field(default_factory=set)


@dataclass
class _TrackState:
    name: str
    # Group id -> held group, in ingest order: the last ``retention``
    # ingested ids, consecutive and ascending.
    held: dict[int, _Held] = field(default_factory=dict)
    # Group id -> server handle for every group whose header has arrived
    # and which has not ended, in arrival order.
    live: dict[int, object] = field(default_factory=dict)
    next_expected: int | None = None
    first: int = 0  # the first ingested id, once there is one
    # The session whose group header the track first accepted: the only
    # one that may publish into it, and so of every live group, until it
    # is removed.
    publisher: object = None


class RelayCore:
    """Transport-free relay state machine.

    Every handler either raises :class:`ProtocolError` (the caller should
    drop the offending session) or returns the list of actions the relay
    must carry out, in order.  Its sessions and tracks hold what it was
    told, so its log holds only approvals: each one recorded, or ignored
    because its group was evicted or came before the track's first.
    """

    def __init__(self, retention: int = 64, log: EventLog | None = None) -> None:
        if retention < 1:
            raise ValueError("retention must be at least 1 group")
        self.retention = retention
        self.log = log if log is not None else EventLog()
        self._sessions: dict[object, SessionState] = {}
        self._tracks: dict[str, _TrackState] = {}

    # -- accessors -----------------------------------------------------------

    def session(self, sid: object) -> SessionState | None:
        return self._sessions.get(sid)

    def sessions_of(self, track: str) -> list[SessionState]:
        return [s for s in self._sessions.values() if s.track == track]

    # -- subscription --------------------------------------------------------

    def _parse_roles(
        self, parameters: tuple[Parameter, ...]
    ) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
        analyze: tuple[int, ...] | None = None
        filter_: tuple[int, ...] | None = None
        for param in parameters:
            if param.param_type == ANALYZE_PARAM:
                if analyze is not None:
                    raise ProtocolError("repeated analyze parameter")
                analyze = self._role_categories(param, "analyze")
            elif param.param_type == FILTER_PARAM:
                if filter_ is not None:
                    raise ProtocolError("repeated filter parameter")
                filter_ = self._role_categories(param, "filter")
            # Unknown parameter types are tolerated and ignored.
        if analyze is not None and filter_ is not None:
            raise ProtocolError("a session cannot both analyze and filter")
        return analyze, filter_

    def _role_categories(self, param: Parameter, role: str) -> tuple[int, ...]:
        try:
            categories = parameter_categories(param)
        except WireError as exc:
            raise ProtocolError(f"bad {role} parameter payload: {exc}") from None
        if not categories:
            raise ProtocolError(f"{role} parameter names no categories")
        unsupported = [cat for cat in categories if cat not in CATEGORIES]
        if unsupported:
            raise ProtocolError(f"unsupported {role} categories: {unsupported}")
        return categories

    def handle_subscribe(self, sid: object, msg: Subscribe) -> list[Action]:
        """Record a new session with the roles its parameters name, for its
        whole life.  A filtered session is gated from the first group not
        yet ingested; any other session joins every live group.  A track's
        publisher may not subscribe to it."""
        if sid in self._sessions:
            raise ProtocolError(f"session {sid!r} is already subscribed")
        analyze, filter_ = self._parse_roles(msg.parameters)
        track = self._track(msg.track_name)
        if track.publisher == sid:
            raise ProtocolError(f"publisher of track {msg.track_name!r} cannot subscribe to it")
        self._sessions[sid] = SessionState(
            sid, msg.subscribe_id, msg.track_name, analyze, filter_, track.next_expected or 0
        )
        if filter_ is not None:
            return []
        return [JoinLive(sid, handle) for handle in track.live.values()]

    def remove_session(self, sid: object) -> None:
        """Forget a session, and every live group it publishes: those can
        never end.  A track it publishes takes a new publisher."""
        self._sessions.pop(sid, None)
        for track in self._tracks.values():
            if track.publisher == sid:
                track.publisher = None
                track.live.clear()

    # -- media ingest ---------------------------------------------------------

    def _track(self, name: str) -> _TrackState:
        track = self._tracks.get(name)
        if track is None:
            track = self._tracks[name] = _TrackState(name)
        return track

    def start_group(
        self, publisher: object, track_name: str, group_id: int, handle: object
    ) -> list[Action]:
        """A group's header has arrived: every session without a filter
        joins it live.  ``handle`` is the caller's, returned in each join.
        A session may not publish into the track it subscribes to, nor into
        one another session publishes."""
        subscription = self._sessions.get(publisher)
        if subscription is not None and subscription.track == track_name:
            raise ProtocolError(f"subscriber of track {track_name!r} cannot publish into it")
        track = self._track(track_name)
        if track.publisher not in (None, publisher):
            raise ProtocolError(
                f"track {track_name!r} is published by {track.publisher!r}, not {publisher!r}"
            )
        if group_id in track.live or group_id < (track.next_expected or 0):
            state = "live" if group_id in track.live else "ingested"
            raise MonotonicityError(f"track {track_name!r} group {group_id} is already {state}")
        track.publisher = publisher
        track.live[group_id] = handle
        return [JoinLive(s.sid, handle) for s in self.sessions_of(track_name) if s.filter is None]

    def ingest_group(self, track_name: str, group_id: int, payload: object) -> list[Action]:
        """Store a finished group, which is no longer live.  It has no
        approvals yet, so this releases nothing and returns no actions."""
        track = self._track(track_name)
        track.live.pop(group_id, None)
        if track.next_expected is None:
            # First group establishes the base id for the track.
            track.first = group_id
            for state in self.sessions_of(track_name):
                if state.filter is not None and state.next_deliver < group_id:
                    state.next_deliver = group_id
        elif group_id != track.next_expected:
            raise MonotonicityError(
                f"track {track_name!r} expected group {track.next_expected}, "
                f"got {group_id}"
            )
        track.next_expected = group_id + 1
        held = track.held
        held[group_id] = _Held(payload)
        if len(held) > self.retention:
            del held[next(iter(held))]
        return []

    # -- approval -------------------------------------------------------------

    def handle_approve(self, sid: object, msg: Approve) -> list[Action]:
        state = self._sessions.get(sid)
        if state is None:
            raise ProtocolError(f"approval from unknown session {sid!r}")
        if msg.subscribe_id != state.subscribe_id:
            raise ProtocolError(
                f"approval names subscription {msg.subscribe_id}, "
                f"session holds {state.subscribe_id}"
            )
        if state.analyze is None:
            raise ProtocolError("approval from a session without the analyzer role")
        extra = [cat for cat in msg.categories if cat not in state.analyze]
        if extra:
            raise ProtocolError(
                f"approval covers categories {extra} outside the session's analyze set"
            )
        track = self._track(state.track)
        # An analyzer can approve a group only after receiving its end, which
        # the relay forwards as it ingests the group.  Refusing approval of a
        # group not yet ingested leaves every recorded approval on a held group.
        if track.next_expected is None or msg.group_id >= track.next_expected:
            raise ProtocolError(
                f"approval for group {msg.group_id} of track {state.track!r}, "
                f"which has not been ingested"
            )
        group = track.held.get(msg.group_id)
        if group is None:
            self.log.emit(
                "relay",
                "approve_ignored",
                sid=str(sid),
                group_id=msg.group_id,
                reason="group evicted" if msg.group_id >= track.first else f"track starts at group {track.first}",
            )
            return []
        coverage_changed = not group.approved.issuperset(msg.categories)
        group.approved.update(msg.categories)
        self.log.emit(
            "relay",
            "approve_recorded",
            sid=str(sid),
            group_id=msg.group_id,
            categories=list(msg.categories),
        )
        if not coverage_changed:
            return []
        return self._gate_all(track)

    # -- gating ---------------------------------------------------------------

    def _gate_all(self, track: _TrackState) -> list[Action]:
        actions: list[Action] = []
        name = track.name
        for state in self._sessions.values():
            if state.filter is not None and state.track == name:
                actions += self._gate_one(track, state)
        return actions

    def _gate_one(self, track: _TrackState, state: SessionState) -> list[Action]:
        """Release, oldest first, every held group not yet given to the
        session whose filter categories are all approved; the unapproved
        groups before each release are skipped for good.  Reached only
        after an approval, so the track has ingested a group."""
        assert state.filter is not None and track.next_expected is not None
        actions: list[Action] = []
        held = track.held
        first = max(track.next_expected - len(held), state.next_deliver)
        for gid in range(first, track.next_expected):
            if not held[gid].approved.issuperset(state.filter):
                continue
            if gid > state.next_deliver:
                skipped = tuple(range(state.next_deliver, gid))
                actions.append(SkipGroups(state.sid, skipped))
            state.next_deliver = gid + 1
            actions.append(DeliverGroup(state.sid, gid, held[gid].payload))
        return actions


class _LiveGroup:
    """One publisher group stream passing through the relay: its parse,
    every chunk so far included, whether the core has started it, and the
    streams its chunks go on to.  The core holds it as the group's
    handle."""

    def __init__(self) -> None:
        self.parse = GroupParse()
        self.started = False
        self.fanout: dict[object, object] = {}  # sid -> SendStream


class RelayServer:
    """Runs a :class:`RelayCore` over transport sessions and a clock; its
    parse of each live group goes in ``shared``, for receivers to follow."""

    def __init__(self, clock: Clock, retention: int = 64, log: EventLog | None = None) -> None:
        self.clock = clock
        self.log = log if log is not None else EventLog(lambda: clock.now)
        self.core = RelayCore(retention, self.log)
        self.shared = SharedParses()
        self._sessions: dict[object, Session] = {}

    def attach(self, sid: object, session: Session) -> None:
        """Adopt one side of a connected link as a relay session."""
        self._sessions[sid] = session
        session.set_on_control(partial(self._on_control, sid, ControlStreamDecoder()))
        session.set_on_stream(lambda rs: rs.set_on_data(partial(self._on_group_data, sid, _LiveGroup())))
        session.set_on_close(partial(self._forget, sid))

    # -- control path ----------------------------------------------------------

    def _on_control(self, sid: object, decoder: ControlStreamDecoder, data: bytes) -> None:
        try:
            messages = decoder.feed(data)
        except WireError as exc:
            self._fail_session(sid, f"undecodable control bytes: {exc}")
            return
        for msg in messages:
            if not self._apply(sid, self._dispatch, sid, msg):
                return

    def _dispatch(self, sid: object, msg: ControlMessage) -> list[Action]:
        if isinstance(msg, Subscribe):
            return self.core.handle_subscribe(sid, msg)
        return self.core.handle_approve(sid, msg)

    def _apply(self, sid: object, handler, *args) -> bool:
        """Carry out the actions a core handler returns, or fail session
        ``sid`` when the handler refuses; returns whether it carried out."""
        try:
            actions = handler(*args)
        except ProtocolError as exc:
            self._fail_session(sid, str(exc))
            return False
        self._execute(actions)
        return True

    def _fail_session(self, sid: object, reason: str) -> None:
        self.log.emit("relay", "protocol_error", sid=str(sid), reason=reason)
        session = self._forget(sid)
        if session is not None and not session.closed:
            session.close()

    def _forget(self, sid: object) -> Session | None:
        """Drop every trace of a session, including any group it was
        publishing; returns the session if it was attached.  Live streams
        to it are dropped at their next send, which it refuses."""
        self.core.remove_session(sid)
        return self._sessions.pop(sid, None)

    # -- publisher data path -----------------------------------------------------

    def _on_group_data(self, sid: object, live: _LiveGroup, data: bytes, fin: bool) -> None:
        parse = live.parse
        try:
            parse.feed(data, fin)
        except WireError as exc:
            self._fail_session(sid, f"bad group stream: {exc}")
            return
        parser = parse.parser
        track, group_id = parser.track, parser.group_id
        # A chunk that completes the header starts the group; its receivers
        # join with the chunks before it, and until then there are none.
        if not live.started and track is not None:
            if not self._apply(sid, self.core.start_group, sid, track, group_id, live):
                return
            live.started = True
            self.shared.live = parse
        # A send runs no callback, so the dict cannot change in this loop;
        # a receiver that refuses the chunk is dropped after it.
        refused = []
        for sub_sid, stream in live.fanout.items():
            try:
                if fin:
                    stream.end(data)
                else:
                    stream.send(data)
            except DisconnectedError:
                refused.append(sub_sid)
        for sub_sid in refused:
            del live.fanout[sub_sid]
        if fin:
            if self.shared.live is parse:
                self.shared.live = None
            if self._apply(sid, self.core.ingest_group, track, group_id, b"".join(parse.chunks)):
                self._schedule_stall_checks(track, group_id)

    def _join(self, live: _LiveGroup, sid: object, session: Session) -> None:
        """Open a stream of ``live`` to ``sid`` and send it the chunks
        forwarded so far, as one: while the group starts, every chunk but
        the one being forwarded, which follows on its own."""
        chunks = live.parse.chunks
        stream = session.open_stream()
        stream.send(b"".join(chunks if live.started else chunks[:-1]))
        live.fanout[sid] = stream

    # -- action execution ----------------------------------------------------------

    def _execute(self, actions: list[Action]) -> None:
        for action in actions:
            session = self._sessions.get(action.sid)
            if session is None or isinstance(action, SkipGroups):
                continue
            if isinstance(action, JoinLive):
                self._join(action.handle, action.sid, session)
                continue
            assert isinstance(action.payload, bytes)
            session.open_stream().end(action.payload)
            self.log.emit(
                "relay",
                "group_delivered",
                sid=str(action.sid),
                group_id=action.group_id,
            )

    # -- stall alarms ------------------------------------------------------------

    def _schedule_stall_checks(self, track: str, group_id: int) -> None:
        due = self.clock.now + STALL_ALARM_MS
        for state in self.core.sessions_of(track):
            if state.filter is not None:
                self.clock.at(due, partial(self._check_stall, state.sid, track, group_id))

    def _check_stall(self, sid: object, track: str, group_id: int) -> None:
        state = self.core.session(sid)
        if state is None or state.filter is None or state.next_deliver > group_id:
            return
        self.log.emit(
            "relay",
            "gating_stalled",
            sid=str(sid),
            track=track,
            group_id=group_id,
            waiting_ms=STALL_ALARM_MS,
        )
