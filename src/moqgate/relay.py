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

:class:`RelayCore` holds all of that state with no knowledge of transport —
its handlers return :data:`Action` lists.  :class:`RelayServer` binds a core
to simulated network sessions, forwards frames live, executes gated
deliveries, and raises log-only stall alarms when gating starves a
subscriber.  The server parses every publisher chunk, to validate it and
to learn the group's header, but forwards the publisher's bytes as
received: each chunk's header and completed frames, which for a chunk that
ends on a frame boundary is the very bytes object that arrived.  A
publisher's non-minimal varints therefore reach live subscribers as sent,
not re-encoded.  The server stores each group in the core once, as the
stream it forwarded live, and every gated delivery of that group sends the
same bytes object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Union

from .eventlog import EventLog
from .framing import ControlStreamDecoder, GroupStreamParser
from .transport import DisconnectedError, RecvStream, Session, SimNetwork
from .wire import (
    ANALYZE_PARAM,
    FILTER_PARAM,
    Approve,
    ControlMessage,
    Parameter,
    Subscribe,
    SubscribeOk,
    SubscribeUpdate,
    WireError,
    encode_message,
    parameter_categories,
)

__all__ = [
    "ProtocolError",
    "MonotonicityError",
    "SendControl",
    "DeliverGroup",
    "SkipGroups",
    "SessionState",
    "RelayCore",
    "RelayServer",
    "DEFAULT_CAPABILITIES",
    "STALL_ALARM_MS",
]

DEFAULT_CAPABILITIES = frozenset({1, 2, 3})

# How long a filtered subscriber may wait on one group before the server
# logs a ``gating_stalled`` alarm (virtual ms).
STALL_ALARM_MS = 10_000.0


class ProtocolError(Exception):
    """Peer violated the subscription/approval protocol."""


class MonotonicityError(ProtocolError):
    """Publisher sent a group id that is not the successor of the last one."""


@dataclass(frozen=True)
class SendControl:
    sid: object
    message: ControlMessage


@dataclass(frozen=True)
class DeliverGroup:
    sid: object
    track: str
    group_id: int
    payload: object


@dataclass(frozen=True)
class SkipGroups:
    sid: object
    track: str
    group_ids: tuple[int, ...]


Action = Union[SendControl, DeliverGroup, SkipGroups]


@dataclass
class SessionState:
    sid: object
    subscribe_id: int
    track: str
    analyze: tuple[int, ...] | None = None
    filter: tuple[int, ...] | None = None
    next_deliver: int = 0


@dataclass
class _TrackState:
    name: str
    stored: dict[int, object] = field(default_factory=dict)
    approvals: dict[int, dict[int, set]] = field(default_factory=dict)
    next_expected: int | None = None
    # Ids below this are not held: evicted, or before the track's first group.
    evicted_below: int | None = None


class RelayCore:
    """Transport-free relay state machine.

    Every handler either raises :class:`ProtocolError` (the caller should
    drop the offending session) or returns the list of actions the relay
    must carry out, in order.
    """

    def __init__(self, retention: int = 64, log: EventLog | None = None) -> None:
        if retention < 1:
            raise ValueError("retention must be at least 1 group")
        self.retention = retention
        self.log = log if log is not None else EventLog()
        self._sessions: dict[object, SessionState] = {}
        self._tracks: dict[str, _TrackState] = {}

    # -- accessors -----------------------------------------------------------

    def session(self, sid: object) -> SessionState:
        return self._sessions[sid]

    def has_session(self, sid: object) -> bool:
        return sid in self._sessions

    def sessions_of(self, track: str) -> list[SessionState]:
        return [s for s in self._sessions.values() if s.track == track]

    def unfiltered_sids(self, track: str) -> list[object]:
        """Sessions that receive frames live (plain subscribers + analyzers)."""
        return [s.sid for s in self.sessions_of(track) if s.filter is None]

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
        unsupported = set(categories) - DEFAULT_CAPABILITIES
        if unsupported:
            raise ProtocolError(
                f"unsupported {role} categories: {sorted(unsupported)}"
            )
        return categories

    def handle_subscribe(self, sid: object, msg: Subscribe) -> list[Action]:
        if sid in self._sessions:
            raise ProtocolError(f"session {sid!r} is already subscribed")
        analyze, filter_ = self._parse_roles(msg.parameters)
        track = self._track(msg.track_name)
        state = SessionState(
            sid=sid,
            subscribe_id=msg.subscribe_id,
            track=msg.track_name,
            analyze=analyze,
            filter=filter_,
            next_deliver=track.next_expected if track.next_expected is not None else 0,
        )
        self._sessions[sid] = state
        self.log.emit(
            "relay",
            "subscribed",
            sid=str(sid),
            track=msg.track_name,
            analyze=list(analyze or ()),
            filter=list(filter_ or ()),
        )
        return [SendControl(sid, SubscribeOk(msg.subscribe_id))]

    def handle_subscribe_update(self, sid: object, msg: SubscribeUpdate) -> list[Action]:
        state = self._sessions.get(sid)
        if state is None:
            raise ProtocolError(f"update from unknown session {sid!r}")
        if msg.subscribe_id != state.subscribe_id:
            raise ProtocolError(
                f"update names subscription {msg.subscribe_id}, "
                f"session holds {state.subscribe_id}"
            )
        analyze, filter_ = self._parse_roles(msg.parameters)
        was_filter = state.filter is not None
        state.analyze = analyze
        state.filter = filter_
        track = self._track(state.track)
        actions: list[Action] = [SendControl(sid, SubscribeOk(msg.subscribe_id))]
        if was_filter and filter_ is None:
            # Leaving the filtered role releases everything still held back,
            # oldest first, approved or not.
            for gid in _held(track, state):
                actions.append(DeliverGroup(sid, track.name, gid, track.stored[gid]))
                state.next_deliver = gid + 1
        elif filter_ is not None:
            if not was_filter:
                state.next_deliver = (
                    track.next_expected if track.next_expected is not None else 0
                )
            actions.extend(self._gate_one(track, state))
        self.log.emit(
            "relay",
            "subscription_updated",
            sid=str(sid),
            analyze=list(analyze or ()),
            filter=list(filter_ or ()),
        )
        return actions

    def remove_session(self, sid: object) -> list[Action]:
        self._sessions.pop(sid, None)
        return []

    # -- media ingest ---------------------------------------------------------

    def _track(self, name: str) -> _TrackState:
        track = self._tracks.get(name)
        if track is None:
            track = self._tracks[name] = _TrackState(name)
        return track

    def ingest_group(self, track_name: str, group_id: int, payload: object) -> list[Action]:
        track = self._track(track_name)
        if track.next_expected is None:
            # First group establishes the base id for the track.
            for state in self.sessions_of(track_name):
                if state.filter is not None and state.next_deliver < group_id:
                    state.next_deliver = group_id
            track.evicted_below = group_id
        elif group_id != track.next_expected:
            raise MonotonicityError(
                f"track {track_name!r} expected group {track.next_expected}, "
                f"got {group_id}"
            )
        track.next_expected = group_id + 1
        track.stored[group_id] = payload
        floor = group_id - self.retention + 1
        for gid in [g for g in track.stored if g < floor]:
            del track.stored[gid]
            track.approvals.pop(gid, None)
            track.evicted_below = max(track.evicted_below, gid + 1)
        self.log.emit("relay", "group_stored", track=track_name, group_id=group_id)
        return self._gate_all(track)

    # -- approvals ------------------------------------------------------------

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
        extra = set(msg.categories) - set(state.analyze)
        if extra:
            raise ProtocolError(
                f"approval covers categories {sorted(extra)} outside the "
                f"session's analyze set"
            )
        track = self._track(state.track)
        # An analyzer can approve a group only after receiving its end, which
        # the relay forwards as it ingests the group.  Refusing approvals of
        # groups not yet ingested keeps the ledger to held groups, so it
        # stays within retention.
        if track.next_expected is None or msg.group_id >= track.next_expected:
            raise ProtocolError(
                f"approval for group {msg.group_id} of track {state.track!r}, "
                f"which has not been ingested"
            )
        if msg.group_id < track.evicted_below:
            self.log.emit(
                "relay",
                "approve_ignored",
                sid=str(sid),
                group_id=msg.group_id,
                reason="group evicted",
            )
            return []
        slots = track.approvals.setdefault(msg.group_id, {})
        coverage_changed = False
        for cat in msg.categories:
            approvers = slots.setdefault(cat, set())
            if not approvers:
                coverage_changed = True
            approvers.add(sid)
        self.log.emit(
            "relay",
            "approve_recorded",
            sid=str(sid),
            group_id=msg.group_id,
            categories=list(msg.categories),
            new_coverage=coverage_changed,
        )
        if not coverage_changed:
            return []
        return self._gate_all(track)

    # -- gating ---------------------------------------------------------------

    def _gate_all(self, track: _TrackState) -> list[Action]:
        actions: list[Action] = []
        for state in self._sessions.values():
            if state.track == track.name and state.filter is not None:
                actions.extend(self._gate_one(track, state))
        return actions

    def _gate_one(self, track: _TrackState, state: SessionState) -> list[Action]:
        """Release, oldest first, every held group whose filter categories
        are all approved; the unapproved groups before each release are
        skipped for good."""
        assert state.filter is not None
        actions: list[Action] = []
        for gid in _held(track, state):
            slots = track.approvals.get(gid, {})
            if not all(slots.get(cat) for cat in state.filter):
                continue
            if gid > state.next_deliver:
                skipped = tuple(range(state.next_deliver, gid))
                actions.append(SkipGroups(state.sid, track.name, skipped))
                self.log.emit(
                    "relay",
                    "groups_skipped",
                    sid=str(state.sid),
                    track=track.name,
                    group_ids=list(skipped),
                )
            actions.append(DeliverGroup(state.sid, track.name, gid, track.stored[gid]))
            state.next_deliver = gid + 1
            self.log.emit(
                "relay",
                "group_released",
                sid=str(state.sid),
                track=track.name,
                group_id=gid,
            )
        return actions


def _held(track: _TrackState, state: SessionState) -> list[int]:
    """Stored group ids not yet given to the session, ascending."""
    return [gid for gid in sorted(track.stored) if gid >= state.next_deliver]


class _LiveGroup:
    """A group currently streaming through the relay."""

    def __init__(self, track: str, group_id: int) -> None:
        self.track = track
        self.group_id = group_id
        self.sent_bytes = bytearray()
        self.fanout: dict[object, object] = {}  # sid -> SendStream


class RelayServer:
    """Runs a :class:`RelayCore` over simulated network sessions."""

    def __init__(
        self,
        net: SimNetwork,
        core: RelayCore | None = None,
        log: EventLog | None = None,
    ) -> None:
        self.net = net
        self.log = log if log is not None else EventLog(lambda: net.now)
        self.core = core if core is not None else RelayCore(log=self.log)
        self._sessions: dict[object, Session] = {}
        self._decoders: dict[object, ControlStreamDecoder] = {}
        self._live: dict[str, _LiveGroup] = {}

    def attach(self, sid: object, session: Session) -> None:
        """Adopt one side of a connected link as a relay session."""
        self._sessions[sid] = session
        self._decoders[sid] = ControlStreamDecoder()
        session.set_on_control(lambda data: self._on_control(sid, data))
        session.set_on_stream(lambda rs: self._on_incoming_stream(sid, rs))
        session.set_on_close(lambda: self._on_close(sid))

    # -- control path ----------------------------------------------------------

    def _on_control(self, sid: object, data: bytes) -> None:
        try:
            messages = self._decoders[sid].feed(data)
        except WireError as exc:
            self._fail_session(sid, f"undecodable control bytes: {exc}")
            return
        for msg in messages:
            try:
                actions = self._dispatch(sid, msg)
            except ProtocolError as exc:
                self._fail_session(sid, str(exc))
                return
            self._execute(actions)
            if isinstance(msg, (Subscribe, SubscribeUpdate)):
                self._catch_up_live(sid)

    def _dispatch(self, sid: object, msg: ControlMessage) -> list[Action]:
        if isinstance(msg, Subscribe):
            return self.core.handle_subscribe(sid, msg)
        if isinstance(msg, SubscribeUpdate):
            return self.core.handle_subscribe_update(sid, msg)
        if isinstance(msg, Approve):
            return self.core.handle_approve(sid, msg)
        self.log.emit("relay", "control_ignored", sid=str(sid), message=type(msg).__name__)
        return []

    def _fail_session(self, sid: object, reason: str) -> None:
        self.log.emit("relay", "protocol_error", sid=str(sid), reason=reason)
        session = self._forget(sid)
        if session is not None and not session.closed:
            session.close()

    def _on_close(self, sid: object) -> None:
        self.log.emit("relay", "session_closed", sid=str(sid))
        self._forget(sid)

    def _forget(self, sid: object) -> Session | None:
        """Drop every trace of a session; returns it if it was attached."""
        self.core.remove_session(sid)
        self._decoders.pop(sid, None)
        for live in self._live.values():
            live.fanout.pop(sid, None)
        return self._sessions.pop(sid, None)

    # -- publisher data path -----------------------------------------------------

    def _on_incoming_stream(self, sid: object, rs: RecvStream) -> None:
        holder: dict[str, _LiveGroup | None] = {"live": None}
        rs.set_on_data(partial(self._on_group_data, sid, GroupStreamParser(), holder))

    def _on_group_data(
        self,
        sid: object,
        parser: GroupStreamParser,
        holder: dict,
        data: bytes,
        fin: bool,
    ) -> None:
        try:
            parser.feed(data, fin)
        except WireError as exc:
            self._fail_session(sid, f"bad group stream: {exc}")
            return
        live = holder["live"]
        if live is None and parser.frame_count is not None:
            assert parser.track is not None and parser.group_id is not None
            live = _LiveGroup(parser.track, parser.group_id)
            holder["live"] = live
            self._live[parser.track] = live
            # Snapshot of live receivers is taken when the group starts.
            for sub_sid in self.core.unfiltered_sids(parser.track):
                self._open_fanout(live, sub_sid)
        blob = parser.span
        if live is not None and (blob or fin):
            live.sent_bytes += blob
            for sub_sid, stream in list(live.fanout.items()):
                try:
                    if fin:
                        stream.end(blob)
                    else:
                        stream.send(blob)
                except DisconnectedError:
                    live.fanout.pop(sub_sid, None)
        if fin and live is not None:
            self._live.pop(live.track, None)
            try:
                actions = self.core.ingest_group(live.track, live.group_id, bytes(live.sent_bytes))
            except ProtocolError as exc:
                self._fail_session(sid, str(exc))
                return
            self._execute(actions)
            self._schedule_stall_checks(live.track, live.group_id)

    def _open_fanout(self, live: _LiveGroup, sub_sid: object) -> None:
        session = self._sessions.get(sub_sid)
        if session is None or session.closed:
            return
        try:
            live.fanout[sub_sid] = session.open_stream()
        except DisconnectedError:
            pass

    def _catch_up_live(self, sid: object) -> None:
        """Bring a (now) unfiltered session into any in-progress group."""
        if not self.core.has_session(sid) or self.core.session(sid).filter is not None:
            return
        track = self.core.session(sid).track
        live = self._live.get(track)
        if live is None or sid in live.fanout:
            return
        session = self._sessions.get(sid)
        if session is None:
            return
        try:
            stream = session.open_stream()
            stream.send(bytes(live.sent_bytes))
        except DisconnectedError:
            return
        live.fanout[sid] = stream

    # -- action execution ----------------------------------------------------------

    def _execute(self, actions: list[Action]) -> None:
        for action in actions:
            if isinstance(action, SendControl):
                session = self._sessions.get(action.sid)
                if session is None:
                    continue
                try:
                    session.send_control(encode_message(action.message))
                except DisconnectedError:
                    self._on_close(action.sid)
            elif isinstance(action, DeliverGroup):
                self._deliver_group(action)

    def _deliver_group(self, action: DeliverGroup) -> None:
        session = self._sessions.get(action.sid)
        if session is None:
            return
        assert isinstance(action.payload, bytes)
        try:
            stream = session.open_stream()
            stream.end(action.payload)
        except DisconnectedError:
            self._on_close(action.sid)
            return
        self.log.emit(
            "relay",
            "group_delivered",
            sid=str(action.sid),
            track=action.track,
            group_id=action.group_id,
        )

    # -- stall alarms ------------------------------------------------------------

    def _schedule_stall_checks(self, track: str, group_id: int) -> None:
        for state in self.core.sessions_of(track):
            if state.filter is None or state.next_deliver > group_id:
                continue
            self.net.after(STALL_ALARM_MS, partial(self._check_stall, state.sid, track, group_id))

    def _check_stall(self, sid: object, track: str, group_id: int) -> None:
        if not self.core.has_session(sid):
            return
        state = self.core.session(sid)
        if state.filter is None or state.next_deliver > group_id:
            return
        self.log.emit(
            "relay",
            "gating_stalled",
            sid=str(sid),
            track=track,
            group_id=group_id,
            waiting_ms=STALL_ALARM_MS,
        )
