"""Deterministic single-threaded network simulation.

This is the only transport.  The relay and every client run over the
:class:`Session` endpoints below and keep time through a :class:`Clock`;
those two are their contract, and :class:`SimNetwork` is the clock they
are given.  A clock tells the time (``now``) and runs a callback at a
virtual time no earlier than now (``at``).  Events at the same instant run
in the order they were scheduled; that is the one tie rule.

A :class:`SimNetwork` owns a virtual clock and an event heap.  Connecting a
:class:`Link` yields two :class:`Session` endpoints; each session can send
control messages (a reserved ordered channel) and open unidirectional data
streams toward its peer.  Delivery applies the link's one-way delay plus an
optional seeded jitter draw, with arrival order preserved *within* each
stream (later chunks never overtake earlier ones); separate streams may
interleave freely, as on a real multiplexed connection.

Sessions are callback-only: control messages go to ``on_control``, each
new stream to ``on_stream`` and its chunks to that stream's ``on_data``.
Whatever arrives with no callback registered is discarded, so the
transport buffers nothing for the receiver.  A session holds a receiving
stream only while it is open and drops it when its ``fin`` arrives.

All timestamps are virtual milliseconds.  Runs are fully deterministic for
a given seed: a link direction with jitter draws from its own generator,
seeded from a hash of the link seed and direction, never from
interpreter-dependent state; a direction without jitter builds no generator.

A chunk is handed to its direction as the receiving session's handler for
its kind (``_receive_data``, ``_receive_control`` or ``_receive_close``)
with the chunk bound to it, and runs as one heap event on arrival.

Connected sessions point at each other and their callbacks at the objects
that registered them, so a run's graph is cyclic.  :meth:`SimNetwork.shutdown`
ends a run by dropping pending events and tearing every session down, which
frees the graph by reference counting instead of leaving it to the cyclic
garbage collector.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Protocol

__all__ = [
    "Clock",
    "SimTimeoutError",
    "DisconnectedError",
    "Link",
    "SimNetwork",
    "Session",
    "SendStream",
    "RecvStream",
    "derive_seed",
]


class SimTimeoutError(RuntimeError):
    """The simulation exceeded its virtual-time or event budget."""


class DisconnectedError(ConnectionError):
    """Operation attempted on a closed session (locally or by the peer)."""


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from arbitrary labels (independent of hash
    randomization, unlike seeding ``random.Random`` with a string)."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Link:
    """One-way delays and jitter for a point-to-point connection.

    ``reverse_delay_ms`` defaults to ``delay_ms``.  Jitter draws are uniform
    in [-jitter_ms, +jitter_ms] around the base delay, independently per
    direction.
    """

    delay_ms: float = 0.0
    reverse_delay_ms: float | None = None
    jitter_ms: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delay_ms < 0 or (self.reverse_delay_ms or 0) < 0:
            raise ValueError("link delays must be non-negative")
        if self.jitter_ms < 0:
            raise ValueError("jitter must be non-negative")


class Clock(Protocol):
    """Virtual time and scheduling: what the relay and the clients use of
    the network that runs them.  ``at`` runs a callback at a time no earlier
    than ``now``; callbacks due at the same instant run in the order they
    were scheduled."""

    @property
    def now(self) -> float: ...
    def at(self, time_ms: float, fn: Callable[[], None]) -> None: ...


class SimNetwork:
    """Event loop over virtual time; a :class:`Clock`."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self.events_processed = 0
        self._sessions: list[Session] = []

    @property
    def now(self) -> float:
        return self._now

    def at(self, time_ms: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at an absolute virtual time (>= now), after every
        event already scheduled for that instant."""
        if time_ms < self._now:
            raise ValueError(f"cannot schedule at {time_ms} ms; now is {self._now} ms")
        heapq.heappush(self._heap, (float(time_ms), self._seq, fn))
        self._seq += 1

    def connect(
        self, link: Link, name_a: str = "a", name_b: str = "b"
    ) -> tuple["Session", "Session"]:
        """Create two connected session endpoints over ``link``."""
        session_a = Session(name_a, name_b)
        session_b = Session(name_b, name_a)
        reverse = link.reverse_delay_ms if link.reverse_delay_ms is not None else link.delay_ms
        session_a._attach(
            session_b,
            _Direction(self, link.delay_ms, link.jitter_ms, derive_seed(link.seed, name_a, name_b)),
        )
        session_b._attach(
            session_a,
            _Direction(self, reverse, link.jitter_ms, derive_seed(link.seed, name_b, name_a)),
        )
        self._sessions += (session_a, session_b)
        return session_a, session_b

    def shutdown(self) -> None:
        """End the run: drop pending events and close every session without
        notifying its peer, releasing its peer, link and callbacks."""
        self._heap.clear()
        for session in self._sessions:
            session._teardown()
        self._sessions.clear()

    def run_until_idle(
        self, max_virtual_ms: float = 600_000.0, max_events: int = 1_000_000
    ) -> float:
        """Process events until none remain; returns the final virtual time.

        Raises :class:`SimTimeoutError` if an event is scheduled past
        ``max_virtual_ms`` or more than ``max_events`` events fire — both
        symptoms of a runaway or stalled scenario rather than a finished one.
        """
        heap = self._heap
        pop = heapq.heappop
        events = self.events_processed
        try:
            while heap:
                time_ms, _, fn = pop(heap)
                if time_ms > max_virtual_ms:
                    raise SimTimeoutError(
                        f"virtual time {time_ms} ms exceeds budget {max_virtual_ms} ms"
                    )
                events += 1
                if events > max_events:
                    raise SimTimeoutError(f"exceeded event budget of {max_events}")
                self._now = time_ms
                fn()
        finally:
            self.events_processed = events
        return self._now


class _Direction:
    """One direction of a link: delay model plus per-stream order clamping."""

    def __init__(self, net: SimNetwork, delay_ms: float, jitter_ms: float, seed: int) -> None:
        self._net = net
        self._delay = float(delay_ms)
        self._jitter = float(jitter_ms)
        # Only a jittered link draws, so only a jittered link has a generator.
        self._rng = random.Random(seed) if self._jitter else None
        self._last_arrival: dict[int, float] = {}

    def transmit(self, stream_id: int, fin: bool, deliver: Callable[[], None]) -> None:
        net = self._net
        now = net._now
        arrival = now + self._delay
        # Without jitter every chunk arrives one fixed delay after its send,
        # so per-stream order holds by itself.  With it, never deliver
        # before a chunk sent earlier on the same stream, and never before
        # the send instant itself.
        if self._jitter:
            arrival += self._rng.uniform(-self._jitter, self._jitter)
            arrival = max(arrival, self._last_arrival.get(stream_id, 0.0), now)
            if fin:
                self._last_arrival.pop(stream_id, None)  # nothing follows fin
            else:
                self._last_arrival[stream_id] = arrival
        heapq.heappush(net._heap, (arrival, net._seq, deliver))
        net._seq += 1


_CONTROL_STREAM_ID = 0


class RecvStream:
    """Receiving end of a unidirectional stream.

    Each chunk goes to the ``on_data`` callback, or is discarded when none
    is registered.  The session drops the stream when its ``fin`` arrives,
    and with it the callback and whatever the receiver kept for the stream.
    """

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._on_data: Callable[[bytes, bool], None] | None = None

    def set_on_data(self, fn: Callable[[bytes, bool], None]) -> None:
        """Register a chunk callback ``fn(data, fin)``."""
        self._on_data = fn


class SendStream:
    """Sending end of a unidirectional stream."""

    def __init__(self, session: "Session", stream_id: int) -> None:
        self._session = session
        self.stream_id = stream_id
        self.ended = False

    def send(self, data: bytes) -> None:
        if self.ended:
            raise ValueError(f"stream {self.stream_id} already ended")
        session = self._session
        if session.closed or session._peer_closed:
            session._check_open()
        if data:
            stream_id = self.stream_id
            receive = partial(session._peer._receive_data, stream_id, bytes(data), False)
            session._outgoing.transmit(stream_id, False, receive)

    def end(self, data: bytes = b"") -> None:
        """Send any final bytes and mark the stream finished."""
        if self.ended:
            raise ValueError(f"stream {self.stream_id} already ended")
        session = self._session
        session._check_open()
        self.ended = True
        stream_id = self.stream_id
        receive = partial(session._peer._receive_data, stream_id, bytes(data), True)
        session._outgoing.transmit(stream_id, True, receive)


class Session:
    """One endpoint of a connected link."""

    def __init__(self, name: str, peer_name: str) -> None:
        self.name = name
        self.peer_name = peer_name
        self.closed = False
        self._peer_closed = False
        self._peer: Session | None = None
        self._outgoing: _Direction | None = None
        self._next_stream_id = _CONTROL_STREAM_ID + 1
        self._recv_streams: dict[int, RecvStream] = {}  # open streams only
        self._on_control: Callable[[bytes], None] | None = None
        self._on_stream: Callable[[RecvStream], None] | None = None
        self._on_close: Callable[[], None] | None = None

    def _attach(self, peer: "Session", outgoing: _Direction) -> None:
        self._peer = peer
        self._outgoing = outgoing

    def _teardown(self) -> None:
        self.closed = True
        self._peer = self._outgoing = None
        self._on_control = self._on_stream = self._on_close = None
        self._recv_streams.clear()

    # -- callbacks ---------------------------------------------------------

    def set_on_control(self, fn: Callable[[bytes], None]) -> None:
        self._on_control = fn

    def set_on_stream(self, fn: Callable[[RecvStream], None]) -> None:
        self._on_stream = fn

    def set_on_close(self, fn: Callable[[], None]) -> None:
        self._on_close = fn

    # -- sending -----------------------------------------------------------

    def open_stream(self) -> SendStream:
        self._check_open()
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        return SendStream(self, stream_id)

    def send_control(self, data: bytes) -> None:
        """Send one control message; boundaries are preserved in delivery."""
        self._check_open()
        receive = partial(self._peer._receive_control, bytes(data))
        self._outgoing.transmit(_CONTROL_STREAM_ID, False, receive)

    def close(self) -> None:
        """Close locally; the peer learns after the one-way delay."""
        if self.closed:
            return
        self.closed = True
        self._outgoing.transmit(_CONTROL_STREAM_ID, False, self._peer._receive_close)

    # -- internals ----------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise DisconnectedError(f"session {self.name!r} is closed")
        if self._peer_closed:
            raise DisconnectedError(f"peer {self.peer_name!r} disconnected")

    def _receive_close(self) -> None:
        if self.closed:
            return  # arrived after local close; dropped on the floor
        self._peer_closed = True
        if self._on_close is not None:
            self._on_close()

    def _receive_control(self, data: bytes) -> None:
        if not self.closed and self._on_control is not None:
            self._on_control(data)

    def _receive_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if self.closed:
            return
        streams = self._recv_streams
        stream = streams.get(stream_id)
        if stream is None:
            stream = streams[stream_id] = RecvStream(stream_id)
            if self._on_stream is not None:
                self._on_stream(stream)
        if fin:
            # _Direction keeps arrival order per stream, so nothing follows fin.
            del streams[stream_id]
        if stream._on_data is not None:
            stream._on_data(data, fin)
