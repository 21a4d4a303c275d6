"""Deterministic single-threaded network simulation.

This is the only transport.  The relay and every client run over the
:class:`Session` endpoints below and keep time through a :class:`Clock`;
those two are their contract, and :class:`SimNetwork` is the clock they
are given.  A clock tells the time (``now``) and runs a callback at a
virtual time no earlier than now (``at``).  Events at the same instant run
in the order they were scheduled; that is the one tie rule.

A :class:`SimNetwork` owns a virtual clock and an event heap, and
:meth:`SimNetwork.connect` yields two :class:`Session` endpoints; each
session can send control messages (a reserved ordered channel) and open
unidirectional data streams toward its peer.  Delivery applies the sender's
one-way delay plus an optional seeded jitter draw, with arrival order
preserved *within* each stream (later chunks never overtake earlier ones);
separate streams may interleave freely, as on a real multiplexed connection.

Sessions are callback-only: control messages go to ``on_control``, each
new stream to ``on_stream`` and its chunks to that stream's ``on_data``.
Whatever arrives with no callback registered is discarded, so the
transport buffers nothing for the receiver.  A session holds a receiving
stream only while it is open and drops it when its ``fin`` arrives.

All timestamps are virtual milliseconds.  Runs are fully deterministic for
a given seed: a session with jitter draws from its own generator, seeded
from a hash of the connection seed and its direction, never from
interpreter-dependent state; a session without jitter builds no generator.

Each send is one heap event that runs, on arrival, the receiving session's
handler for its kind (``_receive_data``, ``_receive_control`` or
``_receive_close``) with the chunk bound to it.  The sender's ``_transmit``
schedules it through :meth:`SimNetwork.at`, with the delay, the jitter draw
and the per-stream order clamp, except in the commonest case: a data chunk
on a session without jitter, which :meth:`SendStream.send` pushes onto the
heap itself, one fixed delay on and in the same sequence as every other
event, to the handler the stream bound when it was opened.

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
from functools import partial
from typing import Callable, Protocol

__all__ = [
    "Clock",
    "SimTimeoutError",
    "DisconnectedError",
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
        if not time_ms >= self._now:  # also refuses NaN
            raise ValueError(f"cannot schedule at {time_ms} ms; now is {self._now} ms")
        heapq.heappush(self._heap, (float(time_ms), self._seq, fn))
        self._seq += 1

    def connect(
        self,
        name_a: str,
        name_b: str,
        delay_ms: float,
        reverse_delay_ms: float,
        jitter_ms: float = 0.0,
        seed: int = 0,
    ) -> tuple["Session", "Session"]:
        """Create two connected session endpoints: ``delay_ms`` is the
        one-way delay from ``name_a`` to ``name_b`` and ``reverse_delay_ms``
        the way back.  Each direction draws its own jitter, uniform in
        [-jitter_ms, +jitter_ms] around its delay."""
        # Written so that NaN fails the checks too.
        if not (delay_ms >= 0 and reverse_delay_ms >= 0):
            raise ValueError("link delays must be non-negative")
        if not jitter_ms >= 0:
            raise ValueError("jitter must be non-negative")
        session_a = Session(self, name_a, name_b, delay_ms, jitter_ms, seed)
        session_b = Session(self, name_b, name_a, reverse_delay_ms, jitter_ms, seed)
        session_a._peer = session_b
        session_b._peer = session_a
        self._sessions += (session_a, session_b)
        return session_a, session_b

    def shutdown(self) -> None:
        """End the run: drop pending events and close every session without
        notifying its peer, releasing its peer, network and callbacks."""
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
        # The peer's handler, bound once: a session keeps its peer until
        # teardown, and every send checks the session is open first.
        self._receive = session._peer._receive_data

    def send(self, data: bytes) -> None:
        if self.ended:
            raise ValueError(f"stream {self.stream_id} already ended")
        session = self._session
        if session.closed or session._peer_closed:
            session._check_open()
        if data:
            stream_id = self.stream_id
            receive = partial(self._receive, stream_id, bytes(data), False)
            if session._jitter:
                session._transmit(stream_id, False, receive)
            else:
                # Without jitter a chunk arrives one fixed delay after its
                # send, as _transmit would compute; pushing it here saves
                # the commonest hop a Python frame (measured inline copy).
                net = session._net
                heapq.heappush(net._heap, (net._now + session._delay, net._seq, receive))
                net._seq += 1

    def end(self, data: bytes = b"") -> None:
        """Send any final bytes and mark the stream finished."""
        if self.ended:
            raise ValueError(f"stream {self.stream_id} already ended")
        session = self._session
        if session.closed or session._peer_closed:
            session._check_open()
        self.ended = True
        stream_id = self.stream_id
        receive = partial(self._receive, stream_id, bytes(data), True)
        if session._jitter:
            session._transmit(stream_id, True, receive)
        else:
            # As in send: the arrival _transmit would compute, pushed here
            # (measured inline copy; every gated delivery is one end).
            net = session._net
            heapq.heappush(net._heap, (net._now + session._delay, net._seq, receive))
            net._seq += 1


class Session:
    """One endpoint of a connected link."""

    def __init__(
        self,
        net: SimNetwork,
        name: str,
        peer_name: str,
        delay_ms: float,
        jitter_ms: float,
        seed: int,
    ) -> None:
        self.name = name
        self.peer_name = peer_name
        self.closed = False
        self._peer_closed = False
        self._peer: Session | None = None
        self._net: SimNetwork | None = net
        # The outgoing direction: delay model plus per-stream order clamping.
        self._delay = float(delay_ms)
        self._jitter = float(jitter_ms)
        # Only a jittered direction draws, so only it has a generator,
        # seeded from the connection seed and the direction.
        self._rng = random.Random(derive_seed(seed, name, peer_name)) if self._jitter else None
        self._last_arrival: dict[int, float] = {}
        self._next_stream_id = _CONTROL_STREAM_ID + 1
        self._recv_streams: dict[int, RecvStream] = {}  # open streams only
        self._on_control: Callable[[bytes], None] | None = None
        self._on_stream: Callable[[RecvStream], None] | None = None
        self._on_close: Callable[[], None] | None = None

    def _teardown(self) -> None:
        self.closed = True
        self._peer = self._net = None
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
        if self.closed or self._peer_closed:
            self._check_open()
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        return SendStream(self, stream_id)

    def send_control(self, data: bytes) -> None:
        """Send one control message; boundaries are preserved in delivery."""
        self._check_open()
        receive = partial(self._peer._receive_control, bytes(data))
        self._transmit(_CONTROL_STREAM_ID, False, receive)

    def close(self) -> None:
        """Close locally; the peer learns after the one-way delay."""
        if self.closed:
            return
        self.closed = True
        self._transmit(_CONTROL_STREAM_ID, False, self._peer._receive_close)

    # -- internals ----------------------------------------------------------

    def _transmit(self, stream_id: int, fin: bool, deliver: Callable[[], None]) -> None:
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
        net.at(arrival, deliver)

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
            # _transmit keeps arrival order per stream, so nothing follows fin.
            del streams[stream_id]
        if stream._on_data is not None:
            stream._on_data(data, fin)
