"""Simulated transport tests: virtual time, links, streams, ordering, close."""

from __future__ import annotations

import sys

import pytest
from recording import Recorder

from moqgate.transport import (
    DisconnectedError,
    SimNetwork,
    SimTimeoutError,
    derive_seed,
)


def make_pair(net, delay_ms, reverse_delay_ms=None, jitter_ms=0.0, seed=0):
    """Connect alpha to beta; the way back takes ``delay_ms`` unless given."""
    if reverse_delay_ms is None:
        reverse_delay_ms = delay_ms
    return net.connect("alpha", "beta", delay_ms, reverse_delay_ms, jitter_ms, seed)


class TestScheduler:
    def test_runs_events_in_time_order(self):
        net = SimNetwork()
        seen = []
        net.at(30, lambda: seen.append(("c", net.now)))
        net.at(10, lambda: seen.append(("a", net.now)))
        net.at(20, lambda: seen.append(("b", net.now)))
        end = net.run_until_idle()
        assert seen == [("a", 10.0), ("b", 20.0), ("c", 30.0)]
        assert end == 30.0

    def test_ties_run_in_insertion_order(self):
        net = SimNetwork()
        seen = []
        for tag in "xyz":
            net.at(5, lambda tag=tag: seen.append(tag))
        net.run_until_idle()
        assert seen == ["x", "y", "z"]

    def test_callbacks_can_schedule_more(self):
        net = SimNetwork()
        seen = []

        def step(n):
            seen.append((n, net.now))
            if n < 3:
                net.at(net.now + 7, lambda: step(n + 1))

        net.at(net.now, lambda: step(1))
        net.run_until_idle()
        assert seen == [(1, 0.0), (2, 7.0), (3, 14.0)]

    def test_past_or_negative_scheduling_rejected(self):
        net = SimNetwork()
        with pytest.raises(ValueError):
            net.at(-1, lambda: None)
        net.at(50, lambda: None)
        net.run_until_idle()
        with pytest.raises(ValueError):
            net.at(10, lambda: None)

    def test_nan_time_rejected(self):
        # NaN compares false with everything; accepted, it would sit in the
        # heap out of order and let later events run back in time.
        net = SimNetwork()
        with pytest.raises(ValueError):
            net.at(float("nan"), lambda: None)

    def test_virtual_time_cap(self):
        net = SimNetwork()

        def loop():
            net.at(net.now + 1000, loop)

        net.at(net.now, loop)
        with pytest.raises(SimTimeoutError):
            net.run_until_idle(max_virtual_ms=10_000)

    def test_event_budget_cap(self):
        net = SimNetwork()

        def loop():
            net.at(net.now, loop)

        net.at(net.now, loop)
        with pytest.raises(SimTimeoutError):
            net.run_until_idle(max_events=500)


class TestConnect:
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    @pytest.mark.parametrize("field", ["delay_ms", "reverse_delay_ms", "jitter_ms"])
    def test_bad_delay_or_jitter_rejected(self, field, bad):
        values = {"delay_ms": 1.0, "reverse_delay_ms": 1.0, "jitter_ms": 0.0, field: bad}
        with pytest.raises(ValueError):
            SimNetwork().connect("alpha", "beta", **values)


class TestControlChannel:
    def test_control_delivered_after_one_way_delay(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10)
        arrivals = []
        b.set_on_control(lambda data: arrivals.append((data, net.now)))
        a.send_control(b"hello")
        net.run_until_idle()
        assert arrivals == [(b"hello", 10.0)]

    def test_asymmetric_delays(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10, reverse_delay_ms=25)
        times = {}
        b.set_on_control(lambda d: times.__setitem__("fwd", net.now))
        a.set_on_control(lambda d: times.__setitem__("rev", net.now))
        a.send_control(b"x")
        b.send_control(b"y")
        net.run_until_idle()
        assert times == {"fwd": 10.0, "rev": 25.0}

    def test_echo_round_trip(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10)
        got = []
        b.set_on_control(lambda d: b.send_control(d.upper()))
        a.set_on_control(lambda d: got.append((d, net.now)))
        a.send_control(b"ping")
        net.run_until_idle()
        assert got == [(b"PING", 20.0)]


class TestStreams:
    def test_stream_chunks_ordered_and_finished(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10)
        received = []
        b.set_on_stream(lambda rs: rs.set_on_data(
            lambda data, fin: received.append((rs.stream_id, data, fin, net.now))
        ))
        s = a.open_stream()
        s.send(b"part1")
        net.at(3, lambda: s.send(b"part2"))
        net.at(6, lambda: s.end(b"tail"))
        net.run_until_idle()
        assert received == [
            (1, b"part1", False, 10.0),
            (1, b"part2", False, 13.0),
            (1, b"tail", True, 16.0),
        ]

    def test_callback_stream_buffers_nothing(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=1)
        received = []
        b.set_on_stream(lambda rs: rs.set_on_data(lambda data, fin: received.append(data)))
        open_at = []
        s = a.open_stream()
        s.send(b"ab")
        net.at(3, lambda: open_at.append(list(b._recv_streams)))
        net.at(5, lambda: s.end(b"cd"))
        net.run_until_idle()
        assert received == [b"ab", b"cd"]
        # held while open, dropped when fin arrives
        assert open_at == [[1]]
        assert b._recv_streams == {}

    def test_arrivals_without_callbacks_are_discarded(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=1)
        a.send_control(b"nobody listens")
        a.open_stream().send(b"still open")
        a.open_stream().end(b"done")
        net.run_until_idle()
        # only the open stream is held, and it keeps no chunks
        assert list(b._recv_streams) == [1]
        assert vars(b._recv_streams[1]) == {"stream_id": 1, "_on_data": None}

    def test_stream_ids_start_after_control(self):
        net = SimNetwork()
        a, _ = make_pair(net, delay_ms=1)
        assert a.open_stream().stream_id == 1
        assert a.open_stream().stream_id == 2

    def test_send_after_end_rejected(self):
        net = SimNetwork()
        a, _ = make_pair(net, delay_ms=1)
        s = a.open_stream()
        s.end()
        with pytest.raises(ValueError):
            s.send(b"late")
        with pytest.raises(ValueError):
            s.end()

    def test_two_streams_do_not_blend(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=2)
        s1 = a.open_stream()
        s2 = a.open_stream()
        s1.send(b"1a")
        s2.send(b"2a")
        s1.end(b"1b")
        s2.end(b"2b")
        received = Recorder(net, b)
        net.run_until_idle()
        assert received.chunks == [
            (1, b"1a", False, 2.0),
            (2, b"2a", False, 2.0),
            (1, b"1b", True, 2.0),
            (2, b"2b", True, 2.0),
        ]

    def test_ended_streams_leave_no_ordering_state(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=5, jitter_ms=3, seed=1)
        a.send_control(b"hello")
        for _ in range(100):
            s = a.open_stream()
            s.send(b"x")
            s.end(b"y")
        received = Recorder(net, b)
        net.run_until_idle()
        streams = received.by_stream()
        assert len(streams) == 100
        assert all([(d, fin) for d, fin, _ in s] == [(b"x", False), (b"y", True)] for s in streams)
        assert received.control == [b"hello"]
        # only the never-ending control stream keeps an arrival clamp
        assert set(a._last_arrival) == {0}
        assert b._recv_streams == {}


class TestLiveHop:
    """One chunk to one receiver: the simulator's commonest unit of work."""

    def test_an_unjittered_send_reaches_on_data_in_three_python_calls(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=5)
        got = []

        def on_data(data, fin):
            got.append(data)

        b.set_on_stream(lambda rs: rs.set_on_data(on_data))
        stream = a.open_stream()
        stream.send(b"first")  # opens the receiving stream
        net.run_until_idle()
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            stream.send(b"second")
            net.run_until_idle()
        finally:
            sys.setprofile(outer)
        assert got == [b"first", b"second"]
        # The send pushes its delivery onto the heap itself; the event loop
        # that pops it is not part of the hop.
        assert [name for name in calls if name != "run_until_idle"] == [
            "send",
            "_receive_data",
            "on_data",
        ]

    @pytest.mark.parametrize("jitter_ms", [0.0, 1e-12])
    def test_same_instant_sends_arrive_in_send_order(self, jitter_ms):
        # The unjittered send pushes onto the heap itself, and everything
        # else goes through _transmit; both take the one sequence number, so
        # sends that arrive at one instant arrive in send order.  At a
        # 2^19 ms delay a 1e-12 ms draw is below the arrival time's
        # resolution: the jittered path draws and clamps for every send,
        # yet every arrival lands on the same instant.
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=float(2**19), jitter_ms=jitter_ms)
        events = []
        b.set_on_stream(
            lambda rs: rs.set_on_data(lambda d, fin: events.append(("data", d, net.now)))
        )
        b.set_on_control(lambda d: events.append(("control", d, net.now)))
        b.set_on_close(lambda: events.append(("close", b"", net.now)))
        stream = a.open_stream()
        stream.send(b"d1")
        a.send_control(b"c")
        stream.send(b"d2")
        a.close()
        net.run_until_idle()
        at = float(2**19)
        assert events == [
            ("data", b"d1", at),
            ("control", b"c", at),
            ("data", b"d2", at),
            ("close", b"", at),
        ]
        assert (a._rng is not None) == bool(jitter_ms)


class TestJitter:
    def _arrivals(self, seed):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10, jitter_ms=2, seed=seed)
        times = []
        b.set_on_stream(lambda rs: rs.set_on_data(lambda d, f: times.append(net.now)))
        s = a.open_stream()
        for i in range(40):
            net.at(i * 5, lambda i=i: s.send(bytes([i])))
        net.run_until_idle()
        return times

    def test_draws_stay_within_band(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10, jitter_ms=2, seed=7)
        times = []
        b.set_on_control(lambda d: times.append(net.now))
        for i in range(60):
            net.at(i * 50, lambda: a.send_control(b"m"))
        net.run_until_idle()
        deltas = [t - i * 50 for i, t in enumerate(times)]
        assert all(8.0 <= d <= 12.0 for d in deltas)
        assert len(set(deltas)) > 1  # jitter actually varies

    def test_per_stream_order_preserved_under_jitter(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=3, jitter_ms=3, seed=11)
        order = []
        b.set_on_stream(lambda rs: rs.set_on_data(lambda d, f: order.append(d[0])))
        s = a.open_stream()
        for i in range(100):
            net.at(i, lambda i=i: s.send(bytes([i])))
        net.run_until_idle()
        assert order == list(range(100))

    def test_same_seed_reproduces_identical_timing(self):
        assert self._arrivals(123) == self._arrivals(123)

    def test_draws_are_pinned(self):
        # No bundled scenario or benchmark workload has jitter, so their
        # digests cannot see a change in the draws; these arrivals can.
        assert self._arrivals(123) == [
            9.58950925663987, 15.557411578208379, 19.749838623008124, 24.40348535955071,
            29.569434144911824, 34.59097758288647, 41.82375252909708, 44.69656384812784,
            49.20383636748364, 53.72919882000823, 61.04941626564999, 65.74092631282247,
            69.06223326294116, 74.8521819686757, 79.48623747223733, 86.06621346243956,
            89.74739184205842, 93.42951308896579, 98.91155959187789, 104.7964475340799,
            109.52518583289397, 116.04692768718516, 118.73424542507186, 125.70073949880366,
            130.93358895112854, 136.14631708266893, 141.00596184973406, 143.58509104392041,
            149.53034798094376, 153.9085655832217, 159.25369628673047, 166.6919385046539,
            171.99100895714398, 174.37051552328893, 178.63660409876218, 185.3495060472023,
            189.2089664857176, 196.97036046612507, 200.09042875076113, 205.72915940728288,
        ]

    def test_only_a_jittered_direction_holds_a_generator(self):
        net = SimNetwork()
        plain, _ = make_pair(net, delay_ms=10)
        jittered, _ = make_pair(net, delay_ms=10, jitter_ms=2)
        assert plain._rng is None
        assert jittered._rng is not None

    def test_different_seed_changes_timing(self):
        assert self._arrivals(123) != self._arrivals(124)

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed("link", 1, "fwd") == derive_seed("link", 1, "fwd")
        assert derive_seed("link", 1, "fwd") != derive_seed("link", 1, "rev")


class TestClose:
    def test_send_after_local_close_raises(self):
        net = SimNetwork()
        a, _ = make_pair(net, delay_ms=5)
        a.close()
        with pytest.raises(DisconnectedError):
            a.send_control(b"x")
        with pytest.raises(DisconnectedError):
            a.open_stream()

    def test_peer_learns_of_close_after_delay(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=5)
        closed_at = []
        b.set_on_close(lambda: closed_at.append(net.now))
        net.at(100, a.close)
        net.run_until_idle()
        assert closed_at == [105.0]
        with pytest.raises(DisconnectedError):
            b.send_control(b"late")

    def test_in_flight_data_to_closed_session_is_dropped(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=10)
        got = []
        a.set_on_control(lambda d: got.append(d))
        # b sends at t=0 (arrives t=10), but a closes at t=1.
        b.send_control(b"doomed")
        net.at(1, a.close)
        net.run_until_idle()
        assert got == []

    def test_close_notification_ordered_after_control(self):
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=5)
        events = []
        b.set_on_control(lambda d: events.append(("ctrl", d)))
        b.set_on_close(lambda: events.append(("close", b"")))
        a.send_control(b"last words")
        a.close()
        net.run_until_idle()
        assert events == [("ctrl", b"last words"), ("close", b"")]

    def test_closes_that_cross_notify_neither_side(self):
        # Each close reaches a session that has already closed itself.
        net = SimNetwork()
        a, b = make_pair(net, delay_ms=5)
        closed = []
        a.set_on_close(lambda: closed.append("a"))
        b.set_on_close(lambda: closed.append("b"))
        a.close()
        net.at(1, b.close)
        net.run_until_idle()
        assert closed == []
        assert not a._peer_closed and not b._peer_closed

    def test_close_is_idempotent(self):
        net = SimNetwork()
        a, _ = make_pair(net, delay_ms=5)
        a.close()
        a.close()
        net.run_until_idle()
