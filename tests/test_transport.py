"""Simulated transport tests: virtual time, links, streams, ordering, close."""

from __future__ import annotations

import pytest
from recording import Recorder

from moqgate.transport import (
    DisconnectedError,
    Link,
    SimNetwork,
    SimTimeoutError,
    derive_seed,
)


def make_pair(net, **kwargs):
    return net.connect(Link(**kwargs), "alpha", "beta")


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
                net.after(7, lambda: step(n + 1))

        net.after(0, lambda: step(1))
        net.run_until_idle()
        assert seen == [(1, 0.0), (2, 7.0), (3, 14.0)]

    def test_past_or_negative_scheduling_rejected(self):
        net = SimNetwork()
        with pytest.raises(ValueError):
            net.after(-1, lambda: None)
        net.at(50, lambda: None)
        net.run_until_idle()
        with pytest.raises(ValueError):
            net.at(10, lambda: None)

    def test_virtual_time_cap(self):
        net = SimNetwork()

        def loop():
            net.after(1000, loop)

        net.after(0, loop)
        with pytest.raises(SimTimeoutError):
            net.run_until_idle(max_virtual_ms=10_000)

    def test_event_budget_cap(self):
        net = SimNetwork()

        def loop():
            net.after(0, loop)

        net.after(0, loop)
        with pytest.raises(SimTimeoutError):
            net.run_until_idle(max_events=500)


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
        assert set(a._outgoing._last_arrival) == {0}
        assert b._recv_streams == {}


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

    def test_close_is_idempotent(self):
        net = SimNetwork()
        a, _ = make_pair(net, delay_ms=5)
        a.close()
        a.close()
        net.run_until_idle()
