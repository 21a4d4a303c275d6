"""Event log tests."""

from __future__ import annotations

from moqgate.eventlog import Event, EventLog


class TestEventLog:
    def test_emit_records_time_source_kind_detail(self):
        t = [0.0]
        log = EventLog(lambda: t[0])
        log.emit("relay", "approve_ignored", group_id=3, sid="an")
        t[0] = 12.5
        log.emit("relay", "group_delivered", group_id=3)
        assert log.events == [
            Event(0.0, "relay", "approve_ignored", {"group_id": 3, "sid": "an"}),
            Event(12.5, "relay", "group_delivered", {"group_id": 3}),
        ]

    def test_filter_by_kind_and_source(self):
        log = EventLog(lambda: 0.0)
        log.emit("relay", "a", x=1)
        log.emit("client", "a", x=2)
        log.emit("relay", "b", x=3)
        assert [e.detail["x"] for e in log.filter(kind="a")] == [1, 2]
        assert [e.detail["x"] for e in log.filter(source="relay")] == [1, 3]
        assert [e.detail["x"] for e in log.filter(kind="a", source="client")] == [2]

    def test_default_clock_is_zero(self):
        log = EventLog()
        log.emit("s", "k")
        assert log.events[0].time_ms == 0.0

    def test_emit_appends_the_event_it_records(self):
        log = EventLog(lambda: 4.5)
        log.emit("relay", "approve_ignored", group_id=3, sid="an")
        event = log.events[-1]
        assert event == Event(4.5, "relay", "approve_ignored", {"group_id": 3, "sid": "an"})
        assert log.events == [event]

    def test_detail_is_a_fresh_dict(self):
        log = EventLog()
        detail = {"group_id": 3}
        log.emit("relay", "k", **detail)
        event = log.events[-1]
        assert event.detail is not detail
        detail["group_id"] = 4
        detail["extra"] = True
        assert event.detail == {"group_id": 3}

    def test_a_kind_without_a_fold_never_reads_the_clock(self):
        # Only a folded kind reads the clock, and a log with folds keeps nothing.
        reads = 0

        def clock() -> float:
            nonlocal reads
            reads += 1
            return 2.5 * reads

        seen = []
        log = EventLog(clock, folds={"approve_recorded": lambda *event: seen.append(event)})
        for _ in range(3):
            log.emit("relay", "group_delivered", group_id=0)
        assert reads == 0
        log.emit("relay", "approve_recorded", group_id=0)
        log.emit("relay", "group_delivered", group_id=0)
        log.emit("relay", "approve_recorded", group_id=1)
        assert reads == 2
        assert seen == [(2.5, "relay", {"group_id": 0}), (5.0, "relay", {"group_id": 1})]
        assert log.events == []
