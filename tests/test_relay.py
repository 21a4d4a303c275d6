"""Relay tests: subscription validation, approval ledger, gating, delivery."""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recording import Recorder, ended, joined

from moqgate.client import AnalyzerClient, PublisherClient, SubscriberClient
from moqgate.eventlog import EventLog
from moqgate.framing import (
    ControlStreamDecoder,
    encode_frame_chunk,
    encode_group_header,
    encode_group_stream,
)
from moqgate.media import Constant, Group, LuminanceFrame, SourceConfig, generate_groups
from moqgate.relay import (
    DeliverGroup,
    MonotonicityError,
    ProtocolError,
    RelayCore,
    RelayServer,
    SendControl,
    SkipGroups,
)
from moqgate.transport import Link, SimNetwork
from moqgate.wire import (
    Approve,
    Category,
    Subscribe,
    SubscribeOk,
    SubscribeUpdate,
    analyze_parameter,
    encode_message,
    filter_parameter,
)

STROBE, SMOKING, ALCOHOL = Category.STROBE, Category.SMOKING, Category.ALCOHOL


def plain(sub_id=1, track="cam"):
    return Subscribe(sub_id, track, 0, ())


def analyzer(cats, sub_id=2, track="cam"):
    return Subscribe(sub_id, track, 0, (analyze_parameter(cats),))


def filterer(cats, sub_id=3, track="cam"):
    return Subscribe(sub_id, track, 0, (filter_parameter(cats),))


class TestSubscribeValidation:
    def test_plain_subscribe_acked(self):
        core = RelayCore()
        assert core.handle_subscribe("s1", plain(7)) == [
            SendControl("s1", SubscribeOk(7))
        ]

    def test_roles_recorded(self):
        core = RelayCore()
        core.handle_subscribe("a", analyzer([STROBE, SMOKING]))
        core.handle_subscribe("f", filterer([STROBE]))
        core.handle_subscribe("p", plain())
        assert core.session("a").analyze == (STROBE, SMOKING)
        assert core.session("a").filter is None
        assert core.session("f").filter == (STROBE,)
        assert core.session("p").analyze is None
        assert core.session("p").filter is None

    def test_analyze_and_filter_mutually_exclusive(self):
        core = RelayCore()
        msg = Subscribe(
            1, "cam", 0, (analyze_parameter([STROBE]), filter_parameter([SMOKING]))
        )
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", msg)

    def test_repeated_role_parameter_rejected(self):
        core = RelayCore()
        msg = Subscribe(
            1, "cam", 0, (analyze_parameter([STROBE]), analyze_parameter([SMOKING]))
        )
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", msg)

    def test_empty_category_set_rejected(self):
        core = RelayCore()
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", analyzer([]))
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", filterer([]))

    def test_unsupported_category_rejected(self):
        core = RelayCore()
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", analyzer([9]))
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", filterer([9]))

    def test_double_subscribe_rejected(self):
        core = RelayCore()
        core.handle_subscribe("s", plain())
        with pytest.raises(ProtocolError):
            core.handle_subscribe("s", plain(sub_id=9))


class TestIngestMonotonicity:
    def test_sequential_ids_accepted(self):
        core = RelayCore()
        for gid in (0, 1, 2):
            core.ingest_group("cam", gid, f"G{gid}")

    def test_first_id_sets_base(self):
        core = RelayCore()
        core.ingest_group("cam", 5, "G5")
        core.ingest_group("cam", 6, "G6")
        with pytest.raises(MonotonicityError):
            core.ingest_group("cam", 8, "G8")

    def test_replay_rejected(self):
        core = RelayCore()
        core.ingest_group("cam", 0, "G0")
        with pytest.raises(MonotonicityError):
            core.ingest_group("cam", 0, "G0")

    def test_tracks_are_independent(self):
        core = RelayCore()
        core.ingest_group("cam", 0, "a")
        core.ingest_group("mic", 10, "b")
        core.ingest_group("cam", 1, "c")
        core.ingest_group("mic", 11, "d")


class TestApproveValidation:
    def _core(self):
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE, SMOKING], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE], sub_id=3))
        return core

    def test_plain_session_cannot_approve(self):
        core = self._core()
        core.handle_subscribe("p", plain(sub_id=4))
        core.ingest_group("cam", 0, "G0")
        with pytest.raises(ProtocolError):
            core.handle_approve("p", Approve(4, 0, (STROBE,)))

    def test_filter_session_cannot_approve(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        with pytest.raises(ProtocolError):
            core.handle_approve("f", Approve(3, 0, (STROBE,)))

    def test_approve_outside_analyze_set_rejected(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        with pytest.raises(ProtocolError):
            core.handle_approve("an", Approve(2, 0, (STROBE, ALCOHOL)))

    def test_wrong_subscribe_id_rejected(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        with pytest.raises(ProtocolError):
            core.handle_approve("an", Approve(99, 0, (STROBE,)))

    def test_unknown_session_rejected(self):
        core = self._core()
        with pytest.raises(ProtocolError):
            core.handle_approve("ghost", Approve(1, 0, (STROBE,)))


class TestGating:
    def _core(self, filter_cats=(STROBE,)):
        core = RelayCore(log=EventLog())
        core.handle_subscribe("an", analyzer([STROBE, SMOKING], sub_id=2))
        core.handle_subscribe("f", filterer(filter_cats, sub_id=3))
        return core

    def test_in_order_approval_delivers_without_skips(self):
        core = self._core()
        assert core.ingest_group("cam", 0, "G0") == []
        actions = core.handle_approve("an", Approve(2, 0, (STROBE,)))
        assert actions == [DeliverGroup("f", "cam", 0, "G0")]
        core.ingest_group("cam", 1, "G1")
        assert core.handle_approve("an", Approve(2, 1, (STROBE,))) == [
            DeliverGroup("f", "cam", 1, "G1")
        ]

    def test_duplicate_approve_is_idempotent(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        core.handle_approve("an", Approve(2, 0, (STROBE,)))
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []

    def test_late_group_approval_skips_earlier(self):
        core = self._core()
        for gid in (0, 1, 2):
            core.ingest_group("cam", gid, f"G{gid}")
        actions = core.handle_approve("an", Approve(2, 2, (STROBE,)))
        assert actions == [
            SkipGroups("f", "cam", (0, 1)),
            DeliverGroup("f", "cam", 2, "G2"),
        ]
        # A straggler approval for a skipped group changes nothing.
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []

    def test_multi_category_requires_all(self):
        core = self._core(filter_cats=(STROBE, SMOKING))
        core.ingest_group("cam", 0, "G0")
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []
        actions = core.handle_approve("an", Approve(2, 0, (SMOKING,)))
        assert actions == [DeliverGroup("f", "cam", 0, "G0")]

    def test_approvals_combine_across_analyzers(self):
        core = self._core(filter_cats=(STROBE, SMOKING))
        core.handle_subscribe("an2", analyzer([SMOKING], sub_id=5))
        core.ingest_group("cam", 0, "G0")
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []
        actions = core.handle_approve("an2", Approve(5, 0, (SMOKING,)))
        assert actions == [DeliverGroup("f", "cam", 0, "G0")]

    def test_subscribers_gate_independently(self):
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE, SMOKING], sub_id=2))
        core.handle_subscribe("f_strobe", filterer([STROBE], sub_id=3))
        core.handle_subscribe("f_smoke", filterer([SMOKING], sub_id=4))
        core.ingest_group("cam", 0, "G0")
        actions = core.handle_approve("an", Approve(2, 0, (SMOKING,)))
        assert actions == [DeliverGroup("f_smoke", "cam", 0, "G0")]

    def test_approval_before_ingest_is_protocol_error(self):
        core = self._core()
        with pytest.raises(ProtocolError, match="not been ingested"):
            core.handle_approve("an", Approve(2, 0, (STROBE,)))
        assert core.ingest_group("cam", 0, "G0") == []
        with pytest.raises(ProtocolError, match="not been ingested"):
            core.handle_approve("an", Approve(2, 1, (STROBE,)))
        # The refused approvals left nothing behind: group 0 still waits.
        assert core.ingest_group("cam", 1, "G1") == []
        assert core.handle_approve("an", Approve(2, 1, (STROBE,))) == [
            SkipGroups("f", "cam", (0,)),
            DeliverGroup("f", "cam", 1, "G1"),
        ]

    def test_approval_ledger_holds_only_stored_groups(self):
        log = EventLog()
        core = RelayCore(retention=2, log=log)
        core.handle_subscribe("an", analyzer([STROBE], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE], sub_id=3))
        for gid in range(5, 10):
            core.ingest_group("cam", gid, f"G{gid}")
        # Ids before the track's first group are treated like evicted ones.
        for gid in range(8):
            assert core.handle_approve("an", Approve(2, gid, (STROBE,))) == []
        assert len(log.filter(kind="approve_ignored")) == 8
        for gid in range(10, 1000):
            with pytest.raises(ProtocolError):
                core.handle_approve("an", Approve(2, gid, (STROBE,)))
        assert core._tracks["cam"].approvals == {}

    def test_subscriber_joining_late_starts_at_next_group(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        core.handle_approve("an", Approve(2, 0, (STROBE,)))
        core.handle_subscribe("f2", filterer([STROBE], sub_id=9))
        core.ingest_group("cam", 1, "G1")
        actions = core.handle_approve("an", Approve(2, 1, (STROBE,)))
        assert DeliverGroup("f2", "cam", 1, "G1") in actions
        assert DeliverGroup("f", "cam", 1, "G1") in actions

    def test_delivery_and_skip_records(self):
        core = self._core()
        for gid in (0, 1, 2):
            core.ingest_group("cam", gid, f"G{gid}")
        actions = core.handle_approve("an", Approve(2, 2, (STROBE,)))
        assert actions == [
            SkipGroups("f", "cam", (0, 1)),
            DeliverGroup("f", "cam", 2, "G2"),
        ]
        assert core.session("f").next_deliver == 3


class TestRetention:
    def test_old_groups_evicted_and_late_approval_ignored(self):
        log = EventLog()
        core = RelayCore(retention=4, log=log)
        core.handle_subscribe("an", analyzer([STROBE], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE], sub_id=3))
        for gid in range(6):
            core.ingest_group("cam", gid, f"G{gid}")
        # Groups 0 and 1 fell out of the retention window.
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []
        assert log.filter(kind="approve_ignored") != []
        actions = core.handle_approve("an", Approve(2, 2, (STROBE,)))
        assert actions == [
            SkipGroups("f", "cam", (0, 1)),
            DeliverGroup("f", "cam", 2, "G2"),
        ]


class TestSubscribeUpdate:
    def _core(self):
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE, SMOKING], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE, SMOKING], sub_id=3))
        return core

    def test_update_requires_matching_id(self):
        core = self._core()
        with pytest.raises(ProtocolError):
            core.handle_subscribe_update("f", SubscribeUpdate(99, ()))
        with pytest.raises(ProtocolError):
            core.handle_subscribe_update("ghost", SubscribeUpdate(3, ()))

    def test_narrowing_filter_rechecks_gate(self):
        core = self._core()
        for gid in (0, 1, 2):
            core.ingest_group("cam", gid, f"G{gid}")
        core.handle_approve("an", Approve(2, 0, (STROBE,)))
        core.handle_approve("an", Approve(2, 1, (STROBE,)))
        actions = core.handle_subscribe_update(
            "f", SubscribeUpdate(3, (filter_parameter([STROBE]),))
        )
        assert actions == [
            SendControl("f", SubscribeOk(3)),
            DeliverGroup("f", "cam", 0, "G0"),
            DeliverGroup("f", "cam", 1, "G1"),
        ]

    def test_dropping_filter_releases_pending_in_order(self):
        core = self._core()
        for gid in (0, 1, 2):
            core.ingest_group("cam", gid, f"G{gid}")
        actions = core.handle_subscribe_update("f", SubscribeUpdate(3, ()))
        assert actions == [
            SendControl("f", SubscribeOk(3)),
            DeliverGroup("f", "cam", 0, "G0"),
            DeliverGroup("f", "cam", 1, "G1"),
            DeliverGroup("f", "cam", 2, "G2"),
        ]
        assert core.session("f").filter is None

    def test_becoming_filter_starts_at_next_group(self):
        core = self._core()
        core.handle_subscribe("p", plain(sub_id=8))
        core.ingest_group("cam", 0, "G0")
        core.handle_subscribe_update("p", SubscribeUpdate(8, (filter_parameter([STROBE]),)))
        core.ingest_group("cam", 1, "G1")
        actions = core.handle_approve("an", Approve(2, 1, (STROBE,)))
        assert DeliverGroup("p", "cam", 1, "G1") in actions
        assert not any(
            isinstance(a, DeliverGroup) and a.sid == "p" and a.group_id == 0
            for a in actions
        )

    def test_update_validation_matches_subscribe(self):
        core = self._core()
        with pytest.raises(ProtocolError):
            core.handle_subscribe_update(
                "f",
                SubscribeUpdate(3, (analyze_parameter([STROBE]), filter_parameter([SMOKING]))),
            )
        with pytest.raises(ProtocolError):
            core.handle_subscribe_update("f", SubscribeUpdate(3, (filter_parameter([9]),)))


class TestSessionRemoval:
    def test_granted_approvals_survive_analyzer_departure(self):
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE], sub_id=3))
        core.ingest_group("cam", 0, "G0")
        core.handle_approve("an", Approve(2, 0, (STROBE,)))
        core.remove_session("an")
        core.ingest_group("cam", 1, "G1")
        # Group 1 can never be approved now; nothing crashes, nothing delivers.
        assert core.ingest_group("cam", 2, "G2") == []

    def test_removed_subscriber_gets_no_actions(self):
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE], sub_id=2))
        core.handle_subscribe("f", filterer([STROBE], sub_id=3))
        core.remove_session("f")
        core.ingest_group("cam", 0, "G0")
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == []


class ReferenceGate:
    """The relay's gating rules for one track, written as a plain model.

    A gate pass looks for the first stored group at or after the session's
    next group whose filter categories are all approved, skips the groups
    before it, delivers it, and searches again from the start until nothing
    is left to release.
    """

    def __init__(self, retention, filters):
        self.retention = retention
        self.filters = dict(filters)  # sid -> filter categories, or None when plain
        self.next_deliver = dict.fromkeys(self.filters, 0)
        self.stored = {}
        self.approved = {}  # gid -> {category: approving sids}
        self.next_expected = None
        self.evicted_below = None

    def ingest(self, gid):
        if self.next_expected is None:
            for sid, cats in self.filters.items():
                if cats is not None and self.next_deliver[sid] < gid:
                    self.next_deliver[sid] = gid
            self.evicted_below = gid
        self.next_expected = gid + 1
        self.stored[gid] = f"G{gid}"
        for old in [g for g in self.stored if g <= gid - self.retention]:
            del self.stored[old]
            self.approved.pop(old, None)
            self.evicted_below = max(self.evicted_below or 0, old + 1)
        return self.gate_all()

    def approve(self, sid, gid, cats):
        """The actions, or ProtocolError for a group not yet ingested."""
        if self.next_expected is None or gid >= self.next_expected:
            return ProtocolError
        if gid < self.evicted_below:
            return []
        slots = self.approved.setdefault(gid, {})
        new_coverage = any(not slots.get(cat) for cat in cats)
        for cat in cats:
            slots.setdefault(cat, set()).add(sid)
        return self.gate_all() if new_coverage else []

    def update(self, sid, sub_id, cats):
        was_filter = self.filters[sid] is not None
        self.filters[sid] = cats
        actions = [SendControl(sid, SubscribeOk(sub_id))]
        if was_filter and cats is None:
            for gid in sorted(self.stored):
                if gid >= self.next_deliver[sid]:
                    actions.append(DeliverGroup(sid, "cam", gid, self.stored[gid]))
                    self.next_deliver[sid] = gid + 1
        elif cats is not None:
            if not was_filter:
                self.next_deliver[sid] = self.next_expected or 0
            actions += self.gate(sid)
        return actions

    def gate_all(self):
        return [a for sid, cats in self.filters.items() if cats is not None for a in self.gate(sid)]

    def gate(self, sid):
        actions = []
        while True:
            ready = [
                gid
                for gid in sorted(self.stored)
                if gid >= self.next_deliver[sid]
                and all(self.approved.get(gid, {}).get(cat) for cat in self.filters[sid])
            ]
            if not ready:
                return actions
            gid = ready[0]
            if gid > self.next_deliver[sid]:
                actions.append(SkipGroups(sid, "cam", tuple(range(self.next_deliver[sid], gid))))
            actions.append(DeliverGroup(sid, "cam", gid, self.stored[gid]))
            self.next_deliver[sid] = gid + 1


FILTER_SETS = [(STROBE,), (SMOKING,), (STROBE, SMOKING), (SMOKING, ALCOHOL), (STROBE, SMOKING, ALCOHOL)]
ANALYZERS = {"a1": (1, (STROBE, SMOKING, ALCOHOL)), "a2": (2, (SMOKING,))}
FILTERED = {"f0": 10, "f1": 11, "f2": 12}

gate_ops = st.one_of(
    st.just(("ingest",)),
    st.tuples(
        st.just("approve"),
        st.sampled_from(sorted(ANALYZERS)),
        st.integers(-5, 1),  # group id relative to the next one to ingest
        st.lists(st.sampled_from([STROBE, SMOKING, ALCOHOL]), max_size=3, unique=True),
    ),
    st.tuples(st.just("update"), st.sampled_from(sorted(FILTERED)), st.sampled_from(FILTER_SETS + [None])),
)


class TestGateMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(
        retention=st.integers(1, 4),
        first_gid=st.integers(0, 3),
        filters=st.lists(st.sampled_from(FILTER_SETS), min_size=3, max_size=3),
        ops=st.lists(gate_ops, max_size=40),
    )
    def test_actions_match_reference_gate(self, retention, first_gid, filters, ops):
        core = RelayCore(retention=retention)
        for sid, (sub_id, cats) in ANALYZERS.items():
            core.handle_subscribe(sid, analyzer(cats, sub_id=sub_id))
        for (sid, sub_id), cats in zip(FILTERED.items(), filters):
            core.handle_subscribe(sid, filterer(cats, sub_id=sub_id))
        model = ReferenceGate(retention, zip(FILTERED, filters))
        next_gid = first_gid
        for op in ops:
            if op[0] == "ingest":
                got = core.ingest_group("cam", next_gid, f"G{next_gid}")
                want = model.ingest(next_gid)
                next_gid += 1
            elif op[0] == "approve":
                _, sid, offset, cats = op
                gid = max(0, next_gid + offset)
                sub_id, allowed = ANALYZERS[sid]
                cats = tuple(c for c in cats if c in allowed)
                want = model.approve(sid, gid, cats)
                if want is ProtocolError:
                    with pytest.raises(ProtocolError):
                        core.handle_approve(sid, Approve(sub_id, gid, cats))
                    continue
                got = core.handle_approve(sid, Approve(sub_id, gid, cats))
            else:
                _, sid, cats = op
                params = () if cats is None else (filter_parameter(cats),)
                got = core.handle_subscribe_update(sid, SubscribeUpdate(FILTERED[sid], params))
                want = model.update(sid, FILTERED[sid], cats)
            assert got == want, op
            track = core._tracks.get("cam")
            assert track is None or set(track.approvals) <= set(track.stored), op


def frame(i, ts, level):
    return LuminanceFrame(2, 2, i, ts, bytes([level] * 4))


def two_frame_group(gid=0):
    return Group(gid, (frame(0, gid * 100, 10), frame(1, gid * 100 + 50, 20)), 100)


class ServerRig:
    """Relay server wired to hand-rolled publisher/subscriber sessions."""

    def __init__(self, roles, pub_delay=10.0, sub_delay=5.0):
        self.net = SimNetwork()
        self.server = RelayServer(self.net, log=EventLog(lambda: self.net.now))
        pub_local, pub_remote = self.net.connect(Link(delay_ms=pub_delay), "pub", "relay")
        self.publisher = pub_local
        self.server.attach("pub", pub_remote)
        self.clients = {}
        self.received = {}
        for name, msg in roles.items():
            local, remote = self.net.connect(Link(delay_ms=sub_delay), name, "relay")
            self.server.attach(name, remote)
            self.clients[name] = local
            self.received[name] = Recorder(self.net, local)
            local.send_control(encode_message(msg))

    def control_of(self, name):
        decoder = ControlStreamDecoder()
        out = []
        for chunk in self.received[name].control:
            out += decoder.feed(chunk)
        return out


class TestRelayServer:
    def test_subscribe_gets_ok(self):
        rig = ServerRig({"p": plain(sub_id=6)})
        rig.net.run_until_idle()
        assert SubscribeOk(6) in rig.control_of("p")

    def test_live_forwarding_to_plain_and_analyzer(self):
        rig = ServerRig({"p": plain(), "an": analyzer([STROBE], sub_id=2)})
        group = two_frame_group()
        stream = rig.publisher.open_stream()
        # Send header+frame0 at t=20, frame1 at t=60.
        from moqgate.framing import encode_frame_chunk, encode_group_header
        from moqgate.media import encode_frame_payload

        header = encode_group_header("cam", 0, 2)
        c0 = encode_frame_chunk(encode_frame_payload(group.frames[0]))
        c1 = encode_frame_chunk(encode_frame_payload(group.frames[1]))
        rig.net.at(20, lambda: stream.send(header + c0))
        rig.net.at(60, lambda: stream.end(c1))
        rig.net.run_until_idle()
        for name in ("p", "an"):
            (chunks,) = rig.received[name].by_stream()
            # header+frame0 arrive relay at 30, forwarded, +5 -> 35; frame1 at 75.
            assert chunks == [(header + c0, False, 35.0), (c1, True, 75.0)]

    def test_gated_delivery_after_manual_approve(self):
        rig = ServerRig({"an": analyzer([STROBE], sub_id=2), "f": filterer([STROBE], sub_id=3)})
        group = two_frame_group()
        blob = encode_group_stream("cam", group)
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.end(blob))
        # Analyzer approves as soon as it sees the full group (arrives t=35).
        an = rig.clients["an"]
        an.set_on_stream(
            lambda rs: rs.set_on_data(
                lambda d, fin: fin and an.send_control(
                    encode_message(Approve(2, 0, (STROBE,)))
                )
            )
        )
        rig.net.run_until_idle()
        (chunks,) = rig.received["f"].by_stream()
        # pub->relay 30, ->analyzer 35, approve ->relay 40, burst ->filter 45.
        assert chunks == [(blob, True, 45.0)]

    def test_filter_subscriber_gets_no_live_frames(self):
        rig = ServerRig({"f": filterer([STROBE], sub_id=3)})
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(encode_group_stream("cam", two_frame_group())))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert rig.received["f"].chunks == []

    def test_stall_alarm_logged_when_no_analyzer(self):
        rig = ServerRig({"f": filterer([STROBE], sub_id=3)})
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(encode_group_stream("cam", two_frame_group())))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        stalls = rig.server.log.filter(kind="gating_stalled")
        assert stalls and stalls[0].detail["sid"] == "f"

    def test_mid_group_joiner_gets_catch_up_burst(self):
        rig = ServerRig({})
        from moqgate.framing import encode_frame_chunk, encode_group_header
        from moqgate.media import encode_frame_payload

        group = two_frame_group()
        header = encode_group_header("cam", 0, 2)
        c0 = encode_frame_chunk(encode_frame_payload(group.frames[0]))
        c1 = encode_frame_chunk(encode_frame_payload(group.frames[1]))
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.send(header + c0))
        rig.net.at(100, lambda: stream.end(c1))
        # Joins at t=50: header+frame0 already passed through the relay.
        local, remote = rig.net.connect(Link(delay_ms=5.0), "late", "relay")
        received = Recorder(rig.net, local)
        rig.net.at(50, lambda: rig.server.attach("late", remote))
        rig.net.at(50, lambda: local.send_control(encode_message(plain(sub_id=9))))
        rig.net.run_until_idle()
        (chunks,) = received.by_stream()
        # Subscribe reaches relay at 55; catch-up burst lands at 60, live tail 115.
        assert chunks == [(header + c0, False, 60.0), (c1, True, 115.0)]

    def test_invalid_subscribe_closes_session(self):
        rig = ServerRig({})
        local, remote = rig.net.connect(Link(delay_ms=5.0), "bad", "relay")
        rig.server.attach("bad", remote)
        received = Recorder(rig.net, local)
        bad = Subscribe(1, "cam", 0, (analyze_parameter([9]),))
        local.send_control(encode_message(bad))
        rig.net.run_until_idle()
        assert rig.server.log.filter(kind="protocol_error") != []
        assert received.control == []  # no SUBSCRIBE_OK was sent

    def test_future_approval_closes_analyzer_session(self):
        rig = ServerRig({"an": analyzer([STROBE], sub_id=2), "f": filterer([STROBE], sub_id=3)})
        an = rig.clients["an"]
        # Approves group 0 at t=10, before the publisher has sent anything.
        rig.net.at(10, lambda: an.send_control(encode_message(Approve(2, 0, (STROBE,)))))
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.end(encode_group_stream("cam", two_frame_group())))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail["sid"] == "an"
        assert "not been ingested" in error.detail["reason"]
        assert rig.server.log.filter(kind="approve_recorded") == []
        assert rig.received["f"].chunks == []

    def test_analyzer_disconnect_logged(self):
        rig = ServerRig({"an": analyzer([STROBE], sub_id=2)})
        rig.net.at(10, rig.clients["an"].close)
        rig.net.run_until_idle()
        assert rig.server.log.filter(kind="session_closed") != []

    @staticmethod
    def _publish_frame_by_frame(rig, group, at):
        from moqgate.framing import encode_frame_chunk, encode_group_header
        from moqgate.media import encode_frame_payload

        stream = rig.publisher.open_stream()
        header = encode_group_header("cam", group.group_id, len(group.frames))
        chunks = [encode_frame_chunk(encode_frame_payload(f)) for f in group.frames]
        rig.net.at(at, lambda: stream.send(header + chunks[0]))
        rig.net.at(at + 50, lambda: stream.end(chunks[1]))

    def test_filtered_sessions_share_one_encoded_group(self):
        rig = ServerRig({"an": analyzer([STROBE], sub_id=2)})
        an = rig.clients["an"]
        # Groups reach the analyzer in id order: stream k carries group k - 1.
        an.set_on_stream(
            lambda rs: rs.set_on_data(
                lambda d, fin: fin and an.send_control(
                    encode_message(Approve(2, rs.stream_id - 1, (STROBE,)))
                )
            )
        )
        filtered = {}
        for name, delay in (("f1", 3.0), ("f2", 40.0)):
            local, remote = rig.net.connect(Link(delay_ms=delay), name, "relay")
            rig.server.attach(name, remote)
            local.send_control(encode_message(filterer([STROBE], sub_id=3)))
            filtered[name] = Recorder(rig.net, local)
        groups = [two_frame_group(0), two_frame_group(1)]
        for group in groups:
            self._publish_frame_by_frame(rig, group, 20 + 100 * group.group_id)
        rig.net.run_until_idle()
        expected = [encode_group_stream("cam", g) for g in groups]
        streams = {name: received.by_stream() for name, received in filtered.items()}
        for name in filtered:
            # one chunk per group, carrying fin
            assert [[(d, fin) for d, fin, _ in s] for s in streams[name]] == [
                [(blob, True)] for blob in expected
            ]
        # Each group is encoded once and that object goes to every session.
        for s1, s2 in zip(streams["f1"], streams["f2"]):
            assert s1[0][0] is s2[0][0]

    def test_dropping_filter_delivers_held_groups_as_encoded(self):
        rig = ServerRig({"f": filterer([STROBE], sub_id=3)})
        groups = [two_frame_group(0), two_frame_group(1)]
        for group in groups:
            self._publish_frame_by_frame(rig, group, 100 * group.group_id)
        f = rig.clients["f"]
        rig.net.at(300, lambda: f.send_control(encode_message(SubscribeUpdate(3, ()))))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        streams = rig.received["f"].by_stream()
        assert [joined(s) for s in streams] == [encode_group_stream("cam", g) for g in groups]
        assert all(ended(s) for s in streams)

    def test_finished_groups_held_once_within_retention(self):
        # 20 groups of 100 kB through a relay that keeps one: what stays
        # allocated must be about one group, not every group's parser and
        # live stream buffer next to the core's copy.
        group_bytes = 10 * 10_000
        net = SimNetwork()
        server = RelayServer(net, core=RelayCore(retention=1))
        pub, remote = net.connect(Link(delay_ms=1), "pub", "relay")
        server.attach("pub", remote)

        def publish(gid):
            frames = b"".join(encode_frame_chunk(bytes(10_000)) for _ in range(10))
            pub.open_stream().end(encode_group_header("cam", gid, 10) + frames)

        for gid in range(20):
            net.at(10 * gid, lambda gid=gid: publish(gid))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net.run_until_idle()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert group_bytes <= held < 2 * group_bytes


class TestBoundedState:
    """What the relay and the transport hold after a run must not depend
    on how many groups went through it."""

    RETENTION = 2

    def _state_after(self, n_groups):
        net = SimNetwork()
        core = RelayCore(retention=self.RETENTION)
        server = RelayServer(net, core=core)
        sessions = []

        def connect(name, delay):
            local, remote = net.connect(Link(delay_ms=delay, jitter_ms=1.0, seed=3), name, "relay")
            server.attach(name, remote)
            sessions.extend([local, remote])
            return local

        AnalyzerClient(net, connect("an", 4.0), "cam", (STROBE,), 2).start()
        SubscriberClient(net, connect("plain", 2.0), "cam", 3).start()
        SubscriberClient(net, connect("gated", 6.0), "cam", 4, filter_categories=(STROBE,)).start()
        source = SourceConfig(16, 16, 10, 1000, (Constant(128, n_groups * 1000),))
        PublisherClient(net, connect("pub", 5.0), "cam", generate_groups(source)).start()
        net.run_until_idle()
        delivered = server.log.filter(kind="group_delivered")
        assert [e.detail["group_id"] for e in delivered] == list(range(n_groups))

        for session in sessions:
            # every stream has finished, so none is held
            assert session._recv_streams == {}, session.name
            # only the never-ending control stream keeps an arrival clamp
            assert set(session._outgoing._last_arrival) <= {0}, session.name
        assert server._live == {}
        track = core._tracks["cam"]
        assert len(track.stored) <= self.RETENTION
        assert len(track.approvals) <= self.RETENTION
        return (
            [(len(s._recv_streams), set(s._outgoing._last_arrival)) for s in sessions],
            len(server._live),
            len(track.stored),
            len(track.approvals),
        )

    def test_state_after_a_run_is_flat_in_groups(self):
        assert self._state_after(10) == self._state_after(40)
