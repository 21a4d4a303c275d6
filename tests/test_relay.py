"""Relay tests: subscription validation, approval ledger, gating, delivery."""

from __future__ import annotations

import gc
import tracemalloc
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from recording import Recorder, joined
from frames import Group, LuminanceFrame, encode_frame_chunk, encode_frame_payload
from streams import encode_group_stream

from moqgate.client import AnalyzerClient, LatencyRecord, PublisherClient, SubscriberClient
from moqgate.eventlog import EventLog
from moqgate.framing import encode_group_header
from moqgate.media import Constant, SourceConfig, Strobe, generate_groups
from moqgate.relay import (
    DeliverGroup,
    JoinLive,
    MonotonicityError,
    ProtocolError,
    RelayCore,
    RelayServer,
    SkipGroups,
)
from moqgate.transport import DisconnectedError, SimNetwork
from moqgate.wire import (
    ANALYZE_PARAM,
    Approve,
    Category,
    Parameter,
    Subscribe,
    analyze_parameter,
    encode_message,
    encode_varint,
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
    def test_plain_subscribe_is_recorded_without_actions(self):
        core = RelayCore()
        assert core.handle_subscribe("s1", plain(7)) == []
        assert core.session("s1").subscribe_id == 7

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
        msg = Subscribe(1, "cam", 0, (filter_parameter([STROBE]), filter_parameter([SMOKING])))
        with pytest.raises(ProtocolError, match="^repeated filter parameter$"):
            core.handle_subscribe("s", msg)

    def test_undecodable_role_payload_rejected(self):
        # A set length of 5 with one byte after it.
        msg = Subscribe(1, "cam", 0, (Parameter(ANALYZE_PARAM, bytes([0x05, 0x01])),))
        with pytest.raises(ProtocolError, match="^bad analyze parameter payload: "):
            RelayCore().handle_subscribe("s", msg)

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

    def test_publisher_cannot_subscribe_to_its_track(self):
        # Else it would join its own live group and be refused at its next
        # header as a subscriber of the track.
        core = RelayCore()
        core.start_group("pub", "cam", 0, "H0")
        with pytest.raises(ProtocolError, match="^publisher of track 'cam' cannot subscribe to it$"):
            core.handle_subscribe("pub", plain())
        assert core.session("pub") is None
        assert core._tracks["cam"].live == {0: "H0"}
        assert core.handle_subscribe("pub", plain(track="other")) == []


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
        held = core._tracks["cam"].held
        assert {gid: group.approved for gid, group in held.items()} == {8: set(), 9: set()}

    def test_subscriber_joining_late_starts_at_next_group(self):
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        core.handle_approve("an", Approve(2, 0, (STROBE,)))
        core.handle_subscribe("f2", filterer([STROBE], sub_id=9))
        core.ingest_group("cam", 1, "G1")
        actions = core.handle_approve("an", Approve(2, 1, (STROBE,)))
        assert DeliverGroup("f2", "cam", 1, "G1") in actions
        assert DeliverGroup("f", "cam", 1, "G1") in actions

    def test_late_filtered_subscriber_never_gets_earlier_groups(self):
        # "f2" subscribes after groups 0 and 1 are ingested, unapproved: it
        # is gated from group 2, so approving 1 releases nothing to it and
        # approving 2 skips nothing for it.
        core = self._core()
        core.ingest_group("cam", 0, "G0")
        core.ingest_group("cam", 1, "G1")
        assert core.handle_subscribe("f2", filterer([STROBE], sub_id=9)) == []
        assert core.session("f2").next_deliver == 2
        core.ingest_group("cam", 2, "G2")
        assert core.handle_approve("an", Approve(2, 1, (STROBE,))) == [
            SkipGroups("f", "cam", (0,)),
            DeliverGroup("f", "cam", 1, "G1"),
        ]
        assert core.handle_approve("an", Approve(2, 2, (STROBE,))) == [
            DeliverGroup("f", "cam", 2, "G2"),
            DeliverGroup("f2", "cam", 2, "G2"),
        ]

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
    def test_retention_below_one_group_rejected(self):
        with pytest.raises(ValueError, match="retention must be at least 1 group"):
            RelayCore(retention=0)

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


class TestLiveGroups:
    """The core decides who joins each live group: a group whose header has
    arrived and which has not ended."""

    def test_overlapping_groups_are_each_joined(self):
        core = RelayCore()
        core.start_group("pub", "cam", 0, "H0")
        core.start_group("pub", "cam", 1, "H1")
        assert core.handle_subscribe("p", plain(sub_id=1)) == [
            JoinLive("p", "H0"),
            JoinLive("p", "H1"),
        ]
        core.ingest_group("cam", 0, "G0")
        assert core.handle_subscribe("q", plain(sub_id=2)) == [JoinLive("q", "H1")]

    def test_live_group_of_a_removed_publisher_is_never_joined(self):
        core = RelayCore()
        core.handle_subscribe("p", plain(sub_id=1))
        core.start_group("pub", "cam", 0, "H0")
        core.remove_session("pub")
        assert core.handle_subscribe("q", plain(sub_id=2)) == []
        assert core._tracks["cam"].live == {}

    def test_removed_receiver_joins_no_later_group(self):
        core = RelayCore()
        core.handle_subscribe("p", plain(sub_id=1))
        assert core.start_group("pub", "cam", 0, "H0") == [JoinLive("p", "H0")]
        core.remove_session("p")
        assert core.start_group("pub", "cam", 1, "H1") == []
        assert core._tracks["cam"].live == {0: "H0", 1: "H1"}

    def test_a_track_takes_headers_from_its_first_publisher_only(self):
        core = RelayCore()
        core.ingest_group("cam", 0, "G0")
        # A refused header binds nothing.
        with pytest.raises(MonotonicityError):
            core.start_group("late", "cam", 0, "L0")
        core.start_group("pub", "cam", 1, "H1")
        with pytest.raises(ProtocolError, match="^track 'cam' is published by 'pub', not 'evil'$"):
            core.start_group("evil", "cam", 2, "E2")
        assert list(core._tracks["cam"].live) == [1]
        core.start_group("pub", "cam", 2, "H2")
        # Once its publisher is removed, the track takes another.
        core.remove_session("pub")
        core.start_group("next", "cam", 3, "N3")
        assert core._tracks["cam"].publisher == "next"

    def test_a_filtered_session_is_never_a_live_receiver(self):
        # "f" subscribes while groups 0 and 1 are live: it joins neither,
        # nor group 2 at its header, and is gated from group 0.
        core = RelayCore()
        core.handle_subscribe("an", analyzer([STROBE], sub_id=2))
        core.start_group("pub", "cam", 0, "H0")
        core.start_group("pub", "cam", 1, "H1")
        assert core.handle_subscribe("f", filterer([STROBE], sub_id=3)) == []
        assert core.start_group("pub", "cam", 2, "H2") == [JoinLive("an", "H2")]
        assert core._tracks["cam"].live == {0: "H0", 1: "H1", 2: "H2"}
        assert core.session("f").next_deliver == 0
        core.ingest_group("cam", 0, "G0")
        assert core.handle_approve("an", Approve(2, 0, (STROBE,))) == [
            DeliverGroup("f", "cam", 0, "G0")
        ]


class ReferenceGate:
    """The relay's rules for one track, written as a plain model.

    A gate pass looks for the first stored group at or after the session's
    next group whose filter categories are all approved, skips the groups
    before it, delivers it, and searches again from the start until nothing
    is left to release.

    Every session without a filter, analyzers included, is in every live
    group: those present at a group's header join it then, and one that
    arrives later joins it at once.  A filtered session is never in a live
    group: it is gated from the first group not yet ingested.
    """

    def __init__(self, retention, filters):
        self.retention = retention
        self.filters = dict(filters)  # sid -> filter categories, or None when live
        self.next_deliver = dict.fromkeys(self.filters, 0)
        self.stored = {}
        self.approved = {}  # gid -> {category: approving sids}
        self.live = []  # live group ids, in header order
        self.next_expected = None
        self.evicted_below = None

    def start(self, gid):
        """The joins for a group header, or ProtocolError for an id that is
        already live or ingested."""
        if gid in self.live or (self.next_expected is not None and gid < self.next_expected):
            return ProtocolError
        self.live.append(gid)
        return [JoinLive(sid, f"H{gid}") for sid, cats in self.filters.items() if cats is None]

    def ingest(self, gid):
        if gid in self.live:
            self.live.remove(gid)
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

    def subscribe(self, sid, cats):
        """A new session's joins, or ProtocolError for a known one."""
        if sid in self.filters:
            return ProtocolError
        self.filters[sid] = cats
        self.next_deliver[sid] = self.next_expected or 0
        if cats is not None:
            return self.gate(sid)
        return [JoinLive(sid, f"H{gid}") for gid in self.live]

    def remove(self, sid):
        del self.filters[sid], self.next_deliver[sid]

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
ROLES = FILTER_SETS + [None]  # None: a plain session
ANALYZERS = {"a1": (1, (STROBE, SMOKING, ALCOHOL)), "a2": (2, (SMOKING,))}
FILTERED = {"f0": 10, "f1": 11, "f2": 12}
LATE = {"g0": 20, "g1": 21}  # sessions that subscribe, and may leave, mid-run

gate_ops = st.one_of(
    st.just(("ingest",)),
    st.tuples(st.just("start"), st.integers(-1, 2)),  # id relative to the next to ingest
    st.tuples(
        st.just("approve"),
        st.sampled_from(sorted(ANALYZERS)),
        st.integers(-5, 1),  # group id relative to the next one to ingest
        st.lists(st.sampled_from([STROBE, SMOKING, ALCOHOL]), max_size=3, unique=True),
    ),
    st.tuples(st.just("subscribe"), st.sampled_from(sorted(LATE)), st.sampled_from(ROLES)),
    st.tuples(st.just("remove"), st.sampled_from(sorted(LATE))),
    st.just(("drop",)),  # the publisher fails
)


def group_of(action):
    """The group a JoinLive or DeliverGroup gives its session, else None."""
    if isinstance(action, JoinLive):
        return int(action.handle[1:])
    return action.group_id if isinstance(action, DeliverGroup) else None


class TestGateMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(
        retention=st.integers(1, 4),
        first_gid=st.integers(0, 3),
        filters=st.lists(st.sampled_from(ROLES), min_size=3, max_size=3),
        ops=st.lists(gate_ops, max_size=40),
    )
    # Overlapping live groups, a filtered session subscribing mid-group,
    # receiver removal, refused duplicate headers, a failed publisher and a
    # track whose first group is not 0, every run.
    @example(
        retention=2,
        first_gid=1,
        filters=[None, (STROBE,), (SMOKING,)],
        ops=[
            ("start", 0),
            ("start", 1),
            ("subscribe", "g0", None),
            ("subscribe", "g1", (STROBE,)),
            ("remove", "g0"),
            ("ingest",),
            ("approve", "a1", -1, [STROBE]),
            ("start", -1),
            ("start", 0),
            ("drop",),
            ("subscribe", "g0", None),
        ],
    )
    def test_actions_match_reference_gate(self, retention, first_gid, filters, ops):
        core = RelayCore(retention=retention)
        for sid, (sub_id, cats) in ANALYZERS.items():
            core.handle_subscribe(sid, analyzer(cats, sub_id=sub_id))
        received = {sid: set() for sid in ANALYZERS}  # sid -> groups given, live or gated
        for (sid, sub_id), cats in zip(FILTERED.items(), filters):
            msg = plain(sub_id) if cats is None else filterer(cats, sub_id=sub_id)
            core.handle_subscribe(sid, msg)
            received[sid] = set()
        model = ReferenceGate(retention, [(sid, None) for sid in ANALYZERS] + list(zip(FILTERED, filters)))
        next_gid = first_gid
        for op in ops:
            if op[0] == "ingest":
                got = core.ingest_group("cam", next_gid, f"G{next_gid}")
                want = model.ingest(next_gid)
                # An ingested group has no approvals: the model's full gate
                # pass releases nothing, and the core does not run one.
                assert got == want == [], op
                next_gid += 1
            elif op[0] == "start":
                gid = max(0, next_gid + op[1])
                want = model.start(gid)
                if want is ProtocolError:
                    with pytest.raises(MonotonicityError):
                        core.start_group("pub", "cam", gid, f"H{gid}")
                    continue
                got = core.start_group("pub", "cam", gid, f"H{gid}")
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
            elif op[0] == "drop":
                # Its live groups can never end, so none of them was received.
                dropped = set(model.live)
                model.live.clear()
                core.remove_session("pub")
                for gids in received.values():
                    gids -= dropped
                got = want = []
            elif op[0] == "remove":
                sid = op[1]
                if sid in model.filters:
                    model.remove(sid)
                    del received[sid]
                core.remove_session(sid)
                got = want = []
            else:
                _, sid, cats = op
                msg = plain(LATE[sid]) if cats is None else filterer(cats, sub_id=LATE[sid])
                want = model.subscribe(sid, cats)
                if want is ProtocolError:
                    with pytest.raises(ProtocolError):
                        core.handle_subscribe(sid, msg)
                    continue
                received[sid] = set()
                got = core.handle_subscribe(sid, msg)
            assert got == want, op
            for action in got:
                gid = group_of(action)
                if gid is not None:
                    # No group reaches a session twice, live or gated.
                    assert gid not in received[action.sid], (op, action)
                    received[action.sid].add(gid)
            # Held ids are the last <= retention ingested, consecutive and ascending.
            held = list(core._tracks["cam"].held)
            assert held == list(range(max(first_gid, next_gid - retention), next_gid)), op
            assert core._tracks["cam"].live == {gid: f"H{gid}" for gid in model.live}, op
            # Each filtered session waits for the group the model says.
            for sid, cats in model.filters.items():
                if cats is not None:
                    assert core.session(sid).next_deliver == model.next_deliver[sid], op


def frame(i, ts, level):
    return LuminanceFrame(2, 2, i, ts, bytes([level] * 4))


def two_frame_group(gid=0):
    return Group(gid, (frame(0, gid * 100, 10), frame(1, gid * 100 + 50, 20)))


class ServerRig:
    """Relay server wired to hand-rolled publisher/subscriber sessions."""

    def __init__(self, roles, pub_delay=10.0, sub_delay=5.0):
        self.net = SimNetwork()
        self.server = RelayServer(self.net, log=EventLog(lambda: self.net.now))
        pub_local, pub_remote = self.net.connect("pub", "relay", pub_delay, pub_delay)
        self.publisher = pub_local
        self.server.attach("pub", pub_remote)
        self.clients = {}
        self.received = {}
        for name, msg in roles.items():
            local, remote = self.net.connect(name, "relay", sub_delay, sub_delay)
            self.server.attach(name, remote)
            self.clients[name] = local
            self.received[name] = Recorder(self.net, local)
            local.send_control(encode_message(msg))


class TestRelayServer:
    def test_subscribe_is_recorded_and_logged(self):
        rig = ServerRig({"p": plain(sub_id=6)})
        rig.net.run_until_idle()
        assert rig.server.core.session("p").subscribe_id == 6
        (event,) = rig.server.log.filter(kind="subscribed")
        assert event.detail["sid"] == "p"

    def test_relay_sends_no_control_message(self):
        # Subscribe, a published group, approval and gated delivery: the
        # relay answers none of it on the control channel.
        roles = {
            "p": plain(sub_id=1),
            "an": analyzer([STROBE], sub_id=2),
            "f": filterer([STROBE], sub_id=3),
        }
        rig = ServerRig(roles)
        an = rig.clients["an"]
        an.set_on_stream(
            lambda rs: rs.set_on_data(
                lambda d, fin: fin and an.send_control(
                    encode_message(Approve(2, 0, (STROBE,)))
                )
            )
        )
        blob = encode_group_stream("cam", two_frame_group())
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.end(blob))
        rig.net.run_until_idle()
        assert [joined(s) for s in rig.received["f"].by_stream()] == [blob]
        assert {name: r.control for name, r in rig.received.items()} == {
            name: [] for name in roles
        }

    @pytest.mark.parametrize("tag", [0x02, 0x04], ids=["0x02", "0x04"])
    def test_unknown_control_type_closes_session(self, tag):
        # MoQT's SUBSCRIBE_UPDATE (0x02) and SUBSCRIBE_OK (0x04) tags: not
        # messages the relay accepts.
        rig = ServerRig({"p": plain(sub_id=6)})
        closed = []
        rig.clients["p"].set_on_close(lambda: closed.append(rig.net.now))
        rig.net.at(10, lambda: rig.clients["p"].send_control(bytes([tag, 0x02, 0x01])))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {
            "sid": "p",
            "reason": f"undecodable control bytes: unknown message type 0x{tag:02x}",
        }
        assert rig.server.core.session("p") is None
        assert closed == [20.0]

    def test_oversized_control_length_closes_session(self):
        # A SUBSCRIBE header declaring 2^30 - 1 bytes: refused before any body.
        rig = ServerRig({"p": plain(sub_id=6)})
        header = encode_varint(0x03) + encode_varint((1 << 30) - 1)
        rig.net.at(10, lambda: rig.clients["p"].send_control(header))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {
            "sid": "p",
            "reason": "undecodable control bytes: message length 1073741823 exceeds 65535",
        }
        assert rig.server.core.session("p") is None

    def test_oversized_track_name_length_closes_publisher(self):
        # A group header declaring a 2^30 - 1 byte track name: refused at
        # once, not held until fin.
        rig = ServerRig({"p": plain(sub_id=6)})
        stream = rig.publisher.open_stream()
        rig.net.at(10, lambda: stream.send(encode_varint((1 << 30) - 1) + bytes(1000)))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {
            "sid": "pub",
            "reason": "bad group stream: track name length 1073741823 exceeds 65535",
        }
        assert rig.server.core._tracks["cam"].live == {}
        assert rig.received["p"].chunks == []

    def test_subscriber_failed_mid_group_leaves_the_fanout(self):
        # "a" sends an unknown control tag between the group's two chunks:
        # the relay fails it, and the group's second chunk goes to "b" only.
        rig = ServerRig({"a": plain(sub_id=1), "b": plain(sub_id=2)})
        header = encode_group_header("cam", 0, 2)
        c0, c1 = (encode_frame_chunk(encode_frame_payload(f)) for f in two_frame_group().frames)
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.send(header + c0))
        rig.net.at(40, lambda: rig.clients["a"].send_control(bytes([0x04, 0x02, 0x01])))
        rig.net.at(60, lambda: stream.end(c1))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail["sid"] == "a"
        assert rig.server.core.session("a") is None
        assert rig.received["a"].by_stream() == [[(header + c0, False, 35.0)]]
        assert rig.received["b"].by_stream() == [[(header + c0, False, 35.0), (c1, True, 75.0)]]
        assert rig.server.core._tracks["cam"].live == {}

    def test_live_forwarding_to_plain_and_analyzer(self):
        rig = ServerRig({"p": plain(), "an": analyzer([STROBE], sub_id=2)})
        group = two_frame_group()
        stream = rig.publisher.open_stream()
        # Send header+frame0 at t=20, frame1 at t=60.
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

    def test_stall_alarm_only_for_the_filter_still_waiting(self):
        # Group 0 is ingested at 10 ms and its strobe approval arrives at 105:
        # "served" gets the group, "starved" (smoking) never does.  Each
        # alarm fires at 10_010 ms; only the starved one logs.
        roles = {
            "an": analyzer([STROBE], sub_id=2),
            "served": filterer([STROBE], sub_id=3),
            "starved": filterer([SMOKING], sub_id=3),
        }
        rig = ServerRig(roles)
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(encode_group_stream("cam", two_frame_group())))
        approve = encode_message(Approve(2, 0, (STROBE,)))
        rig.net.at(100, lambda: rig.clients["an"].send_control(approve))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert [joined(s) for s in rig.received["served"].by_stream()] == [
            encode_group_stream("cam", two_frame_group())
        ]
        stalls = rig.server.log.filter(kind="gating_stalled")
        assert [(e.detail["sid"], e.detail["group_id"]) for e in stalls] == [("starved", 0)]

    def test_mid_group_joiner_gets_catch_up_burst(self):
        rig = ServerRig({})
        group = two_frame_group()
        header = encode_group_header("cam", 0, 2)
        c0 = encode_frame_chunk(encode_frame_payload(group.frames[0]))
        c1 = encode_frame_chunk(encode_frame_payload(group.frames[1]))
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.send(header + c0))
        rig.net.at(100, lambda: stream.end(c1))
        # Joins at t=50: header+frame0 already passed through the relay.
        local, remote = rig.net.connect("late", "relay", 5.0, 5.0)
        received = Recorder(rig.net, local)
        rig.net.at(50, lambda: rig.server.attach("late", remote))
        rig.net.at(50, lambda: local.send_control(encode_message(plain(sub_id=9))))
        rig.net.run_until_idle()
        (chunks,) = received.by_stream()
        # Subscribe reaches relay at 55; catch-up burst lands at 60, live tail 115.
        assert chunks == [(header + c0, False, 60.0), (c1, True, 115.0)]

    @pytest.mark.parametrize("ending", ["fin_early", "close"])
    def test_group_of_a_failed_publisher_is_not_caught_up(self, ending):
        rig = ServerRig({})
        c0, c1 = (encode_frame_chunk(encode_frame_payload(f)) for f in two_frame_group().frames)
        stream = rig.publisher.open_stream()
        # Declares 3 frames; sends 2 and then fin, or closes the session.
        rig.net.at(0, lambda: stream.send(encode_group_header("cam", 0, 3) + c0))
        if ending == "fin_early":
            rig.net.at(50, lambda: stream.end(c1))
        else:
            rig.net.at(50, lambda: stream.send(c1))
            rig.net.at(60, rig.publisher.close)
        local, remote = rig.net.connect("late", "relay", 5.0, 5.0)
        received = Recorder(rig.net, local)
        rig.net.at(100, lambda: rig.server.attach("late", remote))
        rig.net.at(100, lambda: local.send_control(encode_message(plain(sub_id=9))))
        rig.net.run_until_idle()
        if ending == "fin_early":
            (error,) = rig.server.log.filter(kind="protocol_error")
            assert error.detail["sid"] == "pub"
        assert rig.server.core._tracks["cam"].live == {}
        assert rig.server.core.session("late").subscribe_id == 9
        assert received.chunks == []

    def test_overlapping_groups_each_reach_live_joiners(self):
        rig = ServerRig({})
        encoded = {}
        for gid, start, end in ((0, 0, 60), (1, 20, 80)):
            frames = two_frame_group(gid).frames
            c0, c1 = (encode_frame_chunk(encode_frame_payload(f)) for f in frames)
            head = encode_group_header("cam", gid, 2) + c0
            encoded[gid] = (head, c1)
            stream = rig.publisher.open_stream()
            rig.net.at(start, lambda stream=stream, head=head: stream.send(head))
            rig.net.at(end, lambda stream=stream, c1=c1: stream.end(c1))
        # At the relay: group 0's header at 10, group 1's at 30, group 0's
        # fin at 70 and group 1's at 90.  SUBSCRIBEs land at 45 and 80.
        received = {}
        for name, at in (("early", 40), ("late", 75)):
            local, remote = rig.net.connect(name, "relay", 5.0, 5.0)
            received[name] = Recorder(rig.net, local)
            rig.net.at(at, lambda remote=remote, name=name: rig.server.attach(name, remote))
            rig.net.at(at, lambda local=local: local.send_control(encode_message(plain(sub_id=9))))
        rig.net.run_until_idle()
        (h0, t0), (h1, t1) = encoded[0], encoded[1]
        assert received["early"].by_stream() == [
            [(h0, False, 50.0), (t0, True, 75.0)],
            [(h1, False, 50.0), (t1, True, 95.0)],
        ]
        assert received["late"].by_stream() == [[(h1, False, 85.0), (t1, True, 95.0)]]
        assert rig.server.core._tracks["cam"].live == {}

    def test_invalid_subscribe_closes_session(self):
        rig = ServerRig({})
        local, remote = rig.net.connect("bad", "relay", 5.0, 5.0)
        rig.server.attach("bad", remote)
        closed = []
        local.set_on_close(lambda: closed.append(rig.net.now))
        bad = Subscribe(1, "cam", 0, (analyze_parameter([9]),))
        local.send_control(encode_message(bad))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail["sid"] == "bad"
        assert "unsupported analyze categories" in error.detail["reason"]
        assert rig.server.core.session("bad") is None
        assert closed == [10.0]

    def test_subscriber_publishing_into_its_track_is_refused(self):
        # The rogue's group 0 reaches the relay at 6 ms, the publisher's at
        # 12 ms: the relay fails the rogue and keeps the publisher.
        rig = ServerRig({"p": plain(1), "rogue": plain(2)})
        rogue_blob = encode_group_stream("cam", Group(0, (frame(0, 0, 99),)))
        blob = encode_group_stream("cam", two_frame_group())
        rogue, stream = rig.clients["rogue"].open_stream(), rig.publisher.open_stream()
        rig.net.at(1, lambda: rogue.end(rogue_blob))
        rig.net.at(2, lambda: stream.end(blob))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {
            "sid": "rogue",
            "reason": "subscriber of track 'cam' cannot publish into it",
        }
        assert rig.server.core.session("rogue") is None
        assert [joined(s) for s in rig.received["p"].by_stream()] == [blob]
        assert [e.detail["group_id"] for e in rig.server.log.filter(kind="group_stored")] == [0]

    def test_publisher_subscribing_to_its_track_is_refused(self):
        # Group 0 is stored at 60 ms; the publisher's SUBSCRIBE reaches the
        # relay at 80 ms.  The relay fails it before any group is echoed
        # back, and the track takes a new publisher.
        rig = ServerRig({"p": plain(sub_id=1)})
        closed, streams = [], []
        rig.publisher.set_on_close(lambda: closed.append(rig.net.now))
        rig.publisher.set_on_stream(streams.append)
        blob = encode_group_stream("cam", two_frame_group())
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(blob))
        rig.net.at(70, lambda: rig.publisher.send_control(encode_message(plain(sub_id=7))))
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {"sid": "pub", "reason": "publisher of track 'cam' cannot subscribe to it"}
        assert closed == [90.0]
        assert streams == []
        assert rig.server.core.session("pub") is None
        assert rig.server.core._tracks["cam"].publisher is None
        assert [joined(s) for s in rig.received["p"].by_stream()] == [blob]

    @pytest.mark.parametrize(
        "message, reason",
        [
            (encode_message(filterer([STROBE], sub_id=1)), "session 'a' is already subscribed"),
            (bytes([0x02, 0x02, 0x01, 0x00]), "undecodable control bytes: unknown message type 0x02"),
        ],
        ids=["second_subscribe", "update_tag"],
    )
    def test_a_session_cannot_change_its_role_mid_group(self, message, reason):
        # Plain viewer "a" asks at 20 ms, inside live group 0, to be
        # filtered: by a second SUBSCRIBE, or by MoQT's SUBSCRIBE_UPDATE
        # tag.  Either fails it; the rest of group 0 and all of group 1 go
        # to "b" only.
        rig = ServerRig({"a": plain(sub_id=1), "b": plain(sub_id=2)})
        rig.net.at(20, lambda: rig.clients["a"].send_control(message))
        groups = [two_frame_group(0), two_frame_group(1)]
        first_chunk = self._publish_frame_by_frame(rig, groups[0], 0)
        self._publish_frame_by_frame(rig, groups[1], 100)
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {"sid": "a", "reason": reason}
        assert rig.server.core.session("a") is None
        assert [e.detail["sid"] for e in rig.server.log.filter(kind="subscribed")] == ["a", "b"]
        assert [joined(s) for s in rig.received["a"].by_stream()] == [first_chunk]
        assert [joined(s) for s in rig.received["b"].by_stream()] == [
            encode_group_stream("cam", g) for g in groups
        ]

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

    @staticmethod
    def _one_control_chunk(rig, messages):
        """Connect session "an" and send ``messages`` in one control chunk
        at 20 ms."""
        local, remote = rig.net.connect("an", "relay", 5.0, 5.0)
        rig.server.attach("an", remote)
        chunk = b"".join(encode_message(msg) for msg in messages)
        rig.net.at(20, lambda: local.send_control(chunk))

    def test_every_message_of_one_control_chunk_is_applied(self):
        # SUBSCRIBE then APPROVE of the stored group 0, in one chunk: the
        # relay applies both, so the filtered viewer gets the group.
        rig = ServerRig({"f": filterer([STROBE], sub_id=3)})
        blob = encode_group_stream("cam", two_frame_group())
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(blob))
        self._one_control_chunk(rig, [analyzer([STROBE], sub_id=2), Approve(2, 0, (STROBE,))])
        rig.net.run_until_idle(max_virtual_ms=60_000)
        assert rig.server.log.filter(kind="protocol_error") == []
        assert rig.server.core.session("an").subscribe_id == 2
        (approve,) = rig.server.log.filter(kind="approve_recorded")
        assert approve.detail["sid"] == "an"
        # chunk sent at 20, at the relay at 25, released to "f" at 30
        assert rig.received["f"].by_stream() == [[(blob, True, 30.0)]]

    def test_a_refused_message_fails_the_session_once_and_ends_its_chunk(self):
        # APPROVE before SUBSCRIBE, in one chunk: the APPROVE fails the
        # session, and the SUBSCRIBE after it is not applied.
        rig = ServerRig({"f": filterer([STROBE], sub_id=3)})
        stream = rig.publisher.open_stream()
        rig.net.at(0, lambda: stream.end(encode_group_stream("cam", two_frame_group())))
        self._one_control_chunk(rig, [Approve(2, 0, (STROBE,)), analyzer([STROBE], sub_id=2)])
        rig.net.run_until_idle(max_virtual_ms=60_000)
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail["sid"] == "an"
        assert rig.server.core.session("an") is None
        assert [e.detail["sid"] for e in rig.server.log.filter(kind="subscribed")] == ["f"]
        assert rig.received["f"].chunks == []

    def test_failing_a_forgotten_session_again_only_logs(self):
        # The second failure finds no session to close: it is logged like
        # the first, and nothing is closed twice.
        rig = ServerRig({"p": plain(sub_id=6)})
        rig.net.run_until_idle()
        rig.server._fail_session("p", "first")
        rig.server._fail_session("p", "second")
        errors = rig.server.log.filter(kind="protocol_error")
        assert [e.detail for e in errors] == [
            {"sid": "p", "reason": "first"},
            {"sid": "p", "reason": "second"},
        ]
        assert rig.server.core.session("p") is None

    @staticmethod
    def _publish_frame_by_frame(rig, group, at):
        """Send ``group``'s header and first frame at ``at``, its second
        frame and fin 50 ms later; returns the first chunk."""
        stream = rig.publisher.open_stream()
        header = encode_group_header("cam", group.group_id, len(group.frames))
        chunks = [encode_frame_chunk(encode_frame_payload(f)) for f in group.frames]
        rig.net.at(at, lambda: stream.send(header + chunks[0]))
        rig.net.at(at + 50, lambda: stream.end(chunks[1]))
        return header + chunks[0]

    def test_viewers_that_leave_are_forgotten(self):
        # Group g is live at the relay from 100g + 10 to 100g + 60 ms.
        # "p_leave" closes at 120 (the relay learns at 125, inside group 1);
        # "f_leave" closes at 220, while groups 0 and 1 are held for it
        # unapproved.  The analyzer approves every group from 400 ms.
        roles = {
            "an": analyzer([STROBE], sub_id=2),
            "p_stay": plain(sub_id=1),
            "p_leave": plain(sub_id=1),
            "f_stay": filterer([STROBE], sub_id=3),
            "f_leave": filterer([STROBE], sub_id=3),
        }
        rig = ServerRig(roles)
        groups = [two_frame_group(gid) for gid in range(3)]
        first_chunks = [self._publish_frame_by_frame(rig, g, 100 * g.group_id) for g in groups]
        for gid in range(3):
            msg = encode_message(Approve(2, gid, (STROBE,)))
            rig.net.at(400 + gid, lambda msg=msg: rig.clients["an"].send_control(msg))
        rig.net.at(120, rig.clients["p_leave"].close)
        rig.net.at(220, rig.clients["f_leave"].close)
        live = []  # (probe time, group id, live group)

        def probe():
            for gid, handle in rig.server.core._tracks["cam"].live.items():
                live.append((rig.net.now, gid, handle))

        for at in (130, 230):
            rig.net.at(at, probe)
        rig.net.run_until_idle()

        log = rig.server.log
        assert [e.detail["sid"] for e in log.filter(kind="session_closed")] == ["p_leave", "f_leave"]
        assert log.filter(kind="protocol_error") == []
        for sid in ("p_leave", "f_leave"):
            assert rig.server.core.session(sid) is None
        assert [(at, gid) for at, gid, _ in live] == [(130, 1), (230, 2)]
        # Each live group's sends dropped the leaver by its end.
        assert [set(handle.fanout) for _, _, handle in live] == [{"an", "p_stay"}] * 2
        blobs = [encode_group_stream("cam", g) for g in groups]
        assert [joined(s) for s in rig.received["p_leave"].by_stream()] == [blobs[0], first_chunks[1]]
        assert rig.received["f_leave"].chunks == []
        for name in ("an", "p_stay", "f_stay"):
            assert [joined(s) for s in rig.received[name].by_stream()] == blobs, name
        assert [e.detail["sid"] for e in log.filter(kind="group_delivered")] == ["f_stay"] * 3

    def test_a_second_publisher_of_a_track_is_refused(self):
        # "pub"'s group 0 is live at the relay from 10 to 60 ms.  "evil",
        # which never subscribed, sends a header for group 1 that lands at
        # 20 ms, before the publisher's own group 1 at 40 ms: the relay
        # fails "evil" and keeps "pub".
        rig = ServerRig({"p": plain(sub_id=1)})
        evil, remote = rig.net.connect("evil", "relay", 5.0, 5.0)
        rig.server.attach("evil", remote)
        closed = []
        evil.set_on_close(lambda: closed.append(rig.net.now))
        evil_stream = evil.open_stream()
        rogue = encode_group_header("cam", 1, 2) + encode_frame_chunk(b"x")
        rig.net.at(15, lambda: evil_stream.send(rogue))
        groups = [two_frame_group(0), two_frame_group(1)]
        for at, group in zip((0, 30), groups):
            self._publish_frame_by_frame(rig, group, at)
        rig.net.run_until_idle()
        (error,) = rig.server.log.filter(kind="protocol_error")
        assert error.detail == {"sid": "evil", "reason": "track 'cam' is published by 'pub', not 'evil'"}
        assert closed == [25.0]
        assert rig.server.core._tracks["cam"].publisher == "pub"
        assert [joined(s) for s in rig.received["p"].by_stream()] == [
            encode_group_stream("cam", g) for g in groups
        ]
        assert [e.detail["group_id"] for e in rig.server.log.filter(kind="group_stored")] == [0, 1]

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
            local, remote = rig.net.connect(name, "relay", delay, delay)
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

    def test_finished_groups_held_once_within_retention(self):
        # 20 groups of 100 kB through a relay that keeps one: what stays
        # allocated must be about one group, not every group's parser and
        # live stream buffer next to the core's copy.
        group_bytes = 10 * 10_000
        net = SimNetwork()
        server = RelayServer(net, retention=1)
        pub, remote = net.connect("pub", "relay", 1, 1)
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


class TestDuplicateGroup:
    """A publisher stream whose header repeats a group id that is already
    live or ingested is refused at the header, before any byte of it is
    forwarded: otherwise an approval of the duplicate's content lands on the
    group the relay holds under that id."""

    @staticmethod
    def _group_zero(segment):
        source = SourceConfig(16, 16, 30, 1000, (segment,))
        (group,) = generate_groups(source, "cam")
        return group.chunks

    @pytest.mark.parametrize("state", ["ingested", "live"])
    def test_duplicate_group_id_refused_before_forwarding(self, state):
        net = SimNetwork()
        server = RelayServer(net)

        def connect(name):
            local, remote = net.connect(name, "relay", 5.0, 5.0)
            server.attach(name, remote)
            return local

        an = AnalyzerClient(net, connect("an"), "cam", (STROBE,), 2)
        gated = SubscriberClient(net, connect("f"), "cam", 3, filter_categories=(STROBE,))
        an.start()
        gated.start()
        pub = connect("pub")
        strobe = self._group_zero(Strobe(16, 240, 15.0, 1000))
        duplicate = b"".join(self._group_zero(Constant(128, 1000)))

        def send(stream, data, fin):
            try:
                stream.end(data) if fin else stream.send(data)
            except DisconnectedError:
                pass  # the relay has failed the publisher

        first, second = pub.open_stream(), pub.open_stream()
        # The strobe group either arrives whole at 15 ms, or frame by frame
        # from 15 ms to 1 s; the duplicate arrives whole at 505 ms.
        step = 0 if state == "ingested" else 1000 / 30
        for k, chunk in enumerate(strobe):
            net.at(10 + k * step, partial(send, first, chunk, k == len(strobe) - 1))
        net.at(500, partial(send, second, duplicate, True))
        net.run_until_idle()

        assert gated.records == []
        assert an.log.filter(kind="approve_sent") == []
        assert [r.group_id for r in an.records] == ([0] if state == "ingested" else [])
        (error,) = server.log.filter(kind="protocol_error")
        assert error.detail == {"sid": "pub", "reason": f"track 'cam' group 0 is already {state}"}
        assert server.core._tracks["cam"].live == {}


class TestForwarding:
    """The relay passes each publisher chunk on as it arrived, the very
    bytes object, once the group's header is whole; the chunks before that
    reach a receiver joined, when it joins the group."""

    @settings(max_examples=150, deadline=None)
    @given(
        group_id=st.integers(0, 2**62 - 1),
        payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_each_chunk_is_forwarded_as_received(self, group_id, payloads, data):
        header = encode_group_header("cam", group_id, len(payloads))
        blob = header + b"".join(encode_frame_chunk(p) for p in payloads)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(blob) - 1), max_size=8)))
        pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
        rig = ServerRig({"p1": plain(), "p2": plain()})
        stream = rig.publisher.open_stream()
        for i, piece in enumerate(pieces):
            send = stream.end if i == len(pieces) - 1 else stream.send
            rig.net.at(20 + i, lambda send=send, piece=piece: send(piece))
        rig.net.run_until_idle()
        # Piece k completes the header: the pieces before it go as one.
        k = next(i for i, end in enumerate(accumulate(map(len, pieces))) if end >= len(header))
        forwarded = pieces[k:]
        expected = ([b"".join(pieces[:k])] if k else []) + forwarded
        for name in ("p1", "p2"):
            (chunks,) = rig.received[name].by_stream()
            assert [d for d, _, _ in chunks] == expected
            assert [fin for _, fin, _ in chunks] == [False] * (len(expected) - 1) + [True]
            tail = chunks[len(expected) - len(forwarded) :]
            assert all(d is piece for (d, _, _), piece in zip(tail, forwarded))
        assert rig.server.core._tracks["cam"].held[group_id].payload == blob

    def test_a_chunk_ending_mid_frame_reaches_live_receivers_on_arrival(self):
        # Header and half of frame 0 leave at 20 ms and reach the relay at
        # 30: each plain subscriber gets that very chunk at 35, not when the
        # rest of the frame reaches the relay at 60.
        header = encode_group_header("cam", 0, 2)
        c0, c1 = (encode_frame_chunk(encode_frame_payload(f)) for f in two_frame_group().frames)
        first, rest = header + c0[:3], c0[3:] + c1
        rig = ServerRig({"p1": plain(sub_id=1), "p2": plain(sub_id=2)})
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.send(first))
        rig.net.at(50, lambda: stream.end(rest))
        rig.net.run_until_idle()
        for name in ("p1", "p2"):
            (chunks,) = rig.received[name].by_stream()
            assert chunks == [(first, False, 35.0), (rest, True, 65.0)]
            assert chunks[0][0] is first and chunks[1][0] is rest

    def test_a_viewer_joining_mid_frame_records_what_an_early_one_does(self):
        # The relay holds header and half of frame 0 from 10 ms until the
        # rest arrives at 60.  The late viewers subscribe at 30 (the relay
        # learns at 35), between the two: each gets the first chunk on
        # joining, then the rest, and times the group as "early" does.
        header = encode_group_header("cam", 0, 2)
        c0, c1 = (encode_frame_chunk(encode_frame_payload(f)) for f in two_frame_group().frames)
        first, rest = header + c0[:3], c0[3:]
        net = SimNetwork()
        server = RelayServer(net)

        def connect(name):
            local, remote = net.connect(name, "relay", 5.0, 5.0)
            server.attach(name, remote)
            return local

        early = SubscriberClient(net, connect("early"), "cam", 1)
        late = SubscriberClient(net, connect("late"), "cam", 1)
        late_tap = connect("late_tap")
        tapped = Recorder(net, late_tap)
        early.start()
        net.at(30, late.start)
        net.at(30, lambda: late_tap.send_control(encode_message(plain())))
        pub = connect("pub")
        stream = pub.open_stream()
        net.at(5, lambda: stream.send(first))
        net.at(55, lambda: stream.send(rest))
        net.at(75, lambda: stream.end(c1))
        net.run_until_idle()
        (chunks,) = tapped.by_stream()
        assert chunks == [(first, False, 40.0), (rest, False, 65.0), (c1, True, 85.0)]
        assert chunks[0][0] is first
        assert late.records == early.records == [LatencyRecord(0, 65.0, 85.0, 2)]

    def test_non_minimal_length_varint_forwarded_as_received(self):
        # A 5-byte frame whose length takes the 8-byte varint form, which a
        # re-encoding relay would shorten to one byte.
        chunk = (
            encode_group_header("cam", 0, 1)
            + (5 | 0b11 << 62).to_bytes(8, "big")
            + bytes([1, 2, 3, 4, 5])
        )
        rig = ServerRig({"p": plain()})
        stream = rig.publisher.open_stream()
        rig.net.at(20, lambda: stream.end(chunk))
        rig.net.run_until_idle(max_virtual_ms=60_000)
        (chunks,) = rig.received["p"].by_stream()
        assert chunks == [(chunk, True, 35.0)]
        assert chunks[0][0] is chunk  # a chunk on a frame boundary is not copied
        # A group that arrived in one chunk is stored as that chunk.
        assert rig.server.core._tracks["cam"].held[0].payload is chunk


class TestBoundedState:
    """What the relay and the transport hold after a run must not depend
    on how many groups went through it."""

    RETENTION = 2

    def _state_after(self, n_groups):
        net = SimNetwork()
        server = RelayServer(net, retention=self.RETENTION)
        sessions = []

        def connect(name, delay):
            local, remote = net.connect(name, "relay", delay, delay, jitter_ms=1.0, seed=3)
            server.attach(name, remote)
            sessions.extend([local, remote])
            return local

        AnalyzerClient(net, connect("an", 4.0), "cam", (STROBE,), 2).start()
        SubscriberClient(net, connect("plain", 2.0), "cam", 3).start()
        SubscriberClient(net, connect("gated", 6.0), "cam", 4, filter_categories=(STROBE,)).start()
        source = SourceConfig(16, 16, 10, 1000, (Constant(128, n_groups * 1000),))
        publication = generate_groups(source, "cam")
        PublisherClient(net, connect("pub", 5.0), publication).start()
        net.run_until_idle()
        delivered = server.log.filter(kind="group_delivered")
        assert [e.detail["group_id"] for e in delivered] == list(range(n_groups))

        for session in sessions:
            # every stream has finished, so none is held
            assert session._recv_streams == {}, session.name
            # only the never-ending control stream keeps an arrival clamp
            assert set(session._last_arrival) <= {0}, session.name
        track = server.core._tracks["cam"]
        assert track.live == {}
        assert len(track.held) <= self.RETENTION
        return (
            [(len(s._recv_streams), set(s._last_arrival)) for s in sessions],
            len(track.live),
            [len(group.approved) for group in track.held.values()],
        )

    def test_state_after_a_run_is_flat_in_groups(self):
        assert self._state_after(10) == self._state_after(40)
