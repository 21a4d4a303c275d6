"""Acceptance gate: one test (and one verbose pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion appears as a
single PASSED/FAILED line.  Tolerances are stated inline next to each
assertion.  Oracles here are test-local and deliberately naive so they stay
independent of the implementation they check.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import defaultdict

from payloads import received

from moqgate.analysis import StrobeConfig, StrobeDetector
from moqgate.harness import run_scenario
from moqgate.media import Constant, Group, Ramp, SourceConfig, Strobe, generate_groups
from moqgate.relay import DeliverGroup, ProtocolError, RelayCore, SkipGroups
from moqgate.scenario import Checks, bundled_scenario_path, load_scenario
from moqgate.wire import (
    Approve,
    Parameter,
    Subscribe,
    WireError,
    analyze_parameter,
    decode_message,
    encode_message,
    filter_parameter,
)


def verdict(ok: bool, label: str) -> None:
    print(("[PASS] " if ok else "[FAIL] ") + label)
    assert ok, label


# ---------------------------------------------------------------------------
# criterion 1: replication scenario adds about one group of latency
# ---------------------------------------------------------------------------


def test_criterion_1_filtered_latency_within_990_to_1010_ms():
    started = time.monotonic()
    report = run_scenario(load_scenario(bundled_scenario_path("paper_replication")))
    elapsed = time.monotonic() - started
    gated = report.data["runs"][0]["records"]["gated"]
    added = [r["added_ms"] for r in gated]
    ok = (
        report.passed
        and len(added) == 10
        and all(990.0 <= a <= 1010.0 for a in added)  # tolerance: +/-10 ms of 1000
        and elapsed < 5.0  # tolerance: full scenario in under 5 s of wall time
    )
    verdict(
        ok,
        f"criterion 1: added latency {min(added)}..{max(added)} ms within "
        f"[990, 1010] on all 10 groups, simulated in {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# criterion 2: strobe impulse is withheld from the filtered client only
# ---------------------------------------------------------------------------


def test_criterion_2_strobe_groups_skipped_for_filtered_client_only():
    report = run_scenario(load_scenario(bundled_scenario_path("strobe_impulse")))
    run = report.data["runs"][0]
    ok = (
        report.passed
        and run["delivered"]["gated"] == [0, 1, 2, 3, 6, 7, 8, 9]
        and run["skipped"]["gated"] == [4, 5]
        and run["delivered"]["analyzer0"] == list(range(10))
        and run["delivered"]["plain"] == list(range(10))
    )
    verdict(
        ok,
        "criterion 2: impulse groups {4, 5} skipped for the filtered client; "
        "analyzer and plain clients received all 10 groups",
    )


# ---------------------------------------------------------------------------
# criterion 3: latency bound holds under 20 random delay draws
# ---------------------------------------------------------------------------


def test_criterion_3_latency_bound_holds_across_random_delays():
    report = run_scenario(load_scenario(bundled_scenario_path("random_delays")))
    margins = []
    within = True
    for run in report.data["runs"]:
        bounds = run["bounds"]["gated"]
        margins.append(bounds["predicted_ms"] - bounds["max_observed_e2e_ms"])
        for record in run["records"]["gated"]:
            # tolerance: measured end-to-end <= predicted bound + 2 ms
            if record["e2e_ms"] > bounds["predicted_ms"] + 2.0:
                within = False
    ok = (
        report.passed
        and len(report.data["runs"]) == 20
        and within
        and min(margins) <= 15.0  # tightness: at least one draw within 15 ms
    )
    verdict(
        ok,
        f"criterion 3: 20 delay draws all within bound + 2 ms; "
        f"tightest margin {min(margins)} ms (<= 15 ms required)",
    )


# ---------------------------------------------------------------------------
# criterion 4: gating agrees with a naive replay over random interleavings
# ---------------------------------------------------------------------------


def _naive_gate_replay(ops, filters, n_groups):
    """Brute-force re-derivation of what each filtered client must receive.

    After every event, deliver the smallest stored group at or past the
    cursor whose approvals cover the client's whole filter set, permanently
    passing over everything before it.
    """
    approved: dict[int, set[int]] = defaultdict(set)
    stored: set[int] = set()
    cursor = {sid: 0 for sid in filters}
    delivered = {sid: [] for sid in filters}
    skipped = {sid: set() for sid in filters}

    def settle() -> None:
        for sid, cats in filters.items():
            while True:
                ready = [g for g in stored if g >= cursor[sid] and cats <= approved[g]]
                if not ready:
                    break
                target = min(ready)
                skipped[sid].update(range(cursor[sid], target))
                delivered[sid].append(target)
                cursor[sid] = target + 1

    for op in ops:
        if op[0] == "ingest":
            stored.add(op[1])
        else:
            _, group_id, cats, _ = op
            if group_id not in stored:
                continue  # refused: the relay has not ingested the group
            approved[group_id].update(cats)
        settle()
    return delivered, skipped


def test_criterion_4_gating_matches_naive_replay_on_1000_interleavings():
    rng = random.Random(41)
    categories = (1, 2, 3)
    mismatches = 0
    unrefused = 0  # approvals for groups not yet ingested that the relay accepted
    for trial in range(1000):
        # mostly short tracks for op-order variety, periodically the full
        # 32-group envelope
        n_groups = 32 if trial % 20 == 0 else rng.randint(4, 10)
        analyzers = {
            f"an{i}": frozenset(rng.sample(categories, rng.randint(1, 3)))
            for i in range(rng.randint(1, 2))
        }
        covered = frozenset().union(*analyzers.values())
        filters = {
            f"fi{i}": frozenset(rng.sample(categories, rng.randint(1, 3)))
            for i in range(rng.randint(1, 2))
        }

        # approvals may precede the ingest of their group (a protocol error),
        # repeat (idempotent), or never happen (blocked); ingests stay in order
        ops: list[tuple] = [("ingest", g) for g in range(n_groups)]
        for group_id in range(n_groups):
            for cat in sorted(covered):
                if rng.random() >= 0.8:
                    continue
                name = rng.choice([n for n, cats in analyzers.items() if cat in cats])
                repeats = 2 if rng.random() < 0.1 else 1
                for _ in range(repeats):
                    op = ("approve", group_id, frozenset({cat}), name)
                    ops.insert(rng.randint(0, len(ops)), op)

        core = RelayCore()
        sub_ids = {}
        for sub_id, (name, cats) in enumerate(
            list(analyzers.items()) + list(filters.items()), start=1
        ):
            sub_ids[name] = sub_id
            param = (
                analyze_parameter(tuple(sorted(cats)))
                if name in analyzers
                else filter_parameter(tuple(sorted(cats)))
            )
            core.handle_subscribe(name, Subscribe(sub_id, "cam", 0, (param,)))

        actual_delivered = {sid: [] for sid in filters}
        actual_skipped = {sid: set() for sid in filters}
        payloads = {}
        for op in ops:
            if op[0] == "ingest":
                payloads[op[1]] = (f"G{op[1]}".encode(),)
                actions = core.ingest_group("cam", op[1], payloads[op[1]])
            else:
                _, group_id, cats, name = op
                approve = Approve(sub_ids[name], group_id, tuple(sorted(cats)))
                if group_id not in payloads:
                    try:
                        core.handle_approve(name, approve)
                    except ProtocolError:
                        continue
                    unrefused += 1
                    continue
                actions = core.handle_approve(name, approve)
            for action in actions:
                if isinstance(action, DeliverGroup) and action.sid in filters:
                    assert action.payload == payloads[action.group_id]
                    actual_delivered[action.sid].append(action.group_id)
                elif isinstance(action, SkipGroups) and action.sid in filters:
                    actual_skipped[action.sid].update(action.group_ids)

        expected_delivered, expected_skipped = _naive_gate_replay(ops, filters, n_groups)
        if actual_delivered != expected_delivered or actual_skipped != expected_skipped:
            mismatches += 1
    verdict(
        mismatches == 0 and unrefused == 0,
        f"criterion 4: relay gating matched the naive replay oracle on "
        f"1000/1000 random interleavings ({mismatches} mismatches, "
        f"{unrefused} approvals of groups not yet ingested accepted)",
    )


# ---------------------------------------------------------------------------
# criterion 5: detector truth table + agreement with a pixel-trace oracle
# ---------------------------------------------------------------------------


def _detector_risky_groups(groups, config):
    detector = StrobeDetector(config)
    risky = set()
    for group in groups:
        if detector.analyze_group(received(group)):
            risky.add(group.group_id)
    return risky


def _pixel_trace_risky_groups(groups, config):
    """Oracle: frames here are spatially uniform, so one pixel tells all.
    A group is risky when a significant luma increase lands within the
    flash window of the previous one."""
    risky = set()
    prev_level = None
    last_increase_ts = None
    for group in groups:
        for frame in group.frames:
            level = frame.pixels[0]
            if prev_level is not None and level - prev_level > config.pixel_delta_threshold:
                if (
                    last_increase_ts is not None
                    and frame.capture_ts - last_increase_ts <= config.max_interchange_gap_ms
                ):
                    risky.add(group.group_id)
                last_increase_ts = frame.capture_ts
            prev_level = level
    return risky


def test_criterion_5_flash_truth_table_and_oracle_agreement():
    config = StrobeConfig()
    failures = []

    # truth table at 30 fps: sub-threshold flash rates pass, fast ones fail
    for hz, approved in [(2.0, True), (5.0, True), (9.0, True),
                         (10.0, False), (12.0, False), (15.0, False)]:
        source = SourceConfig(16, 16, 30, 1000, (Strobe(16, 240, hz, 2000),))
        groups = generate_groups(source)
        risky = _detector_risky_groups(groups, config)
        if approved and risky:
            failures.append(f"{hz} Hz flagged {sorted(risky)}; expected clean")
        if not approved and risky != {0, 1}:
            failures.append(f"{hz} Hz flagged {sorted(risky)}; expected both groups")

    # steady and ramping content is always approved
    for segment in (Constant(128, 2000), Ramp(0, 255, 2000)):
        groups = generate_groups(SourceConfig(16, 16, 30, 1000, (segment,)))
        risky = _detector_risky_groups(groups, config)
        if risky:
            failures.append(f"{segment!r} flagged {sorted(risky)}")

    # 50 random sources: full detector vs single-pixel event trace
    rng = random.Random(51)
    for trial in range(50):
        # 500 ms groups need an even rate for a whole number of frames
        fps = rng.choice([10, 20, 30, 50, 60])
        segments = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randint(0, 2)
            duration = rng.choice([500, 1000, 1500, 2000])
            if kind == 0:
                segments.append(Constant(rng.randint(0, 255), duration))
            elif kind == 1:
                low = rng.randint(0, 200)
                flash_hz = rng.uniform(1.0, fps / 2)  # stay under the Nyquist cap
                segments.append(
                    Strobe(low, low + rng.randint(1, 55), flash_hz, duration)
                )
            else:
                segments.append(Ramp(rng.randint(0, 255), rng.randint(0, 255), duration))
        source = SourceConfig(16, 16, fps, 500, tuple(segments))
        groups = generate_groups(source)
        detector_view = _detector_risky_groups(groups, config)
        oracle_view = _pixel_trace_risky_groups(groups, config)
        if detector_view != oracle_view:
            failures.append(
                f"trial {trial}: detector {sorted(detector_view)} != oracle {sorted(oracle_view)}"
            )

    verdict(
        not failures,
        "criterion 5: flash truth table exact at 30 fps and detector agreed "
        "with the pixel-trace oracle on 50 random sources"
        + ("" if not failures else f" — {failures[:3]}"),
    )


# ---------------------------------------------------------------------------
# criterion 6: wire codec round-trips, golden bytes, and fuzz safety
# ---------------------------------------------------------------------------


def _random_message(rng: random.Random):
    def params():
        choices = []
        if rng.random() < 0.5:
            choices.append(analyze_parameter(tuple(rng.sample((1, 2, 3), rng.randint(1, 3)))))
        if rng.random() < 0.5:
            choices.append(filter_parameter(tuple(rng.sample((1, 2, 3), rng.randint(1, 3)))))
        if rng.random() < 0.3:
            choices.append(Parameter(rng.choice((0x20, 0x7F)), rng.randbytes(rng.randint(0, 10))))
        return tuple(choices)

    if rng.randint(0, 2) < 2:
        track = "".join(rng.choice("abcxyz/0123✓動") for _ in range(rng.randint(0, 12)))
        return Subscribe(rng.randint(0, 2**30), track, rng.randint(0, 255), params())
    return Approve(
        rng.randint(0, 2**30),
        rng.randint(0, 2**40),
        tuple(rng.sample((1, 2, 3), rng.randint(1, 3))),
    )


def test_criterion_6_wire_round_trips_golden_bytes_and_fuzz():
    rng = random.Random(61)
    round_trip_failures = 0
    for _ in range(10_000):
        msg = _random_message(rng)
        blob = encode_message(msg)
        decoded, consumed = decode_message(blob)
        if decoded != msg or consumed != len(blob):
            round_trip_failures += 1

    golden = bytes.fromhex("40 41 06 01 07 02 01 01".replace(" ", ""))
    golden_msg = Approve(1, 7, (1,))
    golden_ok = (
        encode_message(golden_msg) == golden
        and decode_message(golden)[0] == golden_msg
    )

    fuzz_failures = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randint(0, 40))
        try:
            decode_message(blob)
        except WireError:
            pass
        except Exception:  # anything else escaping is a defect
            fuzz_failures += 1

    verdict(
        round_trip_failures == 0 and golden_ok and fuzz_failures == 0,
        "criterion 6: 10000 random messages round-tripped byte-exactly, the "
        "golden approval vector matched, and 100000 fuzz inputs raised only "
        "codec errors",
    )


# ---------------------------------------------------------------------------
# criterion 7: per-category approvals gate different filters differently
# ---------------------------------------------------------------------------


def test_criterion_7_multi_category_gating():
    report = run_scenario(load_scenario(bundled_scenario_path("multi_category")))
    run = report.data["runs"][0]
    ok = (
        report.passed
        and run["approvals"]["analyzer0"] == [[0, [2]], [1, [2]], [2, [2]]]
        and run["delivered"]["filter_smoke"] == [0, 1, 2]
        and run["delivered"]["filter_strobe"] == []
        and run["skipped"]["filter_strobe"] == [0, 1, 2]
    )
    verdict(
        ok,
        "criterion 7: approvals carried only the smoking category; the "
        "smoking filter received every group while the strobe filter "
        "received none",
    )


# ---------------------------------------------------------------------------
# criterion 8: analyzers never slow down a plain subscriber
# ---------------------------------------------------------------------------


def test_criterion_8_plain_subscriber_latency_independent_of_analyzers():
    ok = True
    worst = 0.0
    for name in ("strobe_impulse", "paper_replication"):
        scenario = load_scenario(bundled_scenario_path(name))
        with_analyzers = run_scenario(scenario).data["runs"][0]["records"]["plain"]

        plain_only = dataclasses.replace(
            scenario,
            clients=tuple(c for c in scenario.clients if c.name == "plain"),
            checks=Checks(),
        )
        alone = run_scenario(plain_only).data["runs"][0]["records"]["plain"]

        ok = ok and len(with_analyzers) == len(alone) == 10
        for a, b in zip(with_analyzers, alone):
            delta = abs(a["complete_arrival_ms"] - b["complete_arrival_ms"])
            worst = max(worst, delta)
            if a["group_id"] != b["group_id"] or delta > 2.0:  # tolerance: +/-2 ms
                ok = False
    verdict(
        ok,
        f"criterion 8: plain subscriber arrivals identical with and without "
        f"analyzers on both scenarios (worst delta {worst} ms <= 2 ms)",
    )


# ---------------------------------------------------------------------------
# criterion 9: reports are byte-identical across reruns
# ---------------------------------------------------------------------------


def test_criterion_9_reports_reproduce_byte_identically():
    stable = True
    for name in ("paper_replication", "strobe_impulse", "multi_category", "random_delays"):
        first = run_scenario(load_scenario(bundled_scenario_path(name))).to_json()
        second = run_scenario(load_scenario(bundled_scenario_path(name))).to_json()
        if first != second:
            stable = False
    verdict(
        stable,
        "criterion 9: all four bundled scenarios rendered byte-identical "
        "JSON reports on a second run",
    )
