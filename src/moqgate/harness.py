"""Scenario runs: simulate a scenario, check it and assemble its report.

``run_scenario`` replays a :class:`~moqgate.scenario.Scenario` on the
simulated network (once, or once per delay draw) and produces a
:class:`~moqgate.report.Report` with per-group latency records, delivery
and skip lists, playback stall analysis, latency-bound comparisons, each
run's faults (the relay's refusals among them) and a list of named
pass/fail checks.  Reports are deterministic: the same scenario always
renders to byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass
from typing import Mapping

from .analysis import predict_risky_groups
from .client import (
    AnalyzerClient,
    CheckedBurst,
    LatencyModel,
    LatencyRecord,
    PublisherClient,
    SubscriberClient,
    compute_playback,
    predict_latency_bound,
)
from .eventlog import EventLog
from .media import EncodedGroup, generate_groups
from .relay import RelayServer
from .report import RecordRow, Report
from .scenario import ClientSpec, LinkSpec, Scenario
# perfbench/workloads.py loads scenarios through this module's name.
from .scenario import scenario_from_dict  # noqa: F401
from .transport import Session, SimNetwork, SimTimeoutError, derive_seed
from .wire import Category, category_name

__all__ = ["ScenarioTimeoutError", "predict_bounds", "run_scenario"]

#: Tolerance when comparing measured latencies against the predicted bound.
BOUND_EPSILON_MS = 2.0

#: Event kinds of a peer's failure, or of the relay's refusal of a peer; each run's report lists them.
FAULT_KINDS = ("detector_error", "approve_failed", "approve_ignored", "publish_failed", "protocol_error")


class ScenarioTimeoutError(RuntimeError):
    """The virtual-time or event budget ran out; carries the partial report."""

    def __init__(self, message: str, report: "Report") -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# latency bound
# ---------------------------------------------------------------------------


def _bound_for(scenario: Scenario, spec: ClientSpec, links: Mapping[str, LinkSpec]) -> float:
    """The client's latency bound: the run's links fed to LatencyModel."""
    # An analyzer of two filtered categories is listed twice: the maxima hold.
    covering = [a for code in spec.filter for a in scenario.analyzers.get(code, ())]
    pub = links["publisher"]
    model = LatencyModel(
        gop_duration_ms=float(scenario.source.gop_duration_ms),
        publisher_uplink_ms=pub.to_relay_ms + pub.jitter_ms,
        analyzer_links_ms=tuple(
            (
                links[a.name].from_relay_ms + links[a.name].jitter_ms,
                links[a.name].to_relay_ms + links[a.name].jitter_ms,
            )
            for a in covering
        ),
        subscriber_downlink_ms=links[spec.name].from_relay_ms + links[spec.name].jitter_ms,
        analysis_time_ms=max(a.analysis_time_ms for a in covering),
    )
    return predict_latency_bound(model)


def predict_bounds(scenario: Scenario) -> dict[str, float]:
    """Predicted end-to-end bound for every filtered client, base links."""
    links = _base_links(scenario)
    return {spec.name: _bound_for(scenario, spec, links) for spec in scenario.clients if spec.filter}


def _base_links(scenario: Scenario) -> dict[str, LinkSpec]:
    return {"publisher": scenario.publisher_link, **{s.name: s.link for s in scenario.clients}}


def _drawn_links(scenario: Scenario, rng: random.Random) -> dict[str, LinkSpec]:
    """Replace every base delay with an integer draw; jitter is kept."""
    draws = scenario.delay_draws
    assert draws is not None

    def draw() -> float:
        return float(rng.randint(draws.min_ms, draws.max_ms))

    return {name: LinkSpec(draw(), draw(), link.jitter_ms) for name, link in _base_links(scenario).items()}


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------


@dataclass
class _RunResult:
    """One run's facts, each from one source: records and sent approvals
    from its clients, the rest folded from its events as they were emitted."""

    index: int
    links: dict[str, LinkSpec]
    records: dict[str, list[LatencyRecord]]
    approvals_sent: dict[str, list[tuple[float, int, list[int]]]]  # (time, group, categories)
    approved_at: dict[tuple[int, int], float]  # (group, category) -> first approve_recorded
    gated_deliveries: list[tuple[float, str, int]]  # (time, filtered client, group)
    faults: list[list]  # [time, source, kind, detail] of each FAULT_KINDS event
    end_time_ms: float
    timeout: str = ""  # why the run stopped early: the SimTimeoutError text


def _run_once(
    scenario: Scenario,
    publication: list[EncodedGroup],
    links: Mapping[str, LinkSpec],
    index: int,
) -> _RunResult:
    # The run's ledger: each fact the checks read is folded in as its event
    # is emitted, and the log keeps no events.
    approved_at: dict[tuple[int, int], float] = {}
    gated: list[tuple[float, str, int]] = []
    faults: list[list] = []

    def approve_recorded(time_ms: float, source: str, detail: dict) -> None:
        group_id = detail["group_id"]
        for code in detail["categories"]:
            approved_at.setdefault((group_id, code), time_ms)

    def group_delivered(time_ms: float, source: str, detail: dict) -> None:
        gated.append((time_ms, detail["sid"], detail["group_id"]))

    def fault(kind: str, time_ms: float, source: str, detail: dict) -> None:
        faults.append([time_ms, source, kind, detail])

    net = SimNetwork()
    log = EventLog(
        lambda: net.now,
        folds={
            "approve_recorded": approve_recorded,
            "group_delivered": group_delivered,
            **{kind: functools.partial(fault, kind) for kind in FAULT_KINDS},
        },
    )
    server = RelayServer(net, scenario.retention_groups, log)

    def connect(name: str) -> tuple[Session, Session]:
        link = links[name]
        seed = derive_seed(str(scenario.seed), "run", str(index), "link", name)
        return net.connect(name, "relay", link.to_relay_ms, link.from_relay_ms, link.jitter_ms, seed)

    pub_session, relay_pub = connect("publisher")
    server.attach("publisher", relay_pub)

    checked = CheckedBurst()  # the burst the run's subscribers last parsed
    clients: dict[str, AnalyzerClient | SubscriberClient] = {}
    for sub_id, spec in enumerate(scenario.clients, start=1):
        client_session, relay_session = connect(spec.name)
        server.attach(spec.name, relay_session)
        if spec.analyze:
            client: AnalyzerClient | SubscriberClient = AnalyzerClient(
                net,
                client_session,
                scenario.track,
                spec.analyze,
                sub_id,
                detector=spec.detector,
                rejecting_stubs=scenario.rejected_stubs,
                analysis_time_ms=spec.analysis_time_ms,
                log=log,
            )
        else:
            client = SubscriberClient(
                net,
                client_session,
                scenario.track,
                sub_id,
                filter_categories=spec.filter or None,
                checked=checked,
            )
        client.start()
        clients[spec.name] = client

    publisher = PublisherClient(
        net,
        pub_session,
        publication,
        epoch_ms=scenario.publish_epoch_ms,
        log=log,
    )
    publisher.start()

    timeout = ""
    try:
        end_time = net.run_until_idle(max_virtual_ms=scenario.duration_ms)
    except SimTimeoutError as exc:
        timeout = str(exc)
        end_time = net.now
    finally:
        net.shutdown()

    records: dict[str, list[LatencyRecord]] = {
        name: sorted(c.records, key=lambda r: r.group_id) if isinstance(c, AnalyzerClient) else c.records
        for name, c in clients.items()
    }
    sent = {name: c.approvals for name, c in clients.items() if isinstance(c, AnalyzerClient)}
    return _RunResult(index, dict(links), records, sent, approved_at, gated, faults, end_time, timeout)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_result(name: str, prefix: str, failures: list[str], passed_detail: str) -> dict:
    """A named check: failed with the first five failures, or passed."""
    if failures:
        return {"name": name, "passed": False, "detail": prefix + "; ".join(failures[:5])}
    return {"name": name, "passed": True, "detail": passed_detail}


def _expected_deliveries(scenario: Scenario, n_groups: int) -> dict[str, list[int]]:
    """Groups each filtered client must receive, in order, per category
    oracle.  The strobe oracle runs once per distinct detector config."""
    risky = functools.cache(lambda detector: predict_risky_groups(scenario.source, detector))
    expected: dict[str, list[int]] = {}
    for spec in scenario.clients:
        if not spec.filter:
            continue
        blocked: set[int] = set()
        for code in spec.filter:
            covering = scenario.analyzers.get(code, ())
            if code == Category.STROBE:
                # blocked only if every covering analyzer flags the group
                risky_sets = [risky(a.detector) for a in covering]
                per_cat = set.intersection(*risky_sets) if risky_sets else set()
            else:
                per_cat = set(range(n_groups)) if code in scenario.rejected_stubs else set()
            blocked |= per_cat
        expected[spec.name] = [g for g in range(n_groups) if g not in blocked]
    return expected


def _check_added_band(scenario: Scenario, report_runs: list[dict]) -> dict:
    low, high = scenario.checks.added_latency_band_ms  # type: ignore[misc]
    failures = []
    samples = 0
    for run in report_runs:
        for spec in scenario.clients:
            if not spec.filter:
                continue
            for record in run["records"][spec.name]:
                added = record.added_ms
                samples += 1
                if added is None or not (low <= added <= high):
                    failures.append(
                        f"run {run['run']} {spec.name} group {record.group_id}: {added}"
                    )
    return _check_result(
        "added_latency_band",
        f"outside [{low}, {high}] ms: ",
        failures,
        f"{samples} filtered deliveries within [{low}, {high}] ms",
    )


def _check_latency_bound(report_runs: list[dict]) -> dict:
    failures = []
    checked = 0
    for run in report_runs:
        for name, bounds in run["bounds"].items():
            predicted = bounds["predicted_ms"]
            for record in run["records"][name]:
                checked += 1
                if record.e2e_ms > predicted + BOUND_EPSILON_MS:
                    failures.append(
                        f"run {run['run']} {name} group {record.group_id}: "
                        f"{record.e2e_ms} ms > bound {predicted} + {BOUND_EPSILON_MS}"
                    )
    return _check_result(
        "latency_bound",
        "",
        failures,
        f"{checked} deliveries within the predicted bound (+{BOUND_EPSILON_MS} ms)",
    )


def _check_gating_safety(
    scenario: Scenario, runs: list[_RunResult], report_runs: list[dict], n_groups: int
) -> dict:
    """Deliveries against the oracle; a run that got them wrong also names
    every session the relay failed, with the reason."""
    expected = _expected_deliveries(scenario, n_groups)
    failures = []
    for run, report_run in zip(runs, report_runs):
        before = len(failures)
        for name, expected_delivered in expected.items():
            actual = report_run["delivered"][name]
            if actual != expected_delivered:
                failures.append(
                    f"run {run.index} {name}: delivered {actual}, expected {expected_delivered}"
                )
        if len(failures) > before:
            for _, _, kind, detail in run.faults:
                if kind == "protocol_error":
                    failures.append(f"run {run.index} relay failed {detail['sid']}: {detail['reason']}")
    return _check_result(
        "gating_safety",
        "",
        failures,
        "every filtered client received exactly the approved groups, in order",
    )


def _check_approval_audit(scenario: Scenario, runs: list[_RunResult]) -> dict:
    """Re-verify, purely from logged events, that each gated delivery was
    fully approved beforehand — independent of the relay's internal ledger."""
    filtered = {spec.name: spec.filter for spec in scenario.clients if spec.filter}
    failures = []
    audited = 0
    for run in runs:
        for time_ms, sid, group_id in run.gated_deliveries:
            audited += 1
            for code in filtered[sid]:
                when = run.approved_at.get((group_id, code))
                if when is None or when > time_ms:
                    failures.append(
                        f"run {run.index} {sid} group {group_id}: "
                        f"category {category_name(code).lower()} not approved at delivery"
                    )
    return _check_result(
        "approval_audit", "", failures, f"{audited} gated deliveries fully approved at delivery time"
    )


def _check_realtime(scenario: Scenario, runs: list[_RunResult]) -> dict:
    gop = float(scenario.source.gop_duration_ms)
    failures = []
    for spec in scenario.clients:
        if spec.analyze and spec.analysis_time_ms >= gop:
            failures.append(
                f"{spec.name}: analysis {spec.analysis_time_ms} ms >= group {gop} ms"
            )
    for run in runs:
        for spec in scenario.clients:
            if not spec.analyze:
                continue
            by_group = {r.group_id: r for r in run.records[spec.name]}
            for time_ms, group_id, _ in run.approvals_sent[spec.name]:
                record = by_group[group_id]
                expected = record.complete_arrival_ms + spec.analysis_time_ms
                if abs(time_ms - expected) > 1e-6:
                    failures.append(
                        f"run {run.index} {spec.name} group {group_id}: approval at "
                        f"{time_ms} ms, expected {expected} ms"
                    )
    return _check_result(
        "realtime_analysis",
        "",
        sorted(set(failures)),
        "analysis fits inside one group and approvals left on schedule",
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _run_to_dict(scenario: Scenario, run: _RunResult, n_groups: int) -> dict:
    epoch = scenario.publish_epoch_ms
    gop = float(scenario.source.gop_duration_ms)
    reference = next((s.name for s in scenario.clients if s.analyze), None)

    records_out: dict[str, list[RecordRow]] = {}
    delivered_out: dict[str, list[int]] = {}
    skipped_out: dict[str, list[int]] = {}
    playback_out: dict[str, dict] = {}
    bounds_out: dict[str, dict] = {}
    ref_records = (
        {r.group_id: r for r in run.records[reference]} if reference is not None else {}
    )
    for spec in scenario.clients:
        rows = []
        for record in run.records[spec.name]:
            added = None
            if spec.filter and reference is not None:
                ref = ref_records.get(record.group_id)
                if ref is not None:
                    added = record.first_arrival_ms - ref.first_arrival_ms
            rows.append(
                RecordRow(
                    group_id=record.group_id,
                    first_arrival_ms=record.first_arrival_ms,
                    complete_arrival_ms=record.complete_arrival_ms,
                    frame_count=record.frame_count,
                    e2e_ms=record.complete_arrival_ms - (epoch + record.group_id * gop),
                    added_ms=added,
                )
            )
        records_out[spec.name] = rows
        delivered_out[spec.name] = [row.group_id for row in rows]
        skipped_out[spec.name] = sorted(set(range(n_groups)) - set(delivered_out[spec.name]))
        stats = compute_playback(
            run.records[spec.name], gop, scenario.playback_buffer_groups * gop
        )
        playback_out[spec.name] = {
            "start_ms": stats.start_ms,
            "stalls": [[due, gap] for due, gap in stats.stalls],
            "total_stall_ms": stats.total_stall_ms,
        }
        if spec.filter:
            e2es = [row.e2e_ms for row in rows]
            addeds = [row.added_ms for row in rows if row.added_ms is not None]
            bounds_out[spec.name] = {
                "predicted_ms": _bound_for(scenario, spec, run.links),
                "max_observed_e2e_ms": max(e2es) if e2es else None,
                "max_added_ms": max(addeds) if addeds else None,
            }

    faults = {"faults": run.faults} if run.faults else {}
    return {
        "run": run.index,
        "links": {
            "publisher": dataclasses.asdict(run.links["publisher"]),
            "clients": {
                spec.name: dataclasses.asdict(run.links[spec.name]) for spec in scenario.clients
            },
        },
        "records": records_out,
        "delivered": delivered_out,
        "skipped": skipped_out,
        "approvals": {
            name: [[gid, cats] for _, gid, cats in sent] for name, sent in run.approvals_sent.items()
        },
        "playback": playback_out,
        "bounds": bounds_out,
        "end_time_ms": run.end_time_ms,
        **faults,
    }


def _build_report(
    scenario: Scenario,
    runs: list[_RunResult],
    n_groups: int,
    timed_out: bool,
) -> Report:
    """The report of ``runs``.  A run that timed out is checked as far as it
    got, so its failed checks say what it had not done; such a report never
    passes."""
    report_runs = [_run_to_dict(scenario, run, n_groups) for run in runs]
    checks: list[dict] = []
    if scenario.checks.added_latency_band_ms is not None:
        checks.append(_check_added_band(scenario, report_runs))
    checks.append(_check_latency_bound(report_runs))
    checks.append(_check_gating_safety(scenario, runs, report_runs, n_groups))
    checks.append(_check_approval_audit(scenario, runs))
    checks.append(_check_realtime(scenario, runs))
    data = {
        "scenario": scenario.name,
        "track": scenario.track,
        "seed": scenario.seed,
        "n_groups": n_groups,
        "gop_duration_ms": scenario.source.gop_duration_ms,
        "publish_epoch_ms": scenario.publish_epoch_ms,
        "client_order": [spec.name for spec in scenario.clients],
        "clients": {
            spec.name: {
                "analyze": [category_name(c).lower() for c in spec.analyze],
                "filter": [category_name(c).lower() for c in spec.filter],
                "analysis_time_ms": spec.analysis_time_ms,
            }
            for spec in scenario.clients
        },
        "runs": report_runs,
        "checks": checks,
        "timeout": timed_out,
        "passed": all(c["passed"] for c in checks) and not timed_out,
    }
    return Report(data)


def run_scenario(scenario: Scenario) -> Report:
    """Simulate the scenario (once, or once per delay draw) and check it.

    Raises :class:`ScenarioTimeoutError` carrying the partial report, and
    naming the budget, if a run exhausts its virtual-time or event budget.
    """
    # Rendered once and shared by every run.  Each run's publisher empties
    # the list it is given as it sends, so a single run hands over this one
    # and each delay draw gets a shallow copy.
    publication = generate_groups(scenario.source, scenario.track)
    n_groups = len(publication)
    runs: list[_RunResult] = []
    if scenario.delay_draws is None:
        runs.append(_run_once(scenario, publication, _base_links(scenario), 0))
    else:
        rng = random.Random(derive_seed("delay_draws", str(scenario.delay_draws.seed)))
        for index in range(scenario.delay_draws.count):
            links = _drawn_links(scenario, rng)
            runs.append(_run_once(scenario, publication.copy(), links, index))
            if runs[-1].timeout:
                break
    timeout = runs[-1].timeout  # only the last run can have stopped early
    report = _build_report(scenario, runs, n_groups, bool(timeout))
    if timeout:
        raise ScenarioTimeoutError(f"scenario {scenario.name!r} stopped early: {timeout}", report)
    return report
