"""Scenario-driven end-to-end harness.

A scenario (JSON) describes one publisher, a relay, and a set of clients
with per-link delays.  ``run_scenario`` replays it on the simulated network
and produces a :class:`Report` with per-group latency records, delivery and
skip lists, playback stall analysis, latency-bound comparisons, and a list
of named pass/fail checks.  Reports are deterministic: the same scenario
always renders to byte-identical JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import sys
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Mapping

from .analysis import StrobeConfig, predict_risky_groups
from .client import (
    STUB_CATEGORIES,
    AnalyzerClient,
    EncodedGroup,
    LatencyModel,
    LatencyRecord,
    PublisherClient,
    SubscriberClient,
    compute_playback,
    encode_publication,
    predict_latency_bound,
)
from .eventlog import EventLog
from .media import Constant, Ramp, SourceConfig, Strobe, generate_groups
from .relay import DEFAULT_CAPABILITIES, RelayServer
from .transport import Link, SimNetwork, SimTimeoutError, derive_seed
from .wire import Category, category_code, category_name

__all__ = [
    "ClientSpec",
    "DelayDraws",
    "LinkSpec",
    "Report",
    "Scenario",
    "ScenarioError",
    "ScenarioTimeoutError",
    "bundled_scenario_names",
    "bundled_scenario_path",
    "load_scenario",
    "predict_bounds",
    "run_scenario",
    "scenario_from_dict",
]

#: Tolerance when comparing measured latencies against the predicted bound.
BOUND_EPSILON_MS = 2.0


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


class ScenarioTimeoutError(RuntimeError):
    """The virtual-time budget ran out; carries the partial report."""

    def __init__(self, message: str, report: "Report") -> None:
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkSpec:
    to_relay_ms: float = 0.0
    from_relay_ms: float = 0.0
    jitter_ms: float = 0.0


@dataclass(frozen=True)
class ClientSpec:
    name: str
    analyze: tuple[int, ...] = ()
    filter: tuple[int, ...] = ()
    analysis_time_ms: float = 0.0
    detector: StrobeConfig = StrobeConfig()
    link: LinkSpec = LinkSpec()


@dataclass(frozen=True)
class DelayDraws:
    count: int
    seed: int
    min_ms: int
    max_ms: int


@dataclass(frozen=True)
class Checks:
    added_latency_band_ms: tuple[float, float] | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    track: str
    source: SourceConfig
    publisher_link: LinkSpec
    clients: tuple[ClientSpec, ...]
    seed: int = 0
    publish_epoch_ms: float = 0.0
    duration_ms: float = 600_000.0
    retention_groups: int = 64
    playback_buffer_groups: float = 1.0
    stub_verdicts: tuple[tuple[int, bool], ...] = ()
    checks: Checks = Checks()
    delay_draws: DelayDraws | None = None

    def stub_verdict(self, category: int) -> bool:
        for code, verdict in self.stub_verdicts:
            if code == category:
                return verdict
        return True


# ---------------------------------------------------------------------------
# loading / validation
# ---------------------------------------------------------------------------


def _fields(data: Any, table: Mapping[str, tuple], where: str) -> dict[str, Any]:
    """Check an object against its field table; return its checked values.

    A table maps key -> (kind, minimum, required).  Kind int is an integer,
    float any number (stored as float), both within the float range; str is
    a non-empty string, a function parses the nested value from (value,
    where), and None hands the value to the caller.  An absent optional key
    is left out, so it takes the dataclass default.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - set(table)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {key for key, (_, _, required) in table.items() if required} - set(data)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")
    return {
        key: _value(data[key], kind, minimum, f"{where}.{key}")
        for key, (kind, minimum, _) in table.items()
        if key in data
    }


def _value(value: Any, kind: Any, minimum: Any, where: str) -> Any:
    if kind is None:
        return value
    if kind is str:
        if not isinstance(value, str) or not value:
            raise ScenarioError(f"{where}: expected a non-empty string")
        return value
    if kind not in (int, float):
        return kind(value, where)
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{where}: expected {expected}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if kind is float else value


_LINK_FIELDS = dict.fromkeys(("to_relay_ms", "from_relay_ms", "jitter_ms"), (float, 0.0, False))


def _parse_link(data: Any, where: str) -> LinkSpec:
    return LinkSpec(**_fields(data, _LINK_FIELDS, where))


_LINKS_FIELDS = {"publisher": (_parse_link, None, True), "clients": (None, None, True)}


def _parse_categories(values: Any, where: str) -> tuple[int, ...]:
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{where}: expected a non-empty list of category names")
    codes: list[int] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise ScenarioError(f"{where}: expected a category name or code, got {value!r}")
        try:
            code = category_code(value)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        if code not in DEFAULT_CAPABILITIES:
            raise ScenarioError(f"{where}: unsupported category {value!r}")
        if code in codes:
            raise ScenarioError(f"{where}: duplicate category {value!r}")
        codes.append(int(code))
    return tuple(codes)


# Ranges are StrobeConfig's own checks; the table checks types.
_DETECTOR_FIELDS = {
    "grid_dim": (int, None, False),
    "pixel_delta_threshold": (int, None, False),
    "changed_fraction_threshold": (float, None, False),
    "max_interchange_gap_ms": (int, None, False),
}


def _parse_detector(base: StrobeConfig, overrides: Any, where: str) -> StrobeConfig:
    values = _fields(overrides, _DETECTOR_FIELDS, where)
    try:
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


# Ranges are SourceConfig.validate's; the tables check types.
_SEGMENT_KINDS = {
    "constant": (Constant, dict.fromkeys(("level", "duration_ms"), (int, None, True))),
    "strobe": (
        Strobe,
        {**dict.fromkeys(("low", "high", "duration_ms"), (int, None, True)), "flash_hz": (float, None, True)},
    ),
    "ramp": (Ramp, dict.fromkeys(("start_level", "end_level", "duration_ms"), (int, None, True))),
}


def _parse_segments(data: Any, where: str) -> tuple:
    if not isinstance(data, list) or not data:
        raise ScenarioError(f"{where}: expected a non-empty list")
    parsed = []
    for i, seg in enumerate(data):
        seg_where = f"{where}[{i}]"
        if not isinstance(seg, Mapping) or "kind" not in seg:
            raise ScenarioError(f"{seg_where}: expected an object with a 'kind'")
        kind = seg["kind"]
        if not isinstance(kind, str) or kind not in _SEGMENT_KINDS:
            raise ScenarioError(f"{seg_where}: unknown segment kind {kind!r}")
        cls, table = _SEGMENT_KINDS[kind]
        values = _fields(seg, {"kind": (None, None, True), **table}, seg_where)
        del values["kind"]
        parsed.append(cls(**values))
    return tuple(parsed)


_SOURCE_FIELDS = {
    **dict.fromkeys(("width", "height", "fps", "gop_duration_ms"), (int, 1, True)),
    "segments": (_parse_segments, None, True),
}


def _parse_source(data: Any, where: str) -> SourceConfig:
    source = SourceConfig(**_fields(data, _SOURCE_FIELDS, where))
    try:
        source.validate()
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return source


def _parse_stub_verdicts(data: Any, where: str) -> tuple[tuple[int, bool], ...]:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    pairs: list[tuple[int, bool]] = []
    for key, value in data.items():
        try:
            code = category_code(key)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        if code not in STUB_CATEGORIES:
            raise ScenarioError(f"{where}: {key!r} has a real detector, not a stub")
        if not isinstance(value, bool):
            raise ScenarioError(f"{where}.{key}: expected true/false")
        pairs.append((int(code), value))
    return tuple(pairs)


def _parse_band(data: Any, where: str) -> tuple[float, float]:
    if not isinstance(data, list) or len(data) != 2:
        raise ScenarioError(f"{where}: expected [low, high]")
    low, high = (_value(v, float, None, f"{where}[{i}]") for i, v in enumerate(data))
    if low > high:
        raise ScenarioError(f"{where}: low > high")
    return low, high


def _parse_checks(data: Any, where: str) -> Checks:
    return Checks(**_fields(data, {"added_latency_band_ms": (_parse_band, None, False)}, where))


_DELAY_DRAWS_FIELDS = {
    "count": (int, 1, True), "seed": (int, None, True), "min_ms": (int, 0, True), "max_ms": (int, 0, True)
}


def _parse_delay_draws(data: Any, where: str) -> DelayDraws:
    draws = DelayDraws(**_fields(data, _DELAY_DRAWS_FIELDS, where))
    if draws.min_ms > draws.max_ms:
        raise ScenarioError(f"{where}: min_ms > max_ms")
    return draws


_CLIENT_FIELDS = {
    "name": (str, None, True),
    "analyze": (_parse_categories, None, False),
    "filter": (_parse_categories, None, False),
    "analysis_time_ms": (float, 0.0, False),
    "detector": (None, None, False),
}

_SCENARIO_FIELDS = {
    "name": (str, None, True),
    "track": (str, None, True),
    "source": (_parse_source, None, True),
    "links": (None, None, True),
    "clients": (None, None, True),
    "detector": (None, None, False),
    "seed": (int, None, False),
    "publish_epoch_ms": (float, 0.0, False),
    "duration_ms": (float, 1.0, False),
    "retention_groups": (int, 1, False),
    "playback_buffer_groups": (float, 0.0, False),
    "stub_verdicts": (_parse_stub_verdicts, None, False),
    "checks": (_parse_checks, None, False),
    "delay_draws": (_parse_delay_draws, None, False),
}


def scenario_from_dict(data: Mapping) -> Scenario:
    fields = _fields(data, _SCENARIO_FIELDS, "scenario")
    source = fields["source"]
    base_detector = _parse_detector(StrobeConfig(), fields.pop("detector", {}), "scenario.detector")
    links = _fields(fields.pop("links"), _LINKS_FIELDS, "scenario.links")
    client_links = links["clients"]
    if not isinstance(client_links, Mapping):
        raise ScenarioError("scenario.links.clients: expected an object")
    raw_clients = fields.pop("clients")
    if not isinstance(raw_clients, list) or not raw_clients:
        raise ScenarioError("scenario.clients: expected a non-empty list")

    specs: list[ClientSpec] = []
    for i, raw in enumerate(raw_clients):
        where = f"scenario.clients[{i}]"
        client = _fields(raw, _CLIENT_FIELDS, where)
        name = client["name"]
        if name in ("publisher", "relay") or any(spec.name == name for spec in specs):
            raise ScenarioError(f"{where}: duplicate or reserved client name {name!r}")
        if "analyze" in client and "filter" in client:
            raise ScenarioError(f"{where}: a client cannot both analyze and filter")
        if "analyze" not in client and "analysis_time_ms" in client:
            raise ScenarioError(f"{where}: analysis_time_ms only applies to analyzers")
        if "analyze" not in client and "detector" in client:
            raise ScenarioError(f"{where}: detector overrides only apply to analyzers")
        detector = _parse_detector(base_detector, client.pop("detector", {}), f"{where}.detector")
        if "analyze" in client and detector.grid_dim > min(source.width, source.height):
            raise ScenarioError(
                f"{where}.detector: grid_dim {detector.grid_dim} exceeds frame dimensions "
                f"{source.width}x{source.height}"
            )
        if name not in client_links:
            raise ScenarioError(f"scenario.links.clients: no link for client {name!r}")
        link = _parse_link(client_links[name], f"scenario.links.clients.{name}")
        specs.append(ClientSpec(detector=detector, link=link, **client))

    extra_links = set(client_links) - {spec.name for spec in specs}
    if extra_links:
        raise ScenarioError(f"scenario.links.clients: links for unknown clients {sorted(extra_links)}")

    analyzed_codes = {code for spec in specs for code in spec.analyze}
    problems = []
    for spec in specs:
        missing = [category_name(c).lower() for c in spec.filter if c not in analyzed_codes]
        if missing:
            problems.append(f"client {spec.name!r}: no analyzer covers {', '.join(missing)}")
    if problems:
        raise ScenarioError("; ".join(problems))

    return Scenario(publisher_link=links["publisher"], clients=tuple(specs), **fields)


def load_scenario(path: Any) -> Scenario:
    """Read a scenario from a JSON file (path or importlib traversable)."""
    try:
        text = path.read_text() if hasattr(path, "read_text") else Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


def bundled_scenario_names() -> list[str]:
    root = resources.files("moqgate").joinpath("scenarios")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_path(name: str):
    path = resources.files("moqgate").joinpath("scenarios", f"{name}.json")
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario named {name!r}; available: {', '.join(bundled_scenario_names())}"
        )
    return path


# ---------------------------------------------------------------------------
# latency bound
# ---------------------------------------------------------------------------


def _bound_for(scenario: Scenario, spec: ClientSpec, links: Mapping[str, LinkSpec]) -> float:
    """The client's latency bound: the run's links fed to LatencyModel."""
    covering = [a for a in scenario.clients if set(a.analyze) & set(spec.filter)]
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
    return {
        spec.name: _bound_for(scenario, spec, links)
        for spec in scenario.clients
        if spec.filter
    }


def _base_links(scenario: Scenario) -> dict[str, LinkSpec]:
    links = {"publisher": scenario.publisher_link}
    for spec in scenario.clients:
        links[spec.name] = spec.link
    return links


def _drawn_links(scenario: Scenario, rng: random.Random) -> dict[str, LinkSpec]:
    """Replace every base delay with an integer draw; jitter is kept."""
    draws = scenario.delay_draws
    assert draws is not None

    def draw() -> float:
        return float(rng.randint(draws.min_ms, draws.max_ms))

    links = {
        "publisher": LinkSpec(draw(), draw(), scenario.publisher_link.jitter_ms)
    }
    for spec in scenario.clients:
        links[spec.name] = LinkSpec(draw(), draw(), spec.link.jitter_ms)
    return links


# ---------------------------------------------------------------------------
# single run
# ---------------------------------------------------------------------------


@dataclass
class _RunResult:
    """One run's records plus the facts its checks read from the event log."""

    index: int
    links: dict[str, LinkSpec]
    records: dict[str, list[LatencyRecord]]
    approvals_sent: dict[str, list[tuple[float, int, list[int]]]]  # (time, group, categories)
    approved_at: dict[tuple[int, int], float]  # (group, category) -> first approve_recorded
    gated_deliveries: list[tuple[float, str, int]]  # (time, filtered client, group)
    protocol_errors: list[tuple[str, str]]  # (session the relay failed, reason)
    end_time_ms: float
    timed_out: bool = False


def _run_once(
    scenario: Scenario,
    publication: list[EncodedGroup],
    links: Mapping[str, LinkSpec],
    index: int,
) -> _RunResult:
    net = SimNetwork()
    log = EventLog(lambda: net.now)
    server = RelayServer(net, scenario.retention_groups, log)

    def make_link(spec: LinkSpec, name: str) -> Link:
        return Link(
            delay_ms=spec.to_relay_ms,
            reverse_delay_ms=spec.from_relay_ms,
            jitter_ms=spec.jitter_ms,
            seed=derive_seed(str(scenario.seed), "run", str(index), "link", name),
        )

    pub_session, relay_pub = net.connect(
        make_link(links["publisher"], "publisher"), "publisher", "relay"
    )
    server.attach("publisher", relay_pub)

    clients: dict[str, AnalyzerClient | SubscriberClient] = {}
    for sub_id, spec in enumerate(scenario.clients, start=1):
        client_session, relay_session = net.connect(
            make_link(links[spec.name], spec.name), spec.name, "relay"
        )
        server.attach(spec.name, relay_session)
        if spec.analyze:
            client: AnalyzerClient | SubscriberClient = AnalyzerClient(
                net,
                client_session,
                scenario.track,
                spec.analyze,
                sub_id,
                detector=spec.detector,
                rejecting_stubs=[code for code, approve in scenario.stub_verdicts if not approve],
                analysis_time_ms=spec.analysis_time_ms,
                log=log,
                name=spec.name,
            )
        else:
            client = SubscriberClient(
                net,
                client_session,
                scenario.track,
                sub_id,
                filter_categories=spec.filter or None,
                log=log,
                name=spec.name,
            )
        client.start()
        clients[spec.name] = client

    publisher = PublisherClient(
        net,
        pub_session,
        publication,
        epoch_ms=scenario.publish_epoch_ms,
        log=log,
        name="publisher",
    )
    publisher.start()

    timed_out = False
    try:
        end_time = net.run_until_idle(max_virtual_ms=scenario.duration_ms)
    except SimTimeoutError:
        timed_out = True
        end_time = net.now
    finally:
        net.shutdown()

    records: dict[str, list[LatencyRecord]] = {}
    for spec in scenario.clients:
        client = clients[spec.name]
        if isinstance(client, AnalyzerClient):
            records[spec.name] = sorted(client.records, key=lambda r: r.group_id)
        else:
            records[spec.name] = client.records

    # The one pass over the log; the log itself is freed with the run.
    sent: dict[str, list[tuple[float, int, list[int]]]] = {
        spec.name: [] for spec in scenario.clients if spec.analyze
    }
    approved_at: dict[tuple[int, int], float] = {}
    gated: list[tuple[float, str, int]] = []
    errors: list[tuple[str, str]] = []
    filtered = {spec.name for spec in scenario.clients if spec.filter}
    for time_ms, source, kind, detail in log.events:
        if kind == "approve_sent":
            sent[source].append((time_ms, detail["group_id"], detail["categories"]))
        elif kind == "approve_recorded":
            for code in detail["categories"]:
                approved_at.setdefault((detail["group_id"], code), time_ms)
        elif kind == "group_delivered" and detail["sid"] in filtered:
            gated.append((time_ms, detail["sid"], detail["group_id"]))
        elif kind == "protocol_error":
            errors.append((detail["sid"], detail["reason"]))
    return _RunResult(index, dict(links), records, sent, approved_at, gated, errors, end_time, timed_out)


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
            covering = [a for a in scenario.clients if code in a.analyze]
            if code == Category.STROBE:
                # blocked only if every covering analyzer flags the group
                risky_sets = [risky(a.detector) for a in covering]
                per_cat = set.intersection(*risky_sets) if risky_sets else set()
            else:
                per_cat = set(range(n_groups)) if not scenario.stub_verdict(code) else set()
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
                added = record["added_ms"]
                samples += 1
                if added is None or not (low <= added <= high):
                    failures.append(
                        f"run {run['run']} {spec.name} group {record['group_id']}: {added}"
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
                if record["e2e_ms"] > predicted + BOUND_EPSILON_MS:
                    failures.append(
                        f"run {run['run']} {name} group {record['group_id']}: "
                        f"{record['e2e_ms']} ms > bound {predicted} + {BOUND_EPSILON_MS}"
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
            for sid, reason in run.protocol_errors:
                failures.append(f"run {run.index} relay failed {sid}: {reason}")
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
                record = by_group.get(group_id)
                if record is None:
                    continue
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
# report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    data: dict

    @property
    def passed(self) -> bool:
        return bool(self.data.get("passed"))

    def to_json(self) -> str:
        """The report as ``json.dumps(data, sort_keys=True, indent=2)``
        writes it, plus a final newline."""
        out: list[str] = []
        _write_json(self.data, out, "\n")
        out.append("\n")
        return "".join(out)

    def to_csv(self) -> str:
        n_groups = self.data["n_groups"]
        lines = [
            "run,client,group_id,status,first_arrival_ms,complete_arrival_ms,"
            "frame_count,e2e_ms,added_ms"
        ]
        for run in self.data["runs"]:
            for client in self.data["client_order"]:
                by_group = {r["group_id"]: r for r in run["records"][client]}
                for gid in range(n_groups):
                    record = by_group.get(gid)
                    if record is None:
                        lines.append(f"{run['run']},{client},{gid},skipped,,,,,")
                        continue
                    added = "" if record["added_ms"] is None else record["added_ms"]
                    lines.append(
                        f"{run['run']},{client},{gid},delivered,{record['first_arrival_ms']},"
                        f"{record['complete_arrival_ms']},{record['frame_count']},"
                        f"{record['e2e_ms']},{added}"
                    )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        data = self.data
        lines = [
            f"scenario: {data['scenario']}",
            f"groups: {data['n_groups']}  gop: {data['gop_duration_ms']} ms  "
            f"runs: {len(data['runs'])}",
        ]
        for name in data["client_order"]:
            roles = data["clients"][name]
            if roles["analyze"]:
                desc = "analyze " + ",".join(roles["analyze"])
            elif roles["filter"]:
                desc = "filter " + ",".join(roles["filter"])
            else:
                desc = "plain"
            lines.append(f"client {name}: {desc}")
        for run in data["runs"]:
            for name in data["client_order"]:
                got = len(run["delivered"][name])
                skipped = len(run["skipped"][name])
                stalls = run["playback"][name]["total_stall_ms"]
                lines.append(
                    f"run {run['run']} {name}: delivered {got}/{data['n_groups']}"
                    f" skipped {skipped} stalled {stalls} ms"
                )
            for name, bounds in sorted(run["bounds"].items()):
                lines.append(
                    f"run {run['run']} {name}: bound {bounds['predicted_ms']} ms,"
                    f" worst observed {bounds['max_observed_e2e_ms']} ms"
                )
        lines.append("checks:")
        for check in data["checks"]:
            tag = "PASS" if check["passed"] else "FAIL"
            lines.append(f"[{tag}] {check['name']}: {check['detail']}")
        if data.get("timeout"):
            lines.append("WARNING: virtual-time budget exhausted; report is partial")
        lines.append("RESULT: " + ("PASSED" if data["passed"] else "FAILED"))
        return "\n".join(lines) + "\n"


#: ``float.__repr__`` of the values JSON has no literal for -> what ``json`` writes.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


#: Exact type -> its JSON text, for the scalars reports hold.
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value: Any, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, sort_keys=True,
    indent=2)`` writes it; ``newline`` is a line break plus the current
    indentation.  Exact scalar types take the fast path; anything else is
    matched in ``json.encoder``'s isinstance order, so subclasses
    (``Category``) print as ``json`` prints them.  Keys must be strings
    (``TypeError`` otherwise).  A container's scalar items are written with
    their separators as one string each: the pieces joined at the end are
    what the writer's peak memory is made of."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        _write_json_list(value, out, newline)
    elif isinstance(value, dict):
        _write_json_dict(value, out, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json_list(value: list | tuple, out: list[str], newline: str) -> None:
    if not value:
        out.append("[]")
        return
    inner = newline + "  "
    separator = "[" + inner
    for item in value:
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is not None:
            out.append(separator + scalar(item))
        else:
            out.append(separator)
            _write_json(item, out, inner)
        separator = "," + inner
    out.append(newline + "]")


def _write_json_dict(value: dict, out: list[str], newline: str) -> None:
    if not value:
        out.append("{}")
        return
    inner = newline + "  "
    separator = "{" + inner
    for key, item in sorted(value.items()):
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is not None:
            out.append(separator + _quote(key) + ": " + scalar(item))
        else:
            out.append(separator + _quote(key) + ": ")
            _write_json(item, out, inner)
        separator = "," + inner
    out.append(newline + "}")


def _run_to_dict(scenario: Scenario, run: _RunResult, n_groups: int) -> dict:
    epoch = scenario.publish_epoch_ms
    gop = float(scenario.source.gop_duration_ms)
    reference = next((s.name for s in scenario.clients if s.analyze), None)

    records_out: dict[str, list[dict]] = {}
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
                {
                    "group_id": record.group_id,
                    "first_arrival_ms": record.first_arrival_ms,
                    "complete_arrival_ms": record.complete_arrival_ms,
                    "frame_count": record.frame_count,
                    "e2e_ms": record.complete_arrival_ms - (epoch + record.group_id * gop),
                    "added_ms": added,
                }
            )
        records_out[spec.name] = rows
        delivered_out[spec.name] = [row["group_id"] for row in rows]
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
            e2es = [row["e2e_ms"] for row in rows]
            addeds = [row["added_ms"] for row in rows if row["added_ms"] is not None]
            bounds_out[spec.name] = {
                "predicted_ms": _bound_for(scenario, spec, run.links),
                "max_observed_e2e_ms": max(e2es) if e2es else None,
                "max_added_ms": max(addeds) if addeds else None,
            }

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
    }


def _build_report(
    scenario: Scenario,
    runs: list[_RunResult],
    n_groups: int,
    timed_out: bool,
) -> Report:
    report_runs = [_run_to_dict(scenario, run, n_groups) for run in runs]
    checks: list[dict] = []
    if not timed_out:
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
        "passed": bool(checks) and all(c["passed"] for c in checks) and not timed_out,
    }
    return Report(data)


def run_scenario(scenario: Scenario) -> Report:
    """Simulate the scenario (once, or once per delay draw) and check it.

    Raises :class:`ScenarioTimeoutError` carrying the partial report if the
    virtual-time budget is exhausted.
    """
    # Encoded once and shared by every run; the frames are not kept.
    publication = encode_publication(scenario.track, generate_groups(scenario.source))
    n_groups = len(publication)
    runs: list[_RunResult] = []
    if scenario.delay_draws is None:
        runs.append(_run_once(scenario, publication, _base_links(scenario), 0))
    else:
        rng = random.Random(derive_seed("delay_draws", str(scenario.delay_draws.seed)))
        for index in range(scenario.delay_draws.count):
            links = _drawn_links(scenario, rng)
            runs.append(_run_once(scenario, publication, links, index))
            if runs[-1].timed_out:
                break
    timed_out = any(run.timed_out for run in runs)
    report = _build_report(scenario, runs, n_groups, timed_out)
    if timed_out:
        raise ScenarioTimeoutError(
            f"scenario {scenario.name!r} exceeded its {scenario.duration_ms} ms budget",
            report,
        )
    return report
