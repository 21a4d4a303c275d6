"""Scenario model, loader and bundled scenarios.

A scenario (JSON) describes one publisher, a relay, and a set of clients
with per-link delays.  :func:`scenario_from_dict` checks every key, type
and bound against the field tables below and returns a frozen
:class:`Scenario`; :func:`load_scenario` reads one from a UTF-8 file, and
the bundled scenarios are found by name.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .analysis import STUB_CATEGORIES, StrobeConfig
from .media import Constant, Ramp, SourceConfig, Strobe
from .wire import CATEGORIES, category_code, category_name

__all__ = [
    "Checks", "ClientSpec", "DelayDraws", "LinkSpec", "Scenario", "ScenarioError",
    "bundled_scenario_names", "bundled_scenario_path", "load_scenario", "scenario_from_dict",
]


class ScenarioError(ValueError):
    """A scenario file is malformed or internally inconsistent."""


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
    rejected_stubs: frozenset[int] = frozenset()  # the stubs set false in "stub_verdicts"
    checks: Checks = Checks()
    delay_draws: DelayDraws | None = None

    @functools.cached_property
    def analyzers(self) -> dict[int, tuple[ClientSpec, ...]]:
        """Each category's analyzers, in client order: indexed once per scenario."""
        return {code: tuple(s for s in self.clients if code in s.analyze) for code in CATEGORIES}


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
        if code not in CATEGORIES:
            raise ScenarioError(f"{where}: unsupported category {value!r}")
        if code in codes:
            raise ScenarioError(f"{where}: duplicate category {value!r}")
        codes.append(code)
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


# Ranges are SourceConfig's own checks; the tables check types.
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
    values = _fields(data, _SOURCE_FIELDS, where)
    try:
        return SourceConfig(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_stub_verdicts(data: Any, where: str) -> frozenset[int]:
    """The stub categories the scenario rejects."""
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{where}: expected an object")
    rejected = set()
    for key, value in data.items():
        try:
            code = category_code(key)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        if code not in STUB_CATEGORIES:
            raise ScenarioError(f"{where}: {key!r} has a real detector, not a stub")
        if not isinstance(value, bool):
            raise ScenarioError(f"{where}.{key}: expected true/false")
        if not value:
            rejected.add(code)
    return frozenset(rejected)


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

    fields["rejected_stubs"] = fields.pop("stub_verdicts", frozenset())
    return Scenario(publisher_link=links["publisher"], clients=tuple(specs), **fields)


def load_scenario(path: Any) -> Scenario:
    """Read a scenario from a UTF-8 JSON file (path or importlib
    traversable), whatever the locale."""
    try:
        raw = path.read_bytes() if hasattr(path, "read_bytes") else Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an integer too long
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
