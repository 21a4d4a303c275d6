"""Structured, time-stamped event recording for relay and clients."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True)
class Event:
    time_ms: float
    source: str
    kind: str
    detail: dict


@dataclass
class EventLog:
    """Append-only log; ``clock`` supplies the timestamp for each emit."""

    clock: Callable[[], float] = lambda: 0.0
    events: list[Event] = field(default_factory=list)

    def emit(self, source: str, kind: str, **detail: object) -> Event:
        event = Event(self.clock(), source, kind, dict(detail))
        self.events.append(event)
        return event

    def filter(self, kind: str | None = None, source: str | None = None) -> list[Event]:
        return [
            e
            for e in self.events
            if (kind is None or e.kind == kind) and (source is None or e.source == source)
        ]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(
                {"time_ms": e.time_ms, "source": e.source, "kind": e.kind, **e.detail},
                sort_keys=True,
            )
            for e in self.events
        )
