"""Structured, time-stamped event recording for relay and clients."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

__all__ = ["Event", "EventLog"]


class Event(NamedTuple):
    time_ms: float
    source: str
    kind: str
    detail: dict


@dataclass
class EventLog:
    """Append-only log; ``clock`` supplies the timestamp for each emit.

    Events are per group, session or control message (a refused publish,
    per chunk), so a log grows with a run's groups and clients, not its
    frame rate.  The harness scans each run's log once, when the run ends,
    keeps only the facts its checks read and drops the log with the run.
    """

    clock: Callable[[], float] = lambda: 0.0
    events: list[Event] = field(default_factory=list)

    def emit(self, source: str, kind: str, **detail: object) -> Event:
        event = Event(self.clock(), source, kind, detail)
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
