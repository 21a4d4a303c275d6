"""Structured, time-stamped event recording for relay and clients."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

__all__ = ["Event", "EventLog"]


class Event(NamedTuple):
    time_ms: float
    source: str
    kind: str
    detail: dict


#: Takes one event of its kind as it is emitted: ``fold(time_ms, source, detail)``.
Fold = Callable[[float, str, dict], None]


@dataclass
class EventLog:
    """Append-only log; ``clock`` supplies the timestamp for each emit.

    Events are per group, session or control message (a refused publish,
    per chunk), so a log grows with a run's groups and clients, not its
    frame rate.

    A log built with ``folds`` keeps no events: each emit of a kind in
    ``folds`` goes straight to that kind's fold, and any other kind costs
    one dict lookup, with no clock read and no :class:`Event`.  The harness
    folds each run's log this way into the few facts its checks read.  A
    log built without ``folds`` keeps every event in ``events``.
    """

    clock: Callable[[], float] = lambda: 0.0
    events: list[Event] = field(default_factory=list)
    folds: Mapping[str, Fold] | None = None

    def emit(self, source: str, kind: str, **detail: object) -> None:
        folds = self.folds
        if folds is None:
            self.events.append(Event(self.clock(), source, kind, detail))
            return
        fold = folds.get(kind)
        if fold is not None:
            fold(self.clock(), source, detail)

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
