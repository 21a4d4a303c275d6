"""Run reports: :class:`Report`, its :class:`RecordRow` and its JSON, CSV
and text writers.

A report is the dict a run assembles: plain dicts, lists and scalars,
except that each per-group latency record is a :class:`RecordRow`, a
slotted read-only mapping that the writers print as ``json`` prints the
equal dict.  This module only renders reports and depends on no other
module of the package.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

__all__ = ["RecordRow", "Report"]


class RecordRow(Mapping):
    """One group's latency record at one client, as a report holds it.

    A read-only mapping of six keys, each held in a slot: 80 bytes against
    272 for a dict of them on CPython 3.11.  It reads and compares as the dict of the same
    items (``row["e2e_ms"]``, ``row == dict(row)``), iterates its keys in
    sorted order and prints in ``report.json`` as ``json.dumps`` prints
    ``dict(row)``.  ``added_ms`` is None where the record has no reference
    arrival to compare with.
    """

    __slots__ = (
        "added_ms",
        "complete_arrival_ms",
        "e2e_ms",
        "first_arrival_ms",
        "frame_count",
        "group_id",
    )

    def __init__(
        self,
        *,
        group_id: int,
        first_arrival_ms: float,
        complete_arrival_ms: float,
        frame_count: int,
        e2e_ms: float,
        added_ms: float | None,
    ) -> None:
        self.group_id = group_id
        self.first_arrival_ms = first_arrival_ms
        self.complete_arrival_ms = complete_arrival_ms
        self.frame_count = frame_count
        self.e2e_ms = e2e_ms
        self.added_ms = added_ms

    def __getitem__(self, key: str) -> Any:
        if key in _ROW_KEYS:
            return getattr(self, key)
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(RecordRow.__slots__)

    def __len__(self) -> int:
        return len(RecordRow.__slots__)

    def __repr__(self) -> str:
        return f"RecordRow({dict(self)!r})"


_ROW_KEYS = frozenset(RecordRow.__slots__)


@dataclass
class Report:
    data: dict

    @property
    def passed(self) -> bool:
        return bool(self.data.get("passed"))

    def to_json(self) -> str:
        """The report as ``json.dumps(data, sort_keys=True, indent=2)``
        writes it, plus a final newline, with each :class:`RecordRow`
        written as ``json.dumps`` writes ``dict(row)``.  Raises
        :class:`TypeError` unless ``data`` is a dict."""
        if not isinstance(self.data, dict):
            raise TypeError(f"a report is a dict, not {type(self.data).__name__}")
        out: list[str] = []
        _write_json_dict(self.data, out, "\n")
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
            for time_ms, source, kind, detail in run.get("faults", ()):
                facts = " ".join(f"{key}={value}" for key, value in detail.items())
                lines.append(f"run {run['run']} {source} {kind} at {time_ms} ms: {facts}")
        lines.append("checks:")
        for check in data["checks"]:
            tag = "PASS" if check["passed"] else "FAIL"
            lines.append(f"[{tag}] {check['name']}: {check['detail']}")
        if data.get("timeout"):
            lines.append("WARNING: a run exhausted its virtual-time or event budget; report is partial")
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
    indent=2)`` writes it, a :class:`RecordRow` as it writes ``dict(row)``;
    ``newline`` is a line break plus the current indentation.  Its callers
    write the exact scalar types themselves, and rows are found by exact
    type, not by ``isinstance``, which against an ABC costs more and fills
    its caches; anything else is matched in ``json.encoder``'s isinstance
    order, so subclasses (``Category``) print as ``json`` prints them.  Keys
    must be strings (``TypeError`` otherwise).  Each container is written
    into a list of its own and appended to ``out`` as one string once it is
    complete, so the pieces held at any moment are those of the containers
    still open: a whole report's peak is its finished text plus the final
    joined copy."""
    if type(value) is RecordRow:
        out.append(_row_text(value, newline))
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
    if set(map(type, value)) == {int}:  # exact ints only: no bool, no Category
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        return
    separator = "[" + inner
    local: list[str] = []
    for item in value:
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is not None:
            local.append(separator + scalar(item))
        elif type(item) is RecordRow:
            local.append(separator + _row_text(item, inner))
        else:
            local.append(separator)
            _write_json(item, local, inner)
        separator = "," + inner
    local.append(newline + "]")
    out.append("".join(local))


def _write_json_dict(value: dict, out: list[str], newline: str) -> None:
    if not value:
        out.append("{}")
        return
    inner = newline + "  "
    separator = "{" + inner
    local: list[str] = []
    for key, item in sorted(value.items()):
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is not None:
            local.append(separator + _quote(key) + ": " + scalar(item))
        else:
            local.append(separator + _quote(key) + ": ")
            _write_json(item, local, inner)
        separator = "," + inner
    local.append(newline + "}")
    out.append("".join(local))


def _item_text(value: Any, newline: str) -> str:
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    local: list[str] = []
    _write_json(value, local, newline)
    return "".join(local)


def _row_text(row: RecordRow, newline: str) -> str:
    """``row`` as ``json.dumps(dict(row), sort_keys=True, indent=2)``
    writes it at this depth: one template, its keys in sorted order.  A row
    of exact finite floats and exact ints, with ``added_ms`` None or an
    exact finite float, as the harness builds, is written in one f-string of
    the values' reprs, which are what ``json`` writes for them; any other
    row writes each value as :func:`_write_json` does."""
    i = newline + "  "
    added = row.added_ms
    first = row.first_arrival_ms
    complete = row.complete_arrival_ms
    e2e = row.e2e_ms
    group_id = row.group_id
    frame_count = row.frame_count
    # x * 0.0 is 0.0 only for a finite x (a sum that overflows takes the
    # general path, which writes it as well).
    if (
        type(first) is float
        and type(complete) is float
        and type(e2e) is float
        and type(group_id) is int
        and type(frame_count) is int
        and (first + complete + e2e) * 0.0 == 0.0
        and (added is None or type(added) is float and added * 0.0 == 0.0)
    ):
        added_text = "null" if added is None else f"{added!r}"
        return (
            f'{{{i}"added_ms": {added_text},'
            f'{i}"complete_arrival_ms": {complete!r},'
            f'{i}"e2e_ms": {e2e!r},'
            f'{i}"first_arrival_ms": {first!r},'
            f'{i}"frame_count": {frame_count!r},'
            f'{i}"group_id": {group_id!r}{newline}}}'
        )
    return (
        f'{{{i}"added_ms": {_item_text(added, i)},'
        f'{i}"complete_arrival_ms": {_item_text(complete, i)},'
        f'{i}"e2e_ms": {_item_text(e2e, i)},'
        f'{i}"first_arrival_ms": {_item_text(first, i)},'
        f'{i}"frame_count": {_item_text(frame_count, i)},'
        f'{i}"group_id": {_item_text(group_id, i)}{newline}}}'
    )
