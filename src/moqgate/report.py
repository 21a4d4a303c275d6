"""Run reports: :class:`Report` and its JSON, CSV and text writers.

A report is the plain dict a run assembles; this module only renders it
and depends on no other module of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

__all__ = ["Report"]


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
    (``TypeError`` otherwise).  Each container is written into a list of its
    own and appended to ``out`` as one string once it is complete, so the
    pieces held at any moment are those of the containers still open: a
    whole report's peak is its finished text plus the final joined copy."""
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
    local: list[str] = []
    for item in value:
        scalar = _SCALAR_TEXT.get(type(item))
        if scalar is not None:
            local.append(separator + scalar(item))
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
