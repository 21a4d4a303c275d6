"""Module layering: each module depends only on the interfaces it uses.

The relay and the clients keep time through ``transport.Clock``, use no
more of a clock than that protocol and never name the simulated network;
the relay's core names no transport type and its server keeps no session
roles; the relay and the clients import nothing from each other, and
share each group's parse through the framing layer's records; the report
writers depend on nothing else in the package, and the scenario loader on
neither the relay nor the clients.  Every
name a module imports is used there or exported through its ``__all__``,
every control message the codec carries is built by some module other
than the codec, and every event kind the package emits is one that a
scenario run's log folds.
"""

from __future__ import annotations

import ast
import importlib
import typing
from pathlib import Path

import pytest

import moqgate.harness
from moqgate import wire
from moqgate.eventlog import EventLog
from moqgate.scenario import bundled_scenario_path, load_scenario
from moqgate.transport import Clock

PACKAGE = Path(importlib.import_module("moqgate").__file__).parent


def _tree(module: str) -> ast.Module:
    path = Path(importlib.import_module(f"moqgate.{module}").__file__)
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(tree: ast.Module) -> set[str]:
    """Every identifier the module's code names: variables, attributes and
    imported names (docstrings and comments are not code)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for alias in node.names for name in (alias.name, alias.asname) if name)
    return names


@pytest.mark.parametrize("module", ["relay", "client"])
def test_relay_and_clients_name_no_simnetwork(module):
    assert "SimNetwork" not in _names(_tree(module))


def _clock_attributes(tree: ast.Module) -> set[str]:
    """Every attribute the module reads of ``clock`` or ``self.clock``."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id == "clock":
            read.add(node.attr)
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "clock"
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            read.add(node.attr)
    return read


def _clock_protocol() -> set[str]:
    return {name for name in vars(Clock) if not name.startswith("_")}


@pytest.mark.parametrize("module", ["relay", "client"])
def test_relay_and_clients_read_only_the_clock_protocol(module):
    read = _clock_attributes(_tree(module))
    assert read, "the check must see the module's clock"
    assert read <= _clock_protocol()


def test_clock_protocol_is_what_relay_and_clients_read():
    read = _clock_attributes(_tree("relay")) | _clock_attributes(_tree("client"))
    assert read == _clock_protocol() == {"now", "at"}


def _class(module: str, name: str) -> ast.ClassDef:
    (node,) = [n for n in _tree(module).body if isinstance(n, ast.ClassDef) and n.name == name]
    return node


def test_relay_core_names_no_transport_type():
    names = _names(ast.Module(body=[_class("relay", "RelayCore")], type_ignores=[]))
    assert not names & {"Session", "SendStream", "RecvStream", "open_stream"}


def test_relay_server_assigns_no_session_state_field():
    stored = [
        node.attr
        for node in ast.walk(_class("relay", "RelayServer"))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert stored, "the check must see the server's own assignments"
    assert not set(stored) & {"filter", "analyze", "next_deliver"}


def _imported_modules(module: str) -> list[str]:
    """Every module the module imports, relative ones with their dots."""
    imported = []
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module, other", [("relay", "client"), ("client", "relay")])
def test_relay_and_clients_import_nothing_from_each_other(module, other):
    """The relay and the receivers share each group's parse through a
    record of the framing layer, not through each other's code."""
    imported = {m.lstrip(".").removeprefix("moqgate.") for m in _imported_modules(module)}
    assert "framing" in imported, "the check must see the module's imports"
    assert other not in imported


def test_the_shared_parse_records_are_defined_in_framing():
    from moqgate import client, framing, relay

    for name in ("SharedParses", "GroupParse"):
        assert [n.name for n in _tree("framing").body if getattr(n, "name", None) == name] == [name]
        assert getattr(framing, name).__module__ == "moqgate.framing"
    assert relay.SharedParses is client.SharedParses is framing.SharedParses
    assert relay.GroupParse is client.GroupParse is framing.GroupParse


def test_report_imports_no_moqgate_module():
    imported = _imported_modules("report")
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "moqgate"]


def test_scenario_loader_imports_no_relay_or_client():
    """The loader reads category facts from ``wire`` and ``analysis``."""
    imported = {m.lstrip(".").removeprefix("moqgate.") for m in _imported_modules("scenario")}
    assert imported & {"analysis", "media", "wire"} == {"analysis", "media", "wire"}
    assert not imported & {"relay", "client", "harness", "transport", "framing"}


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")),
    ids=lambda path: path.stem,
)
def test_every_imported_name_is_used_or_exported(path):
    """An unused import, unless exported or marked ``# noqa: F401`` on its
    line, fails here: no linter runs with the tests."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if "# noqa: F401" not in lines[alias.lineno - 1]
            )
    assert sorted(imported - used - exported) == []


def test_every_control_message_is_built_outside_the_codec():
    """A message type that only the codec's parser builds has no sender in
    the system: only tests reach its handling."""
    built: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "wire":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    built.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    carried = {message.__name__ for message in typing.get_args(wire.ControlMessage)}
    assert carried, "the check must see the codec's messages"
    assert sorted(carried - built) == []


#: Event kinds the package emits that no run reads yet, each with its reason.
UNREAD_KINDS = {
    "gating_stalled": "ROADMAP item 1: stall alarms that do not keep the run alive",
}


def _emitted_kinds() -> set[str]:
    """The kind of every ``.emit(source, kind, ...)`` call in the package,
    each of which must be a string literal."""
    kinds: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "emit":
                kind = node.args[1]
                assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), (
                    f"{path.name}:{node.lineno}: the kind is not a literal"
                )
                kinds.add(kind.value)
    return kinds


def test_every_emitted_kind_is_folded_by_a_run(monkeypatch):
    """A kind that no run folds is dropped as it is emitted, so a new kind
    without a reader, or a typo in one, fails here; so does a fold for a
    kind the package never emits."""
    folds: list[set[str]] = []

    def recording_log(*args, **kwargs):
        log = EventLog(*args, **kwargs)
        folds.append(set(log.folds))
        return log

    monkeypatch.setattr(moqgate.harness, "EventLog", recording_log)
    moqgate.harness.run_scenario(load_scenario(bundled_scenario_path("strobe_impulse")))
    emitted = _emitted_kinds()
    (folded,) = folds
    assert emitted, "the check must see the package's emits"
    assert sorted(emitted - folded) == sorted(UNREAD_KINDS)
    assert sorted(folded - emitted) == []
