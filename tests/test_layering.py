"""Module layering: each module depends only on the interfaces it uses.

The relay and the clients keep time through ``transport.Clock`` and never
name the simulated network; the report writers depend on nothing else in
the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest


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


def test_report_imports_no_moqgate_module():
    imported = []
    for node in ast.walk(_tree("report")):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "moqgate"]
