"""Source hygiene: no module of the package imports a name at module level
that it never uses.  No linter is part of the toolchain, so this parses
the modules with `ast` instead."""

import ast
import os

import pytest

from loopbrackets import cli

PKG = os.path.dirname(os.path.abspath(cli.__file__))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read anywhere in the
    module.  `from __future__` imports and names listed in `__all__` do
    not count as unused."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound[name] = a.asname or a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = a.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_detected():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "import os.path\n"
              "from dataclasses import dataclass, field as dc_field\n"
              "\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = os.path.sep\n")
    assert unused_imports(source) == ["dc_field", "json"]
