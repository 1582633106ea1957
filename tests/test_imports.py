"""No module of the package imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule: every name bound by
a module-level import in src/randaolab/*.py (bar __init__.py, which
imports to re-export) must be read somewhere in that module.
"""

import ast
from pathlib import Path

import pytest

import randaolab

SOURCES = sorted(
    path
    for path in Path(randaolab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Optional, Sequence\n"
        "x: Optional[int] = js.loads('1')\n"
    )
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
