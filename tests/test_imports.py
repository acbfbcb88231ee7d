"""No module under src/guardlab/ or scripts/ imports a name it never uses.

No linter ships with the lab, so this reads each module's syntax tree with
the standard library's ast: every name an import binds (``__future__``
imports aside) must be read somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "guardlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list:
    """The names source's imports bind that no expression in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom .a import b as c, d\nos.sep\nd()\n"
    assert unused_imports(source) == [(2, "sys"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
