"""No module under src/guardlab/ imports a name it never uses,
and none defines a name that nothing reads.

No linter ships with the lab, so this reads each module's syntax tree with
the standard library's ast: every name an import binds (``__future__``
imports aside) must be read somewhere in the module, and every top-level
function, class and module constant (dunder names aside) must be read
somewhere in src/, tests/ or perfbench/.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "guardlab").glob("*.py"))
READERS = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


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


def definitions(source: str) -> dict:
    """The top-level functions, classes and constants source defines, by
    name, with their lines; dunder names aside."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in defined.items()
            if not (name.startswith("__") and name.endswith("__"))}


def reads(source: str) -> set:
    """The names source reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return read


def unreferenced(source: str, read: set) -> list:
    """The (line, name) of each definition in source that read lacks."""
    return sorted((line, name) for name, line in definitions(source).items() if name not in read)


def test_the_check_sees_an_unreferenced_definition():
    source = ("import os\nLIMIT = 3\nSPARE: int = 4\n__all__ = []\n"
              "def used():\n    return LIMIT\n"
              "def spare():\n    pass\nclass Box:\n    pass\nclass Kept:\n    pass\n"
              "used()\n")
    read = reads(source) | reads("from m import Kept as K\n")
    assert unreferenced(source, read) == [(3, "SPARE"), (7, "spare"), (9, "Box")]
    assert unreferenced(source, read | reads("x.spare\n")) == [(3, "SPARE"), (9, "Box")]


@pytest.fixture(scope="module")
def everything_read() -> set:
    return set().union(*(reads(path.read_text(encoding="utf-8")) for path in READERS))


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unreferenced_definitions(path, everything_read):
    assert unreferenced(path.read_text(encoding="utf-8"), everything_read) == []
