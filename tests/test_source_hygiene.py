"""Source hygiene of the package, read with ``ast`` (no third-party linter).

Two rules keep dead code from piling up: a module (other than the package
``__init__``, whose imports are the public API) uses every name it imports,
and every module-level private function, class or constant is referenced
somewhere in the package outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mafre"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _references(node) -> Counter:
    """Every name read under ``node``: bare names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def _imported(tree) -> list:
    """The names a module binds by its imports, except ``__future__``'s."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def unused_imports(modules) -> list:
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        if module != "__init__"
        for name in _imported(tree)
        if not _references(tree)[name]
    )


def unreferenced_privates(modules) -> list:
    everywhere = sum((_references(tree) for tree in modules.values()), Counter())
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        for name, node in _private_definitions(tree)
        if everywhere[name] == _references(node)[name]
    )


def test_package_is_parsed():
    assert {"__init__", "algebra", "context", "dual", "fre", "io"} <= set(MODULES)


def test_every_import_is_used():
    assert unused_imports(MODULES) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(MODULES) == []


@pytest.mark.parametrize(
    "source, imports, privates",
    [
        ("from typing import List, Sequence\nx: List[int] = []", ["m.Sequence"], []),
        ("import numpy as np\nimport os.path\nnp.zeros(1)", ["m.os"], []),
        ("from __future__ import annotations\n", [], []),
        ("def _dead():\n    return _dead()\n", [], ["m._dead"]),
        ("_K = 3\nclass _C:\n    k = _K\n", [], ["m._C"]),
        ("def _f():\n    pass\ndef g():\n    return _f()\n", [], []),
    ],
)
def test_rules_on_small_sources(source, imports, privates):
    modules = {"m": ast.parse(source)}
    assert unused_imports(modules) == imports
    assert unreferenced_privates(modules) == privates
