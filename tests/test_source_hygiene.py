"""Source hygiene of the package, read with ``ast`` (no third-party linter).

Four rules keep dead code from piling up: a module (other than the package
``__init__``, whose imports are the public API) uses every name it imports,
every module-level private function, class or constant is referenced
somewhere in the package outside its own definition, no public function or
method is a second name for a call: its whole body, docstring aside, is
``return f(<its own parameters, unchanged, in order>)``, and every defaulted
parameter of a public module-level function is passed by keyword in some
call of that function inside the package, so no option is set only by tests.
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


def _passed(call) -> list:
    """The names a call passes when every argument is a bare name passed as
    itself (``x`` or ``x=x``), in order; else None."""
    names = [a.id if isinstance(a, ast.Name) else None for a in call.args]
    names += [
        k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
        for k in call.keywords
    ]
    return None if None in names else names


def _forwards(fn, method: bool) -> bool:
    """Whether ``fn``'s body, docstring aside, returns a call that passes its
    parameters unchanged, in order; a method's ``self`` or ``cls`` aside."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return _passed(call) == (params[1:] if method else params)


def forwarding_definitions(modules) -> list:
    """Each public module-level function and public method whose body only
    forwards its parameters to another call."""
    found = []
    for module, tree in modules.items():
        for node in tree.body:
            members = [(node.name, node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{fn.name}", fn, True)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef)
                ]
            found += [
                f"{module}.{name}"
                for name, fn, method in members
                if not fn.name.startswith("_") and _forwards(fn, method)
            ]
    return sorted(found)


# forwarding definitions that stay, each for its reason
FORWARDS_KEPT = {
    "algebra.Frame.value": "the acceptance gate calls it",
    "dual.DualFreInstance.rhs_row": (
        "row u of a dual system is column u of its transposed primal"
    ),
}


def _called_name(call) -> str:
    """The name a call calls: ``f`` in ``f(...)`` and ``m.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unpassed_defaults(modules) -> list:
    """``module.function(parameter)`` for each defaulted parameter of a
    public module-level function that no call of that function's name in
    ``modules`` passes by keyword."""
    passed = {
        (_called_name(node), k.arg)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for k in node.keywords
    }
    found = []
    for module, tree in modules.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [
                f"{module}.{fn.name}({a.arg})"
                for a in defaulted
                if (fn.name, a.arg) not in passed
            ]
    return sorted(found)


# defaulted parameters that no call in the package sets, each for its reason
DEFAULTS_KEPT = {
    "cli.main(argv)": "the console script calls main() and reads sys.argv",
    "approx.approximate_by_reduct(materialize_solutions)": (
        "the acceptance gate lists a repair's minimal solutions through it"
    ),
}


def test_package_is_parsed():
    assert {"__init__", "algebra", "context", "dual", "fre", "io"} <= set(MODULES)


def test_every_import_is_used():
    assert unused_imports(MODULES) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(MODULES) == []


def test_no_public_name_only_forwards():
    assert forwarding_definitions(MODULES) == sorted(FORWARDS_KEPT)


def test_every_default_is_passed_in_the_package():
    assert unpassed_defaults(MODULES) == sorted(DEFAULTS_KEPT)


@pytest.mark.parametrize(
    "source, unpassed",
    [
        ("def f(a, b=1):\n    return a\n", ["m.f(b)"]),
        ("def f(a, *, b=1, c):\n    return a\n", ["m.f(b)"]),
        ("def f(a=1, b=2):\n    return a\ndef g():\n    return f(b=3)\n", ["m.f(a)"]),
        ("def f(a=1):\n    return a\ndef g(m):\n    return m.f(a=2)\n", []),
        ("def f(a=1):\n    return a\ndef g(h):\n    return h(a=2)\n", ["m.f(a)"]),
        ("def _f(a=1):\n    return a\n", []),
        ("class C:\n    def f(self, a=1):\n        return a\n", []),
    ],
)
def test_default_rule_on_small_sources(source, unpassed):
    assert unpassed_defaults({"m": ast.parse(source)}) == unpassed


@pytest.mark.parametrize(
    "source, forwards",
    [
        ("def f(a, b):\n    'doc'\n    return g(a, b)\n", ["m.f"]),
        ("def f(a, *, b):\n    return g(a, b=b)\n", ["m.f"]),
        ("class C:\n    @classmethod\n    def f(cls, a):\n        return cls(a)\n", ["m.C.f"]),
        ("class C:\n    def f(self, u):\n        return self.x.g(u)\n", ["m.C.f"]),
        ("def f(a, b):\n    return g(b, a)\n", []),
        ("def f(a):\n    return g(a.t())\n", []),
        ("def f(a, b=1):\n    return g(a)\n", []),
        ("def _f(a):\n    return g(a)\n", []),
        ("def f(a):\n    x = 1\n    return g(a)\n", []),
        ("class C:\n    def f(self):\n        return self.x\n", []),
    ],
)
def test_forwarding_rule_on_small_sources(source, forwards):
    assert forwarding_definitions({"m": ast.parse(source)}) == forwards


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
