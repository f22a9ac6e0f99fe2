"""Every parameter and every local of every function in the package is read.

A parameter that no line reads is an option that does nothing: callers can
set it and nothing changes.  A local that is assigned and never read is work
that goes nowhere.  This test walks the syntax tree of each module and names
every such parameter and local; locals whose name starts with ``_`` pass.
"""

import ast
from pathlib import Path

import lplimits

SOURCES = sorted(Path(lplimits.__file__).parent.glob("*.py"))


def _functions(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _names(node, ctx) -> list[str]:
    """Names the body of a function (nested scopes included) uses in context ctx."""
    return [
        name.id
        for stmt in node.body
        for name in ast.walk(stmt)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ctx)
    ]


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its function never reads; self and cls pass."""
    found = []
    for node in _functions(source):
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = set(_names(node, ast.Load))
        found += [(node.name, p) for p in params if p not in ("self", "cls") and p not in read]
    return found


def unread_locals(source: str) -> list[tuple[str, str]]:
    """(function, local) for each name its function assigns and never reads; _names pass."""
    found = []
    for node in _functions(source):
        read = set(_names(node, ast.Load))
        stored = dict.fromkeys(_names(node, ast.Store))
        found += [(node.name, n) for n in stored if not n.startswith("_") and n not in read]
    return found


def test_every_parameter_is_read():
    assert {path.name for path in SOURCES} >= {"cli.py", "cones_limit.py", "ot.py"}
    unread = {
        path.name: unread_parameters(path.read_text(encoding="utf-8")) for path in SOURCES
    }
    assert {name: params for name, params in unread.items() if params} == {}


def test_every_local_is_read():
    unread = {path.name: unread_locals(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_guard_names_an_unread_parameter():
    source = "def f(a, b, *rest, c=1, **extra):\n    return a + sum(rest) + c\n"
    assert unread_parameters(source) == [("f", "b"), ("f", "extra")]


def test_guard_names_an_unread_local():
    source = (
        "def f(xs):\n"
        "    total, _skip = 0, 1\n"
        "    first, rest = xs[0], xs[1:]\n"
        "    for i in rest:\n"
        "        total += i\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert unread_locals(source) == [("f", "first")]
