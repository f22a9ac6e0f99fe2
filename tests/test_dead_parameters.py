"""Every parameter of every function in the package is read by its body.

A parameter that no line reads is an option that does nothing: callers can
set it and nothing changes.  This test walks the syntax tree of each module
and names every such parameter.
"""

import ast
from pathlib import Path

import lplimits

SOURCES = sorted(Path(lplimits.__file__).parent.glob("*.py"))


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its function never reads; self and cls pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        found += [(node.name, p) for p in params if p not in ("self", "cls") and p not in read]
    return found


def test_every_parameter_is_read():
    assert {path.name for path in SOURCES} >= {"cli.py", "cones_limit.py", "ot.py"}
    unread = {
        path.name: unread_parameters(path.read_text(encoding="utf-8")) for path in SOURCES
    }
    assert {name: params for name, params in unread.items() if params} == {}


def test_guard_names_an_unread_parameter():
    source = "def f(a, b, *rest, c=1, **extra):\n    return a + sum(rest) + c\n"
    assert unread_parameters(source) == [("f", "b"), ("f", "extra")]
