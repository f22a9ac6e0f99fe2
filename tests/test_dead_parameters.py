"""Every parameter and every local of every function in the package is read.

A parameter that no line reads is an option that does nothing: callers can
set it and nothing changes.  So is one read only inside ``if <other
parameter> is None:``: once the caller passes that other parameter, it is
ignored.  A local that is assigned and never read is work that goes nowhere.
So is a side input that defaults to None and is built, when None, by
``enumerate_ledger`` or ``reduce_to_lp``: the function then takes its
problem twice, and nothing checks that the two forms agree.  So is a
parameter that a function sets, under ``if p is None:``, to a bare
``DEFAULT_TOLS.<field>``: that default belongs in the signature, where it is
spelled once.  This test walks the syntax tree of each module and names
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


def _name_nodes(node, ctx) -> list[ast.Name]:
    """Name nodes the body of a function (nested scopes included) uses in context ctx."""
    return [
        name
        for stmt in node.body
        for name in ast.walk(stmt)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ctx)
    ]


def _names(node, ctx) -> list[str]:
    return [name.id for name in _name_nodes(node, ctx)]


def _parameters(node) -> list[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return params + [a.arg for a in (args.vararg, args.kwarg) if a is not None]


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its function never reads; self and cls pass."""
    found = []
    for node in _functions(source):
        read = set(_names(node, ast.Load))
        found += [(node.name, p) for p in _parameters(node) if p not in ("self", "cls") and p not in read]
    return found


def _none_guard(node, params) -> str | None:
    """q when node is ``if q is None:`` for a parameter q, else None."""
    test = node.test if isinstance(node, ast.If) else None
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name) and test.left.id in params
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None):
        return test.left.id
    return None


def parameters_read_only_when_another_is_none(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter read, but only in ``if <other parameter> is None:`` bodies."""
    found = []
    for node in _functions(source):
        params = _parameters(node)
        guards: dict[int, set[str]] = {}  # id of a Name read in a guarded body -> its guarding parameters
        for branch in ast.walk(node):
            guard = _none_guard(branch, params)
            if guard is None:
                continue
            for stmt in branch.body:
                for name in ast.walk(stmt):
                    guards.setdefault(id(name), set()).add(guard)
        reads = _name_nodes(node, ast.Load)
        for p in params:
            mine = [n for n in reads if n.id == p]
            if mine and all(guards.get(id(n), set()) - {p} for n in mine):
                found.append((node.name, p))
    return found


_BUILDERS = ("enumerate_ledger", "reduce_to_lp")


def _qualified_functions(source: str):
    """(qualified name, node) of each function and method, classes' names as prefix."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(ast.parse(source).body, "")


def _none_defaults(node) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a, d in pairs if isinstance(d, ast.Constant) and d.value is None]


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _built_when_none(node, p: str) -> bool:
    """True when an ``if p is None:`` body of node assigns p a value that calls a builder."""
    return any(
        isinstance(assign, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == p for t in assign.targets)
        and any(isinstance(c, ast.Call) and _callee(c) in _BUILDERS for c in ast.walk(assign.value))
        for branch in ast.walk(node) if _none_guard(branch, [p]) == p
        for stmt in branch.body for assign in ast.walk(stmt)
    )


def side_inputs_built_when_none(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each None-default parameter built when None.

    Its function replaces it, under ``if <parameter> is None:``, by a call to
    ``enumerate_ledger`` or ``reduce_to_lp``, or passes it on as such a
    parameter of another function of the package (a class call reaches its
    ``__init__``).
    """
    functions = [(module, name, node) for module, source in sources.items()
                 for name, node in _qualified_functions(source)]
    params = {}  # last name part (or class name for __init__) -> parameters, self dropped
    for _, name, node in functions:
        key = name.split(".")[-2] if name.endswith(".__init__") else name.split(".")[-1]
        params[key] = (name, [p for p in _parameters(node) if p != "self"])
    found = {(module, name, p) for module, name, node in functions
             for p in _none_defaults(node) if _built_when_none(node, p)}
    grown = True
    while grown:
        flagged = {(name, p) for _, name, p in found}
        before = len(found)
        for module, name, node in functions:
            for p in _none_defaults(node):
                for call in (c for c in ast.walk(node) if isinstance(c, ast.Call) and _callee(c) in params):
                    target, target_params = params[_callee(call)]
                    passed = [kw.arg for kw in call.keywords if isinstance(kw.value, ast.Name) and kw.value.id == p]
                    passed += [target_params[i] for i, a in enumerate(call.args[: len(target_params)])
                               if isinstance(a, ast.Name) and a.id == p]
                    if any((target, q) in flagged for q in passed):
                        found.add((module, name, p))
        grown = len(found) > before
    return sorted(found)


def defaults_set_when_none(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter set to a bare ``DEFAULT_TOLS.<field>`` under ``if p is None:``.

    A value computed from the input, such as ``DEFAULT_TOLS.sum_tol_at(...)``, passes.
    """
    found = []
    for node in _functions(source):
        for p in _parameters(node):
            if any(
                isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == p for t in assign.targets)
                and isinstance(assign.value, ast.Attribute)
                and isinstance(assign.value.value, ast.Name) and assign.value.value.id == "DEFAULT_TOLS"
                for branch in ast.walk(node) if _none_guard(branch, [p]) == p
                for stmt in branch.body for assign in ast.walk(stmt)
            ):
                found.append((node.name, p))
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


def test_no_parameter_is_read_only_when_another_is_none():
    found = {
        path.name: parameters_read_only_when_another_is_none(path.read_text(encoding="utf-8"))
        for path in SOURCES
    }
    assert {name: params for name, params in found.items() if params} == {}


def test_no_side_input_is_built_when_none():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert side_inputs_built_when_none(sources) == []


def test_no_default_is_set_when_none():
    found = {path.name: defaults_set_when_none(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: params for name, params in found.items() if params} == {}


def test_every_local_is_read():
    unread = {path.name: unread_locals(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_guard_names_an_unread_parameter():
    source = "def f(a, b, *rest, c=1, **extra):\n    return a + sum(rest) + c\n"
    assert unread_parameters(source) == [("f", "b"), ("f", "extra")]


def test_guard_names_a_parameter_read_only_when_another_is_none():
    source = (
        "def f(lp, solver=None, tols=None, x=None, y=None):\n"
        "    if solver is None:\n"
        "        solver = build(lp, tols, y)\n"
        "    if x is None:\n"
        "        x = lp\n"
        "    if y is not None:\n"
        "        solver.use(y)\n"
        "    return solver.run(lp, x)\n"
    )
    assert parameters_read_only_when_another_is_none(source) == [("f", "tols")]


def test_guard_names_a_default_set_when_none():
    source = (
        "def f(cost, tol=None, band=None, m0=None, other=None, *, sum_tol=None):\n"
        "    if tol is None:\n"
        "        tol = DEFAULT_TOLS.boundary_tol\n"
        "    if band is None:\n"
        "        band = DEFAULT_TOLS.sum_tol_at(cost.sum())\n"
        "    if m0 is None:\n"
        "        m0 = cost.shape[0]\n"
        "    if other is not None:\n"
        "        other = DEFAULT_TOLS.feas_tol\n"
        "    if sum_tol is None:\n"
        "        sum_tol = DEFAULT_TOLS.sum_tol\n"
        "    return tol, band, m0, other, sum_tol\n"
        "def g(v, tol):\n"
        "    if tol is None:\n"
        "        tol = DEFAULT_TOLS.boundary_tol\n"
        "    return v, tol\n"
    )
    assert defaults_set_when_none(source) == [("f", "tol"), ("f", "sum_tol"), ("g", "tol")]


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


def test_guard_names_a_side_input_built_when_none():
    sources = {
        "a.py": (
            "def spec(ot, tols=None, ledger=None, lp=None):\n"
            "    if tols is None:\n"
            "        tols = DEFAULT\n"
            "    if ledger is None:\n"
            "        ledger = enumerate_ledger(reduce_to_lp(ot, tols), tols)\n"
            "    if lp is not None:\n"
            "        lp = reduce_to_lp(ot)\n"
            "    return ledger, lp\n"
            "class Solver:\n"
            "    def __init__(self, lp, ledger=None):\n"
            "        if ledger is None:\n"
            "            ledger = lp_core.enumerate_ledger(lp)\n"
            "        self.ledger = ledger\n"
        ),
        "b.py": (
            "def run(ot, ledger=None, cache=None):\n"
            "    return a.spec(ot, None, ledger), cache\n"
            "def solve(lp, ledger=None, lp_again=None):\n"
            "    return Solver(lp, ledger=ledger), spec(lp, lp=lp_again)\n"
        ),
    }
    assert side_inputs_built_when_none(sources) == [
        ("a.py", "Solver.__init__", "ledger"), ("a.py", "spec", "ledger"),
        ("b.py", "run", "ledger"), ("b.py", "solve", "ledger"),
    ]
