"""No function of the proof layer calls itself, directly or through others.

Proof walks are walkers, generators run by `sequents.trampoline`, so proof
height costs no Python recursion.  This lint parses the proof-layer modules
and fails on any function that is not a generator and either calls itself
by name or lies on a cycle of its module's call graph.

The same lint covers all of `semantics`.  `eval_formula` and
`lns_interpretation` do not recurse, nested functions included, so formula
depth and sequent length cost no recursion there.  What recurses is bounded
by the model, not the formula, and is exactly `MODEL_BOUNDED`:
`_Tables.assignment` (with `_Tables.states` and `combos`, which call each
other) by model depth, and `_skeletons` (with its `extend`) by world count.
A model's frame is built on an explicit stack (`_frame`), and a valuation
is one flat tuple of per-world rows, so neither recurses.

`search` is linted too: both proof searches run on an explicit stack of
frames, so a branch's height costs no recursion.  Out of scope, and still
behind the CLI's `RecursionError` backstop: `formula` (the parser and
printer recurse on formula depth, about 1,000 levels).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "glproof"
MODULES = ("sequents", "rules", "checkers", "transform", "proofio", "render", "search")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.Lambda, ast.ClassDef)
MODEL_BOUNDED = ("_skeletons", "extend", "assignment", "states", "combos")


def _own_nodes(fn):
    """The nodes of fn's body, without those of the scopes nested in it."""
    stack = [n for n in fn.body if not isinstance(n, SCOPES)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, SCOPES))


def _calls_itself(fn) -> bool:
    """Whether fn calls its own name, bare or as an attribute.  An attribute
    of a call's result (`super().f()`, `Cls(x).f()`) is another object's."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and not isinstance(f.value, ast.Call)):
                return True
    return False


def _on_call_cycles(functions) -> set[str]:
    """The names of `functions` on a cycle of their call graph.  An edge is
    a call of one of their names, bare or through `self.`/`cls.`."""
    names = {fn.name for fn in functions}
    calls: dict[str, set[str]] = {name: set() for name in names}
    for fn in functions:
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                callee = f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")):
                callee = f.attr
            else:
                continue
            if callee in names:
                calls[fn.name].add(callee)
    cyclic = set()
    for start in names:  # does a path of calls lead back to start?
        seen, stack = set(), list(calls[start])
        while stack:
            name = stack.pop()
            if name == start:
                cyclic.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack.extend(calls[name])
    return cyclic


def recursive_functions(source: str) -> list[str]:
    """Names of the non-generator functions in `source` that call themselves
    or lie on a cycle of the module's call graph."""
    functions = [fn for fn in ast.walk(ast.parse(source)) if isinstance(fn, FUNCTIONS)]
    cyclic = _on_call_cycles(functions)
    return [fn.name for fn in functions
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(fn))
            and (fn.name in cyclic or _calls_itself(fn))]


@pytest.mark.parametrize("module", MODULES)
def test_no_recursive_function(module):
    assert recursive_functions((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("name", ("eval_formula", "lns_interpretation"))
def test_semantics_walks_do_not_recurse(name):
    source = (SRC / "semantics.py").read_text()
    fn = next(n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == name)
    assert recursive_functions(ast.get_source_segment(source, fn)) == []


def test_semantics_recurses_only_on_the_model():
    found = recursive_functions((SRC / "semantics.py").read_text())
    assert sorted(found) == sorted(MODEL_BOUNDED)


def test_lint_finds_recursion():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "class C:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def walk(self, q):\n        return [q.walk(c) for c in q.kids]\n"
        "    def bound(self):\n        return 1\n"
        "def g(n):\n    return (yield g(n - 1))\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def bound(x):\n    return C(x).bound()\n"
    )
    assert recursive_functions(source) == ["f", "even", "odd", "walk"]
