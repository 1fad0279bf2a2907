"""No function of the proof layer calls itself.

Proof walks are walkers, generators run by `sequents.trampoline`, so proof
height costs no Python recursion.  This lint parses the proof-layer modules
and fails on any function that is not a generator and calls itself by name.

The same lint covers `semantics.eval_formula` and `lns_interpretation`,
nested functions included, so formula depth and sequent length cost no
recursion there.

Out of scope, and still behind the CLI's `RecursionError` backstop:
`formula` (the parser and printer recurse on formula depth, about 1,000
levels) and `search` (backward proof search recurses once per level of its
branch, about 990 levels).  What still recurses in `semantics` is bounded
by the model, not the formula: `_skeleton_model`'s `build` and
`_Tables.assignment` (with `_Tables.states` and `combos`, which call each
other) by model depth, `_split_bits`'s `take` by model depth, and
`_skeletons` (with its `extend`) by world count.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "glproof"
MODULES = ("sequents", "rules", "checkers", "transform", "proofio", "render")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of fn's body, without those of the scopes nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, SCOPES))


def _calls_itself(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and not (isinstance(f.value, ast.Call) and isinstance(f.value.func, ast.Name)
                             and f.value.func.id == "super")):
                return True
    return False


def recursive_functions(source: str) -> list[str]:
    """Names of the non-generator functions in `source` that call themselves."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(fn)):
            continue
        if _calls_itself(fn):
            found.append(fn.name)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_recursive_function(module):
    assert recursive_functions((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("name", ("eval_formula", "lns_interpretation"))
def test_semantics_walks_do_not_recurse(name):
    source = (SRC / "semantics.py").read_text()
    fn = next(n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name == name)
    assert recursive_functions(ast.get_source_segment(source, fn)) == []


def test_lint_finds_recursion():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "class C:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def walk(self, q):\n        return [q.walk(c) for c in q.kids]\n"
        "def g(n):\n    return (yield g(n - 1))\n"
    )
    assert recursive_functions(source) == ["f", "walk"]
