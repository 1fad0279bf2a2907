"""Every name that a module of src/glproof imports is used in that module,
every parameter of a function is read in its body, and every private
function or method is named outside its own body.

`__init__.py` is left out of the import check: its imports are the package's
public names.  A name counts as used when it is read anywhere in the module,
in code or in an annotation, including one written as a string.  A parameter
counts as read when its name is loaded anywhere in the function's body,
nested functions included; lambdas are checked as functions are.  A
private (`_`-prefixed, non-dunder) function counts as named when any module
of src/glproof reads its name, bare or as an attribute, outside the
function's own body, so one that only calls itself counts as dead.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glproof"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.AST) -> set[str]:
    """The names read in `tree`, also inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _read(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _read(tree)
    return [f"{name} (line {line})" for name, line in sorted(_imported(tree).items())
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from .rules import RuleError, derive\n"
              "import json\n"
              "def f(x: 'RuleError') -> None:\n"
              "    return json.dumps(x)\n")
    assert unused_imports(source) == ["derive (line 1)"]


# (module, function, parameter): why the parameter stays unread
UNREAD_PARAMETERS = {
    ("cli.py", "run", "stdin"): "perfbench calls run(argv, None, out, err) positionally",
}


def unread_parameters(source: str) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for each parameter of a `def` or a lambda
    that its body never reads.  A lambda is named `f.<lambda>` after the
    function f that holds it, and `<lambda>` outside every function."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                name = f"{owner}.<lambda>" if owner else "<lambda>"
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            else:
                visit(child, owner)
                continue
            a = child.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend((name, q.arg, q.lineno) for q in params if q.arg not in read)
            visit(child, name)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_parameter_is_read(module):
    unread = unread_parameters((SRC / module).read_text())
    allowed = {(f, q) for m, f, q in UNREAD_PARAMETERS if m == module}
    assert [u for u in unread if u[:2] not in allowed] == []
    # an entry whose parameter is gone or now read leaves the list
    assert {u[:2] for u in unread} >= allowed


def test_the_check_sees_an_unread_parameter():
    source = ("def f(a, b, *args, c, d=1, **kw) -> int:\n"
              "    def g(e):\n"
              "        return a + d\n"
              "    b = 2\n"
              "    return g(1), kw\n"
              "h = lambda x, y: x\n")
    # b is only assigned, and the lambda's y is not looked at
    assert unread_parameters(source) == [("f", "b", 1), ("f", "c", 1), ("f", "args", 1),
                                         ("g", "e", 2), ("<lambda>", "y", 6)]


def _references(nodes) -> Counter:
    """How often each name is read as a bare name or an attribute in `nodes`
    and everything under them."""
    seen = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
    return seen


def uncalled_private_functions(sources: dict[str, str]) -> list[str]:
    """`module:name (line N)` for each private (`_`-prefixed, non-dunder)
    function or method in `sources`, a map from module names to their text,
    that no module names outside the function's own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = _references(trees.values())
    found = []
    for module, tree in sorted(trees.items()):
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_") and not fn.name.endswith("__")
                    and everywhere[fn.name] <= _references(fn.body)[fn.name]):
                found.append(f"{module}:{fn.name} (line {fn.lineno})")
    return found


def test_every_private_function_is_named_elsewhere():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_private_functions(sources) == []


def test_the_check_sees_an_uncalled_private_function():
    source = ("def _f():\n    return 1\n"
              "def _g(n):\n    return _g(n - 1)\n"
              "def _h():\n    pass\n"
              "def f():\n    return _h()\n"
              "class C:\n"
              "    def __init__(self):\n        self._m()\n"
              "    def _m(self):\n        pass\n"
              "    def _n(self):\n        pass\n")
    other = "from .a import C\nC()._n()\n"
    assert uncalled_private_functions({"a.py": source}) == [
        "a.py:_f (line 1)", "a.py:_g (line 3)", "a.py:_n (line 14)"]
    assert uncalled_private_functions({"a.py": source, "b.py": other}) == [
        "a.py:_f (line 1)", "a.py:_g (line 3)"]
