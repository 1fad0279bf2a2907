"""Every name that a module of src/glproof imports is used in that module.

`__init__.py` is left out: its imports are the package's public names.  A
name counts as used when it is read anywhere in the module, in code or in an
annotation, including one written as a string.
"""

import ast
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
