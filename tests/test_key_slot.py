"""Only `formula` reads the key slot.

`Formula._key` holds a formula's order key once it is built, else None.
Every other module orders through `Formula.key`, `sequents.formula_key` or
`sequents.labeled_key`, which build a missing key, so no formula there is
ever compared by an empty slot.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "glproof"
SLOT_READERS = ("formula.py",)
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def slot_uses(source: str) -> list[int]:
    """The lines that name the slot: `x._key`, or `"_key"` as in
    `getattr(x, "_key")` or `attrgetter("_key")`."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Attribute) and node.attr == "_key")
                   or (isinstance(node, ast.Constant) and node.value == "_key")})


@pytest.mark.parametrize("module", [m for m in MODULES if m not in SLOT_READERS])
def test_no_other_module_reads_the_key_slot(module):
    assert slot_uses((SRC / module).read_text()) == []


def test_the_check_sees_each_form():
    source = ("from operator import attrgetter\n"
              "def order(fs):\n"
              "    return sorted(fs, key=lambda f: f._key)\n"
              "by = attrgetter('_key')\n"
              "k = getattr(f, '_key')\n"
              "ok = sorted(fs, key=lambda f: f.key)\n")
    assert slot_uses(source) == [3, 4, 5]


def test_the_named_modules_exist():
    assert set(SLOT_READERS) <= set(MODULES)
