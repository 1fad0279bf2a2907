"""No code of the package changes a proof node once it is built.

`rules.derive` records on each node it builds the premise conclusions that
`rules.premises_of` returned for it (`Proof.goals`), and the checkers' lean
walk reads them instead of deriving them again.  That is sound only while
nodes never change, so this lint parses every module of `glproof` and
fails on
- an assignment to, or `del` of, an attribute named like a `Proof` field
  (`Proof.__slots__`): by `=`, an augmented or annotated assignment,
  `setattr` or `object.__setattr__`.  Allowed are `Proof.__init__`,
  `rules.derive` (which sets `goals`), and `self.<field>` in a method of
  another class, which sets that class's own field (`transform._RuleNode`);
- an in-place change of a `.meta` mapping: item assignment or `del`, or a
  call of `update`, `pop`, `popitem`, `setdefault` or `clear`, on
  `<expr>.meta` or on a name bound to one (`m = node.meta`).  A copy such
  as `transform._rule_tree`'s `dict(q.meta)` is a new dict and stays
  free to change.
"""

import ast
from pathlib import Path

from glproof.sequents import Proof

SRC = Path(__file__).resolve().parent.parent / "src" / "glproof"
FIELDS = frozenset(Proof.__slots__)
MUTATORS = frozenset(("update", "pop", "popitem", "setdefault", "clear"))
# (module, class, function) scopes that may set a Proof field; None is any
ALLOWED = (("sequents", "Proof", "__init__"), ("rules", None, "derive"))


def _is_meta(node, aliases) -> bool:
    """Whether `node` is `<expr>.meta` or a name bound to one."""
    if isinstance(node, ast.Attribute):
        return node.attr == "meta"
    return isinstance(node, ast.Name) and node.id in aliases


def _targets(node):
    """The assignment or `del` targets of a statement, tuples unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, ast.Delete):
        stack = list(node.targets)
    else:
        return
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


def _meta_aliases(fn) -> set[str]:
    return {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Attribute) and n.value.attr == "meta"
            for t in n.targets if isinstance(t, ast.Name)}


def _field_set(node, cls, fn_names, module) -> bool:
    """Whether `node`, a target or a setattr call, sets a Proof field where
    that is not allowed."""
    if isinstance(node, ast.Attribute):
        name, owner = node.attr, node.value
    elif isinstance(node, ast.Call):
        f = node.func
        is_setattr = (isinstance(f, ast.Name) and f.id in ("setattr", "delattr")
                      or isinstance(f, ast.Attribute) and f.attr in ("__setattr__",
                                                                      "__delattr__"))
        if not is_setattr:
            return False
        # the attribute's name: `setattr(p, name, v)`, `p.__setattr__(name, v)`
        name = next((a.value for a in node.args[:2]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)), None)
        owner = None
    else:
        return False
    if name not in FIELDS:
        return False
    if isinstance(owner, ast.Name) and owner.id == "self" and cls not in (None, "Proof"):
        return False
    return not any(m == module and c in (None, cls) and f in fn_names
                   for m, c, f in ALLOWED)


def violations(source: str, module: str = "") -> list[str]:
    """`line: text` of each place in `source` that changes a proof node."""
    found = []
    # (node, its innermost class, the names of its enclosing functions,
    #  the names bound to a .meta in those functions)
    stack = [(ast.parse(source), None, (), frozenset())]
    while stack:
        node, cls, fns, aliases = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fns = fns + (node.name,)
            aliases = aliases | _meta_aliases(node)
        bad = [t for t in _targets(node) if _field_set(t, cls, fns, module)
               or isinstance(t, ast.Subscript) and _is_meta(t.value, aliases)]
        if isinstance(node, ast.Call):
            f = node.func
            if (_field_set(node, cls, fns, module) or isinstance(f, ast.Attribute)
                    and f.attr in MUTATORS and _is_meta(f.value, aliases)):
                bad.append(node)
        found.extend(f"{node.lineno}: {ast.unparse(node).splitlines()[0]}" for _ in bad[:1])
        stack.extend((c, cls, fns, aliases) for c in ast.iter_child_nodes(node))
    return sorted(found, key=lambda s: int(s.split(":")[0]))


def test_no_module_changes_a_proof_node():
    found = {p.stem: violations(p.read_text(), p.stem) for p in sorted(SRC.glob("*.py"))}
    assert {m: v for m, v in found.items() if v} == {}


def test_lint_finds_changes():
    source = (
        "class Proof:\n"
        "    def __init__(self, rule):\n        self.rule = rule\n        self.goals = None\n"
        "    def bump(self):\n        self.rule = 'x'\n"
        "class Node:\n"
        "    def __init__(self, rule, meta):\n        self.rule = rule\n        self.meta = meta\n"
        "def derive(p, goals):\n    p.goals = goals\n"
        "def f(p, q):\n"
        "    p.premises = ()\n"
        "    p.conclusion, x = q, 1\n"
        "    p.meta['label'] = 'y'\n"
        "    del q.meta['fresh']\n"
        "    q.meta.update(a=1)\n"
        "    m = p.meta\n"
        "    m.setdefault('a', 1)\n"
        "    setattr(p, 'calculus', 'csgl')\n"
        "    object.__setattr__(p, 'goals', ())\n"
        "    p.meta |= {'a': 1}\n"
        "def g(node):\n"
        "    meta = dict(node.meta)\n"
        "    meta['label'] = 'y'\n"
        "    meta.pop('fresh')\n"
        "    node.other = 1\n"
        "    return node.meta.get('label')\n"
    )
    lines = lambda module: [int(v.split(":")[0]) for v in violations(source, module)]
    changes = [14, 15, 16, 17, 18, 20, 21, 22, 23]
    # Proof.__init__ may set fields in sequents only, derive in rules only
    assert lines("sequents") == [6, 12] + changes
    assert lines("rules") == [3, 4, 6] + changes
