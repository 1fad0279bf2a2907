"""Finite Kripke models for GL and the brute-force validity oracle.

The oracle enumerates rooted tree skeletons (transitive-irreflexive models
with the strict-descendant relation) in order of world count, smallest first.
Within a skeleton it computes, bottom-up and exactly, the set of states each
world can reach.  A world's state is its contribution vector: which boxed
subformulas hold there together with their bodies, the only thing a parent
reads of a child.  A parent's box combination is the AND of one vector per
child.  For each box combination met, every subformula is evaluated once, as
one int whose bits range over all atom valuations, giving a table of the
vectors that combination reaches and whether it falsifies the formula; every
world of every skeleton with that combination reuses it.

A model is built from two things: its skeleton's frame, the worlds
w0, w1, ... in preorder with the ancestor relation (`_frame`, on an explicit
stack), and one flat tuple of per-world atom rows in the same order.  The
model for a witnessed choice is built and validated once per process
(`_countermodel`, an LRU cache of up to `_COUNTERMODEL_CACHE` models keyed by
skeleton, atoms and rows), so verdicts share `Model` objects, and a `Model`
is an immutable value.  Every countermodel the oracle reports, a shared one
included, is re-verified with the plain evaluator `eval_formula` (memoized,
on an explicit stack) before being returned.  The soundness audit's brute
force (`labeled_sequent_valid` over `enumerate_models`) builds each
skeleton's frame once, outside its loop over valuations, but still builds
and validates one `Model` per valuation, uncached.  It keeps one (world,
subformula) memo per model, shared by all of that model's label assignments
and formulas, so it evaluates each subformula at most once per world of each
model.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterator, Optional

from .formula import Atom, Box, Formula, Not, Or, conj, implies, subformulas
from .sequents import GentzenSequent, LabeledSequent, LinearNestedSequent


class UnknownWorld(Exception):
    pass


class BadModel(Exception):
    pass


class Model:
    """Finite transitive irreflexive Kripke structure, an immutable value:
    `worlds` is a tuple, `rel` a frozenset and `valuation` a read-only
    mapping from atom names to frozensets of worlds, so the oracle can hand
    one instance to every verdict it refutes with."""

    __slots__ = ("worlds", "rel", "valuation", "_succ")

    def __init__(self, worlds, rel, valuation):
        self.worlds = tuple(worlds)
        self.rel = frozenset(rel)
        self.valuation = MappingProxyType({a: frozenset(ws) for a, ws in valuation.items()})
        wset = set(self.worlds)
        succ = {w: set() for w in self.worlds}
        for x, y in self.rel:
            if x not in wset or y not in wset:
                raise BadModel(f"relation mentions unknown world {x if x not in wset else y}")
            if x == y:
                raise BadModel(f"relation is not irreflexive at {x}")
            succ[x].add(y)
        for x, y in self.rel:
            if not succ[y] <= succ[x]:
                z = min(succ[y] - succ[x])
                raise BadModel(f"relation is not transitive: {x}<{y}<{z}")
        for a, ws in self.valuation.items():
            if not ws <= wset:
                raise BadModel(f"valuation of {a} mentions unknown worlds")
        self._succ = {w: tuple(sorted(ys)) for w, ys in succ.items()}

    def __reduce__(self):
        # a mapping proxy does not pickle: rebuild (and re-validate) from a dict
        return (Model, (self.worlds, self.rel, dict(self.valuation)))

    def successors(self, w) -> tuple:
        return self._succ[w]

    def __repr__(self):
        return f"<Model worlds={self.worlds} rel={sorted(self.rel)}>"


def eval_formula(m: Model, w, f: Formula) -> bool:
    """Truth at a world per the usual clauses; box quantifies over successors.

    Evaluated by `_eval` with a fresh (world, subformula) memo, so one call
    reads each subformula at each world at most once; `labeled_sequent_valid`
    instead keeps one memo per model for all its assignments."""
    if w not in m._succ:
        raise UnknownWorld(w)
    return _eval(m, w, f, {})


def _eval(m: Model, w, f: Formula, memo: dict) -> bool:
    """Truth of f at w, reading and filling `memo`, a dict from (world,
    subformula) to its truth in m, which a caller may share between calls on
    the same model.

    A post-order on an explicit stack: `|` reads its right side only when
    its left side fails, and a box reads its successors in order up to the
    first that fails, so formula depth costs no Python recursion."""
    top = (w, f)
    v = memo.get(top)
    if v is not None:
        return v
    succ, val = m._succ, m.valuation
    stack = [top]
    while stack:
        key = stack[-1]
        u, g = key
        kind = type(g)
        if kind is Atom:
            v = u in val.get(g.name, ())
        elif kind is Or:
            v = memo.get((u, g.left))
            if v is None:
                stack.append((u, g.left))
                continue
            if not v:
                v = memo.get((u, g.right))
                if v is None:
                    stack.append((u, g.right))
                    continue
        elif kind is Not:
            v = memo.get((u, g.sub))
            if v is None:
                stack.append((u, g.sub))
                continue
            v = not v
        else:
            sub = g.sub
            for s in succ[u]:
                v = memo.get((s, sub))
                if v is None:
                    stack.append((s, sub))
                    break
                if not v:
                    break
            else:
                v = True
            if v is None:
                continue
        memo[key] = v
        stack.pop()
    return memo[top]


# ---------------------------------------------------------------------------
# Model bounds and skeleton enumeration

class ModelBound:
    __slots__ = ("max_worlds", "max_depth", "max_branching")

    def __init__(self, max_worlds: int, max_depth: int, max_branching: int):
        self.max_worlds = max_worlds
        self.max_depth = max_depth
        self.max_branching = max_branching

    def _fields(self) -> tuple[int, int, int]:
        return (self.max_worlds, self.max_depth, self.max_branching)

    def __eq__(self, other) -> bool:
        if type(other) is not ModelBound:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "ModelBound(%r, %r, %r)" % self._fields()

    @classmethod
    def uniform(cls, n: int) -> "ModelBound":
        return cls(n, n, n)

    def __ge__(self, other: "ModelBound") -> bool:
        return (
            self.max_worlds >= other.max_worlds
            and self.max_depth >= other.max_depth
            and self.max_branching >= other.max_branching
        )


def default_bound(f: Formula) -> ModelBound:
    """One fresh successor per refuted boxed subformula per world gives the
    usual GL tree-model shape; the world budget keeps exhaustion tractable."""
    return _Tables(f).default_bound()


@lru_cache(maxsize=None)
def _skeletons(n: int, depth: int, branch: int) -> tuple:
    """Canonical rooted unordered trees with n nodes (nested child tuples)."""
    if depth <= 0 or n < 1:
        return ()
    if n == 1:
        return ((),)
    items = []
    for s in range(n - 1, 0, -1):
        for t in _skeletons(s, depth - 1, branch):
            items.append((s, t))
    result = []

    def extend(chosen, remaining, start, slots):
        if remaining == 0:
            result.append(tuple(t for _, t in chosen))
            return
        if slots == 0:
            return
        for i in range(start, len(items)):
            s, t = items[i]
            if s <= remaining:
                extend(chosen + [(s, t)], remaining - s, i, slots - 1)

    extend([], n - 1, 0, branch)
    return tuple(result)


def _frame(shape) -> tuple[tuple[str, ...], frozenset]:
    """The worlds w0, w1, ... of a skeleton, in preorder, and its relation,
    the strict descendant order: every ancestor sees every world below it."""
    worlds: list[str] = []
    rel: list[tuple[str, str]] = []
    stack = [(shape, ())]
    while stack:
        node, above = stack.pop()
        w = f"w{len(worlds)}"
        worlds.append(w)
        rel.extend((u, w) for u in above)
        below = above + (w,)
        stack.extend((child, below) for child in reversed(node))
    return tuple(worlds), frozenset(rel)


def _model(frame: tuple, atoms: tuple, rows) -> Model:
    """The model on `frame` where world i makes `atoms[j]` true iff bit j of
    `rows[i]` is set."""
    worlds, rel = frame
    return Model(worlds, rel, {a: [w for w, row in zip(worlds, rows) if row >> j & 1]
                               for j, a in enumerate(atoms)})


# ---------------------------------------------------------------------------
# The oracle

class OracleVerdict:
    __slots__ = ("valid", "model", "world", "bound_too_small", "skeletons", "tables")

    def __init__(self, valid: bool, model: Optional[Model] = None, world: Optional[str] = None,
                 bound_too_small: bool = False, skeletons: int = 0, tables: int = 0):
        self.valid = valid
        self.model = model
        self.world = world
        self.bound_too_small = bound_too_small
        self.skeletons = skeletons  # tree shapes tried, the verdict's own included
        self.tables = tables  # distinct box combinations evaluated

    @property
    def kind(self) -> str:
        return "Valid" if self.valid else "Countermodel"


_ATOM, _NOT, _OR, _BOX = range(4)


class _Tables:
    """The state of one oracle call.

    One post-order walk of the formula gives the evaluation ops (operands
    are earlier ops; the target is the last op), the atoms and the boxes.
    A valuation row `v` sets atom `atoms[i]` iff bit i of `v` is set.  A box
    combination `r` says which boxes hold at a world (bit j for box j).  A
    world's contribution vector says which boxes' (body and box) hold there:
    box j holds at a parent iff bit j is set in the contribution vector of
    every child, by transitivity, so the vector is all a parent reads of a
    child, and a world's achievable states are its achievable vectors."""

    def __init__(self, f: Formula):
        index: dict[Formula, int] = {}  # subformula -> its op
        ops: list[tuple] = []
        atoms: list[str] = []
        box_subs: list[int] = []  # op of each box's body, by box position
        stack = [f]
        while stack:
            g = stack[-1]
            if g in index:
                stack.pop()
                continue
            kind = type(g)
            if kind is Atom:
                ops.append((_ATOM, g.name, 0))
                atoms.append(g.name)
            elif kind is Or:
                a, b = index.get(g.left), index.get(g.right)
                if a is None or b is None:
                    stack.append(g.right)
                    stack.append(g.left)
                    continue
                ops.append((_OR, a, b))
            else:
                a = index.get(g.sub)
                if a is None:
                    stack.append(g.sub)
                    continue
                if kind is Not:
                    ops.append((_NOT, a, 0))
                else:
                    ops.append((_BOX, len(box_subs), 0))
                    box_subs.append(a)
            index[g] = len(ops) - 1
            stack.pop()
        atoms.sort()
        self.atoms = tuple(atoms)
        self.ops = ops
        self.box_subs = box_subs
        self.full = full = (1 << (1 << len(atoms))) - 1
        # rows where bit i is set: blocks of 2^i clear rows then 2^i set rows
        self.atom_masks = {
            a: full // ((1 << (1 << i)) + 1) << (1 << i) for i, a in enumerate(atoms)
        }
        self.all_boxes = (1 << len(box_subs)) - 1
        # box combination -> ({contribution vector: first row}, first falsifying row or -1)
        self.tables: dict[int, tuple[dict[int, int], int]] = {}
        self._combos: dict[tuple, dict[int, tuple]] = {}
        self._states: dict[tuple, dict[int, tuple]] = {}

    def default_bound(self) -> ModelBound:
        k = len(self.box_subs)
        return ModelBound(max_worlds=k + 2, max_depth=k + 1, max_branching=k + 1)

    def table(self, r: int) -> tuple[dict[int, int], int]:
        """Evaluate every subformula once, as one int over all rows, with the
        boxes fixed by `r`."""
        got = self.tables.get(r)
        if got is not None:
            return got
        full, masks = self.full, self.atom_masks
        vals: list[int] = []
        for kind, a, b in self.ops:
            if kind == _ATOM:
                vals.append(masks[a])
            elif kind == _NOT:
                vals.append(full ^ vals[a])
            elif kind == _OR:
                vals.append(vals[a] | vals[b])
            else:
                vals.append(full if (r >> a) & 1 else 0)
        # split the rows by the contribution vector they reach
        groups = {0: full}
        for j, sub in enumerate(self.box_subs):
            if not (r >> j) & 1:
                continue
            m, bit, nxt = vals[sub], 1 << j, {}
            for c, g in groups.items():
                hi = g & m
                if hi:
                    nxt[c | bit] = hi
                if hi != g:
                    nxt[c] = g ^ hi
            groups = nxt
        falsified = full ^ vals[-1]
        got = ({c: _low_bit(g) for c, g in groups.items()},
               _low_bit(falsified) if falsified else -1)
        self.tables[r] = got
        return got

    def combos(self, shape) -> dict[int, tuple]:
        """Achievable box combinations at a world with this subtree shape, each
        with one vector per child that reaches it."""
        got = self._combos.get(shape)
        if got is not None:
            return got
        if not shape:
            got = {self.all_boxes: ()}
        else:
            got = {c: (c,) for c in self.states(shape[0])}
            for child in shape[1:]:
                cs = self.states(child)
                nxt: dict[int, tuple] = {}
                for r, vecs in got.items():
                    for c in cs:
                        r2 = r & c
                        if r2 not in nxt:
                            nxt[r2] = vecs + (c,)
                got = nxt
        self._combos[shape] = got
        return got

    def states(self, shape) -> dict[int, tuple]:
        """Achievable contribution vectors at a world with this subtree shape,
        each with the row and child vectors that reach it."""
        got = self._states.get(shape)
        if got is not None:
            return got
        got = {}
        for r, vecs in self.combos(shape).items():
            for c, row in self.table(r)[0].items():
                if c not in got:
                    got[c] = (row, vecs)
        self._states[shape] = got
        return got

    def assignment(self, shape, row: int, vecs: tuple) -> tuple:
        """The per-world atom rows, in preorder, of one witnessed choice."""
        rows = (row,)
        for cs, c in zip(shape, vecs):
            rows += self.assignment(cs, *self.states(cs)[c])
        return rows


# Distinct countermodels kept per process.  Each entry holds one tree model
# within the call's bound; refutations of similar formulas mostly share one.
_COUNTERMODEL_CACHE = 1024


@lru_cache(maxsize=_COUNTERMODEL_CACHE)
def _countermodel(shape, atoms: tuple, rows: tuple) -> Model:
    """The model of a skeleton with per-world atom rows, whose root is w0:
    built and validated once, then shared by every verdict that finds it."""
    return _model(_frame(shape), atoms, rows)


def _low_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def oracle_validity(f: Formula, bound: Optional[ModelBound] = None) -> OracleVerdict:
    """Brute-force decision: smallest falsifying tree model wins, else Valid.

    Soundness is unconditional (the countermodel is re-checked by
    eval_formula).  Completeness holds when the bound covers the default
    bound for f, which is validated empirically against proof search.
    """
    tabs = _Tables(f)
    dflt = tabs.default_bound()
    if bound is None:
        bound = dflt
    tried = 0
    for n in range(1, bound.max_worlds + 1):
        for shape in _skeletons(n, bound.max_depth, bound.max_branching):
            tried += 1
            for r, vecs in tabs.combos(shape).items():
                row = tabs.table(r)[1]
                if row < 0:
                    continue
                model = _countermodel(shape, tabs.atoms, tabs.assignment(shape, row, vecs))
                root = model.worlds[0]
                if eval_formula(model, root, f):
                    raise AssertionError("oracle self-check failed: model does not refute")
                return OracleVerdict(False, model, root, skeletons=tried,
                                     tables=len(tabs.tables))
    return OracleVerdict(True, bound_too_small=not (bound >= dflt), skeletons=tried,
                         tables=len(tabs.tables))


# ---------------------------------------------------------------------------
# Labeled sequents and linear nested sequents, semantically

def eval_labeled_sequent(m: Model, assignment: dict[str, str], s: LabeledSequent) -> bool:
    """Satisfaction with one assignment: if all relational atoms and all
    antecedent formulas hold, some consequent formula holds.  Every label of
    s must be assigned a world of m (`UnknownWorld` otherwise)."""
    for x in s.labels():
        if x not in assignment:
            raise UnknownWorld(f"assignment missing label {x}")
        if assignment[x] not in m._succ:
            raise UnknownWorld(f"label {x} assigned unknown world {assignment[x]}")
    return _satisfies(m, assignment, s, {})


def _satisfies(m: Model, assignment: dict[str, str], s: LabeledSequent, memo: dict) -> bool:
    """`eval_labeled_sequent` on an assignment already known to cover s with
    worlds of m, evaluating through `_eval` with the caller's memo."""
    for x, y in s.rel:
        if (assignment[x], assignment[y]) not in m.rel:
            return True
    for x, g in s.ante:
        if not _eval(m, assignment[x], g, memo):
            return True
    return any(_eval(m, assignment[x], g, memo) for x, g in s.cons)


def labeled_sequent_valid(
    s: LabeledSequent, bound: Optional[ModelBound] = None
) -> tuple[bool, Optional[tuple[Model, dict]]]:
    """Desk-scale validity of a labeled sequent: enumerate models within the
    bound and all assignments; returns the first falsifying pair when one
    exists.  Each assignment maps the sorted labels of s to worlds of the
    model, so coverage needs no check per assignment, and all of a model's
    assignments share one (world, subformula) memo: each subformula is
    evaluated at most once per world of each model."""
    formulas = [g for _, g in s.ante] + [g for _, g in s.cons]
    boxed: set[Formula] = set()
    atom_names: set[str] = set()
    for g in formulas:
        for h in subformulas(g):
            if isinstance(h, Box):
                boxed.add(h)
            elif isinstance(h, Atom):
                atom_names.add(h.name)
    labels = sorted(s.labels())
    k = len(boxed)
    if bound is None:
        # enough worlds to separate the labels, enough depth for the boxes
        n = min(k + len(labels) + 1, 5)
        bound = ModelBound(n, n, max(k + 1, 2))
    atoms = sorted(atom_names) or ["p0"]
    for model in enumerate_models(tuple(atoms), bound):
        memo: dict[tuple, bool] = {}
        for assign in product(model.worlds, repeat=len(labels)):
            assignment = dict(zip(labels, assign))
            if not _satisfies(model, assignment, s, memo):
                return False, (model, assignment)
    return True, None


def enumerate_models(atom_names: tuple[str, ...], bound: ModelBound) -> Iterator[Model]:
    """All tree models within the bound, explicit valuations, deterministic
    order: by world count, then skeleton, then a bit string counting up,
    whose a-bit chunks, lowest first, are the worlds' atom rows in preorder."""
    a = len(atom_names)
    mask = (1 << a) - 1
    for n in range(1, bound.max_worlds + 1):
        for shape in _skeletons(n, bound.max_depth, bound.max_branching):
            frame = _frame(shape)
            for bits in range(1 << (a * n)):
                yield _model(frame, atom_names, [bits >> (i * a) & mask for i in range(n)])


# ---------------------------------------------------------------------------
# Formula interpretations of structured sequents

_TAUT = Or(Atom("p0"), Not(Atom("p0")))


def big_and(formulas) -> Formula:
    fs = list(formulas)
    if not fs:
        return _TAUT
    out = fs[-1]
    for g in reversed(fs[:-1]):
        out = conj(g, out)
    return out


def big_or(formulas) -> Formula:
    fs = list(formulas)
    if not fs:
        return Not(_TAUT)
    out = fs[-1]
    for g in reversed(fs[:-1]):
        out = Or(g, out)
    return out


def _conditional(ante, succedent: Formula) -> Formula:
    # an empty antecedent adds no implication, so no atom of a tautology
    return implies(big_and(ante), succedent) if ante else succedent


def gentzen_interpretation(s: GentzenSequent) -> Formula:
    return _conditional(s.ante, big_or(s.cons))


def lns_interpretation(g: LinearNestedSequent) -> Formula:
    """f(Gamma |- Delta // G) = /\\Gamma -> (\\/Delta or []f(G)), built from
    the last component out."""
    *outer, last = g.components
    out = _conditional(last.ante, big_or(last.cons))
    for comp in reversed(outer):
        rest = Box(out)
        out = _conditional(comp.ante, Or(big_or(comp.cons), rest) if comp.cons else rest)
    return out


# ---------------------------------------------------------------------------
# Model text format

def parse_model(text: str) -> Model:
    """Lines: `worlds: w1 w2`, `rel: w1<w2; w2<w3`, `val p: w1 w2`.
    The transitive closure is applied on load; irreflexivity is validated."""
    worlds: list[str] = []
    rel: set[tuple[str, str]] = set()
    val: dict[str, set[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("worlds:"):
            worlds.extend(line[len("worlds:"):].split())
        elif line.startswith("rel:"):
            body = line[len("rel:"):].strip()
            if body:
                for chunk in body.split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    if "<" not in chunk:
                        raise BadModel(f"bad relational atom {chunk!r}")
                    x, y = (part.strip() for part in chunk.split("<", 1))
                    rel.add((x, y))
        elif line.startswith("val "):
            head, _, body = line[len("val "):].partition(":")
            val.setdefault(head.strip(), set()).update(body.split())
        else:
            raise BadModel(f"unrecognized model line {raw!r}")
    # transitive closure: one reachability walk per world over successor sets
    succ: dict[str, set[str]] = {}
    for x, y in rel:
        succ.setdefault(x, set()).add(y)
    closure = set()
    for x, ys in succ.items():
        stack = list(ys)
        while stack:
            y = stack.pop()
            if (x, y) not in closure:
                closure.add((x, y))
                stack.extend(succ.get(y, ()))
    return Model(worlds, closure, val)


def print_model(m: Model) -> str:
    lines = ["worlds: " + " ".join(m.worlds)]
    lines.append("rel: " + "; ".join(f"{x}<{y}" for x, y in sorted(m.rel)))
    for a in sorted(m.valuation):
        lines.append(f"val {a}: " + " ".join(sorted(m.valuation[a])))
    return "\n".join(lines) + "\n"
