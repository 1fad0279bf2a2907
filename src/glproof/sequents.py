"""Sequent data shapes, proof trees, cyclic derivations, and tree queries.

Multiset sides are canonical: tuples sorted under the fixed formula order
(labeled sides by label, then formula), so multiset equality is plain
equality.  A side is sorted once, when a sequent is built from raw input;
rules then insert into sides already in order (`insert_sorted`, `with_ante`,
`with_cons`) and build with `of_sorted`, which does not sort again.  A
sequent computes its hash on the first `hash()` call, since most are built
only to be compared.  Tree sequents reuse the labeled-sequent
representation and have no other: `tree_root` validates one and returns its
root, the relation gives each label's children, and `flat_at` the flat
sequent at a label.

Walkers: a walk that builds a node's result from its children's is a
generator run by `trampoline`.  Where a recursive function would call itself,
a walker yields the sub-walk (or a tuple of sub-walks) and is sent back its
result (or the tuple of results).  Sub-walks run in the order yielded, on one
explicit stack, so proof height costs no recursion.  Public functions run the
trampoline; walkers yield each other.  `rules.derive`, which builds every
proof a pass makes, is no walker but a plain loop of two passes: its
sub-walks run in pre-order on one list, and the nodes are built in reverse
pre-order, so it makes no generator per node.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from operator import attrgetter, itemgetter
from typing import Iterable, Union

from .formula import Formula, print_formula


Label = str
Address = tuple[int, ...]


# the canonical order of formulas, and of labeled formulas; both build a
# formula's key if it has none
formula_key = attrgetter("key")
label_of = itemgetter(0)


def labeled_key(p: tuple[Label, Formula]):
    return (p[0], p[1].key)


def insert_sorted(side: tuple, items: tuple) -> tuple:
    """A canonical side with `items` added, still canonical: equal to
    sorting the concatenation, without sorting."""
    if not items:
        return side
    key = labeled_key if type(items[0]) is tuple else formula_key
    lst = list(side)
    for item in items:
        insort_right(lst, item, key=key)
    return tuple(lst)


def mset_remove(mset: tuple, item) -> tuple:
    """Remove one occurrence; raises ValueError if absent."""
    lst = list(mset)
    lst.remove(item)
    return tuple(lst)


def mset_diff(mset: tuple, items: Iterable) -> tuple:
    lst = list(mset)
    for item in items:
        lst.remove(item)
    return tuple(lst)


def mset_contains(mset: tuple, items: Iterable) -> bool:
    try:
        mset_diff(mset, items)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Gentzen sequents

class GentzenSequent:
    __slots__ = ("ante", "cons", "_hash")

    def __init__(self, ante: Iterable[Formula] = (), cons: Iterable[Formula] = ()):
        self.ante = tuple(sorted(ante, key=formula_key))
        self.cons = tuple(sorted(cons, key=formula_key))
        self._hash = None

    @classmethod
    def of_sorted(cls, ante: tuple, cons: tuple) -> "GentzenSequent":
        """A sequent from sides already canonical; they are not sorted again."""
        s = object.__new__(cls)
        s.ante, s.cons, s._hash = ante, cons, None
        return s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GentzenSequent)
            and self.ante == other.ante
            and self.cons == other.cons
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ante, self.cons))
        return h

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        left = ", ".join(print_formula(f) for f in self.ante)
        right = ", ".join(print_formula(f) for f in self.cons)
        return f"{left} |- {right}".strip()

    def with_ante(self, *add: Formula) -> "GentzenSequent":
        return GentzenSequent.of_sorted(insert_sorted(self.ante, add), self.cons)

    def with_cons(self, *add: Formula) -> "GentzenSequent":
        return GentzenSequent.of_sorted(self.ante, insert_sorted(self.cons, add))


# ---------------------------------------------------------------------------
# Labeled sequents (tree sequents share the representation)

class LabeledSequent:
    __slots__ = ("rel", "ante", "cons", "_hash")

    def __init__(
        self,
        rel: Iterable[tuple[Label, Label]] = (),
        ante: Iterable[tuple[Label, Formula]] = (),
        cons: Iterable[tuple[Label, Formula]] = (),
    ):
        self.rel = frozenset(rel)
        self.ante = tuple(sorted(ante, key=labeled_key))
        self.cons = tuple(sorted(cons, key=labeled_key))
        self._hash = None

    @classmethod
    def of_sorted(cls, rel: frozenset, ante: tuple, cons: tuple) -> "LabeledSequent":
        """A sequent from a frozenset `rel` and canonical sides, not sorted again."""
        s = object.__new__(cls)
        s.rel, s.ante, s.cons, s._hash = rel, ante, cons, None
        return s

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledSequent)
            and self.rel == other.rel
            and self.ante == other.ante
            and self.cons == other.cons
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.rel, self.ante, self.cons))
        return h

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        parts = [f"{x}R{y}; " for x, y in sorted(self.rel)]
        left = ", ".join(f"{x}: {print_formula(f)}" for x, f in self.ante)
        right = ", ".join(f"{x}: {print_formula(f)}" for x, f in self.cons)
        return f"{''.join(parts)}{left} |- {right}".strip()

    def labels(self) -> frozenset[Label]:
        labs = {x for x, _ in self.ante} | {x for x, _ in self.cons}
        for x, y in self.rel:
            labs.add(x)
            labs.add(y)
        return frozenset(labs)

    def has_label(self, x: Label) -> bool:
        """Whether `x in self.labels()`, without building the set: the sides
        are sorted by label, so each is one bisection."""
        for pair in self.rel:
            if x in pair:
                return True
        for side in (self.ante, self.cons):
            i = bisect_left(side, x, key=label_of)
            if i < len(side) and side[i][0] == x:
                return True
        return False

    def flat_at(self, x: Label) -> GentzenSequent:
        """The flat sequent of the items at label x, which keep their order."""
        return GentzenSequent.of_sorted(tuple(f for lab, f in self.ante if lab == x),
                                        tuple(f for lab, f in self.cons if lab == x))

    def with_rel(self, *pairs: tuple[Label, Label]) -> "LabeledSequent":
        return LabeledSequent.of_sorted(self.rel | set(pairs), self.ante, self.cons)

    def with_ante(self, *add: tuple[Label, Formula]) -> "LabeledSequent":
        return LabeledSequent.of_sorted(self.rel, insert_sorted(self.ante, add), self.cons)

    def with_cons(self, *add: tuple[Label, Formula]) -> "LabeledSequent":
        return LabeledSequent.of_sorted(self.rel, self.ante, insert_sorted(self.cons, add))

    def rename(self, mapping: dict[Label, Label]) -> "LabeledSequent":
        """Simultaneous label renaming."""
        new = {x: mapping.get(x, x) for x in self.labels()}
        rel = frozenset((new[x], new[y]) for x, y in self.rel)
        ante = [(new[x], f) for x, f in self.ante]
        cons = [(new[x], f) for x, f in self.cons]
        if len(set(new.values())) < len(new):
            return LabeledSequent(rel, ante, cons)
        # injective here: each label's items are still in key order, so a
        # stable sort by the new label alone makes the sides canonical
        ante.sort(key=label_of)
        cons.sort(key=label_of)
        return LabeledSequent.of_sorted(rel, tuple(ante), tuple(cons))


# ---------------------------------------------------------------------------
# Linear nested sequents

class LinearNestedSequent:
    __slots__ = ("components", "_hash")

    def __init__(self, components: Iterable[GentzenSequent]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a linear nested sequent has at least one component")
        self._hash = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearNestedSequent)
            and self.components == other.components
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self.components)
        return h

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"<{self}>"

    def __str__(self) -> str:
        return " // ".join(str(c) for c in self.components)

    @property
    def end(self) -> GentzenSequent:
        return self.components[-1]

    def replace_end(self, *tail: GentzenSequent) -> "LinearNestedSequent":
        return LinearNestedSequent(self.components[:-1] + tail)


Sequent = Union[GentzenSequent, LabeledSequent, LinearNestedSequent]


# ---------------------------------------------------------------------------
# Tree structure queries

class NotATree(Exception):
    """Raised when a labeled sequent fails the tree-sequent conditions."""

    def __init__(self, diagnosis: str, detail: str = ""):
        self.diagnosis = diagnosis  # cycle | disconnected | multi-root | dangling-label
        super().__init__(f"{diagnosis}{': ' + detail if detail else ''}")


def tree_root(t: LabeledSequent) -> Label:
    """Return the unique root; validates the tree-sequent conditions.

    For flat sequents (no relational atoms) the shared label is the root.
    """
    if not t.rel:
        labs = t.labels()
        if len(labs) == 1:
            return next(iter(labs))
        if not labs:
            raise NotATree("dangling-label", "empty sequent has no label")
        raise NotATree("disconnected", "flat sequent with several labels")

    tree_labs: set[Label] = set()
    for x, y in t.rel:
        tree_labs.add(x)
        tree_labs.add(y)
    formula_labs = {x for x, _ in t.ante} | {x for x, _ in t.cons}
    stray = formula_labs - tree_labs
    if stray:
        raise NotATree("dangling-label", ", ".join(sorted(stray)))

    children: dict[Label, list[Label]] = {x: [] for x in tree_labs}
    indeg = {x: 0 for x in tree_labs}
    for x, y in t.rel:
        children[x].append(y)
        indeg[y] += 1

    if any(d > 1 for d in indeg.values()):
        raise NotATree("cycle")
    # with in-degrees <= 1, a label that no root reaches lies on or below a
    # cycle; once all are reached, a second root is the only way to disconnect
    roots = [x for x, d in indeg.items() if d == 0]
    reached = len(roots)
    stack = list(roots)
    while stack:
        kids = children[stack.pop()]
        reached += len(kids)
        stack.extend(kids)
    if reached != len(tree_labs):
        raise NotATree("cycle")
    if len(roots) != 1:
        raise NotATree("multi-root", ", ".join(sorted(roots)))
    return roots[0]


def root_path(t: LabeledSequent, x: Label) -> list[Label]:
    """The unique label path from the root down to x."""
    parent = {y: a for a, y in t.rel}
    path = [x]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def project_chain(t: LabeledSequent, chain: list[Label]) -> LinearNestedSequent:
    """The flat sequents at the labels of `chain`, in chain order; each side
    is grouped by label in one pass, keeping each label's items in order."""
    ante: dict[Label, list[Formula]] = {x: [] for x in chain}
    cons: dict[Label, list[Formula]] = {x: [] for x in chain}
    for side, groups in ((t.ante, ante), (t.cons, cons)):
        for x, f in side:
            if x in groups:
                groups[x].append(f)
    return LinearNestedSequent([GentzenSequent.of_sorted(tuple(ante[x]), tuple(cons[x]))
                                for x in chain])


# ---------------------------------------------------------------------------
# Proofs and cyclic derivations

SEQUENT_OF = {"glseq": GentzenSequent, "k4seq": GentzenSequent, "g3gl": LabeledSequent,
              "g3glext": LabeledSequent, "csgl": LabeledSequent, "lngl": LinearNestedSequent}

OPEN = "open"  # pseudo-rule for open leaves of cyclic derivations / unfoldings

# the meta keys whose values are labels
LABEL_KEYS = ("label", "aux", "fresh", "x", "y", "z")


class Proof:
    """Finite rule-application tree; `meta` pins the instance data that makes
    premise reconstruction deterministic (principals, partitions, fresh labels).
    Proofs compare by value, node by node; no recursion.

    A node is never mutated once built: no field is assigned and no `meta`
    is changed in place; a pass that changes a node builds a new one.
    `goals` is what `rules.premises_of` returned for the node, recorded by
    `rules.derive`, the one place that sets it; it is None on every node
    built any other way.  It takes no part in equality."""

    __slots__ = ("calculus", "rule", "conclusion", "premises", "meta", "goals")

    def __init__(self, calculus: str, rule: str, conclusion: Sequent,
                 premises: tuple[Proof, ...] = (), meta: dict | None = None):
        self.calculus = calculus
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises
        self.meta = {} if meta is None else meta
        self.goals = None

    def __eq__(self, other) -> bool:
        if type(other) is not Proof:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(b) is not Proof or (
                a.calculus != b.calculus or a.rule != b.rule or a.conclusion != b.conclusion
                or len(a.premises) != len(b.premises) or a.meta != b.meta
            ):
                return False
            stack.extend(zip(a.premises, b.premises))
        return True

    def __repr__(self) -> str:
        return (f"Proof({self.calculus!r}, {self.rule!r}, {self.conclusion!r}, "
                f"{len(self.premises)} premises)")

    def height(self) -> int:
        return self.size()[1]

    def node_count(self) -> int:
        return self.size()[0]

    def size(self) -> tuple[int, int]:
        """(node count, height), from one walk; no recursion."""
        count = height = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            count += 1
            height = max(height, depth)
            stack.extend((q, depth + 1) for q in node.premises)
        return count, height

    def at(self, addr: Address) -> "Proof":
        node = self
        for i in addr:
            node = node.premises[i]
        return node

    def nodes(self) -> Iterable[tuple[Address, "Proof"]]:
        """Every node with its address, in pre-order; no recursion."""
        stack: list[tuple[Address, Proof]] = [((), self)]
        while stack:
            addr, node = stack.pop()
            yield addr, node
            for i in range(len(node.premises) - 1, -1, -1):
                stack.append((addr + (i,), node.premises[i]))

    def retag(self, calculus: str) -> "Proof":
        return rebuild(self, lambda node, prems: Proof(
            calculus, node.rule, node.conclusion, prems, dict(node.meta)))


class CyclicDerivation:
    """Finite K4seq derivation with open leaves plus a back-link map from
    open-leaf addresses to ancestor addresses."""

    __slots__ = ("derivation", "backlinks")

    def __init__(self, derivation: Proof, backlinks: dict[Address, Address]):
        self.derivation = derivation
        self.backlinks = backlinks


def format_address(addr: Address) -> str:
    return "/".join(str(i) for i in addr) if addr else "."


def parse_address(text: str) -> Address:
    text = text.strip()
    if text in (".", ""):
        return ()
    return tuple(int(part) for part in text.split("/"))


def trampoline(walk):
    """Run the walker `walk` to its result (see the module docstring); an
    empty tuple is answered at once.  Exceptions propagate out unchanged."""
    stack: list = []  # (suspended walker, its sub-walks, their results, many)
    gen, value = walk, None
    while True:
        try:
            sub = gen.send(value)
        except StopIteration as stop:
            if not stack:
                return stop.value
            parent, subs, done, many = stack[-1]
            done.append(stop.value)
            if len(done) < len(subs):
                gen, value = subs[len(done)], None
            else:
                stack.pop()
                gen, value = parent, tuple(done) if many else done[0]
            continue
        many = type(sub) is tuple
        if many and not sub:
            value = ()
        else:
            stack.append((gen, sub if many else (sub,), [], many))
            gen, value = stack[-1][1][0], None


def rebuild(proof: Proof, make) -> Proof:
    """A copy of `proof` built bottom-up: each node becomes
    make(node, its rebuilt premises)."""
    def walk(node: Proof):
        return make(node, (yield tuple(map(walk, node.premises))))

    return trampoline(walk(proof))


def fresh_label(used: set[Label], stem: str = "y") -> Label:
    i = 0
    while f"{stem}{i}" in used:
        i += 1
    return f"{stem}{i}"
