"""Constructive proof transformations between the formalisms.

The module holds the admitted weakening, dissolved into the proof by
`weaken` in every calculus, height-preserving rule inversion, rule
permutation, end-activation, linearization into LNGL, normalization, the
translation into the Gentzen calculus GLseq, which contracts on its rule
tree, the labeled-calculus embedding of Gentzen proofs, and the bounded
unfolder for cyclic derivations.  Every pass and lemma but the unfolder
builds a rule tree, rules and metas without conclusions, and derives it
with `rules.derive`: once, or in end-activation twice per move.

The passes map checked proofs to checked proofs, every stage checked, on
each input they have been run on, which is evidence, not a proof, that
they are total: the CSGL proofs that search makes for the 65,380 theorems
of `tests/totality_sweep.py` and the 400 of the Löb corpus
(`tests/lob_corpus.py`), and the random-strategy proofs of
`tests/random_proofs.py` for those theorems and for the first 1,000
theorems drawn at `random.Random(5)` and at `random.Random(6)`: 133,560
proofs, 67,780 of them random-strategy proofs.  End-activation, the one
pass that restructures a proof search did not make, prunes the rules
nothing reads before and after every exchange, and it raised on none.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterator, Optional

from .formula import Atom, Box, Formula, Not
from .rules import (INITIAL_RULES, LOCAL_RULE_OF, LOCAL_RULES, PROPAGATION_RULES, RULES_OF,
                    RuleError, derive, premises_of)
from .sequents import (
    LABEL_KEYS,
    OPEN,
    Address,
    CyclicDerivation,
    GentzenSequent,
    LabeledSequent,
    NotATree,
    Proof,
    formula_key,
    fresh_label,
    project_chain,
    root_path,
    trampoline,
    tree_root,
)
from .checkers import (BLOCK_BELOW, block_violations, end_active_report, node_end_active,
                       normal_form_report)


class TransformError(Exception):
    """A pass failed.  `address` is the node it failed at, in the proof it
    was rewriting; the root's, (), when no deeper node is to blame."""

    def __init__(self, message: str, address: Address = ()):
        super().__init__(message)
        self.address = address


class NotApplicable(TransformError):
    pass


class NotPermutable(TransformError):
    pass


class ShapeViolation(TransformError):
    pass


class NotEndActive(TransformError):
    pass


class NotNormalForm(TransformError):
    pass


class InternalNonTermination(TransformError):
    pass


LABELED = ("g3gl", "g3glext", "csgl")
GENTZEN = ("glseq", "k4seq")


# ---------------------------------------------------------------------------
# Rule trees: every pass and lemma below builds one and derives it

def _schema(calculus: str, rule: str, meta: dict, conclusion) -> list:
    try:
        return premises_of(calculus, rule, meta, conclusion)
    except RuleError as e:
        raise NotApplicable(f"{rule} does not apply: {e}") from e


class _RuleNode:
    """A node of a rule tree: rules and metas without conclusions, with a
    premise list that moves can rewire."""

    __slots__ = ("rule", "meta", "premises")

    def __init__(self, rule: str, meta: dict, premises: Optional[list] = None):
        self.rule = rule
        self.meta = meta
        self.premises: list[_RuleNode] = [] if premises is None else premises


def _derive(calculus: str, tree: _RuleNode, conclusion, failing: str) -> Proof:
    """`rules.derive` on a rule tree; a rule that does not apply raises
    NotApplicable, its message prefixed with `failing`."""
    try:
        return derive(calculus, tree, conclusion, lambda n: (n.rule, n.meta, n.premises))
    except RuleError as e:
        raise NotApplicable(f"{failing}: {e}") from e


def _rule_tree(p: Proof) -> tuple[_RuleNode, int]:
    """p's rule tree, with copies of its metas, and its node count."""
    root = _RuleNode(p.rule, dict(p.meta))
    queue = [(p, root)]
    for node, copy in queue:  # breadth-first: the loop reads what it appends
        for q in node.premises:
            copy.premises.append(_RuleNode(q.rule, dict(q.meta)))
            queue.append((q, copy.premises[-1]))
    return root, len(queue)


def _at(tree: _RuleNode, addr: Address) -> _RuleNode:
    for i in addr:
        tree = tree.premises[i]
    return tree


def _replaced(tree: _RuleNode, addr: Address, new: _RuleNode) -> _RuleNode:
    """tree with its node at `addr` replaced by `new`, in place below the root."""
    if not addr:
        return new
    _at(tree, addr[:-1]).premises[addr[-1]] = new
    return tree


def _fresh_apart(tree: _RuleNode, conclusion, taken: set) -> Optional[_RuleNode]:
    """tree, which derives a proof of `conclusion`, with each boxR whose fresh
    label lies in `taken` given, in pre-order, a label used nowhere in that
    proof nor in `taken`; the renaming holds in the boxR's premise, and a
    label kept joins `taken`.  Renamed nodes are replaced by copies, in
    place; None when no label changes."""
    used = None
    top = [tree]
    stack = [(top, 0, {})]
    while stack:
        slot, i, mapping = stack.pop()
        node = slot[i]
        meta = node.meta
        if mapping:
            meta = {k: mapping.get(v, v) if k in LABEL_KEYS else v for k, v in meta.items()}
        if node.rule == "boxR" and (y := meta["fresh"]) not in taken:
            taken.add(y)
        elif node.rule == "boxR":
            if used is None:
                # a proof's labels are its conclusion's and its boxRs' fresh labels
                used, walk = taken | conclusion.labels(), [tree]
                while walk:
                    n = walk.pop()
                    if n.rule == "boxR":
                        used.add(n.meta["fresh"])
                    walk.extend(n.premises)
            z = fresh_label(used)
            used.add(z)
            meta = dict(meta, fresh=z)
            # the renamings so far, then y to z
            mapping = {y: z, **{k: z if v == y else v for k, v in mapping.items()}}
        if meta is not node.meta:
            node = slot[i] = _RuleNode(node.rule, meta, node.premises)
        stack.extend((node.premises, j, mapping) for j in range(len(node.premises) - 1, -1, -1))
    return None if used is None else top[0]


# ---------------------------------------------------------------------------
# Generalized identity

def prove_general_id(calculus: str, goal, principal) -> Proof:
    """A proof of `goal`, which carries `principal` on both sides (labeled
    calculi take principal=(label, formula))."""
    return _derive(calculus, _general_id(calculus, principal), goal,
                   "the general identity does not apply")


def _general_id(calculus: str, principal) -> _RuleNode:
    """The rule tree of the general identity, by structural induction on the
    formula: a `~` or `|` is decomposed on the right, then on the left, and
    id1/id2 (or Gentzen id) close the base cases."""
    labeled = calculus in LABELED
    label, f = principal if labeled else (None, principal)
    top: list[_RuleNode] = []
    stack = [(f, top)]
    while stack:
        g, out = stack.pop()
        meta = {"label": label, "principal": g} if labeled else {"principal": g}
        lower = None if calculus in GENTZEN else LOCAL_RULE_OF.get((type(g), False))
        if lower is None:
            rule = "id" if calculus in GENTZEN else "id1" if isinstance(g, Atom) else "id2"
            out.append(_RuleNode(rule, meta))
        else:
            upper = _RuleNode(LOCAL_RULE_OF[type(g), True], dict(meta))
            out.append(_RuleNode(lower, meta, [upper]))
            stack.extend((h, upper.premises) for h in reversed(_parts(g)))
    return top[0]


def _parts(f: Formula) -> tuple:
    return (f.sub,) if isinstance(f, Not) else (f.left, f.right)


# ---------------------------------------------------------------------------
# Hp-admissible weakening

def weaken(p: Proof, target) -> Proof:
    """Admissible weakening, dissolved into the proof (no w node appears): a
    proof of `target`, a conclusion that contains p's.  p's rule tree is
    derived at the target, so the height is p's.  A boxR fresh label that
    occurs in a labeled target is renamed first.  A target without a formula
    that some rule of p uses raises NotApplicable.
    """
    return _derive(p.calculus, _weakened(p, target), target, "weakening cannot derive a rule")


def _weakened(p: Proof, target) -> _RuleNode:
    """p's rule tree, for a proof of `target`: on a labeled proof, each boxR
    fresh label that lies in the target is renamed, in pre-order, to one that
    occurs nowhere else in p or in the target."""
    if p.calculus == "csgl":
        # every goal derived from a tree target is a tree (tree preservation)
        try:
            tree_root(target)
        except NotATree as e:
            raise ShapeViolation(f"weakening breaks the tree shape: {e}") from e
    tree = _rule_tree(p)[0]
    if p.calculus not in LABELED:
        return tree
    return _fresh_apart(tree, p.conclusion, set(target.labels())) or tree


# ---------------------------------------------------------------------------
# Hp-invertibility

def apply_inverse(rule: str, i: int, p: Proof, meta: dict) -> Proof:
    """A proof of the i-th premise of the given rule instance, whose
    conclusion is p's conclusion: the local rules, and the rules whose
    premise only adds to the conclusion, invert; every other rule (`boxR`,
    `boxGL`, `box4`) raises NotApplicable."""
    tree, target = _inverse(rule, i, p, meta)
    return _derive(p.calculus, tree, target, f"inversion of {rule} cannot derive a rule")


def _inverse(rule: str, i: int, p: Proof, meta: dict) -> tuple[_RuleNode, object]:
    """The rule tree of `apply_inverse(rule, i, p, meta)`, and its conclusion."""
    goals = _schema(p.calculus, rule, meta, p.conclusion)
    if not 0 <= i < len(goals):
        raise NotApplicable(f"{rule} has no premise {i}")
    target = goals[i]
    if rule in PROPAGATION_RULES or rule == "tr":
        return _weakened(p, target), target
    if rule in LOCAL_RULES:
        return _inverted(rule, i, p, meta, target), target
    raise NotApplicable(f"no inversion for {rule} in {p.calculus}")


def _inverted(rule: str, i: int, p: Proof, meta: dict, target) -> _RuleNode:
    """The rule tree of a proof of `target`, p's conclusion with the local
    rule instance (rule, meta) inverted.  Walking p top-down, it tracks the
    sequent with `premises_of` and builds no proof: on each branch, the
    lowest application of the instance gives way to its premise i, and a
    premise whose conclusion does not change (a boxGL premise) is kept.  An
    initial rule whose witness the inversion destroyed fails, but a Gentzen
    id is rebuilt around the decomposed witness."""
    calculus = p.calculus
    top: list = [None]
    stack = [(p, target, top, 0)]
    while stack:
        node, seq, slot, k = stack.pop()
        if node.rule == rule and all(node.meta.get(key) == v for key, v in meta.items()):
            slot[k] = _rule_tree(node.premises[i])[0]
        elif node.premises:
            new = slot[k] = _RuleNode(node.rule, dict(node.meta))
            for q, goal in zip(node.premises, _schema(calculus, node.rule, node.meta, seq)):
                if q.conclusion == goal:
                    new.premises.append(_rule_tree(q)[0])
                else:
                    new.premises.append(None)
                    stack.append((q, goal, new.premises, len(new.premises) - 1))
        else:
            try:
                premises_of(calculus, node.rule, node.meta, seq)
                slot[k] = _RuleNode(node.rule, dict(node.meta))
            except RuleError:
                if calculus not in GENTZEN or node.rule != "id":
                    raise NotApplicable("inversion destroyed an initial sequent") from None
                c = node.conclusion
                w = node.meta.get("principal") or next(iter(set(c.ante) & set(c.cons)))
                slot[k] = _gentzen_id(calculus, seq, w)
    return top[0]


def _gentzen_id(calculus: str, target: GentzenSequent, w: Formula) -> _RuleNode:
    """The rule tree of a proof of `target`, whose general id lost its
    witness w on one side: id on a shared formula if there is one, else w's
    surviving copy decomposed, each premise closed on the part of w it
    shares."""
    shared = set(target.ante) & set(target.cons)
    if shared:
        return _RuleNode("id", {"principal": min(shared, key=formula_key)})
    rule = LOCAL_RULE_OF.get((type(w), w in target.ante))
    if rule is None:
        raise NotApplicable("cannot rebuild the initial sequent after inversion")
    meta = {"principal": w}
    subs = []
    for prem in _schema(calculus, rule, meta, target):
        part = next((g for g in _parts(w) if g in prem.ante and g in prem.cons), None)
        if part is None:
            raise NotApplicable("cannot rebuild the initial sequent after inversion")
        subs.append(_general_id(calculus, part))
    return _RuleNode(rule, meta, subs)


# ---------------------------------------------------------------------------
# Rule permutation

def permute_down(p: Proof, addr: Address) -> Proof:
    """Permute a non-end-active local or propagation rule below the end-active
    rule immediately under it (CSGL): one exchange on p's rule tree, derived
    once.  A boxR that the exchange copies keeps its fresh label in its
    first copy; the others get labels used nowhere else in the proof."""
    tree = _exchange(_rule_tree(p)[0], p, addr)
    tree = _fresh_apart(tree, p.conclusion, set()) or tree
    return _derive(p.calculus, tree, p.conclusion, "permutation cannot derive its rules")


def _exchange(tree: _RuleNode, proof: Proof, addr: Address) -> _RuleNode:
    """tree, the rule tree of the CSGL proof `proof`, with the rule at `addr`
    permuted below the end-active rule under it, per the four permutation
    shapes: the rule takes its parent's place, and above its premise i sits
    a copy of the parent whose premise in the rule's place is the rule's
    premise i and whose other premises are the parent's, inverted at premise
    i of the rule.  A boxR among the copied rules keeps its fresh label in
    each copy.  The tree changes only when the exchange succeeds."""
    if proof.calculus != "csgl":
        raise NotPermutable("permute_down operates on CSGL proofs")
    child = proof.at(addr)
    r, mr = child.rule, child.meta
    if r not in LOCAL_RULES and r not in PROPAGATION_RULES:
        raise NotPermutable(f"{r} is not a local or propagation rule")
    if node_end_active(child):
        raise NotPermutable("the rule is already end-active")
    if not addr:
        raise NotPermutable("the root has nothing below it")
    parent, j = proof.at(addr[:-1]), addr[-1]
    if parent.rule in INITIAL_RULES:
        raise NotPermutable("the rule below is initial")
    if not node_end_active(parent):
        raise NotPermutable("the rule below is not end-active")
    try:
        low_targets = premises_of("csgl", r, mr, parent.conclusion)
    except RuleError as e:
        raise NotPermutable(f"{r} does not apply at the lower sequent: {e}") from e
    above = _at(tree, addr).premises
    uppers = []
    for i, tgt in enumerate(low_targets):
        try:
            upper_targets = premises_of("csgl", parent.rule, parent.meta, tgt)
        except RuleError as e:
            raise NotPermutable(f"{parent.rule} does not apply above: {e}") from e
        prems = []
        for k, tgt2 in enumerate(upper_targets):
            if k == j:
                sub, concl = above[i], child.premises[i].conclusion
            else:
                sub, concl = _inverse(r, i, parent.premises[k], mr)
            if concl != tgt2:
                raise NotPermutable("permutation shapes do not align")
            prems.append(sub)
        uppers.append(_RuleNode(parent.rule, dict(parent.meta), prems))
    return _replaced(tree, addr[:-1], _RuleNode(r, dict(mr), uppers))


# ---------------------------------------------------------------------------
# End-activation

def to_end_active(p: Proof) -> Proof:
    """Restructure a CSGL proof of |- x: f so that every rule application is
    end-active: the rules that nothing above reads are pruned, and then, one
    move at a time, the lowest rule that is not end-active is exchanged
    below the rule under it and the result pruned again."""
    return _end_active(p)[0]


def _end_active(p: Proof) -> tuple[Proof, int]:
    """`to_end_active` and its exchange count.  A proof already end-active is
    returned as it is.  Each move derives the exchanged rule tree, prunes the
    proof and derives the pruned tree; an exchange that is not possible
    raises InternalNonTermination at the rule's address."""
    c = p.conclusion
    if c.rel or c.ante or len(c.cons) != 1:
        raise NotEndActive("end-activation needs a conclusion of the form |- x: f")
    if end_active_report(p).accepted:
        return p, 0
    budget = p.node_count() ** 2 * 4 + 64
    failing = "end-activation cannot derive its moves"
    tree = _pruned(p)
    proof = _derive("csgl", tree, c, failing)
    permutations = 0
    while failures := end_active_report(proof).failures:
        budget -= 1
        if budget < 0:
            raise InternalNonTermination("end-activation exceeded its permutation budget")
        addr = min((f.address for f in failures), key=lambda a: (len(a), a))
        try:
            tree = _exchange(tree, proof, addr)
        except NotPermutable as e:
            raise InternalNonTermination(
                f"no permutation available for {proof.at(addr).rule}: {e}", addr) from e
        permutations += 1
        tree = _pruned(_derive("csgl", tree, c, failing))
        proof = _derive("csgl", tree, c, failing)
    # a fresh label copied by an exchange stays with its first boxR in
    # pre-order; the others are renamed only now, since a later move can
    # delete any copy, the first one too
    if (renamed := _fresh_apart(tree, c, set())) is not None:
        proof = _derive("csgl", renamed, c, failing)
    return proof, permutations


def _pruned(p: Proof) -> _RuleNode:
    """The rule tree of the CSGL proof p without the rules that nothing above
    reads, which derives a proof of p's conclusion.  One walk, bottom-up,
    carries each kept subproof's reads: the items of its conclusion it
    needs, relational atoms and labeled formulas tagged with their side.
    A rule gives way to its first premise whose reads hold nothing the rule
    adds there (for orL, the premise that does not read its own disjunct);
    a kept rule reads what each premise reads and the rule did not add,
    and its own reads."""
    done: list[tuple[_RuleNode, set]] = []  # each subproof's tree and reads
    stack = [(p, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            stack.extend((q, False) for q in reversed(node.premises))
            continue
        k = len(done) - len(node.premises)
        subs = done[k:]
        del done[k:]
        reads = _own_reads(node)
        for q, (tree, above) in zip(node.premises, subs):
            added = _added(q.conclusion, node.conclusion)
            if above.isdisjoint(added):
                done.append((tree, above))
                break
            reads |= above - added
        else:
            done.append((_RuleNode(node.rule, dict(node.meta), [t for t, _ in subs]), reads))
    return done[0][0]


def _own_reads(node: Proof) -> set:
    """The items a CSGL rule reads in its conclusion: its principal, its id
    witness on both sides, or its propagation's box and edge."""
    m, rule = node.meta, node.rule
    if rule in PROPAGATION_RULES:
        return {("L", m["label"], Box(m["phi"])), (m["label"], m["aux"])}
    if rule == "boxR":
        return {("R", m["label"], Box(m["phi"]))}
    item = m["label"], m["principal"]
    if rule in INITIAL_RULES:
        return {("L", *item), ("R", *item)}
    return {(rule[-1], *item)}


def _added(premise: LabeledSequent, conclusion: LabeledSequent) -> set:
    """The items a rule adds in a premise: the relational atoms it has that
    the conclusion lacks, and the side-tagged labeled formulas of which it
    has more copies."""
    added = set(premise.rel - conclusion.rel)
    for tag, more, less in (("L", premise.ante, conclusion.ante),
                            ("R", premise.cons, conclusion.cons)):
        if more != less:
            added.update((tag, *item) for item in Counter(more) - Counter(less))
    return added


# ---------------------------------------------------------------------------
# Linearization into LNGL

def linearize(p: Proof) -> Proof:
    """Shed the tree structure of an end-active CSGL proof, keeping one
    root-to-leaf path per branch: an LNGL proof of the projection of p's
    conclusion on the root path of its end, the label the kept leaf ends
    at.  A leaf's end is its label; a boxR is kept when the end is its fresh
    label, which its own label then replaces; any other rule is kept when
    every premise ends at its label (the aux of 4L and boxL).  The kept
    rules are derived once, top-down, so a dropped boxR's principal rides
    through the subproof above it."""
    # checked up front: `lin` drops sibling subtrees unseen, so it cannot
    # find every rule application that is not end-active
    if not end_active_report(p).accepted:
        raise NotEndActive("linearization needs an end-active proof")

    def lin(node: Proof):
        rule = node.rule
        if rule == "boxR":
            end, sub = yield lin(node.premises[0])
            if end != node.meta["fresh"]:
                return end, sub
            return node.meta["label"], _RuleNode("boxR", {"phi": node.meta["phi"]}, [sub])
        if rule not in RULES_OF["csgl"]:
            raise NotApplicable(f"linearization does not handle rule {rule}")
        x = node.meta["aux" if rule in PROPAGATION_RULES else "label"]
        subs = []
        for q in node.premises:
            end, sub = yield lin(q)
            if end != x:
                return end, sub
            subs.append(sub)
        meta = {k: v for k, v in node.meta.items() if k not in ("label", "aux")}
        return x, _RuleNode(rule, meta, subs)

    end, tree = trampoline(lin(p))
    c = p.conclusion
    return _derive("lngl", tree, project_chain(c, root_path(c, end)),
                   "linearization cannot derive its kept rules")


# ---------------------------------------------------------------------------
# Normalization of LNGL proofs

def _lowest_mover(boxr: _RuleNode) -> Optional[Address]:
    """The address in boxr's block of the lowest 4L block violation by
    (len, addr), or when there is none of the lowest boxL one."""
    def order(addr: Address):
        node = boxr
        for i in addr:
            node = node.premises[i]
        return node.rule != "4L", len(addr), addr

    return min((f.address for f in block_violations(boxr)), key=order, default=None)


def normalize_lngl(p: Proof) -> Proof:
    """Settle each modal block inside its own boxR's subproof, in pre-order:
    move the lowest 4L block violation down, or when there is none the
    lowest boxL one, until the block has the complete-block shape.  A proof
    already in normal form is returned as it is.

    Rules move on p's rule tree, which holds no conclusions: moving a 4L or
    boxL below its parent weakens the parent's other premises, and in LNGL
    that changes their conclusions, never their rules.  A moved rule stays
    the lowest violation until it settles, and a move makes none lower, so
    each picked rule goes all the way down.  Every conclusion is then
    derived once, top-down from p's."""
    return _normalize(p)[0]


def _normalize(p: Proof) -> tuple[Proof, int]:
    permutations = 0
    if not normal_form_report(p).accepted:
        tree, count = _rule_tree(p)
        budget = count ** 2 * 8 + 64
        stack = [tree]
        while stack:
            node = stack.pop()
            while node.rule == "boxR" and (addr := _lowest_mover(node)) is not None:
                path = [node]
                for i in addr:
                    path.append(path[-1].premises[i])
                mover = path.pop()
                allowed = BLOCK_BELOW[mover.rule]
                while path[-1].rule not in allowed:
                    budget -= 1
                    if budget < 0:
                        raise InternalNonTermination(
                            "normalization exceeded its permutation budget")
                    # the mover takes its parent's place, and its premise
                    # takes the mover's place above the parent
                    parent = path.pop()
                    d = len(path)
                    parent.premises[addr[d]] = mover.premises[0]
                    mover.premises[0] = parent
                    path[-1].premises[addr[d - 1]] = mover
                    permutations += 1
            stack.extend(reversed(node.premises))
        p = _derive(p.calculus, tree, p.conclusion, "normalization cannot re-derive its moves")
        if not normal_form_report(p).accepted:
            raise InternalNonTermination("normalization missed a block violation")
    return p, permutations


# ---------------------------------------------------------------------------
# LNGL (normal form) to GLseq

def lngl_to_glseq(p: Proof) -> Proof:
    """Translate a normal-form LNGL proof componentwise into one GLseq rule
    tree: a local rule maps to the same rule on the end component, id1 and
    id2 to id, and each modal block to one boxGL, whose gamma holds each
    formula max(4L count, boxL count) times, clipped to the boxes that the
    block's end component supplies.  A block that clips leaves copies that
    no boxGL premise supplies; `_contract_tree` takes them out of the tree.
    Every conclusion is then derived once, top-down, so each boxGL premise
    carries the whole box partition.  A block violation is a 4L or boxL
    outside the prefix of its modal block, which the walk reaches as a rule
    outside a modal block: NotNormalForm."""
    top: list[_RuleNode] = []
    stack = [(p, top)]
    clips = False
    while stack:
        node, out = stack.pop()
        rule = node.rule
        if rule in LOCAL_RULES or rule in ("id1", "id2"):
            # id1 and id2 are instances of id
            out.append(_RuleNode("id" if rule in ("id1", "id2") else rule,
                                 {"principal": node.meta["principal"]}))
            stack.extend((q, out[-1].premises) for q in reversed(node.premises))
        elif rule == "boxR":
            cur = node.premises[0]
            from_4l, from_boxl = Counter(), Counter()
            for prefix, count in (("4L", from_4l), ("boxL", from_boxl)):
                while cur.rule == prefix:
                    count[cur.meta["phi"]] += 1
                    cur = cur.premises[0]
            most = from_4l | from_boxl
            gamma = _supplied(most, node.conclusion.end)
            clips = clips or len(gamma) < most.total()
            out.append(_RuleNode("boxGL", {"gamma": gamma, "phi": node.meta["phi"]}))
            stack.append((cur, out[-1].premises))
        else:
            raise NotNormalForm(f"unexpected {rule} outside a modal block")
    tree, end = top[0], p.conclusion.end
    if clips:
        tree = _contract_tree(tree, end)
    return _derive("glseq", tree, end, "translation cannot derive its rules")


def _supplied(gamma: Counter, conclusion: GentzenSequent) -> tuple:
    """The multiset gamma clipped to the boxes that conclusion's antecedent
    supplies, in canonical order."""
    boxes = Counter(g.sub for g in conclusion.ante if isinstance(g, Box))
    return tuple(sorted((gamma & boxes).elements(), key=formula_key))


def _contract_tree(tree: _RuleNode, conclusion: GentzenSequent) -> _RuleNode:
    """Admissible contraction on a GLseq rule tree: the tree with the copies
    that `conclusion` and the box partitions no longer supply taken out.
    Walking top-down, each boxGL keeps the gamma copies its antecedent
    supplies, and a local rule whose principal is not on its side gives way
    to its premise i, i the branch of the nearest lower application of the
    same rule on the same principal (inversion of that application)."""
    top = [tree]
    # (list holding the node, its index there, its sequent, the branch each
    # (rule, principal) took lower down in its block)
    stack = [(top, 0, conclusion, {})]
    while stack:
        slot, i, seq, taken = stack.pop()
        node = slot[i]
        while node.rule in LOCAL_RULES:
            key = node.rule, node.meta["principal"]
            if key not in taken or key[1] in (seq.ante if node.rule[-1] == "L" else seq.cons):
                break
            node = slot[i] = node.premises[taken[key]]
        if node.rule == "boxGL":
            gamma = _supplied(Counter(node.meta["gamma"]), seq)
            if len(gamma) < len(node.meta["gamma"]):
                node = slot[i] = _RuleNode("boxGL", {"gamma": gamma, "phi": node.meta["phi"]},
                                           node.premises)
        goals = _schema("glseq", node.rule, node.meta, seq)
        local = node.rule in LOCAL_RULES
        for j, goal in enumerate(goals[:len(node.premises)]):  # derive reports a miscount
            above = {**taken, (node.rule, node.meta["principal"]): j} if local else {}
            stack.append((node.premises, j, goal, above))
    return top[0]


# ---------------------------------------------------------------------------
# GLseq to G3GL (extended)

def _g3gl_label_names(p: Proof):
    """The labels `glseq_to_g3gl` creates for p, one per boxGL in pre-order,
    named y0, y1, ... in breadth-first order of first occurrence.  A template
    rooted at G3GL depth d introduces its label in the boxR's premise at
    d + 1 and puts its premise at d + 1 + 2|gamma|; every other node has its
    premises one level down and introduces none.  Two births at one depth
    come from templates neither above the other, so their left-to-right
    order is the pre-order of their boxGLs."""
    births = []  # (depth, boxGL index in pre-order)
    stack = [(p, 0)]
    while stack:
        node, d = stack.pop()
        if node.rule == "boxGL":
            births.append((d + 1, len(births)))
            stack.append((node.premises[0], d + 1 + 2 * len(node.meta["gamma"])))
        else:
            stack.extend((q, d + 1) for q in reversed(node.premises))
    names = [""] * len(births)
    for n, (_, i) in enumerate(sorted(births)):
        names[i] = f"y{n}"
    return iter(names)


def glseq_to_g3gl(p: Proof) -> Proof:
    """Label a Gentzen proof: Gamma |- Delta becomes x:Gamma |- x:Delta.  A
    boxGL at label x becomes the rule tree (boxL block; 4L block; boxR) at
    x, whose boxR creates the premise's label, y0, y1, ... in breadth-first
    order of first occurrence.  Each conclusion is derived once, top-down,
    with its whole context, so the output is a CSGL proof too."""
    names = _g3gl_label_names(p)
    top: list[_RuleNode] = []
    stack = [(p, "x", top)]
    while stack:
        node, lab, out = stack.pop()
        if node.rule == "id":
            c = node.conclusion
            w = node.meta.get("principal") or min(set(c.ante) & set(c.cons), key=formula_key)
            out.append(_general_id("g3glext", (lab, w)))
        elif node.rule in LOCAL_RULES:
            out.append(_RuleNode(node.rule, {"label": lab, "principal": node.meta["principal"]}))
            stack.extend((q, lab, out[-1].premises) for q in reversed(node.premises))
        elif node.rule == "boxGL":
            u = next(names)
            cur = _RuleNode("boxR", {"label": lab, "fresh": u, "phi": node.meta["phi"]})
            out.append(cur)
            for rule in ("4L", "boxL"):
                for g in reversed(node.meta["gamma"]):
                    cur.premises.append(_RuleNode(rule, {"label": lab, "aux": u, "phi": g}))
                    cur = cur.premises[0]
            stack.append((node.premises[0], u, cur.premises))
        else:
            raise NotApplicable(f"translation does not handle {node.rule}")
    c = p.conclusion
    # one label throughout, so the sides keep their order
    root = LabeledSequent.of_sorted(frozenset(), tuple(("x", g) for g in c.ante),
                                    tuple(("x", g) for g in c.cons))
    return _derive("g3glext", top[0], root, "translation cannot derive its templates")


def csgl_to_g3gl_embed(p: Proof) -> Proof:
    """Every CSGL rule is a rule of the extended labeled calculus."""
    return p.retag("g3glext")


def g3gl_to_csgl(p: Proof) -> Proof:
    """Retag p as CSGL, or fail at its first `ir` or `tr`, which CSGL lacks."""
    for addr, node in p.nodes():
        if node.rule not in RULES_OF["csgl"]:
            raise NotApplicable(f"{node.rule} is not a CSGL rule", addr)
    return p.retag("csgl")


# ---------------------------------------------------------------------------
# Bounded unfolding of cyclic derivations

def unfold_glcirc(d: CyclicDerivation, depth: int) -> Proof:
    """Unfold every back-link `depth` times: each linked open leaf is replaced
    by a copy of the subtree its link names, and the copy's open leaves get
    links of their own.  The open leaves left are kept as they are; in a
    derivation that `check_glcirc` accepts, each concludes the sequent of
    the node its back-link names."""
    tree = d.derivation
    links = dict(d.backlinks)
    for _ in range(depth):
        tree, links = _graft_once(tree, links)
    return tree


def _graft_once(tree: Proof, links: dict) -> tuple[Proof, dict]:
    new_links: dict[Address, Address] = {}

    def go(node: Proof, addr: Address):
        if node.rule == OPEN:
            target = links.get(addr)
            if target is None:
                return node
            sub = tree.at(target)

            def copy(n: Proof, rel: Address):
                here = addr + rel
                if n.rule == OPEN:
                    t2 = links[target + rel]
                    if t2[: len(target)] == target:
                        new_links[here] = addr + t2[len(target):]
                    else:
                        new_links[here] = t2
                    return Proof(n.calculus, OPEN, n.conclusion, (), dict(n.meta))
                return Proof(n.calculus, n.rule, n.conclusion,
                             (yield tuple(copy(q, rel + (i,)) for i, q in enumerate(n.premises))),
                             dict(n.meta))

            return (yield copy(sub, ()))
        return Proof(node.calculus, node.rule, node.conclusion,
                     (yield tuple(go(q, addr + (i,)) for i, q in enumerate(node.premises))),
                     dict(node.meta))

    return trampoline(go(tree, ())), new_links


# ---------------------------------------------------------------------------
# Pipeline

class PassReport:
    """A pass's input and output proofs.  The sizes (one walk per proof) and
    the printed output conclusion are computed when first read."""

    def __init__(self, pass_name: str, proof_in: Proof, proof_out: Proof, permutations: int = 0):
        self.pass_name = pass_name
        self.proof_in = proof_in
        self.proof_out = proof_out
        self.permutations = permutations

    @cached_property
    def _sizes(self) -> tuple[int, int, int, int]:
        return self.proof_in.size() + self.proof_out.size()

    nodes_in = property(lambda self: self._sizes[0])
    height_in = property(lambda self: self._sizes[1])
    nodes_out = property(lambda self: self._sizes[2])
    height_out = property(lambda self: self._sizes[3])
    output_conclusion = cached_property(lambda self: str(self.proof_out.conclusion))

    def line(self) -> str:
        return (
            f"{self.pass_name}: nodes {self.nodes_in}->{self.nodes_out}, "
            f"height {self.height_in}->{self.height_out}, "
            f"permutations {self.permutations}, concludes {self.output_conclusion}"
        )


# each pass: its input calculus, and its function of the proof, which returns
# the output proof or, for a pass that permutes rules, it and the permutations
PASSES = {
    "end-active": ("csgl", _end_active),
    "linearize": ("csgl", linearize),
    "normalize": ("lngl", _normalize),
    "to-glseq": ("lngl", lngl_to_glseq),
    "to-g3gl": ("glseq", glseq_to_g3gl),
    "embed-g3gl": ("csgl", csgl_to_g3gl_embed),
    "to-csgl": ("g3glext", g3gl_to_csgl),
}

# the stages after CSGL search, in order: each stage's name and its pass
PIPELINE = (("end-active", "end-active"), ("lngl", "linearize"), ("normal", "normalize"),
            ("glseq", "to-glseq"), ("g3gl", "to-g3gl"))


def run_pass(name: str, proof: Proof) -> tuple[Proof, PassReport]:
    if name not in PASSES:
        raise NotApplicable(f"unknown pass {name}")
    calculus, fn = PASSES[name]
    if getattr(proof, "calculus", None) != calculus:
        raise NotApplicable(f"{name} takes a {calculus} proof")
    out = fn(proof)
    out, permutations = out if isinstance(out, tuple) else (out, 0)
    return out, PassReport(name, proof, out, permutations)


def run_pipeline(proof: Proof) -> Iterator[tuple[str, Proof, PassReport]]:
    """Yield (stage, proof, report) for each stage of PIPELINE, from a CSGL proof."""
    for stage, name in PIPELINE:
        proof, report = run_pass(name, proof)
        yield stage, proof, report
