"""Constructive proof transformations between the formalisms.

The module holds the admitted weakening, dissolved into the proof by
`weaken` in every calculus, height-preserving rule inversion, rule
permutation, end-activation, linearization into LNGL, normalization, the
translation into the Gentzen calculus GLseq, which contracts on its rule
tree, the labeled-calculus embedding of Gentzen proofs, and the bounded
unfolder for cyclic derivations.  Linearization, normalization, the
translations into GLseq and G3GL and the general identity each derive one
rule tree, once, with `rules.derive`.

The passes map checked proofs to checked proofs on the CSGL proofs that
search makes for every theorem of `tests/totality_sweep.py`.  They are not
yet total functions from checked proofs to checked proofs: on CSGL proofs
that search did not make, `to_end_active` can fail.  ROADMAP.md, item 1,
measured 47 failures among 1,000 random-strategy proofs: 39 outputs with
a `FreshnessViolation` and 8 `InternalNonTermination`s.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterator, Optional

from .formula import Atom, Box, Formula, Not
from .rules import (INITIAL_RULES, LOCAL_RULE_OF, LOCAL_RULES, PROPAGATION_RULES, RULES_OF,
                    RuleError, derive, premises_of)
from .sequents import (
    OPEN,
    Address,
    CyclicDerivation,
    GentzenSequent,
    LabeledSequent,
    NotATree,
    Proof,
    formula_key,
    fresh_label,
    mset_remove,
    project_chain,
    proof_labels,
    rebuild,
    relabel_proof,
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
# Re-derivation: every transform below takes its premises from the schemas

def _schema(calculus: str, rule: str, meta: dict, conclusion) -> list:
    try:
        return premises_of(calculus, rule, meta, conclusion)
    except RuleError as e:
        raise NotApplicable(f"{rule} does not apply: {e}") from e


def _rederive(p: Proof, target, step):
    """Walker: p's rule instance applied at the conclusion `target`.  A
    premise whose conclusion does not change is kept, every other one is
    rebuilt by the walker `step(premise, new_conclusion)`."""
    meta = dict(p.meta)
    goals = _schema(p.calculus, p.rule, meta, target)
    subs = []
    for q, goal in zip(p.premises, goals):
        sub = q if q.conclusion == goal else (yield step(q, goal))
        if sub.conclusion != goal:
            raise NotApplicable(f"{p.rule} misaligned a premise")
        subs.append(sub)
    return Proof(p.calculus, p.rule, target, tuple(subs), meta)


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


def _drop(s: LabeledSequent, item) -> LabeledSequent:
    """s with one occurrence of the labeled formula `item` removed from its
    antecedent."""
    if item not in s.ante:
        raise NotApplicable(f"{item} is not in the antecedent of {s}")
    return LabeledSequent.of_sorted(s.rel, mset_remove(s.ante, item), s.cons)


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
    proof of `target`, a conclusion that contains p's.  Every node is
    re-derived at its weakened conclusion; a premise that does not change
    (the boxGL/box4 premise) is kept.  A boxR fresh label that occurs in a
    labeled target is renamed first.  A target without a formula that some
    rule of p uses raises NotApplicable.
    """
    if p.calculus in LABELED:
        p = trampoline(_avoid_fresh(p, target.labels()))
    if p.calculus == "csgl":
        # every goal re-derived from a tree target is a tree (tree preservation)
        try:
            tree_root(target)
        except NotATree as e:
            raise ShapeViolation(f"weakening breaks the tree shape: {e}") from e

    step = lambda q, goal: _rederive(q, goal, step)
    return trampoline(step(p, target))


def _avoid_fresh(root: Proof, labels):
    """Walker: root with every boxR fresh label that lies in `labels` renamed
    to one that occurs nowhere else in the proof or in `labels`, so that no
    two boxRs share a fresh label."""
    used: set = set()  # filled at the first rename

    def walk(p: Proof):
        y = p.meta.get("fresh") if p.rule == "boxR" else None
        if y in labels:
            if not used:
                used.update(proof_labels(root), labels)
            z = fresh_label(used)
            used.add(z)
            p = Proof(p.calculus, p.rule, p.conclusion,
                      (relabel_proof(p.premises[0], {y: z}),), dict(p.meta, fresh=z))
        prems = yield tuple(map(walk, p.premises))
        if all(a is b for a, b in zip(prems, p.premises)):
            return p
        return Proof(p.calculus, p.rule, p.conclusion, prems, dict(p.meta))

    return (yield walk(root))


# ---------------------------------------------------------------------------
# Hp-invertibility

_W_BACKED = {"4L", "boxL", "tr"}


def apply_inverse(rule: str, i: int, p: Proof, meta: dict) -> Proof:
    """A proof of the i-th premise of the given rule instance, whose
    conclusion is p's conclusion: the local rules, and the rules whose
    premise only adds to the conclusion, invert; every other rule (`boxR`,
    `boxGL`, `box4`) raises NotApplicable."""
    calculus = p.calculus
    goals = _schema(calculus, rule, meta, p.conclusion)
    if not 0 <= i < len(goals):
        raise NotApplicable(f"{rule} has no premise {i}")
    target = goals[i]

    if rule in _W_BACKED:
        return weaken(p, target)
    if rule in LOCAL_RULES:
        return trampoline(_invert(rule, i, p, meta, target))
    raise NotApplicable(f"no inversion for {rule} in {calculus}")


def _invert(rule: str, i: int, p: Proof, meta: dict, target):
    """Walker: p re-derived at `target`; the inverted instance itself gives
    way to its i-th premise."""
    if p.rule == rule and all(p.meta.get(k) == v for k, v in meta.items()):
        return p.premises[i]
    if p.premises:
        return (yield from _rederive(p, target, lambda q, goal: _invert(rule, i, q, meta, goal)))
    # initial rules survive unless the witness was the inverted principal
    try:
        return trampoline(_rederive(p, target, None))
    except NotApplicable:
        pass
    if p.calculus in GENTZEN and p.rule == "id":
        # general id destroyed: rebuild around the decomposed witness
        w = p.meta.get("principal") or next(iter(set(p.conclusion.ante) & set(p.conclusion.cons)))
        return _rebuild_gentzen_id(p.calculus, target, w)
    raise NotApplicable("inversion destroyed an initial sequent")


def _rebuild_gentzen_id(calculus: str, target: GentzenSequent, w: Formula) -> Proof:
    shared = set(target.ante) & set(target.cons)
    if shared:
        return Proof(calculus, "id", target, (), {"principal": min(shared, key=formula_key)})
    # the witness was decomposed on one side: decompose the surviving copy and
    # close each premise on the part of the witness it shares
    rule = LOCAL_RULE_OF.get((type(w), w in target.ante))
    if rule is None:
        raise NotApplicable("cannot rebuild the initial sequent after inversion")
    meta = {"principal": w}
    subs = []
    for prem in _schema(calculus, rule, meta, target):
        part = next((g for g in _parts(w) if g in prem.ante and g in prem.cons), None)
        if part is None:
            raise NotApplicable("cannot rebuild the initial sequent after inversion")
        subs.append(prove_general_id(calculus, prem, part))
    return Proof(calculus, rule, target, tuple(subs), meta)


# ---------------------------------------------------------------------------
# Rule permutation

def _exchange(proof: Proof, addr: Address) -> Proof:
    """Permute the rule at `addr` below its parent, per the four permutation
    shapes (inverses patch the sibling premises of a binary parent)."""
    if not addr:
        raise NotPermutable("the root has nothing below it")
    parent = proof.at(addr[:-1])
    child = proof.at(addr)
    j = addr[-1]
    calculus = parent.calculus
    r, mr = child.rule, child.meta
    rp, mrp = parent.rule, parent.meta
    final = parent.conclusion
    try:
        low_targets = premises_of(calculus, r, mr, final)
    except RuleError as e:
        raise NotPermutable(f"{r} does not apply at the lower sequent: {e}") from e
    new_uppers = []
    for i, tgt in enumerate(low_targets):
        try:
            upper_targets = premises_of(calculus, rp, mrp, tgt)
        except RuleError as e:
            raise NotPermutable(f"{rp} does not apply above: {e}") from e
        prems = []
        for k, tgt2 in enumerate(upper_targets):
            if k == j:
                sub = child.premises[i]
            else:
                sub = apply_inverse(r, i, parent.premises[k], dict(mr))
            if sub.conclusion != tgt2:
                raise NotPermutable("permutation shapes do not align")
            prems.append(sub)
        new_uppers.append(Proof(calculus, rp, tgt, tuple(prems), dict(mrp)))
    new_node = Proof(calculus, r, final, tuple(new_uppers), dict(mr))
    return proof.replace_at(addr[:-1], new_node)


def permute_down(p: Proof, addr: Address) -> Proof:
    """Permute a non-end-active local or propagation rule below the end-active
    rule immediately under it (CSGL)."""
    if p.calculus != "csgl":
        raise NotPermutable("permute_down operates on CSGL proofs")
    node = p.at(addr)
    if node.rule not in LOCAL_RULES and node.rule not in PROPAGATION_RULES:
        raise NotPermutable(f"{node.rule} is not a local or propagation rule")
    if node_end_active(node):
        raise NotPermutable("the rule is already end-active")
    if not addr:
        raise NotPermutable("the root has nothing below it")
    parent = p.at(addr[:-1])
    if parent.rule in INITIAL_RULES:
        raise NotPermutable("the rule below is initial")
    if not node_end_active(parent):
        raise NotPermutable("the rule below is not end-active")
    return _exchange(p, addr)


# ---------------------------------------------------------------------------
# End-activation

def _strengthen(p: Proof, item):
    """Walker: drop an antecedent labeled formula nowhere used in the
    subproof; NotApplicable when it is a witness or principal somewhere."""
    m = p.meta
    if (m.get("label"), m.get("principal")) == item or (
        p.rule in PROPAGATION_RULES and (m["label"], Box(m["phi"])) == item
    ):
        raise NotApplicable(f"{p.rule} uses {item}")
    return (yield from _rederive(p, _drop(p.conclusion, item),
                                 lambda q, goal: _strengthen(q, item)))


def to_end_active(p: Proof) -> Proof:
    """Restructure a CSGL proof of |- x: f so that every rule application is
    end-active: bottom-most offenders are permuted downward, non-end-active
    initial rules are pushed down over the rules below them."""
    return _end_active(p)[0]


def _end_active(p: Proof) -> tuple[Proof, int]:
    c = p.conclusion
    if c.rel or c.ante or len(c.cons) != 1:
        raise NotEndActive("end-activation needs a conclusion of the form |- x: f")
    proof = p
    budget = None  # counted from p when the first failure shows
    permutations = 0
    while failures := end_active_report(proof).failures:
        if budget is None:
            budget = p.node_count() ** 2 * 4 + 64
        budget -= 1
        if budget < 0:
            raise InternalNonTermination("end-activation exceeded its permutation budget")
        addr = min((f.address for f in failures), key=lambda a: (len(a), a))
        node = proof.at(addr)
        if node.rule in INITIAL_RULES:
            # push the initial rule down over the rule below it
            parent_addr = addr[:-1]
            parent = proof.at(parent_addr)
            try:
                premises_of(proof.calculus, node.rule, node.meta, parent.conclusion)
            except RuleError as e:
                raise InternalNonTermination(f"cannot push {node.rule} down: {e}", addr) from e
            pushed = Proof(proof.calculus, node.rule, parent.conclusion, (), dict(node.meta))
            proof = proof.replace_at(parent_addr, pushed)
            permutations += 1
            continue
        try:
            proof = permute_down(proof, addr)
            permutations += 1
        except NotPermutable:
            # propagation whose auxiliary is the fresh label of the boxR right
            # below it cannot cross that boxR; drop it if its product is unused
            if node.rule in PROPAGATION_RULES:
                phi = node.meta["phi"]
                added = (node.meta["aux"], Box(phi) if node.rule == "4L" else phi)
                try:
                    proof = proof.replace_at(addr, trampoline(_strengthen(node.premises[0], added)))
                    permutations += 1
                    continue
                except NotApplicable:
                    pass
            raise InternalNonTermination(f"no permutation available for {node.rule}", addr)
    return proof, permutations


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

def _rule_tree(p: Proof) -> tuple[_RuleNode, int]:
    """p's rule tree, with copies of its metas, and its node count."""
    root = _RuleNode(p.rule, dict(p.meta))
    queue = [(p, root)]
    for node, copy in queue:  # breadth-first: the loop reads what it appends
        for q in node.premises:
            copy.premises.append(_RuleNode(q.rule, dict(q.meta)))
            queue.append((q, copy.premises[-1]))
    return root, len(queue)


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
    """Unfold every back-link `depth` times; the remaining open leaves carry
    their (identical) back-link target sequents."""
    tree = d.derivation
    links = dict(d.backlinks)
    for _ in range(depth):
        tree, links = _graft_once(tree, links)
    # stamp the targets on what is left open
    def finish(node: Proof, prems: tuple) -> Proof:
        if node.rule == OPEN:
            meta = dict(node.meta, target=node.conclusion)
            return Proof(node.calculus, OPEN, node.conclusion, (), meta)
        return Proof(node.calculus, node.rule, node.conclusion, prems, dict(node.meta))

    return rebuild(tree, finish)


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
