"""The former Proof-level re-derivation walkers, a reference for the rule-tree
weakening, inversion, permutation and end-activation of `glproof.transform`.

Each walker applied a rule instance of the input proof at a new conclusion
(`_rederive`), kept every premise whose conclusion did not change, and
rebuilt the others the same way.  `weaken` renamed clashing `boxR` fresh
labels first (`_avoid_fresh`); `apply_inverse` re-derived up to the
inverted instance (`_invert`) and rebuilt a destroyed Gentzen `id`;
`_exchange` built both new layers of a permutation by hand, inverting the
parent's sibling premises; `_end_active` rescanned the whole proof after
each move and dropped an unread propagation by strengthening
(`_strengthen`).  `_exchange` copies a `boxR` with its fresh label, so its
outputs can reuse a label; the rule-tree version renames the copies.
Where this reference's output passes `check_csgl`, the transform must
return an equal proof, which prints identically.  The code is the former
`transform` code, with the deleted `Proof.replace_at`, `relabel_proof` and
`proof_labels` of `glproof.sequents` written out as functions, which
other tests use to build mutants and renamed proofs.
"""

from __future__ import annotations

from glproof.formula import Box, Formula
from glproof.rules import (INITIAL_RULES, LOCAL_RULE_OF, LOCAL_RULES, PROPAGATION_RULES,
                           RuleError, premises_of)
from glproof.sequents import (LABEL_KEYS, Address, GentzenSequent, Label, LabeledSequent,
                              NotATree, Proof, formula_key, fresh_label, mset_remove, rebuild,
                              trampoline, tree_root)
from glproof.checkers import end_active_report, node_end_active
from glproof.transform import (GENTZEN, LABELED, InternalNonTermination, NotApplicable,
                               NotEndActive, NotPermutable, ShapeViolation, _parts,
                               prove_general_id)


def replace_at(proof: Proof, addr: Address, new: Proof) -> Proof:
    """proof with its node at `addr` replaced by `new`, the path above
    rebuilt (the former `Proof.replace_at`)."""
    path = [proof]
    for i in addr[:-1]:
        path.append(path[-1].premises[i])
    for node, i in zip(reversed(path), reversed(addr)):
        prems = list(node.premises)
        prems[i] = new
        new = Proof(node.calculus, node.rule, node.conclusion, tuple(prems), dict(node.meta))
    return new


def relabel_proof(proof: Proof, mapping: dict[Label, Label]) -> Proof:
    """Apply a label renaming to every sequent and every label-valued meta
    entry.  A renaming that merges two labels of a sequent can leave a node
    its schema rejects, such as a boxR whose fresh label is no longer
    fresh."""

    def make(node: Proof, prems: tuple) -> Proof:
        meta = dict(node.meta)
        for key in LABEL_KEYS:
            if key in meta:
                meta[key] = mapping.get(meta[key], meta[key])
        c = node.conclusion
        c = c.rename(mapping) if isinstance(c, LabeledSequent) else c
        return Proof(node.calculus, node.rule, c, prems, meta)

    return rebuild(proof, make)


def proof_labels(proof: Proof) -> set[Label]:
    labs: set[Label] = set()
    for _, node in proof.nodes():
        if isinstance(node.conclusion, LabeledSequent):
            labs |= node.conclusion.labels()
    return labs


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


def _drop(s: LabeledSequent, item) -> LabeledSequent:
    """s with one occurrence of the labeled formula `item` removed from its
    antecedent."""
    if item not in s.ante:
        raise NotApplicable(f"{item} is not in the antecedent of {s}")
    return LabeledSequent.of_sorted(s.rel, mset_remove(s.ante, item), s.cons)


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
    return replace_at(proof, addr[:-1], new_node)


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
            proof = replace_at(proof, parent_addr, pushed)
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
                    proof = replace_at(proof, addr, trampoline(_strengthen(node.premises[0], added)))
                    permutations += 1
                    continue
                except NotApplicable:
                    pass
            raise InternalNonTermination(f"no permutation available for {node.rule}", addr)
    return proof, permutations
