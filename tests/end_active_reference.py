"""The former end-activation on rule trees, kept as a test reference.

It makes one move per round at the lowest rule that is not end-active: an
exchange; for an initial rule, a push down over the rule below it; and for
a propagation that cannot be exchanged, a drop, which fails when a rule
above reads its product.  `transform._end_active` prunes instead of pushing
and dropping; tests/test_rule_tree_lemmas.py compares the two.
"""

from __future__ import annotations

from glproof.checkers import end_active_report
from glproof.rules import INITIAL_RULES, PROPAGATION_RULES, RuleError, premises_of
from glproof.sequents import Proof
from glproof.transform import (InternalNonTermination, NotApplicable, NotEndActive, NotPermutable,
                               _at, _derive, _exchange, _fresh_apart, _replaced, _rule_tree)


def to_end_active(p: Proof) -> Proof:
    return _end_active(p)[0]


def _end_active(p: Proof) -> tuple[Proof, int]:
    """Moves on one rule tree: each round derives it, once, and makes one
    move at the lowest rule that is not end-active.  A proof already
    end-active is returned as it is."""
    c = p.conclusion
    if c.rel or c.ante or len(c.cons) != 1:
        raise NotEndActive("end-activation needs a conclusion of the form |- x: f")
    proof, tree = p, None
    budget = 0  # counted from p when the first failure shows
    permutations = 0
    while failures := end_active_report(proof).failures:
        if tree is None:
            tree, budget = _rule_tree(p)[0], p.node_count() ** 2 * 4 + 64
        budget -= 1
        if budget < 0:
            raise InternalNonTermination("end-activation exceeded its permutation budget")
        addr = min((f.address for f in failures), key=lambda a: (len(a), a))
        node = proof.at(addr)
        dropped = False
        if node.rule in INITIAL_RULES:
            # push the initial rule down over the rule below it
            try:
                premises_of(proof.calculus, node.rule, node.meta, proof.at(addr[:-1]).conclusion)
            except RuleError as e:
                raise InternalNonTermination(f"cannot push {node.rule} down: {e}", addr) from e
            tree = _replaced(tree, addr[:-1], _at(tree, addr))
        else:
            try:
                tree = _exchange(tree, proof, addr)
            except NotPermutable:
                # a propagation whose auxiliary is the fresh label of the boxR
                # right below it cannot cross that boxR: drop it, unless a
                # rule above reads its product, which the derive below finds
                if node.rule not in PROPAGATION_RULES:
                    raise InternalNonTermination(f"no permutation available for {node.rule}",
                                                 addr) from None
                tree = _replaced(tree, addr, _at(tree, addr).premises[0])
                dropped = True
        permutations += 1
        try:
            proof = _derive(proof.calculus, tree, c, "end-activation cannot derive its moves")
        except NotApplicable as e:
            if not dropped:
                raise
            raise InternalNonTermination(f"no permutation available for {node.rule}", addr) from e
    # a fresh label copied by an exchange stays with its first boxR in
    # pre-order; the others are renamed only now, since a later move can
    # delete any copy, the first one too
    if tree is not None and (renamed := _fresh_apart(tree, c, set())) is not None:
        proof = _derive(proof.calculus, renamed, c, "end-activation cannot derive its moves")
    return proof, permutations
