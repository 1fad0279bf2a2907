"""The local and initial rule schemas on every sequent shape, and `derive`.

negL/negR/orL/orR and id1/id2 are one schema read on a pair of sides: a
Gentzen sequent, the end component of a linear nested sequent, or the
formulas at one label of a labeled sequent.  Each case below is written once
on a Gentzen pair of sides and lifted into each shape with a context the rule
must leave alone.

`derive` is compared with `trampoline_derive`, the walker it replaced: the
same `premises_of` calls in the same order, so the same first failure, and
the same proof.
"""

import pytest

from glproof.formula import parse_formula as pf
from glproof.proofio import parse_gentzen_sequent as pgs, parse_labeled_sequent as pls
from glproof.rules import (SCHEMA_MISMATCH, WRONG_PREMISE_COUNT, RuleError, derive,
                           premises_of)
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import LabeledSequent, LinearNestedSequent, Proof, trampoline


def lift(calculus, text):
    g = pgs(text)
    if calculus == "glseq":
        return g
    if calculus == "csgl":
        # the pair of sides sits at x; y carries an untouched formula
        return LabeledSequent({("x", "y")}, [("x", f) for f in g.ante] + [("y", pf("s"))],
                              [("x", f) for f in g.cons])
    return LinearNestedSequent([pgs("[]s |- s"), g])


def meta(calculus, principal):
    m = {"principal": pf(principal)}
    if calculus == "csgl":
        m["label"] = "x"
    return m


SHAPES = ["glseq", "csgl", "lngl"]

# rule, principal, conclusion, premises
ACCEPTED = [
    ("negL", "~p", "~p, q |- r", ["q |- r, p"]),
    ("negR", "~p", "q |- ~p, r", ["q, p |- r"]),
    ("orL", "p | q", "p | q, r |- []r", ["p, r |- []r", "q, r |- []r"]),
    ("orR", "p | q", "r |- p | q, []r", ["r |- p, q, []r"]),
]

# rule, principal, conclusion: the principal has the wrong connective, or is
# missing from the rule's side
REJECTED = [
    ("negL", "p | q", "p | q |- r"),
    ("negR", "p | q", "r |- p | q"),
    ("orL", "~p", "~p |- r"),
    ("orR", "~p", "r |- ~p"),
    ("negL", "~p", "r |- ~p"),
    ("negR", "~p", "~p |- r"),
    ("orL", "p | q", "r |- p | q"),
    ("orR", "p | q", "p | q |- r"),
]

# rule, witness, conclusion: the witness has the wrong shape, or is not on
# both sides
INITIAL_REJECTED = [
    ("id1", "[]p", "[]p |- []p"),
    ("id1", "~p", "~p |- ~p"),
    ("id2", "p", "p |- p"),
    ("id1", "p", "p |- q"),
    ("id1", "p", "q |- p"),
    ("id2", "[]p", "[]p |- p"),
    ("id2", "[]p", "p |- []p"),
]


@pytest.mark.parametrize("calculus", SHAPES)
@pytest.mark.parametrize("rule, principal, conclusion, premises", ACCEPTED)
def test_local_rule_premises(calculus, rule, principal, conclusion, premises):
    got = premises_of(calculus, rule, meta(calculus, principal), lift(calculus, conclusion))
    assert got == [lift(calculus, p) for p in premises]


@pytest.mark.parametrize("calculus", SHAPES)
@pytest.mark.parametrize("rule, principal, conclusion", REJECTED)
def test_local_rule_mismatch(calculus, rule, principal, conclusion):
    with pytest.raises(RuleError) as e:
        premises_of(calculus, rule, meta(calculus, principal), lift(calculus, conclusion))
    assert e.value.code == SCHEMA_MISMATCH
    assert str(e.value).startswith(f"{rule} principal ")


@pytest.mark.parametrize("rule", ["negL", "orR"])
def test_labeled_local_rule_at_another_label(rule):
    # the principal is at x; applying the rule at y finds nothing to decompose
    conclusion = lift("csgl", "~p |- ~p" if rule == "negL" else "p | q |- p | q")
    m = dict(meta("csgl", "~p" if rule == "negL" else "p | q"), label="y")
    with pytest.raises(RuleError) as e:
        premises_of("csgl", rule, m, conclusion)
    assert e.value.code == SCHEMA_MISMATCH


@pytest.mark.parametrize("calculus", ["csgl", "lngl"])
@pytest.mark.parametrize("rule, witness", [("id1", "p"), ("id2", "[]p")])
def test_initial_rule_accepted(calculus, rule, witness):
    conclusion = lift(calculus, f"{witness}, q |- {witness}, r")
    assert premises_of(calculus, rule, meta(calculus, witness), conclusion) == []


@pytest.mark.parametrize("calculus", ["csgl", "lngl"])
@pytest.mark.parametrize("rule, witness, conclusion", INITIAL_REJECTED)
def test_initial_rule_mismatch(calculus, rule, witness, conclusion):
    with pytest.raises(RuleError) as e:
        premises_of(calculus, rule, meta(calculus, witness), lift(calculus, conclusion))
    assert e.value.code == SCHEMA_MISMATCH


def test_gentzen_id_witness_not_on_both_sides():
    with pytest.raises(RuleError) as e:
        premises_of("glseq", "id", meta("glseq", "~p"), pgs("~p |- p"))
    assert e.value.code == SCHEMA_MISMATCH


# ---------------------------------------------------------------------------
# derive

def trampoline_derive(calculus: str, tree, conclusion, parts) -> Proof:
    """`rules.derive` as a walker run by `trampoline`, as it was written
    before it became two loops."""
    def walk(node, seq):
        rule, meta, children = parts(node)
        goals = premises_of(calculus, rule, meta, seq)
        if len(goals) != len(children):
            raise RuleError(WRONG_PREMISE_COUNT,
                            f"{rule} needs {len(goals)} premises, found {len(children)}")
        prems = yield tuple(map(walk, children, goals))
        proof = Proof(calculus, rule, seq, prems, meta)
        proof.goals = goals or ()
        return proof

    return trampoline(walk(tree, conclusion))


def _node(rule, principal, *children):
    return rule, {"principal": pf(principal)}, list(children)


def _both_derives(tree, conclusion):
    """What `derive` and `trampoline_derive` give or raise on `tree`, with
    the nodes each one asked `parts` for, in order."""
    out = []
    for fn in (derive, trampoline_derive):
        asked = []
        parts = lambda n: asked.append(n) or n
        try:
            got = fn("glseq", tree, pgs(conclusion), parts)
        except RuleError as e:
            got = (e.code, str(e))
        out.append((got, [id(n) for n in asked]))
    return out


def test_derive_raises_the_first_failure_in_pre_order():
    # the left subtree fails three levels up, the right one at once; a walk
    # in pre-order meets the left failure first
    left = _node("negR", "~~p", _node("negL", "~p", _node("id", "r")))
    right = _node("id", "s")
    tree = _node("orL", "p | q", left, right)
    new, old = _both_derives(tree, "p | q |- ~~p, q")
    assert new == old
    assert new[0] == (SCHEMA_MISMATCH, "id witness r not on both sides")
    assert len(new[1]) == 4  # the right subtree was never reached


def test_derive_counts_premises_at_the_right_node():
    # the left subtree's negL has no premise, the right id has one
    left = _node("negR", "~~p", _node("negL", "~p"))
    right = _node("id", "q", _node("id", "q"))
    tree = _node("orL", "p | q", left, right)
    new, old = _both_derives(tree, "p | q |- ~~p, q")
    assert new == old
    assert new[0] == (WRONG_PREMISE_COUNT, "negL needs 1 premises, found 0")


def test_derive_builds_what_the_walker_built():
    # the same proof, goals recorded, premises concluding the goal objects
    proof = prove_formula(pf("[](p -> q) -> ([]p -> []q)"), "csgl",
                          SearchConfig(oracle_hint=False)).proof
    parts = lambda n: (n.rule, n.meta, n.premises)
    new = derive("csgl", proof, proof.conclusion, parts)
    old = trampoline_derive("csgl", proof, proof.conclusion, parts)
    assert new == old == proof
    for _, node in new.nodes():
        assert list(node.goals) == premises_of("csgl", node.rule, node.meta, node.conclusion)
        assert all(q.conclusion is g for q, g in zip(node.premises, node.goals))
        assert (node.goals == ()) == (not node.premises)


def test_derive_a_10000_high_chain():
    # tr at x, x, x adds the xRx it needs, so every node has one conclusion
    tree = ("ir", {"label": "x"}, [])
    for _ in range(10000):
        tree = ("tr", {"x": "x", "y": "x", "z": "x"}, [tree])
    proof = derive("g3gl", tree, pls("xRx; |- x: p"), lambda n: n)
    assert proof.height() == 10000

