"""The local and initial rule schemas on every sequent shape.

negL/negR/orL/orR and id1/id2 are one schema read on a pair of sides: a
Gentzen sequent, the end component of a linear nested sequent, or the
formulas at one label of a labeled sequent.  Each case below is written once
on a Gentzen pair of sides and lifted into each shape with a context the rule
must leave alone.
"""

import pytest

from glproof.formula import parse_formula as pf
from glproof.proofio import parse_gentzen_sequent as pgs
from glproof.rules import SCHEMA_MISMATCH, RuleError, premises_of
from glproof.sequents import LabeledSequent, LinearNestedSequent


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
