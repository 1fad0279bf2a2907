"""Weakening, inversion and permutation on rule trees agree with the former
Proof-level walkers of tests/rederive_reference.py, and end-activation does
at least what the former rule-tree end-activation of
tests/end_active_reference.py did.

An outcome is the printed proof, or the class of the error raised.  Where
the reference raises, the transform must raise the same class; where it
returns a proof, the transform must return an equal one, which prints
identically.  End-activation prunes the rules nothing reads, so its output
differs from the reference's: where the reference succeeds, the output
must pass every later stage with every stage checked and have no more
nodes, and where the reference refuses, the output is counted.
"""

import random

import end_active_reference
import rederive_reference as reference
from lob_corpus import lob_corpus
from random_proofs import csgl_proof as random_csgl_proof, csgl_sample
from test_acceptance import _sample_proofs
from test_pipeline import STAGE_CHECKS
from test_transform import (CORPUS, _additions_target, _id2_above_a_pointless_boxr,
                            _negr_above_boxr, _negr_above_boxr_csgl, _negr_above_boxr_read,
                            _negr_above_orr, _read_propagation, _two_permutations,
                            _two_permutations_read, _unread_propagation, _weakening_inputs,
                            csgl_proof)
from glproof.checkers import end_active_report
from glproof.formula import Atom, Box, parse_formula as pf
from glproof.proofio import parse_gentzen_sequent as pgs, parse_labeled_sequent as pls, print_proof
from glproof.sequents import Proof
from glproof.rules import LOCAL_RULES, PROPAGATION_RULES, derive
from glproof.transform import (PIPELINE, TransformError, _end_active, apply_inverse, permute_down,
                               run_pass, weaken)

P, Q = Atom("p"), Atom("q")


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except TransformError as e:
        return type(e).__name__
    proof, permutations = out if isinstance(out, tuple) else (out, None)
    return proof, print_proof(proof), permutations


def _agree(new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got[0] == want[0] and got[1:] == want[1:]
    return got


def _inversions(p: Proof):
    """(rule, i, meta) for every premise i of p's root rule, when it inverts."""
    if p.rule in LOCAL_RULES or p.rule in PROPAGATION_RULES:
        for i in range(len(p.premises)):
            yield p.rule, i, dict(p.meta)


def _weakenings():
    """(proof, target): acceptance 3's 200 proofs at its targets, and the
    seeded weakening inputs of test_transform."""
    for p in _sample_proofs(200):
        if p.calculus == "glseq":
            yield p, p.conclusion.with_ante(Box(Q)).with_cons(Q)
        else:
            yield p, p.conclusion.with_ante(("x", Box(Q))).with_cons(("x", Q))
    for p, adds in _weakening_inputs(random.Random(11)):
        yield p, _additions_target(p, **adds)


def test_weaken_and_apply_inverse_agree_with_the_reference():
    kinds = {"weaken": 0, "weaken raises": 0, "inverse": 0, "inverse raises": 0}
    for p, target in _weakenings():
        got = _agree(weaken, reference.weaken, p, target)
        kinds["weaken raises" if isinstance(got, str) else "weaken"] += 1
        for rule, i, meta in _inversions(p):
            got = _agree(apply_inverse, reference.apply_inverse, rule, i, p, meta)
            kinds["inverse raises" if isinstance(got, str) else "inverse"] += 1
    assert kinds["weaken"] >= 1000 and kinds["inverse"] >= 200, kinds
    assert kinds["weaken raises"] >= 20, kinds


def test_inversion_keeps_a_premise_whose_conclusion_does_not_change():
    # the boxGL premise does not read its context, so inverting the orL
    # below it keeps the premise's own orL on the same principal
    pq, qp = pf("p | q"), pf("q | p")
    ids = [("id", {"principal": a}, []) for a in (P, Q)]
    tree = ("boxGL", {"gamma": (pq,), "phi": qp}, [
        ("orR", {"principal": qp}, [("orL", {"principal": pq}, ids)])])
    base = derive("glseq", tree, pgs("p | q, [](p | q) |- [](q | p)"), lambda n: n)
    out = _agree(apply_inverse, reference.apply_inverse, "orL", 0, base, {"principal": pq})[0]
    assert out.conclusion == pgs("p, [](p | q) |- [](q | p)")
    assert out.premises[0] == base.premises[0]


def _end_activation_fixtures():
    """The CSGL proofs that test_transform's end-activation and permutation
    tests start from.  (test_permute_clash_detected builds its own; both
    versions refuse it with NotPermutable, as that test checks.)"""
    return [_negr_above_orr(), _negr_above_boxr(), _negr_above_boxr_csgl(),
            _two_permutations(), _negr_above_boxr_read(), _two_permutations_read(),
            _id2_above_a_pointless_boxr(), _unread_propagation(), _read_propagation(),
            Proof("csgl", "id1", pls("x: p |- x: p"), (), {"label": "x", "principal": P}),
            *map(csgl_proof, CORPUS)]


def _end_activates_like_the_reference(p: Proof) -> str:
    """How `_end_active` does on p against the former rule-tree version:
    'equal', 'smaller' (not equal: checked through every later stage, no
    more nodes),
    'both refuse' (the same error class) or 'reference refuses'."""
    want = _outcome(end_active_reference._end_active, p)
    got = _outcome(_end_active, p)
    if isinstance(want, str) and isinstance(got, str):
        assert got == want, p.conclusion
        return "both refuse"
    assert not isinstance(got, str), (p.conclusion, got)
    out = got[0]
    if not isinstance(want, str) and out == want[0]:
        return "equal"
    assert STAGE_CHECKS["end-active"](out).accepted, p.conclusion
    for stage, name in PIPELINE[1:]:
        out = run_pass(name, out)[0]
        assert STAGE_CHECKS[stage](out).accepted, (stage, p.conclusion)
    if isinstance(want, str):
        return "reference refuses"
    assert got[0].node_count() <= want[0].node_count(), p.conclusion
    return "smaller"


def test_end_activation_fixtures_agree_with_the_reference():
    permuted = 0
    seen = {"equal": 0, "smaller": 0, "both refuse": 0, "reference refuses": 0}
    for base in _end_activation_fixtures():
        # the former rule-tree end-activation is the Proof-level one
        _agree(end_active_reference._end_active, reference._end_active, base)
        seen[_end_activates_like_the_reference(base)] += 1
        for addr, _ in base.nodes():
            got = _agree(permute_down, reference.permute_down, base, addr)
            permuted += not isinstance(got, str)
    assert permuted == 6, permuted
    assert seen == {"equal": 8, "smaller": 3, "both refuse": 3, "reference refuses": 1}, seen


def test_every_output_node_carries_goals():
    p = csgl_proof(CORPUS[0])
    base = _negr_above_boxr_read()
    outputs = [weaken(p, p.conclusion.with_ante(("x", Q))),
               apply_inverse(p.rule, 0, p, dict(p.meta)),
               permute_down(_negr_above_orr(), (0,))]
    out, permutations = _end_active(base)
    assert permutations > 0
    for proof in outputs + [out]:
        assert all(node.goals is not None for _, node in proof.nodes())


def test_random_csgl_proofs_end_activate_like_the_reference():
    # random-strategy proofs, which search never makes, of Random(5) draws
    # and of the Löb corpus's first 60 theorems: every output passes every
    # stage, where the reference output does it has no more nodes, and
    # where the reference refuses, end-activation succeeds
    inputs = [p for _, p in csgl_sample(5, 300)]
    inputs += [random_csgl_proof(f, i) for i, f in enumerate(lob_corpus(count=60))]
    seen = {"not end-active": 0, "equal": 0, "smaller": 0, "reference refuses": 0}
    for p in inputs:
        seen["not end-active"] += not end_active_report(p).accepted
        seen[_end_activates_like_the_reference(p)] += 1
    assert seen["not end-active"] >= 150 and seen["smaller"] >= 100, seen
    assert seen["reference refuses"] >= 5, seen
