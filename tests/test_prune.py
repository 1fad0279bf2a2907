"""Pruning: `transform._pruned` drops the CSGL rules that nothing above reads.

On search proofs and random-strategy proofs the pruned rule tree derives a
proof of the same conclusion that `check_csgl` accepts, and pruning twice
prints the same as pruning once.  A rule read only through its relational
atom is kept.
"""

import pytest

from lob_corpus import lob_corpus
from random_proofs import csgl_proof as random_csgl_proof, csgl_sample
from test_transform import CORPUS, _chain, csgl_proof
from glproof.checkers import check_csgl, end_active_report
from glproof.formula import Atom, parse_formula as pf, print_formula
from glproof.proofio import parse_labeled_sequent as pls, print_proof
from glproof.sequents import Proof
from glproof.transform import _derive, _pruned

DOMINANT = "[](p | [][]([][][][](q | ~q) | (q | []~r)))"
CHAINS = {f"box{k}": "[]" * k + "(p | ~p)" for k in range(1, 46, 4)}


def prune(p: Proof) -> Proof:
    return _derive("csgl", _pruned(p), p.conclusion, "pruning cannot derive its rules")


def _assert_prunes(p: Proof, name: str) -> Proof:
    once = prune(p)
    assert once.conclusion == p.conclusion, name
    assert check_csgl(once).accepted, name
    assert once.node_count() <= p.node_count(), name
    assert print_proof(prune(once)) == print_proof(once), name
    return once


SEARCH_INPUTS = {**{print_formula(f): print_formula(f) for f in CORPUS}, **CHAINS,
                 "dominant": DOMINANT}


@pytest.mark.parametrize("text", SEARCH_INPUTS.values(), ids=SEARCH_INPUTS.keys())
def test_prune_search_proofs(text):
    p = csgl_proof(pf(text))
    once = _assert_prunes(p, text)
    # search proofs are end-active, and pruning keeps them so
    assert end_active_report(once).accepted


def test_prune_shrinks_the_deep_chains_and_the_dominant_theorem():
    deepest = csgl_proof(pf(CHAINS["box45"]))
    assert (deepest.node_count(), prune(deepest).node_count()) == (994, 48)
    dominant = csgl_proof(pf(DOMINANT))
    assert (dominant.node_count(), prune(dominant).node_count()) == (89, 12)


def test_prune_random_strategy_proofs():
    proofs = [p for _, p in csgl_sample(5, 200)]
    proofs += [random_csgl_proof(f, i) for i, f in enumerate(lob_corpus(count=40))]
    before = after = 0
    for p in proofs:
        once = _assert_prunes(p, str(p.conclusion))
        before, after = before + p.node_count(), after + once.node_count()
    assert after < before * 0.7, (before, after)


def _boxr_read_through_its_edge() -> Proof:
    # the boxR at x adds xRy, y: []s and y: s; only its edge is read, by the
    # two boxLs into y, whose products the negL and the id1 at y read
    return _chain(pls(" |- x: ~[]~q | (~[]q | []s)"), [
        ("orR", {"label": "x", "principal": pf("~[]~q | (~[]q | []s)")}),
        ("orR", {"label": "x", "principal": pf("~[]q | []s")}),
        ("negR", {"label": "x", "principal": pf("~[]~q")}),
        ("negR", {"label": "x", "principal": pf("~[]q")}),
        ("boxR", {"label": "x", "fresh": "y", "phi": Atom("s")}),
        ("boxL", {"label": "x", "aux": "y", "phi": pf("~q")}),
        ("negL", {"label": "y", "principal": pf("~q")}),
        ("boxL", {"label": "x", "aux": "y", "phi": Atom("q")})],
        ("id1", {"label": "y", "principal": Atom("q")}))


def test_prune_keeps_a_rule_read_only_through_its_edge():
    p = _boxr_read_through_its_edge()
    assert check_csgl(p).accepted and end_active_report(p).accepted
    assert print_proof(prune(p)) == print_proof(p)
