"""Formulas that never went through a sequent constructor's sort.

Sides given to `of_sorted`, the items `insert_sorted` (so
`with_ante`/`with_cons`) adds, and the inputs of `decide_glseq`/`decide_csgl`
may hold formulas never keyed; whatever orders them builds their keys on
the way.  Each case builds its formulas fresh, over atoms no other test
uses, so none has a key before the case runs; each prints the same text as
when every formula was keyed at construction (the digests were recorded
that way).
"""

import hashlib

import pytest

from glproof.formula import Atom, Box, Not, Or, parse_formula as pf
from glproof.proofio import parse_gentzen_sequent as pgs, parse_labeled_sequent as pls
from glproof.proofio import print_proof
from glproof.search import SearchConfig, decide_csgl, decide_glseq, prove_formula
from glproof.sequents import GentzenSequent, LabeledSequent, insert_sorted
from glproof.transform import csgl_to_g3gl_embed, weaken

CFG = SearchConfig(oracle_hint=False)


def _fresh(stem: str):
    """Fresh formulas over the atoms `<stem>_p`, `<stem>_q`, `<stem>_r`,
    built by the constructors alone."""
    p, q, r = (Atom(f"{stem}_{a}") for a in "pqr")
    return p, q, r


def _unkeyed(*formulas) -> None:
    assert all(getattr(f, "_key", None) is None for f in formulas)


def _decided(result) -> str:
    if result.proved:
        return print_proof(result.proof)
    return f"not proved: {result.saturated}"


def _of_sorted_glseq():
    p, q, r = _fresh("unsorted_g")
    # each side is in order by its tags alone (atom < not < or < box, and
    # so on below); search compares two entries of each rank
    ante = (Not(p), Not(Box(q)), Or(p, r), Or(Not(q), r), Box(p), Box(Not(r)))
    _unkeyed(*ante)
    out = []
    for cons in ((Not(q), Not(Box(r)), Or(q, r), Or(Not(p), Box(q)), Box(q), Box(Or(q, r))),
                 (Not(q), Not(Box(p)), Box(r), Box(Not(p)))):
        s = GentzenSequent.of_sorted(ante, cons)
        out.append(_decided(decide_glseq(s, CFG)))
        assert s == GentzenSequent(s.ante, s.cons)  # the sides were canonical
    return out


def _of_sorted_csgl():
    p, q, r = _fresh("unsorted_c")
    lob = Or(Not(Box(Or(Not(Box(p)), p))), Box(p))
    _unkeyed(lob, q, r)
    out = [_decided(decide_csgl(LabeledSequent.of_sorted(frozenset(), (), (("x", lob),)), CFG))]
    s = LabeledSequent.of_sorted(
        frozenset({("x", "y")}),
        (("x", Not(p)), ("x", Not(Box(q))), ("x", Box(q)), ("x", Box(Not(r))), ("y", Not(r)),
         ("y", Or(p, q)), ("y", Or(Not(p), q))),
        (("x", Not(q)), ("x", Not(Box(r))), ("x", Box(q)), ("x", Box(Or(q, r))),
         ("y", Or(q, r)), ("y", Or(Not(q), r))))
    out.append(_decided(decide_csgl(s, CFG)))
    assert s == LabeledSequent(s.rel, s.ante, s.cons)
    return out


def _inserted():
    p, q, r = _fresh("unsorted_i")
    side = pgs("p, []q, ~r |- q").ante
    _unkeyed(p, q, r)
    added = (Box(p), Or(q, Not(r)), p)
    out = [str(GentzenSequent.of_sorted(insert_sorted(side, added), ()))]
    g = pgs("p, []q |- q | p, []p").with_ante(Not(Or(p, Box(q))), r).with_cons(Or(Not(r), p))
    out += [str(g), _decided(decide_glseq(g, CFG))]
    lab = pls("xRy; x: []p |- y: p").with_ante(("y", Box(Box(q))), ("x", Box(p)))
    lab = lab.with_cons(("y", Or(Not(Box(q)), r)), ("x", Not(p)))
    out += [str(lab), _decided(decide_csgl(lab, CFG))]
    return out


def _weakened():
    p, q, r = _fresh("unsorted_w")
    lob = pf("[]([]p -> p) -> []p")
    _unkeyed(p, q, r)
    out = []
    glseq = prove_formula(lob, "glseq", CFG).proof
    out.append(print_proof(weaken(glseq, glseq.conclusion.with_ante(Box(Or(p, q))))))
    # a raw one-formula antecedent whose formula was never keyed
    raw = GentzenSequent.of_sorted((Or(Not(r), q),), glseq.conclusion.cons)
    out.append(print_proof(weaken(glseq, raw)))
    g3 = csgl_to_g3gl_embed(prove_formula(lob, "csgl", CFG).proof)
    c = g3.conclusion
    out.append(print_proof(weaken(g3, LabeledSequent.of_sorted(
        c.rel, c.ante + (("z", Box(r)),), c.cons + (("z", Not(Box(r))),)))))
    return out


CASES = {
    "of_sorted_glseq": (_of_sorted_glseq, "a9fcdead4c7f7c7cd55b9c4dc0b1a5796e5b585596bfcfdab32320d2dbacce88"),
    "of_sorted_csgl": (_of_sorted_csgl, "3fdde0b6bb00b31e77dde9b446b6ccd5ebe8481eecab1900bf35a02f7f22a821"),
    "inserted": (_inserted, "02ce51ace5e4378d4bb39f830fc1b18e2bace30fc603227d130b5d4e125d2bb9"),
    "weakened": (_weakened, "7b195b8fe7609af5d8acd0107ea304d1ea85cbfefe949cde4361d5c933e7ecfe"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_unkeyed_formulas_print_as_keyed_ones(name):
    make, digest = CASES[name]
    text = "\n".join(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
