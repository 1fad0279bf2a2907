"""`insert_sorted` keeps a canonical side canonical: adding items to a side
sorted by `Formula.key` (labeled sides by label, then key) equals sorting the
concatenation.  `LabeledSequent.rename` keeps sides canonical too, whether
or not its map is injective.  The invariant on the proofs themselves is
checked by tests/test_pipeline.py::test_pipeline_totality_seeded_theorems."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from glproof.formula import Atom, Box, Not, Or, random_formula
from glproof.sequents import LabeledSequent, formula_key, insert_sorted, labeled_key

FORMULAS = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r")]),
    lambda sub: st.one_of(
        sub.map(Not), sub.map(Box), st.tuples(sub, sub).map(lambda t: Or(*t))),
    max_leaves=5,
)
LABELS = st.sampled_from(["x", "y0", "y1", "y10", "u2"])


@pytest.mark.parametrize("labeled", [False, True])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_insert_sorted_equals_sorted(labeled, data):
    items = st.tuples(LABELS, FORMULAS) if labeled else FORMULAS
    key = labeled_key if labeled else formula_key
    side = tuple(sorted(data.draw(st.lists(items, max_size=6)), key=key))
    add = tuple(data.draw(st.lists(items, min_size=1, max_size=3)))
    assert insert_sorted(side, add) == tuple(sorted(side + add, key=key))


def test_rename_equals_a_full_sort():
    rng = random.Random(11)
    labels = ["x", "y0", "y1", "y10", "u2", "y9"]
    kinds = set()
    for _ in range(600):
        labs = rng.sample(labels, rng.randint(1, 4))
        items = lambda: [(rng.choice(labs), random_formula(rng, ("p", "q"), rng.randint(0, 4)))
                         for _ in range(rng.randint(0, 6))]
        rel = [(rng.choice(labs), rng.choice(labs)) for _ in range(rng.randint(0, 3))]
        s = LabeledSequent(rel, items(), items())
        # a random map on some labels, into labels old and new
        mapping = {a: rng.choice(labels + ["z", "a"]) for a in labs if rng.random() < 0.7}
        ren = lambda z: mapping.get(z, z)
        kinds.add(len(set(map(ren, s.labels()))) == len(s.labels()))
        want = LabeledSequent(((ren(a), ren(b)) for a, b in s.rel),
                              ((ren(a), f) for a, f in s.ante),
                              ((ren(a), f) for a, f in s.cons))
        got = s.rename(mapping)
        assert (got.rel, got.ante, got.cons) == (want.rel, want.ante, want.cons)
        assert hash(got) == hash(want)
    assert kinds == {True, False}
