"""`insert_sorted` keeps a canonical side canonical: adding items to a side
sorted by `Formula.key` (labeled sides by label, then key) equals sorting the
concatenation.  The invariant on the proofs themselves is checked by
tests/test_pipeline.py::test_pipeline_totality_seeded_theorems."""

import pytest
from hypothesis import given, settings, strategies as st

from glproof.formula import Atom, Box, Not, Or
from glproof.sequents import formula_key, insert_sorted, labeled_key

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
