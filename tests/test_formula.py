import collections
import copy
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from glproof.formula import (
    Atom,
    Box,
    Not,
    Or,
    ParseError,
    enumerate_formulas,
    parse_formula,
    print_formula,
    subformulas,
)

P, Q = Atom("p"), Atom("q")
LOB = "[]([]p -> p) -> []p"


def test_parse_lob_expands_sugar():
    f = parse_formula(LOB)
    assert f == Or(Not(Box(Or(Not(Box(P)), P))), Box(P))


def test_parse_double_negation():
    assert parse_formula("~~p") == Not(Not(P))


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_formula("p |")
    assert e.value.position == 3
    assert "formula" in e.value.expected


def test_parse_conj_sugar():
    assert parse_formula("p & q") == Not(Or(Not(P), Not(Q)))


def test_impl_right_associative():
    assert parse_formula("p -> q -> p") == parse_formula("p -> (q -> p)")


def test_or_left_associative():
    assert parse_formula("p | q | p") == Or(Or(P, Q), P)
    assert print_formula(Or(P, Or(Q, P))) == "p | (q | p)"


def test_print_examples():
    assert print_formula(Box(P)) == "[]p"
    assert print_formula(Or(P, Not(P))) == "p | ~p"
    assert print_formula(parse_formula(LOB)) == "~[](~[]p | p) | []p"


def _boxed(f):
    return frozenset(g for g in subformulas(f) if isinstance(g, Box))


def test_closure_examples():
    assert subformulas(P) == frozenset({P}) and _boxed(P) == frozenset()
    assert subformulas(Box(P)) == frozenset({P, Box(P)}) and _boxed(Box(P)) == frozenset({Box(P)})
    lob = parse_formula(LOB)
    assert len(subformulas(lob)) == 7
    assert _boxed(lob) == frozenset({Box(P), Box(Or(Not(Box(P)), P))})


def test_structural_identity_and_order():
    assert parse_formula("p | q") == parse_formula("p|q")
    assert Atom("p").key < Not(P).key < Or(P, P).key < Box(P).key


def test_enumeration_counts():
    fs = list(enumerate_formulas(("p", "q"), 2))
    # 2 atoms, 8 with one connective, 48 with two
    assert len(fs) == 2 + 8 + 48
    assert len(set(fs)) == len(fs)


@st.composite
def formulas(draw, max_depth=6):
    if max_depth == 0:
        return Atom(draw(st.sampled_from(("p", "q", "r", "ab1"))))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Atom(draw(st.sampled_from(("p", "q", "r", "ab1"))))
    if kind == 1:
        return Not(draw(formulas(max_depth=max_depth - 1)))
    if kind == 2:
        return Box(draw(formulas(max_depth=max_depth - 1)))
    return Or(
        draw(formulas(max_depth=max_depth - 1)),
        draw(formulas(max_depth=max_depth - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_subformulas_shrink(f):
    subs = subformulas(f)
    assert f in subs
    for g in subs:
        if g != f:
            assert subformulas(g) < subs


def test_equal_formulas_are_one_object():
    assert parse_formula("p | q") is Or(Atom("p"), Atom("q"))
    assert parse_formula("~[]p") is Not(Box(P))


def test_pickle_and_deepcopy_return_the_interned_formula():
    f = parse_formula(LOB)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f
    assert copy.copy(f) is f


def _hit_peak(n: int, left, right) -> int:
    """tracemalloc's peak over n lookups of the existing Or(left, right),
    less the traced memory before them.  CPython keeps freed tuples on a
    free list and reuses them without the allocator, so the live pairs held
    here empty that list first: a lookup that builds a tuple then shows.
    The lookups call `Or.__new__` itself, since calling the class also
    builds a tuple of its arguments."""
    hits = map(Or.__new__, itertools.repeat(Or, n), itertools.repeat(left, n),
               itertools.repeat(right, n))
    consume = collections.deque(maxlen=0).extend
    held = [(i, i) for i in range(4000)]
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()
    consume(hits)
    end = tracemalloc.get_traced_memory()
    del held
    return end[1] - start[0]


def test_or_lookup_hits_allocate_nothing():
    left, right = Not(Box(P)), Or(Q, P)
    f = Or(left, right)
    tracemalloc.start()
    try:
        # 10,000 hits raise the peak by exactly what no hit does
        assert _hit_peak(10_000, left, right) - _hit_peak(0, left, right) == 0
    finally:
        tracemalloc.stop()
    assert Or(left, right) is f and Or._table[left][right] is f
    for l, row in Or._table.items():
        for r, g in row.items():
            assert g.left is l and g.right is r
