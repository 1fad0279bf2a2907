"""Formula keys are built on first read and equal the eager keys.

A formula is interned without its order key; the first read of `key` keys
it and every subformula it lacks, with no recursion, so chains thousands of
levels deep key on first read.  The reference below is the eager
construction the keys replace: each formula keyed when built, from the keys
of its parts.  Comparing two keys of such chains still recurses in C.
"""

import random

from glproof.formula import Atom, Box, Not, Or, random_formula, subformulas
from glproof.sequents import formula_key, labeled_key

DEPTH = 5000


def _eager_keys(f) -> dict:
    """Each subformula's key as the eager construction gave it: (0, name),
    (1, sub key), (2, left key, right key) or (3, sub key), built from the
    parts' keys, innermost first."""
    keys = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if g in keys:
            stack.pop()
            continue
        parts = (g.left, g.right) if type(g) is Or else () if type(g) is Atom else (g.sub,)
        missing = [h for h in parts if h not in keys]
        if missing:
            stack.extend(missing)
            continue
        tag = {Atom: 0, Not: 1, Or: 2, Box: 3}[type(g)]
        keys[g] = (tag, g.name) if type(g) is Atom else (tag, *(keys[h] for h in parts))
        stack.pop()
    return keys


def _chains(name: str):
    """`~`, `[]` and left-nested `|` chains of DEPTH, each built bottom-up
    over atoms that no other test uses, so none is keyed yet."""
    base = Atom(f"{name}0")
    neg, box, disj = base, base, base
    for i in range(DEPTH):
        neg, box = Not(neg), Box(box)
        disj = Or(disj, Atom(f"{name}{i % 3}"))
    return {"~": neg, "[]": box, "|": disj}


def test_a_constructed_formula_is_not_keyed_until_read():
    f = Or(Box(Atom("lazy_a")), Not(Or(Atom("lazy_b"), Box(Atom("lazy_a")))))
    assert all(g._key is None for g in subformulas(f))
    key = f.key
    assert key is f._key and f.key is key
    assert all(g._key is not None for g in subformulas(f))
    assert key == _eager_keys(f)[f]


def test_lazy_keys_equal_the_eager_keys_on_random_formulas():
    rng = random.Random(18)
    draws = [random_formula(rng, ("lazy_p", "lazy_q", "lazy_r"), rng.randint(0, 14))
             for _ in range(2000)]
    for f in draws:
        ref = _eager_keys(f)
        assert formula_key(f) == ref[f]
        assert labeled_key(("x", f)) == ("x", ref[f])
        for g in subformulas(f):  # keyed by the first read, and equal
            assert g._key == ref[g]


def test_deep_chains_key_on_first_read():
    for kind, f in _chains("lazy_deep").items():
        assert f._key is None, kind
        key = f.key  # no RecursionError
        # equal to the eager key level by level: two keys this deep cannot
        # be compared whole (that recurses in C), so compare each level's
        # tag and check that it holds its parts' own key objects
        ref = _eager_keys(f)
        for g in subformulas(f):
            k = g._key
            assert k is not None and k[0] == ref[g][0], kind
            if type(g) is Atom:
                assert k == ref[g]
            elif type(g) is Or:
                assert k[1] is g.left._key and k[2] is g.right._key
            else:
                assert k[1] is g.sub._key
        assert key is f._key


def test_each_class_interns_under_its_parts():
    # an atom under its name, a Not or Box under its subformula, an Or under
    # its left part and then its right: never under a key, whose hash would
    # walk its whole nesting
    chains = _chains("lazy_intern")
    f = Or(chains["|"], chains["~"])
    assert Or(chains["|"], chains["~"]) is f and f._key is None
    assert Or._table[chains["|"]][chains["~"]] is f
    neg, box, atom = Not(chains["~"]), Box(chains["[]"]), Atom("lazy_intern0")
    assert Not._table[chains["~"]] is neg and Box._table[chains["[]"]] is box
    assert Atom._table["lazy_intern0"] is atom
    assert all(g._key is None for g in chains.values())
