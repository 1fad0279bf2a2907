import random

import pytest
from hypothesis import given, settings, strategies as st

from glproof.formula import Atom, parse_formula
from glproof.proofio import (
    SequentSyntaxError,
    parse_gentzen_sequent,
    parse_labeled_sequent,
    parse_lns,
    parse_proof,
    print_proof,
)
from glproof.rules import premises_of
from glproof.sequents import (
    GentzenSequent,
    LabeledSequent,
    LinearNestedSequent,
    NotATree,
    Proof,
    format_address,
    parse_address,
    project_chain,
    root_path,
    tree_root,
)


def test_tree_root_examples():
    assert tree_root(parse_labeled_sequent("xRy; x: p |- y: q")) == "x"
    assert tree_root(parse_labeled_sequent("x: p |- x: q")) == "x"
    with pytest.raises(NotATree) as e:
        tree_root(parse_labeled_sequent("xRy; yRx; |-"))
    assert e.value.diagnosis == "cycle"


def test_tree_root_diagnoses():
    with pytest.raises(NotATree) as e:
        tree_root(parse_labeled_sequent("xRy; zRw; |-"))
    assert e.value.diagnosis == "multi-root"
    with pytest.raises(NotATree) as e:
        tree_root(parse_labeled_sequent("xRy; z: p |- z: p"))
    assert e.value.diagnosis == "dangling-label"
    with pytest.raises(NotATree) as e:
        tree_root(parse_labeled_sequent("x: p |- y: q"))
    assert e.value.diagnosis == "disconnected"
    with pytest.raises(NotATree) as e:
        tree_root(parse_labeled_sequent("xRy; xRz; zRy; |-"))
    assert e.value.diagnosis == "cycle"


def test_path_projection_examples():
    def projection(t, leaf):
        return project_chain(t, root_path(t, leaf))

    flat = parse_labeled_sequent("x: p |- x: q")
    assert projection(flat, "x") == parse_lns("p |- q")

    t = parse_labeled_sequent("xRy; x: p, y: q |- y: r")
    assert projection(t, "y") == parse_lns("p |- // q |- r")

    t3 = parse_labeled_sequent("xRy; xRz; x: p |- z: q")
    assert projection(t3, "y") == parse_lns("p |- //  |- ")


def _seeded_tree_sequents(rng, n):
    """n tree sequents over up to 7 labels, drawing side items from a few
    formulas, so labels repeat formulas and many labels have empty sides."""
    pool = [parse_formula(t) for t in ("p", "q", "~p", "[]q", "p | q")]
    for _ in range(n):
        labels = ["x"] + [f"y{i}" for i in range(rng.randint(0, 6))]
        rel = [(rng.choice(labels[:i]), lab) for i, lab in enumerate(labels) if i]
        sides = [[(rng.choice(labels), rng.choice(pool)) for _ in range(rng.randint(0, 9))]
                 for _ in range(2)]
        yield LabeledSequent(rel, *sides), labels


def test_project_chain_is_the_per_label_projection():
    rng = random.Random(5)
    repeated = empty = skipping = 0
    for t, labels in _seeded_tree_sequents(rng, 2000):
        leaf = rng.choice(labels)
        path = root_path(t, leaf)
        # a root path, the path with labels left out, and any labels at all
        for chain in (path, [x for x in path if rng.random() < 0.6] or [leaf],
                      rng.sample(labels + ["z"], rng.randint(1, len(labels)))):
            want = LinearNestedSequent([t.flat_at(x) for x in chain])
            got = project_chain(t, chain)
            assert got == want and str(got) == str(want), (t, chain)
            skipping += len(chain) < len(path)
        items = t.ante + t.cons
        repeated += len(set(items)) < len(items)
        empty += any(not t.flat_at(x).ante and not t.flat_at(x).cons for x in labels)
    assert min(repeated, empty, skipping) > 100, (repeated, empty, skipping)


def test_multiset_canonicalization():
    a = parse_gentzen_sequent("q, p |- r")
    b = parse_gentzen_sequent("p, q |- r")
    assert a == b and hash(a) == hash(b)
    assert parse_gentzen_sequent("p, p |- ") != parse_gentzen_sequent("p |- ")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["p", "q", "~p", "p|q", "[]p"]), max_size=5),
       st.lists(st.sampled_from(["p", "q", "~p", "p|q", "[]p"]), max_size=5))
def test_multiset_union_commutative(xs, ys):
    fx = [parse_formula(s) for s in xs]
    fy = [parse_formula(s) for s in ys]
    assert GentzenSequent(fx + fy, ()) == GentzenSequent(fy + fx, ())


def _reparsed(calculus, s, rule, meta):
    return parse_proof(print_proof(Proof(calculus, rule, s, (), meta))).conclusion


def test_sequents_hash_by_value_however_built():
    # a sequent computes its hash when first asked, so every way of building
    # one must give equal sequents equal hashes
    p, q, bp, np_ = (parse_formula(t) for t in ("p", "q", "[]p", "~p"))
    g = GentzenSequent([q, p], [p])
    ls = LabeledSequent([("x", "y")], [("y", p), ("x", bp)], [("y", q)])
    lns = LinearNestedSequent([GentzenSequent([bp], []), GentzenSequent([bp], [p])])
    groups = [
        [g, GentzenSequent.of_sorted((p, q), (p,)),
         premises_of("glseq", "negR", {"principal": np_}, parse_gentzen_sequent("q |- p, ~p"))[0],
         _reparsed("glseq", g, "id", {"principal": p})],
        [ls, LabeledSequent.of_sorted(frozenset({("x", "y")}), (("x", bp), ("y", p)), (("y", q),)),
         premises_of("csgl", "boxL", {"label": "x", "aux": "y", "phi": p},
                     parse_labeled_sequent("xRy; x: []p |- y: q"))[0],
         _reparsed("csgl", ls, "id1", {"label": "y", "principal": p})],
        [lns, LinearNestedSequent([GentzenSequent.of_sorted((bp,), ()),
                                   GentzenSequent.of_sorted((bp,), (p,))]),
         premises_of("lngl", "4L", {"phi": p}, parse_lns("[]p |-  //  |- p"))[0],
         _reparsed("lngl", lns, "id2", {"principal": bp})],
    ]
    for group in groups:
        first, rest = group[0], group[1:]
        assert all(s == first and s is not first for s in rest)
        table = {first: "found"}
        assert [table.get(s) for s in rest] == ["found"] * len(rest)
        assert len(set(group)) == 1 and len({hash(s) for s in group}) == 1
    # and unequal sequents stay apart
    assert len(set(group[0] for group in groups)) == 3
    assert GentzenSequent([p], [p]) not in {g}


def test_lns_requires_component():
    with pytest.raises(ValueError):
        LinearNestedSequent([])
    g = parse_lns("p |- q // r |- s")
    assert len(g) == 2 and g.end == parse_gentzen_sequent("r |- s")


def test_sequent_round_trips():
    for text, parse in [
        ("p, q |- r", parse_gentzen_sequent),
        (" |- p | ~p", parse_gentzen_sequent),
        ("xRy; xRz; x: p, y: q |- z: r", parse_labeled_sequent),
        ("x: p |- x: q", parse_labeled_sequent),
        ("p |- q // r |- s //  |- p", parse_lns),
    ]:
        s = parse(text)
        assert parse(str(s)) == s


def test_labeled_sequent_rename_simultaneous():
    s = parse_labeled_sequent("xRy; x: p |- y: q")
    r = s.rename({"x": "y", "y": "x"})
    assert r == parse_labeled_sequent("yRx; y: p |- x: q")


def test_bad_sequent_syntax():
    with pytest.raises(SequentSyntaxError):
        parse_gentzen_sequent("p, q")
    with pytest.raises(SequentSyntaxError):
        parse_labeled_sequent("xSy; x: p |- ")
    with pytest.raises(SequentSyntaxError):
        parse_labeled_sequent("p |- q")  # labeled formulas need labels


def test_addresses():
    assert format_address(()) == "."
    assert format_address((0, 1, 2)) == "0/1/2"
    assert parse_address(".") == ()
    assert parse_address("0/1/2") == (0, 1, 2)


def test_tree_root_of_a_long_chain():
    labels = [f"w{i}" for i in range(3000)]
    chain = LabeledSequent(zip(labels, labels[1:]), (), ((labels[-1], Atom("p")),))
    assert tree_root(chain) == "w0"


def test_proof_walks_do_not_recurse_on_height():
    seq = GentzenSequent((), (Atom("p"),))
    proof = Proof("glseq", "id", seq)
    for _ in range(4999):
        proof = Proof("glseq", "negR", seq, (proof,))
    assert proof.height() == 4999 and proof.node_count() == 5000
    walk = list(proof.nodes())
    assert [addr for addr, _ in walk[:3]] == [(), (0,), (0, 0)]
    assert walk[-1] == ((0,) * 4999, proof.at((0,) * 4999))


def _negr_chain(levels: int, leaf_rule: str = "id") -> Proof:
    seq = GentzenSequent((), (Atom("p"),))
    proof = Proof("glseq", leaf_rule, seq)
    for _ in range(levels - 1):
        proof = Proof("glseq", "negR", seq, (proof,))
    return proof


def test_deep_proofs_compare_and_print_without_recursion():
    a, b = _negr_chain(5000), _negr_chain(5000)
    assert a is not b and a == b
    assert a != _negr_chain(5000, leaf_rule="id1")
    assert a != _negr_chain(4999)
    assert repr(a) == "Proof('glseq', 'negR', <|- p>, 1 premises)"


def test_proof_equality_is_by_value():
    seq = GentzenSequent((), (Atom("p"),))
    leaf = Proof("glseq", "id", seq, meta={"principal": Atom("p")})
    assert leaf == Proof("glseq", "id", seq, (), {"principal": Atom("p")})
    assert leaf != Proof("glseq", "id", seq)
    assert leaf != Proof("k4seq", "id", seq, meta={"principal": Atom("p")})
    assert Proof("glseq", "orL", seq, (leaf, leaf)) != Proof("glseq", "orL", seq, (leaf,))
    assert leaf != "id" and leaf.__eq__("id") is NotImplemented
    # a fresh meta dict per node, as before
    assert Proof("glseq", "id", seq).meta is not Proof("glseq", "id", seq).meta


def test_nodes_is_preorder_with_addresses():
    seq = GentzenSequent((), (Atom("p"),))
    leaf = Proof("glseq", "id", seq)
    tree = Proof("glseq", "orL", seq, (Proof("glseq", "negR", seq, (leaf,)), leaf))
    assert [(addr, node.rule) for addr, node in tree.nodes()] == [
        ((), "orL"), ((0,), "negR"), ((0, 0), "id"), ((1,), "id"),
    ]
