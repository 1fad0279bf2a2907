import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import labeled_valid_reference
from glproof import semantics
from glproof.formula import (
    Atom, Box, Not, Or, enumerate_formulas, implies, parse_formula, random_formula, subformulas,
)
from glproof.proofio import parse_labeled_sequent, parse_lns
from glproof.search import SearchConfig, decide_glseq, prove_formula
from glproof.semantics import (
    BadModel,
    Model,
    ModelBound,
    UnknownWorld,
    default_bound,
    eval_formula,
    eval_labeled_sequent,
    gentzen_interpretation,
    labeled_sequent_valid,
    lns_interpretation,
    oracle_validity,
    parse_model,
    print_model,
)
from glproof.sequents import GentzenSequent, LabeledSequent, LinearNestedSequent

LOB = parse_formula("[]([]p -> p) -> []p")
CHAIN = Model(["w", "u"], [("w", "u")], {"p": ["u"]})


def test_eval_box_vacuous():
    m = Model(["w"], [], {})
    assert eval_formula(m, "w", parse_formula("[]p"))
    assert eval_formula(m, "w", parse_formula("[](q | ~q)"))


def test_eval_chain():
    assert eval_formula(CHAIN, "w", parse_formula("[]p"))
    assert not eval_formula(CHAIN, "w", parse_formula("p"))
    assert not eval_formula(CHAIN, "w", parse_formula("[]p -> p"))


def test_eval_unknown_world():
    with pytest.raises(UnknownWorld):
        eval_formula(CHAIN, "nope", Atom("p"))


def test_model_invariants():
    with pytest.raises(BadModel):
        Model(["w"], [("w", "w")], {})  # irreflexivity
    with pytest.raises(BadModel):
        Model(["a", "b", "c"], [("a", "b"), ("b", "c")], {})  # transitivity
    with pytest.raises(BadModel, match=r"^relation is not irreflexive at w$"):
        Model(["w"], [("w", "w")], {})
    with pytest.raises(BadModel, match=r"^relation is not transitive: a<b<c$"):
        Model(["a", "b", "c"], [("a", "b"), ("b", "c")], {})
    with pytest.raises(BadModel, match=r"^relation mentions unknown world z$"):
        Model(["a"], [("a", "z")], {})
    m = Model(["a", "b", "c"], [("b", "c"), ("a", "c"), ("a", "b")], {})
    assert [m.successors(w) for w in "abc"] == [("b", "c"), ("c",), ()]


def test_oracle_lob_valid():
    assert oracle_validity(LOB).valid


def test_oracle_tautology():
    assert oracle_validity(parse_formula("p | ~p")).valid


def test_oracle_t_axiom_countermodel():
    # derived with the oracle itself: the minimal refutation is a single
    # irreflexive world where p fails (box is vacuously true there)
    v = oracle_validity(parse_formula("[]p -> p"))
    assert not v.valid
    assert len(v.model.worlds) == 1
    assert v.world == v.model.worlds[0]
    assert not eval_formula(v.model, v.world, parse_formula("[]p -> p"))


def test_oracle_k_and_four():
    assert oracle_validity(parse_formula("[](p->q) -> ([]p -> []q)")).valid
    assert oracle_validity(parse_formula("[]p -> [][]p")).valid


def test_oracle_box_chain_needs_deep_model():
    v = oracle_validity(parse_formula("[][][]p"))
    assert not v.valid
    assert len(v.model.worlds) == 4  # a 4-chain refutes 3 nested boxes


def test_oracle_branching_countermodel():
    # a p-successor and a ~p-successor, both dead ends: no chain refutes it
    f = parse_formula("[]~p | []p | ~[][](p & ~p)")
    v = oracle_validity(f)
    assert not v.valid
    assert len(v.model.worlds) == 3 and len(v.model.successors(v.world)) == 2
    assert not eval_formula(v.model, v.world, f)


def test_oracle_countermodel_self_check():
    v = oracle_validity(parse_formula("[]p | []~p"))
    assert not v.valid
    assert not eval_formula(v.model, v.world, parse_formula("[]p | []~p"))


def test_oracle_monotone_bound():
    f = parse_formula("[]p -> p")
    small = oracle_validity(f, ModelBound.uniform(1))
    assert not small.valid
    for n in (2, 3, 4):
        again = oracle_validity(f, ModelBound.uniform(n))
        assert not again.valid


def test_bound_too_small_flag():
    f = parse_formula("[][][][]p")  # needs a 5-chain
    v = oracle_validity(f, ModelBound.uniform(2))
    assert v.valid and v.bound_too_small
    v2 = oracle_validity(f)
    assert not v2.valid


def test_oracle_work_counters():
    for text in ("[]p -> p", "[]([]p -> p) -> []p"):
        v = oracle_validity(parse_formula(text))
        assert v.skeletons > 0 and v.tables > 0, text


# Seeded 3-atom formulas with 8-10 connectives: larger than the agreement
# sweep's, so nested boxes share and split box combinations across worlds.
_RNG = random.Random(2410)
MIXED = [random_formula(_RNG, ("p", "q", "r"), _RNG.randint(8, 10)) for _ in range(150)]


def test_oracle_agrees_with_glseq_on_three_atoms():
    cfg = SearchConfig(oracle_hint=False)
    for f in MIXED:
        proved = decide_glseq(GentzenSequent((), (f,)), cfg).proved
        assert oracle_validity(f).valid == proved, f


def test_oracle_countermodels_refute_and_are_minimal():
    invalid = 0
    for f in MIXED:
        v = oracle_validity(f)
        if v.valid:
            continue
        invalid += 1
        assert not eval_formula(v.model, v.world, f), f
        d = default_bound(f)
        smaller = ModelBound(len(v.model.worlds) - 1, d.max_depth, d.max_branching)
        assert oracle_validity(f, smaller).valid, f
    assert invalid > 100


def test_default_bound_shape():
    b = default_bound(LOB)
    assert b == ModelBound(4, 3, 3)  # two boxed subformulas


def test_eval_labeled_sequent_examples():
    s = parse_labeled_sequent("x: p |- x: p")
    assert eval_labeled_sequent(CHAIN, {"x": "w"}, s)
    assert eval_labeled_sequent(CHAIN, {"x": "u"}, s)

    s2 = parse_labeled_sequent("xRx; |-")
    for w in CHAIN.worlds:
        assert eval_labeled_sequent(CHAIN, {"x": w}, s2)

    m = Model(["w", "u"], [("w", "u")], {"p": []})
    s3 = parse_labeled_sequent(" |- x: []p")
    assert not eval_labeled_sequent(m, {"x": "w"}, s3)


def test_labeled_sequent_valid():
    ok, _ = labeled_sequent_valid(parse_labeled_sequent("x: p |- x: p"))
    assert ok
    bad, witness = labeled_sequent_valid(parse_labeled_sequent("x: p |- y: p"))
    assert not bad and witness is not None


def test_eval_labeled_sequent_rejects_an_unknown_world():
    # p is false at w0, so either sequent holds at x before y is read
    m = parse_model("worlds: w0 w1\nval p: w1\n")
    for text in ("xRy; |- y: p", "x: p |- y: p"):
        s = parse_labeled_sequent(text)
        with pytest.raises(UnknownWorld, match="zz"):
            eval_labeled_sequent(m, {"x": "w0", "y": "zz"}, s)
        with pytest.raises(UnknownWorld, match="missing label y"):
            eval_labeled_sequent(m, {"x": "w0"}, s)
        assert eval_labeled_sequent(m, {"x": "w0", "y": "w0"}, s)


def _audit_like_sequents(rng, n):
    """Sequents built like the `audit` benchmark's labeled items from n
    seeded theorems (`|- x: f`, `|- x: ~f`, `xRy; |- y: ~f` and up to two
    relational conclusions of f's CSGL proof), plus `|- x: g` and
    `xRy; x: g |- y: ~g` for n seeded random formulas g, valid or not."""
    cfg = SearchConfig(oracle_hint=False)
    out = []
    theorems = 0
    while theorems < n:
        f = random_formula(rng, ("p", "q"), rng.randint(1, 4))
        result = prove_formula(f, "csgl", cfg)
        if not result.proved:
            continue
        theorems += 1
        out += [LabeledSequent((), (), (("x", f),)),
                LabeledSequent((), (), (("x", Not(f)),)),
                LabeledSequent((("x", "y"),), (), (("y", Not(f)),))]
        out += [c for c in (node.conclusion for _, node in result.proof.nodes()) if c.rel][:2]
    for _ in range(n):
        g = random_formula(rng, ("p", "q"), rng.randint(1, 4))
        out += [LabeledSequent((), (), (("x", g),)),
                LabeledSequent((("x", "y"),), (("x", g),), (("y", Not(g)),))]
    return out


def test_labeled_sequent_valid_matches_the_per_assignment_reference():
    sequents = _audit_like_sequents(random.Random(34), 8)
    assert any(s.rel for s in sequents) and any(not s.rel for s in sequents)
    verdicts = set()
    for s in sequents:
        for bound in (None, ModelBound(3, 2, 2)):
            got = labeled_sequent_valid(s, bound)
            want = labeled_valid_reference.labeled_sequent_valid(s, bound)
            assert got[0] == want[0], s
            if not want[0]:
                assert print_model(got[1][0]) == print_model(want[1][0]), s
                assert got[1][1] == want[1][1], s
            else:
                assert got[1] is None
            verdicts.add((bool(s.rel), want[0]))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_labeled_sequent_valid_evaluates_each_subformula_once_per_model_world(monkeypatch):
    # every (model, world, subformula) entering a memo is one evaluation
    evaluated = Counter()
    models = []  # kept alive, so no two models share an id
    reused = 0

    def counting(m, w, f, memo):
        nonlocal reused
        models.append(m)
        reused += (w, f) in memo
        before = set(memo)
        v = real(m, w, f, memo)
        evaluated.update((id(m),) + key for key in memo.keys() - before)
        return v

    real = semantics._eval
    monkeypatch.setattr(semantics, "_eval", counting)
    s = parse_labeled_sequent("xRy; xRz; x: []p, z: q |- y: p | q, z: q")
    assert labeled_sequent_valid(s, ModelBound(3, 3, 2)) == (True, None)
    assert max(evaluated.values()) == 1
    assert {w for _, w, _ in evaluated} == {"w0", "w1", "w2"}
    assert reused > 0  # some assignment read what another one evaluated


def test_lns_interpretation_single():
    g = parse_lns(" |- p")
    f = lns_interpretation(g)
    # oracle-equivalent to p, not syntactically identical
    assert oracle_validity(parse_formula(f"~(({f}) -> p) | ~(p -> ({f}))")).valid is False or True
    equiv = parse_formula(f"(({f}) -> p) & (p -> ({f}))")
    assert oracle_validity(equiv).valid


def test_lns_interpretation_two_components():
    g = parse_lns("p |- q // r |- s")
    expected = parse_formula("p -> (q | [](r -> s))")
    got = lns_interpretation(g)
    equiv = parse_formula(f"(({got}) -> ({expected})) & (({expected}) -> ({got}))")
    assert oracle_validity(equiv).valid


def test_lns_interpretation_lob():
    g = parse_lns("|- []([]p->p)->[]p")
    assert oracle_validity(lns_interpretation(g)).valid


def test_interpretations_add_no_atom_for_empty_antecedent():
    def atoms_in(f):
        return {g.name for g in subformulas(f) if isinstance(g, Atom)}

    f = parse_formula("[](q -> p) | ~r")
    assert atoms_in(gentzen_interpretation(GentzenSequent((), (f,)))) == atoms_in(f)
    g = parse_lns(" |- p, q // |- []r")
    assert atoms_in(lns_interpretation(g)) == {"p", "q", "r"}
    assert atoms_in(lns_interpretation(parse_lns(" |- // |- p"))) == {"p"}


def test_gentzen_interpretation_empty_sides():
    from glproof.proofio import parse_gentzen_sequent

    f = gentzen_interpretation(parse_gentzen_sequent(" |- "))
    assert not oracle_validity(f).valid  # empty sequent is not valid


def test_model_format_round_trip():
    text = "worlds: w1 w2 w3\nrel: w1<w2; w2<w3\nval p: w2\nval q: w1 w3\n"
    m = parse_model(text)
    assert ("w1", "w3") in m.rel  # transitive closure applied on load
    m2 = parse_model(print_model(m))
    assert m2.rel == m.rel and m2.valuation == m.valuation and set(m2.worlds) == set(m.worlds)


def test_model_format_rejects_reflexive():
    with pytest.raises(BadModel):
        parse_model("worlds: w\nrel: w<w\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 12 - 1))
def test_oracle_agrees_with_truth_tables_on_propositional(bits):
    # propositional formulas: oracle validity == tautology
    from glproof.formula import Not, Or

    def build(n, depth=0):
        if depth >= 3 or n % 4 == 0:
            return Atom("p") if n % 2 == 0 else Atom("q")
        if n % 4 == 1:
            return Not(build(n // 4, depth + 1))
        return Or(build(n // 4, depth + 1), build(n // 2, depth + 1))

    f = build(bits)

    def tt(f, val):
        if isinstance(f, Atom):
            return val[f.name]
        if isinstance(f, Not):
            return not tt(f.sub, val)
        return tt(f.left, val) or tt(f.right, val)

    taut = all(
        tt(f, {"p": a, "q": b}) for a in (False, True) for b in (False, True)
    )
    assert oracle_validity(f).valid == taut


# ---------------------------------------------------------------------------
# Shared countermodels

@pytest.fixture(scope="module")
def refuted():
    """Every {p, q} formula with at most 4 connectives that the oracle refutes."""
    return [f for f in enumerate_formulas(("p", "q"), 4) if not oracle_validity(f).valid]


def test_shared_countermodels_print_as_freshly_built_ones(refuted):
    before = semantics._countermodel.cache_info()
    shared = [(print_model(v.model), v.world) for v in map(oracle_validity, refuted)]
    assert semantics._countermodel.cache_info().hits >= before.hits + len(refuted)
    fresh = []
    for f in refuted:
        semantics._countermodel.cache_clear()
        v = oracle_validity(f)
        fresh.append((print_model(v.model), v.world))
    assert shared == fresh


def test_every_refutation_is_checked_cache_hits_included(refuted, monkeypatch):
    checked = []

    def counting(m, w, f):
        checked.append(f)
        return eval_formula(m, w, f)

    monkeypatch.setattr(semantics, "eval_formula", counting)
    before = semantics._countermodel.cache_info()
    for f in refuted:
        assert not oracle_validity(f).valid
    assert checked == refuted
    assert semantics._countermodel.cache_info().hits > before.hits


def test_labeled_sequent_valid_bypasses_the_countermodel_cache():
    before = semantics._countermodel.cache_info()
    for text in ("x: p |- x: p", "x: p |- y: p", "xRy; x: []p |- y: p", " |- x: []p"):
        labeled_sequent_valid(parse_labeled_sequent(text))
    assert semantics._countermodel.cache_info() == before


def test_models_are_immutable_values():
    models = (oracle_validity(parse_formula("[]p | []~p | q")).model,
              parse_model("worlds: w1 w2 w3\nrel: w1<w2; w2<w3\nval p: w2\nval q: w1 w3\n"))
    for m in models:
        with pytest.raises(TypeError):
            m.valuation["p"] = frozenset()
        with pytest.raises(TypeError):
            del m.valuation["p"]
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert twin is not m
            assert (twin.worlds, twin.rel, twin.valuation) == (m.worlds, m.rel, m.valuation)
            assert [twin.successors(w) for w in twin.worlds] == [m.successors(w) for w in m.worlds]
            assert print_model(twin) == print_model(m)
            with pytest.raises(TypeError):
                twin.valuation["p"] = frozenset()


# ---------------------------------------------------------------------------
# Formula depth costs no recursion

def _nest(cls, times, f):
    for _ in range(times):
        f = cls(f)
    return f


def test_oracle_on_deep_negations():
    assert oracle_validity(_nest(Not, 5000, Atom("p"))).kind == "Countermodel"
    assert oracle_validity(_nest(Not, 5000, parse_formula("p | ~p"))).kind == "Valid"


def test_eval_deep_box_chain():
    # a box chain reaches no deeper than the model: at w only the outermost
    # box has a successor to look at
    not_p = Not(Atom("p"))
    assert not eval_formula(CHAIN, "w", Box(not_p))
    deep = _nest(Box, 5000, not_p)
    assert eval_formula(CHAIN, "w", deep) and eval_formula(CHAIN, "u", deep)
    assert not eval_formula(CHAIN, "w", Not(deep))
    # 5,000 false boxed disjuncts, all read at w, one `|` inside the next
    disjuncts = Box(not_p)
    for _ in range(4999):
        disjuncts = Or(Box(not_p), disjuncts)
    assert not eval_formula(CHAIN, "w", disjuncts)
    assert eval_formula(CHAIN, "w", Or(disjuncts, Box(Atom("p"))))


def test_lns_interpretation_of_a_long_sequent():
    p, q = Atom("p"), Atom("q")
    comp = GentzenSequent((p,), (q,))
    expected = implies(p, q)
    for _ in range(1999):
        expected = implies(p, Or(q, Box(expected)))
    assert lns_interpretation(LinearNestedSequent([comp] * 2000)) is expected
