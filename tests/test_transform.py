import random

import pytest

import lngl_to_glseq_reference
from rederive_reference import _avoid_fresh, _exchange, _rederive, relabel_proof, replace_at
from search_reference import eager_prove_csgl
from glproof import transform
from glproof.formula import Atom, Box, Not, Or, parse_formula as pf, print_formula, random_formula
from glproof.proofio import (
    parse_gentzen_sequent as pgs,
    parse_labeled_sequent as pls,
    parse_lns,
    print_proof,
)
from glproof.rules import derive, premises_of
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import (
    CyclicDerivation,
    GentzenSequent,
    LabeledSequent,
    LinearNestedSequent,
    NotATree,
    Proof,
    trampoline,
    tree_root,
)
from glproof.checkers import (
    NOT_END_ACTIVE,
    CheckReport,
    Failure,
    _wrong_calculus,
    block_violations,
    check_csgl,
    check_g3gl,
    check_glcirc,
    check_glseq,
    check_lngl,
    check_proof,
    end_active_report,
    node_end_active,
    normal_form_report,
)
from glproof.transform import (
    GENTZEN,
    LABELED,
    InternalNonTermination,
    NotApplicable,
    NotEndActive,
    NotNormalForm,
    NotPermutable,
    ShapeViolation,
    TransformError,
    apply_inverse,
    csgl_to_g3gl_embed,
    glseq_to_g3gl,
    linearize,
    lngl_to_glseq,
    normalize_lngl,
    permute_down,
    prove_general_id,
    run_pass,
    to_end_active,
    unfold_glcirc,
    weaken,
)

CFG = SearchConfig(oracle_hint=False)
P, Q = Atom("p"), Atom("q")
LOB = pf("[]([]p -> p) -> []p")
CORPUS = [LOB, pf("[](p->q)->([]p->[]q)"), pf("[]p->[][]p"), pf("p|~p"), pf("[](p|~p)")]


def rules_in(p):
    return {n.rule for _, n in p.nodes()}


def csgl_proof(f):
    r = prove_formula(f, "csgl", CFG)
    assert r.proved
    return r.proof


# ---------------------------------------------------------------------------
# Generalized identity

def test_gen_id_atom_single_node():
    goal = pls("x: p |- x: p")
    p = prove_general_id("csgl", goal, ("x", P))
    assert p.rule == "id1" and p.height() == 0
    assert check_csgl(p).accepted


def test_gen_id_negation_height_two():
    f = pf("~p")
    goal = pls("x: ~p |- x: ~p")
    p = prove_general_id("csgl", goal, ("x", f))
    assert p.height() == 2
    assert [n.rule for _, n in p.nodes()] == ["negR", "negL", "id1"]
    assert check_csgl(p).accepted


def test_gen_id_disjunction_two_leaves():
    f = pf("p | q")
    goal = pls("x: p | q |- x: p | q")
    p = prove_general_id("g3gl", goal, ("x", f))
    assert check_g3gl(p, "strict").accepted
    leaves = [n for _, n in p.nodes() if not n.premises]
    assert len(leaves) == 2 and all(n.rule == "id1" for n in leaves)


def test_gen_id_with_context():
    goal = pls("xRy; x: q, y: ~(p | []q) |- y: ~(p | []q), x: []p")
    p = prove_general_id("csgl", goal, ("y", pf("~(p | []q)")))
    assert check_csgl(p).accepted


def test_gen_id_gentzen_single_id():
    goal = pgs("q, p | ~p |- p | ~p")
    p = prove_general_id("glseq", goal, pf("p | ~p"))
    assert p.rule == "id" and p.height() == 0
    assert check_glseq(p).accepted


def test_gen_id_lns():
    goal = parse_lns("p |- q // ~[]p |- ~[]p")
    p = prove_general_id("lngl", goal, pf("~[]p"))
    assert check_lngl(p).accepted


# ---------------------------------------------------------------------------
# admit: weakening

def test_admit_w_lngl_on_initial():
    g = parse_lns("p |- p // q |- q")
    base = Proof("lngl", "id1", g, (), {"principal": Q})
    out = weaken(base, parse_lns("p, []s |- t, p // q |- q"))
    assert out.height() == 0 and out.rule == "id1"
    assert out.conclusion == parse_lns("p, []s |- t, p // q |- q")
    assert check_lngl(out).accepted


def test_admit_w_csgl_height_preserved():
    base = csgl_proof(LOB)
    target = base.conclusion.with_ante(("x", Q)).with_cons(("x", pf("~~r")))
    out = weaken(base, target)
    assert out.height() == base.height()
    assert check_csgl(out).accepted
    assert set(out.conclusion.ante) >= {("x", Q)}
    assert ("x", pf("~~r")) in out.conclusion.cons


def test_weaken_renames_a_fresh_label_apart_from_the_whole_proof():
    # the orL branches' boxRs create y0 and y1; a target at y0 renames the
    # first one's label to one that no branch uses, not to y1.  The eager
    # search's proof: CSGL search skips the right branch
    base = eager_prove_csgl(pf("~[]p | ([]([]p | q) | ~(q | q))"), CFG).proof
    assert [n.meta["fresh"] for _, n in base.nodes() if n.rule == "boxR"] == ["y0", "y1"]
    target = base.conclusion.with_rel(("x", "y0")).with_ante(("y0", P))
    out = weaken(base, target)
    assert [n.meta["fresh"] for _, n in out.nodes() if n.rule == "boxR"] == ["y2", "y1"]
    assert check_csgl(out).accepted


def test_admit_w_csgl_shape_violation():
    base = csgl_proof(pf("p | ~p"))
    bad = base.conclusion.with_rel(("a", "b"))  # disconnected from x
    with pytest.raises(ShapeViolation):
        weaken(base, bad)
    # a cycle through the root, on a proof with a boxR above it
    lob = csgl_proof(LOB)
    with pytest.raises(ShapeViolation, match="cycle"):
        weaken(lob, lob.conclusion.with_rel(("x", "x")))


def test_admit_w_fresh_collision_renames():
    # weakening in a formula at the proof's fresh label forces a rename;
    # done over the extended labeled calculus, where no tree shape is imposed
    base = csgl_to_g3gl_embed(csgl_proof(LOB))
    fresh_labels = {n.meta["fresh"] for _, n in base.nodes() if n.rule == "boxR"}
    clash = next(iter(fresh_labels))
    out = weaken(base, base.conclusion.with_ante((clash, Q)))
    assert check_g3gl(out, "extended").accepted
    assert all(
        n.meta["fresh"] != clash for _, n in out.nodes() if n.rule == "boxR"
    )
    assert out.height() == base.height()


def test_admit_w_gentzen_absorbed_by_modal():
    base = prove_formula(LOB, "glseq", CFG).proof
    out = weaken(base, base.conclusion.with_ante(Q).with_cons(pf("[]q")))
    assert check_glseq(out).accepted
    assert out.height() == base.height()


def test_admit_w_target_without_a_used_formula():
    # the target is not checked to contain p's conclusion: a rule that uses
    # the missing formula fails to re-derive
    glseq = prove_formula(LOB, "glseq", CFG).proof
    csgl = csgl_proof(LOB)
    for base, target in ((glseq, pgs("|- q")), (csgl, pls("|- x: q")),
                         (csgl_to_g3gl_embed(csgl), pls("|- x: q"))):
        with pytest.raises(NotApplicable):
            weaken(base, target)


def _weaken_by_additions(p: Proof, **adds) -> Proof:
    """Admissible weakening, dissolved into the proof (no w node appears).

    Labeled calculi:  weaken(p, added=LabeledSequent(rel', ante', cons')).
    LNGL:             weaken(p, component=i, ante=(...), cons=(...)).
    Gentzen calculi:  weaken(p, ante=(...), cons=(...)).
    Every node is re-derived at its weakened conclusion; a premise that does
    not change (the boxGL/box4 premise) is kept.
    """
    c = p.conclusion
    add_a, add_c = tuple(adds.get("ante", ())), tuple(adds.get("cons", ()))
    if p.calculus in LABELED:
        p = trampoline(_avoid_fresh(p, adds["added"].labels()))
        target = _merge_labeled(c, adds["added"])
    elif p.calculus == "lngl":
        i = adds.get("component", len(c) - 1)
        comp = c.components[i]
        target = LinearNestedSequent(c.components[:i] + (
            GentzenSequent(comp.ante + add_a, comp.cons + add_c),) + c.components[i + 1:])
    elif p.calculus in GENTZEN:
        target = GentzenSequent(c.ante + add_a, c.cons + add_c)
    else:
        raise NotApplicable(f"no weakening for {p.calculus}")
    if p.calculus == "csgl":
        # every goal re-derived from a tree target is a tree (tree preservation)
        try:
            tree_root(target)
        except NotATree as e:
            raise ShapeViolation(f"weakening breaks the tree shape: {e}") from e

    step = lambda q, goal: _rederive(q, goal, step)
    return trampoline(step(p, target))


def _merge_labeled(s: LabeledSequent, added: LabeledSequent) -> LabeledSequent:
    return LabeledSequent(s.rel | added.rel, s.ante + added.ante, s.cons + added.cons)


def _additions_target(p: Proof, **adds):
    """The conclusion that `_weaken_by_additions(p, **adds)` derives."""
    c = p.conclusion
    if p.calculus in LABELED:
        return _merge_labeled(c, adds["added"])
    ante, cons = adds.get("ante", ()), adds.get("cons", ())
    if p.calculus in GENTZEN:
        return GentzenSequent(c.ante + ante, c.cons + cons)
    i = adds.get("component", len(c) - 1)
    comp = c.components[i]
    return LinearNestedSequent(c.components[:i] + (
        GentzenSequent(comp.ante + ante, comp.cons + cons),) + c.components[i + 1:])


def _weakening_inputs(rng):
    """(proof, additions) pairs over seeded theorems: GLseq proofs and their
    subproofs, whose boxGLs absorb additions; CSGL proofs and their g3glext
    embeddings, with added relational atoms and formulas, some at a fresh
    label of the proof; LNGL stage proofs, at component 0 and at the end."""
    parts = [P, Q, pf("[]q"), pf("~[]p"), pf("p | []r")]
    theorems = []
    while len(theorems) < 30:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(4, 10))
        if prove_formula(f, "glseq", CFG).proved:
            theorems.append(f)
    for f in theorems:
        glseq = prove_formula(f, "glseq", CFG).proof
        for _, node in rng.sample(list(glseq.nodes()), min(3, glseq.node_count())):
            yield node, {"ante": (rng.choice(parts),), "cons": tuple(rng.sample(parts, 2))}
        csgl = csgl_proof(f)
        fresh = sorted({n.meta["fresh"] for _, n in csgl.nodes() if n.rule == "boxR"})
        for p in (csgl, csgl_to_g3gl_embed(csgl)):
            for _, node in rng.sample(list(p.nodes()), min(3, p.node_count())):
                x = rng.choice(sorted(node.conclusion.labels()))
                for y in ["z"] + fresh:
                    g, h = rng.sample(parts, 2)
                    yield node, {"added": LabeledSequent(((x, y),), ((y, g),), ((x, h),))}
                    yield node, {"added": LabeledSequent((), ((y, g),), ((y, h),))}
                yield node, {"added": LabeledSequent((("a", "b"),), (), ())}
        lngl = linearize(to_end_active(csgl))
        for p in (lngl, normalize_lngl(lngl)):
            for _, node in p.nodes():
                if len(node.conclusion) > 1:
                    adds = {"ante": (rng.choice(parts),), "cons": (rng.choice(parts),)}
                    yield node, dict(adds, component=0)
                    yield node, adds


def _outcome(weakening):
    try:
        return print_proof(weakening())
    except TransformError as e:
        return type(e).__name__, str(e)


def test_weaken_to_a_target_agrees_with_weakening_by_additions():
    outcomes = {"glseq": 0, "csgl": 0, "g3glext": 0, "lngl": 0}
    absorbed = renamed = shape = 0
    for p, adds in _weakening_inputs(random.Random(11)):
        old = _outcome(lambda: _weaken_by_additions(p, **adds))
        new = _outcome(lambda: weaken(p, _additions_target(p, **adds)))
        assert new == old, (str(p.conclusion), adds)
        outcomes[p.calculus] += 1
        if p.calculus == "glseq":
            absorbed += "boxGL" in rules_in(p)
        elif isinstance(old, tuple):
            shape += old[0] == "ShapeViolation"
        elif p.calculus in LABELED:
            fresh = {n.meta["fresh"] for _, n in p.nodes() if n.rule == "boxR"}
            renamed += bool(fresh & adds["added"].labels())
    assert min(outcomes.values()) >= 50, outcomes
    assert absorbed >= 20 and renamed >= 20 and shape >= 20, (absorbed, renamed, shape)


# the theorems whose to-glseq contraction trims an inner boxGL's gamma on
# the eager search's proofs: both copies of a formula sit in its box
# partition, and a lower block supplies one box
GAMMA_TRIMMING = ("[]~(p | ~r) | ~[]~[](~(~r | p) | []q)",
                  "[]~~(r | q | ~(p | p)) | ~[]~(r | [][]r)",
                  "[]([](~(p | r) | [][]([](q | q) | p)) | ~[][]q)")


def _rule_tree_nodes(tree) -> list:
    nodes, stack = [], [tree]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].premises)
    return nodes


def test_admit_contraction_cases(monkeypatch):
    # contraction on to-glseq's rule tree drops a gamma copy from an inner
    # boxGL whose antecedent supplies one box fewer, and the output is the
    # one the former contraction on proofs gave
    trimmed = []
    contract_tree = transform._contract_tree

    def spy(tree, conclusion):
        # a boxGL whose gamma loses a copy is the one new node of the output
        before = _rule_tree_nodes(tree)
        ids = set(map(id, before))
        out = contract_tree(tree, conclusion)
        trimmed.extend(n for n in _rule_tree_nodes(out) if id(n) not in ids)
        assert all(n.rule == "boxGL" for n in trimmed)
        return out

    monkeypatch.setattr(transform, "_contract_tree", spy)
    for text in GAMMA_TRIMMING:
        trimmed.clear()
        base = normalize_lngl(linearize(to_end_active(eager_prove_csgl(pf(text), CFG).proof)))
        out = lngl_to_glseq(base)
        assert trimmed, text
        assert check_glseq(out).accepted
        want = lngl_to_glseq_reference.lngl_to_glseq(base)
        assert out == want and print_proof(out) == print_proof(want), text


def test_admit_contraction_through_principal():
    # two boxL copies of p | q in a block whose end component supplies one
    # box, each decomposed by an orL: the lower orL keeps its principal,
    # and in each branch the upper one gives way to the premise the lower
    # one took (inversion)
    pq = pf("p | q")
    leaf = lambda a: ("id1", {"principal": a}, [])
    upper = lambda a, b: ("orL", {"principal": pq}, [leaf(a), leaf(b)])
    tree = ("boxR", {"phi": pf("q | p")}, [
        ("boxL", {"phi": pq}, [("boxL", {"phi": pq}, [("orR", {"principal": pf("q | p")}, [
            ("orL", {"principal": pq}, [upper(P, P), upper(Q, Q)])])])])])
    base = derive("lngl", tree, parse_lns("[](p | q) |- [](q | p)"), lambda n: n)
    assert check_lngl(base).accepted and normal_form_report(base).accepted

    out = lngl_to_glseq(base)
    assert check_glseq(out).accepted
    assert out.conclusion == pgs("[](p | q) |- [](q | p)")
    assert out.rule == "boxGL" and out.meta["gamma"] == (pq,)
    assert [n.rule for _, n in out.nodes()] == ["boxGL", "orR", "orL", "id", "id"]
    assert [n.meta["principal"] for _, n in out.nodes() if n.rule == "id"] == [P, Q]
    want = lngl_to_glseq_reference.lngl_to_glseq(base)
    assert out == want and print_proof(out) == print_proof(want)


# ---------------------------------------------------------------------------
# apply_inverse

def test_invert_names_a_premise_the_rule_lacks():
    p = csgl_proof(pf("~~p | ~p"))
    assert p.rule == "orR"
    for i in (1, -1):
        with pytest.raises(NotApplicable, match=f"orR has no premise {i}"):
            apply_inverse("orR", i, p, dict(p.meta))


def test_invert_orr_on_csgl():
    base = csgl_proof(LOB)
    f = pf("~[](~[]p | p) | []p")
    out = apply_inverse("orR", 0, base, {"label": "x", "principal": f})
    assert out.conclusion == pls(" |- x: ~[](~[]p | p), x: []p")
    assert out.height() <= base.height()
    assert check_csgl(out).accepted


def test_invert_4l_lngl_is_weakening():
    g = parse_lns("[]p, p |- q // p |- p")
    base = Proof("lngl", "id1", g, (), {"principal": P})
    out = apply_inverse("4L", 0, base, {"phi": P})
    assert out.conclusion == parse_lns("[]p, p |- q // p, []p |- p")
    assert out.height() == 0
    assert check_lngl(out).accepted


def test_invert_side_material_height():
    # invert negL on a proof where the negation is side material
    goal = pls("x: ~q, x: p |- x: p")
    base = Proof("csgl", "id1", goal, (), {"label": "x", "principal": P})
    out = apply_inverse("negL", 0, base, {"label": "x", "principal": pf("~q")})
    assert out.conclusion == pls("x: p |- x: p, x: q")
    assert out.height() == base.height() == 0
    assert check_csgl(out).accepted


def test_invert_not_applicable():
    base = prove_formula(LOB, "glseq", CFG).proof
    with pytest.raises(NotApplicable):
        apply_inverse("boxGL", 0, base, {"gamma": (), "phi": P})
    with pytest.raises(NotApplicable):
        apply_inverse("negL", 0, base, {"principal": P})  # p is not a negation
    # boxR is inverted in no calculus
    csgl = csgl_proof(pf("[](p | ~p)"))
    meta = {"label": "x", "fresh": "w9", "phi": pf("p | ~p")}
    lngl = Proof("lngl", "id1", parse_lns("p |- p, []q"), (), {"principal": P})
    for p, m in ((csgl, meta), (csgl_to_g3gl_embed(csgl), meta), (lngl, {"phi": Q})):
        with pytest.raises(NotApplicable, match=f"no inversion for boxR in {p.calculus}"):
            apply_inverse("boxR", 0, p, m)


# ---------------------------------------------------------------------------
# permute_down: the displayed permutation cases

def _negr_above_orr():
    # negR at x (interior) above an end-active orR at leaf y
    top = pls("xRy; x: p, y: q |- y: q, y: r")
    leaf = Proof("csgl", "id1", top, (), {"label": "y", "principal": Q})
    m_neg = {"label": "x", "principal": pf("~p")}
    c_neg = pls("xRy; y: q |- x: ~p, y: q, y: r")
    n_neg = Proof("csgl", "negR", c_neg, (leaf,), m_neg)
    m_orr = {"label": "y", "principal": pf("q | r")}
    c_orr = pls("xRy; y: q |- x: ~p, y: q | r")
    return Proof("csgl", "orR", c_orr, (n_neg,), m_orr)


def test_permute_negr_below_orr():
    base = _negr_above_orr()
    assert check_csgl(base).accepted
    out = permute_down(base, (0,))
    assert out.conclusion == base.conclusion
    assert out.rule == "negR" and out.premises[0].rule == "orR"
    assert check_csgl(out).accepted
    # the exchanged orR is end-active at its new position
    from glproof.checkers import node_end_active

    assert node_end_active(out.premises[0])


def _negr_above_boxr():
    # negR at x above an end-active boxR introducing fresh y
    top = pls("xRu; xRy; u: s, x: p, y: []q |- y: q, u: s")
    leaf = Proof("csgl", "id1", top, (), {"label": "u", "principal": Atom("s")})
    m_neg = {"label": "x", "principal": pf("~p")}
    c_neg = pls("xRu; xRy; u: s, y: []q |- y: q, x: ~p, u: s")
    n_neg = Proof("csgl", "negR", c_neg, (leaf,), m_neg)
    m_boxr = {"label": "x", "fresh": "y", "phi": Q}
    c_boxr = pls("xRu; u: s |- x: []q, x: ~p, u: s")
    return Proof("csgl", "boxR", c_boxr, (n_neg,), m_boxr)


def test_permute_negr_below_boxr():
    base = _negr_above_boxr()
    assert check_csgl(base).accepted
    out = permute_down(base, (0,))
    assert out.conclusion == base.conclusion
    assert out.rule == "negR" and out.premises[0].rule == "boxR"
    assert check_csgl(out).accepted


def test_permute_preconditions():
    base = csgl_proof(LOB)
    # every rule in a search proof is already end-active
    for addr, node in base.nodes():
        if addr and node.rule in ("negL", "negR", "orL", "orR", "4L", "boxL"):
            with pytest.raises(NotPermutable):
                permute_down(base, addr)
            break


def test_permute_clash_detected():
    # a propagation into the fresh label of the boxR directly below it
    top = pls("xRy; x: []q, y: []q, y: q |- y: q")
    leaf = Proof("csgl", "id1", top, (), {"label": "y", "principal": Q})
    m_boxl = {"label": "x", "aux": "y", "phi": Q}
    c_boxl = pls("xRy; x: []q, y: []q |- y: q")
    n_boxl = Proof("csgl", "boxL", c_boxl, (leaf,), m_boxl)
    m_boxr = {"label": "x", "fresh": "y", "phi": Q}
    c_boxr = pls("x: []q |- x: []q")
    base = Proof("csgl", "boxR", c_boxr, (n_boxl,), m_boxr)
    assert check_csgl(base).accepted
    with pytest.raises(NotPermutable):
        permute_down(base, (0,))


# ---------------------------------------------------------------------------
# to_end_active

def test_end_active_fixpoint_identity():
    base = csgl_proof(LOB)
    assert end_active_report(base).accepted
    assert to_end_active(base) is base


def _negr_above_boxr_csgl():
    tau = pf("p | ~p")
    # bottom-up: orR, boxR, negR(x) <- non-end-active, orR(y), negR(y), id1
    c0 = pls(" |- x: [](p | ~p) | ~~q")
    (c1,) = premises_of("csgl", "orR", {"label": "x", "principal": pf("[](p | ~p) | ~~q")}, c0)
    m_boxr = {"label": "x", "fresh": "y", "phi": tau}
    (c2,) = premises_of("csgl", "boxR", m_boxr, c1)
    m_negx = {"label": "x", "principal": pf("~~q")}
    (c3,) = premises_of("csgl", "negR", m_negx, c2)
    m_orry = {"label": "y", "principal": tau}
    (c4,) = premises_of("csgl", "orR", m_orry, c3)
    m_negy = {"label": "y", "principal": pf("~p")}
    (c5,) = premises_of("csgl", "negR", m_negy, c4)
    leaf = Proof("csgl", "id1", c5, (), {"label": "y", "principal": P})
    n4 = Proof("csgl", "negR", c4, (leaf,), m_negy)
    n3 = Proof("csgl", "orR", c3, (n4,), m_orry)
    n2 = Proof("csgl", "negR", c2, (n3,), m_negx)
    n1 = Proof("csgl", "boxR", c1, (n2,), m_boxr)
    return Proof("csgl", "orR", c0, (n1,), {"label": "x", "principal": pf("[](p | ~p) | ~~q")})


def _chain(conclusion, steps, leaf) -> Proof:
    """The CSGL proof of `conclusion` whose rules, bottom-up, are the
    (rule, meta) pairs `steps`, one above the other, closed by `leaf`."""
    tree = (*leaf, [])
    for rule, meta in reversed(steps):
        tree = (rule, meta, [tree])
    return derive("csgl", tree, conclusion, lambda n: n)


def _negr_above_boxr_read():
    # bottom-up: orR, boxR, negR(x) <- non-end-active, boxL(x, y), id1(y);
    # the boxL reads the negR's x: []p and the boxR's edge
    return _chain(pls(" |- x: []p | ~[]p"), [
        ("orR", {"label": "x", "principal": pf("[]p | ~[]p")}),
        ("boxR", {"label": "x", "fresh": "y", "phi": P}),
        ("negR", {"label": "x", "principal": pf("~[]p")}),
        ("boxL", {"label": "x", "aux": "y", "phi": P})], ("id1", {"label": "y", "principal": P}))


def _principals(p):
    return {(n.rule, n.meta.get("principal")) for _, n in p.nodes()}


def test_end_active_prunes_an_unread_rule():
    # the negR on x: ~~q adds x: ~q, which no rule above reads: pruning
    # removes it, and no exchange is left to make
    for base in (_negr_above_boxr_csgl(), _two_permutations()):
        assert check_csgl(base).accepted and not end_active_report(base).accepted
        out, report = run_pass("end-active", base)
        assert ("negR", pf("~~q")) not in _principals(out)
        assert out.conclusion == base.conclusion
        assert check_csgl(out).accepted and end_active_report(out).accepted
        assert report.permutations == 0 and report.nodes_out == report.nodes_in - 1


def test_end_active_one_permutation():
    base = _negr_above_boxr_read()
    assert check_csgl(base).accepted
    assert not end_active_report(base).accepted

    out, report = run_pass("end-active", base)
    assert out == to_end_active(base)
    assert out.conclusion == base.conclusion
    assert str(out.conclusion) == str(base.conclusion)
    assert end_active_report(out).accepted
    assert check_csgl(out).accepted
    assert report.permutations == 1
    assert [n.rule for _, n in out.nodes()] == ["orR", "negR", "boxR", "boxL", "id1"]


def test_end_active_counts_nodes_only_for_a_failure(monkeypatch):
    # the budget walk is taken when the first failure shows, on the input
    counted = []
    node_count = Proof.node_count
    monkeypatch.setattr(Proof, "node_count", lambda p: counted.append(p) or node_count(p))
    base = csgl_proof(LOB)
    assert to_end_active(base) is base
    assert counted == []
    base = _negr_above_boxr_csgl()
    to_end_active(base)
    assert counted == [base]


def _two_permutations():
    tau = pf("p | ~p")
    c0 = pls(" |- x: [](p | ~p) | ~~q")
    (c1,) = premises_of("csgl", "orR", {"label": "x", "principal": pf("[](p | ~p) | ~~q")}, c0)
    m_boxr = {"label": "x", "fresh": "y", "phi": tau}
    (c2,) = premises_of("csgl", "boxR", m_boxr, c1)
    m_orry = {"label": "y", "principal": tau}
    (c3,) = premises_of("csgl", "orR", m_orry, c2)
    m_negx = {"label": "x", "principal": pf("~~q")}
    (c4,) = premises_of("csgl", "negR", m_negx, c3)
    m_negy = {"label": "y", "principal": pf("~p")}
    (c5,) = premises_of("csgl", "negR", m_negy, c4)
    leaf = Proof("csgl", "id1", c5, (), {"label": "y", "principal": P})
    n4 = Proof("csgl", "negR", c4, (leaf,), m_negy)
    n3 = Proof("csgl", "negR", c3, (n4,), m_negx)
    n2 = Proof("csgl", "orR", c2, (n3,), m_orry)
    n1 = Proof("csgl", "boxR", c1, (n2,), m_boxr)
    return Proof("csgl", "orR", c0, (n1,), {"label": "x", "principal": pf("[](p | ~p) | ~~q")})


def _two_permutations_read():
    # bottom-up: orR, boxR, orR(y), negR(x) <- non-end-active, boxL(x, y),
    # id1(y); the negR must cross the orR and then the boxR
    return _chain(pls(" |- x: [](p | ~p) | ~[]p"), [
        ("orR", {"label": "x", "principal": pf("[](p | ~p) | ~[]p")}),
        ("boxR", {"label": "x", "fresh": "y", "phi": pf("p | ~p")}),
        ("orR", {"label": "y", "principal": pf("p | ~p")}),
        ("negR", {"label": "x", "principal": pf("~[]p")}),
        ("boxL", {"label": "x", "aux": "y", "phi": P})], ("id1", {"label": "y", "principal": P}))


def test_end_active_two_permutations():
    base = _two_permutations_read()
    assert check_csgl(base).accepted

    out, report = run_pass("end-active", base)
    assert end_active_report(out).accepted and check_csgl(out).accepted
    assert out.conclusion == base.conclusion
    assert report.permutations == 2
    assert ("negR", pf("~[]p")) in _principals(out)


def _id2_above_a_pointless_boxr():
    c0 = pls(" |- x: ~[]q | ([]q | []r)")
    m_or1 = {"label": "x", "principal": pf("~[]q | ([]q | []r)")}
    (c1,) = premises_of("csgl", "orR", m_or1, c0)
    m_or2 = {"label": "x", "principal": pf("[]q | []r")}
    (c2,) = premises_of("csgl", "orR", m_or2, c1)
    m_neg = {"label": "x", "principal": pf("~[]q")}
    (c3,) = premises_of("csgl", "negR", m_neg, c2)
    # c3: x: []q |- x: []q, x: []r  -- expand boxR on []r, close by id2 above
    m_boxr = {"label": "x", "fresh": "y", "phi": Atom("r")}
    (c4,) = premises_of("csgl", "boxR", m_boxr, c3)
    leaf = Proof("csgl", "id2", c4, (), {"label": "x", "principal": pf("[]q")})
    n4 = Proof("csgl", "boxR", c3, (leaf,), m_boxr)
    n3 = Proof("csgl", "negR", c2, (n4,), m_neg)
    n2 = Proof("csgl", "orR", c1, (n3,), m_or2)
    return Proof("csgl", "orR", c0, (n2,), m_or1)


def test_end_active_prunes_a_boxr_under_an_initial_rule():
    # the id2 reads nothing the boxR under it adds, so pruning deletes the
    # pointless boxR expansion, and the id2 is end-active where it lands
    base = _id2_above_a_pointless_boxr()
    assert check_csgl(base).accepted
    assert not end_active_report(base).accepted  # id2 witness x has child y

    out = to_end_active(base)
    assert end_active_report(out).accepted
    assert out.conclusion == base.conclusion
    # the pointless boxR is gone
    assert "boxR" not in rules_in(out)


def test_end_active_requires_simple_conclusion():
    goal = pls("x: p |- x: p")
    p = Proof("csgl", "id1", goal, (), {"label": "x", "principal": P})
    with pytest.raises(NotEndActive):
        to_end_active(p)


def test_end_active_corpus():
    for f in CORPUS:
        base = csgl_proof(f)
        out = to_end_active(base)
        assert end_active_report(out).accepted
        assert str(out.conclusion) == str(base.conclusion)
        assert check_csgl(out).accepted


# ---------------------------------------------------------------------------
# linearize

def test_linearize_single_id():
    goal = pls("x: p |- x: p")
    p = Proof("csgl", "id1", goal, (), {"label": "x", "principal": P})
    out = linearize(p)
    assert out.conclusion == parse_lns("p |- p")
    assert out.rule == "id1" and check_lngl(out).accepted


def test_linearize_requires_end_active():
    base = _negr_above_orr()
    with pytest.raises(NotEndActive):
        linearize(base)


def test_linearize_boxr_case_three():
    base = csgl_proof(pf("[](p | ~p)"))
    out = linearize(to_end_active(base))
    assert check_lngl(out).accepted
    assert out.conclusion == parse_lns(" |- [](p | ~p)")
    rules = [n.rule for _, n in out.nodes()]
    assert "boxR" in rules


def test_linearize_four_axiom():
    base = csgl_proof(pf("[]p -> [][]p"))
    out = linearize(to_end_active(base))
    assert check_lngl(out).accepted
    assert out.conclusion == parse_lns(" |- ~[]p | [][]p")


def test_linearize_corpus_checked():
    for f in CORPUS:
        out = linearize(to_end_active(csgl_proof(f)))
        assert check_lngl(out).accepted


# ---------------------------------------------------------------------------
# normalize_lngl

def test_normalize_boxr_free_identity():
    base = linearize(to_end_active(csgl_proof(pf("p | ~p"))))
    assert "boxR" not in rules_in(base)
    assert normalize_lngl(base) == base


def _fixture_4l_above_orl():
    # appendix configuration: 4L above the left premise of orL
    tau = pf("p | p")
    concl = parse_lns("[](p | p) |- []p")
    (c1,) = premises_of("lngl", "boxR", {"phi": P}, concl)
    (c2,) = premises_of("lngl", "boxL", {"phi": tau}, c1)
    m_orl = {"principal": tau}
    c3a, c3b = premises_of("lngl", "orL", m_orl, c2)
    (c4a,) = premises_of("lngl", "4L", {"phi": tau}, c3a)
    leaf_a = Proof("lngl", "id1", c4a, (), {"principal": P})
    n4 = Proof("lngl", "4L", c3a, (leaf_a,), {"phi": tau})
    leaf_b = Proof("lngl", "id1", c3b, (), {"principal": P})
    n_orl = Proof("lngl", "orL", c2, (n4, leaf_b), m_orl)
    n_boxl = Proof("lngl", "boxL", c1, (n_orl,), {"phi": tau})
    return Proof("lngl", "boxR", concl, (n_boxl,), {"phi": P})


def test_normalize_appendix_4l_below_orl():
    base = _fixture_4l_above_orl()
    assert check_lngl(base).accepted
    assert not normal_form_report(base).accepted
    out = normalize_lngl(base)
    assert out.conclusion == base.conclusion
    assert check_lngl(out).accepted
    assert normal_form_report(out).accepted
    # the 4L now sits directly above the boxR, below the boxL and the orL
    assert out.rule == "boxR" and out.premises[0].rule == "4L"
    assert out.premises[0].premises[0].rule == "boxL"
    assert out.premises[0].premises[0].premises[0].rule == "orL"


def _fixture_4l_above_boxl():
    concl = parse_lns("[]p |- []p")
    (c1,) = premises_of("lngl", "boxR", {"phi": P}, concl)
    (c2,) = premises_of("lngl", "boxL", {"phi": P}, c1)
    (c3,) = premises_of("lngl", "4L", {"phi": P}, c2)
    leaf = Proof("lngl", "id1", c3, (), {"principal": P})
    n4 = Proof("lngl", "4L", c2, (leaf,), {"phi": P})
    nb = Proof("lngl", "boxL", c1, (n4,), {"phi": P})
    return Proof("lngl", "boxR", concl, (nb,), {"phi": P})


def _fixture_boxl_above_negr():
    # []p |- []~~p: boxR, negR, then boxL p, negL ~p, id1 p
    nnp, np_ = pf("~~p"), pf("~p")
    concl = parse_lns("[]p |- []~~p")
    (c1,) = premises_of("lngl", "boxR", {"phi": nnp}, concl)
    (c2,) = premises_of("lngl", "negR", {"principal": nnp}, c1)
    (c3,) = premises_of("lngl", "boxL", {"phi": P}, c2)
    (c4,) = premises_of("lngl", "negL", {"principal": np_}, c3)
    leaf = Proof("lngl", "id1", c4, (), {"principal": P})
    n_negl = Proof("lngl", "negL", c3, (leaf,), {"principal": np_})
    n_boxl = Proof("lngl", "boxL", c2, (n_negl,), {"phi": P})
    n_negr = Proof("lngl", "negR", c1, (n_boxl,), {"principal": nnp})
    return Proof("lngl", "boxR", concl, (n_negr,), {"phi": nnp})


def test_normalize_wrong_order_simple():
    base = _fixture_4l_above_boxl()
    assert check_lngl(base).accepted
    assert not normal_form_report(base).accepted
    out = normalize_lngl(base)
    assert normal_form_report(out).accepted
    assert [n.rule for _, n in out.nodes()] == ["boxR", "4L", "boxL", "id1"]


def test_normalize_corpus():
    for f in CORPUS:
        base = linearize(to_end_active(csgl_proof(f)))
        out = normalize_lngl(base)
        assert normal_form_report(out).accepted
        assert out.conclusion == base.conclusion


def _normalize_by_exchange(p):
    """Normalization by whole-proof exchanges, as `normalize_lngl` was first
    written: each `_exchange` re-derives the moved rule's parent at once,
    weakening its other premises, and the block is scanned again after every
    swap.  Returns the proof and its permutation count."""
    budget = p.node_count() ** 2 * 8 + 64
    permutations = 0

    def norm(node):
        nonlocal budget, permutations
        while node.rule == "boxR":
            movers = [f.address for f in block_violations(node)]
            if not movers:
                break
            move = min([a for a in movers if node.at(a).rule == "4L"] or movers,
                       key=lambda a: (len(a), a))
            budget -= 1
            if budget < 0:
                raise InternalNonTermination("normalization exceeded its permutation budget")
            node = _exchange(node, move)
            permutations += 1
        subs = yield tuple(map(norm, node.premises))
        return Proof(node.calculus, node.rule, node.conclusion, subs, dict(node.meta))

    return trampoline(norm(p)), permutations


# 278 permutations, 1,114 nodes on the eager search's proof: the costliest
# normalization seen in `pipeline` before CSGL search skipped the orL right
# premises that their left premises made unnecessary (14 on today's proof)
MANY_PERMUTATIONS = pf("[]([](q | q | q) | [](r | [][][](~p | p)))")


def test_normalize_agrees_with_normalization_by_exchange():
    rng = random.Random(3)
    formulas = [MANY_PERMUTATIONS]
    while len(formulas) < 401:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 12))
        if prove_formula(f, "glseq", CFG).proved:
            formulas.append(f)
    moved = [0, 0]
    # today's search proofs, then the eager search's
    for eager, f, proof in [(0, f, csgl_proof(f)) for f in formulas] + [
            (1, f, eager_prove_csgl(f, CFG).proof) for f in formulas]:
        base = linearize(to_end_active(proof))
        text = print_proof(base)
        out, report = run_pass("normalize", base)
        ref, permutations = _normalize_by_exchange(base)
        assert print_proof(out) == print_proof(ref), print_formula(f)
        assert report.permutations == permutations, print_formula(f)
        # the moves touch nothing of the input
        assert print_proof(base) == text, print_formula(f)
        # a proof already in normal form comes back as it is
        assert normalize_lngl(out) is out
        assert (out is base) == (permutations == 0)
        moved[eager] += permutations > 0
        if f is MANY_PERMUTATIONS:
            assert permutations == (278 if eager else 14)
    assert min(moved) >= 50, moved


# ---------------------------------------------------------------------------
# lngl_to_glseq

def test_lngl_to_glseq_id_maps_to_end_component():
    g = parse_lns("p |- // q, []r |- []r, s")
    p = Proof("lngl", "id2", g, (), {"principal": pf("[]r")})
    out = lngl_to_glseq(p)
    assert out.rule == "id" and out.conclusion == pgs("q, []r |- []r, s")
    assert check_glseq(out).accepted


def test_lngl_to_glseq_modal_block_partition():
    # Sigma1 = {a} (4L only), Sigma2 = {b} (both), Sigma3 = {c} (boxL only)
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    concl = parse_lns("[]a, []b, []c |- []b")
    (c1,) = premises_of("lngl", "boxR", {"phi": b}, concl)
    (c2,) = premises_of("lngl", "4L", {"phi": a}, c1)
    (c3,) = premises_of("lngl", "4L", {"phi": b}, c2)
    (c4,) = premises_of("lngl", "boxL", {"phi": b}, c3)
    (c5,) = premises_of("lngl", "boxL", {"phi": c}, c4)
    leaf = Proof("lngl", "id1", c5, (), {"principal": b})
    n5 = Proof("lngl", "boxL", c4, (leaf,), {"phi": c})
    n4 = Proof("lngl", "boxL", c3, (n5,), {"phi": b})
    n3 = Proof("lngl", "4L", c2, (n4,), {"phi": b})
    n2 = Proof("lngl", "4L", c1, (n3,), {"phi": a})
    base = Proof("lngl", "boxR", concl, (n2,), {"phi": b})
    assert check_lngl(base).accepted and normal_form_report(base).accepted
    # the block premise reads []a, []b, b, c, []phi |- phi
    assert c5.end == pgs("[]a, []b, b, c, []b |- b")

    out = lngl_to_glseq(base)
    assert check_glseq(out).accepted
    assert out.conclusion == pgs("[]a, []b, []c |- []b")
    assert out.rule == "boxGL"
    assert sorted(str(g) for g in out.meta["gamma"]) == ["a", "b", "c"]
    assert out.premises[0].conclusion == pgs("[]a, []b, []c, a, b, c, []b |- b")


def test_lngl_to_glseq_contracts_a_repeated_boxl():
    # two boxLs of []~~a in one block, each copy decomposed by negL/negR:
    # the conclusion supplies one []~~a, so the box partition keeps one
    # copy, and the contraction on to-glseq's rule tree makes the upper
    # negL and negR give way to their premises: the lower ones already took
    # that copy apart
    a, nna, na = Atom("a"), pf("~~a"), pf("~a")
    rules = [("boxR", {"phi": a}), ("boxL", {"phi": nna}), ("boxL", {"phi": nna}),
             ("negL", {"principal": nna}), ("negR", {"principal": na}),
             ("negL", {"principal": nna}), ("negR", {"principal": na}),
             ("id1", {"principal": a})]
    tree = ()
    for rule, meta in reversed(rules):
        tree = (rule, meta, [tree] if tree else [])
    base = derive("lngl", tree, parse_lns("[]~~a |- []a"), lambda n: n)
    assert check_lngl(base).accepted and normal_form_report(base).accepted

    out = lngl_to_glseq(base)
    assert check_glseq(out).accepted
    assert out.conclusion == pgs("[]~~a |- []a")
    assert out.rule == "boxGL" and out.meta["gamma"] == (nna,)


def test_lngl_to_glseq_rejects_non_normal():
    # each kind of block violation: 4L above boxL, 4L above a local rule,
    # boxL above a local rule
    for fixture, address, rule in ((_fixture_4l_above_boxl, (0, 0), "4L"),
                                   (_fixture_4l_above_orl, (0, 0, 0), "4L"),
                                   (_fixture_boxl_above_negr, (0, 0), "boxL")):
        base = fixture()
        assert check_lngl(base).accepted
        violations = normal_form_report(base).failures
        assert [(v.address, base.at(v.address).rule) for v in violations] == [(address, rule)]
        with pytest.raises(NotNormalForm, match=f"unexpected {rule} outside a modal block"):
            lngl_to_glseq(base)
        assert check_glseq(lngl_to_glseq(normalize_lngl(base))).accepted


def test_lngl_to_glseq_corpus():
    for f in CORPUS:
        base = normalize_lngl(linearize(to_end_active(csgl_proof(f))))
        out = lngl_to_glseq(base)
        assert check_glseq(out).accepted
        assert out.conclusion == pgs(f" |- {f}")


# ---------------------------------------------------------------------------
# glseq_to_g3gl

def test_glseq_to_g3gl_id():
    p = Proof("glseq", "id", pgs("p |- p"), (), {"principal": P})
    out = glseq_to_g3gl(p)
    assert out.rule == "id1"
    assert out.conclusion == pls("x: p |- x: p")
    assert check_g3gl(out, "extended").accepted


def test_glseq_to_g3gl_corpus():
    for f in CORPUS:
        g = lngl_to_glseq(normalize_lngl(linearize(to_end_active(csgl_proof(f)))))
        out = glseq_to_g3gl(g)
        assert check_g3gl(out, "extended").accepted
        assert out.conclusion == pls(f" |- x: {f}")


def _to_g3gl_outputs(rng, n):
    """to-g3gl outputs of n seeded theorems whose GLseq proof has a boxGL,
    so each has at least one boxR node."""
    while n:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(4, 12))
        r = prove_formula(f, "glseq", CFG)
        if r.proved and "boxGL" in rules_in(r.proof):
            n -= 1
            yield f, run_pass("to-g3gl", r.proof)[0]


def _checked(p, conclusion, f):
    assert p.conclusion == conclusion, print_formula(f)
    assert check_g3gl(p, "extended").accepted, print_formula(f)
    return p


def test_weaken_restates_the_templates_of_to_g3gl_outputs():
    # every node of a to-g3gl template is re-derived at the target; an
    # addition at a template boxR's fresh label y renames y in the boxR's
    # subproof first
    rng = random.Random(18)
    parts = [P, Q, pf("[]q"), pf("~[]p"), pf("p | []r")]
    for f, out in _to_g3gl_outputs(rng, 40):
        c = out.conclusion
        y = rng.choice(sorted(n.meta["fresh"] for _, n in out.nodes() if n.rule == "boxR"))
        g, h = rng.sample(parts, 2)
        targets = [c.with_ante(("x", g)).with_cons(("x", h)),
                   c.with_rel(("x", "z")).with_cons(("z", h), ("x", g)),
                   c.with_rel(("x", y)).with_ante((y, g))]
        for i, target in enumerate(targets):
            w = weaken(out, target)
            _checked(w, target, f)
            assert [n.rule for _, n in w.nodes()] == [n.rule for _, n in out.nodes()]
        # the last target added a formula at y: no boxR creates y now
        assert y not in {n.meta["fresh"] for _, n in w.nodes() if n.rule == "boxR"}


def test_weakening_and_inversion_pass_the_templates_of_to_g3gl_outputs():
    # weakening and orL inversion pass through the boxGL templates of
    # to-g3gl outputs
    rng = random.Random(19)
    d = pf("q | r")
    for f, out in _to_g3gl_outputs(rng, 40):
        c = out.conclusion
        g = rng.choice([P, pf("[]q"), pf("~[]p"), pf("p | []r")])
        dup = c.with_ante(("x", g), ("x", g))
        _checked(weaken(out, dup), dup, f)
        inv = apply_inverse("orL", 1, weaken(out, c.with_ante(("x", d))),
                            {"label": "x", "principal": d})
        _checked(inv, c.with_ante(("x", d.right)), f)


def test_embed_csgl():
    base = csgl_proof(LOB)
    out = csgl_to_g3gl_embed(base)
    assert check_g3gl(out, "extended").accepted
    # proofs with 4L are rejected in strict mode
    uses_4l = "4L" in rules_in(base)
    if uses_4l:
        assert not check_g3gl(out, "strict").accepted


# ---------------------------------------------------------------------------
# unfold_glcirc

def lob_cyclic():
    gam = (pf("~[]p | p"),)
    seqA = pgs("[](~[]p | p), ~[]p | p |- p")
    open_leaf = Proof("k4seq", "open", seqA, (), {})
    n_c1 = Proof("k4seq", "box4", pgs("[](~[]p | p) |- []p, p"), (open_leaf,),
                 {"gamma": gam, "phi": P})
    n_b1 = Proof("k4seq", "negL", pgs("[](~[]p | p), ~[]p |- p"), (n_c1,),
                 {"principal": pf("~[]p")})
    n_b2 = Proof("k4seq", "id", pgs("[](~[]p | p), p |- p"), (), {"principal": P})
    n_A = Proof("k4seq", "orL", seqA, (n_b1, n_b2), {"principal": pf("~[]p | p")})
    n_root = Proof("k4seq", "box4", pgs("[](~[]p | p) |- []p"), (n_A,),
                   {"gamma": gam, "phi": P})
    return CyclicDerivation(n_root, {(0, 0, 0, 0): (0,)})


def test_unfold_depth_zero():
    d = lob_cyclic()
    out = unfold_glcirc(d, 0)
    assert out.node_count() == d.derivation.node_count()
    opens = [(a, n) for a, n in out.nodes() if n.rule == "open"]
    # each open leaf left concludes the sequent its back-link names
    assert [a for a, _ in opens] == list(d.backlinks)
    for addr, leaf in opens:
        assert leaf.conclusion == out.at(d.backlinks[addr]).conclusion
        assert leaf.meta == {}


def test_unfold_depth_one_grows_by_cycle_length():
    d = lob_cyclic()
    before = d.derivation.node_count()
    out = unfold_glcirc(d, 1)
    cycle_copy = d.derivation.at((0,)).node_count()
    assert out.node_count() == before - 1 + cycle_copy


def test_unfold_depth_two_box4_on_every_open_path():
    out = unfold_glcirc(lob_cyclic(), 2)

    def paths(n, rules=()):
        if n.rule == "open":
            yield rules
        for q in n.premises:
            yield from paths(q, rules + (n.rule,))

    found = list(paths(out))
    assert found
    for rules in found:
        assert rules.count("box4") >= 2


def test_unfold_internal_nodes_valid():
    out = unfold_glcirc(lob_cyclic(), 2)
    for addr, node in out.nodes():
        if node.rule == "open":
            continue
        expected = premises_of("k4seq", node.rule, node.meta, node.conclusion)
        assert [q.conclusion for q in node.premises] == expected


def _boxl_into_fresh_label(phi_s):
    # boxL at x into the fresh y of the boxR right below it; x also has the
    # grandchild v, so the boxL is not end-active and cannot cross that boxR
    f = pf(f"~[]q | ([]q | ([][]t | []{phi_s}))")
    steps = [
        ("orR", {"label": "x", "principal": f}),
        ("orR", {"label": "x", "principal": pf(f"[]q | ([][]t | []{phi_s})")}),
        ("orR", {"label": "x", "principal": pf(f"[][]t | []{phi_s}")}),
        ("negR", {"label": "x", "principal": pf("~[]q")}),
        ("boxR", {"label": "x", "fresh": "u", "phi": pf("[]t")}),
        ("boxR", {"label": "u", "fresh": "v", "phi": pf("t")}),
        ("boxR", {"label": "x", "fresh": "y", "phi": pf(phi_s)}),
        ("boxL", {"label": "x", "aux": "y", "phi": Q}),
    ]
    concls = [pls(f" |- x: {f}")]
    for rule, meta in steps:
        (c,) = premises_of("csgl", rule, meta, concls[-1])
        concls.append(c)
    return steps, concls


def _build(steps, concls, leaf):
    node = leaf
    for (rule, meta), c in reversed(list(zip(steps, concls))):
        node = Proof("csgl", rule, c, (node,), meta)
    return node


def _unread_propagation():
    steps, concls = _boxl_into_fresh_label("s")
    leaf = Proof("csgl", "id2", concls[-1], (), {"label": "x", "principal": pf("[]q")})
    return _build(steps, concls, leaf)


def _read_propagation():
    steps, concls = _boxl_into_fresh_label("q")
    leaf = Proof("csgl", "id1", concls[-1], (), {"label": "y", "principal": Q})
    return _build(steps, concls, leaf)


def test_end_active_drops_unused_propagation():
    base = _unread_propagation()
    assert check_csgl(base).accepted and not end_active_report(base).accepted
    out = to_end_active(base)
    assert out.conclusion == base.conclusion
    assert check_csgl(out).accepted and end_active_report(out).accepted
    assert "boxL" not in rules_in(out)


def test_end_active_keeps_used_propagation():
    # the boxL feeds the id above it, so it stays; the boxRs at x and u that
    # made x no pre-leaf are read by nothing and pruned, which makes it
    # end-active
    base = _read_propagation()
    assert check_csgl(base).accepted and not end_active_report(base).accepted
    out, permutations = transform._end_active(base)
    assert out.conclusion == base.conclusion
    assert check_csgl(out).accepted and end_active_report(out).accepted
    assert "boxL" in rules_in(out) and permutations == 0
    assert [n.meta.get("fresh") for _, n in out.nodes() if n.rule == "boxR"] == ["y"]


def test_end_active_names_the_rule_it_cannot_exchange(monkeypatch):
    def refuse(tree, proof, addr):
        raise NotPermutable("refused")

    monkeypatch.setattr(transform, "_exchange", refuse)
    with pytest.raises(InternalNonTermination) as e:
        to_end_active(_negr_above_boxr_read())
    assert e.value.address == (0, 0)
    assert str(e.value) == "no permutation available for negR: refused"


def test_invert_negl_rebuilds_destroyed_gentzen_id():
    base = Proof("glseq", "id", pgs("~p |- ~p"), (), {"principal": pf("~p")})
    out = apply_inverse("negL", 0, base, {"principal": pf("~p")})
    assert out.conclusion == pgs(" |- ~p, p")
    assert [n.rule for _, n in out.nodes()] == ["negR", "id"]
    assert check_glseq(out).accepted


def _reindex_labels(proof):
    """The naming rule of to-g3gl, as a renaming: the labels not in the root
    conclusion become y0, y1, ... in breadth-first order of first occurrence,
    the labels new at one node taken in sorted order."""
    if not isinstance(proof.conclusion, LabeledSequent):
        return proof
    pinned = sorted(proof.conclusion.labels())
    order = list(pinned)
    seen = set(pinned)
    queue = [proof]
    while queue:
        node = queue.pop(0)
        if isinstance(node.conclusion, LabeledSequent):
            for lab in sorted(node.conclusion.labels()):
                if lab not in seen:
                    seen.add(lab)
                    order.append(lab)
        queue.extend(node.premises)
    mapping = {}
    counter = 0
    pinned_set = set(pinned)
    for lab in order:
        if lab in pinned_set:
            mapping[lab] = lab
            continue
        while True:
            cand = f"y{counter}"
            counter += 1
            if cand not in pinned_set:
                break
        mapping[lab] = cand
    if all(k == v for k, v in mapping.items()):
        return proof
    return relabel_proof(proof, mapping)


def _side_by_side_boxgl(proof):
    """Whether two boxGL nodes of `proof` lie on different branches."""
    addrs = [a for a, n in proof.nodes() if n.rule == "boxGL"]
    return any(a[:len(b)] != b and b[:len(a)] != a for a in addrs for b in addrs)


def test_to_g3gl_names_labels_breadth_first():
    rng = random.Random(11)
    proved = side_by_side = 0
    while proved < 200:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 16))
        r = prove_formula(f, "glseq", CFG)
        if not r.proved:
            continue
        proved += 1
        side_by_side += _side_by_side_boxgl(r.proof)
        out = glseq_to_g3gl(r.proof)
        assert _reindex_labels(out) == out, print_formula(f)
    # births at one depth in different branches are ordered too
    assert side_by_side >= 10


def test_to_g3gl_on_a_deep_glseq_proof():
    # []^n (p | ~p): the g3gl proof is 380 levels high at n = 18, 1,722 at
    # n = 40; translating it and naming its labels must not recurse once per
    # level, and the names are already the breadth-first ones
    for n in (18, 25, 40):
        r = prove_formula(pf("[]" * n + "(p | ~p)"), "glseq", CFG)
        out, report = run_pass("to-g3gl", r.proof)
        assert report.height_out == out.height() > 300, n
        assert check_g3gl(out, "extended").accepted, n
        assert _reindex_labels(out) == out, n


def test_run_pass_rejects_an_unknown_pass():
    with pytest.raises(NotApplicable) as e:
        run_pass("no-such-pass", csgl_proof(LOB))
    assert str(e.value) == "unknown pass no-such-pass"


def test_pass_report_is_measured_only_when_read(monkeypatch):
    base = csgl_proof(LOB)
    walks = []
    size, to_str = Proof.size, LabeledSequent.__str__
    monkeypatch.setattr(Proof, "size", lambda p: walks.append("size") or size(p))
    monkeypatch.setattr(LabeledSequent, "__str__", lambda s: walks.append("str") or to_str(s))
    out, report = run_pass("embed-g3gl", base)
    assert walks == []
    assert (report.nodes_in, report.height_in) == size(base)
    assert (report.nodes_out, report.height_out) == size(out)
    assert walks == ["size", "size"]
    assert report.line() == report.line() == (
        f"embed-g3gl: nodes 9->9, height 7->7, permutations 0, "
        f"concludes {to_str(out.conclusion)}")
    assert walks == ["size", "size", "str"]


# ---------------------------------------------------------------------------
# The two shape reports against their list definitions
#
# `_reference_end_active_report` and `_reference_normal_form_report` are the
# definitions the reports had before they became flat loops that list
# failures only when there is one.

def _reference_end_active_report(p):
    return CheckReport.from_failures(_wrong_calculus("csgl", p, "end-activity") or [
        Failure(addr, NOT_END_ACTIVE, f"{node.rule} is not end-active here")
        for addr, node in p.nodes() if not node_end_active(node)])


def _reference_normal_form_report(p):
    return CheckReport.from_failures(_wrong_calculus("lngl", p, "the normal form") or [
        f for addr, node in p.nodes() if node.rule == "boxR" for f in block_violations(node, addr)])


def _report_outcome(report, p, listed=None):
    """The failure lines, or the exception raised.  `listed` records the
    calls of the list definition's per-node predicate inside `report`: there
    must be some only when a node fails."""
    if listed is not None:
        listed.clear()
    try:
        rep = report(p)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e).__name__)
    assert rep.accepted == (rep.failures == [])
    if listed is not None:
        assert bool(listed) == any(f.code != "CalculusMismatch" for f in rep.failures)
    return [str(f) for f in rep.failures]


@pytest.fixture
def listed(monkeypatch):
    """The nodes the reports judged one by one, to list their failures."""
    import glproof.checkers as checkers

    calls = []
    for name in ("node_end_active", "block_violations"):
        fn = getattr(checkers, name)
        monkeypatch.setattr(checkers, name, lambda node, *a, fn=fn: calls.append(node) or fn(node, *a))
    return calls


def _shape_mutants(p, rng, rules):
    """`p`, then copies with one node's rule, label or auxiliary label
    changed: the reports read nothing else."""
    yield p
    nodes = list(p.nodes())
    # the nodes right below a 4L or boxL, whose rule decides its block
    below = [(a, n) for a, n in nodes if any(q.rule in ("4L", "boxL") for q in n.premises)]
    for _ in range(6):
        addr, node = rng.choice(below if below and rng.random() < 0.3 else nodes)
        meta = dict(node.meta)
        rule = node.rule
        if rng.random() < 0.5:
            rule = rng.choice([r for r in rules if r != node.rule])
        elif isinstance(node.conclusion, LabeledSequent):
            key = rng.choice(["label", "aux"])
            meta[key] = rng.choice(sorted(node.conclusion.labels()))
        new = Proof(node.calculus, rule, node.conclusion, node.premises, meta)
        yield replace_at(p, addr, new) if addr else new


_SHAPE_RULES = ("id1", "id2", "negL", "negR", "orL", "orR", "4L", "boxL", "boxR", "open")


def test_end_active_report_agrees_with_its_list_definition(listed):
    rng = random.Random(4)
    steps, concls = _boxl_into_fresh_label("s")
    fixtures = [
        _negr_above_boxr_csgl(),
        _build(steps, concls, Proof("csgl", "id2", concls[-1], (), {"label": "x",
                                                                      "principal": pf("[]q")})),
        _build(steps, concls, Proof("csgl", "id1", concls[-1], (), {"label": "y",
                                                                      "principal": Q})),
    ]
    assert not any(end_active_report(p).accepted for p in fixtures)
    while len(fixtures) < 40:
        r = prove_formula(random_formula(rng, ("p", "q", "r"), rng.randint(5, 11)), "csgl", CFG)
        if r.proved:
            fixtures.append(r.proof)
    seen = {"accepted": 0, "rejected": 0}
    for p in fixtures:
        for mutant in _shape_mutants(p, rng, _SHAPE_RULES):
            got = _report_outcome(end_active_report, mutant, listed)
            assert got == _report_outcome(_reference_end_active_report, mutant)
            if isinstance(got, list):
                seen["rejected" if got else "accepted"] += 1
    assert min(seen.values()) >= 20
    # a proof of another calculus: one CalculusMismatch at the root
    lngl = linearize(to_end_active(fixtures[0]))
    assert _report_outcome(end_active_report, lngl) == _report_outcome(
        _reference_end_active_report, lngl) != []


def test_normal_form_report_agrees_with_its_list_definition(listed):
    rng = random.Random(5)
    fixtures = [_fixture_4l_above_orl(), _fixture_4l_above_boxl(), _fixture_boxl_above_negr(),
                linearize(to_end_active(csgl_proof(pf("[]~(r | r) | ~[]~[]r")))),
                linearize(to_end_active(csgl_proof(MANY_PERMUTATIONS)))]
    assert not any(normal_form_report(p).accepted for p in fixtures)
    while len(fixtures) < 40:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(5, 11))
        if prove_formula(f, "glseq", CFG).proved:
            fixtures.append(linearize(to_end_active(csgl_proof(f))))
    seen = {"accepted": 0, "rejected": 0}
    for p in fixtures:
        for mutant in _shape_mutants(p, rng, _SHAPE_RULES):
            got = _report_outcome(normal_form_report, mutant, listed)
            assert got == _report_outcome(_reference_normal_form_report, mutant)
            if isinstance(got, list):
                seen["rejected" if got else "accepted"] += 1
    assert min(seen.values()) >= 20
    csgl = csgl_proof(LOB)
    assert _report_outcome(normal_form_report, csgl) == _report_outcome(
        _reference_normal_form_report, csgl) != []
