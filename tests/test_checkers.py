import random

import pytest

from glproof import checkers
from glproof.formula import Atom, Box, Not, Or, parse_formula as pf, random_formula
from glproof.proofio import (
    parse_gentzen_sequent as pgs,
    parse_labeled_sequent as pls,
    parse_lns,
)
from glproof.rules import FRESHNESS_VIOLATION, NOT_A_TREE, RULES_OF, premises_of
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import (
    CyclicDerivation,
    LabeledSequent,
    NotATree,
    Proof,
    format_address,
    mset_remove,
    rebuild,
    tree_root,
)
from glproof.transform import to_end_active
from glproof.checkers import (
    Failure,
    check_csgl,
    check_g3gl,
    check_glcirc,
    check_glseq,
    check_k4seq,
    check_lngl,
    check_proof,
    end_active_report,
    normal_form_report,
)

CFG = SearchConfig(oracle_hint=False)
P = Atom("p")


def codes(report):
    return {f.code for f in report.failures}


def details(report):
    return {(f.code, f.detail) for f in report.failures}


# ---------------------------------------------------------------------------
# GLseq / K4seq

def test_glseq_id_accepted():
    p = Proof("glseq", "id", pgs("p |- p"), (), {"principal": P})
    assert check_glseq(p).accepted


def test_glseq_id_arbitrary_formula():
    f = pf("[](p | ~q)")
    p = Proof("glseq", "id", pgs("q, [](p | ~q) |- [](p | ~q)"), (), {"principal": f})
    assert check_glseq(p).accepted


def test_glseq_boxgl_step():
    # premise []G, G, []f |- f ; conclusion S, []G |- []f, D
    concl = pgs("q, []p |- []r, s")
    meta = {"gamma": (P,), "phi": Atom("r")}
    (prem,) = premises_of("glseq", "boxGL", meta, concl)
    assert prem == pgs("[]p, p, []r |- r")
    leaf = Proof("glseq", "id", prem, (), {})  # not a real closure; schema only
    node = Proof("glseq", "boxGL", concl, (leaf,), meta)
    report = check_glseq(node)
    # the boxGL node itself is fine; the fake id leaf is the only failure
    assert all(f.address == (0,) for f in report.failures)


def test_glseq_boxgl_premise_omits_box():
    concl = pgs("[]p |- []r")
    meta = {"gamma": (P,), "phi": Atom("r")}
    bad_prem = pgs("[]p, p |- r")  # []r missing from the antecedent
    leaf = Proof("glseq", "id", bad_prem, (), {"principal": P})
    node = Proof("glseq", "boxGL", concl, (leaf,), meta)
    report = check_glseq(node)
    assert "SchemaMismatch" in codes(report)


def test_glseq_bad_partition():
    concl = pgs("[]p |- []r")
    meta = {"gamma": (Atom("q"),), "phi": Atom("r")}  # []q is not in the antecedent
    node = Proof("glseq", "boxGL", concl, (Proof("glseq", "id", pgs("p |- p"), (), {}),), meta)
    assert "BadPartition" in codes(check_glseq(node))


def test_k4seq_box4_step():
    concl = pgs("[]p |- []r")
    meta = {"gamma": (P,), "phi": Atom("r")}
    (prem,) = premises_of("k4seq", "box4", meta, concl)
    assert prem == pgs("[]p, p |- r")


def test_wrong_premise_count():
    node = Proof("glseq", "negL", pgs("~p |- "), (), {"principal": pf("~p")})
    assert "WrongPremiseCount" in codes(check_glseq(node))


# ---------------------------------------------------------------------------
# G3GL

def test_g3gl_id1():
    p = Proof("g3gl", "id1", pls("x: p |- x: p"), (), {"label": "x", "principal": P})
    assert check_g3gl(p, "strict").accepted
    assert check_g3gl(p, "extended").accepted  # strict proofs stay accepted


def test_g3gl_freshness_violation():
    concl = pls("x: q |- x: []p")
    meta = {"label": "x", "fresh": "x", "phi": P}  # x occurs in the conclusion
    node = Proof("g3gl", "boxR", concl, (Proof("g3gl", "id1", concl, (), {}),), meta)
    assert ("FreshnessViolation", "x") in details(check_g3gl(node, "strict"))


def _boxr_branch(concl):
    # valid subproof of x: p |- x: [](q | ~q) whose boxR uses fresh label y
    tau = pf("q | ~q")
    m = {"label": "x", "fresh": "y", "phi": tau}
    (c1,) = premises_of("g3gl", "boxR", m, concl)
    (c2,) = premises_of("g3gl", "orR", {"label": "y", "principal": tau}, c1)
    (c3,) = premises_of("g3gl", "negR", {"label": "y", "principal": pf("~q")}, c2)
    leaf = Proof("g3gl", "id1", c3, (), {"label": "y", "principal": Atom("q")})
    n2 = Proof("g3gl", "negR", c2, (leaf,), {"label": "y", "principal": pf("~q")})
    n1 = Proof("g3gl", "orR", c1, (n2,), {"label": "y", "principal": tau})
    return Proof("g3gl", "boxR", concl, (n1,), m)


def test_g3gl_global_freshness_lint():
    # the same fresh label in two branch-disjoint boxR applications is
    # locally fresh in each, but violates the one-to-one correspondence
    c0 = pls("x: p | p |- x: [](q | ~q)")
    meta = {"label": "x", "principal": pf("p | p")}
    b1, b2 = premises_of("g3gl", "orL", meta, c0)
    proof = Proof("g3gl", "orL", c0, (_boxr_branch(b1), _boxr_branch(b2)), meta)
    rep = check_g3gl(proof, "strict")
    assert ("FreshnessViolation", "y") in details(rep)
    # with distinct fresh labels the same proof is accepted
    from glproof.sequents import relabel_proof

    fixed = Proof(
        "g3gl", "orL", c0,
        (_boxr_branch(b1), relabel_proof(_boxr_branch(b2), {"y": "z"})),
        meta,
    )
    assert check_g3gl(fixed, "strict").accepted


def test_g3gl_ir_tr():
    p = Proof("g3gl", "ir", pls("xRx; x: p |- "), (), {"label": "x"})
    assert check_g3gl(p, "strict").accepted
    c = pls("xRy; yRz; |- z: p")
    (prem,) = premises_of("g3gl", "tr", {"x": "x", "y": "y", "z": "z"}, c)
    assert ("x", "z") in prem.rel


def test_g3gl_strict_rejects_extended_rules():
    c = pls("x: p, x: q |- x: p")
    node = Proof(
        "g3gl", "w", c,
        (Proof("g3gl", "id1", pls("x: p |- x: p"), (), {"label": "x", "principal": P}),),
        {"added": pls("x: q |- ")},
    )
    assert "UnknownRuleInStrictMode" in codes(check_g3gl(node, "strict"))
    assert check_g3gl(node.retag("g3glext"), "extended").accepted


def test_seven_step_template_extended():
    # the boxGL translation emits exactly the displayed template
    from glproof.transform import glseq_to_g3gl

    q = Atom("q")
    concl = pgs("s, []q |- []q, r")
    meta = {"gamma": (q,), "phi": q}
    (prem,) = premises_of("glseq", "boxGL", meta, concl)
    assert prem == pgs("[]q, q, []q |- q")
    inner = Proof("glseq", "id", prem, (), {"principal": q})
    g = Proof("glseq", "boxGL", concl, (inner,), meta)
    assert check_glseq(g).accepted
    out = glseq_to_g3gl(g)
    rules = []
    node = out
    while node.premises:
        rules.append(node.rule)
        node = node.premises[0]
    rules.append(node.rule)
    # bottom-up: w, (x/y), boxR, 4L block, boxL block, w, then the id
    assert rules[:6] == ["w", "sub", "boxR", "4L", "boxL", "w"]
    assert check_g3gl(out, "extended").accepted
    assert out.conclusion == pls("x: s, x: []q |- x: []q, x: r")


# ---------------------------------------------------------------------------
# CSGL

def test_csgl_id1_flat():
    p = Proof("csgl", "id1", pls("x: p |- x: p"), (), {"label": "x", "principal": P})
    assert check_csgl(p).accepted


def test_csgl_4l_instance():
    c = pls("xRy; x: []p |- y: []p")
    meta = {"label": "x", "aux": "y", "phi": P}
    (prem,) = premises_of("csgl", "4L", meta, c)
    assert prem == pls("xRy; x: []p, y: []p |- y: []p")
    leaf = Proof("csgl", "id2", prem, (), {"label": "y", "principal": Box(P)})
    node = Proof("csgl", "4L", c, (leaf,), meta)
    assert check_csgl(node).accepted


def test_csgl_rejects_non_tree():
    bad = pls("xRy; zRy; x: p |- x: p")  # y has two parents
    node = Proof("csgl", "id1", bad, (), {"label": "x", "principal": P})
    rep = check_csgl(node)
    assert "NotATree" in codes(rep)


def test_csgl_multi_root_detail():
    bad = pls("xRy; zRw; x: p |- x: p")
    node = Proof("csgl", "id1", bad, (), {"label": "x", "principal": P})
    assert ("NotATree", "multi-root") in details(check_csgl(node))


def test_csgl_rejects_ir_tr():
    node = Proof("csgl", "ir", pls("x: p |- x: p"), (), {"label": "x"})
    assert "UnknownRule" in codes(check_csgl(node))


def test_csgl_retagged_accepted_extended():
    base = prove_formula(pf("[]([]p -> p) -> []p"), "csgl", CFG).proof
    assert check_csgl(base).accepted
    assert check_g3gl(base.retag("g3glext"), "extended").accepted


# ---------------------------------------------------------------------------
# LNGL

def test_lngl_id2():
    g = parse_lns("p |- // []q |- []q")
    p = Proof("lngl", "id2", g, (), {"principal": Box(Atom("q"))})
    assert check_lngl(p).accepted


def test_lngl_boxr_bad_premise_end():
    concl = parse_lns(" |- []p")
    bad_prem = parse_lns(" |-  // []p |- q")  # end component must be []p |- p
    node = Proof(
        "lngl", "boxR", concl,
        (Proof("lngl", "id1", bad_prem, (), {"principal": Atom("q")}),),
        {"phi": P},
    )
    assert "SchemaMismatch" in codes(check_lngl(node))


def test_lngl_non_end_application():
    concl = parse_lns("~p |- p // p, ~p |- q")
    meta = {"principal": pf("~p")}
    good_prem = premises_of("lngl", "negL", meta, concl)[0]
    assert good_prem == parse_lns("~p |- p // p |- p, q")
    bad_prem = parse_lns(" |- p, p // p, ~p |- q")  # modified the first component
    node = Proof(
        "lngl", "negL", concl,
        (Proof("lngl", "id1", bad_prem, (), {"principal": P}),),
        meta,
    )
    assert "NonEndApplication" in codes(check_lngl(node))
    node2 = Proof(
        "lngl", "negL", concl,
        (Proof("lngl", "id1", good_prem, (), {"principal": P}),),
        meta,
    )
    assert check_lngl(node2).accepted


def test_lngl_pipeline_proof_checks():
    from glproof.transform import linearize, to_end_active

    base = prove_formula(pf("[]([]p -> p) -> []p"), "csgl", CFG).proof
    lp = linearize(to_end_active(base))
    assert check_lngl(lp).accepted


# ---------------------------------------------------------------------------
# end-active / normal-form predicates

def test_end_active_single_flat():
    p = Proof("csgl", "id1", pls("x: p |- x: p"), (), {"label": "x", "principal": P})
    assert end_active_report(p).accepted


def test_end_active_rejects_aux_with_children():
    c = pls("xRy; yRz; x: []p |- y: []p")
    meta = {"label": "x", "aux": "y", "phi": P}
    (prem,) = premises_of("csgl", "4L", meta, c)
    leaf = Proof("csgl", "id2", prem, (), {"label": "y", "principal": Box(P)})
    node = Proof("csgl", "4L", c, (leaf,), meta)
    assert check_csgl(node).accepted
    rep = end_active_report(node)
    assert not rep.accepted
    assert any(f.address == () for f in rep.failures)


def test_normal_form_vacuous_without_boxr():
    base = prove_formula(pf("p | ~p"), "csgl", CFG).proof
    from glproof.transform import linearize, to_end_active

    lp = linearize(to_end_active(base))
    assert normal_form_report(lp).accepted


def _lngl_wrong_order_fixture():
    # bottom-up: boxR, then boxL, then 4L (4L must come first)
    concl = parse_lns("[]p |- []p")
    m_boxr = {"phi": P}
    (c1,) = premises_of("lngl", "boxR", m_boxr, concl)
    (c2,) = premises_of("lngl", "boxL", {"phi": P}, c1)
    (c3,) = premises_of("lngl", "4L", {"phi": P}, c2)
    leaf = Proof("lngl", "id1", c3, (), {"principal": P})
    n4 = Proof("lngl", "4L", c2, (leaf,), {"phi": P})
    nb = Proof("lngl", "boxL", c1, (n4,), {"phi": P})
    return Proof("lngl", "boxR", concl, (nb,), m_boxr)


def test_normal_form_block_violation():
    fix = _lngl_wrong_order_fixture()
    assert check_lngl(fix).accepted
    rep = normal_form_report(fix)
    assert "BlockViolation" in codes(rep)


def test_modal_block_partition():
    from glproof.transform import lngl_to_glseq, normalize_lngl

    fix = normalize_lngl(_lngl_wrong_order_fixture())
    assert normal_form_report(fix).accepted
    out = lngl_to_glseq(fix)
    assert check_glseq(out).accepted
    # []p is principal in both 4L and boxL (Sigma2), so boxGL carries p once
    assert out.rule == "boxGL" and out.meta["gamma"] == (P,)


# ---------------------------------------------------------------------------
# GLcirc

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


def test_glcirc_lob_accepted():
    assert check_glcirc(lob_cyclic()).accepted


def test_glcirc_self_backlink():
    d = lob_cyclic()
    bad = CyclicDerivation(d.derivation, {(0, 0, 0, 0): (0, 0, 0, 0)})
    assert ("BadBacklink", "self") in details(check_glcirc(bad))


def test_glcirc_non_ancestor_backlink():
    d = lob_cyclic()
    bad = CyclicDerivation(d.derivation, {(0, 0, 0, 0): (0, 1)})
    assert ("BadBacklink", "not-ancestor") in details(check_glcirc(bad))


def test_glcirc_sequent_mismatch():
    d = lob_cyclic()
    bad = CyclicDerivation(d.derivation, {(0, 0, 0, 0): ()})  # root has a different sequent
    assert ("BadBacklink", "sequent-mismatch") in details(check_glcirc(bad))


def test_glcirc_open_leaf():
    d = lob_cyclic()
    bad = CyclicDerivation(d.derivation, {})
    assert "OpenLeaf" in codes(check_glcirc(bad))


def test_glcirc_lint_no_box_on_cycle():
    # corrupt the fixture: route the back-link so no box4 lies on the cycle
    seq = pgs("~p, [](~p) |- p, q")
    inner_open = Proof("k4seq", "open", pgs("[](~p) |- p, p, q"), (), {})
    n1 = Proof("k4seq", "negL", seq, (inner_open,), {"principal": pf("~p")})
    # build: negL conclusion seq, premise []~p |- p, p, q ; backlink to itself's parent
    d = CyclicDerivation(n1, {(0,): ()})
    rep = check_glcirc(d)
    assert "LintNoBoxOnCycle" in codes(rep) or "BadBacklink" in codes(rep)


# ---------------------------------------------------------------------------
# Mutation resistance

def test_mutation_resistance():
    base = prove_formula(pf("[]([]p -> p) -> []p"), "csgl", CFG).proof
    assert check_csgl(base).accepted
    conclusion = base.conclusion

    # flip every rule name one at a time
    others = ("id1", "id2", "negL", "negR", "orL", "orR", "boxL", "boxR", "4L")
    for addr, node in base.nodes():
        for r in others:
            if r == node.rule:
                continue
            mutant = base.replace_at(
                addr, Proof(node.calculus, r, node.conclusion, node.premises, dict(node.meta))
            )
            rep = check_csgl(mutant)
            assert (not rep.accepted) or mutant.conclusion == conclusion

    # delete a premise everywhere possible
    for addr, node in base.nodes():
        if node.premises:
            mutant = base.replace_at(
                addr, Proof(node.calculus, node.rule, node.conclusion,
                            node.premises[1:], dict(node.meta))
            )
            rep = check_csgl(mutant)
            assert (not rep.accepted) or mutant.conclusion == conclusion

    # rename each fresh label without touching the subtree
    for addr, node in base.nodes():
        if node.rule == "boxR":
            meta = dict(node.meta)
            meta["fresh"] = "zz"
            mutant = base.replace_at(
                addr, Proof(node.calculus, node.rule, node.conclusion, node.premises, meta)
            )
            rep = check_csgl(mutant)
            assert (not rep.accepted) or mutant.conclusion == conclusion


# ---------------------------------------------------------------------------
# check_csgl's one walk against tree_root on every node

def _reference_csgl_failures(p):
    """Schema failures, then tree_root on every node, then reused fresh
    labels, each in pre-order."""
    failures = checkers._check_nodes(p, ("csgl",), RULES_OF["csgl"])
    for addr, node in p.nodes():
        try:
            tree_root(node.conclusion)
        except NotATree as e:
            failures.append(Failure(addr, NOT_A_TREE, str(e), e.diagnosis))
    seen = {}
    for addr, node in p.nodes():
        y = node.meta.get("fresh") if node.rule == "boxR" else None
        if y in seen:
            failures.append(Failure(addr, FRESHNESS_VIOLATION,
                                    f"fresh label {y} reused (also at {format_address(seen[y])})", y))
        elif y is not None:
            seen[y] = addr
    return failures


def _mutate(node, kind, rng):
    """The node with its conclusion (or calculus tag) changed."""
    c = node.conclusion
    x = rng.choice(sorted(c.labels()))
    if kind == "retag":
        return Proof("g3gl", node.rule, c, node.premises, dict(node.meta))
    if kind == "cycle":
        c = c.with_rel((x, tree_root(c)))
    elif kind == "drop-atom":
        items = [("ante", i) for i in c.ante] + [("cons", i) for i in c.cons]
        side, item = rng.choice([it for it in items if isinstance(it[1][1], Atom)] or items)
        c = LabeledSequent(c.rel, mset_remove(c.ante, item) if side == "ante" else c.ante,
                           mset_remove(c.cons, item) if side == "cons" else c.cons)
    elif kind == "stray-label":
        c = c.with_ante(("zz", Atom("p")))
    elif kind == "second-root":
        c = c.with_rel(("zz", "zw"))
    elif kind == "rename-label":
        c = c.rename({x: "zz"})
    elif kind == "cycle-subtree":
        # the same cycle in every conclusion above: each premise matches its
        # schema, but none is a tree
        edge = (x, tree_root(c))
        return rebuild(node, lambda n, prems: Proof(
            n.calculus, n.rule, n.conclusion.with_rel(edge), prems, dict(n.meta)))
    return Proof(node.calculus, node.rule, c, node.premises, dict(node.meta))


def test_check_csgl_matches_tree_root_on_every_node(monkeypatch):
    calls = []
    monkeypatch.setattr(checkers, "tree_root", lambda t: calls.append(t) or tree_root(t))
    rng = random.Random(8)
    kinds = ("cycle", "drop-atom", "stray-label", "second-root", "rename-label", "retag",
             "cycle-subtree")
    proofs = []
    while len(proofs) < 40:
        r = prove_formula(random_formula(rng, ("p", "q", "r"), rng.randint(4, 12)), "csgl", CFG)
        if r.proved:
            proofs.append(to_end_active(r.proof) if len(proofs) % 2 else r.proof)
    rejected = set()
    for proof in proofs:
        calls.clear()
        assert check_csgl(proof).accepted
        assert len(calls) == 1  # the root only: every premise is vouched for
        addrs = [a for a, _ in proof.nodes()]
        for kind in kinds:
            addr = rng.choice(addrs)
            mutant = proof.replace_at(addr, _mutate(proof.at(addr), kind, rng))
            failures = check_csgl(mutant).failures
            assert failures == _reference_csgl_failures(mutant), (kind, addr)
            if failures:
                rejected.add(kind)
    assert rejected == set(kinds)


def test_check_proof_dispatch():
    for formula, calc in (("p -> p", "glseq"), ("p -> p", "csgl")):
        r = prove_formula(pf(formula), calc, CFG)
        assert check_proof(r.proof).accepted


def test_calculus_mismatch():
    p = Proof("glseq", "id", pgs("p |- p"), (), {"principal": P})
    assert "CalculusMismatch" in codes(check_k4seq(p))


def _mismatch(report):
    return [(f.code, format_address(f.address)) for f in report.failures]


def test_csgl_gentzen_premise_is_calculus_mismatch():
    leaf = Proof("glseq", "id", pgs("p |- p"), (), {"principal": P})
    p = Proof("csgl", "negR", pls("x: p |- x: ~p"), (leaf,), {"label": "x", "principal": Not(P)})
    assert _mismatch(check_csgl(p)) == [("SchemaMismatch", "0"), ("CalculusMismatch", "0")]


def test_csgl_node_with_gentzen_conclusion_is_calculus_mismatch():
    p = Proof("csgl", "id1", pgs("p |- p"), (), {"label": "x", "principal": P})
    assert _mismatch(check_csgl(p)) == [("CalculusMismatch", ".")]


def test_glseq_node_with_labeled_conclusion_is_calculus_mismatch():
    p = Proof("glseq", "id", pls("x: p |- x: p"), (), {"principal": P})
    assert _mismatch(check_glseq(p)) == [("CalculusMismatch", ".")]


def test_modal_blocks_decomposition():
    from glproof.transform import linearize, lngl_to_glseq, normalize_lngl, to_end_active

    base = prove_formula(pf("[]([]p -> p) -> []p"), "csgl", CFG).proof
    lp = normalize_lngl(linearize(to_end_active(base)))
    assert normal_form_report(lp).accepted
    (boxr,) = [a for a, n in lp.nodes() if n.rule == "boxR"]
    # the Loeb proof propagates once each: one 4L, then one boxL, then local rules
    assert [lp.at(boxr + (0,) * i).rule for i in (1, 2)] == ["4L", "boxL"]
    assert lp.at(boxr + (0, 0, 0)).rule in ("negL", "negR", "orL", "orR")
    out = lngl_to_glseq(lp)
    assert check_glseq(out).accepted
    assert [n.meta["gamma"] for _, n in out.nodes() if n.rule == "boxGL"] == [(pf("~[]p | p"),)]
