import random

import pytest

from glproof import checkers
from glproof.formula import Atom, Box, Not, Or, parse_formula as pf, random_formula
from glproof.proofio import (
    parse_gentzen_sequent as pgs,
    parse_labeled_sequent as pls,
    parse_lns,
)
from glproof.rules import (
    CALCULUS_MISMATCH,
    FRESHNESS_VIOLATION,
    INTERNAL_ERROR,
    NON_END_APPLICATION,
    NOT_A_TREE,
    OPEN_LEAF,
    RULES_OF,
    SCHEMA_MISMATCH,
    UNKNOWN_RULE,
    UNKNOWN_RULE_STRICT,
    WRONG_PREMISE_COUNT,
    RuleError,
    premises_of,
)
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import (
    LABEL_KEYS,
    OPEN,
    SEQUENT_OF,
    CyclicDerivation,
    LabeledSequent,
    LinearNestedSequent,
    NotATree,
    Proof,
    format_address,
    mset_remove,
    rebuild,
    tree_root,
)
from rederive_reference import relabel_proof, replace_at
from glproof.transform import run_pipeline, to_end_active
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
    for concl, fresh in [
        ("x: q |- x: []p", "x"),        # the principal's label
        ("xRy; x: q |- x: []p", "y"),   # in the relation only
        ("y: r, x: q |- x: []p", "y"),  # in the antecedent only
        ("x: q |- x: []p, y: r", "y"),  # in the consequent only
    ]:
        concl = pls(concl)
        assert concl.has_label(fresh) and not concl.has_label("z")
        meta = {"label": "x", "fresh": fresh, "phi": P}  # fresh occurs in the conclusion
        node = Proof("g3gl", "boxR", concl, (Proof("g3gl", "id1", concl, (), {}),), meta)
        report = check_g3gl(node, "strict")
        assert ("FreshnessViolation", fresh) in details(report)
        line = f"FreshnessViolation({fresh})\t.\tlabel {fresh} occurs in the conclusion"
        assert line in map(str, report.failures)


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
    c = pls("xRy; x: []p |- y: []p")
    node = Proof(
        "g3gl", "4L", c,
        (Proof("g3gl", "id2", pls("xRy; x: []p, y: []p |- y: []p"), (),
               {"label": "y", "principal": pf("[]p")}),),
        {"label": "x", "aux": "y", "phi": P},
    )
    assert "UnknownRuleInStrictMode" in codes(check_g3gl(node, "strict"))
    assert check_g3gl(node.retag("g3glext"), "extended").accepted


def test_boxgl_template_extended():
    # the boxGL translation emits exactly the displayed template, at the
    # boxGL's own label
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
    # bottom-up: boxR, 4L block, boxL block, then the id; no node drops
    # the context
    assert rules == ["boxR", "4L", "boxL", "id1"]
    boxr = out
    assert boxr.meta == {"label": "x", "fresh": "y0", "phi": q}
    assert [n.meta["label"] for n in (boxr.premises[0], boxr.premises[0].premises[0])] == ["x"] * 2
    assert check_g3gl(out, "extended").accepted
    assert out.conclusion == pls("x: s, x: []q |- x: []q, x: r")
    assert node.conclusion == pls("xRy0; x: s, x: []q, y0: q, y0: []q, y0: []q |- x: r, y0: q")


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
            mutant = replace_at(
                base, addr, Proof(node.calculus, r, node.conclusion, node.premises, dict(node.meta))
            )
            rep = check_csgl(mutant)
            assert (not rep.accepted) or mutant.conclusion == conclusion

    # delete a premise everywhere possible
    for addr, node in base.nodes():
        if node.premises:
            mutant = replace_at(
                base, addr, Proof(node.calculus, node.rule, node.conclusion,
                            node.premises[1:], dict(node.meta))
            )
            rep = check_csgl(mutant)
            assert (not rep.accepted) or mutant.conclusion == conclusion

    # rename each fresh label without touching the subtree
    for addr, node in base.nodes():
        if node.rule == "boxR":
            meta = dict(node.meta)
            meta["fresh"] = "zz"
            mutant = replace_at(
                base, addr, Proof(node.calculus, node.rule, node.conclusion, node.premises, meta)
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
            mutant = replace_at(proof, addr, _mutate(proof.at(addr), kind, rng))
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


# ---------------------------------------------------------------------------
# The lean walk against the diagnosing walk
#
# `_reference_check_node` and `_reference_check_nodes` are verbatim copies of
# the walk every checker ran at each node before accepted proofs took the
# lean walk, less its branch for the `sub` rule, which no calculus has now.
# A checker's verdict and failure list must equal theirs on every mutant of
# every stage proof.

def _reference_check_node(
    addr,
    node,
    expected_calculus,
    allowed,
    strict_reject,
    failures,
):
    if node.rule == OPEN and OPEN in allowed:
        return []
    shaped = isinstance(node.conclusion, SEQUENT_OF[expected_calculus[0]])
    if node.calculus not in expected_calculus:
        failures.append(Failure(addr, CALCULUS_MISMATCH, f"node is tagged {node.calculus}"))
        return [] if shaped else None
    if not shaped:
        failures.append(Failure(addr, CALCULUS_MISMATCH,
                                f"{node.calculus} node concludes a {type(node.conclusion).__name__}"))
        return None
    if node.rule == OPEN:
        failures.append(Failure(addr, OPEN_LEAF, "open leaf in a closed proof"))
        return []
    if node.rule not in allowed:
        code = UNKNOWN_RULE_STRICT if node.rule in strict_reject else UNKNOWN_RULE
        failures.append(Failure(addr, code, f"rule {node.rule} not available here"))
        return []
    try:
        expected = premises_of(node.calculus, node.rule, node.meta, node.conclusion)
    except RuleError as e:
        failures.append(Failure(addr, e.code, str(e), e.detail))
        return []
    if len(node.premises) != len(expected):
        failures.append(
            Failure(
                addr,
                WRONG_PREMISE_COUNT,
                f"{node.rule} needs {len(expected)} premises, found {len(node.premises)}",
            )
        )
        return []
    matched = []
    for i, (want, q) in enumerate(zip(expected, node.premises)):
        got = q.conclusion
        matched.append(want == got)
        if matched[-1]:
            continue
        lns_diag = None
        if isinstance(node.conclusion, LinearNestedSequent):
            lns_diag = checkers._diagnose_lns_mismatch(node.rule, node.conclusion, want, got)
        if lns_diag is not None:
            failures.append(Failure(addr + (i,), lns_diag.code, lns_diag.message))
        else:
            failures.append(Failure(addr + (i,), SCHEMA_MISMATCH,
                                    f"premise {i} of {node.rule} should be {want}, found {got}"))
    return matched


def _reference_check_nodes(
    proof,
    expected_calculus,
    allowed,
    strict_reject=(),
    tree=False,
    fresh=False,
):
    failures = []
    shape = []
    reused = []
    seen = {}
    stack = [((), proof, False)]
    while stack:
        addr, node, is_tree = stack.pop()
        matched = _reference_check_node(addr, node, expected_calculus, allowed, strict_reject,
                                        failures)
        if tree and not is_tree and matched is not None:
            try:
                tree_root(node.conclusion)
                is_tree = True
            except NotATree as e:
                shape.append(Failure(addr, NOT_A_TREE, str(e), e.diagnosis))
        y = node.meta.get("fresh") if fresh and node.rule == "boxR" else None
        if y is not None and isinstance(node.conclusion, LabeledSequent):
            if y in seen:
                reused.append(Failure(
                    addr, FRESHNESS_VIOLATION,
                    f"fresh label {y} reused (also at {format_address(seen[y])})", detail=y))
            else:
                seen[y] = addr
        for i in range(len(node.premises) - 1, -1, -1):
            vouched = is_tree and i < len(matched) and matched[i]
            stack.append((addr + (i,), node.premises[i], vouched))
    return failures + shape + reused


_STRICT_EXTRA = tuple(r for r in RULES_OF["g3glext"] if r not in RULES_OF["g3gl"])
# each checker, and the arguments of the reference walk that stood for it
_CHECKS = {
    "glseq": (check_glseq, (("glseq",), RULES_OF["glseq"])),
    "k4seq": (check_k4seq, (("k4seq",), RULES_OF["k4seq"])),
    "g3gl": (lambda p: check_g3gl(p, "strict"),
             (("g3gl",), RULES_OF["g3gl"], _STRICT_EXTRA, False, True)),
    "g3glext": (lambda p: check_g3gl(p, "extended"),
                (("g3gl", "g3glext", "csgl"), RULES_OF["g3glext"], (), False, True)),
    "csgl": (check_csgl, (("csgl",), RULES_OF["csgl"], (), True, True)),
    "lngl": (check_lngl, (("lngl",), RULES_OF["lngl"])),
}
_ALL_RULES = sorted({r for rules in RULES_OF.values() for r in rules} | {OPEN})


def _outcome(fn, p):
    """The failure list, or the exception raised, which must agree too."""
    try:
        return fn(p)
    except Exception as e:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(e).__name__, str(e))


@pytest.fixture
def diagnosed(monkeypatch):
    """The proofs the diagnosing walk ran on, in order."""
    calls = []
    diagnose = checkers._diagnose_nodes
    monkeypatch.setattr(checkers, "_diagnose_nodes",
                        lambda p, *args: calls.append(p) or diagnose(p, *args))
    return calls


def _same_as_reference(name, p, diagnosed):
    """Assert the checker agrees with the reference walk, and runs the
    diagnosing walk only on a proof that fails; return its failures."""
    check, args = _CHECKS[name]
    want = _outcome(lambda q: _reference_check_nodes(q, *args), p)
    diagnosed.clear()
    report = _outcome(check, p)
    got = report if isinstance(report, tuple) else report.failures
    assert got == want
    if not isinstance(report, tuple):
        assert [str(f) for f in got] == [str(f) for f in want]
        assert report.accepted == (report.failures == [])
        assert diagnosed == ([p] if got else [])
    return got


def _other_formula(f):
    return f.sub if isinstance(f, (Not, Box)) else (f.left if isinstance(f, Or) else Not(f))


def _edit_meta(node, rng):
    """The node's meta with one label, formula or partition changed, or with
    a key missing."""
    meta = dict(node.meta)
    key = rng.choice(sorted(meta))
    value = meta[key]
    labels = sorted(node.conclusion.labels()) if isinstance(node.conclusion, LabeledSequent) else []
    if key in LABEL_KEYS:
        meta[key] = rng.choice([x for x in labels if x != value] or ["zz"])
    elif key in ("principal", "phi"):
        meta[key] = _other_formula(value)
    elif key == "gamma":
        meta[key] = value[1:] if value else (P,)
    else:
        del meta[key]
    return meta


def _edit_conclusion(c, rng):
    if isinstance(c, LabeledSequent):
        return c.with_ante((rng.choice(sorted(c.labels())), Atom("q")))
    if isinstance(c, LinearNestedSequent):
        # the end component, or one a rule application must leave as it is
        i = rng.randrange(len(c))
        return LinearNestedSequent(c.components[:i] + (c.components[i].with_ante(Atom("q")),)
                                   + c.components[i + 1:])
    return c.with_ante(Atom("q"))


def _fresh_reuse(p, rng):
    """Two boxRs in different branches, the second renamed to the first's
    fresh label in its whole subproof: every node still matches its schema."""
    boxrs = [(a, n) for a, n in p.nodes() if n.rule == "boxR" and "fresh" in n.meta]
    pairs = [(a, b) for a, m in boxrs for b, n in boxrs
             if a < b and b[:len(a)] != a and m.meta["fresh"] != n.meta["fresh"]]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    node = p.at(b)
    renamed = relabel_proof(node, {node.meta["fresh"]: p.at(a).meta["fresh"]})
    return replace_at(p, b, renamed)


def _mutants(p, rng):
    """(kind, mutant) pairs: each changes one thing of `p`."""
    nodes = list(p.nodes())

    def at(addr, goals=None, **change):
        node = p.at(addr)
        fields = dict(calculus=node.calculus, rule=node.rule, conclusion=node.conclusion,
                      premises=node.premises, meta=dict(node.meta))
        fields.update(change)
        new = Proof(**fields)
        new.goals = goals
        return replace_at(p, addr, new)

    for _ in range(3):
        addr, node = rng.choice(nodes)
        yield "rule", at(addr, rule=rng.choice([r for r in _ALL_RULES if r != node.rule]))
        yield "retag", at(addr, calculus=rng.choice(
            [c for c in _CHECKS if c != node.calculus]))
        yield "conclusion", at(addr, conclusion=_edit_conclusion(node.conclusion, rng))
        with_meta = [(a, n) for a, n in nodes if n.meta]
        if with_meta:
            addr, node = rng.choice(with_meta)
            yield "meta", at(addr, meta=_edit_meta(node, rng))
        inner = [(a, n) for a, n in nodes if n.premises]
        if inner:
            addr, node = rng.choice(inner)
            i = rng.randrange(len(node.premises))
            # the premises change, the goals `derive` recorded do not: what a
            # derive that wired a child to the wrong goal would build
            yield "drop", at(addr, node.goals, premises=node.premises[:i] + node.premises[i + 1:])
            if len(node.premises) > 1:
                yield "swap", at(addr, node.goals, premises=node.premises[::-1])
            elif node.premises[0].premises:
                yield "swap", at(addr, node.goals, premises=node.premises[0].premises[:1])
    if isinstance(p.conclusion, LabeledSequent):
        reuse = _fresh_reuse(p, rng)
        if reuse is not None:
            yield "fresh-reuse", reuse
        # a second root in every conclusion: each schema still matches
        yield "non-tree", rebuild(p, lambda n, prems: Proof(
            n.calculus, n.rule, n.conclusion.with_rel(("zz", "zw")), prems, dict(n.meta)))


def _stage_proofs(count, seed):
    """(checker, proof) for every stage of `count` seeded theorems, with the
    GLseq stages also checked in K4seq and the G3GL stage in strict G3GL."""
    rng = random.Random(seed)
    n = 0
    while n < count:
        r = prove_formula(random_formula(rng, ("p", "q", "r"), rng.randint(5, 11)), "csgl", CFG)
        if not r.proved:
            continue
        n += 1
        proofs = {stage: p for stage, p, _ in run_pipeline(r.proof)}
        glseq, g3gl = proofs["glseq"], proofs["g3gl"]
        yield from (("csgl", r.proof), ("csgl", proofs["end-active"]), ("lngl", proofs["lngl"]),
                    ("lngl", proofs["normal"]), ("glseq", glseq), ("k4seq", glseq.retag("k4seq")),
                    ("g3glext", g3gl), ("g3gl", g3gl.retag("g3gl")))


def test_checkers_agree_with_the_diagnosing_walk_on_mutants(diagnosed):
    rng = random.Random(16)
    kinds = {}
    for name, proof in _stage_proofs(24, 16):
        failures = _same_as_reference(name, proof, diagnosed)
        if name not in ("k4seq", "g3gl"):
            assert failures == []  # every stage proof is accepted
        for kind, mutant in _mutants(proof, rng):
            got = _same_as_reference(name, mutant, diagnosed)
            if not isinstance(got, tuple) and got:
                codes_of = kinds.setdefault((name, kind), set())
                codes_of.update(f.code for f in got)
    # every mutation was rejected somewhere, and the two that no single
    # node's schema sees were rejected for exactly that
    assert {kind for _, kind in kinds} == {
        "rule", "retag", "conclusion", "meta", "drop", "swap", "fresh-reuse", "non-tree"}
    assert kinds[("csgl", "fresh-reuse")] == {FRESHNESS_VIOLATION}
    assert kinds[("g3glext", "fresh-reuse")] == {FRESHNESS_VIOLATION}
    assert kinds[("csgl", "non-tree")] == {NOT_A_TREE}
    assert NON_END_APPLICATION in kinds[("lngl", "conclusion")]
    # the strict checker rejects G3GLext's own rules by their own code
    assert UNKNOWN_RULE_STRICT in kinds[("g3gl", "rule")]


def _stages_of(text: str) -> dict:
    proof = prove_formula(pf(text), "csgl", CFG).proof
    return dict([("csgl", proof)] + [(stage, p) for stage, p, _ in run_pipeline(proof)])


def test_walks_that_disagree_reject_with_an_internal_error(diagnosed):
    # a derived orL whose recorded goals are reversed: the lean walk reads
    # them and rejects, the diagnosing walk recomputes them and finds no
    # failure; the proof is rejected at the root for that disagreement
    forged = set()
    for stage in ("csgl", "end-active", "lngl", "normal", "glseq", "g3gl"):
        p = _stages_of("(p | q) -> (q | p)")[stage]  # a fresh run: stages share nodes
        node = next((n for _, n in p.nodes() if n.rule == "orL" and n.goals is not None), None)
        if node is None:
            continue
        assert node.goals[0] != node.goals[1]
        node.goals = node.goals[::-1]
        diagnosed.clear()
        report = check_proof(p)
        assert not report.accepted, stage
        assert [(f.address, f.code) for f in report.failures] == [((), INTERNAL_ERROR)], stage
        assert diagnosed == [p]
        forged.add(stage)
    assert forged >= {"csgl", "end-active", "lngl", "normal", "g3gl"}, forged


def test_glcirc_agrees_with_the_diagnosing_walk_on_mutants(diagnosed):
    rng = random.Random(3)
    d = lob_cyclic()
    args = (("k4seq",), RULES_OF["k4seq"] + (OPEN,))
    assert checkers._check_nodes(d.derivation, *args) == []
    rejected = set()
    for _ in range(20):
        for kind, mutant in _mutants(d.derivation, rng):
            want = _outcome(lambda q: _reference_check_nodes(q, *args), mutant)
            diagnosed.clear()
            assert _outcome(lambda q: checkers._check_nodes(q, *args), mutant) == want
            assert len(diagnosed) == (want != [])
            report = check_glcirc(CyclicDerivation(mutant, d.backlinks))
            assert report.accepted == (report.failures == [])
            if want:
                rejected.add(kind)
    assert rejected >= {"rule", "retag", "conclusion", "meta", "drop", "swap"}
    # the unfolding has open leaves, which K4seq rejects
    from glproof.transform import unfold_glcirc

    unfolded = unfold_glcirc(d, 2)
    assert {f.code for f in _same_as_reference("k4seq", unfolded, diagnosed)} == {"OpenLeaf"}
