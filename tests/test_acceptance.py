"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import multiprocessing
import random
import time

import pytest

from glproof.formula import (
    Atom,
    Box,
    enumerate_formulas,
    parse_formula as pf,
    print_formula,
    random_formula,
)
from glproof.proofio import parse_gentzen_sequent as pgs, parse_labeled_sequent as pls
from glproof.rules import premises_of
from glproof.search import SearchConfig, prove_formula
from glproof.semantics import (
    gentzen_interpretation,
    labeled_sequent_valid,
    lns_interpretation,
    oracle_validity,
)
from glproof.sequents import CyclicDerivation, GentzenSequent, LabeledSequent, Proof
from glproof.checkers import (
    check_csgl,
    check_g3gl,
    check_glcirc,
    check_glseq,
    end_active_report,
    normal_form_report,
)
from glproof.transform import (
    apply_inverse,
    linearize,
    normalize_lngl,
    run_pipeline,
    to_end_active,
    unfold_glcirc,
    weaken,
)
from test_pipeline import STAGE_CHECKS

CFG = SearchConfig(oracle_hint=False)
P, Q = Atom("p"), Atom("q")

TAUT = pf("p | ~p")
LOB = pf("[]([]p -> p) -> []p")
K_AX = pf("[](p -> q) -> ([]p -> []q)")
FOUR = pf("[]p -> [][]p")

# the listed axioms plus box-nested variants to depth 3
CORPUS = [
    LOB,
    K_AX,
    FOUR,
    TAUT,
    pf("[](p | ~p)"),
    pf("[][](p | ~p)"),
    pf("[][][](p | ~p)"),
    pf("[]([][]p -> []p) -> [][]p"),        # Loeb at []p
    pf("[]([]p -> []q) -> ([][]p -> [][]q)"),  # K at boxed instances
    pf("[][]p -> [][][]p"),                  # 4 at []p
]


def checked_stages(f):
    """All six stages; returns [(stage, proof)] with every stage checked."""
    r = prove_formula(f, "csgl", CFG)
    assert r.proved, f"corpus formula not proved: {print_formula(f)}"
    stages = [("csgl", r.proof)] + [(stage, p) for stage, p, _ in run_pipeline(r.proof)]
    for name, proof in stages:
        report = STAGE_CHECKS[name](proof)
        assert report.accepted, (name, [str(x) for x in report.failures])
    return stages


def test_acceptance_1_end_to_end_pipeline():
    t0 = time.time()
    for f in CORPUS:
        stages = checked_stages(f)
        final = stages[-1][1]
        assert final.conclusion == pls(f" |- x: {print_formula(f)}")
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"pipeline corpus took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (end-to-end pipeline): PASS "
          f"[{len(CORPUS)} formulas x 6 checked stages in {elapsed:.2f}s]")


def _agreement_worker(args):
    wid, nworkers, max_conn, n_random, max_rand_conn, seed = args
    cfg = SearchConfig(oracle_hint=False)
    mismatches = []
    checked = 0
    for i, f in enumerate(enumerate_formulas(("p", "q"), max_conn)):
        if i % nworkers != wid:
            continue
        a = prove_formula(f, "glseq", cfg).proved
        b = prove_formula(f, "csgl", cfg).proved
        c = oracle_validity(f).valid
        checked += 1
        if not (a == b == c):
            mismatches.append((print_formula(f), a, b, c))
    rng = random.Random(seed)
    for i in range(n_random):
        conn = rng.randrange(1, max_rand_conn + 1)
        f = random_formula(rng, ("p", "q"), conn)
        if i % nworkers != wid:
            continue
        a = prove_formula(f, "glseq", cfg).proved
        b = prove_formula(f, "csgl", cfg).proved
        c = oracle_validity(f).valid
        checked += 1
        if not (a == b == c):
            mismatches.append((print_formula(f), a, b, c))
    return checked, mismatches


def test_acceptance_2_oracle_agreement():
    t0 = time.time()
    nworkers = max(1, multiprocessing.cpu_count())
    jobs = [(w, nworkers, 6, 300, 10, 20260810) for w in range(nworkers)]
    if nworkers == 1:
        results = [_agreement_worker(jobs[0])]
    else:
        with multiprocessing.get_context("fork").Pool(nworkers) as pool:
            results = pool.map(_agreement_worker, jobs)
    checked = sum(c for c, _ in results)
    mismatches = [m for _, ms in results for m in ms]
    elapsed = time.time() - t0
    assert not mismatches, f"disagreements: {mismatches[:10]}"
    assert elapsed < 300.0, f"agreement sweep took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 2 (oracle agreement): PASS "
          f"[{checked} formulas, 0 disagreements, {elapsed:.0f}s on {nworkers} cores]")


def _sample_proofs(n):
    """Checked search proofs across both calculi from the enumerated corpus."""
    proofs = []
    for f in enumerate_formulas(("p", "q"), 4):
        calc = "glseq" if len(proofs) % 2 == 0 else "csgl"
        r = prove_formula(f, calc, CFG)
        if r.proved:
            proofs.append(r.proof)
            if len(proofs) >= n:
                break
    return proofs


def _check_of(proof):
    return {"glseq": check_glseq, "csgl": check_csgl}[proof.calculus]


def test_acceptance_3_hp_properties():
    proofs = _sample_proofs(200)
    assert len(proofs) == 200
    violations = 0
    exercised = 0
    for proof in proofs:
        h = proof.height()
        if proof.calculus == "glseq":
            out = weaken(proof, proof.conclusion.with_ante(Box(Q)).with_cons(Q))
        else:
            out = weaken(proof, proof.conclusion.with_ante(
                ("x", Box(Q))).with_cons(("x", Q)))
        exercised += 1
        if out.height() > h or not _check_of(out)(out).accepted:
            violations += 1
        root = proof
        if root.rule in ("negL", "negR", "orL", "orR", "boxL", "4L") and root.premises:
            for i in range(len(root.premises)):
                inv = apply_inverse(root.rule, i, proof, dict(root.meta))
                exercised += 1
                if inv.height() > h or not _check_of(inv)(inv).accepted:
                    violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 3 (hp-properties): PASS "
          f"[200 proofs, {exercised} admit/inverse applications, 0 violations]")


def test_acceptance_4_end_activation():
    total = 0
    for f in CORPUS:
        base = prove_formula(f, "csgl", CFG).proof
        out = to_end_active(base)
        assert end_active_report(out).accepted
        assert str(out.conclusion) == str(base.conclusion)
        total += 1
    print(f"\nACCEPTANCE 4 (end-activation): PASS "
          f"[{total}/{total} proofs end-active, conclusions byte-identical]")


def test_acceptance_5_normal_form():
    total = 0
    for f in CORPUS:
        base = linearize(to_end_active(prove_formula(f, "csgl", CFG).proof))
        out = normalize_lngl(base)
        assert normal_form_report(out).accepted
        assert str(out.conclusion) == str(base.conclusion)
        total += 1
    print(f"\nACCEPTANCE 5 (normal form): PASS "
          f"[{total}/{total} proofs in normal form, conclusions unchanged]")


def test_acceptance_6_soundness_audit():
    audited = 0
    for f in CORPUS:
        for name, proof in checked_stages(f):
            c = proof.conclusion
            if isinstance(c, GentzenSequent):
                assert oracle_validity(gentzen_interpretation(c)).valid, (name, c)
            elif isinstance(c, LabeledSequent):
                ok, _ = labeled_sequent_valid(c)
                assert ok, (name, c)
            else:
                assert oracle_validity(lns_interpretation(c)).valid, (name, c)
            audited += 1
    for proof in _sample_proofs(60):
        c = proof.conclusion
        if isinstance(c, GentzenSequent):
            assert oracle_validity(gentzen_interpretation(c)).valid
        else:
            ok, _ = labeled_sequent_valid(c)
            assert ok
        audited += 1
    print(f"\nACCEPTANCE 6 (soundness audit): PASS "
          f"[{audited} accepted conclusions oracle-valid, 0 failures]")


def _lob_cyclic():
    gam = (pf("~[]p | p"),)
    seq_a = pgs("[](~[]p | p), ~[]p | p |- p")
    open_leaf = Proof("k4seq", "open", seq_a, (), {})
    n_c1 = Proof("k4seq", "box4", pgs("[](~[]p | p) |- []p, p"), (open_leaf,),
                 {"gamma": gam, "phi": P})
    n_b1 = Proof("k4seq", "negL", pgs("[](~[]p | p), ~[]p |- p"), (n_c1,),
                 {"principal": pf("~[]p")})
    n_b2 = Proof("k4seq", "id", pgs("[](~[]p | p), p |- p"), (), {"principal": P})
    n_a = Proof("k4seq", "orL", seq_a, (n_b1, n_b2), {"principal": pf("~[]p | p")})
    n_root = Proof("k4seq", "box4", pgs("[](~[]p | p) |- []p"), (n_a,),
                   {"gamma": gam, "phi": P})
    return CyclicDerivation(n_root, {(0, 0, 0, 0): (0,)})


def test_acceptance_7_negative_suite():
    hits = []

    # freshness violation: the boxR fresh label occurs in the conclusion
    concl = pls("x: q |- x: []p")
    bad_fresh = Proof(
        "g3gl", "boxR", concl,
        (Proof("g3gl", "id1", concl, (), {"label": "x", "principal": Q}),),
        {"label": "x", "fresh": "x", "phi": P},
    )
    rep = check_g3gl(bad_fresh, "strict")
    assert any(f.code == "FreshnessViolation" for f in rep.failures)
    hits.append("FreshnessViolation")

    base = _lob_cyclic()
    for target, detail in [
        ((0, 0, 0, 0), "self"),
        ((0, 1), "not-ancestor"),
        ((), "sequent-mismatch"),
    ]:
        bad = CyclicDerivation(base.derivation, {(0, 0, 0, 0): target})
        rep = check_glcirc(bad)
        assert any(
            f.code == "BadBacklink" and f.detail == detail for f in rep.failures
        ), detail
        hits.append(f"BadBacklink({detail})")

    # non-tree CSGL sequent
    bad_tree = Proof(
        "csgl", "id1", pls("xRy; yRx; x: p |- x: p"), (),
        {"label": "x", "principal": P},
    )
    rep = check_csgl(bad_tree)
    assert any(f.code == "NotATree" for f in rep.failures)
    hits.append("NotATree")

    # wrong boxGL partition: gamma names a box absent from the antecedent
    bad_part = Proof(
        "glseq", "boxGL", pgs("[]p |- []q"),
        (Proof("glseq", "id", pgs("p |- p"), (), {"principal": P}),),
        {"gamma": (Q,), "phi": Q},
    )
    rep = check_glseq(bad_part)
    assert any(f.code == "BadPartition" for f in rep.failures)
    hits.append("BadPartition")

    print(f"\nACCEPTANCE 7 (negative suite): PASS [{', '.join(hits)}]")


def test_acceptance_8_cyclic_fixture():
    d = _lob_cyclic()
    rep = check_glcirc(d)
    assert rep.accepted, [str(f) for f in rep.failures]

    unfolded = unfold_glcirc(d, 2)
    # every internal node is a valid K4seq application
    for addr, node in unfolded.nodes():
        if node.rule == "open":
            continue
        expected = premises_of("k4seq", node.rule, node.meta, node.conclusion)
        assert [q.conclusion for q in node.premises] == expected

    def paths(n, rules=()):
        if n.rule == "open":
            yield rules
        for q in n.premises:
            yield from paths(q, rules + (n.rule,))

    open_paths = list(paths(unfolded))
    assert open_paths
    assert all(rules.count("box4") >= 2 for rules in open_paths)
    print(f"\nACCEPTANCE 8 (cyclic fixture): PASS "
          f"[accepted incl. box4-on-cycle lint; depth-2 prefix has "
          f"{unfolded.node_count()} nodes, every open path crosses >=2 box4]")
