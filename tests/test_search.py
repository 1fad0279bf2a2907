import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from glproof.cli import run
from glproof.formula import (
    Box,
    enumerate_formulas,
    parse_formula as pf,
    print_formula,
    random_formula,
)
from glproof.proofio import parse_gentzen_sequent as pgs, parse_labeled_sequent as pls
from glproof.checkers import check_csgl, check_glseq
from glproof.search import (
    FuelExhausted,
    SearchConfig,
    decide_csgl,
    decide_glseq,
    prove_formula,
)
from glproof.semantics import oracle_validity
from glproof.sequents import NotATree, tree_root

CFG = SearchConfig(oracle_hint=False)
DATA = Path(__file__).parent / "data"
DECIDE_GOLDEN = DATA / "decide_golden.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def decide_inputs():
    """The 10 acceptance-corpus theorems, then 200 seeded random formulas."""
    inputs = list(json.loads((DATA / "pipeline_golden.json").read_text()))
    rng = random.Random(13)
    for _ in range(200):
        inputs.append(print_formula(random_formula(rng, ("p", "q", "r"), rng.randint(4, 12))))
    return list(dict.fromkeys(inputs))


def decide_digests(formula):
    """`{calculus: "<exit code> <sha256 of stdout>"}` for `glproof decide`."""
    got = {}
    for calculus in ("glseq", "csgl"):
        out = io.StringIO()
        code = run(["decide", "--calculus", calculus, formula], stdout=out, stderr=io.StringIO())
        got[calculus] = f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"
    return got


def test_decide_golden_output():
    # stdout and exit code of `decide` in both calculi: proofs, saturated
    # sequents and countermodel hints
    golden = json.loads(DECIDE_GOLDEN.read_text())
    assert list(golden) == decide_inputs()
    drifted = [f for f, digests in golden.items() if decide_digests(f) != digests]
    assert not drifted, f"decide output changed for {drifted}"


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_decide_golden_any_hash_seed(hashseed):
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from test_search import decide_digests\n"
        "for f in json.load(open(sys.argv[1])):\n"
        "    print(json.dumps(decide_digests(f)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", script, str(DECIDE_GOLDEN),
                          str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True)
    golden = json.loads(DECIDE_GOLDEN.read_text())
    assert [json.loads(line) for line in res.stdout.splitlines()] == list(golden.values())


def test_glseq_lob_proved():
    r = prove_formula(pf("[]([]p -> p) -> []p"), "glseq", CFG)
    assert r.proved and check_glseq(r.proof).accepted


def test_glseq_id_direct():
    r = decide_glseq(pgs("p |- p"), CFG)
    assert r.proved and r.proof.rule == "id"


def test_glseq_t_axiom_not_proved_with_hint():
    r = prove_formula(pf("[]p -> p"), "glseq", SearchConfig())
    assert not r.proved
    assert r.saturated == pgs("[]p |- p")
    assert r.hint is not None and not r.hint.valid


def test_csgl_lob_proved():
    r = prove_formula(pf("[]([]p -> p) -> []p"), "csgl", CFG)
    assert r.proved and check_csgl(r.proof).accepted
    assert str(r.proof.conclusion) == "|- x: ~[](~[]p | p) | []p"


def test_csgl_id1_direct():
    r = decide_csgl(pls("x: p |- x: p"), CFG)
    assert r.proved and r.proof.rule == "id1"


def test_csgl_box_excluded_middle():
    assert prove_formula(pf("[]p | ~[]p"), "csgl", CFG).proved
    assert not prove_formula(pf("[]p"), "csgl", CFG).proved


def test_csgl_requires_tree_sequent():
    with pytest.raises(NotATree):
        decide_csgl(pls("xRy; yRx; |- x: p"), CFG)


def test_multiset_inputs_replay():
    # duplicate formulas in the goal ride through to absorbing rules
    r = decide_glseq(pgs("p, p, q | q |- p"), CFG)
    assert r.proved and check_glseq(r.proof).accepted
    r2 = decide_csgl(pls("x: p, x: p |- x: p, x: q"), CFG)
    assert r2.proved and check_csgl(r2.proof).accepted
    assert r2.proof.conclusion == pls("x: p, x: p |- x: p, x: q")


def test_determinism():
    f = pf("[](p -> q) -> ([]p -> []q)")
    a = prove_formula(f, "csgl", CFG).proof
    b = prove_formula(f, "csgl", CFG).proof
    assert a == b
    c = prove_formula(f, "glseq", CFG).proof
    d = prove_formula(f, "glseq", CFG).proof
    assert c == d


def test_fuel_exhausted_distinct():
    with pytest.raises(FuelExhausted):
        prove_formula(pf("[]([]p -> p) -> []p"), "csgl", SearchConfig(fuel=2, oracle_hint=False))


def test_boxgl_grows_the_antecedent_boxes():
    # why GLseq search needs no loop check: at every boxGL node the diagonal
    # formula []phi is new to the antecedent, so the boxed antecedent
    # formulas grow strictly from conclusion to premise
    nodes = 0
    for f in enumerate_formulas(("p", "q"), 5):
        r = prove_formula(f, "glseq", CFG)
        if not r.proved:
            continue
        for _, node in r.proof.nodes():
            if node.rule != "boxGL":
                continue
            nodes += 1
            below = {g for g in node.conclusion.ante if type(g) is Box}
            above = {g for g in node.premises[0].conclusion.ante if type(g) is Box}
            assert Box(node.meta["phi"]) not in below, print_formula(f)
            assert below < above, print_formula(f)
    assert nodes == 984


def test_csgl_fresh_labels_avoid_input_labels():
    # y0 is taken by the input, so the label boxR creates is y1
    r = decide_csgl(pls("xRy0; |- y0: []p"), CFG)
    assert not r.proved
    tree_root(r.saturated)
    assert r.saturated == pls("xRy0; y0Ry1; y1: []p |- y1: p")


def test_oracle_agreement_small():
    for f in enumerate_formulas(("p", "q"), 3):
        v = oracle_validity(f).valid
        a = prove_formula(f, "glseq", CFG).proved
        b = prove_formula(f, "csgl", CFG).proved
        assert a == b == v, f


def test_proofs_check_on_sample():
    count = 0
    for f in enumerate_formulas(("p", "q"), 4):
        r = prove_formula(f, "csgl", CFG)
        if r.proved:
            assert check_csgl(r.proof).accepted, f
            count += 1
            if count >= 120:
                break


def test_four_axiom_both():
    f = pf("[]p -> [][]p")
    assert prove_formula(f, "glseq", CFG).proved
    assert prove_formula(f, "csgl", CFG).proved
