"""Pipeline totality and output stability.

Every theorem search proves must pass all six stages with every stage's
checker accepting; every proof, and every premise the checkers re-derive,
must have canonical (sorted) sequent sides; and neither the pipeline's stdout
nor any of its six `--emit-trace` stage files may drift on the acceptance
corpus (golden sha256 digests in tests/data/pipeline_golden.json and
tests/data/stage_golden.json), nor the five passes' printed output on 300
seeded theorems (tests/data/stage_digest_golden.json).
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from glproof import checkers
from glproof.checkers import (
    check_csgl,
    check_g3gl,
    check_glseq,
    check_lngl,
    end_active_report,
    normal_form_report,
)
from glproof.cli import run
from glproof.formula import parse_formula, print_formula, random_formula
from glproof.proofio import print_proof
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import LabeledSequent, LinearNestedSequent, formula_key, labeled_key
from glproof.transform import run_pass

CFG = SearchConfig(oracle_hint=False)
GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
STAGE_GOLDEN = Path(__file__).parent / "data" / "stage_golden.json"
STAGE_DIGEST_GOLDEN = Path(__file__).parent / "data" / "stage_digest_golden.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _pipeline_digest(formula: str) -> str:
    out = io.StringIO()
    assert run(["pipeline", formula], stdout=out, stderr=io.StringIO()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_pipeline_golden_output():
    golden = json.loads(GOLDEN.read_text())
    drifted = [f for f, digest in golden.items() if _pipeline_digest(f) != digest]
    assert not drifted, f"pipeline stdout changed for {drifted}"


def test_stage_files_golden(tmp_path):
    golden = json.loads(STAGE_GOLDEN.read_text())
    assert list(golden) == list(json.loads(GOLDEN.read_text()))
    for i, (f, digests) in enumerate(golden.items()):
        out_dir = tmp_path / str(i)
        assert run(["pipeline", "--emit-trace", str(out_dir), f],
                   stdout=io.StringIO(), stderr=io.StringIO()) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.iterdir())}
        assert got == digests, f"stage files changed for {f}"


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_pipeline_golden_output_any_hash_seed(hashseed):
    script = (
        "import hashlib, io, json, sys\n"
        "from glproof.cli import run\n"
        "for f in json.load(open(sys.argv[1])):\n"
        "    out = io.StringIO()\n"
        "    run(['pipeline', f], stdout=out, stderr=io.StringIO())\n"
        "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", script, str(GOLDEN)], env=env,
                         capture_output=True, text=True, check=True)
    golden = json.loads(GOLDEN.read_text())
    assert res.stdout.split() == list(golden.values())


@pytest.mark.parametrize("formula", [
    "[](~[](q | q) | [][]q)",
    "[]([]([]q | [][](q | (r | p | ~r))) | ~[][](~(r | q) | q))",
])
def test_pipeline_regressions(formula):
    # inversion used to recurse into a boxGL premise that does not depend on
    # the inverted formula; the second case leaked a RuleError traceback
    out = io.StringIO()
    assert run(["pipeline", formula], stdout=out, stderr=io.StringIO()) == 0
    assert out.getvalue().splitlines()[5].startswith("stage 6 g3gl:")


STAGES = (
    ("end-active", lambda p: check_csgl(p).accepted and end_active_report(p).accepted),
    ("linearize", lambda p: check_lngl(p).accepted),
    ("normalize", lambda p: check_lngl(p).accepted and normal_form_report(p).accepted),
    ("to-glseq", lambda p: check_glseq(p).accepted),
    ("to-g3gl", lambda p: check_g3gl(p, "extended").accepted),
)


def _canonical(s) -> bool:
    """Both sides of `s` (of each component, for nested sequents) are in
    sorted order, the order rules insert into without sorting again."""
    if isinstance(s, LinearNestedSequent):
        return all(_canonical(c) for c in s.components)
    key = labeled_key if isinstance(s, LabeledSequent) else formula_key
    return all(side == tuple(sorted(side, key=key)) for side in (s.ante, s.cons))


def _assert_canonical(proof, f):
    bad = [addr for addr, node in proof.nodes() if not _canonical(node.conclusion)]
    assert not bad, (proof.calculus, print_formula(f), bad[:3])


def test_pipeline_totality_seeded_theorems(monkeypatch):
    derived, original = [], checkers.premises_of

    def recording(*args):
        prems = original(*args)
        derived.extend(prems)
        return prems

    monkeypatch.setattr(checkers, "premises_of", recording)
    rng = random.Random(7)
    theorems = []
    while len(theorems) < 300:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 14))
        r = prove_formula(f, "glseq", CFG)
        if r.proved:
            _assert_canonical(r.proof, f)
            theorems.append(f)
    for f in theorems:
        proof = prove_formula(f, "csgl", CFG).proof
        _assert_canonical(proof, f)
        assert check_csgl(proof).accepted, print_formula(f)
        for name, accepts in STAGES:
            proof, _ = run_pass(name, proof)
            _assert_canonical(proof, f)
            assert accepts(proof), (name, print_formula(f))
        assert str(proof.conclusion) == f"|- x: {print_formula(f)}"
    assert derived and all(_canonical(s) for s in derived)


def stage_digests(n=300):
    """`{formula: five sha256 prefixes}` for n seeded CSGL-proved theorems:
    the printed proof after each pass, in pipeline order."""
    rng = random.Random(29)
    got = {}
    while len(got) < n:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(4, 14))
        r = prove_formula(f, "csgl", CFG)
        if not r.proved or print_formula(f) in got:
            continue
        proof, digests = r.proof, []
        for name, _ in STAGES:
            proof, _ = run_pass(name, proof)
            digests.append(hashlib.sha256(print_proof(proof).encode()).hexdigest()[:16])
        got[print_formula(f)] = " ".join(digests)
    return got


def test_stage_digest_golden():
    # every pass's printed output on seeded theorems beyond the corpus; the
    # five digests name the first pass whose output drifted
    golden = json.loads(STAGE_DIGEST_GOLDEN.read_text())
    got = stage_digests()
    assert list(got) == list(golden)
    drifted = [f for f, d in golden.items() if got[f] != d]
    assert not drifted, f"stage output changed for {drifted}"


@pytest.mark.parametrize("prefix", ["~" * 900, "[]" * 40], ids=["neg900", "box40"])
def test_pipeline_deep_theorems(prefix):
    # proofs about 900 and 1,700 levels high go through the CLI pipeline,
    # and every stage passes its checker
    text = prefix + "(p | ~p)"
    assert run(["pipeline", text], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    f = parse_formula(text)
    proof = prove_formula(f, "csgl", CFG).proof
    assert check_csgl(proof).accepted
    for name, accepts in STAGES:
        proof, _ = run_pass(name, proof)
        assert accepts(proof), name
    assert str(proof.conclusion) == f"|- x: {print_formula(f)}"
