"""Pipeline totality and output stability.

Every theorem search proves must pass all six stages with every stage's
checker accepting; every proof, and every premise the checkers re-derive,
must have canonical (sorted) sequent sides; and neither the pipeline's stdout
nor any of its six `--emit-trace` stage files may drift on the acceptance
corpus (golden sha256 digests in tests/data/pipeline_golden.json and
tests/data/stage_golden.json), nor the five passes' printed output on 300
seeded theorems (tests/data/stage_digest_golden.json).

Those three files were recorded when to-g3gl built each boxGL template at a
label of its own and renamed it with an (x/y) node; they are checked with
that translation, kept in g3gl_reference.py, in place of the pass.  The
digests in tests/data/g3gl_golden.json were recorded when to-g3gl built the
template at the current label between two `w` nodes, and are checked with
that translation, kept beside the first.  The digests of today's to-g3gl
output, which has no `w` node, are in tests/data/g3gl_wfree_golden.json.
The three translations are compared on the 300 theorems up to labels.
The 300 theorems' digests in those files were recorded on the proofs of the
eager CSGL search, which searched every orL right premise; they are checked
on its proofs (`search_reference.eager_prove_csgl`).  The five digests of
today's search proofs, to-g3gl's last, are in
tests/data/stage_digest_relevance_golden.json.

The pipeline command checks every stage before it prints; the references
write `sub` and `w` nodes, rules glproof no longer has, so the tests that
run one in the pipeline skip the check of stage 6 and compare its bytes.

Running the pipeline again from to-csgl of stage 6 gives the same GLseq
and G3GL stages: the translation cycle is a fixpoint.
"""

import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import g3gl_reference
import linearize_reference
import lngl_to_glseq_reference
from glproof import checkers, cli, rules, transform
from glproof.checkers import (
    check_csgl,
    check_g3gl,
    check_glseq,
    check_lngl,
    check_proof,
    CheckReport,
    end_active_report,
    normal_form_report,
)
from glproof.cli import run
from glproof.formula import parse_formula, print_formula, random_formula
from glproof.proofio import print_proof
from glproof.rules import derive, premises_of
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import (LabeledSequent, LinearNestedSequent, Proof, formula_key,
                              labeled_key, rebuild)
from glproof.transform import run_pass, run_pipeline
from rederive_reference import relabel_proof
from search_reference import eager_prove_csgl
from test_transform import GAMMA_TRIMMING

CFG = SearchConfig(oracle_hint=False)
GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
STAGE_GOLDEN = Path(__file__).parent / "data" / "stage_golden.json"
STAGE_DIGEST_GOLDEN = Path(__file__).parent / "data" / "stage_digest_golden.json"
G3GL_GOLDEN = Path(__file__).parent / "data" / "g3gl_golden.json"
WFREE_GOLDEN = Path(__file__).parent / "data" / "g3gl_wfree_golden.json"
STAGE_RELEVANCE_GOLDEN = Path(__file__).parent / "data" / "stage_digest_relevance_golden.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")
TESTS = str(Path(__file__).resolve().parent)


def _reference(monkeypatch, pass_entry):
    """Run `pass_entry` as to-g3gl, with its stage unchecked."""
    monkeypatch.setitem(transform.PASSES, "to-g3gl", pass_entry)
    check = cli.output_report
    monkeypatch.setattr(cli, "output_report", lambda name, p: (
        CheckReport(True) if name == "to-g3gl" else check(name, p)))


@pytest.fixture
def reference_to_g3gl(monkeypatch):
    """The to-g3gl pass as it was when the first three golden files were
    recorded."""
    _reference(monkeypatch, g3gl_reference.SUB_PASS)


@pytest.fixture
def w_reference_to_g3gl(monkeypatch):
    """The to-g3gl pass as it was when G3GL_GOLDEN was recorded."""
    _reference(monkeypatch, g3gl_reference.W_PASS)


def _g3gl_golden(part: str) -> dict:
    return json.loads(G3GL_GOLDEN.read_text())[part]


def _wfree_golden(part: str) -> dict:
    return json.loads(WFREE_GOLDEN.read_text())[part]


def _pipeline_digest(formula: str) -> str:
    out = io.StringIO()
    assert run(["pipeline", formula], stdout=out, stderr=io.StringIO()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_pipeline_golden_output(reference_to_g3gl):
    golden = json.loads(GOLDEN.read_text())
    drifted = [f for f, digest in golden.items() if _pipeline_digest(f) != digest]
    assert not drifted, f"pipeline stdout changed for {drifted}"


def test_pipeline_g3gl_golden_output(w_reference_to_g3gl):
    golden = _g3gl_golden("pipeline")
    assert list(golden) == list(json.loads(GOLDEN.read_text()))
    drifted = [f for f, digest in golden.items() if _pipeline_digest(f) != digest]
    assert not drifted, f"pipeline stdout changed for {drifted}"


def test_pipeline_wfree_golden_output():
    golden = _wfree_golden("pipeline")
    assert list(golden) == list(json.loads(GOLDEN.read_text()))
    drifted = [f for f, digest in golden.items() if _pipeline_digest(f) != digest]
    assert not drifted, f"pipeline stdout changed for {drifted}"


def _stage_files(tmp_path, f: str) -> dict:
    """`{file name: sha256}` of the six `--emit-trace` stage files of f."""
    assert run(["pipeline", "--emit-trace", str(tmp_path), f],
               stdout=io.StringIO(), stderr=io.StringIO()) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())}


def test_stage_files_golden(tmp_path, reference_to_g3gl):
    golden = json.loads(STAGE_GOLDEN.read_text())
    assert list(golden) == list(json.loads(GOLDEN.read_text()))
    for i, (f, digests) in enumerate(golden.items()):
        assert _stage_files(tmp_path / str(i), f) == digests, f"stage files changed for {f}"


def _assert_stage_six(tmp_path, g3gl: dict) -> None:
    # the first five stage files are the ones recorded in STAGE_GOLDEN
    golden = json.loads(STAGE_GOLDEN.read_text())
    assert list(g3gl) == list(golden)
    for i, (f, digests) in enumerate(golden.items()):
        want = dict(digests, **{"06-g3gl.glp": g3gl[f]})
        assert _stage_files(tmp_path / str(i), f) == want, f"stage files changed for {f}"


def test_stage_files_g3gl_golden(tmp_path, w_reference_to_g3gl):
    _assert_stage_six(tmp_path, _g3gl_golden("stage_file"))


def test_stage_files_wfree_golden(tmp_path):
    _assert_stage_six(tmp_path, _wfree_golden("stage_file"))


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_pipeline_golden_output_any_hash_seed(hashseed):
    # today's stdout, then the stdout with each reference translation, its
    # stage unchecked
    script = (
        "import hashlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import g3gl_reference\n"
        "from glproof import cli, transform\n"
        "from glproof.checkers import CheckReport\n"
        "def digests():\n"
        "    for f in json.load(open(sys.argv[1])):\n"
        "        out = io.StringIO()\n"
        "        cli.run(['pipeline', f], stdout=out, stderr=io.StringIO())\n"
        "        print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        "digests()\n"
        "check = cli.output_report\n"
        "cli.output_report = lambda name, p: (\n"
        "    CheckReport(True) if name == 'to-g3gl' else check(name, p))\n"
        "transform.PASSES['to-g3gl'] = g3gl_reference.W_PASS\n"
        "digests()\n"
        "transform.PASSES['to-g3gl'] = g3gl_reference.SUB_PASS\n"
        "digests()\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", script, str(GOLDEN), TESTS], env=env,
                         capture_output=True, text=True, check=True)
    golden = json.loads(GOLDEN.read_text())
    assert res.stdout.split() == (list(_wfree_golden("pipeline").values())
                                  + list(_g3gl_golden("pipeline").values())
                                  + list(golden.values()))


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


# each stage's checkers, as one report: the first that rejects, or the last
STAGE_CHECKS = {
    "csgl": check_csgl,
    "end-active": lambda p: check_csgl(p) and end_active_report(p),
    "lngl": check_lngl,
    "normal": lambda p: check_lngl(p) and normal_form_report(p),
    "glseq": check_glseq,
    # stage 6 is also an end-active CSGL proof
    "g3gl": lambda p: (check_g3gl(p, "extended")
                       and STAGE_CHECKS["end-active"](p.retag("csgl"))),
}


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
        for stage, proof, _ in run_pipeline(proof):
            _assert_canonical(proof, f)
            assert STAGE_CHECKS[stage](proof).accepted, (stage, print_formula(f))
        assert str(proof.conclusion) == f"|- x: {print_formula(f)}"
    assert derived and all(_canonical(s) for s in derived)


def _digest(proof) -> str:
    return hashlib.sha256(print_proof(proof).encode()).hexdigest()[:16]


def _prove_csgl(f, cfg):
    return prove_formula(f, "csgl", cfg)


@functools.lru_cache(maxsize=None)
def _seeded_glseq_proofs(n=300, prove=_prove_csgl) -> dict:
    """`{formula: (four sha256 prefixes, glseq stage proof)}` for n seeded
    CSGL-proved theorems: the printed proof of each stage from end-active to
    glseq, in pipeline order, and the last of those proofs.  `prove` is the
    CSGL search."""
    rng = random.Random(29)
    got = {}
    while len(got) < n:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(4, 14))
        r = prove(f, CFG)
        if not r.proved or print_formula(f) in got:
            continue
        digests = []
        for stage, proof, _ in run_pipeline(r.proof):
            digests.append(_digest(proof))
            if stage == "glseq":
                break
        got[print_formula(f)] = (digests, proof)
    return got


def test_stage_digest_golden():
    # every pass's printed output on seeded theorems beyond the corpus; the
    # five digests name the first pass whose output drifted.  This file and
    # the next two were recorded on the proofs of the eager CSGL search, so
    # they are checked with it
    golden = json.loads(STAGE_DIGEST_GOLDEN.read_text())
    got = {f: " ".join(digests + [_digest(g3gl_reference.glseq_to_g3gl(p))])
           for f, (digests, p) in _seeded_glseq_proofs(prove=eager_prove_csgl).items()}
    assert list(got) == list(golden)
    drifted = [f for f, d in golden.items() if got[f] != d]
    assert not drifted, f"stage output changed for {drifted}"


def _assert_digests(golden: dict, to_g3gl) -> None:
    got = {f: _digest(to_g3gl(p))
           for f, (_, p) in _seeded_glseq_proofs(prove=eager_prove_csgl).items()}
    assert list(got) == list(golden)
    drifted = [f for f, d in golden.items() if got[f] != d]
    assert not drifted, f"to-g3gl output changed for {drifted}"


def test_stage_digest_g3gl_golden():
    _assert_digests(_g3gl_golden("stage_digest"), g3gl_reference.glseq_to_g3gl_w)


def test_stage_digest_wfree_golden():
    _assert_digests(_wfree_golden("stage_digest"), lambda p: run_pass("to-g3gl", p)[0])


def stage_relevance_digests() -> dict:
    """The five digests of each seeded theorem, today's to-g3gl last, on the
    proofs of CSGL search."""
    return {f: " ".join(digests + [_digest(run_pass("to-g3gl", p)[0])])
            for f, (digests, p) in _seeded_glseq_proofs().items()}


def test_stage_digest_relevance_golden():
    # the same theorems on the proofs of CSGL search, which skips the orL
    # right premises that their left premises made unnecessary
    golden = json.loads(STAGE_RELEVANCE_GOLDEN.read_text())
    got = stage_relevance_digests()
    assert list(got) == list(golden)
    drifted = [f for f, d in golden.items() if got[f] != d]
    assert not drifted, f"stage output changed for {drifted}"


def _relabel(p: Proof, mapping: dict) -> Proof:
    """`relabel_proof`, with the sequent that each `w` node adds renamed too."""
    def make(node: Proof, prems: tuple) -> Proof:
        meta = dict(node.meta)
        if "added" in meta:
            meta["added"] = meta["added"].rename(mapping)
        return Proof(node.calculus, node.rule, node.conclusion, prems, meta)
    return rebuild(relabel_proof(p, mapping), make)


def _boxr_labels_by_index(p: Proof) -> Proof:
    """p with each boxR's fresh label renamed b<i>, i its boxR's pre-order
    index."""
    fresh = [n.meta["fresh"] for _, n in p.nodes() if n.rule == "boxR"]
    return _relabel(p, {y: f"b{i}" for i, y in enumerate(fresh)})


def _without_sub(p: Proof) -> Proof:
    """p with each (x/y) node replaced by its premise, relabeled y -> x."""
    def make(node: Proof, prems: tuple) -> Proof:
        if node.rule == "sub":
            return _relabel(prems[0], {node.meta["y"]: node.meta["x"]})
        return Proof(node.calculus, node.rule, node.conclusion, prems, dict(node.meta))
    return rebuild(p, make)


def test_to_g3gl_is_the_reference_without_its_sub_nodes():
    # a template's (x/y) node only renames its label y to the current label,
    # so building the template at the current label drops it and changes
    # nothing else but the names of the labels
    for f, (_, p) in _seeded_glseq_proofs().items():
        ref = _boxr_labels_by_index(_without_sub(g3gl_reference.glseq_to_g3gl(p)))
        out = _boxr_labels_by_index(g3gl_reference.glseq_to_g3gl_w(p))
        assert print_proof(out) == print_proof(ref), f


def _skip_w(node: Proof) -> tuple:
    """The rule, meta and premises of the first node at or above `node` that
    is not a `w` node."""
    while node.rule == "w":
        (node,) = node.premises
    return node.rule, dict(node.meta), node.premises


def test_to_g3gl_is_the_w_reference_without_its_w_nodes():
    # a `w` node only drops context that no rule above it reads: deriving
    # the rules of the reference's output without its `w` nodes, top-down
    # from its conclusion, is today's output up to the names of the labels
    for f, (_, p) in _seeded_glseq_proofs().items():
        ref = g3gl_reference.glseq_to_g3gl_w(p)
        derived = _boxr_labels_by_index(derive("g3glext", ref, ref.conclusion, _skip_w))
        out = _boxr_labels_by_index(run_pass("to-g3gl", p)[0])
        assert print_proof(out) == print_proof(derived), f


@functools.lru_cache(maxsize=None)
def _seeded_csgl_proofs(n=200) -> tuple:
    """(formula, CSGL search proof) for n seeded CSGL-proved theorems."""
    rng = random.Random(3)
    got = []
    while len(got) < n:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 14))
        r = prove_formula(f, "csgl", CFG)
        if r.proved:
            got.append((f, r.proof))
    return tuple(got)


def test_stage_proofs_derive_top_down():
    # every rule of every stage has a top-down schema: each stage proof is
    # what `derive` builds from its own rules and its conclusion
    parts = lambda n: (n.rule, dict(n.meta), n.premises)
    for f, proof in _seeded_csgl_proofs():
        stages = [("csgl", proof)] + [(stage, p) for stage, p, _ in run_pipeline(proof)]
        for stage, p in stages:
            assert derive(p.calculus, p, p.conclusion, parts) == p, (stage, print_formula(f))


def _without_goals(p: Proof) -> Proof:
    """p with every node rebuilt, so none carries the goals `derive` records."""
    return rebuild(p, lambda n, prems: Proof(n.calculus, n.rule, n.conclusion, prems, n.meta))


def _derived_nodes(p: Proof) -> list:
    return [node for _, node in p.nodes() if node.goals is not None]


def test_recorded_goals_change_no_verdict():
    # the lean walk reads a derived node's recorded goals instead of calling
    # premises_of; each goal is what premises_of derives, its premise
    # concludes that very object, and with every goal stripped each checker
    # says the same
    derived = dict.fromkeys(("csgl", "end-active", "lngl", "normal", "glseq", "g3gl"), 0)
    for f, proof in _seeded_csgl_proofs():
        stages = [("csgl", proof)] + [(stage, p) for stage, p, _ in run_pipeline(proof)]
        stages.append(("to-csgl", run_pass("to-csgl", stages[-1][1])[0]))
        for stage, p in stages:
            nodes = _derived_nodes(p)
            if stage in derived:
                derived[stage] += len(nodes)
            if stage in ("lngl", "glseq"):
                # linearize and to-glseq derive every node they output
                assert len(nodes) == p.node_count(), (stage, print_formula(f))
            for node in nodes:
                assert list(node.goals) == premises_of(node.calculus, node.rule, node.meta,
                                                       node.conclusion), (stage, print_formula(f))
                assert len(node.goals) == len(node.premises)
                assert all(g is q.conclusion for g, q in zip(node.goals, node.premises))
            bare = _without_goals(p)
            assert not _derived_nodes(bare) and bare == p
            got, want = check_proof(p), check_proof(bare)
            assert (got.accepted, got.failures) == (want.accepted, want.failures), stage
    assert all(derived.values()), derived


def _nested_drops(k: int) -> tuple:
    """(f, f's end-active CSGL proof) for f = `[]r | [](...)` nested k times
    around `p | ~p`: linearization drops each level's boxR on `[]r`, whose
    label is on the chain."""
    text = "p | ~p"
    for _ in range(k):
        text = f"[]r | []({text})"
    f = parse_formula(text)
    return f, run_pass("end-active", prove_formula(f, "csgl", CFG).proof)[0]


def test_linearize_equals_the_projecting_reference():
    # the rule tree derived once gives the proof that projecting every node
    # and weakening at each dropped boxR gave
    inputs = [(f, run_pass("end-active", p)[0]) for f, p in _seeded_csgl_proofs()]
    for f, p in inputs + [_nested_drops(k) for k in range(2, 6)]:
        got, want = transform.linearize(p), linearize_reference.linearize(p)
        assert got == want, print_formula(f)
        assert print_proof(got) == print_proof(want), print_formula(f)


def test_linearize_derives_each_output_node_once(monkeypatch):
    # one premises_of call per output node, however deep the dropped boxRs
    # nest: no subproof is derived twice
    calls = []
    schema = rules.premises_of
    for module in (rules, transform, checkers):
        monkeypatch.setattr(module, "premises_of", lambda *args: calls.append(1) or schema(*args))
    for k in range(2, 6):
        _, p = _nested_drops(k)
        calls.clear()
        out = transform.linearize(p)
        assert len(calls) == out.node_count(), k


# the theorems whose to-glseq clips a block on the eager search's proofs:
# its end component supplies fewer boxes than its 4L or boxL copies
CLIPPING = ("[]~(p | r) | ~[]~~~[]q", "[]~~~(r | p) | ~[]~[]~q")


@functools.lru_cache(maxsize=None)
def _normal_stages() -> tuple:
    """(formula, normal-stage LNGL proof) for the seeded theorems, then for
    the clipping theorems and the gamma-trimming ones; those two take the
    eager search's proofs, since CSGL search skips the orL right premises
    where they clip or trim."""
    inputs = [(f, p) for f, p in _seeded_csgl_proofs()]
    inputs += [(parse_formula(t), eager_prove_csgl(parse_formula(t), CFG).proof)
               for t in CLIPPING + GAMMA_TRIMMING]
    for name in ("end-active", "linearize", "normalize"):
        inputs = [(f, run_pass(name, p)[0]) for f, p in inputs]
    return tuple(inputs)


def test_to_glseq_equals_the_contracting_reference():
    # the rule tree, contracted on the tree where a block clips and derived
    # once, gives the proof that contracting and weakening proofs gave
    for f, p in _normal_stages():
        got, want = transform.lngl_to_glseq(p), lngl_to_glseq_reference.lngl_to_glseq(p)
        assert got == want, print_formula(f)
        assert print_proof(got) == print_proof(want), print_formula(f)


def test_to_glseq_derives_each_output_node_once(monkeypatch):
    # where no block clips, one premises_of call per output node: no
    # subproof above a boxGL is derived twice
    inputs = _normal_stages()
    calls, contracted = [], []
    schema = rules.premises_of
    for module in (rules, transform, checkers):
        monkeypatch.setattr(module, "premises_of", lambda *args: calls.append(1) or schema(*args))
    contract_tree = transform._contract_tree
    monkeypatch.setattr(transform, "_contract_tree",
                        lambda *args: contracted.append(1) or contract_tree(*args))
    whole = modal = 0
    for f, p in inputs:
        calls.clear()
        contracted.clear()
        out = transform.lngl_to_glseq(p)
        if not contracted:
            assert len(calls) == out.node_count(), print_formula(f)
            whole += 1
            modal += any(q.rule == "boxGL" for _, q in out.nodes())
    assert whole >= 150 and modal >= 100, (whole, modal)


def test_translation_cycle_is_a_fixpoint():
    # stage 6 retagged as CSGL is an end-active CSGL proof; the pipeline run
    # from it gives the first run's GLseq and G3GL stages byte for byte, and
    # its stage 6 retags to the same CSGL proof.  Its LNGL and normal stages
    # may differ: the retagged proof is not the one search made.
    for f, proof in _seeded_csgl_proofs():
        first = {stage: p for stage, p, _ in run_pipeline(proof)}
        cycled, _ = run_pass("to-csgl", first["g3gl"])
        assert STAGE_CHECKS["end-active"](cycled), print_formula(f)
        again = {stage: p for stage, p, _ in run_pipeline(cycled)}
        for stage in ("glseq", "g3gl"):
            same = print_proof(again[stage]) == print_proof(first[stage])
            assert same, (stage, print_formula(f))
        assert run_pass("to-csgl", again["g3gl"])[0] == cycled, print_formula(f)


@pytest.mark.parametrize("prefix", ["~" * 900, "[]" * 40, "[]" * 45],
                         ids=["neg900", "box40", "box45"])
def test_pipeline_deep_theorems(prefix):
    # proofs about 900, 1,600 and 2,000 levels high go through the CLI
    # pipeline, and every stage passes its checker; CSGL search alone climbs
    # about 1,000 levels on []x45
    text = prefix + "(p | ~p)"
    assert run(["pipeline", text], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    f = parse_formula(text)
    proof = prove_formula(f, "csgl", CFG).proof
    assert check_csgl(proof).accepted
    for stage, proof, _ in run_pipeline(proof):
        assert STAGE_CHECKS[stage](proof).accepted, stage
    assert str(proof.conclusion) == f"|- x: {print_formula(f)}"
