import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from glproof.cli import run
from glproof.formula import (
    Box,
    Not,
    Or,
    enumerate_formulas,
    parse_formula as pf,
    print_formula,
    random_formula,
)
from glproof.proofio import (
    parse_gentzen_sequent as pgs,
    parse_labeled_sequent as pls,
    print_proof,
)
from glproof.checkers import check_csgl, check_glseq, end_active_report
from glproof.rules import SCHEMA_MISMATCH, UNKNOWN_RULE, WRONG_PREMISE_COUNT, RuleError, derive
from glproof.search import (
    FuelExhausted,
    SearchConfig,
    _glseq_search,
    _replay,
    decide_csgl,
    decide_glseq,
    prove_formula,
)
from glproof.semantics import oracle_validity
from glproof.sequents import GentzenSequent, LabeledSequent, NotATree, formula_key, tree_root
from glproof.transform import _RuleNode, run_pipeline
from search_reference import csgl_outcomes, eager_decide_csgl, eager_prove_csgl, glseq_outcomes
from test_pipeline import STAGE_CHECKS

CFG = SearchConfig(oracle_hint=False)
DATA = Path(__file__).parent / "data"
DECIDE_GOLDEN = DATA / "decide_golden.json"
SEQUENT_GOLDEN = DATA / "search_sequent_golden.json"
SEQUENT_RELEVANCE_GOLDEN = DATA / "search_sequent_relevance_golden.json"
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


def _side_formula(rng):
    return random_formula(rng, ("p", "q", "r"), rng.randint(0, 5))


def gentzen_inputs(n=150):
    """Seeded multi-formula Gentzen sequents, composites on both sides."""
    rng = random.Random(21)
    return [GentzenSequent([_side_formula(rng) for _ in range(rng.randint(1, 3))],
                           [_side_formula(rng) for _ in range(rng.randint(1, 3))])
            for _ in range(n)]


def tree_inputs(n=150):
    """Seeded tree sequents: 1-4 labels, the first one the root, relational
    atoms along the tree's edges, labels that fresh names must skip."""
    rng = random.Random(22)
    out = []
    for _ in range(n):
        labels = rng.sample(("x", "y", "y0", "y1", "w"), rng.randint(1, 4))
        rel = [(labels[rng.randrange(i)], labels[i]) for i in range(1, len(labels))]
        out.append(LabeledSequent(
            rel,
            [(rng.choice(labels), _side_formula(rng)) for _ in range(rng.randint(1, 3))],
            [(rng.choice(labels), _side_formula(rng)) for _ in range(rng.randint(1, 3))]))
    return out


def branching_tree_inputs(n=150):
    """Seeded tree sequents whose root has two or more children and whose
    inner labels each hold a box, so propagations run along several edges
    of one label and down more than one level."""
    rng = random.Random(26)
    out = []
    for _ in range(n):
        labels = rng.sample(("x", "y", "y0", "y1", "y2", "w", "z"), rng.randint(3, 6))
        rel = [(labels[0], labels[1]), (labels[0], labels[2])]
        rel += [(labels[rng.randrange(i)], labels[i]) for i in range(3, len(labels))]
        ante = [(a, Box(_side_formula(rng))) for a in dict.fromkeys(a for a, _ in rel)]
        ante += [(rng.choice(labels), _side_formula(rng)) for _ in range(rng.randint(0, 2))]
        cons = [(rng.choice(labels), _side_formula(rng)) for _ in range(rng.randint(1, 3))]
        out.append(LabeledSequent(rel, ante, cons))
    return out


def search_digest(r):
    """`"<proved> <sha256>"` of the printed proof or the saturated sequent."""
    text = print_proof(r.proof) if r.proved else str(r.saturated)
    return f"{int(r.proved)} {hashlib.sha256(text.encode()).hexdigest()}"


def csgl_sequent_digests(decide=decide_csgl):
    return {str(s): search_digest(decide(s, CFG)) for s in tree_inputs()}


def test_search_sequent_golden():
    # how each search first reads an arbitrary sequent: several formulas per
    # side in GLseq, several labels and relational atoms in CSGL.  The CSGL
    # digests were recorded before CSGL search skipped the orL right
    # premises that their left premises made unnecessary, so the eager
    # search of search_reference.py is checked against them
    golden = json.loads(SEQUENT_GOLDEN.read_text())
    got = {"glseq": {str(s): search_digest(decide_glseq(s, CFG)) for s in gentzen_inputs()},
           "csgl": csgl_sequent_digests(eager_decide_csgl)}
    for calculus in ("glseq", "csgl"):
        assert list(got[calculus]) == list(golden[calculus])
        drifted = [s for s, d in golden[calculus].items() if got[calculus][s] != d]
        assert not drifted, f"{calculus} search output changed for {drifted}"


def test_search_sequent_relevance_golden():
    # CSGL search's own digests of the same tree sequents; they differ from
    # the eager ones only where search skips a right premise, on theorems
    golden = json.loads(SEQUENT_RELEVANCE_GOLDEN.read_text())
    eager = json.loads(SEQUENT_GOLDEN.read_text())["csgl"]
    got = csgl_sequent_digests()
    assert list(got) == list(golden) == list(eager)
    drifted = [s for s, d in golden.items() if got[s] != d]
    assert not drifted, f"csgl search output changed for {drifted}"
    changed = [s for s in golden if golden[s] != eager[s]]
    assert changed and all(golden[s][0] == eager[s][0] == "1" for s in changed)


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


def test_replay_rejects_a_skeleton_with_the_wrong_premise_count():
    # records: the rule name, then its meta values, in one flat preorder list
    p, np = pf("p"), pf("~p")
    goal = pgs("p |- p, ~p")
    assert _replay(["negR", np, "id", p], goal, "glseq").rule == "negR"
    for recs, code in ((["negR", pf("~q"), "id", p], SCHEMA_MISMATCH),  # not in the goal
                       (["negL", np, "id", p], SCHEMA_MISMATCH),  # on the wrong side
                       (["negR"], SCHEMA_MISMATCH),  # no principal
                       (["id", np], SCHEMA_MISMATCH),  # not on both sides
                       (["boxR", np, "id", p], UNKNOWN_RULE)):  # not a glseq rule
        with pytest.raises(RuleError) as e:
            _replay(recs, goal, "glseq")
        assert e.value.code == code, recs
    with pytest.raises(RuleError) as e:  # x: []p is not in the consequent
        _replay(["boxR", 0, 1, p, "id1", 1, p], pls("x: p |- x: p, x: ~p"), "csgl",
                {0: "x", 1: "y0"})
    assert e.value.code == SCHEMA_MISMATCH
    # the wrong premise count, which records cannot express, on the other
    # node shape: a rule tree node whose premise list misses its one premise
    node = _RuleNode("negR", {"principal": pf("~p")})
    parts = lambda n: (n.rule, dict(n.meta), n.premises)
    with pytest.raises(RuleError) as e:
        derive("glseq", node, goal, parts)
    assert e.value.code == WRONG_PREMISE_COUNT
    node.premises.append(_RuleNode("id", {"principal": p}))
    assert derive("glseq", node, goal, parts).premises[0].conclusion == pgs("p, p |- p")


def test_determinism():
    f = pf("[](p -> q) -> ([]p -> []q)")
    a = prove_formula(f, "csgl", CFG).proof
    b = prove_formula(f, "csgl", CFG).proof
    assert a == b
    c = prove_formula(f, "glseq", CFG).proof
    d = prove_formula(f, "glseq", CFG).proof
    assert c == d


def test_csgl_search_runs_on_a_stack():
    # a proof about 1,000 levels high; one Python frame per level fails
    r = prove_formula(pf("[]" * 45 + "(p | ~p)"), "csgl", CFG)
    assert r.proved and check_csgl(r.proof).accepted


def test_glseq_search_runs_on_a_stack():
    # built by hand, since the parser recurses on formula depth
    f = Or(pf("p"), pf("~p"))
    for _ in range(2000):
        f = Not(f)
    r = prove_formula(f, "glseq", CFG)
    assert r.proved and check_glseq(r.proof).accepted


def test_fuel_exhausted_distinct():
    with pytest.raises(FuelExhausted):
        prove_formula(pf("[]([]p -> p) -> []p"), "csgl", SearchConfig(fuel=2, oracle_hint=False))


def test_csgl_search_of_the_fuel_blowup_keeps_little():
    # FUEL_BLOWUP: a theorem whose CSGL search spends all 100,000 nodes.  Its
    # ~100k records are runs of slots in one list, ~3.7 MB; a tuple per rule
    # instance made 8 MB.  The bound also covers the counts of reads.
    f = pf(FUEL_BLOWUP)
    tracemalloc.start()
    try:
        with pytest.raises(FuelExhausted) as e:
            prove_formula(f, "csgl", CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.nodes == 100000
    assert peak < 5_000_000


def test_glseq_search_cuts_a_failed_boxgl_premise_off_its_records():
    # the premise of [](p | ~(p | r)), tried first, fails after its orL's left
    # premise closes; that of [](~~p | ~p) proves, and only its records stay
    s = pgs("|- [](p | ~(p | r)), [](~~p | ~p)")
    assert min(s.cons, key=formula_key) == pf("[](p | ~(p | r))")
    ref, new = glseq_outcomes(s)
    assert ref == new and new[1] is not None  # the first premise's dead end
    recs = _glseq_search(set(), s.cons, [1000], [None])
    assert recs[:3] == ["boxGL", (), pf("~~p | ~p")] and "orL" not in recs
    r = decide_glseq(s, CFG)
    assert r.proved and check_glseq(r.proof).accepted


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


def test_failed_search_builds_its_saturated_sequent_on_first_read(monkeypatch):
    import glproof.search as search

    built = []
    for name in ("GentzenSequent", "_labeled_from_state"):
        make = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, make=make: built.append(a) or make(*a))
    cases = [(decide_glseq, pgs("[]p |- p"), pgs("[]p |- p")),
             (decide_csgl, pls("xRy0; |- y0: []p"), pls("xRy0; y0Ry1; y1: []p |- y1: p"))]
    for decide, goal, saturated in cases:
        built.clear()
        r = decide(goal, CFG)
        assert not r.proved and built == []
        assert r.saturated == saturated and len(built) == 1
        assert r.saturated is r.saturated and len(built) == 1


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


# The least fuel with which each search ends.  Every node expanded costs one
# unit, so these figures pin how many nodes each search expands.
# (formula, glseq fuel, csgl fuel, theorem?)
LEAST_FUEL = [
    ("~[](~[]p | p) | []p", 7, 9, True),
    ("~[](~p | q) | (~[]p | []q)", 9, 13, True),
    ("~[]p | [][]p", 4, 5, True),
    ("p | ~p", 3, 3, True),
    ("[](p | ~p)", 4, 4, True),
    ("[][](p | ~p)", 5, 5, True),
    ("[][][](p | ~p)", 6, 7, True),
    ("~[](~[][]p | []p) | [][]p", 7, 9, True),
    ("~[](~[]p | []q) | (~[][]p | [][]q)", 9, 13, True),
    ("~[][]p | [][][]p", 4, 5, True),
    ("[](r | r | [][]~q)", 11, 16, False),
    ("[]~(~[][][]~~(p | r) | ~[]q)", 23, 36, False),
]
# perfbench/workloads.py: GLseq proves it at once.  The eager CSGL search
# spent its whole default fuel on it, because almost all of its nodes lay in
# orL right premises that the left premise had made unnecessary.
KNOWN_FUEL_BLOWUP = "[]([](q | ([][](~(~p | r) | r) | [][]p)) | (~[](r | r) | ~(q | p)))"
# a theorem on which CSGL search (and GLseq search) still spends its whole
# default fuel
FUEL_BLOWUP = "[]([]r | [][]([][][][][]([](q | ~q) | ~~[]p) | p | r))"


def test_least_fuel_covers_the_corpus():
    assert [f for f, _, _, theorem in LEAST_FUEL if theorem] == decide_inputs()[:10]


@pytest.mark.parametrize("formula, glseq, csgl, theorem", LEAST_FUEL)
@pytest.mark.parametrize("calculus", ["glseq", "csgl"])
def test_least_fuel_pinned(calculus, formula, glseq, csgl, theorem):
    f = pf(formula)
    n = glseq if calculus == "glseq" else csgl
    assert prove_formula(f, calculus, SearchConfig(fuel=n, oracle_hint=False)).proved == theorem
    with pytest.raises(FuelExhausted):
        prove_formula(f, calculus, SearchConfig(fuel=n - 1, oracle_hint=False))


def test_known_fuel_blowup():
    f = pf(KNOWN_FUEL_BLOWUP)
    assert prove_formula(f, "glseq", SearchConfig(fuel=1174, oracle_hint=False)).proved
    with pytest.raises(FuelExhausted):
        prove_formula(f, "glseq", SearchConfig(fuel=1173, oracle_hint=False))
    with pytest.raises(FuelExhausted):
        eager_prove_csgl(f, CFG)
    r = prove_formula(f, "csgl", CFG)
    assert r.proved and r.proof.node_count() == 1612
    assert STAGE_CHECKS["csgl"](r.proof).accepted
    stages = list(run_pipeline(r.proof))
    assert [stage for stage, _, _ in stages] == [
        "end-active", "lngl", "normal", "glseq", "g3gl"]
    for stage, proof, _ in stages:
        assert STAGE_CHECKS[stage](proof).accepted, stage


# The dead-end invariant: a failed search records its saturated sequent at a
# leaf where no rule applies.

def _no_local_rule(sides):
    return all(type(f) is not Not and type(f) is not Or for f in sides)


def test_glseq_dead_end_is_saturated():
    failed = 0
    for s in gentzen_inputs() + [GentzenSequent((), (f,)) for f in map(pf, decide_inputs())]:
        r = decide_glseq(s, CFG)
        if r.proved:
            continue
        failed += 1
        sat = r.saturated
        assert _no_local_rule(sat.ante + sat.cons), str(s)
        assert not set(sat.ante) & set(sat.cons), str(s)
        assert not any(type(f) is Box for f in sat.cons), str(s)  # boxGL applies
    assert failed > 200


def test_csgl_dead_end_is_saturated():
    failed = 0
    for s in tree_inputs() + [pls(f"|- x: {f}") for f in decide_inputs()]:
        r = decide_csgl(s, CFG)
        if r.proved:
            continue
        failed += 1
        sat = r.saturated
        ante, cons = set(sat.ante), set(sat.cons)
        succ = {}
        for a, b in sat.rel:
            succ.setdefault(a, []).append(b)

        def holds(side, y, f):
            """(y, f) is in `side`, or was decomposed there on this branch."""
            if (y, f) in (ante if side else cons):
                return True
            if type(f) is Not:
                return holds(not side, y, f.sub)
            if type(f) is Or:
                parts = (holds(side, y, f.left), holds(side, y, f.right))
                return any(parts) if side else all(parts)
            # a boxed consequent that boxR expanded
            return not side and type(f) is Box and any(
                (z, f) in ante and holds(False, z, f.sub) for z in succ.get(y, ()))

        assert _no_local_rule(f for _, f in sat.ante + sat.cons), str(s)
        assert not ante & cons, str(s)
        for x, f in sat.ante:
            if type(f) is Box:
                for y in succ.get(x, ()):
                    assert (y, f) in ante, str(s)  # 4L adds nothing new
                    assert holds(True, y, f.sub), str(s)  # nor does boxL
        for x, f in sat.cons:
            if type(f) is Box:  # blocked
                assert any((y, f) in ante and (y, f.sub) in cons
                           for y in succ.get(x, ())), str(s)
    assert failed > 200


# The explicit-stack searches against the recursive ones they replaced
# (tests/search_reference.py): the same skeletons, dead ends, fuel left and
# CSGL fresh-label counters.

def test_searches_match_the_recursive_reference():
    rng = random.Random(24)
    formulas = list(enumerate_formulas(("p", "q"), 4))
    assert len(formulas) == 3290
    formulas += [random_formula(rng, ("p", "q", "r"), rng.randint(6, 14)) for _ in range(500)]
    gentzen = gentzen_inputs() + [GentzenSequent((), (f,)) for f in formulas]
    tree = tree_inputs() + [LabeledSequent((), (), (("x", f),)) for f in formulas]
    # where CSGL search's list of unfired 4L/boxL propagations matters: long
    # chains of labels (the reference overflows near k = 45), several edges
    # from one boxed label, and larger formulas, whose orL branches each
    # restore their own list
    tree += [pls(f"|- x: {'[]' * k}(p | ~p)") for k in (10, 20, 30, 40)]
    tree += branching_tree_inputs()
    tree += [LabeledSequent((), (), (("x", random_formula(rng, ("p", "q", "r"),
                                                        rng.randint(12, 16))),))
             for _ in range(300)]
    assert [str(s) for s in gentzen if len(set(glseq_outcomes(s))) != 1] == []
    assert [str(s) for s in tree if len(set(csgl_outcomes(s))) != 1] == []
    # the eager CSGL search, which searches every orL right premise, against
    # the reference without the relevance rule
    assert [str(s) for s in tree if len(set(csgl_outcomes(s, relevant=False))) != 1] == []


# The relevance rule: an orL whose left premise closed without reading its
# left disjunct skips its right premise, and the left premise's proof is
# derived at the orL's conclusion.

def _csgl_outcome(prove, f):
    try:
        return prove(f)
    except FuelExhausted:
        return None


def test_relevance_keeps_proofs_checked_and_verdicts():
    rng = random.Random(3)  # the theorems of test_pipeline's _seeded_csgl_proofs
    theorems = []
    while len(theorems) < 200:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 14))
        if prove_formula(f, "csgl", CFG).proved:
            theorems.append(f)
    chains = [pf("[]" * k + "(p | ~p)") for k in range(10, 41)]
    rng = random.Random(33)
    drawn = [random_formula(rng, ("p", "q", "r"), rng.randint(6, 14)) for _ in range(300)]
    smaller = 0
    for f in theorems + chains + drawn:
        new = _csgl_outcome(lambda g: prove_formula(g, "csgl", CFG), f)
        ref = _csgl_outcome(lambda g: eager_prove_csgl(g, CFG), f)
        assert new is not None or ref is None, print_formula(f)
        if ref is not None:
            assert new.proved == ref.proved, print_formula(f)
        if new is not None and new.proved:
            assert check_csgl(new.proof).accepted, print_formula(f)
            assert end_active_report(new.proof).accepted, print_formula(f)
            if ref is not None:
                assert new.proof.node_count() <= ref.proof.node_count(), print_formula(f)
                smaller += new.proof.node_count() < ref.proof.node_count()
    assert smaller >= 20
