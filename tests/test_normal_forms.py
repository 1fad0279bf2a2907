"""The two normal-form passes, pinned against recorded output.

tests/data/normal_golden.json holds, for the 278-permutation theorem and the
first 150 glseq-proved theorems of random_formula(random.Random(1),
("p", "q", "r"), 6..14), the sha256 of the printed output of `to_end_active`
and of `normalize_lngl`, the permutation counts that `run_pass` reports
for those two passes, and the sha256 of the
`normal_form_report` failure lines of the linearized proof.  It was recorded
on the proofs of the eager CSGL search, which searched every orL right
premise, and is checked on them (`search_reference.eager_prove_csgl`);
tests/data/normal_relevance_golden.json holds the same on today's search
proofs.
"""

import hashlib
import json
import random
from pathlib import Path

from glproof.checkers import block_violations, normal_form_report
from glproof.formula import parse_formula, print_formula, random_formula
from glproof.proofio import print_proof
from glproof.search import SearchConfig, prove_formula
from glproof.transform import linearize, normalize_lngl, run_pass, to_end_active
from search_reference import eager_prove_csgl

CFG = SearchConfig(oracle_hint=False)
GOLDEN = Path(__file__).parent / "data" / "normal_golden.json"
RELEVANCE_GOLDEN = Path(__file__).parent / "data" / "normal_relevance_golden.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_inputs():
    yield parse_formula("[]([](q | q | q) | [](r | [][][](~p | p)))")
    rng = random.Random(1)
    n = 0
    while n < 150:
        f = random_formula(rng, ("p", "q", "r"), rng.randint(6, 14))
        if prove_formula(f, "glseq", CFG).proved:
            n += 1
            yield f


def normal_form_digests(prove) -> dict:
    got = {}
    for f in _golden_inputs():
        ea, ea_report = run_pass("end-active", prove(f, CFG).proof)
        lp = linearize(ea)
        nf, nf_report = run_pass("normalize", lp)
        got[print_formula(f)] = {
            "end_active": _sha(print_proof(ea)),
            "end_active_permutations": ea_report.permutations,
            "normal": _sha(print_proof(nf)),
            "normal_permutations": nf_report.permutations,
            "linearized_report": _sha("".join(f"{x}\n" for x in normal_form_report(lp).failures)),
        }
    return got


def _assert_golden(got: dict, golden: dict) -> None:
    assert list(got) == list(golden)
    drifted = [f for f in golden if got[f] != golden[f]]
    assert not drifted, f"normal-form pass output changed for {drifted}"


def test_normal_form_passes_golden():
    _assert_golden(normal_form_digests(eager_prove_csgl), json.loads(GOLDEN.read_text()))


def test_normal_form_passes_relevance_golden():
    _assert_golden(normal_form_digests(lambda f, cfg: prove_formula(f, "csgl", cfg)),
                   json.loads(RELEVANCE_GOLDEN.read_text()))


def test_normal_form_report_lists_each_block_violation_in_pre_order():
    # the eager search's proof: CSGL search skips the orL right premise
    # that holds the second violation of each pair
    f = parse_formula("[]~(r | r) | ~[]~[]r")
    lp = linearize(to_end_active(eager_prove_csgl(f, CFG).proof))
    # the boxRs in pre-order; the report lists their blocks' violations in turn
    boxrs = [(a, n) for a, n in lp.nodes() if n.rule == "boxR"]
    per_block = [block_violations(n, a) for a, n in boxrs]
    assert sum(1 for v in per_block if v) >= 2
    report = normal_form_report(lp)
    assert report.failures == [x for v in per_block for x in v]
    assert [str(x) for x in report.failures] == [
        "BlockViolation\t0/0/0/0/0\t4L above the 4L block of this modal block",
        "BlockViolation\t0/0/0/0/1\t4L above the 4L block of this modal block",
        "BlockViolation\t0/0/0/0/0/0/0/0/0/0/0/0/0/0\tboxL above the boxL block of this modal block",
        "BlockViolation\t0/0/0/0/1/0/0/0/0/0/0/0/0/0\tboxL above the boxL block of this modal block",
    ]
    out = normalize_lngl(lp)
    assert normal_form_report(out).accepted
    assert all(not block_violations(n, a) for a, n in out.nodes() if n.rule == "boxR")
