"""Totality sweep: every GL theorem of the {p, q} formula enumeration through
CSGL search, the five passes, and every stage's checker.

    python3 tests/totality_sweep.py

The theorems are the formulas the oracle finds valid: 65,380 of the 259,674
formulas with at most 6 connectives.  Each must be proved by CSGL search,
each stage that `transform.run_pipeline` makes from its proof must be
accepted by the stage's checkers (the `STAGE_CHECKS` table of
tests/test_pipeline.py), and the last stage must conclude |- x: f.  The
translation cycle must close: the pipeline run again from `to-csgl` of
stage 6 must give the same GLseq and G3GL stages byte for byte, and its
stage 6 must retag to the same CSGL proof.  Each stage of the first run is
also checked with the goals `rules.derive` recorded on its nodes stripped:
the checkers must say the same of it, and every recorded goal must be what
`premises_of` derives, else the stage is reported as `goals <stage>`.
The LNGL stage must equal what the projecting linearization of
tests/linearize_reference.py makes, else it is reported as `reference
linearize`; the GLseq stage must equal what the contracting translation of
tests/lngl_to_glseq_reference.py makes, else it is reported as `reference
to-glseq`.
GLseq and CSGL search must also return, on |- f and |- x: f, what the
recursive searches of tests/search_reference.py return (skeleton, dead end,
fuel left and fresh labels), and so must the eager CSGL search of that file,
which searches every orL right premise, and the recursive one without the
relevance rule (reported as `csgl eager`).  The eager search must prove no
theorem that CSGL search does not, and its proof must have no fewer nodes
(`csgl eager`).

Proofs search does not make go through every pass too, each stage checked
by its `STAGE_CHECKS` entry: one random-strategy proof of each theorem
(`random_proofs.csgl_proof(f, i)`, i the formula's index in the
enumeration), and the search proof and a random-strategy proof of each
formula of the Löb corpus (`lob_corpus.lob_corpus()`, 400 GL theorems that
are not K4 theorems).  A Löb search proof gets every check a sweep theorem
gets.  A theorem the random prover does not prove within its tries is
counted, not failed.

Runs one process per core; prints one line per failure (formula, input,
stage, reason) and per reference mismatch (formula, calculus), then the
counts, the failures per pass for each kind of input, the nodes of the CSGL
proofs of search and of the eager search, the time and the peak RSS of this
process and of its largest worker, and exits 1 when anything fails or
mismatches.  It takes about 90 seconds on 2 cores, so pytest does not
collect it (the file name has no `test_`).
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from glproof.formula import enumerate_formulas, print_formula  # noqa: E402
from glproof.proofio import print_proof  # noqa: E402
from glproof.rules import premises_of  # noqa: E402
from glproof.search import SearchConfig, prove_formula  # noqa: E402
from glproof.semantics import oracle_validity  # noqa: E402
from glproof.sequents import GentzenSequent, LabeledSequent  # noqa: E402
from glproof.transform import PIPELINE, run_pass, run_pipeline  # noqa: E402
from linearize_reference import linearize as reference_linearize  # noqa: E402
from lngl_to_glseq_reference import lngl_to_glseq as reference_to_glseq  # noqa: E402
from lob_corpus import lob_corpus  # noqa: E402
from random_proofs import csgl_proof as random_csgl_proof  # noqa: E402
from search_reference import csgl_outcomes, eager_prove_csgl, glseq_outcomes  # noqa: E402
from test_pipeline import STAGE_CHECKS, _without_goals  # noqa: E402

CFG = SearchConfig(oracle_hint=False)
CONNECTIVES = 6
# the stages that the pipeline run from to-csgl of stage 6 must reproduce;
# its LNGL and normal stages may differ, since search did not make its input
CYCLE_STAGES = ("glseq", "g3gl")
# each stage's pass, for the failures per pass
PASS_OF = dict(PIPELINE)
KINDS = ("sweep search", "sweep random", "lob search", "lob random")


def goals_disagree(stage: str, proof) -> bool:
    """Whether the checks of `stage` say something else of `proof` without
    its recorded goals, or a recorded goal is not the schema's premise."""
    got, bare = STAGE_CHECKS[stage](proof), STAGE_CHECKS[stage](_without_goals(proof))
    if got.accepted != bare.accepted or got.failures != bare.failures:
        return True
    return any(node.goals is not None and list(node.goals) != premises_of(
        node.calculus, node.rule, node.meta, node.conclusion) for _, node in proof.nodes())


def failure(f) -> str | None:
    """Why `f` fails the pipeline or the translation cycle, or None.  A
    stage of the second run is reported as `cycle <stage>`."""
    stage = "csgl"
    try:
        r = prove_formula(f, "csgl", CFG)
        if not r.proved:
            return "csgl\tnot proved"
        proof = r.proof
        if not STAGE_CHECKS["csgl"](proof):
            return "csgl\trejected"
        if goals_disagree("csgl", proof):
            return "goals csgl\tdiffers without recorded goals"
        first = {}
        stages = run_pipeline(proof)
        for stage, _ in PIPELINE:  # named before its pass runs, for the report
            source = proof
            _, proof, _ = next(stages)
            if not STAGE_CHECKS[stage](proof):
                return f"{stage}\trejected"
            if stage == "lngl" and reference_linearize(source) != proof:
                return "reference linearize\tdiffers from the projecting linearization"
            if stage == "glseq" and reference_to_glseq(source) != proof:
                return "reference to-glseq\tdiffers from the contracting translation"
            if goals_disagree(stage, proof):
                return f"goals {stage}\tdiffers without recorded goals"
            if stage in CYCLE_STAGES:
                first[stage] = print_proof(proof)
        if str(proof.conclusion) != f"|- x: {print_formula(f)}":
            return f"{stage}\tconcludes {proof.conclusion}"
        stage = "cycle to-csgl"
        cycled, _ = run_pass("to-csgl", proof)
        stages = run_pipeline(cycled)
        for name, _ in PIPELINE:
            stage = f"cycle {name}"
            _, proof, _ = next(stages)
            if name in CYCLE_STAGES and print_proof(proof) != first[name]:
                return f"{stage}\tdiffers from the first run"
        stage = "cycle to-csgl"
        if run_pass("to-csgl", proof)[0] != cycled:
            return f"{stage}\tdiffers from the first run"
    except Exception as e:  # every failure is reported, and the sweep goes on
        return f"{stage}\t{type(e).__name__}: {e}"
    return None


def stage_failure(proof, f) -> str | None:
    """Why `proof`, a CSGL proof of |- x: f, fails a pass or a stage check
    of the pipeline, or None; the stage is the one the failing pass makes."""
    stage = "csgl"
    try:
        if not STAGE_CHECKS["csgl"](proof):
            return "csgl\trejected"
        stages = run_pipeline(proof)
        for stage, _ in PIPELINE:  # named before its pass runs, for the report
            _, proof, _ = next(stages)
            if not STAGE_CHECKS[stage](proof):
                return f"{stage}\trejected"
        if str(proof.conclusion) != f"|- x: {print_formula(f)}":
            return f"{stage}\tconcludes {proof.conclusion}"
    except Exception as e:  # every failure is reported, and the sweep goes on
        return f"{stage}\t{type(e).__name__}: {e}"
    return None


def failed_pass(reason: str) -> str:
    """The pass a failure reason names, or `other` (search, a reference, the
    cycle)."""
    return PASS_OF.get(reason.split("\t", 1)[0], "other")


def mismatches(f) -> list[str]:
    """The calculi whose search on `f` differs from the reference."""
    s = LabeledSequent((), (), (("x", f),))
    return [calculus for calculus, outcomes in (
        ("glseq", glseq_outcomes(GentzenSequent((), (f,)))),
        ("csgl", csgl_outcomes(s)),
        ("csgl eager", csgl_outcomes(s, relevant=False)))
        if outcomes[0] != outcomes[1]]


def nodes(f) -> tuple[int, int]:
    """The nodes of the CSGL proofs of search and of the eager search on
    |- x: f, 0 for one that proves nothing; -1 for the eager one when it
    proves what search does not, or in fewer nodes."""
    r, eager = prove_formula(f, "csgl", CFG), eager_prove_csgl(f, CFG)
    n = r.proof.node_count() if r.proved else 0
    m = eager.proof.node_count() if eager.proved else 0
    return n, (-1 if m and (not n or m < n) else m)


def sweep_part(args: tuple[int, int]) -> tuple[int, list[str], list[str], int, int, Counter]:
    """Every `parts`-th formula from `part` on, of the enumeration and of the
    Löb corpus: the theorem count, the failure lines, the reference mismatch
    lines, the CSGL proof nodes of search and of the eager search, and the
    inputs and failures per (kind of input, pass)."""
    part, parts = args
    theorems, lines, mismatched, total, eager_total = 0, [], [], 0, 0
    counts = Counter()

    def run(kind: str, f, reason: str | None) -> None:
        counts[kind, "inputs"] += 1
        if reason is not None:
            counts[kind, failed_pass(reason)] += 1
            lines.append(f"{print_formula(f)}\t{kind}\t{reason}")

    def random_run(kind: str, f, i: int) -> None:
        proof = random_csgl_proof(f, i)
        if proof is None:
            counts[kind, "unproved"] += 1
        else:
            run(kind, f, stage_failure(proof, f))

    for i, f in enumerate(enumerate_formulas(("p", "q"), CONNECTIVES)):
        if i % parts != part or not oracle_validity(f).valid:
            continue
        theorems += 1
        run("sweep search", f, failure(f))
        random_run("sweep random", f, i)
        bad = mismatches(f)
        n, m = nodes(f)
        if m < 0:
            bad.append("csgl eager")
        total, eager_total = total + n, eager_total + max(m, 0)
        mismatched += [f"{print_formula(f)}\treference mismatch in {c}" for c in bad]
    for i, f in enumerate(lob_corpus()):
        if i % parts == part:
            run("lob search", f, failure(f))
            random_run("lob random", f, i)
    return theorems, lines, mismatched, total, eager_total, counts


def main() -> int:
    start = time.monotonic()
    parts = max(1, multiprocessing.cpu_count())
    with multiprocessing.get_context("spawn").Pool(parts) as pool:
        results = pool.map(sweep_part, [(k, parts) for k in range(parts)])
    theorems = sum(r[0] for r in results)
    lines = sorted(line for r in results for line in r[1])
    mismatched = sorted(line for r in results for line in r[2])
    for line in lines + mismatched:
        print(line)
    counts = sum((r[5] for r in results), Counter())
    passes = [name for _, name in PIPELINE] + ["other"]
    for kind in KINDS:
        per_pass = ", ".join(f"{name} {counts[kind, name]}" for name in passes)
        unproved = f" ({counts[kind, 'unproved']} theorems without one)" if "random" in kind else ""
        print(f"{kind}: {counts[kind, 'inputs']:,} proofs{unproved}, failures per pass: {per_pass}")
    # ru_maxrss is in KiB; the pool's workers have all been waited for here
    own, worker = (resource.getrusage(who).ru_maxrss / 1024
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"theorems {theorems}, failures {len(lines)}, "
          f"reference mismatches {len(mismatched)}, "
          f"CSGL proof nodes {sum(r[3] for r in results):,} "
          f"(eager search {sum(r[4] for r in results):,}), "
          f"{time.monotonic() - start:.1f} s on {parts} processes, "
          f"peak RSS {own:.1f} MB here and {worker:.1f} MB in the largest worker")
    return 1 if lines or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
