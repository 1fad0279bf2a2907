"""The Löb corpus of tests/lob_corpus.py, and a slice of it through the
pipeline: GL theorems whose proofs read the diagonal box of boxR."""

from lob_corpus import k4seq_provable, lob_corpus
from random_proofs import csgl_proof as random_csgl_proof
from test_pipeline import CFG, STAGE_CHECKS
from glproof.formula import parse_formula as pf, print_formula
from glproof.search import prove_formula
from glproof.transform import run_pipeline

SLICE = 200


def test_k4seq_search_tells_k4_from_gl():
    for text in ("[]p -> [][]p", "[](p -> q) -> ([]p -> []q)", "[]([]p -> p) -> []([]p -> p)",
                 "[]~p | ~[]~p | p"):
        assert k4seq_provable(pf(text)), text
    for text in ("[]([]p -> p) -> []p", "[]([]p -> p) -> [][]p", "[]p -> p", "~[]p | p | []q"):
        assert not k4seq_provable(pf(text)), text


def test_lob_corpus_is_fixed_by_seed_and_count():
    corpus = lob_corpus()
    assert len(corpus) == len(set(corpus)) == 400
    assert corpus[:SLICE] == lob_corpus(count=SLICE)
    assert print_formula(corpus[0]) == "~[](~[](q | r) | (q | r)) | [](q | r)"
    assert lob_corpus(seed=4, count=5) != corpus[:5]
    assert not any(k4seq_provable(f) for f in corpus)


def test_lob_corpus_slice_goes_through_every_stage():
    # search proofs and random-strategy proofs of the corpus's first
    # theorems: all five passes, every stage checked, no failure
    for i, f in enumerate(lob_corpus(count=SLICE)):
        for proof in (prove_formula(f, "csgl", CFG).proof, random_csgl_proof(f, i)):
            assert STAGE_CHECKS["csgl"](proof).accepted, print_formula(f)
            for stage, proof, _ in run_pipeline(proof):
                assert STAGE_CHECKS[stage](proof).accepted, (stage, print_formula(f))
            assert str(proof.conclusion) == f"|- x: {print_formula(f)}"
