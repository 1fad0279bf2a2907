"""Proof workbench for Goedel-Loeb provability logic.

Formulas and sequents in four shapes (Gentzen, labeled, tree, linear nested),
proof checkers for the corresponding calculi, a brute-force Kripke validity
oracle, terminating backward proof search, and the constructive proof
transformations connecting the formalisms.
"""

from .formula import (
    Atom,
    Box,
    Formula,
    Not,
    Or,
    ParseError,
    conj,
    implies,
    parse_formula,
    print_formula,
)
from .sequents import (
    CyclicDerivation,
    GentzenSequent,
    LabeledSequent,
    LinearNestedSequent,
    NotATree,
    Proof,
    tree_root,
)
from .semantics import (
    Model,
    ModelBound,
    OracleVerdict,
    default_bound,
    eval_formula,
    eval_labeled_sequent,
    gentzen_interpretation,
    labeled_sequent_valid,
    lns_interpretation,
    oracle_validity,
    parse_model,
    print_model,
)
from .proofio import (
    parse_gentzen_sequent,
    parse_labeled_sequent,
    parse_lns,
    parse_proof,
    print_proof,
)
from .checkers import (
    CheckReport,
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
from .search import (
    FuelExhausted,
    SearchConfig,
    SearchResult,
    decide_csgl,
    decide_glseq,
    prove_formula,
)
from .transform import (
    InternalNonTermination,
    NotApplicable,
    NotEndActive,
    NotNormalForm,
    NotPermutable,
    PassReport,
    ShapeViolation,
    apply_inverse,
    csgl_to_g3gl_embed,
    g3gl_to_csgl,
    glseq_to_g3gl,
    linearize,
    lngl_to_glseq,
    normalize_lngl,
    permute_down,
    prove_general_id,
    run_pass,
    run_pipeline,
    to_end_active,
    unfold_glcirc,
    weaken,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
