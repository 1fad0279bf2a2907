"""The former per-assignment labeled-sequent validity, a reference for
`semantics.labeled_sequent_valid`.

It checked label coverage and evaluated every formula of the sequent with a
fresh `eval_formula` memo for each model and each assignment, so the same
(model, world, subformula) was evaluated again for every assignment that
maps a label to that world.  `semantics.labeled_sequent_valid` visits the
same models and assignments in the same order, with one memo per model, and
must return the same verdict and the same first falsifying pair.  The code is
the former `eval_labeled_sequent` and `labeled_sequent_valid`, unchanged.
"""

from itertools import product
from typing import Optional

from glproof.formula import Atom, Box, Formula, subformulas
from glproof.semantics import Model, ModelBound, UnknownWorld, enumerate_models, eval_formula
from glproof.sequents import LabeledSequent


def eval_labeled_sequent(m: Model, assignment: dict[str, str], s: LabeledSequent) -> bool:
    """Satisfaction with one assignment: if all relational atoms and all
    antecedent formulas hold, some consequent formula holds."""
    for x in s.labels():
        if x not in assignment:
            raise UnknownWorld(f"assignment missing label {x}")
    for x, y in s.rel:
        if (assignment[x], assignment[y]) not in m.rel:
            return True
    for x, g in s.ante:
        if not eval_formula(m, assignment[x], g):
            return True
    return any(eval_formula(m, assignment[x], g) for x, g in s.cons)


def labeled_sequent_valid(
    s: LabeledSequent, bound: Optional[ModelBound] = None
) -> tuple[bool, Optional[tuple[Model, dict]]]:
    """Desk-scale validity of a labeled sequent: enumerate models within the
    bound and all assignments; returns a falsifying pair when one exists."""
    formulas = [g for _, g in s.ante] + [g for _, g in s.cons]
    boxed: set[Formula] = set()
    atom_names: set[str] = set()
    for g in formulas:
        for h in subformulas(g):
            if isinstance(h, Box):
                boxed.add(h)
            elif isinstance(h, Atom):
                atom_names.add(h.name)
    labels = sorted(s.labels())
    k = len(boxed)
    if bound is None:
        # enough worlds to separate the labels, enough depth for the boxes
        n = min(k + len(labels) + 1, 5)
        bound = ModelBound(n, n, max(k + 1, 2))
    atoms = sorted(atom_names) or ["p0"]
    for model in enumerate_models(tuple(atoms), bound):
        for assign in product(model.worlds, repeat=len(labels)):
            assignment = dict(zip(labels, assign))
            if not eval_labeled_sequent(model, assignment, s):
                return False, (model, assignment)
    return True, None
