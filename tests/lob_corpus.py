"""A seeded Löb corpus: GL theorems that are not K4 theorems.

    lob_corpus(seed, count)  the first `count` kept draws of `random.Random(seed)`
    k4seq_provable(f)        whether backward search in K4seq proves |- f

Most theorems of the {p, q} enumeration have K4seq proofs, so the diagonal
box that the GLseq and CSGL box rules add, the part of GL beyond K4, is
almost never read there.  Every formula of this corpus needs it.  Each draw
takes `A = random_formula(rng, ATOMS, rng.randint(0, 6))`, `L = [](~[]A | A)`
(that is, `[]([]A -> A)`) and one of four shapes, each equally likely:

    L -> []A                            the Löb schema
    (L -> []A) | B                      B a random formula of 0-4 connectives
    L -> [][]A
    L -> []([]A -> A)  or  L -> []A     with even odds

A draw is kept when GLseq search proves it and `k4seq_provable` does not.
The first option of the last shape is a K theorem, so no draw of it is
kept.  `lob_corpus()` (seed 3, 400 formulas) is the corpus that
tests/totality_sweep.py runs; tier-1 runs its first formulas.

The K4seq search is test-only.  It uses GLseq search's rule order (id on
any shared formula, then negL, negR, orR and orL on the least formula by
`formula_key`, then one consequent box at a time), and its box4 premise
`[]G, G |- phi` lacks the diagonal `[]phi`.  A box4 premise that repeats
an earlier box4 premise on its branch fails, so the search terminates.
"""

from __future__ import annotations

import random

from glproof.formula import Box, Formula, Not, Or, implies, random_formula
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import formula_key

ATOMS = ("p", "q", "r")
CFG = SearchConfig(oracle_hint=False)


def k4seq_provable(f: Formula) -> bool:
    return _k4(frozenset(), frozenset((f,)), frozenset())


def _k4(ante: frozenset, cons: frozenset, seen: frozenset) -> bool:
    """Whether K4seq proves `ante |- cons`; `seen` holds the box4 premises
    below, on this branch."""
    if ante & cons:
        return True
    local = [(0, g) for g in ante if type(g) is Not] or [(1, g) for g in cons if type(g) is Not] \
        or [(2, g) for g in cons if type(g) is Or] or [(3, g) for g in ante if type(g) is Or]
    if local:
        rank, g = min(local, key=lambda e: formula_key(e[1]))
        if rank == 0:
            return _k4(ante - {g}, cons | {g.sub}, seen)
        if rank == 1:
            return _k4(ante | {g.sub}, cons - {g}, seen)
        if rank == 2:
            return _k4(ante, cons - {g} | {g.left, g.right}, seen)
        rest = ante - {g}
        return _k4(rest | {g.left}, cons, seen) and _k4(rest | {g.right}, cons, seen)
    boxes = frozenset(g for g in ante if type(g) is Box)
    context = boxes | {g.sub for g in boxes}
    for g in sorted((g for g in cons if type(g) is Box), key=formula_key):
        premise = context, frozenset((g.sub,))
        if premise not in seen and _k4(*premise, seen | {premise}):
            return True
    return False


def _draw(rng: random.Random) -> Formula:
    a = random_formula(rng, ATOMS, rng.randint(0, 6))
    diagonal = implies(Box(a), a)
    loeb = Box(diagonal)
    shape = rng.randrange(4)
    if shape == 0:
        return implies(loeb, Box(a))
    if shape == 1:
        return Or(implies(loeb, Box(a)), random_formula(rng, ATOMS, rng.randint(0, 4)))
    if shape == 2:
        return implies(loeb, Box(Box(a)))
    return implies(loeb, Box(diagonal) if rng.randrange(2) else Box(a))


def lob_corpus(seed: int = 3, count: int = 400) -> list[Formula]:
    """The first `count` draws of `random.Random(seed)` that GLseq search
    proves and K4seq search does not, without repeats."""
    rng = random.Random(seed)
    found: list[Formula] = []
    while len(found) < count:
        f = _draw(rng)
        if f not in found and not k4seq_provable(f) and prove_formula(f, "glseq", CFG).proved:
            found.append(f)
    return found
