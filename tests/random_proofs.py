"""A seeded random-strategy CSGL prover: test inputs that search never makes.

    csgl_proof(f, i)      a random-strategy proof of |- x: f, or None
    theorems(rng, n)      the first n GLseq-proved draws of `rng`
    csgl_sample(seed, n)  (theorem, proof) for the first n draws that have one

CSGL search is eager and ordered: it fires every propagation and expands
every unblocked `boxR` in a fixed order, so its proofs are end-active.  This
prover makes one random choice per state, without backtracking:
- it closes on `id1`/`id2` when it can, on the least shared item;
- otherwise it lists every applicable local rule, every `4L`/`boxL` not
  fired on the branch whose product is new, and every `boxR` that search's
  blocking test does not block, sorts the list by `(rule, str(meta))`, and
  takes `rng.choice` of it.

Fresh labels are y0, y1, ..., one counter for the whole proof.  Try t on
theorem i draws from `random.Random((200000 + i) * 1000 + t)`; a try fails
at a state where nothing applies or after `FUEL` nodes, and up to `TRIES`
tries are made.  The prover builds a rule tree; `rules.derive` gives every
conclusion.  It generates inputs for tests; it is not a decision procedure.
"""

from __future__ import annotations

import random
from typing import Optional

from glproof.formula import Atom, Box, Formula, Not, Or, random_formula
from glproof.rules import derive, premises_of
from glproof.search import SearchConfig, prove_formula
from glproof.sequents import LabeledSequent, Proof, labeled_key

FUEL = 3000
TRIES = 20
ATOMS = ("p", "q", "r")
_LOCAL = {(Not, True): "negL", (Not, False): "negR", (Or, True): "orL", (Or, False): "orR"}


def _moves(seq: LabeledSequent, fired: frozenset, fresh: str) -> list:
    """(rule, meta) for every rule the prover may apply at `seq`."""
    moves = {}
    for side, left in ((seq.ante, True), (seq.cons, False)):
        for x, g in side:
            rule = _LOCAL.get((type(g), left))
            if rule is not None:
                moves[rule, x, g] = (rule, {"label": x, "principal": g})
    ante = set(seq.ante)
    for x, g in ante:
        if type(g) is Box:
            for a, y in seq.rel:
                if a != x:
                    continue
                for rule, product in (("4L", g), ("boxL", g.sub)):
                    if (rule, x, y, g.sub) not in fired and (y, product) not in ante:
                        moves[rule, x, y, g.sub] = (rule, {"label": x, "aux": y, "phi": g.sub})
    cons = set(seq.cons)
    for x, g in cons:
        if type(g) is Box and not any(a == x and (y, g) in ante and (y, g.sub) in cons
                                      for a, y in seq.rel):
            moves["boxR", x, g] = ("boxR", {"label": x, "fresh": fresh, "phi": g.sub})
    return sorted(moves.values(), key=lambda m: (m[0], str(m[1])))


def _try(f: Formula, rng: random.Random) -> Optional[Proof]:
    """One try: a proof of |- x: f, or None."""
    root = LabeledSequent((), (), (("x", f),))
    top: list = []
    stack = [(root, frozenset(), top)]
    nodes = fresh = 0
    while stack:
        seq, fired, out = stack.pop()
        nodes += 1
        if nodes > FUEL:
            return None
        cons = set(seq.cons)
        shared = [p for p in seq.ante if type(p[1]) in (Atom, Box) and p in cons]
        if shared:
            x, g = min(shared, key=labeled_key)
            out.append(("id1" if type(g) is Atom else "id2", {"label": x, "principal": g}, []))
            continue
        moves = _moves(seq, fired, f"y{fresh}")
        if not moves:
            return None
        rule, meta = rng.choice(moves)
        if rule == "boxR":
            fresh += 1
        elif rule in ("4L", "boxL"):
            fired = fired | {(rule, meta["label"], meta["aux"], meta["phi"])}
        node = (rule, meta, [])
        out.append(node)
        stack.extend((prem, fired, node[2])
                     for prem in reversed(premises_of("csgl", rule, meta, seq)))
    return derive("csgl", top[0], root, lambda n: n)


def csgl_proof(f: Formula, i: int) -> Optional[Proof]:
    """A random-strategy CSGL proof of |- x: f, theorem i of its sample."""
    for t in range(TRIES):
        p = _try(f, random.Random((200000 + i) * 1000 + t))
        if p is not None:
            return p
    return None


def theorems(rng: random.Random, n: int) -> list[Formula]:
    """The first n draws of `random_formula(rng, ATOMS, rng.randint(4, 12))`
    that GLseq search proves."""
    cfg = SearchConfig(oracle_hint=False)
    found: list[Formula] = []
    while len(found) < n:
        f = random_formula(rng, ATOMS, rng.randint(4, 12))
        if prove_formula(f, "glseq", cfg).proved:
            found.append(f)
    return found


def csgl_sample(seed: int, n: int) -> list[tuple[Formula, Proof]]:
    """(theorem, random-strategy proof) for each of the first n theorems of
    `random.Random(seed)` that the prover proves within its tries."""
    out = []
    for i, f in enumerate(theorems(random.Random(seed), n)):
        p = csgl_proof(f, i)
        if p is not None:
            out.append((f, p))
    return out
