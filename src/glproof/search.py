"""Terminating backward proof search for GLseq and CSGL.

Search states are set-based sequents over the subformula closure, and both
searches terminate without a loop check:

- GLseq: no rule removes a boxed formula from the antecedent.  boxGL keeps
  every []g and adds its diagonal formula []phi, which cannot already be in
  the antecedent: []phi is in the consequent, and id fires first on a shared
  formula.  So the antecedent's boxes grow strictly at each boxGL, within
  the finite closure, and no premise repeats an ancestor state.
- CSGL: boxR relates x to a fresh label y, larger than every label in an
  earlier state, so no boxR premise repeats an ancestor state either; the
  blocking condition bounds how often boxR fires.

Rules are tried in a fixed order: id, then the local rules negL, negR, orR,
orL, then (CSGL) 4L/boxL propagation and boxR, or (GLseq) boxGL.  Beside its
two sides, a state carries a `pending` frozenset with one entry per Not or
Or formula on either side: `(rank, key, formula)` in GLseq and `(rank,
label, key, formula)` in CSGL, where the rank is 0 for a Not in the
antecedent (negL), 1 for a Not in the consequent (negR), 2 for an Or in the
consequent (orR) and 3 for an Or in the antecedent (orL).  Tuple order is
then rule priority first and the sides' canonical order (`formula_key`,
`labeled_key`) second, so `min(pending)` is exactly the formula that taking
the least Not of the antecedent, else of the consequent, else the least Or
of the consequent, else of the antecedent, would pick.  A key names its
formula, so no comparison reaches the formula itself.  Each rule removes the
entry of its principal formula and adds an entry for each Not or Or it puts
on a side; the sides stay full sets, so `fa & fc` is still the id test.

Dead ends: the first state at which a failing search gives up is a leaf,
because an interior node fails only after a premise has failed first.  So
the saturated sequent a failed search returns is one where no rule applies:
it has no Not or Or formula (`pending` is empty), no formula on both sides,
and in GLseq no boxed consequent.  In CSGL every 4L and boxL propagation
has fired or adds nothing new (a boxL product that is a Not or an Or was
decomposed on the branch), and every boxed consequent is blocked.

Fuel (`FuelExhausted`) is the backstop.  Emitted proofs are multiset-based:
the search skeleton is replayed over the original multisets, and any slack
left by dropped duplicates is absorbed by id and the modal rules, whose
contexts are arbitrary.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Optional

from .formula import Box, Formula, Not, Or
from .sequents import (
    LABEL_KEYS,
    GentzenSequent,
    LabeledSequent,
    Proof,
    Sequent,
    formula_key,
    labeled_key,
    tree_root,
)
from .rules import derive
from .semantics import OracleVerdict, gentzen_interpretation, oracle_validity


class FuelExhausted(Exception):
    pass


class SearchConfig:
    __slots__ = ("fuel", "oracle_hint")

    def __init__(self, fuel: int = 100000, oracle_hint: bool = True):
        self.fuel = fuel
        self.oracle_hint = oracle_hint  # consult the oracle on NotProved results


class SearchResult:
    """A failed search passes `build`, which makes its saturated sequent;
    `saturated` calls it on the first read, so a caller that reads only
    `proved` never pays for it."""

    __slots__ = ("proved", "proof", "_saturated", "_build", "hint")

    def __init__(self, proved: bool, proof: Optional[Proof] = None,
                 hint: Optional[OracleVerdict] = None,
                 build: Optional[Callable[[], Sequent]] = None):
        self.proved = proved
        self.proof = proof
        self._saturated = None
        self._build = build
        self.hint = hint

    @property
    def saturated(self) -> Optional[Sequent]:
        if self._build is not None:
            self._saturated = self._build()
            self._build = None
        return self._saturated


# ---------------------------------------------------------------------------
# Replay: every premise comes from the rule schema
#
# A skeleton is a flat tuple (rule, meta keys, *meta values, *subskeletons).
# A search that runs out of fuel can hold ~100k successful subskeletons at
# once; a meta dict per skeleton would add ~20 MB there, so dicts are built
# only on replay.

_P, _GP = ("principal",), ("gamma", "phi")
_LP, _LAP, _LFP = ("label", "principal"), ("label", "aux", "phi"), ("label", "fresh", "phi")


def _replay(sk, seq: Sequent, calculus: str, names: Optional[dict] = None) -> Proof:
    """Re-derive a search skeleton over the original multisets; `names` maps
    CSGL's integer state labels to label names."""
    def parts(sk):
        n = 2 + len(sk[1])
        meta = dict(zip(sk[1], sk[2:n]))
        if names is not None:
            for key in LABEL_KEYS:
                if key in meta:
                    meta[key] = names[meta[key]]
        return sk[0], meta, sk[n:]

    return derive(calculus, sk, seq, parts)


# ---------------------------------------------------------------------------
# The pending set: the Not/Or formulas of both sides, ranked by side in the
# order their rules are tried (negL, negR, orR, orL).  Atoms and boxes have
# no local rule and no rank.

_ANTE_RANK = {Not: 0, Or: 3}
_CONS_RANK = {Not: 1, Or: 2}


def _glseq_pending(fa, fc) -> frozenset:
    return frozenset(
        [(_ANTE_RANK[type(f)], f.key, f) for f in fa if type(f) in _ANTE_RANK]
        + [(_CONS_RANK[type(f)], f.key, f) for f in fc if type(f) in _CONS_RANK])


def _plus(pending, ranks, f):
    """`pending` with the entry of `f` if it is a Not or an Or."""
    r = ranks.get(type(f))
    return pending if r is None else pending | {(r, f.key, f)}


# ---------------------------------------------------------------------------
# GLseq

def _glseq_search(fa, fc, pending, fuel, dead_end):
    """Search on set-sequents; `pending` holds `(rank, key, formula)` for
    each Not/Or formula of `fa` and `fc`.  Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    shared = fa & fc
    if shared:
        return ("id", _P, min(shared, key=formula_key))
    if pending:
        entry = min(pending)
        rank, _, f = entry
        rest = pending - {entry}
        if rank == 0:
            sub = _glseq_search(fa - {f}, fc | {f.sub}, _plus(rest, _CONS_RANK, f.sub),
                                fuel, dead_end)
            return ("negL", _P, f, sub) if sub is not None else None
        if rank == 1:
            sub = _glseq_search(fa | {f.sub}, fc - {f}, _plus(rest, _ANTE_RANK, f.sub),
                                fuel, dead_end)
            return ("negR", _P, f, sub) if sub is not None else None
        if rank == 2:
            more = _plus(_plus(rest, _CONS_RANK, f.left), _CONS_RANK, f.right)
            sub = _glseq_search(fa, fc.difference({f}) | {f.left, f.right}, more,
                                fuel, dead_end)
            return ("orR", _P, f, sub) if sub is not None else None
        fa = fa - {f}
        left = _glseq_search(fa | {f.left}, fc, _plus(rest, _ANTE_RANK, f.left), fuel, dead_end)
        if left is None:
            return None
        right = _glseq_search(fa | {f.right}, fc, _plus(rest, _ANTE_RANK, f.right),
                              fuel, dead_end)
        return ("orL", _P, f, left, right) if right is not None else None
    # modal choices, left to right over the consequent order
    boxes = sorted((g for g in fc if type(g) is Box), key=formula_key)
    if not boxes:  # a leaf where no rule applies; the first one is the dead end
        if dead_end[0] is None:
            dead_end[0] = (fa, fc)
        return None
    gamma = tuple(sorted((g.sub for g in fa if type(g) is Box), key=formula_key))
    for f in boxes:
        fa2 = frozenset(Box(g) for g in gamma) | frozenset(gamma) | {f}
        fc2 = frozenset((f.sub,))
        sub = _glseq_search(fa2, fc2, _glseq_pending(fa2, fc2), fuel, dead_end)
        if sub is not None:
            return ("boxGL", _GP, gamma, f.sub, sub)
    return None


def decide_glseq(s: GentzenSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure for the Gentzen calculus."""
    fa, fc = frozenset(s.ante), frozenset(s.cons)
    dead_end = [None]
    sk = _glseq_search(fa, fc, _glseq_pending(fa, fc), [cfg.fuel], dead_end)
    if sk is not None:
        return SearchResult(True, proof=_replay(sk, s, "glseq"))
    hint = oracle_validity(_query_formula(s)) if cfg.oracle_hint else None
    return SearchResult(False, hint=hint, build=lambda: GentzenSequent(*dead_end[0]))


def _query_formula(s: GentzenSequent) -> Formula:
    if not s.ante and len(s.cons) == 1:
        return s.cons[0]
    return gentzen_interpretation(s)


# ---------------------------------------------------------------------------
# CSGL

def _csgl_pending(fa, fc) -> frozenset:
    return frozenset(
        [(_ANTE_RANK[type(f)], x, f.key, f) for x, f in fa if type(f) in _ANTE_RANK]
        + [(_CONS_RANK[type(f)], x, f.key, f) for x, f in fc if type(f) in _CONS_RANK])


def _lplus(pending, ranks, x, f):
    """`pending` with the entry of `f` at `x` if it is a Not or an Or."""
    r = ranks.get(type(f))
    return pending if r is None else pending | {(r, x, f.key, f)}


def _csgl_search(rel, fa, fc, pending, counter, fired, fuel, dead_end):
    """States use integer labels; `pending` holds `(rank, label, key,
    formula)` for each Not/Or formula of `fa` and `fc`; `counter` is the
    proof-global fresh-label counter (mutable one-element list); `fired`
    records propagations already performed on this branch, so a decomposed
    propagation result is never re-derived (re-firing is redundant by
    admissible contraction).  Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    shared = fa & fc
    if shared:
        hit = min((p for p in shared if type(p[1]) is not Not and type(p[1]) is not Or),
                  key=labeled_key, default=None)
        if hit is not None:
            x, g = hit
            return ("id1" if type(g) is not Box else "id2", _LP, x, g)

    if pending:
        entry = min(pending)
        rank, x, _, f = entry
        rest = pending - {entry}
        p = (x, f)
        if rank == 0:
            sub = _csgl_search(rel, fa - {p}, fc | {(x, f.sub)},
                               _lplus(rest, _CONS_RANK, x, f.sub), counter, fired, fuel, dead_end)
            return ("negL", _LP, x, f, sub) if sub is not None else None
        if rank == 1:
            sub = _csgl_search(rel, fa | {(x, f.sub)}, fc - {p},
                               _lplus(rest, _ANTE_RANK, x, f.sub), counter, fired, fuel, dead_end)
            return ("negR", _LP, x, f, sub) if sub is not None else None
        if rank == 2:
            more = _lplus(_lplus(rest, _CONS_RANK, x, f.left), _CONS_RANK, x, f.right)
            sub = _csgl_search(rel, fa, fc.difference({p}) | {(x, f.left), (x, f.right)}, more,
                               counter, fired, fuel, dead_end)
            return ("orR", _LP, x, f, sub) if sub is not None else None
        fa = fa - {p}
        left = _csgl_search(rel, fa | {(x, f.left)}, fc, _lplus(rest, _ANTE_RANK, x, f.left),
                            counter, fired, fuel, dead_end)
        if left is None:
            return None
        right = _csgl_search(rel, fa | {(x, f.right)}, fc, _lplus(rest, _ANTE_RANK, x, f.right),
                             counter, fired, fuel, dead_end)
        return ("orL", _LP, x, f, left, right) if right is not None else None

    # no local rule applies, so `pending` is empty from here on
    # propagation to a fixpoint: 4L then boxL, first not-yet-fired candidate
    props = []
    for x, f in fa:
        if type(f) is Box:
            for a, y in rel:
                if a == x:
                    if (0, x, y, f) not in fired and (y, f) not in fa:
                        props.append((0, x, y, f))
                    if (1, x, y, f) not in fired and (y, f.sub) not in fa:
                        props.append((1, x, y, f))
    if props:
        kind, x, y, f = min(props, key=lambda q: (q[0], q[1], q[2], q[3].key))
        added = f if kind == 0 else f.sub
        sub = _csgl_search(rel, fa | {(y, added)}, fc, _lplus(pending, _ANTE_RANK, y, added),
                           counter, fired | {(kind, x, y, f)}, fuel, dead_end)
        name = "4L" if kind == 0 else "boxL"
        return (name, _LAP, x, y, f.sub, sub) if sub is not None else None

    # boxR expansion with the blocking condition; eager and sequential
    for x, f in sorted((p for p in fc if type(p[1]) is Box), key=labeled_key):
        if any(a == x and (y, f) in fa and (y, f.sub) in fc for a, y in rel):
            continue  # blocked
        y = counter[0]
        counter[0] += 1
        sub = _csgl_search(rel | {(x, y)}, fa | {(y, f)},
                           fc.difference({(x, f)}) | {(y, f.sub)},
                           _lplus(pending, _CONS_RANK, y, f.sub),
                           counter, fired, fuel, dead_end)
        return ("boxR", _LFP, x, y, f.sub, sub) if sub is not None else None
    # a leaf where no rule applies; a failing search reaches exactly one,
    # since no CSGL node tries a second premise after one has failed
    dead_end[0] = (rel, fa, fc)
    return None


def decide_csgl(s: LabeledSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure over tree sequents."""
    tree_root(s)  # validates the tree shape
    labels = sorted(s.labels())
    to_int = {lab: i for i, lab in enumerate(labels)}
    rel = frozenset((to_int[a], to_int[b]) for a, b in s.rel)
    fa = frozenset((to_int[x], f) for x, f in s.ante)
    fc = frozenset((to_int[x], f) for x, f in s.cons)
    dead_end = [None]
    counter = [len(labels)]
    sk = _csgl_search(rel, fa, fc, _csgl_pending(fa, fc), counter, frozenset(),
                      [cfg.fuel], dead_end)
    if sk is not None:
        return SearchResult(True, proof=_replay(sk, s, "csgl", _label_names(to_int, counter[0])))
    hint = _flat_hint(s) if cfg.oracle_hint else None
    return SearchResult(False, hint=hint, build=lambda: _labeled_from_state(
        dead_end[0], _label_names(to_int, counter[0])))


def _label_names(to_int: dict, end: int) -> dict:
    """Names for the integer state labels below `end`: the input's labels by
    `to_int`, then fresh labels y0, y1, ..., skipping the input's labels."""
    names = {i: lab for lab, i in to_int.items()}
    pool = (f"y{i}" for i in count() if f"y{i}" not in to_int)
    names.update(zip(range(len(to_int), end), pool))
    return names


def _labeled_from_state(state, names) -> LabeledSequent:
    rel, fa, fc = state
    return LabeledSequent(
        ((names[a], names[b]) for a, b in rel),
        ((names[x], f) for x, f in fa),
        ((names[x], f) for x, f in fc),
    )


def _flat_hint(s: LabeledSequent) -> Optional[OracleVerdict]:
    if s.rel or len(s.labels()) != 1:
        return None
    x = next(iter(s.labels()))
    return oracle_validity(_query_formula(s.flat_at(x)))


def prove_formula(f: Formula, calculus: str, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Decide |- f (GLseq) or |- x: f (CSGL) with the given configuration."""
    if calculus == "glseq":
        return decide_glseq(GentzenSequent((), (f,)), cfg)
    if calculus == "csgl":
        return decide_csgl(LabeledSequent((), (), (("x", f),)), cfg)
    raise ValueError(f"no decision procedure for {calculus}")
