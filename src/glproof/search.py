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

Fuel (`FuelExhausted`) is the backstop.  Emitted proofs are multiset-based:
the search skeleton is replayed over the original multisets, and any slack
left by dropped duplicates is absorbed by id and the modal rules, whose
contexts are arbitrary.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from .formula import Box, Formula, Not, Or
from .sequents import (
    LABEL_KEYS,
    GentzenSequent,
    LabeledSequent,
    Proof,
    Sequent,
    formula_key,
    labeled_key,
    trampoline,
    tree_root,
)
from .rules import premises_of
from .semantics import OracleVerdict, gentzen_interpretation, oracle_validity


class FuelExhausted(Exception):
    pass


class SearchConfig:
    __slots__ = ("fuel", "oracle_hint")

    def __init__(self, fuel: int = 100000, oracle_hint: bool = True):
        self.fuel = fuel
        self.oracle_hint = oracle_hint  # consult the oracle on NotProved results


class SearchResult:
    __slots__ = ("proved", "proof", "saturated", "hint")

    def __init__(self, proved: bool, proof: Optional[Proof] = None,
                 saturated: Optional[Sequent] = None, hint: Optional[OracleVerdict] = None):
        self.proved = proved
        self.proof = proof
        self.saturated = saturated
        self.hint = hint


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
    def walk(sk, seq: Sequent):
        n = 2 + len(sk[1])
        meta = dict(zip(sk[1], sk[2:n]))
        if names is not None:
            for key in LABEL_KEYS:
                if key in meta:
                    meta[key] = names[meta[key]]
        prems = yield tuple(map(walk, sk[n:], premises_of(calculus, sk[0], meta, seq)))
        return Proof(calculus, sk[0], seq, prems, meta)

    return trampoline(walk(sk, seq))


# ---------------------------------------------------------------------------
# GLseq

def _glseq_search(fa, fc, fuel, dead_end):
    """Search on set-sequents; returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    shared = fa & fc
    if shared:
        return ("id", _P, min(shared, key=formula_key))
    f = min((g for g in fa if type(g) is Not), key=formula_key, default=None)
    if f is not None:
        sub = _glseq_search(fa.difference({f}), fc | {f.sub}, fuel, dead_end)
        return ("negL", _P, f, sub) if sub is not None else _fail(dead_end, (fa, fc))
    f = min((g for g in fc if type(g) is Not), key=formula_key, default=None)
    if f is not None:
        sub = _glseq_search(fa | {f.sub}, fc.difference({f}), fuel, dead_end)
        return ("negR", _P, f, sub) if sub is not None else _fail(dead_end, (fa, fc))
    f = min((g for g in fc if type(g) is Or), key=formula_key, default=None)
    if f is not None:
        sub = _glseq_search(fa, fc.difference({f}) | {f.left, f.right}, fuel, dead_end)
        return ("orR", _P, f, sub) if sub is not None else _fail(dead_end, (fa, fc))
    f = min((g for g in fa if type(g) is Or), key=formula_key, default=None)
    if f is not None:
        rest = fa.difference({f})
        left = _glseq_search(rest | {f.left}, fc, fuel, dead_end)
        if left is None:
            return _fail(dead_end, (fa, fc))
        right = _glseq_search(rest | {f.right}, fc, fuel, dead_end)
        return ("orL", _P, f, left, right) if right is not None else _fail(dead_end, (fa, fc))
    # modal choices, left to right over the consequent order
    gamma = tuple(sorted((g.sub for g in fa if type(g) is Box), key=formula_key))
    for f in sorted((g for g in fc if type(g) is Box), key=formula_key):
        fa2 = frozenset(Box(g) for g in gamma) | frozenset(gamma) | {f}
        sub = _glseq_search(fa2, frozenset((f.sub,)), fuel, dead_end)
        if sub is not None:
            return ("boxGL", _GP, gamma, f.sub, sub)
    return _fail(dead_end, (fa, fc))


def _fail(dead_end, state):
    """Record the first failed search state (a tuple of sets); return None."""
    if dead_end[0] is None:
        dead_end[0] = state
    return None


def decide_glseq(s: GentzenSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure for the Gentzen calculus."""
    dead_end = [None]
    sk = _glseq_search(frozenset(s.ante), frozenset(s.cons), [cfg.fuel], dead_end)
    if sk is not None:
        return SearchResult(True, proof=_replay(sk, s, "glseq"))
    hint = oracle_validity(_query_formula(s)) if cfg.oracle_hint else None
    return SearchResult(False, saturated=GentzenSequent(*dead_end[0]), hint=hint)


def _query_formula(s: GentzenSequent) -> Formula:
    if not s.ante and len(s.cons) == 1:
        return s.cons[0]
    return gentzen_interpretation(s)


# ---------------------------------------------------------------------------
# CSGL

def _csgl_search(rel, fa, fc, counter, fired, fuel, dead_end):
    """States use integer labels; `counter` is the proof-global fresh-label
    counter (mutable one-element list); `fired` records propagations already
    performed on this branch, so a decomposed propagation result is never
    re-derived (re-firing is redundant by admissible contraction).
    Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    hit = min((p for p in fa & fc if type(p[1]) is not Not and type(p[1]) is not Or),
              key=labeled_key, default=None)
    if hit is not None:
        x, g = hit
        return ("id1" if type(g) is not Box else "id2", _LP, x, g)

    state = (rel, fa, fc)
    hit = min((p for p in fa if type(p[1]) is Not), key=labeled_key, default=None)
    if hit is not None:
        x, f = hit
        sub = _csgl_search(rel, fa.difference({(x, f)}), fc | {(x, f.sub)},
                           counter, fired, fuel, dead_end)
        return ("negL", _LP, x, f, sub) if sub is not None else _fail(dead_end, state)
    hit = min((p for p in fc if type(p[1]) is Not), key=labeled_key, default=None)
    if hit is not None:
        x, f = hit
        sub = _csgl_search(rel, fa | {(x, f.sub)}, fc.difference({(x, f)}),
                           counter, fired, fuel, dead_end)
        return ("negR", _LP, x, f, sub) if sub is not None else _fail(dead_end, state)
    hit = min((p for p in fc if type(p[1]) is Or), key=labeled_key, default=None)
    if hit is not None:
        x, f = hit
        sub = _csgl_search(rel, fa, fc.difference({(x, f)}) | {(x, f.left), (x, f.right)},
                           counter, fired, fuel, dead_end)
        return ("orR", _LP, x, f, sub) if sub is not None else _fail(dead_end, state)
    hit = min((p for p in fa if type(p[1]) is Or), key=labeled_key, default=None)
    if hit is not None:
        x, f = hit
        rest = fa.difference({(x, f)})
        left = _csgl_search(rel, rest | {(x, f.left)}, fc, counter, fired, fuel, dead_end)
        if left is None:
            return _fail(dead_end, state)
        right = _csgl_search(rel, rest | {(x, f.right)}, fc, counter, fired, fuel, dead_end)
        return ("orL", _LP, x, f, left, right) if right is not None else _fail(dead_end, state)

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
        sub = _csgl_search(rel, fa | {(y, added)}, fc, counter,
                           fired | {(kind, x, y, f)}, fuel, dead_end)
        name = "4L" if kind == 0 else "boxL"
        return (name, _LAP, x, y, f.sub, sub) if sub is not None else _fail(dead_end, state)

    # boxR expansion with the blocking condition; eager and sequential
    for x, f in sorted((p for p in fc if type(p[1]) is Box), key=labeled_key):
        if any(a == x and (y, f) in fa and (y, f.sub) in fc for a, y in rel):
            continue  # blocked
        y = counter[0]
        counter[0] += 1
        sub = _csgl_search(rel | {(x, y)}, fa | {(y, f)},
                           fc.difference({(x, f)}) | {(y, f.sub)},
                           counter, fired, fuel, dead_end)
        if sub is None:
            return _fail(dead_end, state)
        return ("boxR", _LFP, x, y, f.sub, sub)
    return _fail(dead_end, state)


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
    sk = _csgl_search(rel, fa, fc, counter, frozenset(), [cfg.fuel], dead_end)
    # fresh labels are named y0, y1, ..., skipping the input's labels
    names = dict(enumerate(labels))
    pool = (f"y{i}" for i in count() if f"y{i}" not in to_int)
    names.update(zip(range(len(labels), counter[0]), pool))
    if sk is not None:
        return SearchResult(True, proof=_replay(sk, s, "csgl", names))
    hint = _flat_hint(s) if cfg.oracle_hint else None
    return SearchResult(False, saturated=_labeled_from_state(dead_end[0], names), hint=hint)


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
