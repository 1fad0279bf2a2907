"""Terminating backward proof search for GLseq and CSGL.

Search states are set-based sequents (finitely many over the subformula
closure), which makes the ancestor loop check and the boxR blocking
condition terminating.  Emitted proofs are multiset-based: the search
skeleton is replayed over the original multisets, and any slack left by
dropped duplicates is absorbed by id and the modal rules, whose contexts
are arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .formula import Box, Formula, Not, Or
from .sequents import (
    GentzenSequent,
    LabeledSequent,
    Proof,
    Sequent,
    fresh_label,
    mset_remove,
    tree_root,
)
from .semantics import OracleVerdict, gentzen_interpretation, oracle_validity


class FuelExhausted(Exception):
    pass


@dataclass(frozen=True)
class SearchConfig:
    fuel: int = 100000
    loop_check: bool = True
    oracle_hint: bool = True  # consult the oracle on NotProved results


@dataclass
class SearchResult:
    proved: bool
    proof: Optional[Proof] = None
    saturated: Optional[Sequent] = None
    hint: Optional[OracleVerdict] = None


def _key(f: Formula):
    return f.key


# ---------------------------------------------------------------------------
# GLseq

def _glseq_search(fa, fc, ancestors, fuel, dead_end, loop_check):
    """Search on set-sequents; returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    shared = fa & fc
    if shared:
        return ("id", min(shared, key=_key))
    for f in sorted((g for g in fa if type(g) is Not), key=_key):
        sub = _glseq_search(fa.difference({f}), fc | {f.sub},
                            ancestors, fuel, dead_end, loop_check)
        return ("negL", f, sub) if sub is not None else _fail(dead_end, fa, fc)
    for f in sorted((g for g in fc if type(g) is Not), key=_key):
        sub = _glseq_search(fa | {f.sub}, fc.difference({f}), ancestors, fuel, dead_end, loop_check)
        return ("negR", f, sub) if sub is not None else _fail(dead_end, fa, fc)
    for f in sorted((g for g in fc if type(g) is Or), key=_key):
        sub = _glseq_search(fa, fc.difference({f}) | {f.left, f.right},
                            ancestors, fuel, dead_end, loop_check)
        return ("orR", f, sub) if sub is not None else _fail(dead_end, fa, fc)
    for f in sorted((g for g in fa if type(g) is Or), key=_key):
        rest = fa.difference({f})
        left = _glseq_search(rest | {f.left}, fc, ancestors, fuel, dead_end, loop_check)
        if left is None:
            return _fail(dead_end, fa, fc)
        right = _glseq_search(rest | {f.right}, fc, ancestors, fuel, dead_end, loop_check)
        return ("orL", f, left, right) if right is not None else _fail(dead_end, fa, fc)
    # modal choices, left to right over the consequent order
    gamma = tuple(sorted((g.sub for g in fa if type(g) is Box), key=_key))
    here = (fa, fc)
    for f in sorted((g for g in fc if type(g) is Box), key=_key):
        fa2 = frozenset(Box(g) for g in gamma) | frozenset(gamma) | {f}
        fc2 = frozenset((f.sub,))
        if loop_check and (fa2, fc2) in ancestors:
            continue
        sub = _glseq_search(fa2, fc2, ancestors | {here}, fuel, dead_end, loop_check)
        if sub is not None:
            return ("boxGL", gamma, f.sub, sub)
    return _fail(dead_end, fa, fc)


def _fail(dead_end, fa, fc):
    if dead_end[0] is None:
        dead_end[0] = GentzenSequent(sorted(fa, key=_key), sorted(fc, key=_key))
    return None


def _glseq_replay(sk, seq: GentzenSequent, calculus: str = "glseq") -> Proof:
    rule = sk[0]
    if rule == "id":
        return Proof(calculus, "id", seq, (), {"principal": sk[1]})
    if rule == "negL":
        _, f, sub = sk
        prem = GentzenSequent(mset_remove(seq.ante, f), seq.cons + (f.sub,))
        return Proof(calculus, "negL", seq, (_glseq_replay(sub, prem, calculus),), {"principal": f})
    if rule == "negR":
        _, f, sub = sk
        prem = GentzenSequent(seq.ante + (f.sub,), mset_remove(seq.cons, f))
        return Proof(calculus, "negR", seq, (_glseq_replay(sub, prem, calculus),), {"principal": f})
    if rule == "orR":
        _, f, sub = sk
        prem = GentzenSequent(seq.ante, mset_remove(seq.cons, f) + (f.left, f.right))
        return Proof(calculus, "orR", seq, (_glseq_replay(sub, prem, calculus),), {"principal": f})
    if rule == "orL":
        _, f, left, right = sk
        rest = mset_remove(seq.ante, f)
        pl = GentzenSequent(rest + (f.left,), seq.cons)
        pr = GentzenSequent(rest + (f.right,), seq.cons)
        return Proof(
            calculus, "orL", seq,
            (_glseq_replay(left, pl, calculus), _glseq_replay(right, pr, calculus)),
            {"principal": f},
        )
    _, gamma, phi, sub = sk
    boxes = tuple(Box(g) for g in gamma)
    prem = GentzenSequent(boxes + gamma + (Box(phi),), (phi,))
    return Proof(calculus, "boxGL", seq, (_glseq_replay(sub, prem, calculus),),
                 {"gamma": gamma, "phi": phi})


def decide_glseq(s: GentzenSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure for the Gentzen calculus."""
    fa = frozenset(s.ante)
    fc = frozenset(s.cons)
    fuel = [cfg.fuel]
    dead_end = [None]
    sk = _glseq_search(fa, fc, frozenset(), fuel, dead_end, cfg.loop_check)
    if sk is not None:
        return SearchResult(True, proof=_glseq_replay(sk, s))
    hint = None
    if cfg.oracle_hint:
        hint = oracle_validity(_query_formula(s))
    return SearchResult(False, saturated=dead_end[0], hint=hint)


def _query_formula(s: GentzenSequent) -> Formula:
    if not s.ante and len(s.cons) == 1:
        return s.cons[0]
    return gentzen_interpretation(s)


# ---------------------------------------------------------------------------
# CSGL

def _csgl_search(rel, fa, fc, counter, fired, ancestors, fuel, dead_end, loop_check):
    """States use integer labels; `counter` is the proof-global fresh-label
    counter (mutable one-element list); `fired` records propagations already
    performed on this branch, so a decomposed propagation result is never
    re-derived (re-firing is redundant by admissible contraction).
    Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise FuelExhausted()
    shared = fa & fc
    ids = sorted(
        ((x, g) for x, g in shared if type(g) is not Not and type(g) is not Or),
        key=lambda p: (p[0], p[1].key),
    )
    if ids:
        x, g = ids[0]
        return ("id1" if type(g) is not Box else "id2", x, g)

    pkey = lambda p: (p[0], p[1].key)
    for x, f in sorted((p for p in fa if type(p[1]) is Not), key=pkey):
        sub = _csgl_search(rel, fa.difference({(x, f)}), fc | {(x, f.sub)},
                           counter, fired, ancestors, fuel, dead_end, loop_check)
        return ("negL", x, f, sub) if sub is not None else _cfail(dead_end, rel, fa, fc)
    for x, f in sorted((p for p in fc if type(p[1]) is Not), key=pkey):
        sub = _csgl_search(rel, fa | {(x, f.sub)}, fc.difference({(x, f)}),
                           counter, fired, ancestors, fuel, dead_end, loop_check)
        return ("negR", x, f, sub) if sub is not None else _cfail(dead_end, rel, fa, fc)
    for x, f in sorted((p for p in fc if type(p[1]) is Or), key=pkey):
        sub = _csgl_search(rel, fa, fc.difference({(x, f)}) | {(x, f.left), (x, f.right)},
                           counter, fired, ancestors, fuel, dead_end, loop_check)
        return ("orR", x, f, sub) if sub is not None else _cfail(dead_end, rel, fa, fc)
    for x, f in sorted((p for p in fa if type(p[1]) is Or), key=pkey):
        rest = fa.difference({(x, f)})
        left = _csgl_search(rel, rest | {(x, f.left)}, fc, counter, fired, ancestors,
                            fuel, dead_end, loop_check)
        if left is None:
            return _cfail(dead_end, rel, fa, fc)
        right = _csgl_search(rel, rest | {(x, f.right)}, fc, counter, fired, ancestors,
                             fuel, dead_end, loop_check)
        return ("orL", x, f, left, right) if right is not None else _cfail(dead_end, rel, fa, fc)

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
                           fired | {(kind, x, y, f)}, ancestors, fuel,
                           dead_end, loop_check)
        name = "4L" if kind == 0 else "boxL"
        return (name, x, y, f.sub, sub) if sub is not None else _cfail(dead_end, rel, fa, fc)

    # boxR expansion with the blocking condition; eager and sequential
    for x, f in sorted((p for p in fc if type(p[1]) is Box), key=pkey):
        blocked = any(
            a == x and (y, f) in fa and (y, f.sub) in fc for a, y in rel
        )
        if blocked:
            continue
        y = counter[0]
        state = (
            rel | {(x, y)},
            fa | {(y, f)},
            fc.difference({(x, f)}) | {(y, f.sub)},
        )
        if loop_check and state in ancestors:
            continue
        counter[0] += 1
        sub = _csgl_search(state[0], state[1], state[2], counter, fired,
                           ancestors | {(rel, fa, fc)}, fuel, dead_end, loop_check)
        if sub is None:
            return _cfail(dead_end, rel, fa, fc)
        return ("boxR", x, y, f.sub, sub)
    return _cfail(dead_end, rel, fa, fc)


def _cfail(dead_end, rel, fa, fc):
    if dead_end[0] is None:
        dead_end[0] = (rel, fa, fc)
    return None


def _csgl_replay(sk, seq: LabeledSequent, names: dict, calculus: str = "csgl") -> Proof:
    rule = sk[0]
    if rule in ("id1", "id2"):
        _, x, g = sk
        return Proof(calculus, rule, seq, (), {"label": names[x], "principal": g})
    if rule in ("negL", "negR", "orR"):
        _, x, f, sub = sk
        lx = names[x]
        if rule == "negL":
            prem = LabeledSequent(seq.rel, mset_remove(seq.ante, (lx, f)), seq.cons + ((lx, f.sub),))
        elif rule == "negR":
            prem = LabeledSequent(seq.rel, seq.ante + ((lx, f.sub),), mset_remove(seq.cons, (lx, f)))
        else:
            prem = LabeledSequent(
                seq.rel, seq.ante,
                mset_remove(seq.cons, (lx, f)) + ((lx, f.left), (lx, f.right)),
            )
        return Proof(calculus, rule, seq, (_csgl_replay(sub, prem, names, calculus),),
                     {"label": lx, "principal": f})
    if rule == "orL":
        _, x, f, left, right = sk
        lx = names[x]
        rest = mset_remove(seq.ante, (lx, f))
        pl = LabeledSequent(seq.rel, rest + ((lx, f.left),), seq.cons)
        pr = LabeledSequent(seq.rel, rest + ((lx, f.right),), seq.cons)
        return Proof(calculus, "orL", seq,
                     (_csgl_replay(left, pl, names, calculus),
                      _csgl_replay(right, pr, names, calculus)),
                     {"label": lx, "principal": f})
    if rule in ("4L", "boxL"):
        _, x, y, phi, sub = sk
        lx, ly = names[x], names[y]
        added = Box(phi) if rule == "4L" else phi
        prem = seq.with_ante((ly, added))
        return Proof(calculus, rule, seq, (_csgl_replay(sub, prem, names, calculus),),
                     {"label": lx, "aux": ly, "phi": phi})
    _, x, y, phi, sub = sk
    lx, ly = names[x], names[y]
    prem = LabeledSequent(
        seq.rel | {(lx, ly)},
        seq.ante + ((ly, Box(phi)),),
        mset_remove(seq.cons, (lx, Box(phi))) + ((ly, phi),),
    )
    return Proof(calculus, "boxR", seq, (_csgl_replay(sub, prem, names, calculus),),
                 {"label": lx, "fresh": ly, "phi": phi})


def decide_csgl(s: LabeledSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure over tree sequents."""
    tree_root(s)  # validates the tree shape
    labels = sorted(s.labels())
    to_int = {lab: i for i, lab in enumerate(labels)}
    rel = frozenset((to_int[a], to_int[b]) for a, b in s.rel)
    fa = frozenset((to_int[x], f) for x, f in s.ante)
    fc = frozenset((to_int[x], f) for x, f in s.cons)
    fuel = [cfg.fuel]
    dead_end = [None]
    counter = [len(labels)]
    sk = _csgl_search(rel, fa, fc, counter, frozenset(), frozenset(), fuel, dead_end,
                      cfg.loop_check)
    if sk is not None:
        names = {i: lab for lab, i in to_int.items()}
        pool_i = 0
        for j in range(len(labels), counter[0]):
            while True:
                cand = f"y{pool_i}"
                pool_i += 1
                if cand not in to_int:
                    break
            names[j] = cand
        return SearchResult(True, proof=_csgl_replay(sk, s, names))
    hint = None
    if cfg.oracle_hint:
        hint = _flat_hint(s)
    saturated = _labeled_from_state(dead_end[0], labels) if dead_end[0] else None
    return SearchResult(False, saturated=saturated, hint=hint)


def _labeled_from_state(state, labels) -> LabeledSequent:
    rel, fa, fc = state

    def name(i):
        return labels[i] if i < len(labels) else f"y{i - len(labels)}"

    return LabeledSequent(
        ((name(a), name(b)) for a, b in rel),
        ((name(x), f) for x, f in fa),
        ((name(x), f) for x, f in fc),
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
