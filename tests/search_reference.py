"""GLseq and CSGL proof search as they were before they ran on an explicit
stack: a reference that tests/test_search.py and tests/totality_sweep.py
compare `glproof.search` against (`glseq_outcomes`, `csgl_outcomes`).

Each node is one recursive call, and each call builds its state anew as
frozensets: both sides, `pending`, and in CSGL `rel` and `fired`, the
propagations fired on the branch; each CSGL propagation node rescans every
box and edge for the least one not fired, where `glproof.search` keeps its
unfired propagations in a sorted list.  The code
is the former `search._glseq_search` and `search._csgl_search` with their
pending helpers, and they return a proof as a skeleton: a nested tuple
(rule, meta keys, *meta values, *premise skeletons).  `glproof.search`
writes a proof as a flat preorder list of records instead; `skeleton` turns
that into a skeleton, and the searches must agree on it, record the same
dead ends, spend the same fuel and, in CSGL, take the same fresh labels.
The recursion here costs one Python frame per level of the branch, so
these fail near depth 1,000.

The recursive CSGL search has `glproof.search`'s relevance rule: an orL
whose left premise closes without reading its left disjunct skips its right
premise.  With `relevant=False` it searches every right premise, as the
eager search at the end of this module does, and `csgl_outcomes` compares
those two the same way.
"""

from bisect import insort
from typing import Iterable

from glproof.formula import Box, Formula, Not, Or
from glproof.search import (_LEAVES, _META_KEYS, FuelExhausted, SearchConfig, SearchResult,
                            _csgl_search, _flat_hint, _glseq_search, _label_names,
                            _labeled_from_state, _replay)
from glproof.sequents import GentzenSequent, LabeledSequent, formula_key, labeled_key, tree_root


class OutOfFuel(Exception):
    """The reference's fuel ran out; `glproof.search` raises FuelExhausted."""


_P, _GP = ("principal",), ("gamma", "phi")
_LP, _LAP, _LFP = ("label", "principal"), ("label", "aux", "phi"), ("label", "fresh", "phi")
_ANTE_RANK = {Not: 0, Or: 3}
_CONS_RANK = {Not: 1, Or: 2}


def glseq_pending(fa, fc) -> frozenset:
    return frozenset(
        [(_ANTE_RANK[type(f)], f.key, f) for f in fa if type(f) in _ANTE_RANK]
        + [(_CONS_RANK[type(f)], f.key, f) for f in fc if type(f) in _CONS_RANK])


def _plus(pending, ranks, f):
    """`pending` with the entry of `f` if it is a Not or an Or."""
    r = ranks.get(type(f))
    return pending if r is None else pending | {(r, f.key, f)}


def glseq_search(fa, fc, pending, fuel, dead_end):
    """Search on set-sequents; `pending` holds `(rank, key, formula)` for
    each Not/Or formula of `fa` and `fc`.  Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise OutOfFuel()
    shared = fa & fc
    if shared:
        return ("id", _P, min(shared, key=formula_key))
    if pending:
        entry = min(pending)
        rank, _, f = entry
        rest = pending - {entry}
        if rank == 0:
            sub = glseq_search(fa - {f}, fc | {f.sub}, _plus(rest, _CONS_RANK, f.sub),
                               fuel, dead_end)
            return ("negL", _P, f, sub) if sub is not None else None
        if rank == 1:
            sub = glseq_search(fa | {f.sub}, fc - {f}, _plus(rest, _ANTE_RANK, f.sub),
                               fuel, dead_end)
            return ("negR", _P, f, sub) if sub is not None else None
        if rank == 2:
            more = _plus(_plus(rest, _CONS_RANK, f.left), _CONS_RANK, f.right)
            sub = glseq_search(fa, fc.difference({f}) | {f.left, f.right}, more,
                               fuel, dead_end)
            return ("orR", _P, f, sub) if sub is not None else None
        fa = fa - {f}
        left = glseq_search(fa | {f.left}, fc, _plus(rest, _ANTE_RANK, f.left), fuel, dead_end)
        if left is None:
            return None
        right = glseq_search(fa | {f.right}, fc, _plus(rest, _ANTE_RANK, f.right),
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
        sub = glseq_search(fa2, fc2, glseq_pending(fa2, fc2), fuel, dead_end)
        if sub is not None:
            return ("boxGL", _GP, gamma, f.sub, sub)
    return None


def csgl_pending(fa, fc) -> frozenset:
    return frozenset(
        [(_ANTE_RANK[type(f)], x, f.key, f) for x, f in fa if type(f) in _ANTE_RANK]
        + [(_CONS_RANK[type(f)], x, f.key, f) for x, f in fc if type(f) in _CONS_RANK])


def _lplus(pending, ranks, x, f):
    """`pending` with the entry of `f` at `x` if it is a Not or an Or."""
    r = ranks.get(type(f))
    return pending if r is None else pending | {(r, x, f.key, f)}


def _read(reads, p):
    reads[p] = reads.get(p, 0) + 1


def csgl_search(rel, fa, fc, pending, counter, fired, fuel, dead_end, reads, relevant=True):
    """States use integer labels; `pending` holds `(rank, label, key,
    formula)` for each Not/Or formula of `fa` and `fc`; `counter` is the
    proof-global fresh-label counter (mutable one-element list); `fired`
    records propagations already performed on this branch, so a decomposed
    propagation result is never re-derived (re-firing is redundant by
    admissible contraction).  `reads` counts, proof-globally, the rule
    instances that read each antecedent labeled formula (a principal of negL
    or orL, an id witness, the box of 4L or boxL); if `relevant`, an orL
    whose left premise read no `x: A` skips its right premise, and its
    skeleton has the left premise alone.  Returns a skeleton tuple or None."""
    fuel[0] -= 1
    if fuel[0] < 0:
        raise OutOfFuel()
    more = (counter, fired, fuel, dead_end, reads, relevant)
    shared = fa & fc
    if shared:
        hit = min((p for p in shared if type(p[1]) is not Not and type(p[1]) is not Or),
                  key=labeled_key, default=None)
        if hit is not None:
            _read(reads, hit)
            x, g = hit
            return ("id1" if type(g) is not Box else "id2", _LP, x, g)

    if pending:
        entry = min(pending)
        rank, x, _, f = entry
        rest = pending - {entry}
        p = (x, f)
        if rank == 0:
            _read(reads, p)
            sub = csgl_search(rel, fa - {p}, fc | {(x, f.sub)},
                              _lplus(rest, _CONS_RANK, x, f.sub), *more)
            return ("negL", _LP, x, f, sub) if sub is not None else None
        if rank == 1:
            sub = csgl_search(rel, fa | {(x, f.sub)}, fc - {p},
                              _lplus(rest, _ANTE_RANK, x, f.sub), *more)
            return ("negR", _LP, x, f, sub) if sub is not None else None
        if rank == 2:
            both = _lplus(_lplus(rest, _CONS_RANK, x, f.left), _CONS_RANK, x, f.right)
            sub = csgl_search(rel, fa, fc.difference({p}) | {(x, f.left), (x, f.right)}, both,
                              *more)
            return ("orR", _LP, x, f, sub) if sub is not None else None
        _read(reads, p)
        seen = reads.get((x, f.left), 0)
        fa = fa - {p}
        left = csgl_search(rel, fa | {(x, f.left)}, fc, _lplus(rest, _ANTE_RANK, x, f.left),
                           *more)
        if left is None:
            return None
        if relevant and reads.get((x, f.left), 0) == seen:
            return ("orL", _LP, x, f, left)  # the left premise proves the conclusion
        right = csgl_search(rel, fa | {(x, f.right)}, fc, _lplus(rest, _ANTE_RANK, x, f.right),
                            *more)
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
        _read(reads, (x, f))
        added = f if kind == 0 else f.sub
        sub = csgl_search(rel, fa | {(y, added)}, fc, _lplus(pending, _ANTE_RANK, y, added),
                          counter, fired | {(kind, x, y, f)}, fuel, dead_end, reads, relevant)
        name = "4L" if kind == 0 else "boxL"
        return (name, _LAP, x, y, f.sub, sub) if sub is not None else None

    # boxR expansion with the blocking condition; eager and sequential
    for x, f in sorted((p for p in fc if type(p[1]) is Box), key=labeled_key):
        if any(a == x and (y, f) in fa and (y, f.sub) in fc for a, y in rel):
            continue  # blocked
        y = counter[0]
        counter[0] += 1
        sub = csgl_search(rel | {(x, y)}, fa | {(y, f)},
                          fc.difference({(x, f)}) | {(y, f.sub)},
                          _lplus(pending, _CONS_RANK, y, f.sub), *more)
        return ("boxR", _LFP, x, y, f.sub, sub) if sub is not None else None
    # a leaf where no rule applies; a failing search reaches exactly one,
    # since no CSGL node tries a second premise after one has failed
    dead_end[0] = (rel, fa, fc)
    return None


# ---------------------------------------------------------------------------
# Comparison with glproof.search

def skeleton(recs: list, calculus: str) -> tuple:
    """The skeleton of a `glproof.search` record list.  The records are cut
    apart front to back, then folded last to first on an explicit stack of
    `(first slot, skeleton)` pairs, so a rule finds its premises' skeletons
    on top, the left one first.  An orL record's last slot must name where
    its right premise's record begins, or be -1 for an orL whose right
    premise search skipped (its skeleton has the left premise alone), and
    the list must hold exactly one proof."""
    keys, starts, i = _META_KEYS[calculus], [], 0
    while i < len(recs):
        starts.append(i)
        i += 1 + len(keys[recs[i]]) + (recs[i] == "orL")
    assert i == len(recs), i
    stack = []
    for i in reversed(starts):
        rule = recs[i]
        k = keys[rule]
        j = i + 1 + len(k)
        prems = (() if rule in _LEAVES else (j,) if rule != "orL"
                 else (j + 1,) if recs[j] == -1 else (j + 1, recs[j]))
        subs = [stack.pop() for _ in prems]
        assert tuple(start for start, _ in subs) == prems, (rule, i)
        stack.append((i, (rule, k, *recs[i + 1:j], *(sk for _, sk in subs))))
    assert len(stack) == 1, len(stack)
    return stack[0][1]


def _outcome(search, fuel: int, calculus=None):
    """`(skeleton, dead end, fuel left)` of `search(fuel, dead_end)`, or
    "FuelExhausted"; with `calculus`, the search returns records, and their
    skeleton stands in for them."""
    left, dead_end = [fuel], [None]
    try:
        sk = search(left, dead_end)
    except (OutOfFuel, FuelExhausted):
        return "FuelExhausted"
    if calculus is not None and sk is not None:
        sk = skeleton(sk, calculus)
    return sk, dead_end[0], left[0]


def glseq_outcomes(s: GentzenSequent, fuel: int = 100000) -> tuple:
    """The reference's outcome of GLseq search on `s`, then glproof's."""
    fa, fc = frozenset(s.ante), frozenset(s.cons)
    return (_outcome(lambda *a: glseq_search(fa, fc, glseq_pending(fa, fc), *a), fuel),
            _outcome(lambda *a: _glseq_search(set(fa), set(fc), *a), fuel, "glseq"))


def csgl_outcomes(s: LabeledSequent, fuel: int = 100000, relevant: bool = True) -> tuple:
    """The reference's outcome of CSGL search on `s`, then glproof's, each
    with the fresh-label counter it ends at; labels are numbered as
    `search.decide_csgl` numbers them.  With `relevant` false, the
    reference searches every orL right premise, and glproof's side is the
    eager search below."""
    to_int = {lab: i for i, lab in enumerate(sorted(s.labels()))}
    rel = frozenset((to_int[a], to_int[b]) for a, b in s.rel)
    fa = frozenset((to_int[x], f) for x, f in s.ante)
    fc = frozenset((to_int[x], f) for x, f in s.cons)
    ref, new = [len(to_int)], [len(to_int)]
    search = _csgl_search if relevant else eager_csgl_search
    return ((_outcome(lambda *a: csgl_search(rel, fa, fc, csgl_pending(fa, fc), ref, frozenset(),
                                              *a, {}, relevant), fuel), ref[0]),
            (_outcome(lambda *a: search(set(rel), set(fa), set(fc), new, *a), fuel, "csgl"),
             new[0]))


# ---------------------------------------------------------------------------
# Eager CSGL search: `glproof.search._csgl_search` as it was before it
# skipped orL right premises that its left premise made unnecessary.  It
# searches every right premise, so the records, fuel and fresh labels differ
# on theorems; the proofs it gives are the ones the golden files recorded
# before that change, and the fixtures that need their shape take them here.

def eager_csgl_search(rel: set, fa: set, fc: Iterable, counter: list, fuel: list, dead_end: list):
    """Search from the tree sequent `rel; fa |- set(fc)` over integer
    labels, changing `rel` and `fa` in place.  `counter` holds the proof-global
    fresh-label counter, `fuel` the fuel left and `dead_end` the dead end,
    each in a one-element list.  A branch's `cands` lists, sorted, the 4L
    (kind 0) and boxL (kind 1) propagations `(kind, x, y, key, f)` it has
    not fired, one for each box `x: f` of `fa` and edge `xRy` of `rel`:
    boxes never leave `fa` nor edges `rel`, so each is inserted once, when
    its box or edge arrives.  A propagation node fires, and deletes, the
    first entry whose product is not in `fa`, so a decomposed propagation
    result is never re-derived (re-firing is redundant by admissible
    contraction).  Returns the proof's records or None."""
    n, fresh = fuel[0], counter[0]
    pending = sorted([(_ANTE_RANK[type(f)], x, f.key, f) for x, f in fa if type(f) in _ANTE_RANK])
    cands = sorted([(kind, x, y, f.key, f) for x, f in fa if type(f) is Box
                    for a, y in rel if a == x for kind in (0, 1)])
    # the root's consequent goes on as if a rule had added it
    side, other, ranks, adds = set(), fa, _CONS_RANK, fc
    fc, shared = side, set()
    # a frame is (record index, saved state) for an orL whose left premise runs
    recs, stack = [], []
    while True:
        for p in adds:  # the labeled formulas this node's rule put on `side`
            if p not in side:
                side.add(p)
                x, f = p
                r = ranks.get(type(f))
                if r is not None:
                    insort(pending, (r, x, f.key, f))
                elif p in other:  # id closes on a shared atom or box only
                    shared.add(p)
                elif type(f) is Box and side is fa:  # a shared box needs none: id closes
                    for a, y in rel:
                        if a == x:
                            insort(cands, (0, x, y, f.key, f))
                            insort(cands, (1, x, y, f.key, f))
        n -= 1
        if n < 0:
            raise FuelExhausted(fuel[0])
        if shared:
            x, g = min(shared, key=labeled_key)
            recs += ("id1" if type(g) is not Box else "id2"), x, g
        elif pending:
            rank, x, _, f = pending.pop(0)
            if rank == 0:
                fa.remove((x, f))
                recs += "negL", x, f
                side, other, ranks, adds = fc, fa, _CONS_RANK, ((x, f.sub),)
            elif rank == 1:
                fc.remove((x, f))
                recs += "negR", x, f
                side, other, ranks, adds = fa, fc, _ANTE_RANK, ((x, f.sub),)
            elif rank == 2:
                fc.remove((x, f))
                recs += "orR", x, f
                side, other, ranks, adds = fc, fa, _CONS_RANK, ((x, f.left), (x, f.right))
            else:  # orL: the left premise takes this state, the right one a copy
                fa.remove((x, f))
                stack.append((len(recs), (rel.copy(), fa.copy(), fc.copy(), pending.copy(),
                                          cands.copy())))
                recs += "orL", x, f, None
                side, other, ranks, adds = fa, fc, _ANTE_RANK, ((x, f.left),)
            continue
        else:
            # no local rule applies, so `pending` is empty from here on
            # propagation to a fixpoint: 4L then boxL, first candidate with a new product
            for i, (kind, x, y, _, f) in enumerate(cands):
                g = f if kind == 0 else f.sub
                if (y, g) not in fa:
                    del cands[i]
                    recs += ("4L" if kind == 0 else "boxL"), x, y, f.sub
                    side, other, ranks, adds = fa, fc, _ANTE_RANK, ((y, g),)
                    break
            else:
                # boxR expansion with the blocking condition; eager and sequential
                for x, f in sorted((p for p in fc if type(p[1]) is Box), key=labeled_key):
                    if any(a == x and (y, f) in fa and (y, f.sub) in fc for a, y in rel):
                        continue  # blocked
                    y, fresh = fresh, fresh + 1
                    rel.add((x, y))
                    for a, g in fa:  # the new edge's propagations
                        if a == x and type(g) is Box:
                            insort(cands, (0, x, y, g.key, g))
                            insort(cands, (1, x, y, g.key, g))
                    fa.add((y, f))  # at a fresh label, so it closes no id and has no edge
                    fc.remove((x, f))
                    recs += "boxR", x, y, f.sub
                    side, other, ranks, adds = fc, fa, _CONS_RANK, ((y, f.sub),)
                    break
                else:
                    # a leaf where no rule applies; a failing search reaches
                    # exactly one, since a premise is tried only after all
                    # before it have closed
                    dead_end[0] = (frozenset(rel), frozenset(fa), frozenset(fc))
                    fuel[0], counter[0] = n, fresh
                    return None
            continue
        # an id leaf closed this branch, and with it the left premise of the
        # innermost suspended orL: run its right one
        if not stack:
            fuel[0], counter[0] = n, fresh
            return recs
        i, (rel, fa, fc, pending, cands) = stack.pop()
        recs[i + 3] = len(recs)
        x, f = recs[i + 1], recs[i + 2]
        shared = set()
        side, other, ranks, adds = fa, fc, _ANTE_RANK, ((x, f.right),)


def eager_decide_csgl(s: LabeledSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """`search.decide_csgl` with the eager search."""
    tree_root(s)
    labels = sorted(s.labels())
    to_int = {lab: i for i, lab in enumerate(labels)}
    rel = {(to_int[a], to_int[b]) for a, b in s.rel}
    fa = {(to_int[x], f) for x, f in s.ante}
    fc = [(to_int[x], f) for x, f in s.cons]
    dead_end = [None]
    counter = [len(labels)]
    recs = eager_csgl_search(rel, fa, fc, counter, [cfg.fuel], dead_end)
    if recs is not None:
        return SearchResult(True, proof=_replay(recs, s, "csgl", _label_names(to_int, counter[0])))
    hint = _flat_hint(s) if cfg.oracle_hint else None
    return SearchResult(False, hint=hint, build=lambda: _labeled_from_state(
        dead_end[0], _label_names(to_int, counter[0])))


def eager_prove_csgl(f: Formula, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """`search.prove_formula(f, "csgl", cfg)` with the eager search."""
    return eager_decide_csgl(LabeledSequent((), (), (("x", f),)), cfg)
