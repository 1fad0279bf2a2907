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
two sides, a state carries a `pending` list, kept sorted, with one entry per
Not or Or formula on either side: `(rank, key, formula)` in GLseq and
`(rank, label, key, formula)` in CSGL, where the rank is 0 for a Not in the
antecedent (negL), 1 for a Not in the consequent (negR), 2 for an Or in the
consequent (orR) and 3 for an Or in the antecedent (orL).  Tuple order is
then rule priority first and the sides' canonical order (`formula_key`,
`labeled_key`) second, so `pending[0]` is exactly the formula that taking
the least Not of the antecedent, else of the consequent, else the least Or
of the consequent, else of the antecedent, would pick.  A key names its
formula, so no comparison reaches the formula itself.  Each rule removes the
entry of its principal formula and inserts one for each Not or Or it puts on
a side that did not hold it.  A state that applies a rule shares no formula
between its sides (in CSGL, no atom or box), so the id test of its premise
looks only at the formulas the rule added.

Both searches run on an explicit stack, so a branch's height costs no
Python recursion.  Each branch owns one mutable state: the two sides as
sets, `pending`, and in CSGL also `rel` and `cands`, the sorted list of
4L/boxL propagations not yet fired on the branch.  Boxes never leave the
antecedent and edges never leave `rel`, so a propagation's entry goes in
once, when its box or its edge arrives, and leaves when it fires; a
propagation node takes the first entry whose product is new, and no node
scans the sides for candidates.  A one-premise rule (negL, negR, orR, and
in CSGL 4L, boxL and boxR) changes that state in place.  orL hands the
state to its left premise and saves a copy for the right one, which runs
only after the left one closes.  Each boxGL premise of GLseq starts a
fresh state, one consequent box at a time in `formula_key` order.

Relevance (CSGL): an orL on `x: A | B` whose left premise closed without
reading `x: A` needs no right premise, and CSGL search does not search it
(dependency-directed backjumping, as in tableau reasoners, here without any
backtracking).  A read is a record whose rule needs `x: A` in the
antecedent: a negL or orL with principal `x: A`, an id1 or id2 with witness
`x: A`, or a 4L or boxL whose box is `x: A`.  No other rule's schema looks
at an antecedent formula it does not name, so the left premise's records,
replayed over the orL's conclusion, where `x: A | B` stands in place of
`x: A`, derive the same rules with `x: A | B` as an idle context formula.
Skipping is therefore sound, and it changes no verdict but one: a search
that ran out of fuel in right premises may now prove its theorem.  Against
a search that tries every right premise, the records, the fuel spent, the
numbering of fresh labels (and so their names) and the proof differ on
theorems, and the dead end of a failing search may carry other fresh-label
numbers.  GLseq search keeps every right premise.

The proof is written as it is found, one record per rule instance appended
to a single list in preorder (see `_replay`).  A suspended orL waits on the
stack with its record's index and its saved state (in CSGL, also the count
of reads of its left disjunct); when its left premise closes, its record
gets the index where the right premise's records begin, or -1 where CSGL
skips the right premise, and the frame leaves the stack.  A suspended boxGL waits with the list's
length before its premise; a premise that fails is cut off the list there
before the next one is tried.  CSGL never backtracks: its first failing
leaf fails the whole search.

Dead ends: the first state at which a failing search gives up is a leaf,
because an interior node fails only after a premise has failed first.  So
the saturated sequent a failed search returns is one where no rule applies:
it has no Not or Or formula (`pending` is empty), no formula on both sides,
and in GLseq no boxed consequent.  In CSGL every 4L and boxL propagation
has fired or adds nothing new (a boxL product that is a Not or an Or was
decomposed on the branch), and every boxed consequent is blocked.

Fuel (`FuelExhausted`) is the backstop.  Emitted proofs are multiset-based:
the search's records are replayed over the original multisets, and any slack
left by dropped duplicates is absorbed by id and the modal rules, whose
contexts are arbitrary.
"""

from __future__ import annotations

from bisect import insort
from itertools import count
from typing import Callable, Iterable, Optional

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
    """A search spent its whole budget of `nodes` nodes."""

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.nodes = nodes

    def __str__(self) -> str:
        return f"search ran out of fuel after {self.nodes} nodes"


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
# A search writes its proof into one flat list, one record per rule
# instance, in preorder.  A record is a run of slots: the rule name, then its
# meta values in the key order `_META_KEYS` gives the rule; an orL record has
# one slot more, the index where its right premise's record begins, or -1
# where CSGL search skipped the right premise (its left premise then proves
# the orL's conclusion, and replay derives it there).  Every other premise
# begins right after its rule's record.  A search that runs out
# of fuel holds ~100k records at once, so a record costs no object of its own
# (~30 B in all, against ~80 B for a tuple), and meta dicts are built only on
# replay.

_P, _LP, _LAP = ("principal",), ("label", "principal"), ("label", "aux", "phi")
_META_KEYS = {
    "glseq": {**dict.fromkeys(("id", "negL", "negR", "orR", "orL"), _P),
              "boxGL": ("gamma", "phi")},
    "csgl": {**dict.fromkeys(("id1", "id2", "negL", "negR", "orR", "orL"), _LP),
             "4L": _LAP, "boxL": _LAP, "boxR": ("label", "fresh", "phi")},
}
_LEAVES = ("id", "id1", "id2")


def _replay(recs: list, seq: Sequent, calculus: str, names: Optional[dict] = None) -> Proof:
    """Re-derive a search's records over the original multisets; `names`
    maps CSGL's integer state labels to label names."""
    keys = _META_KEYS[calculus]

    def parts(i: int):
        while True:
            rule = recs[i]
            k = keys.get(rule, ())
            j = i + 1 + len(k)  # where the record's meta values end
            if rule != "orL" or recs[j] != -1:
                break
            i = j + 1  # a skipped orL: its left premise proves its conclusion
        meta = dict(zip(k, recs[i + 1:j]))
        if names is not None:
            for key in LABEL_KEYS:
                if key in meta:
                    meta[key] = names[meta[key]]
        if rule in _LEAVES:
            return rule, meta, ()
        return rule, meta, (j + 1, recs[j]) if rule == "orL" else (j,)

    return derive(calculus, 0, seq, parts)


# ---------------------------------------------------------------------------
# The pending list: the Not/Or formulas of both sides, ranked by side in the
# order their rules are tried (negL, negR, orR, orL).  Atoms and boxes have
# no local rule and no rank.

_ANTE_RANK = {Not: 0, Or: 3}
_CONS_RANK = {Not: 1, Or: 2}


# ---------------------------------------------------------------------------
# GLseq

def _glseq_search(fa: set, fc: Iterable, fuel: list, dead_end: list):
    """Search from the set-sequent `fa |- set(fc)`, changing `fa` in place;
    `fuel` holds the fuel left and `dead_end` the first dead end, each in a
    one-element list.  Returns the proof's records or None."""
    n = fuel[0]
    pending = sorted([(_ANTE_RANK[type(f)], f.key, f) for f in fa if type(f) in _ANTE_RANK])
    # the root's consequent goes on as if a rule had added it
    side, other, ranks, adds = set(), fa, _CONS_RANK, fc
    fc, shared = side, set()
    # a frame is (record index, saved state) for an orL whose left premise
    # runs, and (list length before the premise, gamma, boxes left,
    # antecedent without the box, its pending entries) for boxGL
    recs, stack = [], []
    while True:
        for g in adds:  # the formulas this node's rule put on `side`
            if g not in side:
                side.add(g)
                r = ranks.get(type(g))
                if r is not None:
                    insort(pending, (r, g.key, g))
                if g in other:
                    shared.add(g)
        n -= 1
        if n < 0:
            raise FuelExhausted(fuel[0])
        if shared:
            recs += "id", min(shared, key=formula_key)
            closed = True
        elif pending:
            rank, _, f = pending.pop(0)
            if rank == 0:
                fa.remove(f)
                recs += "negL", f
                side, other, ranks, adds = fc, fa, _CONS_RANK, (f.sub,)
            elif rank == 1:
                fc.remove(f)
                recs += "negR", f
                side, other, ranks, adds = fa, fc, _ANTE_RANK, (f.sub,)
            elif rank == 2:
                fc.remove(f)
                recs += "orR", f
                side, other, ranks, adds = fc, fa, _CONS_RANK, (f.left, f.right)
            else:  # orL: the left premise takes this state, the right one a copy
                fa.remove(f)
                stack.append((len(recs), (fa.copy(), fc.copy(), pending.copy())))
                recs += "orL", f, None
                side, other, ranks, adds = fa, fc, _ANTE_RANK, (f.left,)
            continue
        else:
            # modal choices, left to right over the consequent order; the
            # frame's failed "premise" below starts the first one
            boxes = sorted((g for g in fc if type(g) is Box), key=formula_key)
            if boxes:
                boxed = [g for g in fa if type(g) is Box]
                gamma = tuple(sorted((g.sub for g in boxed), key=formula_key))
                entries = sorted((_ANTE_RANK[type(g)], g.key, g) for g in gamma
                                 if type(g) in _ANTE_RANK)
                stack.append((len(recs), gamma, iter(boxes), {*boxed, *gamma}, entries))
            elif dead_end[0] is None:  # a leaf where no rule applies
                dead_end[0] = (frozenset(fa), frozenset(fc))
            closed = False
        # this branch closed, or failed if `closed` is false
        while stack:
            frame = stack.pop()
            if len(frame) == 2:  # orL
                if closed:  # the left premise closed: run the right one
                    i, (fa, fc, pending) = frame
                    recs[i + 2] = len(recs)
                    shared = set()
                    side, other, ranks, adds = fa, fc, _ANTE_RANK, (recs[i + 1].right,)
                    break
            elif not closed:  # a fresh state for the next boxGL premise
                del recs[frame[0]:]
                f = next(frame[2], None)
                if f is not None:
                    stack.append(frame)
                    recs += "boxGL", frame[1], f.sub
                    fa, fc, pending = set(frame[3]), set(), frame[4].copy()
                    fa.add(f)
                    shared = set()
                    side, other, ranks, adds = fc, fa, _CONS_RANK, (f.sub,)
                    break
        else:
            fuel[0] = n
            return recs if closed else None


def decide_glseq(s: GentzenSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure for the Gentzen calculus."""
    dead_end = [None]
    recs = _glseq_search(set(s.ante), s.cons, [cfg.fuel], dead_end)
    if recs is not None:
        return SearchResult(True, proof=_replay(recs, s, "glseq"))
    hint = oracle_validity(_query_formula(s)) if cfg.oracle_hint else None
    return SearchResult(False, hint=hint, build=lambda: GentzenSequent(*dead_end[0]))


def _query_formula(s: GentzenSequent) -> Formula:
    if not s.ante and len(s.cons) == 1:
        return s.cons[0]
    return gentzen_interpretation(s)


# ---------------------------------------------------------------------------
# CSGL

def _csgl_search(rel: set, fa: set, fc: Iterable, counter: list, fuel: list, dead_end: list):
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
    contraction).  `reads` counts the records that read each antecedent
    labeled formula that is the left disjunct of a suspended orL: one whose
    left premise closes without a read of it skips its right premise.  Only
    the reads after the orL matter, so its count starts there and ends with
    the outermost orL that watches it.  Returns the proof's records or
    None."""
    n, fresh = fuel[0], counter[0]
    reads: dict = {}
    pending = sorted([(_ANTE_RANK[type(f)], x, f.key, f) for x, f in fa if type(f) in _ANTE_RANK])
    cands = sorted([(kind, x, y, f.key, f) for x, f in fa if type(f) is Box
                    for a, y in rel if a == x for kind in (0, 1)])
    # the root's consequent goes on as if a rule had added it
    side, other, ranks, adds = set(), fa, _CONS_RANK, fc
    fc, shared = side, set()
    # a frame is (record index, its left disjunct, that formula's count of
    # reads or None if it had none, saved state) for an orL whose left
    # premise runs
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
            p = min(shared, key=labeled_key)
            if reads and p in reads:
                reads[p] += 1
            x, g = p
            recs += ("id1" if type(g) is not Box else "id2"), x, g
        elif pending:
            rank, x, _, f = pending.pop(0)
            if rank == 0:
                p = (x, f)
                fa.remove(p)
                if reads and p in reads:
                    reads[p] += 1
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
                p = (x, f)
                fa.remove(p)
                if reads and p in reads:
                    reads[p] += 1
                left = (x, f.left)
                stack.append((len(recs), left, reads.get(left),
                              (rel.copy(), fa.copy(), fc.copy(), pending.copy(), cands.copy())))
                reads.setdefault(left, 0)
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
                    if reads and (x, f) in reads:
                        reads[x, f] += 1
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
        # innermost suspended orL: run its right one, unless nothing in the
        # left premise read its left disjunct, so that it proves the orL's
        # conclusion too; then the orL closed, and so did the next one's left
        while stack:
            i, left, before, state = stack.pop()
            if (reads.pop(left) if before is None else reads[left]) == (before or 0):
                recs[i + 3] = -1
                continue
            recs[i + 3] = len(recs)
            rel, fa, fc, pending, cands = state
            shared = set()
            side, other, ranks, adds = fa, fc, _ANTE_RANK, ((left[0], recs[i + 2].right),)
            break
        else:
            fuel[0], counter[0] = n, fresh
            return recs


def decide_csgl(s: LabeledSequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward decision procedure over tree sequents."""
    tree_root(s)  # validates the tree shape
    labels = sorted(s.labels())
    to_int = {lab: i for i, lab in enumerate(labels)}
    rel = {(to_int[a], to_int[b]) for a, b in s.rel}
    fa = {(to_int[x], f) for x, f in s.ante}
    fc = [(to_int[x], f) for x, f in s.cons]
    dead_end = [None]
    counter = [len(labels)]
    recs = _csgl_search(rel, fa, fc, counter, [cfg.fuel], dead_end)
    if recs is not None:
        return SearchResult(True, proof=_replay(recs, s, "csgl", _label_names(to_int, counter[0])))
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
