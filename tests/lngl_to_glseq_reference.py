"""The former contracting translation, a reference for `transform.lngl_to_glseq`.

It built each GLseq node by hand.  At each modal block it contracted, one
copy at a time, the `4L` and `boxL` copies that the block's end component
did not supply, with the Gentzen admissible contraction `_contract` kept
here; then it called `weaken`, which re-derives the whole subproof above
the block, to reach the `boxGL` premise.  `transform.lngl_to_glseq` builds
the same rules as one rule tree and must return an equal proof, which
prints identically.  The code is the former `transform.lngl_to_glseq`,
with its own copies of `_contract` and `_drop`.
"""

from collections import Counter

from glproof.formula import Box, Formula
from glproof.rules import LOCAL_RULES, local_premises, premises_of
from glproof.sequents import GentzenSequent, Proof, formula_key, mset_remove, trampoline
from glproof.transform import NotApplicable, NotNormalForm
from rederive_reference import _rederive, apply_inverse, weaken


def _drop(s: GentzenSequent, side: str, item) -> GentzenSequent:
    """s with one occurrence of `item` removed from `side`."""
    if item not in getattr(s, side):
        raise NotApplicable(f"{item} is not in the {side} of {s}")
    ante = mset_remove(s.ante, item) if side == "ante" else s.ante
    cons = mset_remove(s.cons, item) if side == "cons" else s.cons
    return GentzenSequent.of_sorted(ante, cons)


def _contract(p: Proof, side: str, item):
    """Walker: a proof of p's conclusion with one occurrence of `item` removed
    from `side`; standard induction using inversion on the remaining copy."""
    calculus = p.calculus
    target = _drop(p.conclusion, side, item)
    f = p.meta.get("principal")
    if p.rule in LOCAL_RULES and item == f and side == ("ante" if p.rule.endswith("L") else "cons"):
        # one copy is decomposed here: invert the other, contract the parts
        # the schema adds to each premise
        alone = ((item,), ()) if side == "ante" else ((), (item,))
        subs = []
        for i, (ante, cons) in enumerate(local_premises(p.rule, f, None, *alone, lambda *s: s)):
            sub = apply_inverse(p.rule, i, p.premises[i], dict(p.meta))
            for part_side, part in [("ante", g) for g in ante] + [("cons", g) for g in cons]:
                sub = yield _contract(sub, part_side, part)
            subs.append(sub)
        return Proof(calculus, p.rule, target, tuple(subs), dict(p.meta))

    if p.rule in ("boxGL", "box4") and side == "ante" and isinstance(item, Box):
        gamma = tuple(p.meta["gamma"])
        if gamma.count(item.sub) > target.ante.count(item):
            # both copies sat inside the box partition: drop one from it
            # and contract the premise
            p = Proof(calculus, p.rule, p.conclusion, p.premises,
                      {"gamma": mset_remove(gamma, item.sub), "phi": p.meta["phi"]})
            def twice(q: Proof, _goal):
                return (yield _contract((yield _contract(q, "ante", item)), "ante", item.sub))
            return (yield from _rederive(p, target, twice))

    # context case (also a copy in an absorbed context): the item rides
    # through every premise that reads it
    return (yield from _rederive(p, target, lambda q, _goal: _contract(q, side, item)))


def lngl_to_glseq(p: Proof) -> Proof:
    """Translate a normal-form LNGL proof componentwise: local steps map to
    their end components, each modal block maps to weakening then boxGL."""

    def trans(node: Proof):
        rule = node.rule
        end = node.conclusion.end
        if rule in LOCAL_RULES or rule in ("id1", "id2"):
            # the same rule on the end component; id1 and id2 are instances of id
            return Proof("glseq", "id" if rule in ("id1", "id2") else rule, end,
                         (yield tuple(map(trans, node.premises))),
                         {"principal": node.meta["principal"]})
        if rule == "boxR":
            phi = node.meta["phi"]
            cur = node.premises[0]
            from_4l: list[Formula] = []
            while cur.rule == "4L":
                from_4l.append(cur.meta["phi"])
                cur = cur.premises[0]
            from_boxl: list[Formula] = []
            while cur.rule == "boxL":
                from_boxl.append(cur.meta["phi"])
                cur = cur.premises[0]
            sub = yield trans(cur)
            a, b = Counter(from_4l), Counter(from_boxl)
            avail = Counter(g.sub for g in end.ante if isinstance(g, Box))
            # clip multiplicities to what the conclusion can supply
            sub2 = sub
            for g in sorted(set(a) | set(b), key=formula_key):
                for _ in range(a[g] - min(a[g], avail[g])):
                    sub2 = yield _contract(sub2, "ante", Box(g))
                for _ in range(b[g] - min(b[g], avail[g])):
                    sub2 = yield _contract(sub2, "ante", g)
                a[g] = min(a[g], avail[g])
                b[g] = min(b[g], avail[g])
            gamma = Counter({g: max(a[g], b[g]) for g in set(a) | set(b)})
            gamma_t = tuple(sorted(gamma.elements(), key=formula_key))
            target = premises_of("glseq", "boxGL", {"gamma": gamma_t, "phi": phi}, end)[0]
            return Proof("glseq", "boxGL", end, (weaken(sub2, target),),
                         {"gamma": gamma_t, "phi": phi})
        raise NotNormalForm(f"unexpected {rule} outside a modal block")

    return trampoline(trans(p))
