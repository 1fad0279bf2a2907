"""Two former GLseq -> G3GL translations, references for the golden digests
recorded on their outputs.

`glseq_to_g3gl` built each boxGL as the seven-step template (w; boxL block;
4L block; boxR; (x/y); w), whose boxL/4L block and boxR sit at a template
label y that the `sub` node renames to the current label.  Its outputs are
the digests of tests/data/pipeline_golden.json, stage_golden.json and
stage_digest_golden.json.  The code is the former
`transform._g3gl_label_names` and `transform.glseq_to_g3gl`, with
`LabeledSequent.rename({y: lab})` in place of the deleted
`substitute(y, lab)`.

`glseq_to_g3gl_w` built the template at the current label, as (w; boxL
block; 4L block; boxR; w).  Its outputs are the digests of
tests/data/g3gl_golden.json.  The code is the former
`transform._g3gl_label_names` and `transform.glseq_to_g3gl` of that time.

glproof no longer accepts `sub` or `w` nodes, so these outputs are only
printed and compared, never checked.  Both call the public
`prove_general_id` for an id.
"""

from glproof.formula import Box
from glproof.rules import LOCAL_RULES
from glproof.sequents import (GentzenSequent, LabeledSequent, Proof, formula_key, mset_diff,
                              trampoline)
from glproof.transform import NotApplicable, prove_general_id
from rederive_reference import _drop


def _g3gl_label_names(p: Proof):
    """The labels `glseq_to_g3gl` creates for p, one (y, u) pair per boxGL in
    pre-order, named y0, y1, ... in breadth-first order of first occurrence.
    A template rooted at G3GL depth d introduces y in its boxR at d + 2 and u
    in the boxR's premise at d + 3, and puts its premise at d + 4 + 2|gamma|;
    every other node has its premises one level down and introduces none.
    Two births at one depth come from templates neither above the other, so
    their left-to-right order is the pre-order of their boxGLs."""
    births = []  # (depth, boxGL index in pre-order, 0 for y or 1 for u)
    stack = [(p, 0)]
    while stack:
        node, d = stack.pop()
        if node.rule == "boxGL":
            i = len(births) // 2
            births += [(d + 2, i, 0), (d + 3, i, 1)]
            stack.append((node.premises[0], d + 4 + 2 * len(node.meta["gamma"])))
        else:
            stack.extend((q, d + 1) for q in reversed(node.premises))
    names = [""] * len(births)
    for n, (_, i, k) in enumerate(sorted(births)):
        names[2 * i + k] = f"y{n}"
    return iter(zip(names[::2], names[1::2]))


def glseq_to_g3gl(p: Proof) -> Proof:
    """Label a Gentzen proof: Gamma |- Delta becomes x:Gamma |- x:Delta.
    Each boxGL becomes the seven-step template (w; boxL block; 4L block;
    boxR; (x/y); w) over the extended labeled calculus.  The root keeps the
    label x; the labels the templates create are named y0, y1, ... in
    breadth-first order of their first occurrence in the output."""
    names = _g3gl_label_names(p)

    def lab_seq(s: GentzenSequent, lab: str) -> LabeledSequent:
        # one label throughout, so the sides keep their order
        return LabeledSequent.of_sorted(frozenset(), tuple((lab, g) for g in s.ante),
                                        tuple((lab, g) for g in s.cons))

    def trans(node: Proof, lab: str):
        goal = lab_seq(node.conclusion, lab)
        if node.rule == "id":
            w = node.meta.get("principal")
            if w is None:
                w = min(set(node.conclusion.ante) & set(node.conclusion.cons),
                        key=formula_key)
            return prove_general_id("g3glext", goal, (lab, w))
        if node.rule in LOCAL_RULES:
            return Proof("g3glext", node.rule, goal,
                         (yield tuple(trans(q, lab) for q in node.premises)),
                         {"label": lab, "principal": node.meta["principal"]})
        if node.rule == "boxGL":
            gamma = tuple(node.meta["gamma"])
            phi = node.meta["phi"]
            y, u = next(names)
            sub = yield trans(node.premises[0], u)
            added = LabeledSequent(((y, u),), tuple((y, Box(g)) for g in gamma), ())
            c = sub.conclusion
            w1_concl = LabeledSequent(c.rel | added.rel, c.ante + added.ante, c.cons)
            cur = Proof("g3glext", "w", w1_concl, (sub,), {"added": added})
            for rule, parts in (("boxL", gamma), ("4L", [Box(g) for g in gamma])):
                for g, part in zip(gamma, parts):
                    concl = _drop(cur.conclusion, (u, part))
                    cur = Proof("g3glext", rule, concl, (cur,), {"label": y, "aux": u, "phi": g})
            boxr_concl = LabeledSequent((), tuple((y, Box(g)) for g in gamma),
                                        ((y, Box(phi)),))
            cur = Proof("g3glext", "boxR", boxr_concl, (cur,),
                        {"label": y, "fresh": u, "phi": phi})
            sub_concl = boxr_concl.rename({y: lab})
            cur = Proof("g3glext", "sub", sub_concl, (cur,), {"x": lab, "y": y})
            added2 = LabeledSequent.of_sorted(
                frozenset(), mset_diff(goal.ante, sub_concl.ante),
                mset_diff(goal.cons, sub_concl.cons))
            return Proof("g3glext", "w", goal, (cur,), {"added": added2})
        raise NotApplicable(f"translation does not handle {node.rule}")

    return trampoline(trans(p, "x"))


def _g3gl_w_label_names(p: Proof):
    """The labels `glseq_to_g3gl_w` creates for p, one per boxGL in
    pre-order, named y0, y1, ... in breadth-first order of first occurrence.
    A template rooted at G3GL depth d introduces its label in the boxR's
    premise at d + 2 and puts its premise at d + 3 + 2|gamma|; every other
    node has its premises one level down and introduces none.  Two births at
    one depth come from templates neither above the other, so their
    left-to-right order is the pre-order of their boxGLs."""
    births = []  # (depth, boxGL index in pre-order)
    stack = [(p, 0)]
    while stack:
        node, d = stack.pop()
        if node.rule == "boxGL":
            births.append((d + 2, len(births)))
            stack.append((node.premises[0], d + 3 + 2 * len(node.meta["gamma"])))
        else:
            stack.extend((q, d + 1) for q in reversed(node.premises))
    names = [""] * len(births)
    for n, (_, i) in enumerate(sorted(births)):
        names[i] = f"y{n}"
    return iter(names)


def glseq_to_g3gl_w(p: Proof) -> Proof:
    """Label a Gentzen proof: Gamma |- Delta becomes x:Gamma |- x:Delta.
    Each boxGL at label x becomes the template (w; boxL block; 4L block;
    boxR; w) over the extended labeled calculus, whose blocks and boxR sit
    at x and whose boxR creates the premise's label.  The root keeps the
    label x; the labels the templates create are named y0, y1, ... in
    breadth-first order of their first occurrence in the output."""
    names = _g3gl_w_label_names(p)

    def lab_seq(s: GentzenSequent, lab: str) -> LabeledSequent:
        # one label throughout, so the sides keep their order
        return LabeledSequent.of_sorted(frozenset(), tuple((lab, g) for g in s.ante),
                                        tuple((lab, g) for g in s.cons))

    def trans(node: Proof, lab: str):
        goal = lab_seq(node.conclusion, lab)
        if node.rule == "id":
            w = node.meta.get("principal")
            if w is None:
                w = min(set(node.conclusion.ante) & set(node.conclusion.cons),
                        key=formula_key)
            return prove_general_id("g3glext", goal, (lab, w))
        if node.rule in LOCAL_RULES:
            return Proof("g3glext", node.rule, goal,
                         (yield tuple(trans(q, lab) for q in node.premises)),
                         {"label": lab, "principal": node.meta["principal"]})
        if node.rule == "boxGL":
            gamma = tuple(node.meta["gamma"])
            phi = node.meta["phi"]
            u = next(names)
            sub = yield trans(node.premises[0], u)
            added = LabeledSequent(((lab, u),), tuple((lab, Box(g)) for g in gamma), ())
            c = sub.conclusion
            w1_concl = LabeledSequent(c.rel | added.rel, c.ante + added.ante, c.cons)
            cur = Proof("g3glext", "w", w1_concl, (sub,), {"added": added})
            for rule, parts in (("boxL", gamma), ("4L", [Box(g) for g in gamma])):
                for g, part in zip(gamma, parts):
                    concl = _drop(cur.conclusion, (u, part))
                    cur = Proof("g3glext", rule, concl, (cur,), {"label": lab, "aux": u, "phi": g})
            boxr_concl = LabeledSequent((), tuple((lab, Box(g)) for g in gamma),
                                        ((lab, Box(phi)),))
            cur = Proof("g3glext", "boxR", boxr_concl, (cur,),
                        {"label": lab, "fresh": u, "phi": phi})
            added2 = LabeledSequent.of_sorted(
                frozenset(), mset_diff(goal.ante, boxr_concl.ante),
                mset_diff(goal.cons, boxr_concl.cons))
            return Proof("g3glext", "w", goal, (cur,), {"added": added2})
        raise NotApplicable(f"translation does not handle {node.rule}")

    return trampoline(trans(p, "x"))


# the `to-g3gl` entries of `transform.PASSES` that run these translations
SUB_PASS = ("glseq", glseq_to_g3gl)
W_PASS = ("glseq", glseq_to_g3gl_w)
