"""The former projecting linearization, a reference for `transform.linearize`.

It built each node's conclusion by hand: `project_chain` of the CSGL
conclusion on the node's chain, with `root_path` run at every leaf, and
at each dropped `boxR` whose label lies on the chain it called `weaken`,
which re-derives the whole LNGL subproof above it.  `transform.linearize`
keeps and drops the same rules and must return an equal proof, which
prints identically.  The code is the former `transform.linearize`, with
the deleted `LinearNestedSequent.replace_at` written out.
"""

from glproof.checkers import end_active_report
from glproof.formula import Box
from glproof.rules import PROPAGATION_RULES, RULES_OF
from glproof.sequents import Proof, project_chain, root_path, trampoline
from glproof.transform import NotApplicable, NotEndActive
from rederive_reference import weaken


def linearize(p: Proof) -> Proof:
    """Shed the tree structure of an end-active CSGL proof, keeping one
    root-to-leaf path per branch; output is an LNGL proof of the projection."""
    # checked up front: `lin` drops sibling subtrees unseen, so it cannot
    # find every rule application that is not end-active
    if not end_active_report(p).accepted:
        raise NotEndActive("linearization needs an end-active proof")

    def lin(node: Proof):
        c = node.conclusion
        rule = node.rule
        if rule == "boxR":
            x, y, phi = node.meta["label"], node.meta["fresh"], node.meta["phi"]
            chain, lp = yield lin(node.premises[0])
            if chain[-1] == y:
                new_chain = chain[:-1]
                concl = project_chain(c, new_chain)
                return new_chain, Proof("lngl", "boxR", concl, (lp,), {"phi": phi})
            if x in chain:
                i = chain.index(x)
                lc = lp.conclusion
                comps = list(lc.components)
                comps[i] = comps[i].with_cons(Box(phi))
                return chain, weaken(lp, type(lc)(comps))
            return chain, lp
        if rule not in RULES_OF["csgl"]:
            raise NotApplicable(f"linearization does not handle rule {rule}")
        # every other rule acts at one label: keep it where that label ends
        # the chain of each premise, drop it otherwise
        x = node.meta["aux" if rule in PROPAGATION_RULES else "label"]
        chain = root_path(c, x) if not node.premises else None
        subs = []
        for q in node.premises:
            sub_chain, lq = yield lin(q)
            if sub_chain[-1] != x:
                return sub_chain, lq
            chain = chain or sub_chain
            subs.append(lq)
        meta = {k: v for k, v in node.meta.items() if k not in ("label", "aux")}
        return chain, Proof("lngl", rule, project_chain(c, chain), tuple(subs), meta)

    return trampoline(lin(p))[1]
