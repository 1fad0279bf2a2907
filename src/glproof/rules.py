"""Rule schemas for all six calculi: deterministic premise reconstruction.

Every rule application carries enough metadata (principal formula, labels,
box partition, fresh label) that its premises are a function of the
conclusion.  Checking therefore never searches; it reconstructs and compares.
`derive` runs the schemas top-down over a tree of rule instances, giving
each node its conclusion and recording the premises it derived, so that
checking a derived node need not reconstruct them.
"""

from __future__ import annotations

from .formula import Atom, Box, Not, Or
from .sequents import (
    GentzenSequent,
    LabeledSequent,
    LinearNestedSequent,
    Proof,
    Sequent,
    insert_sorted,
    mset_contains,
    mset_remove,
)

# Failure codes (stable identifiers surfaced by the CLI)
SCHEMA_MISMATCH = "SchemaMismatch"
WRONG_PREMISE_COUNT = "WrongPremiseCount"
BAD_PARTITION = "BadPartition"
FRESHNESS_VIOLATION = "FreshnessViolation"
UNKNOWN_RULE = "UnknownRule"
UNKNOWN_RULE_STRICT = "UnknownRuleInStrictMode"
NOT_A_TREE = "NotATree"
NON_END_APPLICATION = "NonEndApplication"
BAD_BACKLINK = "BadBacklink"
OPEN_LEAF = "OpenLeaf"
LINT_NO_BOX_ON_CYCLE = "LintNoBoxOnCycle"
BLOCK_VIOLATION = "BlockViolation"
CALCULUS_MISMATCH = "CalculusMismatch"
INTERNAL_ERROR = "InternalError"


class RuleError(Exception):
    def __init__(self, code: str, message: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(message)


LOCAL_RULES = ("negL", "negR", "orL", "orR")
PROPAGATION_RULES = ("4L", "boxL")
INITIAL_RULES = ("id", "id1", "id2", "ir")

GENTZEN_RULES = ("id", "negL", "negR", "orL", "orR")
RULES_OF = {
    "glseq": GENTZEN_RULES + ("boxGL",),
    "k4seq": GENTZEN_RULES + ("box4",),
    "g3gl": ("id1", "id2", "ir", "tr", "negL", "negR", "orL", "orR", "boxL", "boxR"),
    "csgl": ("id1", "id2", "negL", "negR", "orL", "orR", "boxL", "boxR", "4L"),
    "lngl": ("id1", "id2", "negL", "negR", "orL", "orR", "boxL", "boxR", "4L"),
}
EXTENDED_EXTRA = ("4L",)
RULES_OF["g3glext"] = RULES_OF["g3gl"] + EXTENDED_EXTRA


# ---------------------------------------------------------------------------
# Local and initial rules: one schema on a pair of sides
#
# negL/negR/orL/orR and id1/id2 read one pair of sides (ante, cons): a
# Gentzen sequent, the end component of a linear nested sequent (items are
# formulas, x is None), or a labeled sequent at label x (items are (x, g)).

# the local rule that decomposes a formula of this type in the antecedent
# (True) or the consequent (False)
LOCAL_RULE_OF = {(Not, True): "negL", (Not, False): "negR", (Or, True): "orL", (Or, False): "orR"}


def local_premises(rule: str, phi, x, ante: tuple, cons: tuple, make, pre: tuple = ()) -> list:
    """The premises of a local rule with principal phi, each built from its
    canonical sides by make(*pre, ante, cons)."""
    item = phi if x is None else (x, phi)
    if rule == "negL":
        if type(phi) is Not and item in ante:
            sub = phi.sub if x is None else (x, phi.sub)
            return [make(*pre, mset_remove(ante, item), insert_sorted(cons, (sub,)))]
    elif rule == "negR":
        if type(phi) is Not and item in cons:
            sub = phi.sub if x is None else (x, phi.sub)
            return [make(*pre, insert_sorted(ante, (sub,)), mset_remove(cons, item))]
    elif rule == "orL":
        if type(phi) is Or and item in ante:
            rest = mset_remove(ante, item)
            a, b = (phi.left, phi.right) if x is None else ((x, phi.left), (x, phi.right))
            return [make(*pre, insert_sorted(rest, (a,)), cons),
                    make(*pre, insert_sorted(rest, (b,)), cons)]
    elif type(phi) is Or and item in cons:
        parts = (phi.left, phi.right) if x is None else ((x, phi.left), (x, phi.right))
        return [make(*pre, ante, insert_sorted(mset_remove(cons, item), parts))]
    what = "negation" if rule[0] == "n" else "disjunction"
    side = "antecedent" if rule[-1] == "L" else "consequent"
    at = "" if x is None else f"{x}:"
    raise RuleError(SCHEMA_MISMATCH, f"{rule} principal {at}{phi} not a {what} in {side}")


def _initial(rule: str, phi, x, ante: tuple, cons: tuple) -> list:
    """id1 (an atom) or id2 (a boxed formula) on both sides: no premises."""
    if not isinstance(phi, Atom if rule == "id1" else Box):
        what = "an atom" if rule == "id1" else "a boxed formula"
        raise RuleError(SCHEMA_MISMATCH, f"{rule} witness must be {what}")
    item = phi if x is None else (x, phi)
    if item not in ante or item not in cons:
        at = "" if x is None else f"{x}:"
        raise RuleError(SCHEMA_MISMATCH, f"{rule} witness {at}{phi} not on both sides")
    return []


# ---------------------------------------------------------------------------
# Gentzen sequents (GLseq / K4seq)

def _gentzen_premises(rule: str, meta: dict, c: GentzenSequent) -> list[GentzenSequent]:
    if rule == "id":
        phi = meta.get("principal")
        if phi is not None:
            if phi not in c.ante or phi not in c.cons:
                raise RuleError(SCHEMA_MISMATCH, f"id witness {phi} not on both sides")
        elif not set(c.ante) & set(c.cons):
            raise RuleError(SCHEMA_MISMATCH, "id needs a shared formula")
        return []
    if rule in LOCAL_RULES:
        return local_premises(rule, meta["principal"], None, c.ante, c.cons,
                              GentzenSequent.of_sorted)
    if rule in ("boxGL", "box4"):
        gamma = tuple(meta["gamma"])
        phi = meta["phi"]
        boxes = tuple(Box(g) for g in gamma)
        if not mset_contains(c.ante, boxes):
            raise RuleError(BAD_PARTITION, f"{rule} partition boxes not in antecedent")
        if Box(phi) not in c.cons:
            raise RuleError(BAD_PARTITION, f"{rule} box of {phi} not in consequent")
        ante = boxes + gamma + ((Box(phi),) if rule == "boxGL" else ())
        return [GentzenSequent(ante, (phi,))]
    raise RuleError(UNKNOWN_RULE, f"unknown Gentzen rule {rule}")


# ---------------------------------------------------------------------------
# Labeled sequents (G3GL / G3GLext / CSGL)

def _labeled_premises(rule: str, meta: dict, c: LabeledSequent) -> list[LabeledSequent]:
    if rule in LOCAL_RULES:
        return local_premises(rule, meta["principal"], meta["label"], c.ante, c.cons,
                              LabeledSequent.of_sorted, (c.rel,))
    if rule in ("id1", "id2"):
        return _initial(rule, meta["principal"], meta["label"], c.ante, c.cons)
    if rule == "ir":
        x = meta["label"]
        if (x, x) not in c.rel:
            raise RuleError(SCHEMA_MISMATCH, f"ir needs {x}R{x} in the sequent")
        return []
    if rule == "tr":
        x, y, z = meta["x"], meta["y"], meta["z"]
        if (x, y) not in c.rel or (y, z) not in c.rel:
            raise RuleError(SCHEMA_MISMATCH, f"tr needs {x}R{y} and {y}R{z}")
        return [c.with_rel((x, z))]
    if rule in ("boxL", "4L"):
        x, y = meta["label"], meta["aux"]
        phi = meta["phi"]
        if (x, y) not in c.rel:
            raise RuleError(SCHEMA_MISMATCH, f"{rule} needs {x}R{y}")
        if (x, Box(phi)) not in c.ante:
            raise RuleError(SCHEMA_MISMATCH, f"{rule} principal {x}:[]{phi} not in antecedent")
        added = phi if rule == "boxL" else Box(phi)
        return [c.with_ante((y, added))]
    if rule == "boxR":
        x, y = meta["label"], meta["fresh"]
        phi = meta["phi"]
        if (x, Box(phi)) not in c.cons:
            raise RuleError(SCHEMA_MISMATCH, f"boxR principal {x}:[]{phi} not in consequent")
        if c.has_label(y):
            raise RuleError(FRESHNESS_VIOLATION, f"label {y} occurs in the conclusion", detail=y)
        return [
            LabeledSequent.of_sorted(
                c.rel | {(x, y)},
                insert_sorted(c.ante, ((y, Box(phi)),)),
                insert_sorted(mset_remove(c.cons, (x, Box(phi))), ((y, phi),)),
            )
        ]
    raise RuleError(UNKNOWN_RULE, f"unknown labeled rule {rule}")


# ---------------------------------------------------------------------------
# Linear nested sequents (LNGL)

def _lns_premises(rule: str, meta: dict, c: LinearNestedSequent) -> list[LinearNestedSequent]:
    end = c.end
    if rule in LOCAL_RULES:
        return [c.replace_end(g) for g in local_premises(
            rule, meta["principal"], None, end.ante, end.cons, GentzenSequent.of_sorted)]
    if rule in ("id1", "id2"):
        return _initial(rule, meta["principal"], None, end.ante, end.cons)
    if rule in ("4L", "boxL"):
        phi = meta["phi"]
        if len(c) < 2:
            raise RuleError(SCHEMA_MISMATCH, f"{rule} needs at least two components")
        if Box(phi) not in c.components[-2].ante:
            raise RuleError(SCHEMA_MISMATCH, f"{rule} principal []{phi} not in the previous component")
        added = Box(phi) if rule == "4L" else phi
        return [c.replace_end(end.with_ante(added))]
    if rule == "boxR":
        phi = meta["phi"]
        if Box(phi) not in end.cons:
            raise RuleError(SCHEMA_MISMATCH, f"boxR principal []{phi} not in end consequent")
        return [
            c.replace_end(
                GentzenSequent.of_sorted(end.ante, mset_remove(end.cons, Box(phi))),
                GentzenSequent.of_sorted((Box(phi),), (phi,)),
            )
        ]
    raise RuleError(UNKNOWN_RULE, f"unknown linear nested rule {rule}")


# ---------------------------------------------------------------------------
# Dispatch

def premises_of(calculus: str, rule: str, meta: dict, conclusion: Sequent) -> list[Sequent]:
    """Reconstruct the premises a rule instance must have; validates the
    conclusion-side conditions (principal present, freshness, partition)."""
    try:
        if calculus in ("glseq", "k4seq"):
            if rule in ("boxGL", "box4") and rule != ("boxGL" if calculus == "glseq" else "box4"):
                raise RuleError(UNKNOWN_RULE, f"{rule} is not a {calculus} rule")
            return _gentzen_premises(rule, meta, conclusion)
        if calculus in ("g3gl", "g3glext", "csgl"):
            return _labeled_premises(rule, meta, conclusion)
        if calculus == "lngl":
            return _lns_premises(rule, meta, conclusion)
    except KeyError as e:
        raise RuleError(SCHEMA_MISMATCH, f"{rule} requires meta key '{e.args[0]}'") from None
    raise RuleError(UNKNOWN_RULE, f"unknown calculus {calculus}")


def derive(calculus: str, tree, conclusion: Sequent, parts) -> Proof:
    """The proof with the rules of `tree` that concludes `conclusion`: each
    premise's conclusion is derived from its parent's by `premises_of`, once,
    top-down.  `parts(node)` gives a node's rule, its meta and its children;
    a node with the wrong number of children raises `WrongPremiseCount`.
    Each node records its goals, the premise conclusions `premises_of`
    returned for it (a leaf the shared empty tuple), so that a checker need
    not derive them again; its premises conclude those very objects.

    Two passes, no recursion: the first visits the nodes in pre-order on an
    explicit stack, so the first node to fail is the first in pre-order; the
    second builds them in reverse pre-order, where a node's premises are the
    last ones built, its first premise last of all."""
    nodes = []
    stack = [(tree, conclusion)]
    push = stack.append
    while stack:
        node, seq = stack.pop()
        rule, meta, children = parts(node)
        goals = premises_of(calculus, rule, meta, seq)
        n = len(goals)
        if n != len(children):
            raise RuleError(WRONG_PREMISE_COUNT,
                            f"{rule} needs {n} premises, found {len(children)}")
        nodes.append((rule, seq, meta, goals))
        while n:
            n -= 1
            push((children[n], goals[n]))
    built = []
    pop = built.pop
    for rule, seq, meta, goals in reversed(nodes):
        if not goals:
            proof = Proof(calculus, rule, seq, (), meta)
            proof.goals = ()
        else:
            proof = Proof(calculus, rule, seq,
                          (pop(),) if len(goals) == 1 else tuple([pop() for _ in goals]), meta)
            proof.goals = goals
        built.append(proof)
    return built[0]
