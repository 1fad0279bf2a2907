"""Deterministic proof validation for all six formalisms.

Checking compares every node's premises with the ones its schema gives
for (rule, meta, conclusion); it never searches.  Reports carry stable
reason codes with node addresses so the CLI can emit machine-readable
failure lines.  An accepted proof needs none of them, so each checker first
takes a lean walk that only decides acceptance; the diagnosing walk, which
lists every failure, runs only when the lean walk finds one.  The two shape
reports do the same.

The lean walk takes a node's schema premises from the goals `rules.derive`
recorded on it, when it has them, and reconstructs them with `premises_of`
only on a node built some other way (parsed, projected, hand-built or
retagged); that is sound because nodes are never mutated.  The diagnosing
walk always reconstructs.

Tree preservation: every CSGL rule maps a tree sequent to tree sequents.
Local rules, boxL and 4L add formulas at labels already in the tree, and
boxR (whose label the schema checks is fresh) adds a new leaf.  So the
lean walk, which accepts only proofs whose premises are all the ones
`premises_of` derives, runs `tree_root` on the root conclusion only; the
diagnosing walk runs it at every node of the calculus's shape.
"""

from __future__ import annotations

from .rules import (
    BAD_BACKLINK,
    BLOCK_VIOLATION,
    CALCULUS_MISMATCH,
    EXTENDED_EXTRA,
    INTERNAL_ERROR,
    LINT_NO_BOX_ON_CYCLE,
    NON_END_APPLICATION,
    NOT_A_TREE,
    OPEN_LEAF,
    FRESHNESS_VIOLATION,
    RULES_OF,
    RuleError,
    SCHEMA_MISMATCH,
    UNKNOWN_RULE,
    UNKNOWN_RULE_STRICT,
    WRONG_PREMISE_COUNT,
    INITIAL_RULES,
    premises_of,
    LOCAL_RULES,
    PROPAGATION_RULES,
)
from .sequents import (
    OPEN,
    Address,
    CyclicDerivation,
    LabeledSequent,
    LinearNestedSequent,
    NotATree,
    Proof,
    SEQUENT_OF,
    format_address,
    tree_root,
)


class Failure:
    __slots__ = ("address", "code", "message", "detail")

    def __init__(self, address: Address, code: str, message: str, detail: str = ""):
        self.address = address
        self.code = code
        self.message = message
        self.detail = detail

    def _fields(self) -> tuple:
        return (self.address, self.code, self.message, self.detail)

    def __eq__(self, other) -> bool:
        if type(other) is not Failure:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "Failure(%r, %r, %r, %r)" % self._fields()

    def token(self) -> str:
        return f"{self.code}({self.detail})" if self.detail else self.code

    def __str__(self) -> str:
        return f"{self.token()}\t{format_address(self.address)}\t{self.message}"


class CheckReport:
    __slots__ = ("accepted", "failures")

    def __init__(self, accepted: bool, failures: list[Failure] | None = None):
        self.accepted = accepted
        self.failures = [] if failures is None else failures

    @classmethod
    def from_failures(cls, failures: list[Failure]) -> "CheckReport":
        return cls(not failures, failures)

    def __bool__(self) -> bool:
        return self.accepted


# ---------------------------------------------------------------------------
# Generic node validation

def _active_prefix_len(rule: str, conclusion: LinearNestedSequent) -> int:
    # components a rule application must leave untouched
    if rule in PROPAGATION_RULES:
        return len(conclusion) - 2
    return len(conclusion) - 1


def _diagnose_lns_mismatch(
    rule: str, conclusion: LinearNestedSequent, expected, actual
) -> Failure | None:
    if not isinstance(actual, LinearNestedSequent) or not isinstance(
        expected, LinearNestedSequent
    ):
        return None
    if len(actual) != len(expected):
        return None
    keep = max(0, _active_prefix_len(rule, conclusion))
    if actual.components[:keep] != expected.components[:keep]:
        return Failure((), NON_END_APPLICATION, f"{rule} modifies a non-end component")
    return None


def _check_node(
    addr: Address,
    node: Proof,
    expected_calculus: tuple[str, ...],
    allowed: tuple[str, ...],
    strict_reject: tuple[str, ...],
    failures: list[Failure],
) -> bool:
    """Append the node's own failures; return whether its conclusion is a
    sequent of the calculus."""
    shaped = isinstance(node.conclusion, SEQUENT_OF[expected_calculus[0]])
    if node.rule == OPEN and OPEN in allowed:
        return shaped
    if node.calculus not in expected_calculus:
        failures.append(Failure(addr, CALCULUS_MISMATCH, f"node is tagged {node.calculus}"))
        return shaped
    if not shaped:
        failures.append(Failure(addr, CALCULUS_MISMATCH,
                                f"{node.calculus} node concludes a {type(node.conclusion).__name__}"))
        return False
    if node.rule == OPEN:
        failures.append(Failure(addr, OPEN_LEAF, "open leaf in a closed proof"))
        return True
    if node.rule not in allowed:
        code = UNKNOWN_RULE_STRICT if node.rule in strict_reject else UNKNOWN_RULE
        failures.append(Failure(addr, code, f"rule {node.rule} not available here"))
        return True
    try:
        expected = premises_of(node.calculus, node.rule, node.meta, node.conclusion)
    except RuleError as e:
        failures.append(Failure(addr, e.code, str(e), e.detail))
        return True
    if len(node.premises) != len(expected):
        failures.append(
            Failure(
                addr,
                WRONG_PREMISE_COUNT,
                f"{node.rule} needs {len(expected)} premises, found {len(node.premises)}",
            )
        )
        return True
    for i, (want, q) in enumerate(zip(expected, node.premises)):
        got = q.conclusion
        if want == got:
            continue
        lns_diag = None
        if isinstance(node.conclusion, LinearNestedSequent):
            lns_diag = _diagnose_lns_mismatch(node.rule, node.conclusion, want, got)
        if lns_diag is not None:
            failures.append(Failure(addr + (i,), lns_diag.code, lns_diag.message))
        else:
            failures.append(Failure(addr + (i,), SCHEMA_MISMATCH,
                                    f"premise {i} of {node.rule} should be {want}, found {got}"))
    return True


def _check_nodes(
    proof: Proof,
    expected_calculus: tuple[str, ...],
    allowed: tuple[str, ...],
    strict_reject: tuple[str, ...] = (),
    tree: bool = False,
    fresh: bool = False,
) -> list[Failure]:
    """Every failure of `proof`, as `_diagnose_nodes` lists them: none when
    the lean walk accepts it, else the diagnosing walk's list, or when that
    is empty (the walks disagree) one `InternalError` at the root."""
    if _accepts(proof, frozenset(expected_calculus), frozenset(allowed),
                SEQUENT_OF[expected_calculus[0]], tree, fresh):
        return []
    return _diagnose_nodes(proof, expected_calculus, allowed, strict_reject, tree, fresh) or [
        Failure((), INTERNAL_ERROR, "the lean and the diagnosing walks disagree")]


def _accepts(proof: Proof, calculi: frozenset, rules: frozenset, shape: type,
             tree: bool, fresh: bool) -> bool:
    """The lean walk: whether no node of `proof` fails, with no addresses or
    messages.  Per node: the calculus, shape and rule guard; the schema's
    premises, the node's recorded goals when `derive` built it, else one
    `premises_of`; one `is`-then-`==` per premise, so a child wired to the
    wrong goal is still rejected; and, with `fresh`, the boxR fresh label
    against those already seen.  Under `tree`, `tree_root` on the root only,
    since an accepted proof's premises are all the ones the schema derives.
    It stops at the first failing node."""
    open_ok = OPEN in rules
    seen: set[str] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        rule = node.rule
        prems = node.premises
        if rule == OPEN and open_ok:
            stack.extend(prems)
            continue
        c = node.conclusion
        if node.calculus not in calculi or not isinstance(c, shape) or rule not in rules:
            return False
        expected = node.goals
        if expected is None:
            try:
                expected = premises_of(node.calculus, rule, node.meta, c)
            except RuleError:
                return False
        if len(expected) != len(prems):
            return False
        for want, q in zip(expected, prems):
            got = q.conclusion
            if want is not got and want != got:
                return False
        if fresh and rule == "boxR" and isinstance(c, LabeledSequent):
            y = node.meta.get("fresh")
            if y is not None:
                if y in seen:
                    return False
                seen.add(y)
        stack.extend(prems)
    if tree:
        try:
            tree_root(proof.conclusion)
        except NotATree:
            return False
    return True


def _diagnose_nodes(
    proof: Proof,
    expected_calculus: tuple[str, ...],
    allowed: tuple[str, ...],
    strict_reject: tuple[str, ...] = (),
    tree: bool = False,
    fresh: bool = False,
) -> list[Failure]:
    """One pre-order walk, without recursion: every node's schema failures,
    then (with `tree`) each conclusion that is not a tree sequent, then (with
    `fresh`) each boxR fresh label used twice.  Under `tree`, `tree_root`
    runs at every node whose conclusion has the calculus's shape."""
    failures: list[Failure] = []
    shape: list[Failure] = []
    reused: list[Failure] = []
    seen: dict[str, Address] = {}
    for addr, node in proof.nodes():
        shaped = _check_node(addr, node, expected_calculus, allowed, strict_reject, failures)
        if tree and shaped:
            try:
                tree_root(node.conclusion)
            except NotATree as e:
                shape.append(Failure(addr, NOT_A_TREE, str(e), e.diagnosis))
        y = node.meta.get("fresh") if fresh and node.rule == "boxR" else None
        if y is not None and isinstance(node.conclusion, LabeledSequent):
            if y in seen:
                reused.append(Failure(
                    addr, FRESHNESS_VIOLATION,
                    f"fresh label {y} reused (also at {format_address(seen[y])})", detail=y))
            else:
                seen[y] = addr
    return failures + shape + reused


# ---------------------------------------------------------------------------
# Public checkers

def check_glseq(p: Proof) -> CheckReport:
    return CheckReport.from_failures(_check_nodes(p, ("glseq",), RULES_OF["glseq"]))


def check_k4seq(p: Proof) -> CheckReport:
    return CheckReport.from_failures(_check_nodes(p, ("k4seq",), RULES_OF["k4seq"]))


def check_g3gl(p: Proof, mode: str = "strict") -> CheckReport:
    """mode: 'strict' (labeled rules only) or 'extended' (plus the admitted
    rule 4L, which to-g3gl writes, checkable as an explicit node)."""
    if mode not in ("strict", "extended"):
        raise ValueError("mode must be 'strict' or 'extended'")
    if mode == "strict":
        failures = _check_nodes(p, ("g3gl",), RULES_OF["g3gl"], strict_reject=EXTENDED_EXTRA,
                                fresh=True)
    else:
        failures = _check_nodes(p, ("g3gl", "g3glext", "csgl"), RULES_OF["g3glext"], fresh=True)
    return CheckReport.from_failures(failures)


def check_csgl(p: Proof) -> CheckReport:
    return CheckReport.from_failures(
        _check_nodes(p, ("csgl",), RULES_OF["csgl"], tree=True, fresh=True))


def check_lngl(p: Proof) -> CheckReport:
    return CheckReport.from_failures(_check_nodes(p, ("lngl",), RULES_OF["lngl"]))


def check_proof(p: Proof | CyclicDerivation) -> CheckReport:
    """Check `p` in the calculus it names; a cyclic derivation in GLcirc."""
    if isinstance(p, CyclicDerivation):
        return check_glcirc(p)
    calc = p.calculus
    if calc == "glseq":
        return check_glseq(p)
    if calc == "k4seq":
        return check_k4seq(p)
    if calc == "g3gl":
        return check_g3gl(p, "strict")
    if calc == "g3glext":
        return check_g3gl(p, "extended")
    if calc == "csgl":
        return check_csgl(p)
    if calc == "lngl":
        return check_lngl(p)
    return CheckReport(False, [Failure((), UNKNOWN_RULE, f"unknown calculus {calc}")])


# ---------------------------------------------------------------------------
# Cyclic derivations

def check_glcirc(d: CyclicDerivation) -> CheckReport:
    """K4seq schemas at internal nodes, back-link conditions at open leaves,
    closure, and the box4-on-cycle lint."""
    nodes = dict(d.derivation.nodes())
    failures = _check_nodes(d.derivation, ("k4seq",), RULES_OF["k4seq"] + (OPEN,))
    for addr, node in nodes.items():
        if node.rule != OPEN:
            continue
        if addr not in d.backlinks:
            failures.append(Failure(addr, OPEN_LEAF, "open leaf has no back-link"))
            continue
        target = d.backlinks[addr]
        if target == addr:
            failures.append(
                Failure(addr, BAD_BACKLINK, "back-link maps a leaf to itself", detail="self")
            )
            continue
        if target != addr[: len(target)]:
            failures.append(
                Failure(
                    addr,
                    BAD_BACKLINK,
                    f"target {format_address(target)} is not an ancestor",
                    detail="not-ancestor",
                )
            )
            continue
        if nodes[target].conclusion != node.conclusion:
            failures.append(
                Failure(
                    addr,
                    BAD_BACKLINK,
                    "leaf and back-link target carry different sequents",
                    detail="sequent-mismatch",
                )
            )
            continue
        cycle_rules = [nodes[addr[:i]].rule for i in range(len(target), len(addr))]
        if "box4" not in cycle_rules:
            failures.append(
                Failure(addr, LINT_NO_BOX_ON_CYCLE, "no box4 application on the cycle")
            )
    for addr in d.backlinks:
        if addr not in nodes or nodes[addr].rule != OPEN:
            failures.append(
                Failure(addr, BAD_BACKLINK, "back-link source is not an open leaf", detail="not-ancestor")
            )
    return CheckReport.from_failures(failures)


# ---------------------------------------------------------------------------
# Structural predicates on checked proofs

NOT_END_ACTIVE = "NotEndActive"


# the rules judged end-active at their `label` alone: it must be a leaf
_LEAF_RULES = frozenset(("id1", "id2") + LOCAL_RULES)


def node_end_active(node: Proof) -> bool:
    """End-activity of one rule application, judged in its conclusion: a
    leaf rule's label is a leaf; a propagation's `aux` is a leaf and its
    `label` a pre-leaf, whose children are leaves."""
    rule = node.rule
    if rule not in _LEAF_RULES and rule not in PROPAGATION_RULES:
        return True
    rel = node.conclusion.rel
    parents = {a for a, _ in rel}
    x = node.meta["label"]
    if rule in _LEAF_RULES:
        return x not in parents
    return node.meta["aux"] not in parents and not any(a == x and y in parents for a, y in rel)


def _wrong_calculus(calculus: str, p, what: str) -> list[Failure]:
    """One CalculusMismatch failure at the root when `p` is not a proof in
    `calculus`, else none."""
    got = p.calculus if isinstance(p, Proof) else "glcirc"
    if got == calculus:
        return []
    return [Failure((), CALCULUS_MISMATCH, f"{what} is defined on {calculus} proofs, not {got}")]


def _all_end_active(p: Proof) -> bool:
    """Whether `node_end_active` holds at every node, as one flat loop: each
    relation is read once, into its set of parent labels, and shared by the
    conclusions that carry it."""
    parents_of: dict[frozenset, set] = {}
    stack = [p]
    while stack:
        node = stack.pop()
        rule = node.rule
        if rule in _LEAF_RULES or rule in PROPAGATION_RULES:
            meta = node.meta
            x = meta["label"]
            rel = node.conclusion.rel
            parents = parents_of.get(rel)
            if parents is None:
                parents = parents_of[rel] = {a for a, _ in rel}
            if x in parents:
                # a leaf rule's label must be a leaf; a propagation's must be
                # a pre-leaf, whose children have none
                if rule in _LEAF_RULES or any(a == x and y in parents for a, y in rel):
                    return False
            if rule in PROPAGATION_RULES and meta["aux"] in parents:
                return False
        stack.extend(node.premises)
    return True


def end_active_report(p: Proof) -> CheckReport:
    """Accepted iff every rule application in the CSGL proof is end-active.
    Failures, with their addresses, are listed only when there is one."""
    wrong = _wrong_calculus("csgl", p, "end-activity")
    if not wrong and _all_end_active(p):
        return CheckReport(True)
    return CheckReport.from_failures(wrong or [
        Failure(addr, NOT_END_ACTIVE, f"{node.rule} is not end-active here")
        for addr, node in p.nodes() if not node_end_active(node)])


def _modal_block(boxr: Proof, addr: Address):
    """The nodes of the modal block of the boxR at `addr`, up to the next
    boxR, initial rule or open leaf, in pre-order; each with its address and
    the rule of the node below it."""
    stack = [(addr + (0,), boxr.premises[0], boxr.rule)]
    while stack:
        a, node, below = stack.pop()
        if node.rule == "boxR" or node.rule in INITIAL_RULES or node.rule == OPEN:
            continue
        yield a, node, below
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((a + (i,), node.premises[i], node.rule))


# the complete-block shape: the rules a 4L or a boxL may sit right above
BLOCK_BELOW = {"4L": ("boxR", "4L"), "boxL": ("boxR", "4L", "boxL")}


def block_violations(boxr: Proof, addr: Address = ()) -> list[Failure]:
    """The block violations of the modal block of the boxR at `addr`: each 4L
    right above a rule other than 4L, each boxL right above a local rule; in
    pre-order.  Reads only each node's `rule` and `premises`, so it also
    runs on the rule tree that `normalize_lngl` rewires."""
    failures: list[Failure] = []
    for a, node, below in _modal_block(boxr, addr):
        rule = node.rule
        allowed = BLOCK_BELOW.get(rule)
        if allowed is not None and below not in allowed:
            message = f"{rule} above the {rule} block of this modal block"
            failures.append(Failure(a, BLOCK_VIOLATION, message))
    return failures


def _in_normal_form(p: Proof) -> bool:
    """Whether no modal block of `p` has a block violation, as one flat loop
    that carries, to each node inside a modal block, the rule below it (None
    outside every block)."""
    stack: list[tuple[Proof, str | None]] = [(p, None)]
    while stack:
        node, below = stack.pop()
        rule = node.rule
        prems = node.premises
        if rule == "boxR":
            # its block starts at its first premise
            stack.append((prems[0], rule))
            for q in prems[1:]:
                stack.append((q, None))
            continue
        if below is None or rule in INITIAL_RULES or rule == OPEN:
            rule = None
        else:
            allowed = BLOCK_BELOW.get(rule)
            if allowed is not None and below not in allowed:
                return False
        for q in prems:
            stack.append((q, rule))
    return True


def normal_form_report(p: Proof) -> CheckReport:
    """Accepted iff every boxR sits under a 4L block, then a boxL block, then
    a block of local rules, with no interleaving (the complete-block shape).
    Failures, with their addresses, are listed only when there is one."""
    wrong = _wrong_calculus("lngl", p, "the normal form")
    if not wrong and _in_normal_form(p):
        return CheckReport(True)
    return CheckReport.from_failures(wrong or [
        f for addr, node in p.nodes() if node.rule == "boxR" for f in block_violations(node, addr)])
