"""Text formats: sequents (all four shapes) and proof files.

Proof files: line 1 `calculus: <id>`, then one parenthesized term per node,
`(rule <name> (concl "<sequent>") (meta k=v ...) (prems <node> ...))`.
Open leaves of cyclic derivations serialize as
`(open (concl "...") (backlink <addr>))` with `.` denoting the root address.
"""

from __future__ import annotations

import io
import re
from typing import Optional

from .formula import Formula, parse_formula, print_formula
from .sequents import (
    LABEL_KEYS,
    OPEN,
    Address,
    CyclicDerivation,
    GentzenSequent,
    LabeledSequent,
    LinearNestedSequent,
    Proof,
    Sequent,
    format_address,
    parse_address,
    trampoline,
)

_REL_ATOM_RE = re.compile(r"^\s*([a-z][a-z0-9_]*)R([a-z][a-z0-9_]*)\s*$")
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class SequentSyntaxError(Exception):
    pass


def _split_formulas(text: str) -> list[str]:
    return [part for part in (p.strip() for p in text.split(",")) if part]


# Each sequent parser has a private twin that takes the formula parser, so
# that `parse_proof` can share one memo over a whole file.

def parse_gentzen_sequent(text: str) -> GentzenSequent:
    return _gentzen(text, parse_formula)


def _gentzen(text: str, formula) -> GentzenSequent:
    if "|-" not in text:
        raise SequentSyntaxError(f"missing |- in {text!r}")
    left, right = text.split("|-", 1)
    return GentzenSequent(
        [formula(p) for p in _split_formulas(left)],
        [formula(p) for p in _split_formulas(right)],
    )


def _parse_labeled_formula(chunk: str, formula) -> tuple[str, Formula]:
    if ":" not in chunk:
        raise SequentSyntaxError(f"labeled formula needs a colon: {chunk!r}")
    lab, _, body = chunk.partition(":")
    lab = lab.strip()
    if not _LABEL_RE.match(lab):
        raise SequentSyntaxError(f"bad label {lab!r}")
    return lab, formula(body)


def parse_labeled_sequent(text: str) -> LabeledSequent:
    return _labeled(text, parse_formula)


def _labeled(text: str, formula) -> LabeledSequent:
    chunks = text.split(";")
    rel = []
    for chunk in chunks[:-1]:
        m = _REL_ATOM_RE.match(chunk)
        if not m:
            raise SequentSyntaxError(f"bad relational atom {chunk.strip()!r}")
        rel.append((m.group(1), m.group(2)))
    body = chunks[-1]
    if "|-" not in body:
        raise SequentSyntaxError(f"missing |- in {text!r}")
    left, right = body.split("|-", 1)
    return LabeledSequent(
        rel,
        [_parse_labeled_formula(p, formula) for p in _split_formulas(left)],
        [_parse_labeled_formula(p, formula) for p in _split_formulas(right)],
    )


def parse_lns(text: str) -> LinearNestedSequent:
    return _sequent("lngl", text, parse_formula)


def _sequent(calculus: str, text: str, formula) -> Sequent:
    if calculus in ("glseq", "k4seq"):
        return _gentzen(text, formula)
    if calculus in ("g3gl", "g3glext", "csgl"):
        return _labeled(text, formula)
    if calculus == "lngl":
        return LinearNestedSequent([_gentzen(part, formula) for part in text.split("//")])
    raise SequentSyntaxError(f"unknown calculus {calculus}")


# ---------------------------------------------------------------------------
# Proof term tokenizer / parser

_PROOF_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<quoted>"(?:[^"\\]|\\.)*")
      | (?P<bare>[^\s()"=]+=?)
    """,
    re.VERBOSE,
)


def _tokenize_proof(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _PROOF_TOKEN_RE.match(text, pos)
        if m is None:
            raise SequentSyntaxError(f"bad proof token at offset {pos}")
        if m.lastgroup != "ws":
            tokens.append(m.group())
        pos = m.end()
    return tokens


def _parse_terms(tokens: list[str], i: int):
    """Parse one parenthesized term into (head, items); items are terms/strings."""
    n = len(tokens)
    if i >= n:
        raise SequentSyntaxError("the proof term is empty or truncated")
    if tokens[i] != "(":
        raise SequentSyntaxError(f"expected '(' at token {i}: {tokens[i]!r}")
    open_terms: list[tuple[str, list]] = []
    while True:
        if tokens[i] == "(":
            if i + 1 >= n or tokens[i + 1] in ("(", ")"):
                raise SequentSyntaxError(f"term at token {i} has no head")
            open_terms.append((tokens[i + 1], []))
            i += 2
        elif tokens[i] == ")":
            term = open_terms.pop()
            i += 1
            if not open_terms:
                return term, i
            open_terms[-1][1].append(term)
        else:
            open_terms[-1][1].append(tokens[i])
            i += 1
        if i >= n:
            raise SequentSyntaxError(f"term {open_terms[-1][0]!r} is not closed")


def _unquote(tok: str) -> str:
    if tok.startswith('"') and tok.endswith('"'):
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return tok


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# meta keys and how their values serialize
_FORMULA_KEYS = ("principal", "phi")
_FLIST_KEYS = ("gamma",)
_INT_KEYS = ("component",)


def _encode_meta(meta: dict) -> str:
    parts = []
    for key in sorted(meta):
        value = meta[key]
        if key in _FORMULA_KEYS:
            parts.append(f"{key}={_quote(print_formula(value))}")
        elif key in LABEL_KEYS or key in _INT_KEYS:
            parts.append(f"{key}={value}")
        elif key in _FLIST_KEYS:
            parts.append(f"{key}={_quote(', '.join(print_formula(g) for g in value))}")
        else:
            parts.append(f"{key}={_quote(str(value))}")
    return " ".join(parts)


def _decode_meta(pairs: list[str], formula) -> dict:
    # `key=value` arrives as one token for bare values, as `key=` followed by
    # a quoted token otherwise
    if not all(isinstance(tok, str) for tok in pairs):
        raise SequentSyntaxError("meta takes key=value entries, not terms")
    merged: list[str] = []
    i = 0
    while i < len(pairs):
        tok = pairs[i]
        if tok.endswith("=") and i + 1 < len(pairs):
            merged.append(tok + pairs[i + 1])
            i += 2
        else:
            merged.append(tok)
            i += 1
    meta: dict = {}
    for pair in merged:
        if "=" not in pair:
            raise SequentSyntaxError(f"bad meta entry {pair!r}")
        key, _, raw = pair.partition("=")
        if key in meta:
            raise SequentSyntaxError(f"meta repeats the key {key!r}")
        value = _unquote(raw)
        if key in _FORMULA_KEYS:
            meta[key] = formula(value)
        elif key in LABEL_KEYS:
            meta[key] = value
        elif key in _FLIST_KEYS:
            meta[key] = tuple(formula(p) for p in _split_formulas(value))
        elif key in _INT_KEYS:
            try:
                meta[key] = int(value)
            except ValueError:
                raise SequentSyntaxError(f"{key} must be an integer, got {value!r}") from None
        else:
            meta[key] = value
    return meta


def _address(text: str) -> Address:
    try:
        return parse_address(text)
    except ValueError:
        raise SequentSyntaxError(f"bad node address {text!r}") from None


def _node_line(head: str, node: Proof, link: str = "") -> str:
    """`(head (concl ...)`, then `link` and the meta term, if there is one."""
    meta = _encode_meta(node.meta)
    meta_part = f" (meta {meta})" if meta else ""
    return f"({head} (concl {_quote(str(node.conclusion))}){link}{meta_part}"


def write_proof(obj, out) -> None:
    """Write a Proof or CyclicDerivation in the proof file format to the text
    stream `out`, each line as soon as it is made, so the file is never
    held in memory whole."""
    if isinstance(obj, CyclicDerivation):
        out.write("calculus: glcirc\n")
        root = obj.derivation
        backlinks = obj.backlinks
    else:
        out.write(f"calculus: {obj.calculus}\n")
        root = obj
        backlinks = {}

    # a node waits for its premises holding no text: a chain's conclusions
    # can be most of the file, and the addresses are needed for backlinks only
    def emit(node: Proof, addr: Optional[Address], indent: int):
        if node.rule == OPEN:
            target = backlinks.get(addr)
            link = "" if target is None else f" (backlink {format_address(target)})"
            out.write(f"{'  ' * indent}{_node_line('open', node, link)})\n")
        elif node.premises:
            out.write(f"{'  ' * indent}{_node_line('rule ' + node.rule, node)} (prems\n")
            yield tuple(emit(prem, None if addr is None else addr + (i,), indent + 1)
                        for i, prem in enumerate(node.premises))
            out.write(f"{'  ' * indent}))\n")
        else:
            out.write(f"{'  ' * indent}{_node_line('rule ' + node.rule, node)} (prems))\n")

    trampoline(emit(root, () if backlinks else None, 0))


def print_proof(obj) -> str:
    """The text `write_proof` writes for a Proof or CyclicDerivation."""
    buf = io.StringIO()
    write_proof(obj, buf)
    return buf.getvalue()


def _once(given: set, head: str, where: str) -> None:
    """Record that a node term gives `head`; a second one is an error."""
    if head in given:
        raise SequentSyntaxError(f"{where} repeats ({head} ...)")
    given.add(head)


def parse_proof(text: str):
    """Parse a proof file; returns a Proof, or a CyclicDerivation for glcirc."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("calculus:"):
        raise SequentSyntaxError("proof file must start with 'calculus: <id>'")
    calculus = lines[0].split(":", 1)[1].strip()
    cyclic = calculus == "glcirc"
    node_calculus = "k4seq" if cyclic else calculus
    body = "\n".join(lines[1:])
    tokens = _tokenize_proof(body)
    term, end = _parse_terms(tokens, 0)
    if end != len(tokens):
        raise SequentSyntaxError("trailing content after proof term")

    backlinks: dict[Address, Address] = {}
    memo: dict[str, Formula] = {}  # every conclusion repeats most formulas

    def formula(text: str) -> Formula:
        f = memo.get(text)
        if f is None:
            f = memo[text] = parse_formula(text)
        return f

    def value(item) -> str:
        if len(item[1]) != 1 or not isinstance(item[1][0], str):
            raise SequentSyntaxError(f"({item[0]} ...) takes one value")
        return _unquote(item[1][0])

    def build(t, addr: Address):
        if not isinstance(t, tuple):
            raise SequentSyntaxError(f"expected a proof term, got {t!r}")
        head, items = t
        if head == "open":
            concl = None
            meta: dict = {}
            given: set[str] = set()
            for item in items:
                if isinstance(item, tuple) and item[0] in ("concl", "backlink", "meta"):
                    _once(given, item[0], "open leaf")
                if isinstance(item, tuple) and item[0] == "concl":
                    concl = _sequent(node_calculus, value(item), formula)
                elif isinstance(item, tuple) and item[0] == "backlink":
                    backlinks[addr] = _address(value(item))
                elif isinstance(item, tuple) and item[0] == "meta":
                    meta = _decode_meta(item[1], formula)
            if concl is None:
                raise SequentSyntaxError("open leaf without conclusion")
            return Proof(node_calculus, OPEN, concl, (), meta)
        if head != "rule":
            raise SequentSyntaxError(f"expected rule term, got {head!r}")
        if not items or not isinstance(items[0], str):
            raise SequentSyntaxError("rule term without a rule name")
        name = items[0]
        concl = None
        meta = {}
        prems: list[Proof] = []
        given = set()
        for item in items[1:]:
            if not isinstance(item, tuple):
                raise SequentSyntaxError(f"unexpected token {item!r} in rule term")
            if item[0] in ("concl", "meta", "prems"):
                _once(given, item[0], f"rule {name}")
            if item[0] == "concl":
                concl = _sequent(node_calculus, value(item), formula)
            elif item[0] == "meta":
                meta = _decode_meta(item[1], formula)
            elif item[0] == "prems":
                prems.extend((yield tuple(build(sub, addr + (i,)) for i, sub in enumerate(item[1]))))
        if concl is None:
            raise SequentSyntaxError(f"rule {name} without conclusion")
        return Proof(node_calculus, name, concl, tuple(prems), meta)

    root = trampoline(build(term, ()))
    if cyclic:
        return CyclicDerivation(root, backlinks)
    return root
