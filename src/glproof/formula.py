"""GL formulas: atoms, negation, disjunction, box; parsing and printing.

Conjunction and implication are parser sugar and are expanded away, so
everything downstream handles exactly four constructors.  Formulas are
interned: building a formula equal to an existing one returns that object,
so equal formulas are the same object and compare and hash by identity.
Each class interns under the least that names its formula: an `Atom` under
its name, a `Not` or `Box` under its subformula object, an `Or` under its
left subformula object, then its right one.  So interning never hashes a
nested value, and a hit allocates nothing.

Formulas carry a fixed total order (Atom < Not < Or < Box, then
recursively), used to canonicalize multisets.  A formula's `key` in that
order is a nested tuple built on first read, not at construction, since
most formulas are never ordered.  The first read keys the formula on an
explicit stack, its unkeyed subformulas first, so every subformula of a
keyed formula is keyed.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator


class Formula:
    """Base class; instances are immutable and interned.  Each subclass's
    `__new__` looks its arguments up in the class's own table (`Or`'s maps
    its left part to a table of its right parts) and, on a miss, builds the
    one instance.  `_key` holds the order key once it is
    built, else None; only this module reads it, and everything else reads
    `key`."""

    __slots__ = ("_key",)

    def __init_subclass__(cls) -> None:
        cls._table = {}

    @property
    def key(self) -> tuple:
        k = self._key
        return k if k is not None else _build_key(self)

    def __reduce__(self):
        # the slots of each subclass list its constructor arguments in order
        return (type(self), tuple(getattr(self, s) for s in self.__slots__))

    def __repr__(self) -> str:
        return f"<{print_formula(self)}>"

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        self = cls._table.get(name)
        if self is None:
            self = cls._table[name] = object.__new__(cls)
            self.name = name
            self._key = None
        return self


def _unary_new(cls, sub: Formula):
    self = cls._table.get(sub)
    if self is None:
        self = cls._table[sub] = object.__new__(cls)
        self.sub = sub
        self._key = None
    return self


class Not(Formula):
    __slots__ = ("sub",)
    __new__ = _unary_new


class Or(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        row = cls._table.get(left)
        if row is None:
            row = cls._table[left] = {}
        self = row.get(right)
        if self is None:
            self = row[right] = object.__new__(cls)
            self.left = left
            self.right = right
            self._key = None
        return self


class Box(Formula):
    __slots__ = ("sub",)
    __new__ = _unary_new


def _build_key(f: Formula) -> tuple:
    """Key `f` and each of its unkeyed subformulas, innermost first: (0,
    name) for an atom, (1, sub key) for a Not, (2, left key, right key) for
    an Or and (3, sub key) for a Box.  A keyed formula's subformulas are all
    keyed, so the walk stops at one."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g._key is not None:  # reached twice through shared subformulas
            stack.pop()
            continue
        t = type(g)
        if t is Or:
            lk, rk = g.left._key, g.right._key
            if lk is None or rk is None:
                if lk is None:
                    stack.append(g.left)
                if rk is None:
                    stack.append(g.right)
                continue
            g._key = (2, lk, rk)
        elif t is Atom:
            g._key = (0, g.name)
        else:
            k = g.sub._key
            if k is None:
                stack.append(g.sub)
                continue
            g._key = (1 if t is Not else 3, k)
        stack.pop()
    return f._key


def implies(a: Formula, b: Formula) -> Formula:
    """a -> b, expanded to ~a | b."""
    return Or(Not(a), b)


def conj(a: Formula, b: Formula) -> Formula:
    """a & b, expanded to ~(~a | ~b)."""
    return Not(Or(Not(a), Not(b)))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<atom>[a-z][a-z0-9_]*)
      | (?P<box>\[\])
      | (?P<impl>->)
      | (?P<neg>~)
      | (?P<or>\|)
      | (?P<and>&)
      | (?P<lpar>\()
      | (?P<rpar>\))
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """Malformed text; carries the character offset and what was expected."""

    def __init__(self, position: int, expected: str, text: str = ""):
        self.position = position
        self.expected = expected
        snippet = f" in {text!r}" if text else ""
        super().__init__(f"at position {position}: expected {expected}{snippet}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, "formula token", text)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_impl()
        kind, _, pos = self.peek()
        if kind != "eof":
            raise ParseError(pos, "end of input", self.text)
        return f

    def parse_impl(self) -> Formula:
        # right-associative
        left = self.parse_or()
        if self.peek()[0] == "impl":
            self.next()
            right = self.parse_impl()
            return implies(left, right)
        return left

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while self.peek()[0] == "or":
            self.next()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while self.peek()[0] == "and":
            self.next()
            f = conj(f, self.parse_unary())
        return f

    def parse_unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "neg":
            self.next()
            return Not(self.parse_unary())
        if kind == "box":
            self.next()
            return Box(self.parse_unary())
        if kind == "atom":
            self.next()
            return Atom(value)
        if kind == "lpar":
            self.next()
            f = self.parse_impl()
            k, _, p = self.next()
            if k != "rpar":
                raise ParseError(p, "')'", self.text)
            return f
        raise ParseError(pos, "formula", self.text)


def parse_formula(text: str) -> Formula:
    """Parse ASCII syntax; `&` and `->` are rewritten away immediately."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

_PRINT_CACHE = 4096  # texts kept: a proof prints its few formulas once per sequent


@lru_cache(maxsize=_PRINT_CACHE)
def print_formula(f: Formula) -> str:
    """Minimal-parentheses rendering; parse_formula(print_formula(f)) == f."""
    return _render(f, 0)


def _render(f: Formula, parent: int) -> str:
    # precedence: | is 1, unary is 2; left-assoc | keeps bare left child
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.sub, 2)
    if isinstance(f, Box):
        return "[]" + _render(f.sub, 2)
    s = _render(f.left, 1) + " | " + _render(f.right, 2)
    return "(" + s + ")" if parent > 1 else s


# ---------------------------------------------------------------------------
# Subformulas

def subformulas(f: Formula) -> frozenset[Formula]:
    acc: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in acc:
            continue
        acc.add(g)
        if isinstance(g, Not) or isinstance(g, Box):
            stack.append(g.sub)
        elif isinstance(g, Or):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Corpus helpers (deterministic enumeration and sampling)

def enumerate_formulas(atom_names: tuple[str, ...], max_connectives: int) -> Iterator[Formula]:
    """Yield every formula over the given atoms with at most the given number
    of connective (Not/Or/Box) occurrences, in a fixed deterministic order."""
    by_count: list[list[Formula]] = [[Atom(a) for a in atom_names]]
    yield from by_count[0]
    for n in range(1, max_connectives + 1):
        layer: list[Formula] = []
        for g in by_count[n - 1]:
            layer.append(Not(g))
        for g in by_count[n - 1]:
            layer.append(Box(g))
        for i in range(n):
            for l in by_count[i]:
                for r in by_count[n - 1 - i]:
                    layer.append(Or(l, r))
        by_count.append(layer)
        yield from layer


def random_formula(rng, atom_names: tuple[str, ...], connectives: int) -> Formula:
    """Uniform-ish random AST with exactly `connectives` connective nodes."""
    if connectives == 0:
        return Atom(rng.choice(atom_names))
    choice = rng.randrange(3)
    if choice == 0:
        return Not(random_formula(rng, atom_names, connectives - 1))
    if choice == 1:
        return Box(random_formula(rng, atom_names, connectives - 1))
    k = rng.randrange(connectives)
    return Or(
        random_formula(rng, atom_names, k),
        random_formula(rng, atom_names, connectives - 1 - k),
    )
