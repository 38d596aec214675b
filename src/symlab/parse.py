"""Recursive-descent parser for exact rational-function expressions.

Grammar:

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" uint)?
    atom   := uint | symbol | "(" expr ")"

Symbols come from the caller's symbol list; the name `zeta3` additionally
resolves to the field's primitive cube root of unity when the field has
one.  Parentheses nest at most MAX_NESTING deep, so that the recursion stays
far inside Python's stack limit.  Errors carry the 0-based character
position.
"""

from __future__ import annotations

from .fields import Field, primitive_cube_root
from .poly import RationalFunction


# Each level of parentheses costs four Python frames (atom, expr, term,
# factor); 100 levels stay well inside the default limit of 1000.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, field: Field, symbols):
        self.text = text
        self.pos = 0
        self.field = field
        self.symbols = tuple(symbols)
        self._zeta = None
        self._depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str):
        if not self._take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def _const(self, value) -> RationalFunction:
        return RationalFunction.constant(self.field, self.symbols, value)

    def parse(self) -> RationalFunction:
        out = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return out

    def expr(self) -> RationalFunction:
        negate = self._take("-")
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            if self._take("+"):
                acc = acc + self.term()
            elif self._take("-"):
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> RationalFunction:
        acc = self.factor()
        while True:
            if self._take("*"):
                acc = acc * self.factor()
            elif self._take("/"):
                start = self.pos
                rhs = self.factor()
                if rhs.is_zero():
                    raise ParseError("division by zero", start)
                acc = acc / rhs
            else:
                return acc

    def factor(self) -> RationalFunction:
        base = self.atom()
        if self._take("^"):
            start = self.pos
            n = self._uint()
            if base.is_zero() and n == 0:
                raise ParseError("0^0 is undefined", start)
            return base**n
        return base

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start : self.pos])

    def atom(self) -> RationalFunction:
        ch = self._peek()
        if ch == "(":
            if self._depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than MAX_NESTING = {MAX_NESTING}", self.pos
                )
            self._depth += 1
            self.pos += 1
            inner = self.expr()
            self._expect(")")
            self._depth -= 1
            return inner
        if ch.isdigit():
            return self._const(self._uint())
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name in self.symbols:
                return RationalFunction.symbol(self.field, self.symbols, name)
            if name == "zeta3":
                if self._zeta is None:
                    self._zeta = primitive_cube_root(self.field)
                if self._zeta is None:
                    raise ParseError(
                        f"{self.field} has no primitive cube root of unity", start
                    )
                return self._const(self._zeta)
            raise ParseError(f"unknown symbol {name!r}", start)
        raise ParseError("expected a number, symbol, or parenthesized expression", self.pos)


def parse_ratfunc(src: str, field: Field, symbols=()) -> RationalFunction:
    """Parse `src` into an exact rational function over (field, symbols)."""
    return _Parser(src, field, symbols).parse()


def parse_cycles(src: str, n: int) -> tuple:
    """Parse disjoint-cycle notation like "(12)", "(123)", "(12)(34)" on
    1-based positions into a 0-indexed permutation tuple of length n.
    "id" or "()" denotes the identity."""
    s = src.strip()
    perm = list(range(n))
    if s in ("id", "()", ""):
        return tuple(perm)
    pos = 0
    moved = set()
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        if s[pos] != "(":
            raise ParseError("expected '('", pos)
        end = s.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", pos)
        body = s[pos + 1 : end]
        entries = []
        if "," in body or any(c.isspace() for c in body):
            raw = body.replace(",", " ").split()
        else:
            raw = list(body)
        for r in raw:
            if not r.isdigit():
                raise ParseError(f"bad cycle entry {r!r}", pos)
            k = int(r) - 1
            if not 0 <= k < n:
                raise ParseError(f"cycle entry {r} out of range 1..{n}", pos)
            if k in moved:
                raise ParseError(f"position {r} appears twice", pos)
            moved.add(k)
            entries.append(k)
        if len(entries) > 1:
            for i, k in enumerate(entries):
                perm[k] = entries[(i + 1) % len(entries)]
        pos = end + 1
    return tuple(perm)
