"""Recursive-descent parser for exact rational-function expressions.

Grammar:

    list     := expr ("," expr)*
    factored := ("(" "X" [("+" | "-") expr] ")" ["^" uint])+
    expr     := ["-"] term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := atom ("^" uint)?
    atom     := uint | symbol | "(" expr ")"

Symbols come from the caller's symbol list; the name `zeta3` additionally
resolves to the field's primitive cube root of unity when the field has
one, and an extension field's generator name (`Y`) to its generator, so
every printed field value reads back.  Parentheses nest at most
MAX_NESTING deep, so that the recursion stays far inside Python's stack
limit; degrees are bounded by MAX_DEGREE, and integer literals and the
integers of a power over Q or Q(zeta3) by MAX_POWER_DIGITS.  Errors carry
the 0-based character position, in a list counted from the first nonblank
character of the failing entry.
"""

from __future__ import annotations

import math

from .fields import MAX_POWER_DIGITS, ExtensionField, Field, primitive_cube_root
from .poly import RationalFunction


# Each level of parentheses costs four Python frames (atom, expr, term,
# factor); 100 levels stay well inside the default limit of 1000.
MAX_NESTING = 100

# Largest degree in any symbol, of every intermediate result and of a
# factored modulus.  Measured in-process (Python 3.11, 2-vCPU VM): `family
# --roots 0,t^D,1` takes 0.19, 0.67 and 2.5 s for D = 50, 100 and 200, and
# `aut --poly factored:(X)^D` 0.01, 0.05 and 0.18 s.
MAX_DEGREE = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _degree(r: RationalFunction) -> int:
    """The largest exponent of any symbol in r's numerator or denominator."""
    return max((e for p in (r.num, r.den) for exps in p.terms for e in exps), default=0)


def _height(r: RationalFunction) -> int:
    """The larger over r's numerator and denominator of the sum of |p| + q - 1
    over the rationals p/q of their coefficients (or their components over
    Q(zeta3)); over Q, with integer coefficients, r^n has none above it^n."""

    def size(v):
        return sum(map(size, v)) if isinstance(v, tuple) else abs(v.numerator) + v.denominator - 1

    return max(sum(map(size, p.terms.values())) for p in (r.num, r.den))


class _Parser:
    def __init__(self, text: str, field: Field, symbols):
        self.text = text
        self.pos = 0
        self.field = field
        self.symbols = tuple(symbols)
        self._zeta = None
        self._depth = 0
        # in a list, where the current entry's first nonblank character is
        self._entry = 0
        self._listing = False

    def _error(self, message: str, pos: int) -> ParseError:
        # In a list, an error at the end of an entry (the end of the text,
        # or a comma outside parentheses) is reported just after the entry's
        # last nonblank character, where it falls in the entry on its own.
        text = self.text
        if self._listing and (pos == len(text) or (self._depth == 0 and text[pos] == ",")):
            while pos > self._entry and text[pos - 1].isspace():
                pos -= 1
        return ParseError(message, pos - self._entry)

    def _bounded(self, degree: int):
        """Refuse a degree past MAX_DEGREE, reached by the text before pos."""
        if degree > MAX_DEGREE:
            raise self._error(f"degree above MAX_DEGREE = {MAX_DEGREE}", self.pos)

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
            raise self._error(f"expected {ch!r}", self.pos)

    def _const(self, value) -> RationalFunction:
        return RationalFunction.constant(self.field, self.symbols, value)

    def parse(self) -> RationalFunction:
        out = self.expr()
        if self._peek():
            raise self._error("unexpected trailing input", self.pos)
        return out

    def parse_list(self) -> list[RationalFunction]:
        self._listing = True
        out = []
        while not out or self._take(","):
            self._skip_ws()
            self._entry = self.pos
            out.append(self.expr())
        if self._peek():
            raise self._error("unexpected trailing input", self.pos)
        return out

    def parse_factored(self) -> list[tuple]:
        factors = []
        degree = 0
        while not factors or self._peek():
            self._expect("(")
            self._expect("X")
            # the factor is X + tail, so the root is -(tail)
            root = -self.expr() if self._peek() == "-" or self._take("+") else self._const(0)
            self._expect(")")
            mult = self._uint() if self._take("^") else 1
            degree += mult
            self._bounded(degree)
            factors.append((root, mult))
        return factors

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
            self._bounded(_degree(acc))

    def term(self) -> RationalFunction:
        acc = self.factor()
        while True:
            if self._take("*"):
                acc = acc * self.factor()
            elif self._take("/"):
                start = self.pos
                rhs = self.factor()
                if rhs.is_zero():
                    raise self._error("division by zero", start)
                acc = acc / rhs
            else:
                return acc
            self._bounded(_degree(acc))

    def factor(self) -> RationalFunction:
        base = self.atom()
        if self._take("^"):
            start = self.pos
            n = self._uint()
            if base.is_zero() and n == 0:
                raise self._error("0^0 is undefined", start)
            self._bounded(_degree(base) * n)
            if not self.field.characteristic() and n * math.log10(_height(base)) > MAX_POWER_DIGITS:
                raise self._error(f"power past MAX_POWER_DIGITS = {MAX_POWER_DIGITS}", self.pos)
            return base**n
        return base

    def _uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self._error("expected an unsigned integer", start)
        if self.pos - start > MAX_POWER_DIGITS:
            raise self._error(f"integer of more than MAX_POWER_DIGITS = {MAX_POWER_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def atom(self) -> RationalFunction:
        ch = self._peek()
        if ch == "(":
            if self._depth == MAX_NESTING:
                raise self._error(
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
                    raise self._error(f"{self.field} has no primitive cube root of unity", start)
                return self._const(self._zeta)
            if isinstance(self.field, ExtensionField) and name == self.field.generator_name:
                return self._const(self.field.generator())
            raise self._error(f"unknown symbol {name!r}", start)
        raise self._error("expected a number, symbol, or parenthesized expression", self.pos)


def parse_ratfunc(src: str, field: Field, symbols=()) -> RationalFunction:
    """Parse `src` into an exact rational function over (field, symbols)."""
    return _Parser(src, field, symbols).parse()


def parse_ratfunc_list(src: str, field: Field, symbols=()) -> list[RationalFunction]:
    """Parse a comma-separated list of rational functions, as "0,t,1"."""
    return _Parser(src, field, symbols).parse_list()


def parse_factored(src: str, field: Field, symbols=()) -> list[tuple]:
    """Parse a factored modulus like "(X)(X-1)^2(X-t)" into (root,
    multiplicity) pairs; the root of (X + tail) is -(tail)."""
    return _Parser(src, field, symbols).parse_factored()


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
