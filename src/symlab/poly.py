"""Exact polynomial and rational-function arithmetic.

Univariate polynomials live over any fields.Field (including the function
fields defined at the bottom of this module).  Multivariate polynomials
carry a fixed, ordered symbol tuple; rational functions are pairs of them
whose equality is decided by cross multiplication, so no multivariate gcd
is ever needed.  Both polynomial types hold the field's raw values, so
each operation runs once, on those values, through the field's raw-value
protocol; a FieldElement is built only where one coefficient leaves
(`coeff`, `as_constant`, evaluation).  Every construction reads the one
canonical form `_canonical` on raw values: it strips shared monomial
content, over Q clears both denominators together, and makes the content
and the denominator's leading coefficient canonical, which keeps printed
output stable and fraction growth tame.  In a single symbol it is one
dense kernel on raw coefficient lists, `_dense_canonical`, which also
cancels the gcd of numerator and denominator: over Q in Z[t], by a
primitive pseudo-remainder sequence on Python ints, and over other fields
by Euclid on raw field values, taking remainders only;
`RationalFunction._from_values` builds from such lists through it.  Every
evaluation, expansion and limit at a point reads the one Taylor kernel
`taylor`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .fields import Arithmetic, Field, FieldElement, FieldError, RationalField, power, signed_sum


class UniPoly(Arithmetic):
    """Dense univariate polynomial over a field: `coeffs` holds the field's
    raw values, lowest degree first, with no trailing zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = [field.coerce(c).value for c in coeffs]
        while cs and field._is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _wrap(cls, field, values):
        """From raw values of `field`, lowest degree first, with no trailing
        zero, stored without coercion."""
        p = cls.__new__(cls)
        p.field = field
        p.coeffs = tuple(values)
        return p

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [c])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls(field, [0] * k + [c])

    @classmethod
    def from_roots(cls, field, roots):
        return cls(field, lagrange_numerator([field.coerce(r) for r in roots], None, field.one))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one.value

    def coeff(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return FieldElement(self.field, self.coeffs[k])
        return self.field.zero

    def _check(self, other):
        if isinstance(other, UniPoly):
            if other.field != self.field:
                raise FieldError("polynomials over different fields")
            return other
        try:
            return UniPoly.constant(self.field, self.field.coerce(other))
        except TypeError:
            return None

    def _plus(self, o):
        f, a, b = self.field, self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [*map(f._add, a, b), *a[len(b):]]
        while out and f._is_zero(out[-1]):
            out.pop()
        return UniPoly._wrap(f, out)

    def _times(self, o):
        return UniPoly._wrap(self.field, _mul_values(self.field, self.coeffs, o.coeffs))

    def _equals(self, o):
        return self.coeffs == o.coeffs

    def __neg__(self):
        return UniPoly._wrap(self.field, map(self.field._neg, self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, UniPoly.constant(self.field, 1))

    def __divmod__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        f = self.field
        if len(self.coeffs) < len(o.coeffs):
            return UniPoly.zero(f), self
        rem = list(self.coeffs)
        quo = [f.zero.value] * (len(rem) - len(o.coeffs) + 1)
        _reduce_values(f, rem, o.coeffs, quo)
        return UniPoly._wrap(f, quo), UniPoly._wrap(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: FieldElement) -> FieldElement:
        f = self.field
        return FieldElement(f, next(taylor(f, list(self.coeffs), f.coerce(x).value)))

    def compose_mod(self, g: "UniPoly", modulus: "UniPoly") -> "UniPoly":
        """self(g(X)) reduced mod `modulus`: Horner on raw values, reducing
        each step."""
        f = self.field
        acc = []
        for c in reversed(self.coeffs):
            acc = _mul_values(f, acc, g.coeffs)
            if acc:
                acc[0] = f._add(acc[0], c)
            else:
                acc = [c]
            while acc and f._is_zero(acc[-1]):
                acc.pop()
            _reduce_values(f, acc, modulus.coeffs)
        return UniPoly._wrap(f, acc)

    def __eq__(self, other):
        """Polynomials over two fields are unequal, not an error."""
        if isinstance(other, UniPoly) and other.field != self.field:
            return False
        return Arithmetic.__eq__(self, other)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def to_str(self, var: str = "X", ascending: bool = False) -> str:
        f, cs = self.field, self.coeffs
        rng = range(len(cs)) if ascending else range(len(cs) - 1, -1, -1)
        terms = [
            (f._fmt(cs[i]), "" if i == 0 else var if i == 1 else f"{var}^{i}")
            for i in rng
            if not f._is_zero(cs[i])
        ]
        return signed_sum(terms, wrap=True)

    def __str__(self):
        return self.to_str()


class MultiPoly(Arithmetic):
    """Multivariate polynomial over a field in a fixed ordered symbol tuple.

    `terms` maps exponent tuples to the field's raw values; no zero
    coefficient is ever stored.
    """

    __slots__ = ("field", "symbols", "terms")

    def __init__(self, field: Field, symbols, terms):
        self.field = field
        self.symbols = tuple(symbols)
        clean = {}
        for exps, c in terms.items():
            c = field.coerce(c).value
            if len(exps) != len(self.symbols):
                raise ValueError("exponent vector does not match symbol list")
            if not field._is_zero(c):
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, field, symbols, raw):
        """From a fresh {exponents: nonzero raw value of `field`}, stored
        as it is, without coercion."""
        p = cls.__new__(cls)
        p.field = field
        p.symbols = symbols
        p.terms = raw
        return p

    @classmethod
    def zero(cls, field, symbols):
        return cls(field, symbols, {})

    @classmethod
    def constant(cls, field, symbols, c):
        return cls(field, symbols, {(0,) * len(symbols): c})

    @classmethod
    def symbol(cls, field, symbols, name):
        symbols = tuple(symbols)
        if name not in symbols:
            raise ValueError(f"unknown symbol {name!r} (have {symbols})")
        e = [0] * len(symbols)
        e[symbols.index(name)] = 1
        return cls._wrap(field, symbols, {tuple(e): field.one.value})

    def _check(self, other):
        if isinstance(other, MultiPoly):
            if other.field != self.field or other.symbols != self.symbols:
                raise ValueError("polynomials in different contexts")
            return other
        try:
            return MultiPoly.constant(self.field, self.symbols, other)
        except TypeError:
            return None

    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, o):
        f, out = self.field, dict(self.terms)
        for e, c in o.terms.items():
            if e in out:
                s = f._add(out[e], c)
                if f._is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return MultiPoly._wrap(f, self.symbols, out)

    def _times(self, o):
        f = self.field
        mul, add, is_zero = f._mul, f._add, f._is_zero
        out = {}
        o_terms = list(o.terms.items())
        for e1, a in self.terms.items():
            for e2, b in o_terms:
                e = tuple(map(operator.add, e1, e2))
                prev = out.get(e)
                out[e] = mul(a, b) if prev is None else add(prev, mul(a, b))
        return MultiPoly._wrap(f, self.symbols, {e: v for e, v in out.items() if not is_zero(v)})

    def _equals(self, o):
        return self.terms == o.terms

    def __neg__(self):
        neg = self.field._neg
        return MultiPoly._wrap(self.field, self.symbols, {e: neg(c) for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, MultiPoly.constant(self.field, self.symbols, 1))

    def __hash__(self):  # pragma: no cover - not used as dict keys
        raise TypeError("MultiPoly is not hashable")

    def _idx(self, name):
        if name not in self.symbols:
            raise ValueError(f"unknown symbol {name!r} (have {self.symbols})")
        return self.symbols.index(name)

    def degree_in(self, name) -> int:
        i = self._idx(name)
        if self.is_zero():
            raise ValueError("degree of the zero polynomial")
        return max(e[i] for e in self.terms)

    def order_in(self, name) -> int:
        """Lowest exponent of `name` across nonzero terms."""
        return self.leading_term(name, 0)[0]

    def split(self, name) -> dict:
        """self as a polynomial in `name` over the remaining symbols: each
        exponent tuple of the remaining symbols maps to the raw coefficients
        of the powers of `name`, lowest first, with no trailing zero."""
        i = self._idx(name)
        zero = self.field.zero.value
        out = {}
        for e, c in self.terms.items():
            cs = out.setdefault(e[:i] + e[i + 1 :], [])
            cs.extend([zero] * (e[i] + 1 - len(cs)))
            cs[e[i]] = c
        return out

    def expand(self, name, value):
        """The Taylor coefficients of self at name = value, as polynomials
        in the remaining symbols, lowest power of (name - value) first and
        then zeros without end; only the coefficients taken are computed."""
        split, f = self.split(name), self.field
        rest, v = tuple(s for s in self.symbols if s != name), f.coerce(value).value
        series = [taylor(f, cs, v) for cs in split.values()]
        while True:
            cs = [next(s) for s in series]
            yield MultiPoly._wrap(f, rest, {r: c for r, c in zip(split, cs) if not f._is_zero(c)})

    def leading_term(self, name, value):
        """(k, c): the lowest power k of (name - value) with a nonzero
        coefficient c in the Taylor expansion at name = value, c being a
        polynomial in the remaining symbols."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no order")
        return next((k, c) for k, c in enumerate(self.expand(name, value)) if not c.is_zero())

    def substitute(self, name, value) -> "MultiPoly":
        """Evaluate `name` at a field element; result drops that symbol."""
        return next(self.expand(name, value))

    def eval_all(self, values: dict) -> FieldElement:
        """Evaluate at a full assignment of symbols to field elements."""
        missing = [s for s in self.symbols if s not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        p = self
        for s in self.symbols:
            p = p.substitute(s, values[s])
        return p.as_constant()

    def as_constant(self) -> FieldElement:
        if self.is_zero():
            return self.field.zero
        if len(self.terms) == 1:
            e, c = next(iter(self.terms.items()))
            if all(x == 0 for x in e):
                return FieldElement(self.field, c)
        raise ValueError("polynomial is not constant")

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)

    def __str__(self):
        terms = []
        for e, c in self._sorted_terms():
            mon = "*".join(s if k == 1 else f"{s}^{k}" for s, k in zip(self.symbols, e) if k > 0)
            terms.append((self.field._fmt(c), mon))
        return signed_sum(terms, wrap=True)


@dataclass(frozen=True)
class Pole:
    """Marker returned by limits that do not exist; order >= 1."""

    order: int


def taylor(field: Field, cs: list, t0):
    """The Taylor coefficients at the raw value t0 of the polynomial with
    raw coefficients cs (lowest degree first), lowest first, as raw values
    and then zeros without end: repeated synthetic division by t - t0, each
    remainder being the next coefficient, so only the coefficients taken are
    computed.  At t0 = 0 they are cs itself."""
    if field._is_zero(t0):
        yield from cs
        cs = []
    mul, add = field._mul, field._add
    while cs:
        acc, quo = cs[-1], cs[:-1]
        for i in range(len(cs) - 2, -1, -1):
            quo[i] = acc
            acc = add(cs[i], mul(acc, t0))
        yield acc
        cs = quo
    yield from itertools.repeat(field.zero.value)


def _mul_values(f: Field, a: list, b: list) -> list:
    """Product of two lists of raw values of `f`, lowest degree first, with
    no trailing zero; [] when either is []."""
    if not a or not b:
        return []
    mul, add = f._mul, f._add
    out = [mul(a[0], y) for y in b]
    head, last = b[:-1], b[-1]
    for i in range(1, len(a)):
        x = a[i]
        for j, y in enumerate(head, i):
            out[j] = add(out[j], mul(x, y))
        out.append(mul(x, last))
    return out


def _reduce_values(f: Field, rem: list, div: list, quo: list = None) -> list:
    """Reduce `rem` modulo `div` in place and return it; both are lists of
    raw values of `f`, lowest degree first, with no trailing zero, and
    `div` is not empty.  When a list `quo` of len(rem) - len(div) + 1
    zeros is given, the quotient's coefficients are stored in it."""
    mul, sub, is_zero = f._mul, f._sub, f._is_zero
    low = div[:-1]
    inv_lead = f._inv(div[-1])
    while len(rem) > len(low):
        # the leading term cancels exactly; only the lower ones change
        c = mul(rem.pop(), inv_lead)
        k = len(rem) - len(low)
        if quo is not None:
            quo[k] = c
        for i, b in enumerate(low):
            rem[k + i] = sub(rem[k + i], mul(c, b))
        while rem and is_zero(rem[-1]):
            rem.pop()
    return rem


def _poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd of two univariate polynomials (zero when both are), by
    Euclid on raw values, taking remainders only."""
    f = a.field
    x, y = list(a.coeffs), list(b.coeffs)
    while y:
        x, y = y, _reduce_values(f, x, y)
    if not x:
        return UniPoly.zero(f)
    inv = f._inv(x[-1])
    return UniPoly._wrap(f, [f._mul(c, inv) for c in x])


def _primitive(p: list) -> list:
    """An integer polynomial divided by the gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _int_gcd(a: list, b: list) -> list:
    """A primitive gcd in Z[t] of two nonzero integer polynomials (lowest
    degree first) by the primitive pseudo-remainder sequence (Brown 1971):
    each pseudo-remainder is cut to its primitive part, so the integers
    stay as small as the gcd allows.  The sign is not normalized."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        rem, lead, top = list(a), b[-1], len(b) - 1
        while len(rem) > top:
            # rem -> (lead/g) * rem - (rem's lead/g) * t^k * b, g their gcd
            c = rem.pop()
            g = math.gcd(lead, c)
            m, c = lead // g, c // g
            k = len(rem) - top
            if m != 1:
                rem = [m * v for v in rem]
            for i in range(top):
                rem[k + i] -= c * b[i]
            while rem and not rem[-1]:
                rem.pop()
        a, b = b, _primitive(rem) if rem else rem
    return a


def _int_exact_quotient(a: list, g: list) -> list:
    """a / g in Z[t] for a g that divides a there (lowest degree first)."""
    rem, top, lead = list(a), len(g) - 1, g[-1]
    quo = [0] * (len(a) - top)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + top] // lead
        quo[k] = c
        if c:
            for i in range(top):
                rem[k + i] -= c * g[i]
    return quo


def clear_denominators(vals) -> list:
    """Rationals times their least common denominator, as integers."""
    # a list: f(*generator) shrinks a 10-slot tuple to size, and CPython's
    # tuple free lists keep each such tuple until a full garbage collection
    scale = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (scale // v.denominator) for v in vals]


def lagrange_numerator(zs, i, one):
    """Coefficients, X^0 first, of prod_{j != i} (X - z_j), the product
    over every j when i is None; entries need only +, -, *, with `one` the
    unit of their ring."""
    numer = [one]
    for j, z in enumerate(zs):
        if j != i:
            numer = (
                [-(z * numer[0])]
                + [a - z * b for a, b in zip(numer, numer[1:])]
                + [numer[-1]]
            )
    return numer


def _canonical(num: MultiPoly, den: MultiPoly):
    """(num, den) in canonical form, den nonzero: in a single symbol by the
    dense kernel `_dense_canonical`; in several, with the largest monomial
    dividing every term of both stripped, over Q both cleared of
    denominators together, and both `_scaled` on den's leading term, its
    first in `_sorted_terms` order."""
    f, symbols = num.field, num.symbols
    if len(symbols) == 1:
        return _dense_canonical(f, symbols, *(p.split(symbols[0]).get((), []) for p in (num, den)))
    if num.is_zero():
        return num, MultiPoly._wrap(f, symbols, {(0,) * len(symbols): f.one.value})
    lows = [min(e) for e in zip(*num.terms, *den.terms)]
    exps = [[tuple(map(operator.sub, e, lows)) for e in p.terms] for p in (num, den)]
    vals, k = [*num.terms.values(), *den.terms.values()], len(num.terms)
    if isinstance(f, RationalField):
        vals = clear_denominators(vals)
    lead = max(range(len(exps[1])), key=lambda i: (sum(exps[1][i]), exps[1][i]))
    vals = _scaled(f, vals, k + lead)
    parts = dict(zip(exps[0], vals)), dict(zip(exps[1], vals[k:]))
    return tuple(MultiPoly._wrap(f, symbols, p) for p in parts)


def _dense_canonical(f: Field, symbols: tuple, a: list, b: list):
    """The canonical (num, den) in the one symbol of `symbols` from raw
    coefficient lists a and b, lowest degree first, b ending in a nonzero
    value: the common power of the symbol stripped, the gcd cancelled (over
    Q by the primitive PRS in Z[t] after clearing both of denominators
    together, elsewhere by Euclid), and both `_scaled` on b's leading
    coefficient.  The coprime pair so scaled is unique, so equal values
    print alike."""
    is_zero = f._is_zero
    while a and is_zero(a[-1]):
        a = a[:-1]
    if a:
        low = min(next(k for k, v in enumerate(p) if not is_zero(v)) for p in (a, b))
        a, b = a[low:], b[low:]
        if isinstance(f, RationalField):
            ints = clear_denominators([*a, *b])
            a, b = ints[: len(a)], ints[len(a) :]
            g = _int_gcd(a, b)
            if len(g) > 1:
                a, b = _int_exact_quotient(a, g), _int_exact_quotient(b, g)
        else:
            g = _poly_gcd(UniPoly._wrap(f, a), UniPoly._wrap(f, b))
            if g.degree > 0:
                a, b = ((UniPoly._wrap(f, p) // g).coeffs for p in (a, b))
        vals = _scaled(f, [*a, *b], -1)
        a, b = vals[: len(a)], vals[len(a) :]
    else:
        b = [f.one.value]
    return tuple(
        MultiPoly._wrap(f, symbols, {(k,): v for k, v in enumerate(p) if not is_zero(v)}) for p in (a, b)
    )


def _scaled(f: Field, vals: list, lead: int) -> list:
    """The raw values of a numerator and a denominator scaled so that, over
    Q on integers, their joint content is 1 and vals[lead], the
    denominator's leading coefficient, positive; elsewhere vals[lead] is 1."""
    c = vals[lead]
    if isinstance(f, RationalField):
        s = math.gcd(*vals)
        s = -s if c < 0 else s
        return [v // s for v in vals]
    inv = f._inv(c)
    return [f._mul(v, inv) for v in vals]


class RationalFunction(Arithmetic):
    """Fraction of multivariate polynomials; compared by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if den.field != num.field or den.symbols != num.symbols:
            raise ValueError("numerator and denominator in different contexts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _canonical(num, den)

    @classmethod
    def _from_values(cls, field, symbols, num: list, den: list):
        """num/den from raw coefficient lists in the one symbol of `symbols`,
        as `_dense_canonical` takes them."""
        r = cls.__new__(cls)
        r.num, r.den = _dense_canonical(field, symbols, num, den)
        return r

    @classmethod
    def from_poly(cls, p: MultiPoly):
        return cls(p, MultiPoly.constant(p.field, p.symbols, 1))

    @classmethod
    def constant(cls, field, symbols, c):
        return cls.from_poly(MultiPoly.constant(field, symbols, c))

    @classmethod
    def symbol(cls, field, symbols, name):
        return cls.from_poly(MultiPoly.symbol(field, symbols, name))

    @property
    def field(self):
        return self.num.field

    @property
    def symbols(self):
        return self.num.symbols

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _check(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field or other.symbols != self.symbols:
                raise ValueError("rational functions in different contexts")
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction.from_poly(other)
        try:
            return RationalFunction.constant(self.field, self.symbols, other)
        except TypeError:
            return None

    def _plus(self, o):
        # over a shared denominator the sum keeps it; with several symbols,
        # where _canonical cancels no gcd, den^2 would stay
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    def _times(self, o):
        return RationalFunction(self.num * o.num, self.den * o.den)

    def _over(self, o):
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def _equals(self, o):
        return self.num * o.den == o.num * self.den

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __pow__(self, n: int):
        if n < 0:
            return (RationalFunction(self.den, self.num)) ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __hash__(self):  # pragma: no cover
        raise TypeError("RationalFunction has no canonical form; not hashable")

    def order_in(self, name) -> int:
        """Order at `name` = 0: ord(num) - ord(den), coefficients being
        polynomials in the remaining symbols."""
        if self.is_zero():
            raise ValueError("the zero rational function has no order")
        return self.num.order_in(name) - self.den.order_in(name)

    def limit_at(self, name, value):
        """Exact limit as `name` -> value.

        Returns a RationalFunction in the remaining symbols when the limit
        exists (removable singularities included), else a Pole with the
        negative of the order.
        """
        if not self.is_zero():
            (a, num), (b, den) = (p.leading_term(name, value) for p in (self.num, self.den))
            if a < b:
                return Pole(b - a)
            if a == b:
                return RationalFunction(num, den)
        return RationalFunction.constant(self.field, tuple(s for s in self.symbols if s != name), 0)

    def as_constant(self) -> FieldElement:
        return self.num.as_constant() / self.den.as_constant()

    def __str__(self):
        if self.den.terms == {(0,) * len(self.symbols): self.field.one.value}:
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if not _is_wrapped(ns) and (any(ch in ns for ch in "+ ") or "-" in ns[1:]):
            ns = f"({ns})"
        if not _is_wrapped(ds) and (
            any(ch in ds for ch in "+* ") or "-" in ds[1:] or "^" in ds
        ):
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _is_wrapped(s: str) -> bool:
    """True when s is one balanced (...) group, so wrapping again is noise."""
    if not (s.startswith("(") and s.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return False
    return depth == 0


class FunctionField(Field):
    """Field of rational functions over a base field in fixed symbols.

    Raw values are RationalFunction instances.  No canonical form exists,
    so elements are not hashable (RationalFunction.__hash__ raises) and
    have no order; their == is cross multiplication.
    """

    def __init__(self, base: Field, symbols):
        self.base = base
        self.symbols = tuple(symbols)
        self._key = ("funcfield", base, self.symbols)
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def coerce(self, x):
        if isinstance(x, (MultiPoly, RationalFunction)):
            if x.field == self:  # over this field: its own operators apply
                raise TypeError(f"{x} is over {self}, not an element of it")
            if x.field != self.base or x.symbols != self.symbols:
                raise FieldError("rational function from a different context")
            return FieldElement(self, RationalFunction.from_poly(x) if isinstance(x, MultiPoly) else x)
        return Field.coerce(self, x)

    def _lift(self, raw):
        return RationalFunction.constant(self.base, self.symbols, FieldElement(self.base, raw))

    def symbol(self, name) -> FieldElement:
        return FieldElement(
            self, RationalFunction.symbol(self.base, self.symbols, name)
        )

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return a.inverse()

    def _is_zero(self, a):
        return a.is_zero()

    def __repr__(self):
        return f"{self.base}({', '.join(self.symbols)})"
