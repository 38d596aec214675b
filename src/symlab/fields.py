"""Exact scalar arithmetic: rationals, prime fields, and small extension fields.

A field object is a descriptor whose identity is a key of the data it is
built from, so two descriptors built from the same data compare equal and
elements of independently constructed copies of F_7 interoperate.  One
coercion, on the base descriptor, serves every kind: an element of the
field as it is, an element of its base field lifted, an int or a Fraction
by its value.  Elements are immutable wrappers around a canonical raw
value (over Q an int when integral and a reduced Fraction otherwise, a
residue in [0, p), or a tuple of those for extensions), so Python's own
==, hash and < on raw values are the field's equality, hash and order (an
int and a Fraction compare and hash alike): the raw value is the
element's key.

Supported extensions are quotients base[Y]/(m(Y)) with m monic of degree 2
or 3.  Over a finite base, irreducibility is certified by the absence of
roots (sufficient up to degree 3).  Over the rationals only the cyclotomic
modulus Y^2 + Y + 1 is accepted; anything else is rejected.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class FieldError(ValueError):
    """Invalid field construction, or arithmetic across different fields."""


# Most candidates a brute-force enumeration may loop over, each weighted by
# its cost.  Measured with Python 3.11 on a shared 2-vCPU VM, as process CPU
# time: `aut --brute-force` checks each image it enumerates in full, at
# 40-80 us per image up to degree 4 (F_13, rootless X^3 - 2: 2,197 images in
# 0.11 s) and about 5*n^2 us at degree n past that (F_2: 320 us at degree 8,
# 810 us at 12, 880 us at 14), so it counts all q^n images of X, each
# weighted n^2 // 16 (at least 1).  `talg` costs about 35 us per
# combination of its pruned columns, printing included (F_13 at t = 0:
# 28,561 in 1.0 s), and about 2.5 us per vector of its pruning pass (T(1)
# over F_31: 29,791 in 0.08 s).  So a run stays under about 10 s.
ENUMERATION_BUDGET = 5 * 10**4


def check_budget(count: int, what: str, weight: int = 1):
    """Raise ValueError when an enumeration would loop over more than
    ENUMERATION_BUDGET `what`, each one counted `weight` times."""
    if count * weight > ENUMERATION_BUDGET:
        each = f" of weight {weight}" if weight > 1 else ""
        raise ValueError(
            f"enumeration budget exceeded: {count} {what}{each}, "
            f"past ENUMERATION_BUDGET = {ENUMERATION_BUDGET}"
        )


# Most decimal digits of an integer or power that parse reads, and of a
# rational printed over Q or read by `lines`; Python converts up to 4300.
MAX_POWER_DIGITS = 4000
_DIGIT_LIMIT = 10**MAX_POWER_DIGITS


def signed_sum(terms, wrap: bool = False) -> str:
    """Join (coefficient string, monomial) pairs as "c*m + m - c*m".

    An empty monomial marks the constant term; coefficients 1 and -1 of a
    monomial are left implicit.  With `wrap`, a compound coefficient (one
    holding "+", "/", a space or an inner "-") is parenthesized first.
    No terms renders as "0".
    """
    parts = []
    for cs, mon in terms:
        if wrap and (any(ch in cs for ch in "+/ ") or "-" in cs[1:]):
            cs = f"({cs})"
        if not mon:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + mon)
        else:
            parts.append(f"{cs}*{mon}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply; `one` is the unit of the
    ring of `base`, which needs only *.  Callers decide what n < 0 means."""
    acc = one
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


# Miller-Rabin to the first 13 prime bases is exact below PRIMALITY_BOUND
# (about 3.3 * 10^24), the least composite passing them all; the first 12
# alone pass the composite 318665857834031151167461.  Larger p are refused.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIMALITY_BOUND."""
    if n < 2 or any(n % a == 0 for a in MILLER_RABIN_BASES):
        return n in MILLER_RABIN_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in MILLER_RABIN_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class Arithmetic:
    """The operator protocol of every exact value type, written once.

    Each operator passes the other operand through the type's `_check`,
    which returns it as a value of the type, None for a type it does not
    take (giving NotImplemented), or raises on a mixed field or context.
    It then calls the type's hooks: `_plus`, `_times` and `_equals`;
    `_minus`, by default `_plus` of the negation; and `_over`, by default
    `_times` of the inverse.  `/` exists only on types with an `inverse`.
    + and * are commutative here, so their reflected forms compute
    self + other and self * other: `2 + x` builds the value `x + 2` does.
    """

    __slots__ = ()

    def _minus(self, o):
        return self._plus(-o)

    def _over(self, o):
        return self._times(o.inverse())

    def __add__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._plus(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._minus(o)

    def __rsub__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else o._minus(self)

    def __mul__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._times(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other) if hasattr(self, "inverse") else None
        return NotImplemented if o is None else self._over(o)

    def __rtruediv__(self, other):
        o = self._check(other) if hasattr(self, "inverse") else None
        return NotImplemented if o is None else o._over(self)

    def __eq__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._equals(o)

    def __repr__(self):
        return str(self)


class FieldElement(Arithmetic):
    """Immutable scalar; arithmetic delegates to the owning field."""

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        self.field = field
        self.value = value

    def _check(self, other):
        if isinstance(other, FieldElement):
            # the identity test spares a call to the field's __eq__ per operation;
            # a base element is refused, not lifted as coerce would, so a + b and b + a agree
            if other.field is not self.field and other.field != self.field:
                raise FieldError(f"mixed fields: {self.field} and {other.field}")
            return other
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def _plus(self, o):
        return FieldElement(self.field, self.field._add(self.value, o.value))

    def _minus(self, o):
        return FieldElement(self.field, self.field._sub(self.value, o.value))

    def _times(self, o):
        return FieldElement(self.field, self.field._mul(self.value, o.value))

    def _equals(self, o):
        return self.value == o.value

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return power(self.inverse(), -n, self.field.one)
        return power(self, n, self.field.one)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.field}")
        return FieldElement(self.field, self.field._inv(self.value))

    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """Deterministic ordering key within one field (not for function fields)."""
        return self.value

    def __str__(self):
        return self.field._fmt(self.value)


class Field:
    """Base descriptor.  Each field kind sets the immutable elements `zero`
    and `one` once, at construction.  They are plain attributes, not a
    cached_property: writing the instance __dict__ directly turns off
    CPython 3.11's specialized attribute lookups on that object, and field
    attributes are read on every operation.

    A descriptor is its `_key`, the tuple of data it is built from, whose
    equality and hash are the descriptor's.  `base` is the field it is
    built over (None for Q and F_p), whose characteristic it has.  `coerce`
    rests on two hooks that return raw values: `_lift` of a raw value of
    `base`, and `_number` of an int or Fraction (by default `_lift` of the
    base's `_number`).

    Each kind implements the raw-value protocol: arithmetic only (`_add`,
    `_sub`, `_mul`, `_neg`, `_inv`), plus the hooks Python's operators cannot
    replace: `_is_zero` (a function-field zero is a zero numerator),
    `_canonical` (over Q and F_p only: the raw value of a value computed
    with Python's own +, - and * from raw values) and `_fmt` (rendering,
    under the digit bound).  Raw values are canonical, so equality, hashing
    and ordering are Python's own on them.
    """

    zero: FieldElement
    one: FieldElement
    base: "Field | None" = None
    _key: tuple

    def coerce(self, x) -> FieldElement:
        """`x` as an element of this field: an element of it unchanged, an
        element of `base` lifted, an int or Fraction by its value."""
        if isinstance(x, FieldElement):
            if x.field is self or x.field == self:
                return x
            if x.field == self.base:
                return FieldElement(self, self._lift(x.value))
            raise FieldError(f"mixed fields: {self} and {x.field}")
        if isinstance(x, (int, Fraction)):
            return FieldElement(self, self._number(x))
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def _number(self, x):
        return self._lift(self.base._number(x))

    def __eq__(self, other):
        return other is self or isinstance(other, Field) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def characteristic(self) -> int:
        return self.base.characteristic()

    def size(self):
        """Number of elements, or None when infinite."""
        return None

    def elements(self):
        """Iterate all elements in a fixed canonical order (finite fields only)."""
        raise FieldError(f"{self} is not finite")

    def _fmt(self, a) -> str:
        return str(a)


def _rational(a):
    """The raw value of Q of an int or a Fraction: an int when integral."""
    return a if type(a) is int or a.denominator != 1 else a.numerator


class RationalField(Field):
    """The rational numbers; a raw value is an int when integral, a reduced
    Fraction otherwise."""

    _key = ("Q",)
    _number = staticmethod(_rational)

    def __init__(self):
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def characteristic(self):
        return 0

    def _add(self, a, b):
        return _rational(a + b)

    def _sub(self, a, b):
        return _rational(a - b)

    def _mul(self, a, b):
        return _rational(a * b)

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return _rational(Fraction(a.denominator, a.numerator))

    def _canonical(self, a):
        return _rational(a)

    def _fmt(self, a):
        if max(abs(a.numerator), a.denominator) >= _DIGIT_LIMIT:
            raise ValueError(f"a number of more than MAX_POWER_DIGITS = {MAX_POWER_DIGITS} digits")
        return str(a)

    def _is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """F_p for a prime p; raw values are residues in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIMALITY_BOUND:
            raise FieldError(f"p must be below PRIMALITY_BOUND = {PRIMALITY_BOUND}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self._key = ("Fp", p)
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def _number(self, x):
        if isinstance(x, int):
            return x % self.p
        den = x.denominator % self.p
        if den == 0:
            raise FieldError(f"{x} has no image in {self}")
        return x.numerator * pow(den, -1, self.p) % self.p

    def characteristic(self):
        return self.p

    def size(self):
        return self.p

    def elements(self):
        for v in range(self.p):
            yield FieldElement(self, v)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _canonical(self, a):
        return a % self.p

    def _is_zero(self, a):
        return a == 0

    def __repr__(self):
        return f"F{self.p}"


class ExtensionField(Field):
    """base[Y]/(m(Y)) with m monic irreducible of degree 2 or 3, over a
    prime field or Q.

    Raw values are tuples of base raw values of length deg(m), lowest
    degree first.  Products are formed natively on those values (ints over
    F_p, ints and Fractions over Q): the schoolbook product and the fold by
    m accumulate with Python's own arithmetic, and each output coefficient
    is brought back to its raw value once, by the base's `_canonical`
    (% p over F_p, an integral Fraction to its int over Q).
    """

    def __init__(self, base: Field, modulus, generator_name: str = "Y"):
        if not isinstance(base, (PrimeField, RationalField)):
            raise FieldError("an extension needs a prime field or Q as its base")
        self.base = base
        coeffs = [base.coerce(c).value for c in modulus]
        while coeffs and base._is_zero(coeffs[-1]):
            coeffs.pop()
        deg = len(coeffs) - 1
        if deg < 2:
            raise FieldError("extension modulus must have degree at least 2")
        if coeffs[-1] != base.one.value:
            raise FieldError("extension modulus must be monic")
        self.modulus = tuple(coeffs)
        self.degree = deg
        self.generator_name = generator_name
        self._check_irreducible()
        self._key = ("ext", base, self.modulus)
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def _check_irreducible(self):
        if self.base.size() is not None:
            if self.degree > 3:
                raise FieldError("extensions of degree > 3 are not supported")
            for x in self.base.elements():
                acc = self.base.zero.value
                for c in reversed(self.modulus):
                    acc = self.base._add(self.base._mul(acc, x.value), c)
                if self.base._is_zero(acc):
                    raise FieldError(
                        f"modulus has root {x} over {self.base}: not irreducible"
                    )
            return
        if isinstance(self.base, RationalField) and self.modulus == (1, 1, 1):
            return
        raise FieldError(
            "over the rationals only the modulus Y^2 + Y + 1 is supported"
        )

    def generator(self) -> FieldElement:
        z = self.base.zero.value
        return FieldElement(self, (z, self.base.one.value) + (z,) * (self.degree - 2))

    def _lift(self, raw):
        return (raw,) + (self.base.zero.value,) * (self.degree - 1)

    def size(self):
        b = self.base.size()
        return None if b is None else b**self.degree

    def elements(self):
        base_vals = [e.value for e in self.base.elements()]
        for tup in itertools.product(base_vals, repeat=self.degree):
            yield FieldElement(self, tup)

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _sub(self, a, b):
        return tuple(map(self.base._sub, a, b))

    def _mul(self, a, b):
        d, m = self.degree, self.modulus
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # Y^d = -(m_0 + m_1*Y + ... + m_(d-1)*Y^(d-1)): fold the top degrees down
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            for i in range(d):
                prod[k - d + i] -= c * m[i]
        return tuple(map(self.base._canonical, prod[:d]))

    def _neg(self, a):
        return tuple(self.base._neg(c) for c in a)

    def _inv(self, a):
        q = self.size()
        if q is not None:
            return (FieldElement(self, a) ** (q - 2)).value
        # Q(zeta3) is the only infinite extension admitted; its norm form
        # gives (x + y*Y)(x - y - y*Y) = x^2 - x*y + y^2.
        x, y = a
        n = Fraction(x * x - x * y + y * y)
        return (_rational((x - y) / n), _rational(-y / n))

    def _is_zero(self, a):
        return all(self.base._is_zero(c) for c in a)

    def _fmt(self, a):
        name = self.generator_name
        return signed_sum(
            (self.base._fmt(a[i]), "" if i == 0 else name if i == 1 else f"{name}^{i}")
            for i in range(len(a) - 1, -1, -1)
            if not self.base._is_zero(a[i])
        )

    def __repr__(self):
        return f"{self.base}[{self.generator_name}]/({self._fmt(self.modulus)})"


QQ = RationalField()


def GF(p: int, k: int = 1) -> Field:
    """F_p for k = 1, else F_{p^k} via the lexicographically smallest
    monic irreducible modulus of degree k over F_p (k in {2, 3})."""
    base = PrimeField(p)
    if k == 1:
        return base
    if k not in (2, 3):
        raise FieldError("only extension degrees 2 and 3 are supported")
    for tail in itertools.product(range(p), repeat=k):
        coeffs = list(tail) + [1]
        try:
            return ExtensionField(base, coeffs)
        except FieldError:
            continue
    raise FieldError(f"no irreducible modulus of degree {k} over F_{p}")  # unreachable


def rationals_with_cube_root() -> ExtensionField:
    """Q extended by a primitive cube root of unity: Q[z]/(z^2 + z + 1)."""
    return ExtensionField(QQ, [1, 1, 1], "zeta3")


def primitive_cube_root(field: Field) -> FieldElement | None:
    """A deterministic primitive cube root of unity in `field`, if one exists.

    Over F_q there is one iff q = 1 mod 3: the smaller, in canonical element
    order, of r and r^2 for the first nonzero x with r = x^((q-1)/3) != 1.
    For the supported rational extension the generator itself is tested.
    """
    one = field.one
    q = field.size()
    if q is not None:
        if q % 3 != 1:
            return None
        powers = (x ** ((q - 1) // 3) for x in field.elements() if not x.is_zero())
        r = next(r for r in powers if r != one)
        return min(r, r * r, key=FieldElement.sort_key)
    if isinstance(field, ExtensionField):
        g = field.generator()
        if g != one and g * g * g == one:
            return g
        return None
    return None


def parse_field_spec(spec: str) -> Field:
    """Parse the CLI field mini-syntax: Q, Fp(7), F(2,2), Qzeta3."""
    s = spec.strip()
    if s == "Q":
        return QQ
    if s == "Qzeta3":
        return rationals_with_cube_root()
    if s.startswith("Fp(") and s.endswith(")"):
        try:
            p = int(s[3:-1])
        except ValueError:
            raise FieldError(f"bad field spec {spec!r}") from None
        return PrimeField(p)
    if s.startswith("F(") and s.endswith(")"):
        body = s[2:-1].split(",")
        if len(body) != 2:
            raise FieldError(f"bad field spec {spec!r}")
        try:
            p, k = int(body[0]), int(body[1])
        except ValueError:
            raise FieldError(f"bad field spec {spec!r}") from None
        return GF(p, k)
    raise FieldError(f"unknown field spec {spec!r} (expected Q, Fp(p), F(p,k), Qzeta3)")
