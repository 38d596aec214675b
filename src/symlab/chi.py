"""The automorphism group of k[X]/(X^3) in closed form.

Elements are the maps chi(a, b): X -> aX + bX^2 with a != 0.  Composition
follows chi(a,b) o chi(a',b') = chi(a*a', a*b' + a'^2*b), which matches
substitution composition of the image polynomials, and powers have the
closed form a^n X + (a^(n-1) + ... + a^(2n-2)) b X^2.

The classification of order-2 and order-3 elements depends only on the
characteristic and on whether the field has a primitive cube root of unity;
order_class selects the right case and, for finite fields of at most
LISTING_BOUND elements, materializes the element lists so they can be
checked against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import Field, FieldElement, FieldError, primitive_cube_root
from .poly import UniPoly
from .quotient import MonogenicAlgebra, SubstitutionMap

# Largest field whose element lists order_class builds: F_q lists up to 3q
# maps, and `chi` over F_9973 takes 0.2 s and prints 0.5 MB (F_100003: 1.8 s
# and 5.7 MB; in-process, Python 3.11 on a 2-vCPU VM).
LISTING_BOUND = 10**4

# Largest field on which no_s3_check (and `chi`) tests every pair of
# involutions: F_49 has 49 involutions, so 2,352 ordered pairs, checked in
# 0.012 s (in-process, Python 3.11 on a 2-vCPU VM).
NO_S3_BOUND = 49


@dataclass(frozen=True)
class Chi:
    """X -> aX + bX^2 with a != 0."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.field != self.b.field:
            raise FieldError("coefficients from different fields")
        if self.a.is_zero():
            raise ValueError("a must be nonzero")

    @property
    def field(self):
        return self.a.field

    @classmethod
    def identity(cls, field: Field) -> "Chi":
        return cls(field.one, field.zero)

    def compose(self, other: "Chi") -> "Chi":
        """self o other, i.e. substitute other's image into self's image."""
        if other.field != self.field:
            raise FieldError("maps over different fields")
        a, b = self.a, self.b
        ap, bp = other.a, other.b
        return Chi(a * ap, a * bp + ap * ap * b)

    def power(self, n: int) -> "Chi":
        """Closed-form n-th power, n >= 1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        a, b = self.a, self.b
        s = self.field.zero
        acc = a ** (n - 1)
        for _ in range(n - 1, 2 * n - 1):
            s = s + acc
            acc = acc * a
        return Chi(a**n, s * b)

    def inverse(self) -> "Chi":
        ai = self.a.inverse()
        return Chi(ai, -(ai**3) * self.b)

    def is_identity(self) -> bool:
        return self.a == self.field.one and self.b.is_zero()

    def order(self, max_order: int = 100):
        """Smallest k with self^k = id (by iterated composition), or None."""
        acc = self
        for k in range(1, max_order + 1):
            if acc.is_identity():
                return k
            acc = acc.compose(self)
        return None

    def as_substitution(self) -> SubstitutionMap:
        """The same map on field[X]/(X^3)."""
        field = self.field
        algebra = MonogenicAlgebra(field, UniPoly(field, [0, 0, 0, 1]))
        return SubstitutionMap(algebra, [field.zero, self.a, self.b])

    def __str__(self):
        return f"chi({self.a}, {self.b})"


def all_chis(field: Field):
    """All group elements over a finite field, in canonical order."""
    if field.size() is None:
        raise FieldError("enumeration needs a finite field")
    for a in field.elements():
        if a.is_zero():
            continue
        for b in field.elements():
            yield Chi(a, b)


@dataclass(frozen=True)
class OrderClassReport:
    """Case analysis of the order-2 and order-3 elements over one field."""

    case_label: str
    order2_description: str
    order3_description: str
    order2_elements: tuple | None
    order3_elements: tuple | None
    group_order: int | None  # q(q - 1) over F_q
    notes: tuple


def order_class(field: Field) -> OrderClassReport:
    """Classify the elements of exact order 2 and 3 (identity excluded).

    Each case gives, for each order, its description together with the
    elements it describes: all chi(a, b) for a in a list of values, with b
    arbitrary or b != 0."""
    char = field.characteristic()
    zeta = primitive_cube_root(field)
    one = field.one
    notes = []
    if zeta is None:
        order3 = ("empty", (), False)
    else:
        order3 = (
            "all chi(a, b) with a in {zeta3, zeta3^2}, b arbitrary",
            (zeta, zeta * zeta),
            False,
        )
    cube_roots = "no-zeta3" if zeta is None else "with-zeta3"

    if char == 2:
        label = f"char2-{cube_roots}"
        order2 = ("all chi(1, b) with b != 0", (one,), True)
    elif char == 3:
        # A primitive cube root cannot exist in characteristic 3, where
        # X^3 - 1 = (X - 1)^3; the with-zeta3 case is vacuous.
        label = "char3-no-zeta3"
        order2 = ("all chi(-1, b), b arbitrary", (-one,), False)
        order3 = ("all chi(1, b) with b != 0", (one,), True)
        notes.append(
            "characteristic 3 admits no primitive cube root of unity; "
            "the char3-with-zeta3 case is unreachable"
        )
    else:
        label = f"char-other-{cube_roots}"
        order2 = ("all chi(-1, b), b arbitrary", (-one,), False)

    q = field.size()
    order2_elements = order3_elements = None
    if q is not None and q > LISTING_BOUND:
        notes.append(f"element lists omitted past LISTING_BOUND = {LISTING_BOUND} field elements")
    elif q is not None:
        elems = list(field.elements())
        key = lambda c: (c.a.sort_key(), c.b.sort_key())

        def listing(avals, b_nonzero):
            bs = [b for b in elems if not (b_nonzero and b.is_zero())]
            return tuple(sorted((Chi(a, b) for a in avals for b in bs), key=key))

        order2_elements, order3_elements = (
            listing(avals, b_nonzero) for _, avals, b_nonzero in (order2, order3)
        )

    return OrderClassReport(
        case_label=label,
        order2_description=order2[0],
        order3_description=order3[0],
        order2_elements=order2_elements,
        order3_elements=order3_elements,
        group_order=None if q is None else q * (q - 1),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class NoS3Report:
    """Exhaustive check that no two distinct order-2 elements multiply to an
    order-3 element.  When it holds, S3 cannot embed in the group; it fails
    exactly in characteristic 3 (where chi(1,b) has order 3, and the group
    over F_3 is S3 itself), in which case a witness pair is returned."""

    field: Field
    ok: bool
    pairs_checked: int
    counterexample: tuple | None


def no_s3_check(field: Field) -> NoS3Report:
    """Test every ordered pair of distinct involutions, in canonical order.

    As 2 and 3 are prime, c has order 2 iff c != id and c o c = id, and w
    has order 3 iff w != id and w o w o w = id, so each order is settled by
    one or two compositions instead of a search up to a bound.  The field's
    elements are indexed once, in canonical order, and the whole pass runs
    on index pairs (a, b) through the field's addition and multiplication
    tables; only a witness is turned back into Chi maps.
    """
    if field.size() is None or field.size() > NO_S3_BOUND:
        raise FieldError(f"exhaustive check requires a finite field of size <= {NO_S3_BOUND}")
    elems = list(field.elements())
    vals = [e.value for e in elems]
    index = {v: i for i, v in enumerate(vals)}

    def table(op):
        # op is commutative: fill one triangle and mirror it
        t = [[0] * len(vals) for _ in vals]
        for i, x in enumerate(vals):
            for j in range(i, len(vals)):
                t[i][j] = t[j][i] = index[op(x, vals[j])]
        return t

    add, mul = table(field._add), table(field._mul)
    zero, one = index[field.zero.value], index[field.one.value]
    square = [mul[a][a] for a in range(len(vals))]
    ident = (one, zero)

    def compose(u, v):
        (a, b), (c, d) = u, v
        return mul[a][c], add[mul[a][d]][mul[square[c]][b]]

    involutions = [
        (a, b)
        for a in range(len(vals))
        if a != zero
        for b in range(len(vals))
        if (a, b) != ident and compose((a, b), (a, b)) == ident
    ]
    pairs = 0
    for u in involutions:
        for v in involutions:
            if u == v:
                continue
            pairs += 1
            w = compose(u, v)
            if w != ident and compose(compose(w, w), w) == ident:
                witness = tuple(Chi(elems[a], elems[b]) for a, b in (u, v))
                return NoS3Report(field, False, pairs, witness)
    return NoS3Report(field, True, pairs, None)
