"""Finite-dimensional (possibly noncommutative) algebras given by structure
constants, the one-parameter triangular family, and exhaustive automorphism
enumeration over small finite fields.

The triangular family T(t) has basis (1, e2, e3) with e2^2 = t^2,
e3^2 = 0, e2*e3 = t*e3, e3*e2 = -t*e3.  At t = 1 this is the algebra of
upper-triangular 2x2 matrices; at t = 0 it is commutative.

An algebra holds its table once, as sparse cells of raw field values, and
its elements and maps hold raw values too; products, the morphism check
and the brute force run on those.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import (
    Field, FieldElement, FieldError, check_budget, parse_field_spec, signed_sum,
)
from .linalg import CoordinateVector, Matrix
from .poly import FunctionField, Pole


class StructureConstAlgebra:
    """Algebra defined by an n x n table of product coordinate vectors.

    table[i][j] is the coordinate vector of (basis_i * basis_j); the unit is
    given by its coordinate vector.  Construction verifies the unit axiom on
    every basis vector, then associativity on the basis triples that axiom
    leaves open: those without a basis vector equal to the unit.  The table
    is held once, as sparse raw cells: cells[i][j] holds the (k, raw value)
    pairs of the nonzero coordinates of table[i][j], and products run on
    those.  `unit` holds raw values.
    """

    def __init__(self, field: Field, table, unit, basis_names=None):
        self.field = field
        n = self.dim = len(table)
        if any(len(row) != n or any(len(cell) != n for cell in row) for row in table):
            raise ValueError("table must be n x n cells of n coordinates")
        self.cells = tuple(
            tuple(
                tuple((k, v) for k, v in enumerate(field.coerce(c).value for c in cell)
                      if not field._is_zero(v))
                for cell in row
            )
            for row in table
        )
        self.unit = tuple(field.coerce(c).value for c in unit)
        if len(self.unit) != n:
            raise ValueError("unit vector length must equal the dimension")
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i + 1}" for i in range(n)
        )
        self._verify()

    def _verify(self):
        one, basis = self.one(), [self.basis(i) for i in range(self.dim)]
        for i, b in enumerate(basis):
            if one * b != b or b * one != b:
                raise ValueError(f"unit axiom fails on basis vector {i + 1}")
        rest = [i for i, b in enumerate(basis) if b != one]
        for i, j, k in itertools.product(rest, repeat=3):
            if (basis[i] * basis[j]) * basis[k] != basis[i] * (basis[j] * basis[k]):
                raise ValueError(
                    f"associativity fails on basis triple ({i + 1}, {j + 1}, {k + 1})"
                )

    def product_values(self, u, v) -> list:
        """The product of two coordinate lists of raw values, as raw
        values, from the sparse cells."""
        f = self.field
        mul, add, is_zero = f._mul, f._add, f._is_zero
        out = [f.zero.value] * self.dim
        for a, row in zip(u, self.cells):
            if is_zero(a):
                continue
            for b, cell in zip(v, row):
                if is_zero(b):
                    continue
                ab = mul(a, b)
                for k, c in cell:
                    out[k] = add(out[k], mul(ab, c))
        return out

    def element(self, coeffs) -> "StructElement":
        return StructElement(self, coeffs)

    def basis(self, i: int) -> "StructElement":
        cs = [self.field.zero.value] * self.dim
        cs[i] = self.field.one.value
        return StructElement._wrap(self, cs)

    def one(self) -> "StructElement":
        return StructElement._wrap(self, self.unit)

    def zero(self) -> "StructElement":
        return self.element([0] * self.dim)

    def is_commutative(self) -> bool:
        return all(
            self.basis(i) * self.basis(j) == self.basis(j) * self.basis(i)
            for i in range(self.dim)
            for j in range(i + 1, self.dim)
        )

    def __eq__(self, other):
        if not isinstance(other, StructureConstAlgebra):
            return NotImplemented
        return self.field == other.field and self.cells == other.cells and self.unit == other.unit

    def __hash__(self):
        return hash((self.field, self.cells, self.unit))

    def __repr__(self):
        return f"<{self.dim}-dim algebra over {self.field}>"


class StructElement(CoordinateVector):
    __slots__ = ()

    def _times(self, other):
        return StructElement._wrap(self.algebra, self.algebra.product_values(self.coeffs, other.coeffs))

    def __str__(self):
        # a basis vector named "1" is still a monomial: 2*1, not 2
        f = self.algebra.field
        terms = [
            (f._fmt(c), name)
            for name, c in zip(self.algebra.basis_names, self.coeffs)
            if not f._is_zero(c)
        ]
        return signed_sum(terms, wrap=True)


class LinearAlgebraMap:
    """Linear map between equal-dimensional algebras over one field,
    columns of `matrix` being the images of the source basis vectors."""

    def __init__(self, source: StructureConstAlgebra, target: StructureConstAlgebra, matrix: Matrix):
        if source.field != target.field:
            raise FieldError("source and target over different fields")
        if source.dim != target.dim:
            raise ValueError("source and target dimensions differ")
        if matrix.nrows != source.dim or matrix.ncols != source.dim:
            raise ValueError("matrix shape does not match the dimension")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_images(cls, source, target, images):
        """The map sending basis vector i to the target element images[i]."""
        return cls(source, target, Matrix._wrap(source.field, zip(*(im.coeffs for im in images))))

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, Matrix.identity(algebra.field, algebra.dim))

    def __call__(self, u: StructElement) -> StructElement:
        if u.algebra is not self.source and u.algebra != self.source:
            raise ValueError("element of a different algebra")
        dot = self.matrix._dot
        return StructElement._wrap(self.target, [dot(row, u.coeffs) for row in self.matrix.rows])

    def image_of_basis(self, i: int) -> StructElement:
        return StructElement._wrap(self.target, [row[i] for row in self.matrix.rows])

    def compose(self, inner: "LinearAlgebraMap") -> "LinearAlgebraMap":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("maps do not chain")
        return LinearAlgebraMap(inner.source, self.target, self.matrix * inner.matrix)

    def is_algebra_morphism(self) -> bool:
        """phi(1) = 1 and phi(b_i b_j) = phi(b_i) phi(b_j) for all pairs,
        by `_respects` on the raw columns."""
        n = self.source.dim
        return _respects(self.source, self.target, list(zip(*self.matrix.rows)),
                         itertools.product(range(n), repeat=2), unit=True)

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def is_automorphism(self) -> bool:
        return self.source == self.target and self.is_algebra_morphism() and self.is_invertible()

    def __eq__(self, other):
        if not isinstance(other, LinearAlgebraMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("LinearAlgebraMap is not hashable")

    def __str__(self):
        pieces = [
            f"{self.source.basis_names[i]} -> {self.image_of_basis(i)}"
            for i in range(self.source.dim)
        ]
        return "; ".join(pieces)

    def __repr__(self):
        return self.__str__()


def _respects(source, target, images, pairs, unit: bool) -> bool:
    """Whether the linear map with raw columns images[k] = phi(b_k) sends
    1 to 1 (when `unit`) and has phi(b_i b_j) = phi(b_i) phi(b_j) for each
    (i, j) in `pairs`: b_i b_j is read from the source's sparse cells, and
    phi(b_i) phi(b_j) is the target's product of two columns."""
    f = source.field
    mul, add, zero = f._mul, f._add, f.zero.value

    def image(cell):
        out = [zero] * target.dim
        for k, c in cell:
            for r, x in enumerate(images[k]):
                out[r] = add(out[r], mul(x, c))
        return out

    if unit and image((k, c) for k, c in enumerate(source.unit) if not f._is_zero(c)) != list(target.unit):
        return False
    cells, product = source.cells, target.product_values
    return all(image(cells[i][j]) == product(images[i], images[j]) for i, j in pairs)


def build_T(t: FieldElement) -> StructureConstAlgebra:
    """The triangular family member T(t) over the field of t, a function
    field for symbolic checks; its unit is a basis vector, so construction
    checks 8 associativity triples, not 27 (38 element products)."""
    field = t.field
    zero, one = field.zero, field.one
    z3 = [zero, zero, zero]
    table = [
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        [[zero, one, zero], [t * t, zero, zero], [zero, zero, t]],
        [[zero, zero, one], [zero, zero, -t], z3],
    ]
    return StructureConstAlgebra(field, table, [one, zero, zero], ("1", "e2", "e3"))


def _self_span_profile(algebra: StructureConstAlgebra, i: int):
    """Raw (alpha*1, beta) with basis_i^2 = alpha*1 + beta*basis_i, or
    None: alpha from the first nonzero unit coordinate off i, beta from
    coordinate i, then the whole square compared once."""
    f, u = algebra.field, algebra.unit
    k = next((k for k, c in enumerate(u) if k != i and not f._is_zero(c)), None)
    if k is None:
        return None
    prod = (algebra.basis(i) * algebra.basis(i)).coeffs
    alpha = f._mul(prod[k], f._inv(u[k]))
    beta = f._sub(prod[i], f._mul(alpha, u[i]))
    au = [f._mul(alpha, c) for c in u]
    span = (*au[:i], f._add(au[i], beta), *au[i + 1:])
    return (au, beta) if prod == span else None


def brute_force_automorphisms(algebra: StructureConstAlgebra) -> list[LinearAlgebraMap]:
    """All unital algebra automorphisms over a finite field, each identity
    of an automorphism phi proved once:
    - phi(1) = 1: when a basis vector b_u is the unit its column is pinned
      to it, else each combination checks it;
    - pairs with b_u: phi(b_u b_j) = phi(b_j) = phi(b_u) phi(b_j) on either
      side, by the unit axiom that construction checks;
    - squares: when b_i^2 = alpha*1 + beta*b_i (its self-span profile),
      the pruning pass, which reads each of the q^n squares v^2 from the
      symmetric table c_ii, c_ij + c_ji (i < j), keeps only the columns
      with v^2 = alpha*1 + beta*v, that is phi(b_i)^2 = phi(b_i^2) given
      phi(1) = 1;
    - the pairs left, i != j and the squares without a profile: checked
      per combination of pruned columns by `_respects`, the raw kernel of
      `is_algebra_morphism`, and then `is_invertible`.
    So every map returned is an automorphism, and as each stage only
    tests identities an automorphism has, none is missed.  Both the q^n
    vectors and the combinations must stay within ENUMERATION_BUDGET.
    """
    field = algebra.field
    q = field.size()
    if q is None:
        raise FieldError("brute force needs a finite field")
    n = algebra.dim
    unit_idx = next(
        (i for i in range(n) if algebra.basis(i) == algebra.one()), None
    )
    free = [i for i in range(n) if i != unit_idx]
    check_budget(q**n, "vectors in the pruning pass")
    mul, add, is_zero, zero = field._mul, field._add, field._is_zero, field.zero.value
    all_vectors = list(itertools.product([e.value for e in field.elements()], repeat=n))
    unit_col = algebra.unit
    profiles = {i: _self_span_profile(algebra, i) for i in free}
    if any(p is not None for p in profiles.values()):
        sym = []  # (i, j, k, c) with v^2 = sum of c v_i v_j e_k
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            s = [zero] * n
            for k, c in algebra.cells[i][j] + (algebra.cells[j][i] if i < j else ()):
                s[k] = add(s[k], c)
            sym += [(i, j, k, c) for k, c in enumerate(s) if not is_zero(c)]
        squares = []
        for v in all_vectors:
            sq = [zero] * n
            for i, j, k, c in sym:
                sq[k] = add(sq[k], mul(mul(v[i], v[j]), c))
            squares.append(sq)
    candidates = {}
    for i, prof in profiles.items():
        if prof is None:
            candidates[i] = all_vectors
        else:
            au, beta = prof
            candidates[i] = [
                v for v, sq in zip(all_vectors, squares)
                if sq == (au if is_zero(beta) else [add(a, mul(beta, x)) for a, x in zip(au, v)])
            ]
    check_budget(math.prod(len(candidates[i]) for i in free), "combinations of pruned columns")
    pairs = [(i, j) for i in free for j in free if i != j or profiles[i] is None]
    out = []
    for combo in itertools.product(*(candidates[i] for i in free)):
        images = combo if unit_idx is None else (*combo[:unit_idx], unit_col, *combo[unit_idx:])
        if _respects(algebra, algebra, images, pairs, unit=unit_idx is None):
            m = Matrix._wrap(field, zip(*images))
            if m.is_invertible():
                out.append(LinearAlgebraMap(algebra, algebra, m))
    out.sort(key=lambda m: tuple(x for col in zip(*m.matrix.rows) for x in col))
    return out


@dataclass(frozen=True)
class AutPair:
    """Automorphism of T(1) as the pair (b, b'): e2 -> e2 + b e3,
    e3 -> b' e3 with b' nonzero."""

    b: FieldElement
    bp: FieldElement

    def __post_init__(self):
        if self.bp.is_zero():
            raise ValueError("b' must be nonzero")


def compose_pair(p2: AutPair, p1: AutPair) -> AutPair:
    """Composite 'p1 first, then p2': (b2 + b1*b2', b1'*b2')."""
    return AutPair(p2.b + p1.b * p2.bp, p1.bp * p2.bp)


def transport_aut(t, pair: AutPair, algebra: StructureConstAlgebra) -> LinearAlgebraMap:
    """The automorphism of algebra = T(t), t != 0, matching (b, b') on T(1)
    through the change of basis e2' = t*e2, e3' = e3: e2' -> e2' + t*b*e3',
    e3' -> b'*e3'."""
    field = pair.b.field
    t = field.coerce(t)
    if t.is_zero():
        raise ValueError("transport requires t != 0")
    one = algebra.one()
    e2 = algebra.basis(1)
    e3 = algebra.basis(2)
    return LinearAlgebraMap.from_images(
        algebra, algebra, [one, e2 + (t * pair.b) * e3, pair.bp * e3]
    )


def algebra_from_json(text: str) -> StructureConstAlgebra:
    """Build an algebra from a JSON document of the form

        {"dimension": n, "field": "Fp(5)",
         "table": n x n cells of n constants, "unit": n constants}

    Constants may be integers or rational strings like "3/2".  The usual
    construction checks (unit axiom, associativity) apply.
    """
    doc = json.loads(text)
    for key in ("dimension", "field", "table", "unit"):
        if key not in doc:
            raise ValueError(f"missing key {key!r} in the algebra document")
    field = parse_field_spec(doc["field"])
    n = doc["dimension"]

    def const(v):
        return field.coerce(Fraction(v) if isinstance(v, str) else Fraction(v))

    table = doc["table"]
    if len(table) != n:
        raise ValueError(f"dimension {n} but a table of {len(table)} rows")
    rows = [[[const(v) for v in cell] for cell in row] for row in table]
    unit = [const(v) for v in doc["unit"]]
    return StructureConstAlgebra(field, rows, unit)


def limit_map_at_zero(phi: LinearAlgebraMap) -> Matrix:
    """Coefficientwise limit at t -> 0 of a map over a function field.

    Returns a matrix over the base field when no other symbols remain, else
    over the function field in the remaining symbols; raises ValueError when
    some entry has a pole.
    """
    field = phi.source.field
    if not isinstance(field, FunctionField):
        raise ValueError("limit requires a function-field matrix")
    base = field.base
    rest = tuple(s for s in field.symbols if s != "t")
    target: Field = FunctionField(base, rest) if rest else base
    rows = []
    for i in range(phi.matrix.nrows):
        row = []
        for j in range(phi.matrix.ncols):
            lim = phi.matrix.rows[i][j].limit_at("t", base.zero)
            if isinstance(lim, Pole):
                raise ValueError(f"entry ({i}, {j}) has a pole at t = 0")
            row.append(target.coerce(lim) if rest else lim.as_constant())
        rows.append(row)
    return Matrix(target, rows)
