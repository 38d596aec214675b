"""Small exact matrices over any fields.Field, of at most MAX_DIMENSION rows.

Two kernels give determinants, solves and inverses.  Over a field whose
elements are canonical (Q, F_p, their extensions), row reduction on raw
values; over a function field, whose quotients would each need a gcd, the
division-free Laplace expansion with shared minors and Cramer's rule.
A matrix and an algebra element (CoordinateVector) hold the field's raw
values, which the kernels read directly; single entries leave as
FieldElements (m[i, j], det, mul_vec, solve, coeff).
"""

from __future__ import annotations

from .fields import Arithmetic, Field, FieldElement
from .poly import FunctionField


# Most rows of a matrix, on either kernel (in-process CPU time, Python 3.11,
# shared 2-vCPU VM).  Row reduction over Q: a dense 14 x 14 determinant of
# small fractions takes 0.006 s.  Shared minors on dense affine entries:
# 0.25, 1.5, 6.3 and 37 s for n = 8 to 14 by twos over Q(t), 0.6, 3.2 and
# 18 s for n = 8 to 12 over Q(a,t).  The maps `aut --check-map` checks at
# n = 14: 0.49 s over Q(t) and 1.0 s over Q(a,t) for the triangular
# matrices of k[X]/(X^14), and 34 s over Q(t) for the swap of the first two
# of the 14 distinct roots 0, t, 1, ..., 12 (its coefficients from
# families.perm_coeff_vector), most of it in the map's power table.
MAX_DIMENSION = 14


def _check_dimension(n):
    if n > MAX_DIMENSION:
        raise ValueError(f"a matrix of {n} rows is past MAX_DIMENSION = {MAX_DIMENSION}")


def _row_reduce(field, rows):
    """Forward elimination, in place, of n rows of raw values, each of width
    >= n, leaving the leading n x n block unit upper triangular.  Returns
    its determinant, the product of the pivots negated once per row swap;
    zero, with the reduction stopped, when a column has no pivot."""
    _check_dimension(len(rows))
    mul, sub, is_zero = field._mul, field._sub, field._is_zero
    det = field.one.value
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if not is_zero(rows[i][k])), None)
        if p is None:
            return field.zero.value
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = field._neg(det)
        det = mul(det, rows[k][k])
        s = field._inv(rows[k][k])
        top = rows[k][k:] = [mul(s, x) for x in rows[k][k:]]
        for row in rows[k + 1:]:
            c = row[k]
            if not is_zero(c):
                row[k:] = [sub(x, mul(c, y)) for x, y in zip(row[k:], top)]
    return det


def _shared_minors(rows):
    """Nonzero maximal minors of an n x m matrix, n <= m, as a map from each
    bit mask of n columns to the determinant of the rows on those columns;
    a mask that is missing has minor zero.  Entries need only +, -, * and
    is_zero.  Row k is expanded, on its nonzero entries, against the
    nonzero minors of rows 0..k-1, each computed once per set of columns,
    so an n x n determinant costs at most about n * 2^(n-1) products
    instead of n!, and a sparse one far fewer."""
    _check_dimension(len(rows))
    minors = {1 << j: x for j, x in enumerate(rows[0]) if not x.is_zero()}
    for row in rows[1:]:
        entries = [(j, 1 << j, x) for j, x in enumerate(row) if not x.is_zero()]
        nxt = {}
        for mask, minor in minors.items():
            for j, bit, x in entries:
                if mask & bit:
                    continue
                term = x * minor
                if (mask >> j).bit_count() % 2:  # columns of the mask right of j
                    term = -term
                prev = nxt.get(mask | bit)
                nxt[mask | bit] = term if prev is None else prev + term
        minors = {mask: m for mask, m in nxt.items() if not m.is_zero()}
    return minors


def laplace_det(rows):
    """Determinant from the shared-minor table, for entries that need only
    +, -, * and is_zero: field elements, polynomials, or the raw
    RationalFunction values that Matrix.det passes over a function field."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    det = _shared_minors(rows).get((1 << n) - 1)
    return rows[0][0] - rows[0][0] if det is None else det


class CoordinateVector(Arithmetic):
    """Element of a finite-dimensional algebra: `coeffs` holds the raw
    values of its coordinates in the algebra's basis, and `coeff(i)` gives
    one as a field element.  A scalar c operand stands for c times the unit.

    Subclasses supply `_times` (the algebra product of two elements of
    one algebra) and rendering; the algebra supplies `field`, `dim`,
    `one()` and a hash, so equal elements of equal algebras hash alike.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        cs = tuple(algebra.field.coerce(c).value for c in coeffs)
        if len(cs) != algebra.dim:
            raise ValueError("coordinate vector length must equal the dimension")
        self.algebra = algebra
        self.coeffs = cs

    @classmethod
    def _wrap(cls, algebra, values):
        """From raw values of the algebra's field, stored without coercion."""
        v = cls.__new__(cls)
        v.algebra = algebra
        v.coeffs = tuple(values)
        return v

    def coeff(self, i: int) -> FieldElement:
        return FieldElement(self.algebra.field, self.coeffs[i])

    def _check(self, other):
        """`other` as an element of this algebra, or None for a foreign type."""
        if isinstance(other, type(self)):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("elements of different algebras")
            return other
        try:
            c = self.algebra.field.coerce(other)
        except TypeError:
            return None
        return self.algebra.one() * c

    def _plus(self, o):
        return self._wrap(self.algebra, map(self.algebra.field._add, self.coeffs, o.coeffs))

    def _equals(self, o):
        return self.coeffs == o.coeffs

    def __neg__(self):
        return self._wrap(self.algebra, map(self.algebra.field._neg, self.coeffs))

    def __mul__(self, other):
        """A scalar scales the coordinates; an element of the algebra
        multiplies by `_times`."""
        if isinstance(other, type(self)):
            return self._times(self._check(other))
        f = self.algebra.field
        try:
            c = f.coerce(other).value
        except TypeError:
            return NotImplemented
        return self._wrap(self.algebra, [f._mul(a, c) for a in self.coeffs])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(map(self.algebra.field._is_zero, self.coeffs))

    def __hash__(self):
        return hash((self.algebra, self.coeffs))


class Matrix:
    """Immutable dense matrix over a field; `rows` holds the field's raw
    values, and only single entries leave as field elements."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x).value for x in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix rows")

    @classmethod
    def _wrap(cls, field, rows):
        """From rows of raw values of `field`, stored without coercion."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one.value, field.zero.value
        return cls._wrap(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self.rows[i][j])

    def _dot(self, xs, ys):
        """sum_k xs[k] * ys[k] on raw values."""
        f = self.field
        acc = f.zero.value
        for x, y in zip(xs, ys):
            acc = f._add(acc, f._mul(x, y))
        return acc

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        cols = list(zip(*other.rows))
        return Matrix._wrap(self.field, [[self._dot(r, c) for c in cols] for r in self.rows])

    def mul_vec(self, vec):
        vec = [self.field.coerce(x).value for x in vec]
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [FieldElement(self.field, self._dot(r, vec)) for r in self.rows]

    def transpose(self):
        return Matrix._wrap(self.field, zip(*self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):  # pragma: no cover
        raise TypeError("Matrix is not hashable")

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows and isinstance(self.field, FunctionField):
            return FieldElement(self.field, laplace_det(self.rows))
        return FieldElement(self.field, _row_reduce(self.field, [list(r) for r in self.rows]))

    def is_invertible(self) -> bool:
        return not self.det().is_zero()

    def inverse(self) -> "Matrix":
        """Raises ValueError when singular.  Over a function field, column j
        solves self * x = e_j; otherwise one reduction of [self | I]."""
        eye = Matrix.identity(self.field, self.nrows).rows
        if isinstance(self.field, FunctionField):
            return Matrix(self.field, [self.solve(e) for e in eye]).transpose()
        return Matrix._wrap(self.field, self._eliminate(eye))

    def _eliminate(self, rhs_rows):
        """Raw rows of X with self * X = the matrix of raw rows `rhs_rows`,
        by row reduction and back substitution; raises ValueError when
        singular."""
        f, n = self.field, self.nrows
        if n != self.ncols:
            raise ValueError("elimination with a non-square matrix")
        rows = [[*r, *e] for r, e in zip(self.rows, rhs_rows)]
        if f._is_zero(_row_reduce(f, rows)):
            raise ValueError("matrix is singular")
        out = [row[n:] for row in rows]
        for k in range(n - 1, -1, -1):
            for i, c in enumerate(row[k] for row in rows[:k]):
                out[i] = [f._sub(x, f._mul(c, y)) for x, y in zip(out[i], out[k])]
        return out

    def solve(self, rhs):
        """Solve self * x = rhs; raises ValueError when singular.  Over a
        function field by Cramer's rule: of the maximal minors of [self |
        rhs], the one without the last column is det(self), and the one
        without column j is the numerator of x_j times (-1)^(n-1-j), so only
        the final quotients divide.  Otherwise by row reduction."""
        f, n = self.field, self.nrows
        if n != self.ncols:
            raise ValueError("solve with a non-square matrix")
        rhs = [f.coerce(x).value for x in rhs]
        if len(rhs) != n:
            raise ValueError("vector length mismatch")
        if n == 0:
            return []
        if not isinstance(f, FunctionField):
            return [FieldElement(f, r[0]) for r in self._eliminate([[b] for b in rhs])]
        minors = _shared_minors([[*r, b] for r, b in zip(self.rows, rhs)])
        full = (1 << (n + 1)) - 1
        det = minors.get(full ^ (1 << n))
        if det is None:
            raise ValueError("matrix is singular")
        inv = det.inverse()
        xs = [minors.get(full ^ (1 << j), f.zero.value) * inv for j in range(n)]
        return [FieldElement(f, -x if (n - 1 - j) % 2 else x) for j, x in enumerate(xs)]

    def __str__(self):
        fmt = self.field._fmt
        return "[" + "; ".join(", ".join(map(fmt, r)) for r in self.rows) + "]"

    def __repr__(self):
        return self.__str__()
