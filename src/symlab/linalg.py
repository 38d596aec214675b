"""Small exact matrices over any fields.Field, of at most MAX_DIMENSION rows.

One division-free kernel, Laplace expansion with shared minors, gives
determinants and, by Cramer's rule, solves and inverses, for function-field
entries of any number of symbols.
"""

from __future__ import annotations

from .fields import Arithmetic, Field, FieldElement


# Most rows of a matrix whose minors are expanded: `aut --poly "factored:(X)^n"
# --check-map 0,1` took 0.2, 0.5, 1.1 and 2.4 s in-process for n = 12 to 15
# (Python 3.11, shared 2-vCPU VM), so one determinant over Q stays near 1 s.
MAX_DIMENSION = 14


def _shared_minors(rows):
    """Maximal minors of an n x m matrix, n <= m, as a map from each bit
    mask of n columns to the determinant of the rows on those columns;
    entries need only +, -, *.  Row k is expanded against the minors of
    rows 0..k-1, each computed once per set of columns, so an n x n
    determinant costs about n * 2^(n-1) products instead of n!."""
    if len(rows) > MAX_DIMENSION:
        raise ValueError(f"a matrix of {len(rows)} rows is past MAX_DIMENSION = {MAX_DIMENSION}")
    width = len(rows[0])
    minors = {1 << j: rows[0][j] for j in range(width)}
    for row in rows[1:]:
        nxt = {}
        for mask, minor in minors.items():
            odd = False  # an odd number of the mask's columns lie right of j
            for j in range(width - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    odd = not odd
                    continue
                term = row[j] * minor
                if odd:
                    term = -term
                prev = nxt.get(mask | bit)
                nxt[mask | bit] = term if prev is None else prev + term
        minors = nxt
    return minors


def laplace_det(rows):
    """Determinant from the shared-minor table; works for FieldElement and
    MultiPoly entries alike."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    return _shared_minors(rows)[(1 << n) - 1]


class CoordinateVector(Arithmetic):
    """Element of a finite-dimensional algebra, held as its coordinates in
    the algebra's basis.  A scalar c operand stands for c times the unit.

    Subclasses supply `_times` (the algebra product of two elements of
    one algebra), hashing and rendering; the algebra supplies `field`,
    `dim` and `one()`.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        cs = [algebra.field.coerce(c) for c in coeffs]
        if len(cs) != algebra.dim:
            raise ValueError("coordinate vector length must equal the dimension")
        self.algebra = algebra
        self.coeffs = tuple(cs)

    @classmethod
    def _wrap(cls, algebra, values):
        """From raw values of the algebra's field: each is wrapped once,
        without coercion."""
        v = cls.__new__(cls)
        v.algebra = algebra
        v.coeffs = tuple(FieldElement(algebra.field, x) for x in values)
        return v

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
        return type(self)(self.algebra, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def _equals(self, o):
        return self.coeffs == o.coeffs

    def __neg__(self):
        return type(self)(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        """A scalar scales the coordinates; an element of the algebra
        multiplies by `_times`."""
        if isinstance(other, type(self)):
            return self._times(self._check(other))
        try:
            c = self.algebra.field.coerce(other)
        except TypeError:
            return NotImplemented
        return type(self)(self.algebra, [a * c for a in self.coeffs])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


class Matrix:
    """Immutable dense matrix over a field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self.field = field
        self.rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix rows")

    @classmethod
    def _wrap(cls, field, rows):
        """From rows of raw values of `field`: each is wrapped once, without
        coercion."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = tuple(tuple(FieldElement(field, v) for v in r) for r in rows)
        return m

    @classmethod
    def identity(cls, field, n):
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        return Matrix(
            self.field,
            [
                [
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                        self.field.zero,
                    )
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ],
        )

    def mul_vec(self, vec):
        vec = [self.field.coerce(x) for x in vec]
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [
            sum((self.rows[i][k] * vec[k] for k in range(self.ncols)), self.field.zero)
            for i in range(self.nrows)
        ]

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):  # pragma: no cover
        raise TypeError("Matrix is not hashable")

    def det(self) -> FieldElement:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return self.field.one
        return laplace_det([list(r) for r in self.rows])

    def is_invertible(self) -> bool:
        return not self.det().is_zero()

    def inverse(self) -> "Matrix":
        """Column j solves self * x = e_j; raises ValueError when singular."""
        cols = [self.solve(e) for e in Matrix.identity(self.field, self.nrows).rows]
        return Matrix(self.field, cols).transpose()

    def solve(self, rhs):
        """Solve self * x = rhs by Cramer's rule; raises ValueError when
        singular.  Of the maximal minors of [self | rhs], the one without
        the last column is det(self), and the one without column j is the
        numerator of x_j times (-1)^(n-1-j): rhs stands n - 1 - j columns
        right of where column j was.  Only the final quotients divide."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("solve with a non-square matrix")
        rhs = [self.field.coerce(x) for x in rhs]
        if len(rhs) != n:
            raise ValueError("vector length mismatch")
        if n == 0:
            return []
        minors = _shared_minors([list(r) + [b] for r, b in zip(self.rows, rhs)])
        full = (1 << (n + 1)) - 1
        det = minors[full ^ (1 << n)]
        if det.is_zero():
            raise ValueError("matrix is singular")
        inv = det.inverse()
        xs = [minors[full ^ (1 << j)] * inv for j in range(n)]
        return [-x if (n - 1 - j) % 2 else x for j, x in enumerate(xs)]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return self.__str__()
