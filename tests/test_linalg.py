import functools
import random
from fractions import Fraction

import pytest

from symlab import linalg
from symlab.fields import GF, QQ, FieldElement, rationals_with_cube_root
from symlab.linalg import Matrix, laplace_det
from symlab.poly import FunctionField, MultiPoly
from symlab.quotient import MonogenicAlgebra
from symlab.structure import build_T
from test_fields import assert_rational_raw


QT = FunctionField(QQ, ("t",))
QAT = FunctionField(QQ, ("a", "t"))
QZ = rationals_with_cube_root()


def random_entry(field, rng):
    """A small random element: any element of a finite field, a fraction
    over Q, x + y*zeta3 with fractions x, y over Q(zeta3), an affine
    polynomial in the symbols over Q(a,t), and over Q(t) one divided by
    t + 1 one time in four."""
    if field.size() is not None:
        elems = list(field.elements())
        return elems[rng.randrange(len(elems))]
    if field == QQ:
        return field.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    if field == QZ:
        x, y = (random_entry(QQ, rng) for _ in range(2))
        return field.coerce(x) + field.generator() * field.coerce(y)
    x = field.coerce(rng.randint(-3, 3))
    for name in field.symbols:
        x = x + field.symbol(name) * rng.randint(-2, 2)
    return x / (field.symbol("t") + field.one) if field == QT and rng.random() < 0.25 else x


def random_matrix(field, n, rng):
    return Matrix(field, [[random_entry(field, rng) for _ in range(n)] for _ in range(n)])


def entries(m):
    """The rows of m as field elements, read one entry at a time."""
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def test_inverse_round_trip_randomized():
    rng = random.Random(61)
    for field in [QQ, GF(5), GF(2, 2)]:
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = random_matrix(field, n, rng)
                if m.det().is_zero():
                    with pytest.raises(ValueError):
                        m.inverse()
                    continue
                assert m * m.inverse() == Matrix.identity(field, n)
                assert m.inverse() * m == Matrix.identity(field, n)


def gauss_jordan(m, rhs):
    """(det m, rows of X with m * X = rhs), rhs given by its rows, by
    Gauss-Jordan elimination on field elements with exact zero tests; kept
    as a test-only oracle for both kernels.  (0, None) when m is singular."""
    n = m.nrows
    det = m.field.one
    aug = [r + list(b) for r, b in zip(entries(m), rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            return m.field.zero, None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det = det * aug[col][col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def gauss_jordan_inverse(m):
    return Matrix(m.field, gauss_jordan(m, entries(Matrix.identity(m.field, m.nrows)))[1])


def kernel_cases(seed):
    """(matrix, right-hand side) pairs over Q, F_5, F(2,2), Q(zeta3), Q(t)
    and Q(a,t); about one in three has its last row the sum of the others
    (or zero), so it is singular."""
    rng = random.Random(seed)
    for field, n in [(f, n) for f in (QQ, GF(5), GF(2, 2), QZ, QT, QAT) for n in (1, 2, 3, 4)]:
        if n == 4 and field in (QT, QAT):
            continue
        for _ in range(6):
            rows = [[random_entry(field, rng) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.33:
                rows[-1] = [sum((r[j] for r in rows[:-1]), field.zero) for j in range(n)]
            yield Matrix(field, rows), [random_entry(field, rng) for _ in range(n)]


def check_against_gauss_jordan(m, b):
    """"singular" or "regular" when det, solve and inverse agree with the
    oracle, solve and inverse raising ValueError exactly on singular
    matrices; else "wrong"."""
    det, xs = gauss_jordan(m, [[c] for c in b])
    if m.det() != det:
        return "wrong"
    if xs is None:
        for op in (lambda: m.solve(b), m.inverse):
            with pytest.raises(ValueError, match="singular"):
                op()
        return "singular"
    x = [r[0] for r in xs]
    return "regular" if m.solve(b) == x and m.inverse() == gauss_jordan_inverse(m) else "wrong"


def test_solve_and_inverse_match_gauss_jordan():
    # det too, on both kernels: row reduction over Q, F_5, F(2,2) and
    # Q(zeta3), shared minors over Q(t) and Q(a,t)
    results = [check_against_gauss_jordan(m, b) for m, b in kernel_cases(64)]
    assert "wrong" not in results
    assert results.count("singular") >= 20


def test_flipped_cramer_sign_is_caught(monkeypatch):
    # a mutant kernel whose numerator for x_0 has the wrong sign
    table = linalg._shared_minors

    def flipped(rows):
        minors = table(rows)
        key = ((1 << len(rows[0])) - 1) ^ 1
        if key in minors:
            minors[key] = -minors[key]
        return minors

    monkeypatch.setattr(linalg, "_shared_minors", flipped)
    assert any(check_against_gauss_jordan(m, b) == "wrong" for m, b in kernel_cases(64))


def assert_raw_rows(m, want):
    """m's rows hold raw values, no field element, and they are the values
    coercion stores for the field elements in the rows `want`; a raw value
    of Q among them is an int if and only if it is integral."""
    assert not any(isinstance(x, FieldElement) for r in m.rows for x in r)
    assert_rational_raw(m.field, [x for r in m.rows for x in r])
    assert m.rows == tuple(tuple(m.field.coerce(x).value for x in r) for r in want)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2, 3), QZ, QT], ids=["Q", "F7", "F8", "Qzeta3", "Qt"])
def test_rows_hold_raw_values_after_every_operation(field):
    # product, transpose, solve and inverse against the entry-level
    # schoolbook product and the Gauss-Jordan oracle; entries leave as
    # field elements
    rng = random.Random(66)
    regular = 0
    for n in (1, 2, 3):
        for _ in range(4):
            a, b = random_matrix(field, n, rng), random_matrix(field, n, rng)
            ea, eb = entries(a), entries(b)
            assert all(isinstance(x, FieldElement) and x.field == field for r in ea for x in r)
            assert_raw_rows(a, ea)
            prod = [[sum((ea[i][k] * eb[k][j] for k in range(n)), field.zero) for j in range(n)]
                    for i in range(n)]
            assert_raw_rows(a * b, prod)
            assert_raw_rows(a.transpose(), zip(*ea))
            rhs = [random_entry(field, rng) for _ in range(n)]
            xs = gauss_jordan(a, [[c] for c in rhs])[1]
            if xs is None:
                continue
            regular += 1
            x = a.solve(rhs)
            assert all(isinstance(c, FieldElement) and c.field == field for c in x)
            assert x == [r[0] for r in xs]
            assert a.mul_vec(x) == rhs
            assert_raw_rows(a.inverse(), gauss_jordan(a, entries(Matrix.identity(field, n)))[1])
    assert regular >= 6


def test_row_swaps_flip_the_sign():
    # each column's first entry is zero, so every pivot comes from a swap
    assert Matrix(QQ, [[0, 1], [1, 0]]).det() == QQ.coerce(-1)
    assert Matrix(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]).det() == QQ.one  # two swaps
    assert Matrix(GF(5), [[0, 2], [3, 1]]).det() == GF(5).coerce(-6)
    assert Matrix(QZ, [[0, QZ.generator()], [1, 0]]).det() == -QZ.generator()


def test_det_multiplicative_randomized():
    rng = random.Random(62)
    for _ in range(50):
        a = random_matrix(QQ, 3, rng)
        b = random_matrix(QQ, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def cofactor_det(rows):
    """Plain recursive cofactor expansion along the first row, n! terms,
    kept as a test-only oracle for laplace_det's shared minors."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j in range(len(rows)):
        term = rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        term = -term if j % 2 else term
        acc = term if acc is None else acc + term
    return acc


def test_shared_minor_det_matches_cofactor_expansion():
    rng = random.Random(63)
    for field in [QQ, GF(7), GF(2, 2)]:
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(3):
                rows = entries(random_matrix(field, n, rng))
                assert laplace_det(rows) == cofactor_det(rows)
    # polynomial entries: the Vandermonde determinant in x, y, z, w
    xs = ("x", "y", "z", "w")
    syms = [MultiPoly.symbol(QQ, xs, x) for x in xs]
    rows = [[s**k for k in range(4)] for s in syms]
    assert laplace_det(rows) == cofactor_det(rows)


AT = ("a", "t")


def random_poly_entry(rng):
    """An affine polynomial in a and t over Q."""
    x = MultiPoly.constant(QQ, AT, rng.randint(-3, 3))
    for name in AT:
        x = x + MultiPoly.symbol(QQ, AT, name) * rng.randint(-2, 2)
    return x


def zero_patterned_rows(entry, zero, n, shape, rng):
    """n x n rows of entry() with zeros laid out by `shape`: "sparse" keeps
    each entry one time in three; "triangular" zeroes everything above the
    diagonal; "singular" confines k >= 2 rows to k - 1 columns, so the
    determinant is zero whatever the entries are."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "sparse":
        rows = [[x if rng.random() < 1 / 3 else zero for x in r] for r in rows]
    elif shape == "triangular":
        rows = [[x if j <= i else zero for j, x in enumerate(r)] for i, r in enumerate(rows)]
    else:
        k = rng.randint(2, n)
        cols = set(rng.sample(range(n), k - 1))
        for i in rng.sample(range(n), k):
            rows[i] = [x if j in cols else zero for j, x in enumerate(rows[i])]
    return rows


@pytest.mark.parametrize("shape", ["sparse", "triangular", "singular"])
def test_shared_minor_det_with_zero_entries_matches_cofactor_expansion(shape):
    # the shared-minor table skips zero entries and stores no zero minor;
    # a determinant whose minor is missing is zero
    rng = random.Random(64)
    makers = [(f, functools.partial(random_entry, f, rng), f.zero) for f in (QQ, GF(7), GF(2, 2), QT)]
    makers.append((None, functools.partial(random_poly_entry, rng), MultiPoly.zero(QQ, AT)))
    zeros = 0
    for field, entry, zero in makers:
        for n in range(2, 7):
            for _ in range(4):
                rows = zero_patterned_rows(entry, zero, n, shape, rng)
                det = laplace_det(rows)
                assert det == cofactor_det(rows), (field, rows)
                zeros += det.is_zero()
                if field is not None:
                    assert Matrix(field, rows).det() == det
    if shape == "singular":
        assert zeros == 5 * 5 * 4
    else:
        assert zeros < 5 * 5 * 4


def test_cramer_with_zero_minors_matches_gauss_jordan():
    # over Q(t), solve reads a missing numerator minor as zero and a
    # missing determinant as a singular matrix
    rng = random.Random(65)
    results = []
    for n in (2, 3, 4):
        for shape in ("sparse", "triangular", "singular"):
            for _ in range(4):
                rows = zero_patterned_rows(lambda: random_entry(QT, rng), QT.zero, n, shape, rng)
                b = [random_entry(QT, rng) if rng.random() < 0.5 else QT.zero for _ in range(n)]
                results.append(check_against_gauss_jordan(Matrix(QT, rows), b))
    assert "wrong" not in results
    assert "regular" in results and "singular" in results


def test_solve():
    m = Matrix(QQ, [[2, 1], [1, 3]])
    x = m.solve([QQ.coerce(5), QQ.coerce(10)])
    assert m.mul_vec(x) == [QQ.coerce(5), QQ.coerce(10)]


def test_non_square_rejected():
    m = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        m.det()
    with pytest.raises(ValueError):
        m.inverse()
    with pytest.raises(ValueError):
        laplace_det([[1, 2], [3]])


def test_dimension_bound():
    # both kernels refuse a matrix past MAX_DIMENSION rows, before any
    # product is formed
    n = linalg.MAX_DIMENSION + 1
    for field in (QQ, GF(5), QT):
        eye = Matrix.identity(field, n)
        for call in (eye.det, eye.inverse, lambda: eye.solve([field.one] * n)):
            with pytest.raises(ValueError, match=f"MAX_DIMENSION = {linalg.MAX_DIMENSION}"):
                call()
        small = Matrix.identity(field, 6)
        assert small.det() == field.one and small.inverse() == small


def test_transpose_and_indexing():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert m.transpose() == Matrix(QQ, [[1, 3], [2, 4]])
    assert m[0, 1] == QQ.coerce(2)


def test_laplace_det_on_polynomial_entries():
    syms = ("x", "y")
    x = MultiPoly.symbol(QQ, syms, "x")
    y = MultiPoly.symbol(QQ, syms, "y")
    one = MultiPoly.constant(QQ, syms, 1)
    det = laplace_det([[one, x, x * x], [one, y, y * y], [one, x + y, (x + y) ** 2]])
    # row reduction by hand: det = (y - x)(x + y - x)(x + y - y) = xy(y - x)
    assert det == x * y * (y - x)


def test_function_field_matrix_inverse():
    ff = FunctionField(QQ, ("t",))
    t = ff.symbol("t")
    m = Matrix(ff, [[ff.one, t], [t, ff.one]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(ff, 2)
    assert m.det() == ff.one - t * t


class TestCoordinateVector:
    """The coordinate arithmetic shared by quotient and structure-constant
    algebra elements."""

    MAKERS = {
        "build_T": lambda t: build_T(QQ.coerce(t)),
        "from_roots": lambda t: MonogenicAlgebra.from_roots(QQ, [0, 1, t + 1]),
    }

    @pytest.mark.parametrize("kind", list(MAKERS))
    def test_equal_but_distinct_algebras_interoperate(self, kind):
        a, b = self.MAKERS[kind](1), self.MAKERS[kind](1)
        assert a is not b and a == b
        u, v = a.element([1, 2, 3]), b.element([Fraction(1, 2), -1, 4])
        assert u + v == a.element([Fraction(3, 2), 1, 7])
        assert u - v == a.element([Fraction(1, 2), 3, -1])
        assert -u == a.element([-1, -2, -3])
        # the product across copies equals the product inside one copy
        assert u * v == u * a.element(v.coeffs)
        assert v * u == b.element(v.coeffs) * b.element(u.coeffs)
        assert u == b.element([1, 2, 3]) and u != v
        assert (u - b.element(u.coeffs)).is_zero() and not u.is_zero()

    @pytest.mark.parametrize("kind", list(MAKERS))
    def test_scalars_stand_for_multiples_of_the_unit(self, kind):
        a = self.MAKERS[kind](1)
        u = a.element([1, 2, 3])
        two = a.one() * 2
        assert u + 2 == 2 + u == u + two
        assert u - 2 == u - two and 2 - u == two - u
        assert 3 * u == u * 3 == a.element([3, 6, 9])
        assert a.one() * 2 == 2 and a.zero() == 0

    @pytest.mark.parametrize("kind", list(MAKERS))
    def test_different_algebras_raise(self, kind):
        u = self.MAKERS[kind](1).element([1, 2, 3])
        w = self.MAKERS[kind](2).element([1, 2, 3])
        for op in (lambda: u + w, lambda: u - w, lambda: u * w, lambda: u == w):
            with pytest.raises(ValueError):
                op()

    def test_the_two_element_kinds_never_compare_equal(self):
        s = build_T(QQ.one).one()
        q = MonogenicAlgebra.from_roots(QQ, [0, 1, 2]).one()
        assert s.coeffs == q.coeffs
        assert (s == q) is False and (q == s) is False
        assert s != q
        with pytest.raises(TypeError):
            s + q
