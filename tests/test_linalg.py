import random
from fractions import Fraction

import pytest

from symlab.fields import GF, QQ
from symlab.linalg import Matrix, laplace_det
from symlab.poly import FunctionField, MultiPoly
from symlab.quotient import MonogenicAlgebra
from symlab.structure import build_T


def random_matrix(field, n, rng):
    if field.size() is not None:
        elems = list(field.elements())
        return Matrix(field, [[elems[rng.randrange(len(elems))] for _ in range(n)] for _ in range(n)])
    return Matrix(
        field,
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)],
    )


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
                rows = [list(r) for r in random_matrix(field, n, rng).rows]
                assert laplace_det(rows) == cofactor_det(rows)
    # polynomial entries: the Vandermonde determinant in x, y, z, w
    xs = ("x", "y", "z", "w")
    syms = [MultiPoly.symbol(QQ, xs, x) for x in xs]
    rows = [[s**k for k in range(4)] for s in syms]
    assert laplace_det(rows) == cofactor_det(rows)


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
