"""Differential and property tests of the kernels behind the brute-force
enumerations, each against the wrapped code it replaced, which is kept here
as the oracle:

- UniPoly.compose_mod (Horner on raw values) against Horner on UniPolys,
  and the UniPoly product against the schoolbook on wrapped coefficients;
- AlgebraHom.matrix and is_homomorphism (one power table per map) against
  repeated (acc * image) % f and against compose_mod, and applying a map
  (AlgebraHom.__call__) and composing two (SubstitutionMap.compose), which
  read the same table, against compose_mod;
- ExtensionField._mul (native products, one reduction per coefficient)
  against the schoolbook on the base field's operations;
- StructElement._times and is_algebra_morphism (sparse raw cells)
  against the loops on wrapped elements over a dense table the test
  writes itself;
- no_s3_check (orders by prime order) against the order search;
- the raw-value representation of UniPoly: after every operation its
  coefficients are raw values, with no trailing zero, equal to the
  element-level results, and a raw value of Q is an int exactly when it
  is integral.
"""

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symlab.chi import NoS3Report, all_chis, no_s3_check  # noqa: E402
from symlab.fields import GF, QQ, FieldElement, rationals_with_cube_root  # noqa: E402
from symlab.linalg import Matrix  # noqa: E402
from symlab.poly import FunctionField, UniPoly  # noqa: E402
from symlab.quotient import AlgebraHom, MonogenicAlgebra, SubstitutionMap  # noqa: E402
from symlab.structure import (  # noqa: E402
    LinearAlgebraMap, StructElement, StructureConstAlgebra, brute_force_automorphisms, build_T,
)
from test_fields import assert_rational_raw  # noqa: E402

QT = FunctionField(QQ, ("t",))
HOM_FIELDS = [GF(5), GF(7), GF(2, 2), GF(3, 2), QQ, rationals_with_cube_root(), QT]
HOM_IDS = ["F5", "F7", "F4", "F9", "Q", "Qzeta3", "Qt"]
raw_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def small(field, deg):
    """A degree bound, lower over Q(t), where coefficients swell."""
    return min(deg, 2) if field == QT else deg


def elements(field):
    """Small elements: over F_q and Q(zeta3) sum_i c_i g^i on a basis over
    the prime field; over Q(t) a quotient of two polynomials of degree <= 1."""
    if field == QT:
        small = st.integers(-3, 3)
        t = field.symbol("t")
        return st.tuples(small, small, small, small).filter(lambda c: c[2] or c[3]).map(
            lambda c: (c[0] + c[1] * t) / (c[2] + c[3] * t)
        )
    deg = getattr(field, "degree", 1)
    g = field.generator() if deg > 1 else field.one
    if field.characteristic() == 0:
        base = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        base = st.integers(0, field.characteristic() - 1)
    return st.lists(base, min_size=deg, max_size=deg).map(
        lambda cs: sum((field.coerce(c) * g**i for i, c in enumerate(cs)), field.zero)
    )


def unipolys(field, max_deg):
    return st.lists(elements(field), max_size=max_deg + 1).map(lambda cs: UniPoly(field, cs))


def coefficients(p):
    """The coefficients of p as field elements, lowest degree first."""
    return [p.coeff(k) for k in range(len(p.coeffs))]


def mul_oracle(a, b):
    """The schoolbook product on wrapped coefficients."""
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.field)
    out = [a.field.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(coefficients(a)):
        for j, y in enumerate(coefficients(b)):
            out[i + j] = out[i + j] + x * y
    return UniPoly(a.field, out)


def compose_mod_oracle(p, g, modulus):
    """Horner on UniPolys, reducing each step."""
    acc = UniPoly.zero(p.field)
    for c in reversed(coefficients(p)):
        acc = (mul_oracle(acc, g) + UniPoly.constant(p.field, c)) % modulus
    return acc


def matrix_oracle(hom):
    """Columns are the coordinates of image^k by repeated (acc * image) % f."""
    field, n = hom.source.field, hom.source.dim
    cols = []
    acc = UniPoly.constant(field, 1)
    for _ in range(n):
        cols.append([acc.coeff(i) for i in range(n)])
        acc = mul_oracle(acc, hom.image) % hom.target.modulus
    return Matrix(field, list(map(list, zip(*cols))))


def hom_oracle(hom):
    return compose_mod_oracle(hom.source.modulus, hom.image, hom.target.modulus).is_zero()


@pytest.mark.parametrize("field", HOM_FIELDS, ids=HOM_IDS)
def test_compose_mod_matches_horner_on_unipolys(field):
    @raw_settings
    @given(
        unipolys(field, small(field, 5)), unipolys(field, small(field, 3)),
        unipolys(field, small(field, 3)), elements(field),
    )
    def check(p, g, low, lead):
        if lead.is_zero():
            return
        modulus = low + UniPoly.monomial(field, low.degree + 1 if low.coeffs else 1, lead)
        got = p.compose_mod(g, modulus)
        want = compose_mod_oracle(p, g, modulus)
        assert got == want
        assert str(got) == str(want)
        assert_raw_coeffs(got, coefficients(want))

    check()


def assert_raw_coeffs(p, want):
    """p's coefficients are raw values, no field element, with no trailing
    zero, and they are the values coercion stores for the field elements
    `want` stripped of their trailing zeros; a raw value of Q among them is
    an int if and only if it is integral."""
    f = p.field
    assert not any(isinstance(c, FieldElement) for c in p.coeffs)
    assert_rational_raw(f, p.coeffs)
    assert not p.coeffs or not f._is_zero(p.coeffs[-1])
    want = [f.coerce(c).value for c in want]
    while want and f._is_zero(want[-1]):
        want.pop()
    assert list(p.coeffs) == want


RAW_FIELDS = [QQ, GF(7), GF(2, 3), rationals_with_cube_root(), QT]
RAW_IDS = ["Q", "F7", "F8", "Qzeta3", "Qt"]


@pytest.mark.parametrize("field", RAW_FIELDS, ids=RAW_IDS)
def test_unipoly_coeffs_hold_raw_values_after_every_operation(field):
    # +, -, negation, scalar and polynomial products, divmod and compose_mod
    # against the same operations on the coefficients as field elements;
    # with b = -a all of a + b cancels, and with b = a + (b mod X^deg a)
    # the top of a - b does
    @raw_settings
    @given(
        unipolys(field, small(field, 4)), unipolys(field, small(field, 4)),
        elements(field), st.sampled_from(["free", "negated", "same top"]),
    )
    def check(a, b, c, relation):
        if relation == "negated":
            b = -a
        elif relation == "same top":
            b = a + b % UniPoly.monomial(field, max(a.degree, 0))
        ea = coefficients(a)
        n = max(len(a.coeffs), len(b.coeffs))
        assert_raw_coeffs(a, ea)
        assert_raw_coeffs(a + b, [a.coeff(k) + b.coeff(k) for k in range(n)])
        assert_raw_coeffs(a - b, [a.coeff(k) - b.coeff(k) for k in range(n)])
        assert_raw_coeffs(-a, [-x for x in ea])
        assert_raw_coeffs(a * c, [x * c for x in ea])
        assert_raw_coeffs(c * a, [c * x for x in ea])
        assert_raw_coeffs(a * 3, [x * 3 for x in ea])
        assert_raw_coeffs(a * b, coefficients(mul_oracle(a, b)))
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a and (r.is_zero() or r.degree < b.degree)
        assert_raw_coeffs(q, coefficients(q))
        assert_raw_coeffs(r, coefficients(r))
        modulus = b * b + UniPoly.x(field)
        assert_raw_coeffs(a.compose_mod(b, modulus), coefficients(compose_mod_oracle(a, b, modulus)))

    check()


@pytest.mark.parametrize("field", HOM_FIELDS, ids=HOM_IDS)
def test_unipoly_product_matches_schoolbook(field):
    @raw_settings
    @given(unipolys(field, small(field, 5)), unipolys(field, small(field, 5)))
    def check(a, b):
        got, want = a * b, mul_oracle(a, b)
        assert got == want
        assert str(got) == str(want)

    check()


def split_homs(field):
    """Maps k[X]/(f_s) -> k[X]/(f_t) with f_t = prod (X - z_i)^(m_i), a
    random image h of degree < deg f_t and f_s = prod (X - h(z_i))^(m_i), so
    that f_s(h) vanishes mod f_t; with a shifted constant term of f_s the
    map is (almost always) not a homomorphism."""
    roots = st.lists(
        st.tuples(elements(field), st.integers(1, 2)), min_size=1, max_size=small(field, 3)
    ).map(lambda rs: list({str(z): (z, m) for z, m in rs}.values()))

    def build(args):
        rs, image_cs, shift = args
        flat_t = [z for z, m in rs for _ in range(m)]
        target = MonogenicAlgebra.from_roots(field, flat_t)
        image = UniPoly(field, image_cs[: target.dim])
        flat_s = [image(z) for z in flat_t]
        f_s = UniPoly.from_roots(field, flat_s) + UniPoly.constant(field, shift)
        return AlgebraHom(MonogenicAlgebra(field, f_s), target, image)

    return st.tuples(
        roots, st.lists(elements(field), max_size=5), st.sampled_from([0, 0, 1, 2])
    ).map(build)


@pytest.mark.parametrize("field", HOM_FIELDS, ids=HOM_IDS)
def test_power_table_matches_repeated_products_and_compose_mod(field):
    seen = set()

    @raw_settings
    @given(split_homs(field), unipolys(field, 4), unipolys(field, small(field, 4)))
    def check(hom, p, outer_image):
        is_hom = hom.is_homomorphism()
        assert is_hom == hom_oracle(hom)
        assert is_hom == hom.source.modulus.compose_mod(hom.image, hom.target.modulus).is_zero()
        seen.add(is_hom)
        # the map applied to an element, and composition, read the table too
        modulus = hom.target.modulus
        u = hom.source.from_poly(p)
        assert hom(u) == hom.target.from_poly(u.as_poly().compose_mod(hom.image, modulus))
        inner = SubstitutionMap(hom.target, hom.image)
        outer = SubstitutionMap(hom.target, outer_image)
        composite = outer.compose(inner)
        assert composite.image == outer.image.compose_mod(inner.image, modulus)
        want = SubstitutionMap(hom.target, compose_mod_oracle(outer.image, inner.image, modulus))
        assert str(composite) == str(want)
        if hom.source.dim == hom.target.dim:
            got, want = hom.matrix(), matrix_oracle(hom)
            assert got == want
            assert str(got) == str(want)
            assert hom.is_isomorphism() == (is_hom and want.is_invertible())

    check()
    assert seen == {True, False}


def test_matrix_and_homomorphism_of_every_map_over_small_fields():
    # exhaustive over F_3 and F_4 for a few moduli, automorphisms included
    for field in [GF(3), GF(2, 2)]:
        elems = list(field.elements())
        for roots in ([elems[0]] * 3, [elems[0], elems[1], elems[1]], elems[:3]):
            algebra = MonogenicAlgebra.from_roots(field, roots)
            for cs in itertools.product(elems, repeat=3):
                hom = AlgebraHom(algebra, algebra, UniPoly(field, list(cs)))
                assert hom.is_homomorphism() == hom_oracle(hom)
                assert hom.matrix() == matrix_oracle(hom)


def schoolbook(field, a, b):
    """The extension product on the base field's operations."""
    base, d, m = field.base, field.degree, field.modulus
    add, sub, mul = base._add, base._sub, base._mul
    prod = [base.zero.value] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = add(prod[i + j], mul(x, y))
    for k in range(2 * d - 2, d - 1, -1):
        for i in range(d):
            prod[k - d + i] = sub(prod[k - d + i], mul(prod[k], m[i]))
    return tuple(prod[:d])


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_extension_product_matches_schoolbook_on_every_pair(p, k):
    field = GF(p, k)
    values = [e.value for e in field.elements()]
    for a in values:
        for b in values:
            got = field._mul(a, b)
            assert got == schoolbook(field, a, b)
            assert all(type(c) is int and 0 <= c < p for c in got)


def test_extension_product_over_qzeta3_matches_schoolbook():
    field = rationals_with_cube_root()
    small = st.fractions(min_value=-50, max_value=50, max_denominator=30)

    @raw_settings
    @given(st.tuples(small, small), st.tuples(small, small))
    def check(a, b):
        a, b = (tuple(QQ.coerce(c).value for c in x) for x in (a, b))
        got = field._mul(a, b)
        assert got == schoolbook(field, a, b)
        assert_rational_raw(field, [got])

    check()


def t_table(t):
    """The dense table of T(t), written from its defining relations: 1 is
    the unit, e2^2 = t^2, e3^2 = 0, e2*e3 = t*e3, e3*e2 = -t*e3."""
    zero, one = t.field.zero, t.field.one
    return [
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        [[zero, one, zero], [t * t, zero, zero], [zero, zero, t]],
        [[zero, zero, one], [zero, zero, -t], [zero, zero, zero]],
    ]


def product_oracle(u, v, table):
    """The structure-constant product on wrapped elements, from a dense
    table of field elements rather than the algebra's sparse cells."""
    algebra = u.algebra
    n = algebra.dim
    out = [algebra.field.zero] * n
    for i in range(n):
        a = u.coeff(i)
        if a.is_zero():
            continue
        for j in range(n):
            b = v.coeff(j)
            if b.is_zero():
                continue
            ab = a * b
            cell = table[i][j]
            for k in range(n):
                if not cell[k].is_zero():
                    out[k] = out[k] + ab * cell[k]
    return StructElement(algebra, out)


def morphism_oracle(phi, table):
    """phi(1) = 1 and phi(b_i b_j) = phi(b_i) phi(b_j), multiplying basis
    vectors for every pair through the dense `table`."""
    if phi(phi.source.one()) != phi.target.one():
        return False
    images = [phi.image_of_basis(i) for i in range(phi.source.dim)]
    for i in range(phi.source.dim):
        for j in range(phi.source.dim):
            prod = product_oracle(phi.source.basis(i), phi.source.basis(j), table)
            if phi(prod) != product_oracle(images[i], images[j], table):
                return False
    return True


@pytest.mark.parametrize("p", [3, 5, 7])
def test_struct_product_matches_old_loop_over_fp(p):
    field = GF(p)
    elems = list(field.elements())
    for t in elems:
        algebra, table = build_T(t), t_table(t)
        vectors = [algebra.element(list(cs)) for cs in itertools.product(elems, repeat=3)]
        rng = random.Random(p * 100 + t.value)
        for u, v in itertools.product(rng.sample(vectors, 12), rng.sample(vectors, 12)):
            got, want = u * v, product_oracle(u, v, table)
            assert got == want and str(got) == str(want)


def test_struct_product_matches_old_loop_over_function_field():
    t = QT.symbol("t")
    algebra, table = build_T(t), t_table(t)
    vec = st.lists(elements(QT), min_size=3, max_size=3).map(algebra.element)

    @raw_settings
    @given(vec, vec)
    def check(u, v):
        got, want = u * v, product_oracle(u, v, table)
        assert got == want
        assert str(got) == str(want)

    check()


def test_morphism_check_matches_old_check_over_f3():
    # every unit-fixing linear map of T(t) over F_3 and the automorphisms
    # among them: the two checks agree on each of the 3^6 matrices per t
    field = GF(3)
    elems = list(field.elements())
    for t in elems:
        algebra, table = build_T(t), t_table(t)
        hits = 0
        for c1, c2 in itertools.product(itertools.product(elems, repeat=3), repeat=2):
            rows = [[field.one, c1[0], c2[0]], [field.zero, c1[1], c2[1]],
                    [field.zero, c1[2], c2[2]]]
            phi = LinearAlgebraMap(algebra, algebra, Matrix(field, rows))
            got = phi.is_algebra_morphism()
            assert got == morphism_oracle(phi, table)
            hits += got
        assert hits >= len(brute_force_automorphisms(algebra))


def test_morphism_check_detects_a_wrong_unit():
    field = GF(5)
    algebra, table = build_T(field.one), t_table(field.one)
    twice = LinearAlgebraMap(algebra, algebra, Matrix(field, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not twice.is_algebra_morphism() and not morphism_oracle(twice, table)
    # the zero map is multiplicative; only phi(1) = 1 fails
    zero = LinearAlgebraMap(algebra, algebra, Matrix(field, [[0] * 3] * 3))
    assert not zero.is_algebra_morphism() and not morphism_oracle(zero, table)


def rebased(algebra, basis):
    """The same algebra on a new basis, given by the coordinate vectors of
    its elements in the old one, and its dense table of field elements;
    its cells have several nonzero entries."""
    field, n = algebra.field, algebra.dim
    change = Matrix(field, list(map(list, zip(*basis))))
    back = change.inverse()
    vectors = [algebra.element(b) for b in basis]
    table = [[back.mul_vec(list((u * v).coeffs)) for v in vectors] for u in vectors]
    unit = back.mul_vec(list(algebra.unit))
    return StructureConstAlgebra(field, table, unit, [f"b{i}" for i in range(n)]), table


@pytest.mark.parametrize("p", [5, 7])
def test_product_and_morphism_check_on_dense_cells(p):
    field = GF(p)
    algebra, table = rebased(build_T(field.coerce(2)), [[1, 1, 0], [1, 2, 1], [3, 0, 1]])
    assert max(len(cell) for row in algebra.cells for cell in row) == 3
    elems = list(field.elements())
    vectors = [algebra.element(list(cs)) for cs in itertools.product(elems, repeat=3)]
    rng = random.Random(p)
    for u, v in itertools.product(rng.sample(vectors, 15), rng.sample(vectors, 15)):
        got, want = u * v, product_oracle(u, v, table)
        assert got == want and str(got) == str(want)
    auts = brute_force_automorphisms(algebra)
    assert len(auts) == p * (p - 1)  # Aut(T(t)) for t != 0: the pairs (b, b')
    for phi in auts:
        assert morphism_oracle(phi, table)
        # one entry moved: the two checks still agree
        rows = [list(r) for r in phi.matrix.rows]
        i, j = rng.randrange(3), rng.randrange(3)
        rows[i][j] = rows[i][j] + rng.randrange(1, p)
        moved = LinearAlgebraMap(algebra, algebra, Matrix(field, rows))
        assert moved.is_algebra_morphism() == morphism_oracle(moved, table)
    for _ in range(200):
        rows = [[rng.choice(elems) for _ in range(3)] for _ in range(3)]
        phi = LinearAlgebraMap(algebra, algebra, Matrix(field, rows))
        assert phi.is_algebra_morphism() == morphism_oracle(phi, table)


def no_s3_oracle(field):
    """The check with each order found by a search up to a bound."""
    involutions = [c for c in all_chis(field) if c.order(4) == 2]
    pairs = 0
    for u in involutions:
        for v in involutions:
            if u == v:
                continue
            pairs += 1
            if u.compose(v).order(6) == 3:
                return NoS3Report(field, False, pairs, (u, v))
    return NoS3Report(field, True, pairs, None)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_no_s3_check_matches_order_search(p, k):
    field = GF(p, k)
    assert no_s3_check(field) == no_s3_oracle(field)
