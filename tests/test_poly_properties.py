"""Properties of the raw-value kernels, UniPoly divmod, the MultiPoly
product and the univariate gcd, over Q, F_7, F_8 and Q(zeta3), and of the
canonical form of rational functions (poly._canonical) over the same
fields in t and in a, t; and the raw-value representation of MultiPoly
over those fields and Q(t): after every operation its terms are nonzero
raw values, equal to the element-level results, and a raw value of Q is an
int exactly when it is integral."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symlab.fields import GF, QQ, FieldElement, rationals_with_cube_root  # noqa: E402
from symlab.poly import FunctionField, MultiPoly, RationalFunction, UniPoly, _poly_gcd  # noqa: E402
from test_fields import assert_rational_raw  # noqa: E402


KERNEL_FIELDS = [QQ, GF(7), GF(2, 3), rationals_with_cube_root()]
KERNEL_IDS = ["Q", "F7", "F8", "Qzeta3"]
XY = ("x", "y")
CONTEXTS = [("t",), ("a", "t")]
CONTEXT_IDS = ["t", "a,t"]
kernel_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


QT = FunctionField(QQ, ("t",))


def elements(field):
    """Field elements sum_i c_i * g^i over a basis 1, g, g^2, ... of the
    field over its prime field, with small c_i; over Q(t) a quotient of two
    polynomials of degree <= 1."""
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


def unipolys(field, max_deg=5):
    return st.lists(elements(field), max_size=max_deg + 1).map(lambda cs: UniPoly(field, cs))


def multipolys(field, symbols=XY, max_size=5):
    exps = st.tuples(*[st.integers(0, 2)] * len(symbols))
    return st.dictionaries(exps, elements(field), max_size=max_size).map(
        lambda terms: MultiPoly(field, symbols, terms)
    )


def raw_terms(p):
    return dict(p.terms)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_divmod_property(field):
    @kernel_settings
    @given(unipolys(field, 7), unipolys(field, 4))
    def check(a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_multipoly_product_evaluates_as_product(field):
    @kernel_settings
    @given(multipolys(field), multipolys(field), elements(field), elements(field))
    def check(a, b, x, y):
        at = {"x": x, "y": y}
        assert (a * b).eval_all(at) == a.eval_all(at) * b.eval_all(at)
        assert not any(field._is_zero(c) for c in (a * b).terms.values())

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_gcd_keeps_common_factor(field):
    @kernel_settings
    @given(unipolys(field, 3), unipolys(field, 3), unipolys(field, 3))
    def check(f, g, h):
        if f.is_zero():
            return
        f = f * f.coeff(f.degree).inverse()
        d = _poly_gcd(f * g, f * h)
        assert (d % f).is_zero()
        assert d.is_zero() or d.is_monic()

    check()


def fraction_euclid_reduce(num, den):
    """The reduction by Euclid on Fraction coefficients, kept as a test-only
    oracle: (num // g, den // g) for the monic gcd g, or the pair itself
    when g is constant."""
    field, (sym,) = num.field, num.symbols

    def dense(p):
        return UniPoly(field, [p.terms.get((k,), 0) for k in range(p.degree_in(sym) + 1)])

    a, b = dense(num), dense(den)
    g, h = a, b
    while not h.is_zero():
        g, h = h, g % h
    g = g * g.coeff(g.degree).inverse()
    if g.degree < 1:
        return num, den

    def back(p):
        return MultiPoly(field, num.symbols, {(k,): c for k, c in enumerate(p.coeffs)})

    return back(a // g), back(b // g)


def jointly_primitive(num, den):
    """The raw terms of num and den times the one rational that makes them
    integers with joint gcd 1 and den's highest coefficient in t positive:
    the test-local oracle for the scaling of the canonical form."""
    vals = [c for p in (num, den) for c in p.terms.values()]
    scale = Fraction(math.lcm(*(v.denominator for v in vals)), math.gcd(*(v.numerator for v in vals)))
    if den.terms[(den.degree_in("t"),)] < 0:
        scale = -scale
    return [{e: v * scale for e, v in raw_terms(p).items()} for p in (num, den)]


def test_integer_gcd_reduction_matches_fraction_euclid():
    @kernel_settings
    @given(unipolys(QQ, 3), unipolys(QQ, 3), unipolys(QQ, 3), elements(QQ))
    def check(f, g, h, scale):
        if f.is_zero() or g.is_zero() or h.is_zero() or scale.is_zero():
            return
        num = MultiPoly(QQ, ("t",), {(k,): c for k, c in enumerate((f * g).coeffs)})
        den = MultiPoly(QQ, ("t",), {(k,): c * scale for k, c in enumerate((f * h).coeffs)})
        got = RationalFunction(num, den)
        expected = jointly_primitive(*fraction_euclid_reduce(num, den))
        assert [raw_terms(got.num), raw_terms(got.den)] == expected
        # what is left is coprime
        rn, rd = (UniPoly(QQ, [p.terms.get((k,), 0) for k in range(p.degree_in("t") + 1)])
                  for p in (got.num, got.den))
        assert _poly_gcd(rn, rd) == UniPoly(QQ, [1])

    check()


def assert_canonical(r, num, den):
    """r = num/den by cross multiplication, and r's coefficients are scaled
    canonically: over Q integers with joint gcd 1 and den's leading term
    positive, over other fields den's leading coefficient 1."""
    assert r.num * den == num * r.den
    lead = r.den._sorted_terms()[0][1]
    if r.field == QQ:
        vals = [c for p in (r.num, r.den) for c in p.terms.values()]
        assert all(v.denominator == 1 for v in vals)
        assert math.gcd(*(v.numerator for v in vals)) == 1
        assert lead > 0
    else:
        assert lead == r.field.one.value


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_canonical_form_is_scaled_and_keeps_the_value(field, symbols):
    exps = st.tuples(*[st.integers(0, 2)] * len(symbols))

    @kernel_settings
    @given(multipolys(field, symbols, 4), multipolys(field, symbols, 4), elements(field), exps)
    def check(num, den, c, e):
        if den.is_zero():
            return
        r = RationalFunction(num, den)
        assert_canonical(r, num, den)
        if c.is_zero():
            return
        # a common constant or monomial factor does not change the form
        for m in (MultiPoly(field, symbols, {(0,) * len(symbols): c}), MultiPoly(field, symbols, {e: c})):
            scaled = RationalFunction(num * m, den * m)
            assert [raw_terms(scaled.num), raw_terms(scaled.den)] == [raw_terms(r.num), raw_terms(r.den)]

    check()


def coefficient_list(p):
    """The raw coefficients of p in t, lowest first, with one trailing zero."""
    zero = p.field.zero.value
    return [p.terms.get((k,), zero) for k in range(p.degree_in("t") + 1 if p.terms else 0)] + [zero]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_canonical_form_cancels_a_common_factor_in_one_symbol(field):
    t2, zero = MultiPoly(field, ("t",), {(2,): 1}), MultiPoly.zero(field, ("t",))

    @kernel_settings
    @given(*[multipolys(field, ("t",), 4)] * 3)
    def check(num, den, h):
        if den.is_zero() or h.is_zero():
            return
        r, cancelled = RationalFunction(num, den), RationalFunction(num * h, den * h)
        assert_canonical(cancelled, num, den)
        assert [raw_terms(cancelled.num), raw_terms(cancelled.den)] == [raw_terms(r.num), raw_terms(r.den)]
        # the coefficient-list entry runs the same kernel: the same terms
        # and the same string, also with a zero numerator and a shared t^2
        for a, b in ((num, den), (num * h, den * h), (num * h * t2, den * t2), (zero, den * h)):
            direct = RationalFunction(a, b)
            listed = RationalFunction._from_values(field, ("t",), coefficient_list(a), coefficient_list(b)[:-1])
            assert [raw_terms(listed.num), raw_terms(listed.den)] == [raw_terms(direct.num), raw_terms(direct.den)]
            assert str(listed) == str(direct)

    check()


def element_terms(p):
    """The terms of p with their coefficients as field elements."""
    return {e: FieldElement(p.field, c) for e, c in p.terms.items()}


def assert_raw_terms(p, want):
    """p's terms hold raw values, no field element and no zero, and they
    are the values coercion stores for the nonzero field elements of the
    terms `want`; a raw value of Q among them is an int if and only if it
    is integral."""
    f = p.field
    assert not any(isinstance(c, FieldElement) or f._is_zero(c) for c in p.terms.values())
    assert_rational_raw(f, p.terms.values())
    assert p.terms == {e: f.coerce(c).value for e, c in want.items() if not c.is_zero()}


@pytest.mark.parametrize("field", KERNEL_FIELDS + [QT], ids=KERNEL_IDS + ["Qt"])
def test_multipoly_terms_hold_raw_values_after_every_operation(field):
    # +, -, negation, scalar products on either side, polynomial products
    # and the canonical form against the same operations on the terms as
    # field elements; with b = -a every term of a + b cancels
    size = 3 if field == QT else 5

    @kernel_settings
    @given(multipolys(field, XY, size), multipolys(field, XY, size), elements(field), st.booleans())
    def check(a, b, c, negated):
        if negated:
            b = -a
        ea, eb = element_terms(a), element_terms(b)
        assert_raw_terms(a, ea)
        zero = field.zero
        keys = set(ea) | set(eb)
        assert_raw_terms(a + b, {e: ea.get(e, zero) + eb.get(e, zero) for e in keys})
        assert_raw_terms(a - b, {e: ea.get(e, zero) - eb.get(e, zero) for e in keys})
        assert_raw_terms(-a, {e: -x for e, x in ea.items()})
        assert_raw_terms(a * c, {e: x * c for e, x in ea.items()})
        assert_raw_terms(c * a, {e: c * x for e, x in ea.items()})
        assert_raw_terms(3 * a, {e: 3 * x for e, x in ea.items()})
        product = {}
        for e1, x in ea.items():
            for e2, y in eb.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                product[e] = product.get(e, zero) + x * y
        assert_raw_terms(a * b, product)
        if b.is_zero():
            return
        r = RationalFunction(a, b)
        assert_raw_terms(r.num, element_terms(r.num))
        assert_raw_terms(r.den, element_terms(r.den))
        assert r.num * b == a * r.den

    check()
