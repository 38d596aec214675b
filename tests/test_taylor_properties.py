"""Properties of the one Taylor kernel (poly.taylor), the leading-term
query built on it (MultiPoly.leading_term) and the limits read from it
(RationalFunction.limit_at), over random rational functions in t and in
a, t, at t0 = 0 and at t0 != 0.  Values at t0 are computed here by summing
the terms directly, never through the kernel; a sympy oracle, when sympy is
installed, gives the limits and pole orders by cancelling the fraction."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from symlab.fields import GF, QQ, FieldElement, rationals_with_cube_root  # noqa: E402
from symlab.poly import MultiPoly, Pole, RationalFunction, UniPoly, taylor  # noqa: E402

from test_poly_properties import CONTEXT_IDS, CONTEXTS, KERNEL_FIELDS, KERNEL_IDS, elements, unipolys  # noqa: E402

limit_settings = settings(max_examples=80, deadline=None, derandomize=True, database=None)

t0s = st.sampled_from([Fraction(0)]) | st.fractions(
    min_value=-3, max_value=3, max_denominator=3
).filter(bool)


def value_at_t0(p: MultiPoly, t0) -> MultiPoly:
    """p with t = t0, summed term by term: the oracle for substitution."""
    i = p.symbols.index("t")
    rest = p.symbols[:i] + p.symbols[i + 1 :]
    out = MultiPoly.zero(p.field, rest)
    for e, c in p.terms.items():
        out = out + MultiPoly(p.field, rest, {e[:i] + e[i + 1 :]: c * p.field.coerce(t0) ** e[i]})
    return out


def polys(symbols):
    """Polynomials of degree <= 3 in t and <= 1 in a, small integer
    coefficients."""
    exps = st.tuples(*(st.integers(0, 3 if s == "t" else 1) for s in symbols))
    return st.dictionaries(exps, st.integers(-4, 4), max_size=5).map(
        lambda terms: MultiPoly(QQ, symbols, terms)
    )


def rational_functions(symbols):
    """(r, t0): r = (t - t0)^j f / ((t - t0)^k g), so that both zeros and
    poles at t0 come up, with t0 = 0 or a small nonzero rational."""

    def build(args):
        f, g, j, k, t0 = args
        s = MultiPoly.symbol(QQ, symbols, "t") - t0
        return RationalFunction(s**j * f, s**k * g), t0

    return st.tuples(polys(symbols), polys(symbols).filter(lambda g: not g.is_zero()),
                     st.integers(0, 2), st.integers(0, 2), t0s).map(build)


def finite_limit(r, t0):
    lim = r.limit_at("t", t0)
    return None if isinstance(lim, Pole) else lim


# -- the kernel --------------------------------------------------------------


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_taylor_coefficients_rebuild_the_polynomial(field):
    @limit_settings
    @given(unipolys(field, 6), elements(field))
    def check(p, t0):
        n = len(p.coeffs)
        series = taylor(field, list(p.coeffs), t0.value)
        cs = [next(series) for _ in range(n + 2)]
        # sum_k c_k (X - t0)^k is p, and the series is zero past deg p
        s = UniPoly(field, [-t0, field.one])
        terms = (UniPoly(field, [FieldElement(field, c)]) * s**k for k, c in enumerate(cs))
        rebuilt = sum(terms, UniPoly.zero(field))
        assert rebuilt == p
        assert all(field._is_zero(c) for c in cs[n:])

    check()


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
def test_leading_term_is_the_lowest_power_of_t_minus_t0(symbols):
    @limit_settings
    @given(polys(symbols), st.integers(0, 3), t0s)
    def check(q, k, t0):
        lead = value_at_t0(q, t0)
        assume(not lead.is_zero())
        p = (MultiPoly.symbol(QQ, symbols, "t") - t0) ** k * q
        assert p.leading_term("t", t0) == (k, lead)
        assert p.substitute("t", t0) == value_at_t0(p, t0)

    check()


# -- limits ------------------------------------------------------------------


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
def test_limit_is_the_value_where_the_denominator_does_not_vanish(symbols):
    @limit_settings
    @given(rational_functions(symbols))
    def check(rt):
        r, t0 = rt
        den = value_at_t0(r.den, t0)
        assume(not den.is_zero())
        lim = r.limit_at("t", t0)
        assert not isinstance(lim, Pole)
        assert lim == RationalFunction(value_at_t0(r.num, t0), den)

    check()


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
def test_limits_commute_with_sum_and_product(symbols):
    @limit_settings
    @given(rational_functions(symbols), rational_functions(symbols))
    def check(rt, st_):
        (r, t0), (s, _) = rt, st_
        lr, ls = finite_limit(r, t0), finite_limit(s, t0)
        assume(lr is not None and ls is not None)
        assert (r + s).limit_at("t", t0) == lr + ls
        assert (r * s).limit_at("t", t0) == lr * ls

    check()


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
def test_pole_orders_add_under_product(symbols):
    @limit_settings
    @given(rational_functions(symbols), rational_functions(symbols))
    def check(rt, st_):
        (r, t0), (s, _) = rt, st_
        lr, ls = r.limit_at("t", t0), s.limit_at("t", t0)
        assume(isinstance(lr, Pole) or isinstance(ls, Pole))
        # a finite limit that is not zero has order 0 at t0
        orders = [x.order if isinstance(x, Pole) else 0 for x in (lr, ls)]
        assume(all(isinstance(x, Pole) or not x.is_zero() for x in (lr, ls)))
        assert (r * s).limit_at("t", t0) == Pole(sum(orders))

    check()


# -- the sympy oracle ----------------------------------------------------------


def to_sympy(p: MultiPoly, sp):
    syms = [sp.Symbol(s) for s in p.symbols]
    return sp.Add(*(
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*(x**k for x, k in zip(syms, e)))
        for e, c in p.terms.items()
    ))


def sympy_limit(r: RationalFunction, t0, sp):
    """('pole', order) or ('limit', value) from the cancelled fraction n/d:
    the pole order is the multiplicity of t - t0 in d, and otherwise the
    limit is n(t0)/d(t0)."""
    t, at = sp.Symbol("t"), sp.Rational(t0.numerator, t0.denominator)
    n, d = sp.fraction(sp.cancel(to_sympy(r.num, sp) / to_sympy(r.den, sp)))
    order = 0
    while sp.expand(d.subs(t, at)) == 0:
        d = sp.quo(d, t - at, t)
        order += 1
    if order:
        return ("pole", order)
    return ("limit", sp.cancel(n.subs(t, at) / d.subs(t, at)))


@pytest.mark.parametrize("symbols", CONTEXTS, ids=CONTEXT_IDS)
def test_limits_and_pole_orders_match_sympy(symbols):
    sp = pytest.importorskip("sympy")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rational_functions(symbols))
    def check(rt):
        r, t0 = rt
        lim = r.limit_at("t", t0)
        kind, want = sympy_limit(r, t0, sp)
        if isinstance(lim, Pole):
            assert (kind, want) == ("pole", lim.order)
        else:
            assert kind == "limit"
            got = to_sympy(lim.num, sp) / to_sympy(lim.den, sp)
            assert sp.cancel(got - want) == 0

    check()


def test_kernel_over_a_finite_field_at_every_point():
    # over F_5 the value is the first Taylor coefficient at each element
    f5 = GF(5)
    p = UniPoly(f5, [1, 2, 0, 4, 3])
    for z in f5.elements():
        acc = f5.zero
        for c in reversed(p.coeffs):
            acc = acc * z + c
        assert p(z) == acc
    qz = rationals_with_cube_root()
    z = qz.generator()
    assert UniPoly(qz, [1, 1, 1])(z).is_zero()
