"""Properties of the raw-value kernels, UniPoly divmod and the MultiPoly
product, over Q, F_7, F_8 and Q(zeta3)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symlab.fields import GF, QQ, rationals_with_cube_root  # noqa: E402
from symlab.poly import MultiPoly, UniPoly, _poly_gcd  # noqa: E402


KERNEL_FIELDS = [QQ, GF(7), GF(2, 3), rationals_with_cube_root()]
KERNEL_IDS = ["Q", "F7", "F8", "Qzeta3"]
XY = ("x", "y")
kernel_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def elements(field):
    """Field elements sum_i c_i * g^i over a basis 1, g, g^2, ... of the
    field over its prime field, with small c_i."""
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


def multipolys(field):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, elements(field), max_size=5).map(
        lambda terms: MultiPoly(field, XY, terms)
    )


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
        assert all(not c.is_zero() for c in (a * b).terms.values())

    check()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_gcd_keeps_common_factor(field):
    @kernel_settings
    @given(unipolys(field, 3), unipolys(field, 3), unipolys(field, 3))
    def check(f, g, h):
        if f.is_zero():
            return
        f = f * f.coeffs[-1].inverse()
        d = _poly_gcd(f * g, f * h)
        assert (d % f).is_zero()
        assert d.is_zero() or d.is_monic()

    check()
