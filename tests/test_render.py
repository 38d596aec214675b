"""Exact strings of every signed-term renderer.

Golden CLI files cover these renderers only through whole reports; here
each one is pinned on its own: the zero element, implicit coefficients 1
and -1, the constant term, parenthesized compound coefficients, and the
field descriptors' reprs.
"""

from fractions import Fraction

from symlab.fields import GF, QQ, rationals_with_cube_root
from symlab.poly import FunctionField, MultiPoly, UniPoly
from symlab.structure import build_T


def test_field_reprs():
    assert repr(GF(2, 2)) == "F2[Y]/(Y^2 + Y + 1)"
    assert repr(GF(3, 3)) == "F3[Y]/(Y^3 + 2*Y^2 + 1)"
    assert repr(GF(2, 3)) == "F2[Y]/(Y^3 + Y^2 + 1)"
    assert repr(rationals_with_cube_root()) == "Q[zeta3]/(zeta3^2 + zeta3 + 1)"


def test_extension_elements():
    qz = rationals_with_cube_root()
    z = qz.generator()
    assert [str(e) for e in (qz.zero, qz.one, z, -z, -z - 1)] == [
        "0", "1", "zeta3", "-zeta3", "-zeta3 - 1",
    ]
    # fractions stay unparenthesized inside the extension's own renderer
    assert str(z * Fraction(-1, 2) + 3) == "-1/2*zeta3 + 3"
    assert str(z * 2 - Fraction(1, 3)) == "2*zeta3 - 1/3"
    f9 = GF(3, 2)
    y = f9.generator()
    assert [str(y * 2 + 1), str(y + 2), str(f9.zero)] == ["2*Y + 1", "Y + 2", "0"]
    f27 = GF(3, 3)
    y = f27.generator()
    assert [str(y * y * 2 + y + 1), str(y * y), str(y**3)] == ["2*Y^2 + Y + 1", "Y^2", "Y^2 + 2"]


def test_unipoly():
    half = Fraction(1, 2)
    assert UniPoly(QQ, []).to_str() == "0"
    assert UniPoly(QQ, [1, -1, half, -half, -3]).to_str() == "-3*X^4 + (-1/2)*X^3 + (1/2)*X^2 - X + 1"
    assert UniPoly(QQ, [-1, 0, 1]).to_str("T", ascending=True) == "-1 + T^2"
    assert UniPoly(QQ, [half]).to_str() == "(1/2)"
    ff = FunctionField(QQ, ["t"])
    t = ff.symbol("t")
    p = UniPoly(ff, [t, ff.one / (t - 1), -t, -ff.one, ff.one])
    assert str(p) == "X^4 - X^3 - t*X^2 + (1/(t - 1))*X + t"
    qz = rationals_with_cube_root()
    z = qz.generator()
    q = UniPoly(qz, [z * Fraction(-1, 2) + 3, -z, qz.one])
    assert str(q) == "X^2 - zeta3*X + (-1/2*zeta3 + 3)"


def test_multipoly():
    syms = ("a", "b")
    a = MultiPoly.symbol(QQ, syms, "a")
    b = MultiPoly.symbol(QQ, syms, "b")
    assert str(MultiPoly.zero(QQ, syms)) == "0"
    assert str(a * a * Fraction(1, 2) - a * b + b * 3 - 1) == "(1/2)*a^2 - a*b + 3*b - 1"
    assert str(-a + 2) == "-a + 2"


def test_struct_elements_with_basis_named_one():
    ff = FunctionField(QQ, ["t"])
    t = ff.symbol("t")
    T = build_T(t)
    assert str(T.one()) == "1"
    assert str(T.zero()) == "0"
    assert str(T.basis(1) * t - T.one() * (t + 1)) == "(-t - 1)*1 + t*e2"
    assert str(T.basis(2) * (-1) + T.one() * 2) == "2*1 - e3"
    T5 = build_T(GF(5).coerce(2))
    assert str(T5.one() * 3 + T5.basis(1) * 4) == "3*1 + 4*e2"
    assert str(-T5.one()) == "4*1"
    TQ = build_T(QQ.coerce(2))
    assert [str(-TQ.one()), str(-TQ.basis(1) - TQ.one())] == ["-1", "-1 - e2"]
