import itertools
import random
from fractions import Fraction

import pytest

from symlab.fields import GF, QQ, rationals_with_cube_root
from symlab.poly import (
    FunctionField,
    MultiPoly,
    Pole,
    RationalFunction,
    UniPoly,
)

T = ("t",)


def tpoly(coeffs):
    """Polynomial in t over Q from an ascending coefficient list."""
    return MultiPoly(QQ, T, {(k,): c for k, c in enumerate(coeffs)})


def tfrac(num, den):
    return RationalFunction(tpoly(num), tpoly(den))


def random_unipoly(field, rng, max_deg=6):
    deg = rng.randint(0, max_deg)
    if field.size() is not None:
        elems = list(field.elements())
        coeffs = [elems[rng.randrange(len(elems))] for _ in range(deg + 1)]
    else:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    return UniPoly(field, coeffs)


class TestUniPoly:
    def test_divmod_examples(self):
        q, r = divmod(UniPoly(QQ, [0, 0, 0, 1]), UniPoly(QQ, [-1, 1]))
        assert q == UniPoly(QQ, [1, 1, 1]) and r == UniPoly(QQ, [1])
        f = UniPoly(QQ, [0, 0, -1, 1])
        q, r = divmod(f, f)
        assert q == UniPoly(QQ, [1]) and r.is_zero()
        # oracle: multiply back and compare
        f5 = GF(5)
        f = UniPoly.from_roots(f5, [0, 1, 2])
        q, r = divmod(f, UniPoly(f5, [-1, 1]))
        assert r.is_zero()
        assert q * UniPoly(f5, [-1, 1]) == f

    def test_divmod_round_trip_randomized(self):
        rng = random.Random(99)
        for field in [QQ, GF(5), GF(7), GF(2, 2)]:
            for _ in range(500):
                f = random_unipoly(field, rng)
                g = random_unipoly(field, rng, max_deg=3)
                if g.is_zero():
                    continue
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.is_zero() or r.degree < g.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly(QQ, [1, 1]), UniPoly.zero(QQ))

    def test_field_mismatch(self):
        from symlab.fields import FieldError

        with pytest.raises(FieldError):
            UniPoly(QQ, [1, 1]) + UniPoly(GF(5), [1, 1])

    def test_evaluation_and_composition(self):
        f = UniPoly(QQ, [1, 2, 1])  # (X+1)^2
        assert f(QQ.coerce(3)) == QQ.coerce(16)
        mod = UniPoly(QQ, [0, 0, 0, 1])  # X^3
        g = UniPoly(QQ, [0, 1, 1])
        assert f.compose_mod(g, mod) == (g * g + 2 * g + 1) % mod

    def test_str(self):
        assert str(UniPoly(QQ, [0, 0, -1, 1])) == "X^3 - X^2"
        assert UniPoly(QQ, [0, -1, 2]).to_str(ascending=True) == "-X + 2*X^2"
        assert str(UniPoly.zero(QQ)) == "0"


class TestMultiPoly:
    def test_arithmetic(self):
        syms = ("x1", "x2")
        x1 = MultiPoly.symbol(QQ, syms, "x1")
        x2 = MultiPoly.symbol(QQ, syms, "x2")
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
        assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2

    def test_substitute_and_leading_term(self):
        p = tpoly([0, 0, 1])  # t^2
        q = p.substitute("t", 3)
        assert q.symbols == () and q.as_constant() == QQ.coerce(9)
        # t^2 = 1 + 2(t - 1) + (t - 1)^2 and t^2 - 1 = 2(t - 1) + (t - 1)^2
        assert p.leading_term("t", 1) == (0, MultiPoly.constant(QQ, (), 1))
        assert (p - 1).leading_term("t", 1) == (1, MultiPoly.constant(QQ, (), 2))
        assert p.leading_term("t", 0) == (2, MultiPoly.constant(QQ, (), 1))
        # in two symbols the coefficients keep the other one:
        # a*t^2 - a = 2a(t - 1) + a(t - 1)^2 at t = 1, and a*t^2 - a at a = 2
        syms = ("a", "t")
        a, t = (MultiPoly.symbol(QQ, syms, s) for s in syms)
        k, c = (a * t * t - a).leading_term("t", 1)
        assert k == 1 and c == MultiPoly.symbol(QQ, ("a",), "a") * 2
        assert (a * t * t - a).substitute("a", 2) == tpoly([-2, 0, 2])
        with pytest.raises(ValueError):
            MultiPoly.zero(QQ, syms).leading_term("t", 1)

    def test_order_and_coeff(self):
        p = tpoly([0, 0, 3, 5])
        assert p.order_in("t") == 2 and p.degree_in("t") == 3
        c = next(itertools.islice(p.expand("t", 0), 2, None))
        assert c.as_constant() == QQ.coerce(3)
        with pytest.raises(ValueError):
            MultiPoly.zero(QQ, T).order_in("t")

    def test_str_sorted(self):
        syms = ("x1", "x2", "x3")
        x1 = MultiPoly.symbol(QQ, syms, "x1")
        x3 = MultiPoly.symbol(QQ, syms, "x3")
        assert str(x1 * x1 - 2 * x1 * x3) == "x1^2 - 2*x1*x3"


class TestRationalFunction:
    def test_order_at_zero_examples(self):
        assert tfrac([2, -1], [1, -1]).order_in("t") == 0
        assert tfrac([1, -1, -1], [0, -1, 1]).order_in("t") == -1
        assert RationalFunction(tpoly([0, 0, 0, 1]), tpoly([0, 1])).order_in("t") == 2

    def test_order_multiplicative_randomized(self):
        rng = random.Random(4)
        for _ in range(200):
            def rand_poly():
                lo = rng.randint(0, 3)
                coeffs = [0] * lo + [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
                if all(c == 0 for c in coeffs):
                    coeffs[-1] = 1
                return tpoly(coeffs)

            r = RationalFunction(rand_poly(), rand_poly())
            s = RationalFunction(rand_poly(), rand_poly())
            if r.is_zero() or s.is_zero():
                continue
            assert (r * s).order_in("t") == r.order_in("t") + s.order_in("t")

    def test_limit_examples(self):
        # (t^2 - t - 1)/(1 - t) at 0 -> -1
        lim = tfrac([-1, -1, 1], [1, -1]).limit_at("t", 0)
        assert lim.as_constant() == QQ.coerce(-1)
        # (2 - t)/(1 - t) at 1 -> pole of order 1
        lim = tfrac([2, -1], [1, -1]).limit_at("t", 1)
        assert lim == Pole(1)
        # removable singularity: (t^2 - 1)/(t - 1) at 1 -> 2
        lim = tfrac([-1, 0, 1], [-1, 1]).limit_at("t", 1)
        assert lim.as_constant() == QQ.coerce(2)

    def test_limit_agrees_with_substitution_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            num = tpoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            den = tpoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 5))])
            if num.is_zero() or den.is_zero():
                continue
            t0 = QQ.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            if den.substitute("t", t0).as_constant().is_zero():
                continue
            r = RationalFunction(num, den)
            lim = r.limit_at("t", t0)
            direct = num.substitute("t", t0).as_constant() / den.substitute(
                "t", t0
            ).as_constant()
            assert lim.as_constant() == direct

    def test_limit_drops_symbol(self):
        syms = ("x1", "t")
        x1 = MultiPoly.symbol(QQ, syms, "x1")
        t = MultiPoly.symbol(QQ, syms, "t")
        r = RationalFunction(x1 * t + t, t)
        lim = r.limit_at("t", 0)
        assert lim.symbols == ("x1",)
        assert lim == RationalFunction.from_poly(MultiPoly.symbol(QQ, ("x1",), "x1") + 1)

    def test_equality_by_cross_multiplication(self):
        assert tfrac([-1, 0, 1], [-1, 1]) == tfrac([1, 1], [1])
        assert tfrac([0, 1], [1]) == RationalFunction(tpoly([0, 0, 1]), tpoly([0, 1]))
        assert tfrac([-1, -1, 1], [1, -1]) != tfrac([-1, -1, 1], [-1, 1])
        assert tfrac([0, 2], [2]) == tfrac([0, 1], [1])

    def test_a_shared_denominator_stays_in_a_sum(self):
        # with two symbols _canonical cancels no gcd, so a sum over the
        # product of the denominators would keep (1 + a*t)^2
        syms = ("a", "t")
        a, t = (MultiPoly.symbol(QQ, syms, s) for s in syms)
        den = 1 + a * t
        x, y = RationalFunction(a, den), RationalFunction(t, den)
        assert (x + y).den == den and (x + y).num == a + t
        assert (x - y).den == den and (x - y).num == a - t
        assert str(x + y) == "(a + t)/(a*t + 1)"
        # different denominators still meet over their product
        z = RationalFunction(t, 1 + a)
        assert (x + z).den == den * (1 + a)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(tpoly([1]), tpoly([]))

    def test_symbol_mismatch(self):
        other = RationalFunction.symbol(QQ, ("u",), "u")
        with pytest.raises(ValueError):
            tfrac([0, 1], [1]) + other

    def test_extension_coefficients(self):
        qz = rationals_with_cube_root()
        z = qz.generator()
        t = MultiPoly.symbol(qz, T, "t")
        r = RationalFunction.from_poly(t * z)
        lim = (r / RationalFunction.from_poly(t)).limit_at("t", 0)
        assert lim.as_constant() == z


class TestFunctionField:
    def test_arithmetic_and_inverse(self):
        ff = FunctionField(QQ, T)
        t = ff.symbol("t")
        u = (t + 1) * (t - 1)
        assert u == t * t - 1
        assert (u / (t - 1)) == t + 1
        assert t.inverse() * t == ff.one

    def test_unhashable(self):
        ff = FunctionField(QQ, T)
        with pytest.raises(TypeError):
            hash(ff.symbol("t"))
