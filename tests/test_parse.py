from fractions import Fraction

import pytest

from symlab.fields import GF, QQ, rationals_with_cube_root
from symlab.parse import MAX_NESTING, ParseError, parse_cycles, parse_ratfunc
from symlab.poly import MultiPoly, RationalFunction


def tpoly(coeffs):
    return MultiPoly(QQ, ("t",), {(k,): c for k, c in enumerate(coeffs)})


class TestRatfunc:
    def test_monomial(self):
        assert parse_ratfunc("t^2", QQ, ("t",)) == RationalFunction.from_poly(
            tpoly([0, 0, 1])
        )

    def test_worked_coefficient(self):
        got = parse_ratfunc("(t^2 - t - 1)/(1 - t)", QQ, ("t",))
        assert got == RationalFunction(tpoly([-1, -1, 1]), tpoly([1, -1]))

    def test_linear_condition(self):
        syms = ("x1", "x2", "x3")
        got = parse_ratfunc("x1 + x2 - 2*x3", QQ, syms)
        x = [MultiPoly.symbol(QQ, syms, s) for s in syms]
        assert got == RationalFunction.from_poly(x[0] + x[1] - 2 * x[2])

    def test_rationals_and_precedence(self):
        assert parse_ratfunc("1/2", QQ).as_constant() == QQ.coerce(Fraction(1, 2))
        assert parse_ratfunc("3 + 4*5", QQ).as_constant() == QQ.coerce(23)
        assert parse_ratfunc("2^3", QQ).as_constant() == QQ.coerce(8)
        with pytest.raises(ParseError):
            parse_ratfunc("2^3^1", QQ)  # exponent towers are not in the grammar
        assert parse_ratfunc("(3 + 4)*5", QQ).as_constant() == QQ.coerce(35)
        assert parse_ratfunc("-t + 2", QQ, ("t",)) == RationalFunction.from_poly(
            tpoly([2, -1])
        )

    def test_zeta3_constant(self):
        qz = rationals_with_cube_root()
        z = qz.generator()
        assert parse_ratfunc("-zeta3", qz).as_constant() == -z
        assert parse_ratfunc("zeta3^2 + zeta3 + 1", qz).as_constant().is_zero()

    def test_zeta3_in_finite_field(self):
        f4 = GF(2, 2)
        assert parse_ratfunc("zeta3", f4).as_constant() == f4.generator()
        with pytest.raises(ParseError):
            parse_ratfunc("zeta3", GF(5))

    def test_prime_field_constants(self):
        assert parse_ratfunc("2/3", GF(7)).as_constant() == GF(7).coerce(3)

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as e:
            parse_ratfunc("t + q", QQ, ("t",))
        assert e.value.position == 4
        with pytest.raises(ParseError) as e:
            parse_ratfunc("(t + 1", QQ, ("t",))
        assert e.value.position == 6
        with pytest.raises(ParseError):
            parse_ratfunc("t t", QQ, ("t",))
        with pytest.raises(ParseError):
            parse_ratfunc("1/(t - t)", QQ, ("t",))
        with pytest.raises(ParseError):
            parse_ratfunc("t^-2", QQ, ("t",))
        with pytest.raises(ParseError):
            parse_ratfunc("", QQ, ("t",))

    def test_nesting_bound(self):
        deep = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
        assert parse_ratfunc(deep, QQ, ("t",)) == parse_ratfunc("t", QQ, ("t",))
        # sequential groups do not add up: depth, not count, is bounded
        flat = "+".join(["(1)"] * (3 * MAX_NESTING))
        assert parse_ratfunc(flat, QQ) == parse_ratfunc(str(3 * MAX_NESTING), QQ)
        with pytest.raises(ParseError) as e:
            parse_ratfunc("-(" + deep + ")", QQ, ("t",))
        assert e.value.position == MAX_NESTING + 1
        assert f"MAX_NESTING = {MAX_NESTING}" in str(e.value)

    def test_round_trip_through_printer(self):
        for src in ["(t^2 - t - 1)/(1 - t)", "t^3/(t - 1)", "-t + 2", "2/3"]:
            r = parse_ratfunc(src, QQ, ("t",))
            again = parse_ratfunc(str(r), QQ, ("t",))
            assert again == r


class TestCycles:
    def test_basic(self):
        assert parse_cycles("id", 3) == (0, 1, 2)
        assert parse_cycles("()", 4) == (0, 1, 2, 3)
        assert parse_cycles("(12)", 3) == (1, 0, 2)
        assert parse_cycles("(123)", 3) == (1, 2, 0)
        assert parse_cycles("(132)", 3) == (2, 0, 1)
        assert parse_cycles("(12)(34)", 4) == (1, 0, 3, 2)
        assert parse_cycles("(1 2 3)", 3) == (1, 2, 0)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_cycles("(14)", 3)
        with pytest.raises(ParseError):
            parse_cycles("(11)", 3)
        with pytest.raises(ParseError):
            parse_cycles("(12", 3)
        with pytest.raises(ParseError):
            parse_cycles("12", 3)
