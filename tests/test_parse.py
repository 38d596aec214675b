import random
import re
from fractions import Fraction

import pytest

from symlab import cli
from symlab.fields import GF, QQ, rationals_with_cube_root
from symlab.parse import (
    MAX_DEGREE,
    MAX_NESTING,
    MAX_POWER_DIGITS,
    ParseError,
    parse_cycles,
    parse_factored,
    parse_ratfunc,
    parse_ratfunc_list,
)
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

    @pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 3), (5, 2)])
    def test_every_extension_element_reads_back(self, p, k):
        field = GF(p, k)
        for e in field.elements():
            assert parse_ratfunc(str(e), field) == RationalFunction.constant(field, (), e)

    def test_generator_name_yields_to_a_symbol(self):
        f9 = GF(3, 2)
        assert parse_ratfunc("Y", f9).as_constant() == f9.generator()
        assert parse_ratfunc("Y", f9, ("Y",)) == RationalFunction.symbol(f9, ("Y",), "Y")
        with pytest.raises(ParseError, match="unknown symbol 'Y'"):
            parse_ratfunc("Y", GF(5))

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


def split_top_level(text):
    """Oracle: the comma splitter the command line used before lists had a
    production of their own; commas nested inside parentheses stay."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def scan_factored(text, field, symbols):
    """Oracle: the factored-form scanner the command line used before the
    factored form had a production of its own (after the "factored:" prefix)."""
    i = 0
    factors = []
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise ValueError(f"expected '(' at position {i} of the factored form")
        depth = 1
        j = i + 1
        while j < len(text) and depth:
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
            j += 1
        if depth:
            raise ValueError("unbalanced parentheses in the factored form")
        body = text[i + 1 : j - 1].strip()
        i = j
        mult = 1
        if i < len(text) and text[i] == "^":
            i += 1
            k = i
            while i < len(text) and text[i].isdigit():
                i += 1
            if k == i:
                raise ValueError("expected an exponent after '^'")
            mult = int(text[k:i])
        if not body.startswith("X"):
            raise ValueError(f"factor ({body}) must have the form (X - root)")
        tail = body[1:].strip()
        if not tail:
            root = RationalFunction.constant(field, symbols, 0)
        elif tail[0] == "-":
            root = -parse_ratfunc(tail, field, symbols)
        elif tail[0] == "+":
            root = -parse_ratfunc(tail[1:], field, symbols)
        else:
            raise ValueError(f"factor ({body}) must have the form (X - root)")
        factors.append((root, mult))
    if not factors:
        raise ValueError("the factored form lists no factors")
    return factors


def outcome(parse, *args):
    """Printed values, or the error's type and message (with its position)."""
    try:
        return [str(r) for r in parse(*args)]
    except (ValueError, ZeroDivisionError) as e:
        return type(e).__name__, str(e)


def split_then_parse(text, field, symbols):
    return [parse_ratfunc(p, field, symbols) for p in split_top_level(text)]


def random_expr(rng, depth=0):
    """A well-formed expression in t with random blanks, exponents below 10."""
    blank = lambda: rng.choice(["", "", " ", "\t", "  "])
    r = rng.random()
    if depth > 1 or r < 0.4:
        atom = rng.choice(["t", str(rng.randrange(10)), str(rng.randrange(1, 200))])
    elif r < 0.6:
        atom = "(" + blank() + random_expr(rng, depth + 1) + blank() + ")"
    else:
        op = rng.choice("+-*/")
        atom = random_expr(rng, depth + 1) + blank() + op + blank() + random_expr(rng, depth + 1)
    if rng.random() < 0.1:
        atom = "(" + atom + ")^" + str(rng.randrange(10))
    return blank() + ("-" if rng.random() < 0.1 else "") + atom + blank()


def random_list_text(rng):
    if rng.random() < 0.3:
        # well-formed lists, half of them with one character mutated
        text = ",".join(random_expr(rng) for _ in range(rng.randrange(1, 4)))
        if rng.random() < 0.5:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice("0123456789tx+-*/^(), \t") + text[k + rng.randrange(2):]
    else:
        text = "".join(rng.choice("0123456789tx+-*/^(),  \t") for _ in range(rng.randrange(12)))
    # every exponent below 10
    return re.sub(r"\^(\s*\d)\d+", r"^\1", text)


class TestLists:
    def test_values_and_entries(self):
        got = parse_ratfunc_list(" 0 , t, 1/(t+1) ,(2)", QQ, ("t",))
        assert [str(r) for r in got] == ["0", "t", "1/(t + 1)", "2"]
        assert [str(r) for r in parse_ratfunc_list("-2", QQ)] == ["-2"]

    @pytest.mark.parametrize(
        "text,position",
        [("3* ", 2), (" -6+ ", 3), ("9^ ,(7693,", 2), ("7/(( ,", 5), ("(7 ,36", 3),
         ("", 0), ("1,,2", 0), ("1, 2 ,", 0), ("1,(2", 2), ("1, 2 3", 2), ("1),2", 1)],
    )
    def test_errors_count_from_the_entry(self, text, position):
        with pytest.raises(ParseError) as e:
            parse_ratfunc_list(text, QQ, ("t",))
        assert e.value.position == position
        assert outcome(parse_ratfunc_list, text, QQ, ("t",)) == outcome(
            split_then_parse, text, QQ, ("t",)
        )

    def test_agrees_with_split_then_parse(self):
        # values, or message and position, as the split-and-strip oracle
        rng = random.Random(20261018)
        valid = 0
        for _ in range(20000):
            text = random_list_text(rng)
            symbols = ("t",) if rng.random() < 0.8 else ("t", "x")
            got = outcome(parse_ratfunc_list, text, QQ, symbols)
            assert got == outcome(split_then_parse, text, QQ, symbols), text
            valid += isinstance(got, list)
        assert valid > 2000


class TestFactored:
    def test_roots_and_multiplicities(self):
        got = parse_factored("(X)(X - 1)^2 ( X+t ) ^ 3", QQ, ("t",))
        assert [(str(r), m) for r, m in got] == [("0", 1), ("1", 2), ("-t", 3)]

    @pytest.mark.parametrize(
        "text,message",
        [("", "expected '(' (at position 0)"), ("(Y-1)", "expected 'X' (at position 1)"),
         ("(X-1", "expected ')' (at position 4)"), ("(X-1)^", "expected an unsigned integer"),
         ("(X1)", "expected ')' (at position 2)"), ("(X)x", "expected '(' (at position 3)")],
    )
    def test_errors(self, text, message):
        with pytest.raises(ParseError) as e:
            parse_factored(text, QQ, ())
        assert message in str(e.value)

    def test_agrees_with_the_former_scanner(self):
        rng = random.Random(20261019)
        for _ in range(1000):
            factors = []
            for _ in range(rng.randrange(1, 5)):
                tail = rng.choice(["", "-", "+", " - ", " + "])
                body = "X" + (tail + random_expr(rng) if tail else rng.choice(["", " "]))
                exp = rng.choice(["", "", "^" + str(rng.randrange(10))])
                factors.append(rng.choice(["", " "]) + "(" + rng.choice(["", " "]) + body + ")" + exp)
            text = "".join(factors)
            try:
                want = [(str(r), m) for r, m in scan_factored(text, QQ, ("t",))]
            except ValueError:
                # as "X--1": refused by both, with messages of their own
                with pytest.raises(ValueError):
                    parse_factored(text, QQ, ("t",))
                continue
            assert [(str(r), m) for r, m in parse_factored(text, QQ, ("t",))] == want, text


class TestDegreeBound:
    @pytest.mark.parametrize(
        "text",
        [f"t^{MAX_DEGREE + 1}", "t^100000000", "t^60*t^41", "t^60/(1/(t+1)^50)",
         "1/(t-1)^60 + 1/(t-2)^60", f"(t^2)^{MAX_DEGREE // 2 + 1}"],
    )
    def test_past_the_bound(self, text):
        with pytest.raises(ParseError) as e:
            parse_ratfunc(text, QQ, ("t",))
        assert f"MAX_DEGREE = {MAX_DEGREE}" in str(e.value)
        with pytest.raises(ParseError) as e:
            parse_ratfunc(text.replace("t", "a"), QQ, ("t", "a"))
        assert f"MAX_DEGREE = {MAX_DEGREE}" in str(e.value)

    def test_at_the_bound(self):
        assert str(parse_ratfunc(f"t^{MAX_DEGREE}", QQ, ("t",))) == f"t^{MAX_DEGREE}"
        got = parse_ratfunc("t^50*(t+1)^50/t^100", QQ, ("t",))
        assert got == parse_ratfunc("(t+1)^50/t^50", QQ, ("t",))
        # constant powers are not measured by the degree
        assert parse_ratfunc("2^1000", QQ).as_constant() == QQ.coerce(2**1000)
        assert parse_ratfunc("t^0", QQ, ("t",)) == parse_ratfunc("1", QQ, ("t",))

    def test_factored_multiplicities_add_up(self):
        ok = parse_factored(f"(X)^60(X-1)^{MAX_DEGREE - 60}", QQ, ())
        assert [m for _, m in ok] == [60, MAX_DEGREE - 60]
        with pytest.raises(ParseError) as e:
            parse_factored(f"(X)^60(X-1)^{MAX_DEGREE - 59}", QQ, ())
        assert f"MAX_DEGREE = {MAX_DEGREE}" in str(e.value)
        with pytest.raises(ParseError):
            parse_factored("(X)" * (MAX_DEGREE + 1), QQ, ())


class TestPowerBound:
    @pytest.mark.parametrize(
        "text,field",
        [("2^14000", QQ), ("(1/2)^14000", QQ), ("(-3/2)^9000", QQ), ("9^100000000", QQ),
         ("(2^1000*t + 1)^100", QQ), ("(2 + zeta3)^9000", rationals_with_cube_root())],
    )
    def test_past_the_bound(self, text, field):
        with pytest.raises(ParseError) as e:
            parse_ratfunc(text, field, ("t",))
        assert f"MAX_POWER_DIGITS = {MAX_POWER_DIGITS}" in str(e.value)

    def test_within_the_bound(self):
        big = parse_ratfunc("2^13000", QQ).as_constant()
        assert big == QQ.coerce(2**13000) and len(str(big)) < MAX_POWER_DIGITS
        assert parse_ratfunc("(1/2)^13000", QQ).as_constant() == QQ.coerce(Fraction(1, 2**13000))
        assert parse_ratfunc("(-1)^100000001", QQ).as_constant() == QQ.coerce(-1)
        # powers do not grow over a finite field, nor the unit zeta3 over Q(zeta3)
        assert parse_ratfunc("3^100000000", GF(7)).as_constant() == GF(7).coerce(pow(3, 100000000, 7))
        qz = rationals_with_cube_root()
        assert parse_ratfunc("zeta3^100000000", qz).as_constant() == qz.generator()


class TestLiteralBound:
    NINES = "9" * 4400  # past the 4300 digits Python converts by default

    def test_at_the_bound(self):
        ok = "9" * MAX_POWER_DIGITS
        assert parse_ratfunc(ok, QQ).as_constant() == QQ.coerce(int(ok))
        with pytest.raises(ParseError) as e:
            parse_ratfunc("t + 1" + ok + "9", QQ, ("t",))
        assert e.value.position == 4
        assert f"MAX_POWER_DIGITS = {MAX_POWER_DIGITS}" in str(e.value)

    @pytest.mark.parametrize(
        "argv,position",
        [
            (["family", "--roots", f"0,t,{NINES}"], 0),
            (["aut", "--poly", f"factored:(X)^{NINES}"], 4),
        ],
    )
    def test_cli_inputs_name_the_bound(self, argv, position):
        # each ended in Python's own "Exceeds the limit (4300 digits)" message
        code, text = cli.run(argv)
        assert code == 1
        assert text == (
            f"error: integer of more than MAX_POWER_DIGITS = {MAX_POWER_DIGITS} digits "
            f"(at position {position})\n"
        )


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
