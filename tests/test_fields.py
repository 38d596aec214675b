import math
import operator
import random
from fractions import Fraction

import pytest

from symlab.fields import (
    MAX_POWER_DIGITS,
    ExtensionField,
    FieldError,
    GF,
    PrimeField,
    QQ,
    RationalField,
    parse_field_spec,
    power,
    primitive_cube_root,
    rationals_with_cube_root,
)
from symlab.poly import FunctionField, MultiPoly, UniPoly
from symlab.quotient import MonogenicAlgebra
from symlab.structure import build_T


def sample_fields():
    return [QQ, GF(5), GF(7), GF(2, 2), GF(3, 2), GF(2, 3), GF(3, 3), rationals_with_cube_root()]


def random_element(field, rng):
    if field.size() is not None:
        elems = list(field.elements())
        return elems[rng.randrange(len(elems))]
    if isinstance(field, ExtensionField):
        g = field.generator()
        return field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) + g * rng.randint(-9, 9)
    return field.coerce(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))


def test_inversion_examples():
    assert GF(7).coerce(3).inverse() == GF(7).coerce(5)
    f4 = GF(2, 2)
    y = f4.generator()
    assert y.inverse() == y + 1
    assert QQ.coerce(Fraction(2, 3)).inverse() == QQ.coerce(Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inverse()


def test_field_axioms_randomized():
    rng = random.Random(20240)
    for field in sample_fields():
        for _ in range(1000):
            a, b, c = (random_element(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == field.one
            assert a + (-a) == field.zero


@pytest.mark.parametrize(
    "field", [QQ, GF(7), GF(2, 3), rationals_with_cube_root()], ids=["Q", "F7", "F8", "Qzeta3"]
)
def test_one_value_by_any_route_has_one_key(field):
    # raw values are canonical, so ==, hash and sort_key are Python's own on
    # them: every route to a value must end at the same raw value
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(-40, 40)
        x, y = random_element(field, rng), random_element(field, rng)
        pairs = [(field.coerce(n), field.coerce(Fraction(n))), (x + y - y, x), (-(-x), x)]
        if not y.is_zero():
            pairs.append((x * y * y.inverse(), x))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and a.sort_key() == b.sort_key()
            assert len({a, b}) == 1


def rational_leaves(field, value):
    """The raw values of Q inside the raw value `value` of `field`: itself
    over Q, its components over Q(zeta3), the coefficients of its
    numerator and denominator over a function field of Q; none over F_q."""
    if isinstance(field, FunctionField):
        terms = [*value.num.terms.values(), *value.den.terms.values()]
        return [q for c in terms for q in rational_leaves(field.base, c)]
    if isinstance(field, ExtensionField):
        return [q for c in value for q in rational_leaves(field.base, c)]
    return [value] if field == QQ else []


def assert_rational_raw(field, values):
    """Every raw value of Q inside the raw values `values` of `field` is an
    int if and only if it is integral, a Fraction otherwise, never a float
    or a bool."""
    for q in (q for v in values for q in rational_leaves(field, v)):
        want = Fraction if isinstance(q, Fraction) and q.denominator != 1 else int
        assert type(q) is want, repr(q)


def test_rational_raw_value_is_an_int_when_integral():
    qz = rationals_with_cube_root()
    ints = [
        QQ.coerce(True).value,
        QQ.coerce(Fraction(4, 2)).value,
        QQ._inv(1),
        QQ._inv(-1),
        QQ._inv(Fraction(1, 3)),
        QQ._mul(Fraction(1, 2), 2),
        QQ._add(Fraction(1, 2), Fraction(3, 2)),
        QQ._sub(Fraction(1, 2), Fraction(-1, 2)),
        QQ._canonical(Fraction(6, 3)),
    ]
    assert ints == [1, 2, 1, -1, 3, 1, 2, 1, 2]
    assert all(type(q) is int for q in ints)
    assert type(QQ._inv(3)) is Fraction and QQ._inv(3) == Fraction(1, 3)
    assert type(QQ.coerce(Fraction(1, 2)).value) is Fraction
    # (x + y*zeta3)^-1 over Q(zeta3): Fractions where the norm does not
    # divide, ints where it does, never a float
    for x, y in [(2, 1), (1, 0), (0, 1), (1, 1), (3, -5), (Fraction(1, 2), 1)]:
        a = qz.coerce(x) + qz.generator() * y
        inv = a.inverse()
        assert_rational_raw(qz, [a.value, inv.value, (a * inv).value])
        assert (a * inv).value == (1, 0)


def test_function_field_values_are_not_hashable():
    # a rational function has no canonical raw value, so neither it nor an
    # algebra element with such coordinates has a hash
    qt = FunctionField(QQ, ("t",))
    t = qt.symbol("t")
    for value in (t, MonogenicAlgebra.from_roots(qt, [qt.zero, t]).gen(), build_T(t).basis(1)):
        with pytest.raises(TypeError):
            hash(value)


def test_extension_arithmetic_matches_polynomials_mod_the_modulus():
    # reference: the same coefficient tuples as UniPoly over the prime field
    for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        field = GF(p, k)
        base = field.base
        modulus = UniPoly(base, list(field.modulus))
        elems = list(field.elements())
        if field.size() <= 27:
            for a in elems:
                pa = UniPoly(base, [base.coerce(c) for c in a.value])
                for b in elems:
                    pb = UniPoly(base, [base.coerce(c) for c in b.value])
                    ref = (pa * pb) % modulus
                    assert (a * b).value == tuple(ref.coeff(i).value for i in range(k))
        for a in elems[1:]:
            assert a * a.inverse() == field.one


def test_frobenius_in_characteristic_p():
    rng = random.Random(7)
    for field in [GF(5), GF(7), GF(2, 2), GF(3, 2), GF(2, 3)]:
        p = field.characteristic()
        for _ in range(200):
            a, b = random_element(field, rng), random_element(field, rng)
            assert (a + b) ** p == a**p + b**p


def test_characteristic():
    assert QQ.characteristic() == 0
    assert rationals_with_cube_root().characteristic() == 0
    assert GF(2, 2).characteristic() == 2
    assert GF(7).characteristic() == 7


def test_primitive_cube_root_examples():
    assert primitive_cube_root(GF(7)) == GF(7).coerce(2)  # 2^3 = 8 = 1 mod 7
    assert primitive_cube_root(GF(5)) is None  # multiplicative group has order 4
    f4 = GF(2, 2)
    assert primitive_cube_root(f4) == f4.generator()
    assert primitive_cube_root(QQ) is None
    qz = rationals_with_cube_root()
    z = primitive_cube_root(qz)
    assert z == qz.generator() and z**3 == qz.one and z != qz.one


def test_cube_root_absent_iff_no_order_3_element():
    # exhaustive cross-check on every F_p, F(p,2) and F(p,3) up to size
    # 5000: the root found by exponentiation is the first one in canonical
    # element order
    primes = [p for p in range(2, 5001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    fields = [GF(p, k) for k in (1, 2, 3) for p in primes if p**k <= 5000]
    assert len(fields) == 695
    for field in fields:
        one = field.one
        first = next((x for x in field.elements() if x != one and x * x * x == one), None)
        assert primitive_cube_root(field) == first


def test_extension_construction_rejects_bad_moduli():
    with pytest.raises(FieldError):
        ExtensionField(PrimeField(2), [1, 0, 1])  # (Y+1)^2 over F2
    with pytest.raises(FieldError):
        ExtensionField(QQ, [-1, 0, 1])  # Y^2 - 1 over Q
    with pytest.raises(FieldError):
        ExtensionField(QQ, [1, 0, 0, 1])  # only Y^2+Y+1 is supported over Q
    with pytest.raises(FieldError):
        ExtensionField(PrimeField(2), [1, 1])  # degree 1
    with pytest.raises(FieldError):
        ExtensionField(PrimeField(2), [1, 1, 0, 0, 1])  # degree 4 unsupported
    with pytest.raises(FieldError):
        ExtensionField(QQ, [1, 1, 2])  # not monic
    with pytest.raises(FieldError, match="prime field or Q"):
        ExtensionField(GF(2, 2), [1, 1, 0, 1])  # no towers: products need a native base
    with pytest.raises(FieldError):
        PrimeField(6)


def test_prime_field_fraction_coercion():
    f7 = GF(7)
    assert f7.coerce(Fraction(1, 3)) == f7.coerce(5)
    with pytest.raises(FieldError):
        f7.coerce(Fraction(1, 7))


def test_mixed_field_arithmetic_raises():
    with pytest.raises(FieldError):
        GF(5).one + GF(7).one


def test_a_base_element_is_foreign_to_its_extension_in_either_order():
    # coerce lifts a base element, but arithmetic refuses it both ways
    for ext in (GF(7, 2), rationals_with_cube_root()):
        x, y = ext.base.coerce(2), ext.generator()
        for op in (operator.add, operator.mul):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(FieldError, match="mixed fields"):
                    op(a, b)
        assert ext.coerce(x) == ext.coerce(2)


def test_descriptor_equality_and_sharing():
    assert GF(7) == GF(7)
    assert GF(2, 2) == GF(2, 2)
    assert GF(5) != GF(7)
    # elements of independently built descriptors interoperate
    assert GF(7).coerce(3) + GF(7).coerce(5) == GF(7).coerce(1)
    # a descriptor is its key: equal copies compare equal and hash alike
    copies = [
        RationalField,
        lambda: GF(7),
        lambda: GF(3, 2),
        rationals_with_cube_root,
        lambda: FunctionField(QQ, ("t",)),
        lambda: FunctionField(GF(7), ("a", "t")),
    ]
    for make in copies:
        a, b = make(), make()
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    kinds = [
        QQ,
        GF(7),
        GF(7, 2),
        FunctionField(GF(7), ("t",)),
        FunctionField(QQ, ("t",)),
        FunctionField(QQ, ("a", "t")),
        FunctionField(QQ, ("t", "a")),
    ]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) is (i == j) and (a != b) is (i != j)
    for field in kinds:
        assert (field == 0) is False and field != 0


COERCION_CASES = {
    "Q": QQ,
    "F7": GF(7),
    "F49": GF(7, 2),
    "Qzeta3": rationals_with_cube_root(),
    "Q(t)": FunctionField(QQ, ("t",)),
    "F7(a,t)": FunctionField(GF(7), ("a", "t")),
}


@pytest.mark.parametrize("field", COERCION_CASES.values(), ids=COERCION_CASES.keys())
def test_coerce_by_kind_of_value(field):
    x = field.one + field.one
    assert field.coerce(x) is x
    base = getattr(field, "base", None)
    if base is not None:
        # a base element lifts to the constant of the same value, and an
        # element of the field is foreign to its base
        assert field.coerce(base.coerce(3)) == field.coerce(3) != field.zero
        with pytest.raises(FieldError, match="mixed fields"):
            base.coerce(x)
    foreign = GF(11) if field.characteristic() != 11 else GF(13)
    for other in (foreign, FunctionField(foreign, ("t",))):
        with pytest.raises(FieldError, match="mixed fields"):
            field.coerce(other.one)
    assert field.coerce(-4) == -field.coerce(4) and field.coerce(0) == field.zero
    assert field.coerce(Fraction(2, 3)) * field.coerce(3) == field.coerce(2)
    assert field.coerce(Fraction(6, 3)) == field.coerce(2)
    if field.characteristic() == 7:
        with pytest.raises(FieldError):
            field.coerce(Fraction(1, 7))
    else:
        assert field.coerce(Fraction(1, 7)) * 7 == field.one
    for bad in ("3", 3.0):
        with pytest.raises(TypeError, match="cannot coerce"):
            field.coerce(bad)


def test_parse_field_spec():
    assert parse_field_spec("Q") == QQ
    assert parse_field_spec("Fp(7)") == GF(7)
    assert parse_field_spec("F(2,2)") == GF(2, 2)
    assert parse_field_spec("Qzeta3") == rationals_with_cube_root()
    with pytest.raises(FieldError):
        parse_field_spec("R")
    with pytest.raises(FieldError):
        parse_field_spec("Fp(6)")


def test_finite_field_sizes_and_element_counts():
    for field, size in [(GF(5), 5), (GF(2, 2), 4), (GF(3, 2), 9), (GF(2, 3), 8)]:
        assert field.size() == size
        elems = list(field.elements())
        assert len(elems) == size
        assert len({e.sort_key() for e in elems}) == size


def test_power_behind_every_pow():
    # one square-and-multiply loop serves field elements, both polynomial
    # kinds and quotient-algebra elements; the oracle multiplies n times
    f7 = GF(7)
    ab = ("a", "b")
    alg = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
    cases = [
        (f7.coerce(3), f7.one),
        (QQ.coerce(Fraction(-2, 3)), QQ.one),
        (UniPoly(f7, [3, 1]), UniPoly.constant(f7, 1)),
        (MultiPoly(QQ, ab, {(1, 0): 2, (0, 1): -1}), MultiPoly.constant(QQ, ab, 1)),
        (alg.element([1, 2, Fraction(1, 2)]), alg.one()),
    ]
    for base, one in cases:
        expected = one
        for n in range(38):
            if n in (0, 1, 37):
                assert base**n == expected
                assert power(base, n, one) == expected
            expected = expected * base
    # a negative exponent inverts a field element and is refused elsewhere
    assert f7.coerce(3) ** -2 == (f7.coerce(3) * f7.coerce(3)).inverse()
    assert QQ.coerce(Fraction(-2, 3)) ** -3 == QQ.coerce(Fraction(-27, 8))
    for base, _ in cases[2:]:
        with pytest.raises(ValueError):
            base**-1


def test_printing_refuses_more_digits_than_the_bound():
    big = 10**MAX_POWER_DIGITS  # MAX_POWER_DIGITS + 1 digits
    zeta = rationals_with_cube_root()
    assert str(QQ.coerce(big - 1)) == "9" * MAX_POWER_DIGITS
    assert str(QQ.coerce(Fraction(-1, big - 1))) == "-1/" + "9" * MAX_POWER_DIGITS
    for x in (QQ.coerce(big), QQ.coerce(Fraction(1, big)), QQ.coerce(-big), zeta.coerce(big)):
        with pytest.raises(ValueError, match=f"MAX_POWER_DIGITS = {MAX_POWER_DIGITS}"):
            str(x)
