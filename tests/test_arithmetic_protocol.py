"""The operator protocol shared by every exact value type (fields.Arithmetic).

Each case is one value type with two distinct values x and y over Q or F_7,
`lift` taking a scalar into the type, and a value of another field or
context.  The checks compare the reflected and scalar forms of +, -, * and /
with the same operation on two values of the type, so a reflected operator
with its operands swapped, or a subtraction that adds, gives a different
value.  A structural guard keeps the protocol written once.
"""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import symlab
from symlab.fields import GF, QQ, Arithmetic, FieldError
from symlab.poly import MultiPoly, RationalFunction, UniPoly
from symlab.quotient import MonogenicAlgebra
from symlab.structure import build_T

SRC = Path(__file__).resolve().parent.parent / "src" / "symlab"
PROTOCOL = {"__add__", "__radd__", "__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__ne__"}
F7 = GF(7)


def _field_element(field):
    return dict(x=field.coerce(3), y=field.coerce(Fraction(5, 2)), lift=field.coerce,
                base=field, other=GF(5).one, mixed=FieldError, divides=True)


def _unipoly():
    def lift(c):
        return UniPoly.constant(QQ, c)
    return dict(x=UniPoly(QQ, [1, 2]), y=UniPoly(QQ, [-3, 0, 1]), lift=lift, base=QQ,
                other=UniPoly(F7, [0, 1]), mixed=FieldError, divides=False)


def _multipoly():
    s = ("a", "t")
    a, t = (MultiPoly.symbol(QQ, s, n) for n in s)

    def lift(c):
        return MultiPoly.constant(QQ, s, c)
    return dict(x=a * t + 2, y=t * t - a, lift=lift, base=QQ,
                other=MultiPoly.symbol(QQ, ("t",), "t"), mixed=ValueError, divides=False)


def _ratfunc():
    t = RationalFunction.symbol(QQ, ("t",), "t")

    def lift(c):
        return RationalFunction.constant(QQ, ("t",), c)
    return dict(x=(t + 1) / (t - 2), y=t / (t * t + 1), lift=lift, base=QQ,
                other=RationalFunction.symbol(QQ, ("s",), "s"), mixed=ValueError, divides=True)


def _algebra_element():
    alg = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
    return dict(x=alg.element([1, 2, 3]), y=alg.element([0, -1, 5]), lift=lambda c: alg.one() * c,
                base=QQ, other=MonogenicAlgebra.from_roots(QQ, [0, 1, 3]).gen(),
                mixed=ValueError, divides=False)


def _struct_element():
    alg = build_T(F7.coerce(2))
    return dict(x=alg.element([1, 2, 3]), y=alg.element([4, 0, 6]), lift=lambda c: alg.one() * c,
                base=F7, other=build_T(F7.coerce(3)).basis(1), mixed=ValueError, divides=False)


CASES = {
    "FieldElement-Q": lambda: _field_element(QQ),
    "FieldElement-F7": lambda: _field_element(F7),
    "UniPoly": _unipoly,
    "MultiPoly": _multipoly,
    "RationalFunction": _ratfunc,
    "AlgebraElement": _algebra_element,
    "StructElement": _struct_element,
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def _scalars(case):
    return [2, Fraction(-1, 3), case["base"].coerce(4)]


def test_the_two_values_differ(case):
    x, y = case["x"], case["y"]
    assert x - y != case["lift"](0)
    assert isinstance(x, Arithmetic) and type(x) is type(y)


def test_scalars_on_either_side(case):
    x, lift = case["x"], case["lift"]
    for c in _scalars(case):
        k = lift(c)
        assert x + c == c + x == x + k == k + x
        assert x - c == x - k and c - x == k - x
        assert c - x == -(x - c)
        assert x * c == c * x == x * k == k * x
        if case["divides"]:
            assert x / c == x / k == x * k.inverse()
            assert c / x == k / x == k * x.inverse()
            assert (c / x) * (x / c) == lift(1)


def test_subtraction_and_inequality(case):
    x, y, lift = case["x"], case["y"], case["lift"]
    assert x - y == -(y - x)
    assert (x - y) + y == x and x - x == lift(0)
    if case["divides"]:
        assert (x / y) * y == x and x / x == lift(1)
    for a, b in [(x, x), (x, y), (y, x), (x, lift(2)), (x, 2), (lift(2), 2)]:
        assert (a != b) is (not a == b)
    assert x != y and not x == y and x == x + 0


def test_foreign_operand_raises_type_error(case):
    x = case["x"]
    for op in ("+", "-", "*", "/"):
        for expr in (f"x {op} other", f"other {op} x"):
            with pytest.raises(TypeError):
                eval(expr, {"x": x, "other": object()})
    assert not x == object() and x != object()


def test_division_only_where_there_is_an_inverse(case):
    if case["divides"]:
        return
    x, y = case["x"], case["y"]
    for a, b in [(x, y), (x, 2), (2, x), (x, case["base"].one), (case["base"].one, x)]:
        with pytest.raises(TypeError):
            a / b


def test_mixed_fields_or_contexts(case):
    x, other = case["x"], case["other"]
    ops = ["+", "-", "*"] + (["/"] if case["divides"] else [])
    if not isinstance(x, UniPoly):  # polynomials over two fields are unequal
        ops.append("==")
    for op in ops:
        for expr in (f"x {op} other", f"other {op} x"):
            with pytest.raises(ValueError) as e:
                eval(expr, {"x": x, "other": other})
            assert type(e.value) is case["mixed"], expr


def test_unipolys_over_two_fields_are_unequal():
    assert UniPoly(QQ, [0, 1]) != UniPoly(F7, [0, 1])
    assert not UniPoly(QQ, [1]) == UniPoly(F7, [1])


def _defined_names(node):
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


def test_only_the_base_defines_the_protocol():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name != "Arithmetic":
                found += [f"{path.name}:{node.name}.{n}" for n in _defined_names(node) if n in PROTOCOL]
    assert not found, found


def test_value_types_keep_no_repr_of_their_own():
    types = {cls for _, mod in inspect.getmembers(symlab, inspect.ismodule)
             for _, cls in inspect.getmembers(mod, inspect.isclass) if issubclass(cls, Arithmetic)}
    assert len(types) == 8  # the base, five value types and two kinds of coordinate vector
    assert not [cls.__name__ for cls in types if cls is not Arithmetic and "__repr__" in vars(cls)]
