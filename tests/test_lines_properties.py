"""Property tests for the exact four-line design symmetry search."""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from symlab.families import is_perm_group  # noqa: E402
from symlab.lines import (  # noqa: E402
    INFINITE,
    Config4,
    Line,
    design_isometries,
    generic_symmetry,
)

small = st.integers(-3, 3)
offsets = st.integers(-5, 5)
normals = st.tuples(small, small).filter(lambda n: n != (0, 0))


@st.composite
def configs(draw):
    """Four lines with small integer coefficients, drawn freely or as a
    rectangle, a square or a concurrent pencil, so that large groups occur."""
    shape = draw(st.sampled_from(["free", "rectangle", "square", "pencil"]))
    if shape == "free":
        rows = [(*draw(normals), draw(offsets)) for _ in range(4)]
    elif shape == "pencil":
        x, y = draw(small), draw(small)
        rows = [(a, b, a * x + b * y) for a, b in (draw(normals) for _ in range(4))]
    else:
        a, b = draw(normals)
        c1, c2, c3 = draw(offsets), draw(offsets), draw(offsets)
        c4 = c3 + c2 - c1 if shape == "square" else draw(offsets)
        rows = [(a, b, c1), (a, b, c2), (-b, a, c3), (-b, a, c4)]
    return Config4([Line(*row) for row in draw(st.permutations(rows))])


def order(config):
    iso = design_isometries(config)
    return iso if iso == INFINITE else len(iso)


def compose(g, h):
    """g o h as a (matrix, translation) pair of floats."""
    m = tuple(
        tuple(sum(g.matrix[r][k] * h.matrix[k][c] for k in range(2)) for c in range(2))
        for r in range(2)
    )
    v = tuple(
        sum(g.matrix[r][k] * h.translation[k] for k in range(2)) + g.translation[r]
        for r in range(2)
    )
    return m, v


def close(pair, iso):
    (m, v), scale = pair, 1 + max(abs(x) for x in pair[1])
    return all(
        abs(m[r][c] - iso.matrix[r][c]) <= 1e-9 for r in range(2) for c in range(2)
    ) and all(abs(v[r] - iso.translation[r]) <= 1e-9 * scale for r in range(2))


@settings(max_examples=300, deadline=None)
@given(configs())
def test_identity_and_closure(config):
    iso = design_isometries(config)
    if iso == INFINITE:
        return
    identity = ((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)
    assert any(close(identity, g) for g in iso)
    for g, h in itertools.product(iso, repeat=2):
        assert any(close(compose(g, h), k) for k in iso)


@settings(max_examples=300, deadline=None)
@given(configs(), st.fractions(-5, 5, max_denominator=4), st.fractions(-5, 5, max_denominator=4))
def test_order_invariant_under_rigid_motion(config, dx, dy):
    # x -> R x + (dx, dy) with R the exact rotation by (3/5, 4/5) sends the
    # line n.x = c to (R n).y = c + (R n).(dx, dy)
    cos, sin = Fraction(3, 5), Fraction(4, 5)
    moved = []
    for l in config.lines:
        a, b = cos * l.a - sin * l.b, sin * l.a + cos * l.b
        moved.append(Line(a, b, l.c + a * dx + b * dy))
    assert order(Config4(moved)) == order(config)


@settings(max_examples=300, deadline=None)
@given(configs(), st.permutations(range(4)))
def test_order_invariant_under_relabeling(config, perm):
    assert order(Config4([config[perm[i]] for i in range(4)])) == order(config)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([(1, 0, 2), (0, 1, 0), (1, 0, 0), (0, 1, 4)], 4),  # rectangle
        ([(1, 0, 0), (1, 0, 2), (0, 1, 0), (0, 1, 2)], 8),  # square
        ([(1, 0, 1), (0, 1, 2), (1, 1, 3), (1, -1, -1)], 16),  # pencil at 45 degree steps
        ([(1, 0, 1), (1, 2, 5), (3, 1, 5), (2, -5, -8)], 2),  # pencil at generic slopes
    ],
)
def test_known_orders(rows, expected):
    assert order(Config4([Line(*row) for row in rows])) == expected


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def oracle_relation(l1, l2):
    """0 coincident, 1 parallel-distinct, 2 intersecting, read off the cross
    products of the coefficient triples and of the normals."""
    (a1, b1, c1), (a2, b2, c2) = (l1.a, l1.b, l1.c), (l2.a, l2.b, l2.c)
    if cross((a1, b1, c1), (a2, b2, c2)) == (0, 0, 0):
        return 0
    return 1 if cross((a1, b1, 0), (a2, b2, 0))[2] == 0 else 2


def oracle_stabilizer(config, key):
    """The permutations mapping the set of unordered pairs in each class of
    key(relation) onto itself, sorted."""
    classes = {}
    for pair in itertools.combinations(range(4), 2):
        rel = key(oracle_relation(*(config[k] for k in pair)))
        classes.setdefault(rel, set()).add(frozenset(pair))
    return sorted(
        p
        for p in itertools.permutations(range(4))
        if all({frozenset(p[k] for k in pair) for pair in pairs} == pairs for pairs in classes.values())
    )


@settings(max_examples=300, deadline=None)
@given(configs())
def test_pattern_groups_are_groups_matching_the_oracle(config):
    g = generic_symmetry(config)
    assert is_perm_group(set(g.group)) and is_perm_group(set(g.fine_group))
    assert list(g.group) == oracle_stabilizer(config, lambda r: r != 1)
    assert list(g.fine_group) == oracle_stabilizer(config, lambda r: r)
