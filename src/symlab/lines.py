"""Four-line configurations in the plane.

Two views of the same configuration: as an intersection system, whose
symmetries are the permutations of the four lines preserving the
"intersecting or coincident" relation; and as a Euclidean figure, whose
symmetries are the isometries mapping the line set to itself.  Both are
decided exactly from the lines' rational coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import clear_denominators

INTERSECTING = "intersecting"
PARALLEL = "parallel-distinct"
COINCIDENT = "coincident"


class Line:
    """a*x + b*y = c with exact rational coefficients, normalized so the
    first nonzero of (a, b) is 1."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("(a, b) must not be (0, 0)")
        scale = a if a != 0 else b
        self.a = a / scale
        self.b = b / scale
        self.c = c / scale

    def triple(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        if type(other) is not Line:
            return NotImplemented
        return self.triple() == other.triple()

    def __hash__(self):
        return hash(self.triple())

    def __repr__(self):
        return f"{self.a}*x + {self.b}*y = {self.c}"


class Config4:
    """Exactly four indexed lines; coincident lines are allowed."""

    def __init__(self, lines):
        lines = list(lines)
        if len(lines) != 4:
            raise ValueError("a configuration has exactly 4 lines")
        self.lines = tuple(lines)

    def __getitem__(self, i):
        return self.lines[i]

    def relabel(self, perm):
        return Config4([self.lines[perm[i]] for i in range(4)])

    def __repr__(self):
        return "Config4(" + "; ".join(repr(l) for l in self.lines) + ")"


def pair_relation(l1: Line, l2: Line) -> str:
    """Exact relation of two lines from their rational coefficients.

    Normalization makes proportional coefficient triples structurally
    equal, so the three cases reduce to direct comparisons.
    """
    if l1.triple() == l2.triple():
        return COINCIDENT
    if l1.a == l2.a and l1.b == l2.b:
        return PARALLEL
    return INTERSECTING


@dataclass(frozen=True)
class GenericSymmetry:
    """Permutation symmetries of the intersection pattern.

    `group` stabilizes the binary relation "intersecting or coincident";
    `fine_group` additionally distinguishes parallel-distinct from
    coincident pairs.
    """

    group: tuple
    fine_group: tuple

    @property
    def order(self):
        return len(self.group)


def _stabilizer(table) -> tuple:
    """The permutations p with table[p[i]][p[j]] == table[i][j] for all i < j,
    in lexicographic order: the stabilizer of a relation, a group."""
    pairs = tuple(itertools.combinations(range(4), 2))
    perms = itertools.permutations(range(4))
    return tuple(p for p in perms if all(table[p[i]][p[j]] == table[i][j] for i, j in pairs))


def generic_symmetry(config: Config4) -> GenericSymmetry:
    """All permutations preserving the pairwise intersection pattern."""
    rel = [[pair_relation(l1, l2) for l2 in config.lines] for l1 in config.lines]
    meets = [[r != PARALLEL for r in row] for row in rel]
    return GenericSymmetry(group=_stabilizer(meets), fine_group=_stabilizer(rel))


@dataclass(frozen=True)
class Isometry:
    """x -> O x + v with O = linear / sqrt(norm) orthogonal, `linear` an
    integer matrix; it maps the rational point `point` to the rational
    point `image`.  kind is 'rotation' or 'reflection'."""

    kind: str
    linear: tuple  # ((m11, m12), (m21, m22)), integers
    norm: int
    point: tuple
    image: tuple

    @property
    def matrix(self):
        """O, rounded to floats."""
        return tuple(tuple(_over_root(m, self.norm) for m in row) for row in self.linear)

    @property
    def translation(self):
        """v = image - O point, rounded to floats."""
        x, y = self.point
        return tuple(
            float(self.image[r]) - _over_root(m1 * x + m2 * y, self.norm)
            for r, (m1, m2) in enumerate(self.linear)
        )


INFINITE = "infinite"


def _over_root(x, n: int) -> float:
    """x / sqrt(n) rounded to a float, exact before rounding when n is a
    square."""
    r = math.isqrt(n)
    if r * r == n:
        return float(Fraction(x) / r)
    y = math.sqrt(Fraction(x) ** 2 / n)
    return -y if x < 0 else y


def _meet(l1, l2):
    """The meet of two non-parallel integer lines as (X, Y, Z), Z > 0."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    s = 1 if a1 * b2 > a2 * b1 else -1
    return s * (c1 * b2 - c2 * b1), s * (a1 * c2 - a2 * c1), s * (a1 * b2 - a2 * b1)


def _offsets(lines, p):
    """Z * (c - n.P) for each line n.x = c and P = (X/Z, Y/Z)."""
    x, y, z = p
    return [c * z - a * x - b * y for a, b, c in lines]


def _listing_key(kind, m):
    """Rotations by angle mod pi, each before its half-turn composite, then
    reflections by axis angle: (m11, m21) points along the rotation angle,
    or along twice the axis angle of a reflection."""
    c, s = m[0][0], m[1][0]
    lower = s < 0 or (s == 0 and c < 0)  # angle in [pi, 2 pi)
    if lower:
        c, s = -c, -s
    within = (s != 0, Fraction(-c, s) if s else 0)  # grows with the angle
    return (0, within, lower) if kind == "rotation" else (1, lower, within)


def design_isometries(config: Config4):
    """All Euclidean isometries mapping the line set to itself, or the
    INFINITE flag when every pair of lines is parallel (a whole translation
    subgroup preserves the configuration).  Exact, on integers.

    Each distinct line is cleared to an integer triple (a, b, c) with
    normal n = (a, b).  Let P be the meet of line 0 with the first line i
    not parallel to it.  An isometry maps line 0 to some line j, so its
    linear part is the rotation or the reflection taking n_0 to +-n_j,
    which is M / sqrt(|n_0|^2 |n_j|^2) for an integer matrix M; it maps
    line i to a line m parallel to M n_i, and so P to the meet P' of lines
    j and m.  Line k then maps onto line l exactly when M n_k is parallel
    to n_l, e_k^2 |n_l|^2 = f_l^2 |n_k|^2 and e_k, f_l have the same sign
    up to that of M n_k . n_l, where e_k = c_k - n_k.P and f_l = c_l -
    n_l.P'.  Every isometry arises from exactly one (j, M, m).
    """
    lines = []  # set semantics: coincident lines count once
    for l in config.lines:
        abc = tuple(clear_denominators(l.triple()))
        if abc not in lines:
            lines.append(abc)
    a0, b0, _ = lines[0]
    i = next((k for k, (a, b, _) in enumerate(lines) if a0 * b != b0 * a), None)
    if i is None:
        return INFINITE
    sq = [a * a + b * b for a, b, _ in lines]
    p = _meet(lines[0], lines[i])
    e = _offsets(lines, p)
    point = (Fraction(p[0], p[2]), Fraction(p[1], p[2]))
    found = []
    for j, (aj, bj, _) in enumerate(lines):
        d, x = a0 * aj + b0 * bj, a0 * bj - b0 * aj
        u, w = a0 * aj - b0 * bj, a0 * bj + b0 * aj
        for kind, m in (
            ("rotation", ((d, -x), (x, d))),
            ("rotation", ((-d, x), (-x, -d))),
            ("reflection", ((u, w), (w, -u))),
            ("reflection", ((-u, -w), (-w, u))),
        ):
            (m11, m12), (m21, m22) = m
            normals = [(m11 * a + m12 * b, m21 * a + m22 * b) for a, b, _ in lines]
            targets = [
                [l for l, (a, b, _) in enumerate(lines) if na * b == nb * a]
                for na, nb in normals
            ]
            if not all(targets):
                continue
            for t in targets[i]:
                q = _meet(lines[j], lines[t])
                f = _offsets(lines, q)
                zz, zq = p[2] * p[2], q[2] * q[2]
                if all(
                    any(
                        e[k] ** 2 * zq * sq[l] == f[l] ** 2 * zz * sq[k]
                        and e[k] * f[l] * (na * lines[l][0] + nb * lines[l][1]) >= 0
                        for l in targets[k]
                    )
                    for k, (na, nb) in enumerate(normals)
                ):
                    image = (Fraction(q[0], q[2]), Fraction(q[1], q[2]))
                    iso = Isometry(kind, m, sq[0] * sq[j], point, image)
                    found.append(((_listing_key(kind, m), j, t), iso))
    found.sort(key=lambda entry: entry[0])
    return [iso for _, iso in found]


def pivot_family(t: Fraction) -> Config4:
    """The built-in one-parameter configuration ("paper" in the CLI): line 2
    is the X axis and line 3 the Y axis for all t; line 1 pivots clockwise
    about (2, 4) reaching vertical at t = 1; line 4 pivots clockwise about
    (0, 4) reaching horizontal at t = 1.  Off-axis slopes are rationalized
    to denominators up to 10^12; both analyses are exact on those
    rationals.
    """
    t = Fraction(t)
    if not Fraction(1, 2) <= t <= 1:
        raise ValueError("t must lie in [1/2, 1]")
    s = math.tan((1 - float(t)) * math.pi / 4)
    s = Fraction(s).limit_denominator(10**12)
    # line 1 through (2, 4): x + s*y = 2 + 4 s  (vertical when s = 0)
    line1 = Line(1, s, 2 + 4 * s)
    line2 = Line(0, 1, 0)
    line3 = Line(1, 0, 0)
    # line 4 through (0, 4): -s*x + y = 4  (horizontal when s = 0)
    line4 = Line(-s, 1, 4)
    return Config4([line1, line2, line3, line4])


@dataclass(frozen=True)
class SweepRow:
    t: Fraction
    generic_order: int
    design_order: object  # int or INFINITE


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    transitions: tuple  # indices i where row i differs from row i-1


def sweep(family, grid) -> SweepReport:
    """Analyze a family at each grid point and flag symmetry transitions."""
    if not grid:
        raise ValueError("empty grid")
    rows = []
    for t in grid:
        config = family(t)
        g = generic_symmetry(config)
        iso = design_isometries(config)
        design = INFINITE if iso == INFINITE else len(iso)
        rows.append(SweepRow(t=Fraction(t), generic_order=g.order, design_order=design))
    transitions = tuple(
        i
        for i in range(1, len(rows))
        if (rows[i].generic_order, rows[i].design_order)
        != (rows[i - 1].generic_order, rows[i - 1].design_order)
    )
    return SweepReport(rows=tuple(rows), transitions=transitions)
