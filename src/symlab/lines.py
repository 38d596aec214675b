"""Four-line configurations in the plane.

Two views of the same configuration: as an intersection system, whose
symmetries are the permutations of the four lines preserving the
"intersecting or coincident" relation (exact rational arithmetic); and as a
Euclidean figure, whose symmetries are the isometries mapping the line set
to itself (floating point, tolerance based).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .families import is_perm_group

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
        if not isinstance(other, Line):
            return NotImplemented
        return self.triple() == other.triple()

    def __hash__(self):
        return hash(self.triple())

    def direction_angle(self) -> float:
        """Angle of the line's direction, in [0, pi)."""
        ang = math.atan2(float(-self.a), float(self.b)) % math.pi
        return ang % math.pi

    def unit_normal(self):
        """(unit normal, offset) as floats; line = {p : n.p = d}."""
        na, nb = float(self.a), float(self.b)
        norm = math.hypot(na, nb)
        return (na / norm, nb / norm), float(self.c) / norm

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


def generic_symmetry(config: Config4) -> GenericSymmetry:
    """All permutations preserving the pairwise intersection pattern."""
    rel = {}
    for i in range(4):
        for j in range(i + 1, 4):
            rel[(i, j)] = pair_relation(config[i], config[j])

    def rel_of(i, j):
        return rel[(i, j)] if i < j else rel[(j, i)]

    coarse = []
    fine = []
    for p in itertools.permutations(range(4)):
        ok_coarse = ok_fine = True
        for i in range(4):
            for j in range(i + 1, 4):
                r1, r2 = rel_of(i, j), rel_of(p[i], p[j])
                if (r1 == INTERSECTING or r1 == COINCIDENT) != (
                    r2 == INTERSECTING or r2 == COINCIDENT
                ):
                    ok_coarse = False
                if r1 != r2:
                    ok_fine = False
            if not ok_coarse and not ok_fine:
                break
        if ok_coarse:
            coarse.append(p)
        if ok_fine:
            fine.append(p)
    if not is_perm_group(set(coarse)) or not is_perm_group(set(fine)):
        raise RuntimeError("pattern stabilizer failed the subgroup check")
    return GenericSymmetry(group=tuple(sorted(coarse)), fine_group=tuple(sorted(fine)))


@dataclass(frozen=True)
class Isometry:
    """x -> O x + v with O orthogonal; kind is 'rotation' or 'reflection'."""

    matrix: tuple  # ((o11, o12), (o21, o22))
    translation: tuple
    kind: str


INFINITE = "infinite"


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return ((c, -s), (s, c))


def _reflection(psi):
    # reflection across the line through the origin at angle psi
    c, s = math.cos(2 * psi), math.sin(2 * psi)
    return ((c, s), (s, -c))


def _apply_to_line(mat, v, normal, offset):
    (o11, o12), (o21, o22) = mat
    n = (o11 * normal[0] + o12 * normal[1], o21 * normal[0] + o22 * normal[1])
    d = offset + n[0] * v[0] + n[1] * v[1]
    return n, d


def _line_matches(n, d, lines_nd, tol):
    for n2, d2 in lines_nd:
        if (
            abs(n[0] - n2[0]) <= tol
            and abs(n[1] - n2[1]) <= tol
            and abs(d - d2) <= tol
        ):
            return True
        if (
            abs(n[0] + n2[0]) <= tol
            and abs(n[1] + n2[1]) <= tol
            and abs(d + d2) <= tol
        ):
            return True
    return False


def design_isometries(config: Config4, tol: float = 1e-9):
    """All Euclidean isometries mapping the line set to itself, or the
    INFINITE flag when every pair of lines is parallel (a whole translation
    subgroup preserves the configuration).

    Candidate linear parts come from the direction angles: rotations by
    pairwise angle differences (and by pi), reflections across pairwise
    angle bisectors (and their perpendiculars).  For each candidate, the
    translation solves the offset system of two non-parallel lines and the
    whole image set is verified within tol.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    # set semantics: dedupe coincident lines
    seen = []
    for l in config.lines:
        if all(pair_relation(l, m) != COINCIDENT for m in seen):
            seen.append(l)
    angles = [l.direction_angle() for l in seen]
    lines_nd = [l.unit_normal() for l in seen]

    all_parallel = all(
        abs((a - angles[0]) % math.pi) <= tol
        or abs((a - angles[0]) % math.pi - math.pi) <= tol
        for a in angles
    )
    if all_parallel:
        return INFINITE

    # candidate linear parts
    mats = []
    deltas = set()
    for ai in angles:
        for aj in angles:
            deltas.add((aj - ai) % math.pi)
    for d in sorted(deltas):
        mats.append(("rotation", _rotation(d)))
        mats.append(("rotation", _rotation(d + math.pi)))
    psis = set()
    for ai in angles:
        for aj in angles:
            psis.add(((ai + aj) / 2) % math.pi)
            psis.add(((ai + aj) / 2 + math.pi / 2) % math.pi)
    for p in sorted(psis):
        mats.append(("reflection", _reflection(p)))

    # two reference lines with independent normals
    i1 = 0
    i2 = next(
        i
        for i in range(1, len(seen))
        if abs(
            lines_nd[0][0][0] * lines_nd[i][0][1]
            - lines_nd[0][0][1] * lines_nd[i][0][0]
        )
        > 1e-6
    )
    found = []

    def push(kind, mat, v):
        for iso in found:
            if (
                max(
                    abs(iso.matrix[r][c] - mat[r][c])
                    for r in range(2)
                    for c in range(2)
                )
                <= 1e-6
                and abs(iso.translation[0] - v[0]) <= 1e-6
                and abs(iso.translation[1] - v[1]) <= 1e-6
            ):
                return
        found.append(Isometry(matrix=mat, translation=v, kind=kind))

    for kind, mat in mats:
        n1, d1 = lines_nd[i1]
        n2, d2 = lines_nd[i2]
        (o11, o12), (o21, o22) = mat
        m1 = (o11 * n1[0] + o12 * n1[1], o21 * n1[0] + o22 * n1[1])
        m2 = (o11 * n2[0] + o12 * n2[1], o21 * n2[0] + o22 * n2[1])
        # candidate targets for each reference line
        targets1 = [
            (s, j)
            for j, (nj, dj) in enumerate(lines_nd)
            for s in (1.0, -1.0)
            if abs(m1[0] - s * nj[0]) <= 1e-6 and abs(m1[1] - s * nj[1]) <= 1e-6
        ]
        targets2 = [
            (s, j)
            for j, (nj, dj) in enumerate(lines_nd)
            for s in (1.0, -1.0)
            if abs(m2[0] - s * nj[0]) <= 1e-6 and abs(m2[1] - s * nj[1]) <= 1e-6
        ]
        for (s1, j1), (s2, j2) in itertools.product(targets1, targets2):
            # translation solves m_i . v = s_i d_{j_i} - d_i
            rhs1 = s1 * lines_nd[j1][1] - d1
            rhs2 = s2 * lines_nd[j2][1] - d2
            det = m1[0] * m2[1] - m1[1] * m2[0]
            if abs(det) < 1e-9:
                continue
            v = (
                (rhs1 * m2[1] - rhs2 * m1[1]) / det,
                (m1[0] * rhs2 - m2[0] * rhs1) / det,
            )
            ok = True
            for (n, d0) in lines_nd:
                ni, di = _apply_to_line(mat, v, n, d0)
                if not _line_matches(ni, di, lines_nd, tol):
                    ok = False
                    break
            if ok:
                push(kind, mat, v)
    return found


def pivot_family(t: Fraction) -> Config4:
    """The built-in one-parameter configuration ("paper" in the CLI): line 2
    is the X axis and line 3 the Y axis for all t; line 1 pivots clockwise
    about (2, 4) reaching vertical at t = 1; line 4 pivots clockwise about
    (0, 4) reaching horizontal at t = 1.  Off-axis slopes are rationalized
    to 1e-12, which leaves both the intersection pattern and the
    tolerance-based isometry analysis intact.
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


def sweep(family, grid, tol: float = 1e-9) -> SweepReport:
    """Analyze a family at each grid point and flag symmetry transitions."""
    if not grid:
        raise ValueError("empty grid")
    rows = []
    for t in grid:
        config = family(t)
        g = generic_symmetry(config)
        iso = design_isometries(config, tol)
        design = INFINITE if iso == INFINITE else len(iso)
        rows.append(SweepRow(t=Fraction(t), generic_order=g.order, design_order=design))
    transitions = tuple(
        i
        for i in range(1, len(rows))
        if (rows[i].generic_order, rows[i].design_order)
        != (rows[i - 1].generic_order, rows[i - 1].design_order)
    )
    return SweepReport(rows=tuple(rows), transitions=transitions)
