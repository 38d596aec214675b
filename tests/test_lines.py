import itertools
import math
import random
from fractions import Fraction

import pytest

from symlab.lines import (
    COINCIDENT,
    INFINITE,
    INTERSECTING,
    PARALLEL,
    Config4,
    Line,
    design_isometries,
    generic_symmetry,
    pair_relation,
    pivot_family,
    sweep,
)

RECTANGLE = Config4([Line(1, 0, 2), Line(0, 1, 0), Line(1, 0, 0), Line(0, 1, 4)])


class TestPairRelation:
    def test_examples(self):
        assert pair_relation(Line(1, 0, 0), Line(0, 1, 0)) == INTERSECTING
        assert pair_relation(Line(1, 0, 0), Line(1, 0, 2)) == PARALLEL
        assert pair_relation(Line(1, 0, 0), Line(2, 0, 0)) == COINCIDENT
        assert pair_relation(Line(2, 4, 6), Line(1, 2, 3)) == COINCIDENT
        assert pair_relation(Line(0, 2, 6), Line(0, 1, 3)) == COINCIDENT

    def test_symmetric(self):
        rng = random.Random(6)
        for _ in range(100):
            l1 = Line(rng.randint(-3, 3) or 1, rng.randint(-3, 3), rng.randint(-3, 3))
            l2 = Line(rng.randint(-3, 3) or 1, rng.randint(-3, 3), rng.randint(-3, 3))
            assert pair_relation(l1, l2) == pair_relation(l2, l1)

    def test_degenerate_line_rejected(self):
        with pytest.raises(ValueError):
            Line(0, 0, 1)


class TestGenericSymmetry:
    def test_general_position_gives_s4(self):
        config = Config4([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1), Line(1, -1, 2)])
        assert generic_symmetry(config).order == 24

    def test_two_parallel_pairs_give_order_8(self):
        g = generic_symmetry(RECTANGLE)
        assert g.order == 8
        # generated by switching within each pair and swapping the pairs
        assert (2, 1, 0, 3) in g.group  # swap lines 1 and 3 (the x = c pair)
        assert (0, 3, 2, 1) in g.group  # swap lines 2 and 4 (the y = c pair)
        assert (1, 0, 3, 2) in g.group  # swap the two pairs

    def test_coincident_lines_relation_constant(self):
        config = Config4([Line(1, 0, 0)] * 4)
        assert generic_symmetry(config).order == 24

    def test_one_parallel_pair(self):
        config = Config4([Line(1, 0, 0), Line(1, 0, 1), Line(0, 1, 0), Line(1, 1, 3)])
        g = generic_symmetry(config)
        # stabilizer of one non-edge {1,2}: permutations preserving the pair
        assert g.order == 4

    def test_relabel_conjugates(self):
        rng = random.Random(17)
        config = RECTANGLE
        g = set(generic_symmetry(config).group)
        for _ in range(10):
            tau = list(range(4))
            rng.shuffle(tau)
            tau = tuple(tau)
            relabeled = Config4([config[tau[i]] for i in range(4)])
            inv = [0] * 4
            for i, v in enumerate(tau):
                inv[v] = i
            inv = tuple(inv)
            conj = {
                tuple(inv[p[tau[i]]] for i in range(4)) for p in g
            }
            assert set(generic_symmetry(relabeled).group) == conj


class TestDesignIsometries:
    def test_rectangle_is_klein_four(self):
        iso = design_isometries(RECTANGLE)
        assert len(iso) == 4
        kinds = sorted(i.kind for i in iso)
        assert kinds == ["reflection", "reflection", "rotation", "rotation"]
        # three involutions plus the identity; closed under composition
        mats = [i.matrix for i in iso]
        assert ((1.0, -0.0), (0.0, 1.0)) in [tuple(map(tuple, m)) for m in mats] or any(
            abs(m[0][0] - 1) < 1e-9 and abs(m[1][1] - 1) < 1e-9 and abs(m[0][1]) < 1e-9
            for m in mats
        )
        center_rot = next(
            i for i in iso if i.kind == "rotation" and i.matrix[0][0] < 0
        )
        # rotation by pi about (1, 2): fixed point of x -> Ox + v
        assert math.isclose(center_rot.translation[0], 2.0, abs_tol=1e-9)
        assert math.isclose(center_rot.translation[1], 4.0, abs_tol=1e-9)

    def test_klein_four_composition_closure(self):
        iso = design_isometries(RECTANGLE)

        def compose(i1, i2):
            m = tuple(
                tuple(
                    sum(i1.matrix[r][k] * i2.matrix[k][c] for k in range(2))
                    for c in range(2)
                )
                for r in range(2)
            )
            v = tuple(
                sum(i1.matrix[r][k] * i2.translation[k] for k in range(2))
                + i1.translation[r]
                for r in range(2)
            )
            return m, v

        def matches(m, v, iso_list):
            return any(
                all(
                    abs(m[r][c] - i.matrix[r][c]) < 1e-7
                    for r in range(2)
                    for c in range(2)
                )
                and all(abs(v[r] - i.translation[r]) < 1e-7 for r in range(2))
                for i in iso_list
            )

        for i1, i2 in itertools.product(iso, repeat=2):
            m, v = compose(i1, i2)
            assert matches(m, v, iso)

    def test_all_parallel_is_infinite(self):
        config = Config4([Line(1, 0, 0), Line(1, 0, 1), Line(1, 0, 2), Line(1, 0, 3)])
        assert design_isometries(config) == INFINITE

    def test_generic_config_identity_only(self):
        config = Config4([Line(1, 0, 0), Line(0, 1, 0), Line(1, 2, 3), Line(3, -1, 1)])
        iso = design_isometries(config)
        assert len(iso) == 1 and iso[0].kind == "rotation"

    def test_square_has_order_8(self):
        square = Config4([Line(1, 0, 0), Line(1, 0, 2), Line(0, 1, 0), Line(0, 1, 2)])
        iso = design_isometries(square)
        assert len(iso) == 8  # dihedral group of the square


class TestPivotFamily:
    def test_t_one_is_the_rectangle(self):
        config = pivot_family(Fraction(1))
        assert [l.triple() for l in config.lines] == [
            l.triple() for l in RECTANGLE.lines
        ]

    def test_interior_points_all_intersect(self):
        for t in (Fraction(1, 2), Fraction(3, 4)):
            config = pivot_family(t)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert pair_relation(config[i], config[j]) == INTERSECTING

    def test_pivot_points(self):
        for t in (Fraction(1, 2), Fraction(7, 10), Fraction(1)):
            config = pivot_family(t)
            l1, l4 = config[0], config[3]
            assert l1.a * 2 + l1.b * 4 == l1.c  # line 1 passes through (2, 4)
            assert l4.b * 4 == l4.c  # line 4 passes through (0, 4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            pivot_family(Fraction(1, 4))
        with pytest.raises(ValueError):
            pivot_family(Fraction(2))


class TestSweep:
    def test_transition_grid(self):
        rep = sweep(
            pivot_family,
            [Fraction(1, 2), Fraction(3, 4), Fraction(99, 100), Fraction(1)],
        )
        assert [r.generic_order for r in rep.rows] == [24, 24, 24, 8]
        assert [r.design_order for r in rep.rows] == [1, 1, 1, 4]
        assert rep.transitions == (3,)

    def test_constant_family_no_transitions(self):
        rep = sweep(lambda t: RECTANGLE, [Fraction(0), Fraction(1, 2), Fraction(1)])
        assert rep.transitions == ()

    def test_single_point_grid(self):
        rep = sweep(pivot_family, [Fraction(1)])
        assert len(rep.rows) == 1 and rep.transitions == ()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(pivot_family, [])


class TestInvariance:
    def rational_rotation(self, config, cos, sin, dx, dy):
        """Apply the exact rotation [[cos,-sin],[sin,cos]] + (dx, dy); the
        normal transforms the same way since rotations are orthogonal."""
        out = []
        for l in config.lines:
            a = cos * l.a - sin * l.b
            b = sin * l.a + cos * l.b
            c = l.c + a * dx + b * dy
            out.append(Line(a, b, c))
        return Config4(out)

    def test_exact_euclidean_motion_preserves_both_symmetries(self):
        rng = random.Random(23)
        configs = [RECTANGLE, pivot_family(Fraction(3, 4))]
        for config in configs:
            base_generic = generic_symmetry(config).group
            base_design = design_isometries(config)
            for _ in range(5):
                dx, dy = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
                moved = self.rational_rotation(
                    config, Fraction(3, 5), Fraction(4, 5), dx, dy
                )
                assert generic_symmetry(moved).group == base_generic
                iso = design_isometries(moved)
                assert len(iso) == len(base_design)
                # each original isometry conjugates to one of the moved set
                c, s = 3 / 5, 4 / 5
                rmat = ((c, -s), (s, c))
                v = (float(dx), float(dy))
                for g in base_design:
                    conj = self._conjugate(rmat, v, g.matrix, g.translation)
                    assert any(
                        self._close(conj, (h.matrix, h.translation)) for h in iso
                    )

    @staticmethod
    def _conjugate(rmat, v, omat, w):
        """(R, v) o (O, w) o (R, v)^(-1) as a matrix/translation pair."""

        def mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                for i in range(2)
            )

        def apply(a, x):
            return tuple(sum(a[i][k] * x[k] for k in range(2)) for i in range(2))

        rt = ((rmat[0][0], rmat[1][0]), (rmat[0][1], rmat[1][1]))
        m = mul(mul(rmat, omat), rt)
        shift = apply(rmat, w)
        t = tuple(shift[i] + v[i] - apply(m, v)[i] for i in range(2))
        return m, t

    @staticmethod
    def _close(pair1, pair2, tol=1e-6):
        (m1, t1), (m2, t2) = pair1, pair2
        return all(
            abs(m1[i][j] - m2[i][j]) <= tol for i in range(2) for j in range(2)
        ) and all(abs(t1[i] - t2[i]) <= tol for i in range(2))

    def test_perturbed_rectangle_keeps_at_most_klein_four(self):
        # local design-symmetry maximality, sampled: perturbations of size
        # <= 1e-3 never gain symmetry
        rng = random.Random(29)
        for _ in range(100):
            lines = []
            for l in RECTANGLE.lines:
                eps = [Fraction(rng.randint(-1000, 1000), 10**6) for _ in range(3)]
                lines.append(Line(l.a + eps[0], l.b + eps[1], l.c + eps[2]))
            iso = design_isometries(Config4(lines))
            assert iso == INFINITE or len(iso) <= 4
