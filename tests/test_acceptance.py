"""Acceptance suite: one test per criterion, exact (zero-tolerance) algebra
throughout, 1e-9 for the floating line-configuration checks.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.

Criterion 5 checks the involution-pair claim of the group of maps
X -> aX + bX^2 as no_s3_check states it: no two distinct involutions
multiply to an element of order 3 away from characteristic 3, while over F_3
(chi(1,b)^n = chi(1, nb), and 3b = 0 there) the group is S3 and the
returned witness pair is verified on F_3[X]/(X^3).
"""

import contextlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from symlab.chi import all_chis, no_s3_check, order_class
from symlab.families import (
    PoleAt,
    RootFamily,
    Survives,
    all_perms,
    analyze_at,
    perm_coeff_vector,
    specialize_scaled,
    survival_condition,
    surviving_subgroup,
)
from symlab.fields import GF, QQ, primitive_cube_root, rationals_with_cube_root
from symlab.lines import design_isometries, pivot_family, sweep
from symlab.linalg import Matrix
from symlab.poly import FunctionField, MultiPoly, Pole, RationalFunction, UniPoly
from symlab.quotient import (
    MonogenicAlgebra,
    SubstitutionMap,
    aut_description,
    brute_force_automorphisms,
    idempotents,
    vandermonde_pair,
)
from symlab import structure

T = ("t",)


@contextlib.contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {summary}")
        raise
    print(f"PASS criterion {num:2d}: {summary}")


def tfrac(num_coeffs, den_coeffs):
    def p(coeffs):
        return MultiPoly(QQ, T, {(k,): c for k, c in enumerate(coeffs)})

    return RationalFunction(p(num_coeffs), p(den_coeffs))


def family_0_t_1():
    t = RationalFunction.symbol(QQ, T, "t")
    c = lambda v: RationalFunction.constant(QQ, T, v)
    return RootFamily(QQ, [c(0), t, c(1)])


def family_0_t_t2():
    t = RationalFunction.symbol(QQ, T, "t")
    c = lambda v: RationalFunction.constant(QQ, T, v)
    return RootFamily(QQ, [c(0), t, t * t])


SWAP12 = (1, 0, 2)
CYCLE123 = (1, 2, 0)
CYCLE132 = (2, 0, 1)


def test_criterion_01_swap_coefficients_symbolic():
    with criterion(1, "swap map of (0, t, 1) is (t, (t^2-t-1)/(1-t), (2-t)/(1-t))"):
        pa = perm_coeff_vector(family_0_t_1(), SWAP12)
        assert pa[0] == tfrac([0, 1], [1])
        assert pa[1] == tfrac([-1, -1, 1], [1, -1])
        assert pa[2] == tfrac([2, -1], [1, -1])


def test_criterion_02_family_0_t_1_survival():
    with criterion(2, "family (0, t, 1): swap survives at 0 as -X + 2X^2, order-2 subgroup"):
        fam = family_0_t_1()
        st = analyze_at(fam, SWAP12, 0)
        assert isinstance(st, Survives)
        assert st.limit_map.image == UniPoly(QQ, [0, -1, 2])
        a0 = MonogenicAlgebra(QQ, UniPoly(QQ, [0, 0, -1, 1]))
        assert st.limit_map.algebra == a0
        assert SubstitutionMap(a0, [0, -1, 2]).is_automorphism()
        assert isinstance(analyze_at(fam, SWAP12, 1), PoleAt)
        # the 3-cycle sending (0, t, 1) -> (t, 1, 0) poles at both 0 and 1
        assert isinstance(analyze_at(fam, CYCLE123, 0), PoleAt)
        assert isinstance(analyze_at(fam, CYCLE123, 1), PoleAt)
        rep = surviving_subgroup(fam, 0)  # all 6 permutations checked
        assert len(rep.statuses) == 6
        assert set(rep.surviving) == {(0, 1, 2), SWAP12}


def test_criterion_03_family_0_t_t2():
    with criterion(3, "family (0, t, t^2): det t^4(t-1), displayed maps pole at 0, trivial subgroup"):
        ff = FunctionField(QQ, T)
        t = ff.symbol("t")
        m, m_inv = vandermonde_pair(ff, [ff.zero, t, t * t])
        assert m.det() == t**4 * (t - ff.one)
        s = (t**4 * (t - ff.one)).inverse()
        expected_inv = Matrix(
            ff,
            [
                [(t**5 - t**4) * s, ff.zero, ff.zero],
                [-(t**4 - t * t) * s, t**4 * s, -(t * t) * s],
                [(t * t - t) * s, -(t * t) * s, t * s],
            ],
        )
        assert m_inv == expected_inv
        fam = family_0_t_t2()
        # swap of the first two roots: (t, (1-t-t^2)/(t(t-1)), (-1+2t)/(t^2(t-1)))
        pa = perm_coeff_vector(fam, SWAP12)
        assert pa[0] == tfrac([0, 1], [1])
        assert pa[1] == tfrac([1, -1, -1], [0, -1, 1])
        assert pa[2] == tfrac([-1, 2], [0, 0, -1, 1])
        # and the same column in its unreduced intermediate form
        # (t^6-t^5, -t(t^4-t^2)-t^4, (t^2-t)t+t^3) / (t^4(t-1))
        den = [0, 0, 0, 0, -1, 1]
        assert pa[0] == tfrac([0, 0, 0, 0, 0, -1, 1], den)
        assert pa[1] == tfrac([0, 0, 0, 1, -1, -1], den)
        assert pa[2] == tfrac([0, 0, -1, 2], den)
        # cycle (0, t, t^2) -> (t, t^2, 0): the X^2 entry as displayed; the X
        # entry follows from the inverse matrix above, (t^3-t^2+1)/(t(t-1))
        pb = perm_coeff_vector(fam, CYCLE123)
        assert pb[0] == tfrac([0, 1], [1])
        assert pb[1] == tfrac([1, 0, -1, 1], [0, -1, 1])
        assert pb[2] == tfrac([-1, 1, -1], [0, 0, -1, 1])
        assert isinstance(analyze_at(fam, SWAP12, 0), PoleAt)
        assert isinstance(analyze_at(fam, CYCLE123, 0), PoleAt)
        rep = surviving_subgroup(fam, 0)
        assert rep.surviving == ((0, 1, 2),)


def test_criterion_04_survival_conditions():
    with criterion(4, "scaled-family survival conditions and witnesses"):
        xs_syms = ("x1", "x2", "x3")
        x1, x2, x3 = (MultiPoly.symbol(QQ, xs_syms, s) for s in xs_syms)

        def proportional(p, q):
            e, c = next(iter(q.terms.items()))
            return e in p.terms and p == q * Fraction(p.terms[e], c)

        assert proportional(
            survival_condition(SWAP12).condition, (x2 - x1) * (2 * x3 - x1 - x2)
        )
        assert proportional(
            survival_condition((2, 1, 0)).condition, (x3 - x1) * (x3 + x1 - 2 * x2)
        )
        assert proportional(
            survival_condition((0, 2, 1)).condition, (x3 - x2) * (x2 + x3 - 2 * x1)
        )
        cyc = -(x1**2 + x2**2 + x3**2) + x1 * x2 + x1 * x3 + x2 * x3
        assert proportional(survival_condition(CYCLE123).condition, cyc)

        # vanishing locus invariant under the permutation itself
        for sigma in all_perms(3):
            cond = survival_condition(sigma).condition
            if cond.is_zero():
                continue
            permuted = MultiPoly(
                QQ, xs_syms,
                {tuple(e[sigma[i]] for i in range(3)): c for e, c in cond.terms.items()},
            )
            assert proportional(permuted, cond)

        # witness x = (1, 3, 2): swap survives with limit X -> -X
        fam = specialize_scaled(QQ, [1, 3, 2])
        st = analyze_at(fam, SWAP12, 0)
        assert isinstance(st, Survives)
        assert st.limit_map.image == UniPoly(QQ, [0, -1])

        # witness x = (0, 1, -zeta3): both 3-cycles survive; X -> zeta3 X occurs
        qz = rationals_with_cube_root()
        z = primitive_cube_root(qz)
        famz = specialize_scaled(qz, [qz.zero, qz.one, -z])
        repz = surviving_subgroup(famz, 0)
        assert set(repz.surviving) == {(0, 1, 2), CYCLE123, CYCLE132}
        images = {
            dict(repz.statuses)[CYCLE123].limit_map.image.coeff(1),
            dict(repz.statuses)[CYCLE132].limit_map.image.coeff(1),
        }
        assert images == {z, z * z}
        assert dict(repz.statuses)[CYCLE132].limit_map.image == UniPoly(qz, [qz.zero, z])


def test_criterion_05_order_class_tables():
    with criterion(
        5,
        "order-2/order-3 tables vs brute force; powers; "
        "no order-3 products away from char 3; verified witness in char 3",
    ):
        fields = [GF(2), GF(3), GF(2, 2), GF(5), GF(7)]
        for field in fields:
            cap = field.size() * (field.size() - 1)
            brute2 = {c for c in all_chis(field) if c.order(cap) == 2}
            brute3 = {c for c in all_chis(field) if c.order(cap) == 3}
            rep = order_class(field)
            assert set(rep.order2_elements) == brute2
            assert set(rep.order3_elements) == brute3
        assert len(order_class(GF(5)).order2_elements) == 5
        assert len(order_class(GF(2, 2)).order3_elements) == 8
        assert len(order_class(GF(3)).order3_elements) == 2
        assert order_class(GF(5)).order3_elements == ()
        assert len(order_class(GF(7)).order3_elements) == 14

        rng = random.Random(55)
        for field in fields:
            chis = list(all_chis(field))
            for _ in range(10):
                phi = rng.choice(chis)
                acc = phi
                for n in range(1, 13):
                    assert phi.power(n) == acc
                    acc = acc.compose(phi)

        # exhaustive away from characteristic 3: every ordered pair of distinct
        # involutions is tried (none for F_2, whose only involution is chi(1, 1))
        for field in fields:
            if field.characteristic() == 3:
                continue
            rep = no_s3_check(field)
            assert rep.ok and rep.counterexample is None, (str(field), rep.counterexample)
            k = len(order_class(field).order2_elements)
            assert rep.pairs_checked == k * (k - 1)
            assert (rep.pairs_checked > 0) == (field.size() > 2)

        # over F_3 the claim is false: chi(2,0) o chi(2,1) = chi(1,2), and
        # chi(1,2)^3 = chi(1,6) = id.  The witness is checked as substitutions
        # on F_3[X]/(X^3), independently of Chi.compose and Chi.order.
        rep = no_s3_check(GF(3))
        assert not rep.ok, "no witness pair over F3, where the group is S3"
        u, v = rep.counterexample
        f3 = GF(3)
        cube = MonogenicAlgebra(f3, UniPoly(f3, [0, 0, 0, 1]))
        su, sv = (SubstitutionMap(cube, [f3.zero, c.a, c.b]) for c in (u, v))
        assert su != sv
        assert su.is_automorphism() and sv.is_automorphism()
        assert su.order(6) == 2 and sv.order(6) == 2
        assert su.compose(sv).order(6) == 3
        profile = Counter(SubstitutionMap(cube, [f3.zero, c.a, c.b]).order(6) for c in all_chis(f3))
        assert profile == {1: 1, 2: 3, 3: 2}  # six elements with this profile: S3


def test_criterion_06_idempotent_suite():
    with criterion(6, "200 random idempotent bases exact; Vandermonde pairs exact"):
        rng = random.Random(2024)
        done = 0
        while done < 200:
            n = rng.choice([3, 4])
            roots = rng.sample(range(-5, 6), n)
            algebra = MonogenicAlgebra.from_roots(QQ, roots)
            es = idempotents(algebra.field, roots)
            for i in range(n):
                for j in range(n):
                    assert es[i] * es[j] == (es[i] if i == j else algebra.zero())
            assert sum(es[1:], es[0]) == algebra.one()
            x = algebra.gen()
            for z, e in zip(roots, es):
                assert x * e == QQ.coerce(z) * e
            m, m_inv = vandermonde_pair(QQ, roots)
            assert m * m_inv == Matrix.identity(QQ, n)
            done += 1
        # the symbolic instance with roots (0, t, 1)
        ff = FunctionField(QQ, T)
        t = ff.symbol("t")
        m, m_inv = vandermonde_pair(ff, [ff.zero, t, ff.one])
        assert m * m_inv == Matrix.identity(ff, 3)
        s = ((ff.one - t) * t).inverse()
        assert m_inv == Matrix(
            ff,
            [
                [(t - t * t) * s, ff.zero, ff.zero],
                [-(ff.one - t * t) * s, s, -(t * t) * s],
                [(ff.one - t) * s, -s, t * s],
            ],
        )


def test_criterion_07_brute_force_group_counts():
    with criterion(7, "brute-force counts: 6 (S3), 20 with pair law on 400 pairs, 48"):
        f5 = GF(5)
        auts = brute_force_automorphisms(MonogenicAlgebra.from_roots(f5, [0, 1, 2]))
        assert len(auts) == 6
        profile = {}
        for g in auts:
            profile[g.order()] = profile.get(g.order(), 0) + 1
        assert profile == {1: 1, 2: 3, 3: 2}

        t1 = structure.build_T(f5.one)
        t_auts = structure.brute_force_automorphisms(t1)
        assert len(t_auts) == 20
        pairs = []
        for phi in t_auts:
            im2, im3 = phi.image_of_basis(1), phi.image_of_basis(2)
            b, bp = im2.coeff(2), im3.coeff(2)
            assert im2 == t1.basis(1) + b * t1.basis(2)
            assert im3 == bp * t1.basis(2)
            pairs.append(structure.AutPair(b, bp))
        lookup = {(str(p.b), str(p.bp)): m for p, m in zip(pairs, t_auts)}
        for p1, p2 in itertools.product(pairs, repeat=2):
            combo = structure.compose_pair(p2, p1)
            lhs = lookup[(str(p2.b), str(p2.bp))].compose(lookup[(str(p1.b), str(p1.bp))])
            assert lhs == structure.transport_aut(t1.field.one, combo, t1)

        t0_auts = structure.brute_force_automorphisms(structure.build_T(GF(3).zero))
        assert len(t0_auts) == 48  # |GL2(F3)|


def test_criterion_08_conjugated_scaling_automorphism():
    with criterion(8, "conjugation through X -> tX gives aX + (1-a)/t X^2; limit iff a = 1"):
        from symlab.families import conjugate_through_iso

        ff = FunctionField(QQ, ("a", "t"))
        a, t = ff.symbol("a"), ff.symbol("t")
        source = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -t, ff.one]))
        target = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -ff.one, ff.one]))
        got = conjugate_through_iso(
            source, target, UniPoly(ff, [ff.zero, t]), UniPoly(ff, [ff.zero, a, ff.one - a])
        )
        assert got.image == UniPoly(ff, [ff.zero, a, (ff.one - a) / t])
        assert got.is_endomorphism()  # identically over the function field
        c2 = got.image.coeff(2).value
        assert c2.limit_at("t", 0) == Pole(1)
        # specializing a = 1 removes the pole (identity map); a != 1 keeps it
        a1 = RationalFunction(c2.num.substitute("a", 1), c2.den.substitute("a", 1))
        assert a1.limit_at("t", 0).is_zero()
        for aval in (2, 3, Fraction(-1, 2)):
            spec = RationalFunction(
                c2.num.substitute("a", aval), c2.den.substitute("a", aval)
            )
            assert spec.limit_at("t", 0) == Pole(1)


def test_criterion_09_transported_pair_maps():
    with criterion(9, "transported pair maps: symbolic form, b-independent limit, kernel (b, 1)"):
        ff = FunctionField(QQ, ("b", "bp", "t"))
        b, bp, t = ff.symbol("b"), ff.symbol("bp"), ff.symbol("t")
        tt = structure.build_T(t)
        phi = structure.transport_aut(t, structure.AutPair(b, bp), tt)
        assert phi.image_of_basis(1) == tt.basis(1) + (t * b) * tt.basis(2)
        assert phi.image_of_basis(2) == bp * tt.basis(2)
        assert phi.is_algebra_morphism()
        lim = structure.limit_map_at_zero(phi)
        rest = lim.field
        assert lim == Matrix(
            rest,
            [
                [rest.one, rest.zero, rest.zero],
                [rest.zero, rest.one, rest.zero],
                [rest.zero, rest.zero, rest.symbol("bp")],
            ],
        )  # independent of b
        t0 = structure.build_T(rest.coerce(0))
        lim_map = structure.LinearAlgebraMap(t0, t0, lim)
        assert lim_map.is_algebra_morphism() and lim_map.is_invertible()

        # (b, b') -> limit is a homomorphism with kernel {(b, 1)}
        f5 = GF(5)
        t0c = structure.build_T(f5.zero)

        def limit_of(pair):
            return structure.LinearAlgebraMap.from_images(
                t0c, t0c, [t0c.one(), t0c.basis(1), pair.bp * t0c.basis(2)]
            )

        pairs = [
            structure.AutPair(bv, bpv)
            for bv in f5.elements()
            for bpv in f5.elements()
            if not bpv.is_zero()
        ]
        ident = structure.LinearAlgebraMap.identity(t0c)
        for p1, p2 in itertools.product(pairs, repeat=2):
            assert limit_of(structure.compose_pair(p2, p1)) == limit_of(p2).compose(
                limit_of(p1)
            )
        kernel = [p for p in pairs if limit_of(p) == ident]
        assert len(kernel) == 5 and all(p.bp == f5.one for p in kernel)


def test_criterion_10_line_sweep():
    with criterion(10, "sweep: generic (24,24,24,8), design (1,1,1,4), Klein four at 1"):
        grid = [Fraction(1, 2), Fraction(3, 4), Fraction(99, 100), Fraction(1)]
        rep = sweep(pivot_family, grid)
        assert [r.generic_order for r in rep.rows] == [24, 24, 24, 8]
        assert [r.design_order for r in rep.rows] == [1, 1, 1, 4]
        iso = design_isometries(pivot_family(Fraction(1)))
        assert len(iso) == 4
        involutions = 0
        for i in iso:
            m = i.matrix
            sq = [
                [sum(m[r][k] * m[k][c] for k in range(2)) for c in range(2)]
                for r in range(2)
            ]
            is_identity_sq = all(
                abs(sq[r][c] - (1.0 if r == c else 0.0)) < 1e-9
                for r in range(2)
                for c in range(2)
            )
            assert is_identity_sq  # every element squares to the identity
            if any(abs(m[r][c] - (1.0 if r == c else 0.0)) > 1e-9 for r in range(2) for c in range(2)):
                involutions += 1
        assert involutions == 3
        # products stay inside the set (Klein four closure)
        def compose(i1, i2):
            m = tuple(
                tuple(sum(i1.matrix[r][k] * i2.matrix[k][c] for k in range(2)) for c in range(2))
                for r in range(2)
            )
            v = tuple(
                sum(i1.matrix[r][k] * i2.translation[k] for k in range(2)) + i1.translation[r]
                for r in range(2)
            )
            return m, v

        for i1, i2 in itertools.product(iso, repeat=2):
            m, v = compose(i1, i2)
            assert any(
                all(abs(m[r][c] - j.matrix[r][c]) < 1e-7 for r in range(2) for c in range(2))
                and all(abs(v[r] - j.translation[r]) < 1e-7 for r in range(2))
                for j in iso
            )


def test_criterion_11_decomposition_and_orders():
    with criterion(11, "multiplicity profile {(2,1),(3,2)} with S1 x S2; n! matches brute force"):
        desc = aut_description([(0, 2), (1, 3), (2, 3)])  # X^2 (X-1)^3 (X-2)^3
        assert desc.parts == ((2, 1), (3, 2))
        assert desc.permutation_part == "S1 x S2"
        assert desc.finite_order is None
        f5 = GF(5)
        for roots in ([0], [0, 1], [0, 1, 2], [0, 1, 2, 3]):
            n = len(roots)
            desc = aut_description([(z, 1) for z in roots])
            assert desc.finite_order == math.factorial(n)
            count = len(brute_force_automorphisms(MonogenicAlgebra.from_roots(f5, roots)))
            assert count == math.factorial(n)
