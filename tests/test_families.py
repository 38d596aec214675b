import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symlab import families, poly
from symlab.cli import run

from symlab.families import (
    InternalInconsistencyError,
    PoleAt,
    RootFamily,
    Survives,
    all_perms,
    analyze_at,
    compose_perm,
    conjugate_through_iso,
    identity_perm,
    is_perm_group,
    perm_coeff_vector,
    perm_to_cycles,
    specialize_scaled,
    survival_condition,
    surviving_subgroup,
)
from symlab.fields import GF, QQ, primitive_cube_root, rationals_with_cube_root
from symlab.linalg import Matrix
from symlab.parse import parse_ratfunc, parse_ratfunc_list
from symlab.poly import FunctionField, MultiPoly, Pole, RationalFunction, UniPoly
from symlab.quotient import (
    AlgebraHom, MonogenicAlgebra, SubstitutionMap, idempotents, lagrange_basis,
)
from test_linalg import gauss_jordan_inverse

T = ("t",)
SWAP12 = (1, 0, 2)
SWAP13 = (2, 1, 0)
SWAP23 = (0, 2, 1)
CYCLE123 = (1, 2, 0)  # entries (r1, r2, r3) -> (r2, r3, r1)
CYCLE132 = (2, 0, 1)  # entries (r1, r2, r3) -> (r3, r1, r2)


def tsym():
    return RationalFunction.symbol(QQ, T, "t")


def tconst(c):
    return RationalFunction.constant(QQ, T, c)


def tfrac(num_coeffs, den_coeffs):
    def p(coeffs):
        return MultiPoly(QQ, T, {(k,): c for k, c in enumerate(coeffs)})

    return RationalFunction(p(num_coeffs), p(den_coeffs))


@pytest.fixture
def fam_0_t_1():
    return RootFamily(QQ, [tconst(0), tsym(), tconst(1)])


@pytest.fixture
def fam_0_t_t2():
    t = tsym()
    return RootFamily(QQ, [tconst(0), t, t * t])


def test_is_perm_group():
    s3 = set(all_perms(3))
    assert is_perm_group(s3)
    for sub in [{(0, 1, 2)}, {(0, 1, 2), CYCLE123, CYCLE132}] + [
        {(0, 1, 2), swap} for swap in (SWAP12, SWAP13, SWAP23)
    ]:
        assert is_perm_group(sub)
    klein = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    assert is_perm_group(klein)
    assert not is_perm_group(set())
    assert not is_perm_group(s3 - {(0, 1, 2)})  # no identity
    assert not is_perm_group({(0, 1, 2), CYCLE123})  # no inverse
    assert not is_perm_group({(0, 1, 2), SWAP12, SWAP13})  # not closed


class TestRootFamily:
    def test_distinctness_enforced(self):
        t = tsym()
        with pytest.raises(ValueError):
            RootFamily(QQ, [t, t, tconst(1)])

    def test_roots_are_rational_functions_in_t_over_the_field(self):
        a_t = RationalFunction.symbol(QQ, ("a", "t"), "t")
        over_f7 = RationalFunction.symbol(GF(7), T, "t")
        for stray in (a_t, over_f7, 1):
            with pytest.raises(ValueError, match="^root from a different context$"):
                RootFamily(QQ, [tconst(0), stray])

    def test_critical_values(self, fam_0_t_1, fam_0_t_t2):
        assert sorted(str(c) for c in fam_0_t_1.critical_values()) == ["0", "1"]
        assert sorted(str(c) for c in fam_0_t_t2.critical_values()) == ["0", "1"]
        fam = specialize_scaled(QQ, [1, 3, 2])
        assert [str(c) for c in fam.critical_values()] == ["0"]

    def test_critical_values_with_fractional_coefficients(self):
        # collision polynomial 2t^2 - 5t + 2 needs denominator clearing
        # before the divisor search; roots are 2 and 1/2
        p = MultiPoly(QQ, T, {(0,): 1, (1,): Fraction(-5, 2), (2,): 1})
        fam = RootFamily(QQ, [tconst(0), RationalFunction.from_poly(p)])
        crits = sorted(fam.critical_values(), key=lambda c: c.value)
        assert [str(c) for c in crits] == ["1/2", "2"]
        # duplicates are never reported
        q = MultiPoly(QQ, T, {(1,): 2, (2,): -2})
        fam2 = RootFamily(QQ, [tconst(0), RationalFunction.from_poly(q)])
        crits2 = fam2.critical_values()
        assert len(crits2) == len({str(c) for c in crits2}) == 2

    def test_algebra_at(self, fam_0_t_1):
        a = fam_0_t_1.algebra_at(QQ.coerce(Fraction(1, 2)))
        assert a.modulus == UniPoly.from_roots(QQ, [0, Fraction(1, 2), 1])


class TestPermCoeffVector:
    def test_swap_first_two_of_0_t_1(self, fam_0_t_1):
        pa = perm_coeff_vector(fam_0_t_1, SWAP12)
        assert pa[0] == tsym()
        assert pa[1] == tfrac([-1, -1, 1], [1, -1])  # (t^2-t-1)/(1-t)
        assert pa[2] == tfrac([2, -1], [1, -1])  # (2-t)/(1-t)

    def test_cycle_of_0_t_1(self, fam_0_t_1):
        pa = perm_coeff_vector(fam_0_t_1, CYCLE123)
        assert pa[0] == tsym()
        assert pa[1] == tfrac([1, -1, 0, 1], [0, 1, -1])  # (1-t+t^3)/(t(1-t))
        assert pa[2] == tfrac([-1, 1, -1], [0, 1, -1])  # (-1+t-t^2)/(t(1-t))

    def test_swap_first_two_of_0_t_t2(self, fam_0_t_t2):
        pa = perm_coeff_vector(fam_0_t_t2, SWAP12)
        assert pa[0] == tsym()
        assert pa[1] == tfrac([1, -1, -1], [0, -1, 1])  # (1-t-t^2)/(t(t-1))
        assert pa[2] == tfrac([-1, 2], [0, 0, -1, 1])  # (-1+2t)/(t^2(t-1))

    def test_cycle_of_0_t_t2(self, fam_0_t_t2):
        # the companion inverse (4.5.3-style) forces the X coefficient to be
        # (t^3 - t^2 + 1)/(t(t-1)); the X^2 coefficient matches the display
        pa = perm_coeff_vector(fam_0_t_t2, CYCLE123)
        assert pa[0] == tsym()
        assert pa[1] == tfrac([1, 0, -1, 1], [0, -1, 1])
        assert pa[2] == tfrac([-1, 1, -1], [0, 0, -1, 1])

    def test_a_listing_forms_each_product_of_the_table_once(self, monkeypatch):
        # each product adj_k[i] * p_j is formed on first use and kept, so the
        # 24 maps of a 4-root family need n^3 = 64 products, not 24 * n^2 =
        # 384, and one --perm map needs n^2 = 16 for its listing and its
        # limits at every critical value together
        formed = []

        def counted(field, a, b):
            formed.append((a, b))
            return kernel(field, a, b)

        kernel = families._mul_values
        monkeypatch.setattr(families, "_mul_values", counted)
        base = ["family", "--roots", "0,t,1,2*t", "--json"]
        code, text = run(base)
        assert code == 0 and len(json.loads(text)["results"]["generic_maps"]) == 24
        assert len(formed) == 64
        formed.clear()
        assert run(base + ["--perm", "(1234)"])[0] == 0
        assert len(formed) == 16

    def test_specialization_is_automorphism_permuting_idempotents(self):
        rng = random.Random(21)
        fam = RootFamily(QQ, [tconst(0), tsym(), tconst(1)])
        for sigma in all_perms(3):
            pa = perm_coeff_vector(fam, sigma)
            for _ in range(5):
                t0 = QQ.coerce(Fraction(rng.randint(2, 30), rng.randint(1, 7)))
                roots = fam.roots_at(t0)
                if len({r.sort_key() for r in roots}) < 3:
                    continue
                algebra = fam.algebra_at(t0)
                coeffs = [c.limit_at("t", t0).as_constant() for c in pa]
                g = SubstitutionMap(algebra, UniPoly(QQ, coeffs))
                assert g.is_automorphism()
                es = idempotents(algebra.field, roots)
                # g moves e_i to e_{sigma^(-1)(i)}: g(X) has e-coordinates
                # z_{sigma(i)} in slot i
                for i in range(3):
                    assert g(es[i]) == es[sigma.index(i)]

    def test_composition_homomorphism_all_pairs(self, fam_0_t_1):
        fams = [fam_0_t_1, specialize_scaled(QQ, [1, 3, 2])]
        for fam in fams:
            ff = FunctionField(fam.field, fam.symbols)
            alg = MonogenicAlgebra.from_roots(ff, [ff.coerce(r) for r in fam.roots])
            maps = {
                sigma: SubstitutionMap(
                    alg, UniPoly(ff, [ff.coerce(c) for c in perm_coeff_vector(fam, sigma)])
                )
                for sigma in all_perms(3)
            }
            for tau, sigma in itertools.product(all_perms(3), repeat=2):
                assert maps[tau].compose(maps[sigma]) == maps[compose_perm(tau, sigma)]


class TestAnalyzeAt:
    def test_family_0_t_1_at_zero(self, fam_0_t_1):
        st = analyze_at(fam_0_t_1, SWAP12, 0)
        assert isinstance(st, Survives)
        assert st.limit_map.image == UniPoly(QQ, [0, -1, 2])
        assert st.limit_map.algebra.modulus == UniPoly(QQ, [0, 0, -1, 1])

    def test_family_0_t_1_swap_poles_at_one(self, fam_0_t_1):
        st = analyze_at(fam_0_t_1, SWAP12, 1)
        assert st == PoleAt(coeff_index=1, order=1)

    def test_cycle_poles_at_zero_and_one(self, fam_0_t_1):
        assert isinstance(analyze_at(fam_0_t_1, CYCLE123, 0), PoleAt)
        assert isinstance(analyze_at(fam_0_t_1, CYCLE123, 1), PoleAt)

    def test_family_0_t_t2_poles_at_zero(self, fam_0_t_t2):
        assert analyze_at(fam_0_t_t2, SWAP12, 0) == PoleAt(1, 1)
        assert analyze_at(fam_0_t_t2, CYCLE123, 0) == PoleAt(1, 1)
        # the X^2 coefficient of the displayed cycle map has the order-2 pole
        pa = perm_coeff_vector(fam_0_t_t2, CYCLE123)
        assert pa[2].limit_at("t", 0) == Pole(2)

    def test_finite_limit_failing_verification_raises(self, fam_0_t_1, monkeypatch):
        # the mandatory check behind Survives: a finite limit that is not an
        # automorphism is an internal inconsistency, named by sigma and t0
        monkeypatch.setattr(AlgebraHom, "_isomorphic", property(lambda hom: False))
        with pytest.raises(InternalInconsistencyError,
                           match=r"^finite limit of \(12\) at t=0 is not an automorphism of "):
            analyze_at(fam_0_t_1, SWAP12, 0)
        assert analyze_at(fam_0_t_1, CYCLE123, 0) == PoleAt(1, 1)  # no limit, no check
        code, out = run(["family", "--roots", "0,t,1", "--at", "0"])
        assert (code, out.splitlines()[0]) == (
            2, "internal inconsistency: finite limit of id at t=0 is not an automorphism of "
            "Q[X]/(X^3 - X^2)")


class TestSurvivingSubgroup:
    def test_survivors_not_closed_raise(self, fam_0_t_1, monkeypatch):
        # the mandatory closure check: with the identity's limit turned into
        # a pole, the survivors {(12)} are not a subgroup of S3
        analyze = families.analyze_at

        def without_identity(fam, sigma, t0):
            return PoleAt(0, 1) if sigma == (0, 1, 2) else analyze(fam, sigma, t0)

        monkeypatch.setattr(families, "analyze_at", without_identity)
        with pytest.raises(InternalInconsistencyError,
                           match=r"^surviving set at t=0 is not a subgroup: \(12\)$"):
            surviving_subgroup(fam_0_t_1, 0)
        with pytest.raises(InternalInconsistencyError, match=r"^surviving set at t=1 .*: \(23\)$"):
            surviving_subgroup(fam_0_t_1, 1)

    def test_limits_form_each_product_once_and_a_listing_reuses_them(self, monkeypatch):
        # the limits add the family's memoized products adj_k[i] * p_j,
        # Taylor-shifted to each t0, so the 24 maps at every critical value
        # form at most n^3 = 64 products in all; in 0,t,1,t+1 some map
        # reaches every row of the table, so each of the 64 is read, and the
        # listing afterwards reads the same 64
        formed = []

        def counted(field, a, b):
            formed.append((a, b))
            return kernel(field, a, b)

        kernel = families._mul_values
        monkeypatch.setattr(families, "_mul_values", counted)
        fam = RootFamily(QQ, [tconst(0), tsym(), tconst(1), tsym() + tconst(1)])
        crit = fam.critical_values()
        assert crit == [QQ.coerce(v) for v in (0, 1, -1)]
        for t0 in crit:
            surviving_subgroup(fam, t0)
        assert len(formed) == 64
        for sigma in all_perms(4):
            perm_coeff_vector(fam, sigma)
        assert len(formed) == 64

    def test_family_0_t_1(self, fam_0_t_1):
        rep = surviving_subgroup(fam_0_t_1, 0)
        assert set(rep.surviving) == {(0, 1, 2), SWAP12}
        assert len(rep.statuses) == 6
        rep1 = surviving_subgroup(fam_0_t_1, 1)
        assert set(rep1.surviving) == {(0, 1, 2), SWAP23}

    def test_family_0_t_t2_all_collapse(self, fam_0_t_t2):
        rep = surviving_subgroup(fam_0_t_t2, 0)
        assert rep.surviving == ((0, 1, 2),)

    def test_two_root_family(self):
        fam = specialize_scaled_two(QQ, [1, 2])
        rep = surviving_subgroup(fam, 0)
        assert set(rep.surviving) == {(0, 1), (1, 0)}
        st = dict(rep.statuses)[(1, 0)]
        assert st.limit_map.image == UniPoly(QQ, [0, -1])  # X -> -X

    def test_four_root_family(self):
        # roots (0, t, 1, 2): at each critical value the colliding pair's
        # swap and the remaining simple pair's swap both survive, giving a
        # Klein four subgroup of S4
        t = tsym()
        c = tconst
        fam = RootFamily(QQ, [c(0), t, c(1), c(2)])
        assert {str(v) for v in fam.critical_values()} == {"0", "1", "2"}
        expected = {
            0: {(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)},
            1: {(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (3, 2, 1, 0)},
            2: {(0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1)},
        }
        for t0, survivors in expected.items():
            rep = surviving_subgroup(fam, t0)
            assert set(rep.surviving) == survivors
        # at t = 1 the roots (0, 1, 1, 2) are symmetric about 1 and the
        # double swap realizes the reflection X -> 2 - X
        rep1 = surviving_subgroup(fam, 1)
        m = dict(rep1.statuses)[(3, 2, 1, 0)].limit_map
        assert m.image == UniPoly(QQ, [2, -1])
        assert m.order() == 2

    def test_family_over_prime_field(self):
        # the (0, t, 1) analysis goes through verbatim over F7: the swap
        # survives at 0 with limit -X + 2X^2 = 6X + 2X^2
        f7 = GF(7)
        t = RationalFunction.symbol(f7, T, "t")
        c = lambda v: RationalFunction.constant(f7, T, v)
        fam = RootFamily(f7, [c(0), t, c(1)])
        assert {str(v) for v in fam.critical_values()} == {"0", "1"}
        rep = surviving_subgroup(fam, 0)
        assert set(rep.surviving) == {(0, 1, 2), SWAP12}
        assert dict(rep.statuses)[SWAP12].limit_map.image == UniPoly(f7, [0, 6, 2])

    def test_char2_limit_collapses_to_identity(self):
        # the swap of (0, t) over F2 has limit X + t -> X at t = 0: the map
        # survives only as the identity, so generic symmetry is lost
        f2 = GF(2)
        fam = specialize_scaled_two(f2, [0, 1])
        rep = surviving_subgroup(fam, 0)
        assert set(rep.surviving) == {(0, 1), (1, 0)}
        swap_limit = dict(rep.statuses)[(1, 0)].limit_map
        assert swap_limit.is_identity()
        # over Q the same construction keeps a genuine involution
        fam_q = specialize_scaled_two(QQ, [0, 1])
        swap_q = dict(surviving_subgroup(fam_q, 0).statuses)[(1, 0)].limit_map
        assert not swap_q.is_identity() and swap_q.order() == 2


class TestRandomFamilies:
    def test_random_polynomial_families_analyze_clean(self):
        # fuzz the whole pipeline: every finite limit must pass the
        # automorphism verification (analyze_at raises otherwise) and every
        # surviving set must close into a subgroup
        rng = random.Random(97)
        checked = 0
        while checked < 12:
            polys = []
            for _ in range(3):
                coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                polys.append(
                    RationalFunction.from_poly(
                        MultiPoly(QQ, T, {(k,): c for k, c in enumerate(coeffs)})
                    )
                )
            try:
                fam = RootFamily(QQ, polys)
            except ValueError:
                continue
            crits = fam.critical_values()
            for t0 in crits:
                rep = surviving_subgroup(fam, t0)
                assert (0, 1, 2) in rep.surviving
            checked += 1


def specialize_scaled_two(field, xs):
    xs = [field.coerce(x) for x in xs]
    t = MultiPoly.symbol(field, T, "t")
    return RootFamily(field, [RationalFunction.from_poly(t * x) for x in xs])


class TestSurvivalConditions:
    def test_swap12_condition(self):
        sc = survival_condition(SWAP12)
        x1, x2, x3 = (MultiPoly.symbol(QQ, ("x1", "x2", "x3"), s) for s in ("x1", "x2", "x3"))
        expected = (x2 - x1) * (2 * x3 - x1 - x2)
        assert _proportional(sc.condition, expected)

    def test_swap13_condition(self):
        sc = survival_condition(SWAP13)
        x1, x2, x3 = (MultiPoly.symbol(QQ, ("x1", "x2", "x3"), s) for s in ("x1", "x2", "x3"))
        expected = (x3 - x1) * (x3 + x1 - 2 * x2)
        assert _proportional(sc.condition, expected)

    def test_swap23_condition(self):
        sc = survival_condition(SWAP23)
        x1, x2, x3 = (MultiPoly.symbol(QQ, ("x1", "x2", "x3"), s) for s in ("x1", "x2", "x3"))
        expected = (x3 - x2) * (x2 + x3 - 2 * x1)
        assert _proportional(sc.condition, expected)

    def test_cycle_condition(self):
        sc = survival_condition(CYCLE123)
        x1, x2, x3 = (MultiPoly.symbol(QQ, ("x1", "x2", "x3"), s) for s in ("x1", "x2", "x3"))
        expected = -(x1**2 + x2**2 + x3**2) + x1 * x2 + x1 * x3 + x2 * x3
        assert _proportional(sc.condition, expected)
        sc2 = survival_condition(CYCLE132)
        assert _proportional(sc2.condition, expected)

    def test_conditions_invariant_under_own_permutation(self):
        # applying sigma to the x variables reproduces the condition up to a
        # nonzero constant factor
        for sigma in all_perms(3):
            sc = survival_condition(sigma)
            if sc.condition.is_zero():
                continue
            permuted = MultiPoly(
                QQ,
                ("x1", "x2", "x3"),
                {
                    tuple(e[sigma[i]] for i in range(3)): c
                    for e, c in sc.condition.terms.items()
                },
            )
            assert _proportional(permuted, sc.condition)

    def test_identity_condition_is_zero(self):
        sc = survival_condition((0, 1, 2))
        assert sc.condition.is_zero()

    def test_witness_1_3_2(self):
        sc = survival_condition(SWAP12)
        assert sc.holds_at([1, 3, 2])
        assert not sc.holds_at([1, 2, 3])
        vals = {"x1": QQ.coerce(1), "x2": QQ.coerce(3), "x3": QQ.coerce(2)}
        rat2 = sc.limit_linear_coeff.num.eval_all(vals) / sc.limit_linear_coeff.den.eval_all(vals)
        assert rat2 == QQ.coerce(-1)
        fam = specialize_scaled(QQ, [1, 3, 2])
        st = analyze_at(fam, SWAP12, 0)
        assert isinstance(st, Survives)
        assert st.limit_map.image == UniPoly(QQ, [0, -1])
        rep = surviving_subgroup(fam, 0)
        assert set(rep.surviving) == {(0, 1, 2), SWAP12}

    def test_generic_triples_kill_all_transpositions(self):
        rng = random.Random(77)
        checked = 0
        while checked < 20:
            xs = rng.sample(range(-9, 10), 3)
            x1, x2, x3 = xs
            if 2 * x3 == x1 + x2 or 2 * x2 == x1 + x3 or 2 * x1 == x2 + x3:
                continue
            fam = specialize_scaled(QQ, xs)
            rep = surviving_subgroup(fam, 0)
            assert not any(
                s in rep.surviving for s in (SWAP12, SWAP13, SWAP23)
            ), xs
            checked += 1

    def test_symbolic_family_coefficient_structure(self):
        # dual route: at a pairwise-distinct triple xs over Q, F_7 and F_11
        # the generic maps of the family (t*x1, t*x2, t*x3) agree with the
        # adjugate-derived survival data, with the shape (., rat2, rat3/t)
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        def check_over(field):
            if field.size() is None:
                values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
            else:
                values = st.integers(0, field.size() - 1)
            t = RationalFunction.symbol(field, T, "t")

            def const(c):
                return RationalFunction.constant(field, T, c)

            @settings(max_examples=25, deadline=None, database=None)
            @given(st.lists(values, min_size=3, max_size=3, unique=True))
            def check(raw):
                xs = [field.coerce(x) for x in raw]
                fam = specialize_scaled(field, xs)
                at = dict(zip(families.SCALED_SYMBOLS, xs))
                for sigma in all_perms(3):
                    coeffs = perm_coeff_vector(fam, sigma)
                    sc = survival_condition(sigma, field)
                    linear = sc.limit_linear_coeff
                    # X coefficient is t-free and equals rat2 at xs
                    assert coeffs[1] == const(linear.num.eval_all(at) / linear.den.eval_all(at))
                    # X^2 coefficient times t is t-free and equals condition/den at xs
                    assert coeffs[2] * t == const(
                        sc.condition.eval_all(at) / sc.denominator.eval_all(at)
                    )

            check()

        for field in (QQ, GF(7), GF(11)):
            check_over(field)

    def test_zeta3_witness(self):
        qz = rationals_with_cube_root()
        z = primitive_cube_root(qz)
        xs = [qz.zero, qz.one, -z]
        sc = survival_condition(CYCLE123, qz)
        assert sc.holds_at(xs)
        vals = {"x1": xs[0], "x2": xs[1], "x3": xs[2]}
        fam = specialize_scaled(qz, xs)
        rep = surviving_subgroup(fam, 0)
        assert set(rep.surviving) == {(0, 1, 2), CYCLE123, CYCLE132}
        lim123 = dict(rep.statuses)[CYCLE123].limit_map
        lim132 = dict(rep.statuses)[CYCLE132].limit_map
        # one cycle realizes X -> zeta3 X, the other X -> zeta3^2 X
        assert lim132.image == UniPoly(qz, [qz.zero, z])
        assert lim123.image == UniPoly(qz, [qz.zero, z * z])
        assert lim132.order() == 3 and lim123.order() == 3
        # the linear coefficient of the surviving cycle map equals zeta3
        sc132 = survival_condition(CYCLE132, qz)
        rat2 = sc132.limit_linear_coeff.num.eval_all(vals) / sc132.limit_linear_coeff.den.eval_all(vals)
        assert rat2 == z


def _proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """p = c*q for a nonzero constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    e, c = next(iter(q.terms.items()))
    if e not in p.terms:
        return False
    ratio = Fraction(p.terms[e], c)
    return p == q * ratio


class TestConjugation:
    def test_scaling_family(self):
        # pull X -> aX + (1-a)X^2 back through X -> tX
        ff = FunctionField(QQ, ("a", "t"))
        a, t = ff.symbol("a"), ff.symbol("t")
        source = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -t, ff.one]))
        target = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -ff.one, ff.one]))
        got = conjugate_through_iso(
            source,
            target,
            UniPoly(ff, [ff.zero, t]),
            UniPoly(ff, [ff.zero, a, ff.one - a]),
        )
        assert got.image == UniPoly(ff, [ff.zero, a, (ff.one - a) / t])
        assert got.is_endomorphism()
        # the X^2 coefficient (1-a)/t has a pole at t = 0 unless a = 1
        c2 = got.image.coeff(2).value
        assert c2.limit_at("t", 0) == Pole(1)
        at_one = RationalFunction(
            c2.num.substitute("a", 1), c2.den.substitute("a", 1)
        )
        lim = at_one.limit_at("t", 0)
        assert not isinstance(lim, Pole) and lim.is_zero()

    def test_identity_iso(self):
        g = conjugate_through_iso(
            MonogenicAlgebra(QQ, UniPoly(QQ, [0, 0, 0, 1])),
            MonogenicAlgebra(QQ, UniPoly(QQ, [0, 0, 0, 1])),
            UniPoly(QQ, [0, 1]),
            UniPoly(QQ, [0, 1, 1]),
        )
        assert g.image == UniPoly(QQ, [0, 1, 1])

    def test_scaling_iso_on_nilpotent_algebra(self):
        # oracle, by hand in the same direction as the scaling-family case
        # (pull back through iso: X -> tau^(-1)(alpha(tau(X)))):
        # tau(X) = 2X, alpha(2X) = 2X + 2X^2, tau^(-1) halves each power of X
        # coordinatewise image: 2*(X/2) + 2*(X/2)^2 = X + (1/2) X^2
        a3 = MonogenicAlgebra(QQ, UniPoly(QQ, [0, 0, 0, 1]))
        g = conjugate_through_iso(a3, a3, UniPoly(QQ, [0, 2]), UniPoly(QQ, [0, 1, 1]))
        assert g.image == UniPoly(QQ, [0, 1, Fraction(1, 2)])
        assert g.is_automorphism()
        # conjugating through the inverse isomorphism gives the mirror value
        h = conjugate_through_iso(
            a3, a3, UniPoly(QQ, [0, Fraction(1, 2)]), UniPoly(QQ, [0, 1, 1])
        )
        assert h.image == UniPoly(QQ, [0, 1, 2])
        assert h.is_automorphism()
        # either way, conjugation preserves the order
        assert g.order(10) == h.order(10) == SubstitutionMap(a3, [0, 1, 1]).order(10)

    def test_rejects_non_iso(self):
        a3 = MonogenicAlgebra(QQ, UniPoly(QQ, [0, 0, 0, 1]))
        with pytest.raises(ValueError):
            conjugate_through_iso(a3, a3, UniPoly(QQ, [0, 0, 1]), UniPoly(QQ, [0, 1]))
        with pytest.raises(ValueError):
            conjugate_through_iso(a3, a3, UniPoly(QQ, [0, 1]), UniPoly(QQ, [0, 0, 1]))


def conj_oracle(source, target, iso_image, aut_image):
    """The earlier construction, kept as the oracle: invert the isomorphism,
    then compose the image polynomials twice by Horner."""
    iso = AlgebraHom(source, target, iso_image)
    alpha = SubstitutionMap(target, aut_image)
    back = iso.inverse_image()
    step = iso.image.compose_mod(alpha.image, target.modulus)
    return SubstitutionMap(source, step.compose_mod(back, source.modulus))


def random_conjugation(rng, field):
    """(source, target, iota(X), alpha(X)) from small random elements (over a
    function field, affine polynomials in its symbols): iota: X -> c*X + d
    is an affine isomorphism source -> target, and alpha an automorphism of
    the target, on distinct roots z_i the Lagrange interpolant of a
    permutation of them, on (X - z)^m a map X -> z + c_1 (X - z) + ...
    with c_1 != 0."""
    if field.size() is not None:
        elem = lambda: field.coerce(rng.randrange(field.size()))
    elif field == QQ:
        elem = lambda: field.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    else:
        gens = [field.one] + [field.symbol(s) for s in field.symbols]
        elem = lambda: sum((rng.randint(-3, 3) * g for g in gens), field.zero)
    nonzero = lambda: next(x for x in iter(elem, None) if not x.is_zero())
    c, d = nonzero(), elem()
    if rng.random() < 0.5:
        zs, n = [], rng.randint(2, 3)
        while len(zs) < n:
            z = elem()
            if z not in zs:
                zs.append(z)
        perm = rng.sample(zs, len(zs))
        basis = lagrange_basis(field, zs)
        aut = sum((l * w for l, w in zip(basis, perm)), UniPoly.zero(field))
        flat = zs
    else:
        z, m = elem(), rng.randint(2, 3)
        shift = UniPoly(field, [-z, 1])
        aut = UniPoly.constant(field, z)
        for k in range(1, m):
            aut = aut + shift**k * (nonzero() if k == 1 else elem())
        flat = [z] * m
    target = MonogenicAlgebra.from_roots(field, flat)
    source = MonogenicAlgebra.from_roots(field, [c * z + d for z in flat])
    return source, target, UniPoly(field, [d, c]), aut


class TestConjugationAgainstInverseAndHorner:
    @pytest.mark.parametrize(
        "field",
        [QQ, GF(7), FunctionField(QQ, ("t",)), FunctionField(QQ, ("a", "t"))],
        ids=["Q", "F7", "Qt", "Qat"],
    )
    def test_same_map_as_the_earlier_construction(self, field):
        rng = random.Random(f"conj-{field}")
        for _ in range(12):
            source, target, iso_image, aut_image = random_conjugation(rng, field)
            got = conjugate_through_iso(source, target, iso_image, aut_image)
            want = conj_oracle(source, target, iso_image, aut_image)
            assert got == want
            # in one symbol equal rational functions print alike; in two,
            # with no multivariate gcd, only their values are compared
            assert len(getattr(field, "symbols", ())) > 1 or str(got) == str(want)
            assert got.is_automorphism()

    def test_readme_row_neither_inverts_nor_composes_by_horner(self, monkeypatch):
        calls = []
        for owner, name in [(UniPoly, "compose_mod"), (AlgebraHom, "inverse_image")]:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        code, out = run(["conj", "--field", "Q", "--symbols", "a,t", "--source-roots", "0,0,t",
                         "--target-roots", "0,0,1", "--iso", "0,t", "--aut", "0,a,1-a",
                         "--limit", "0"])
        assert code == 0 and "X -> a*X + ((-a + 1)/t)*X^2" in out
        assert calls == []


def test_perm_to_cycles():
    assert perm_to_cycles((0, 1, 2)) == "id"
    assert perm_to_cycles(SWAP12) == "(12)"
    assert perm_to_cycles(CYCLE123) == "(123)"
    assert perm_to_cycles((1, 0, 3, 2)) == "(12)(34)"


class TestNormalizeTriple:
    def test_affine_normalization_preserves_conditions(self):
        # whether sigma survives depends on the triple only up to
        # x -> alpha*x + beta, so a triple may be normalized to (0, 1, x3')
        rng = random.Random(31)
        seen = set()
        for field in (QQ, GF(5), GF(7)):
            conditions = [survival_condition(sigma, field) for sigma in all_perms(3)]
            values = list(dict.fromkeys(field.coerce(v) for v in range(-9, 10)))
            for _ in range(100):
                xs = rng.sample(values, 3)
                alpha = rng.choice([v for v in values if v])
                beta = rng.choice(values)
                for sc in conditions:
                    held = sc.holds_at(xs)
                    assert held == sc.holds_at([alpha * x + beta for x in xs])
                    seen.add(held)
        assert seen == {True, False}


# -- differential test: adjugate table against Gauss-Jordan ------------------

DIFF_FIELDS = [
    ("Q", QQ), ("Fp(5)", GF(5)), ("Fp(7)", GF(7)), ("Fp(11)", GF(11)), ("F(3,2)", GF(3, 2)),
    ("Qzeta3", rationals_with_cube_root()),
]


def gauss_jordan_vectors(fam, perms):
    """The pre-adjugate path, kept as a test-only oracle: invert the
    Vandermonde matrix of the roots over the function field by Gauss-Jordan
    elimination and apply it to every permuted root vector."""
    ff = FunctionField(fam.field, fam.symbols)
    roots = [ff.coerce(r) for r in fam.roots]
    m_inv = gauss_jordan_inverse(Matrix(ff, [[r**k for k in range(fam.n)] for r in roots]))
    return {
        sigma: [c.value for c in m_inv.mul_vec([roots[j] for j in sigma])]
        for sigma in perms
    }


def random_root_text(rng, kinds, bound):
    """A constant (kind 0), a linear (1) or quadratic (2) polynomial in t,
    or a quotient with denominator t + 1 or t + 2 (3), in CLI syntax, with
    integer coefficients in [-bound, bound]."""
    a, b, c = (rng.randint(-bound, bound) for _ in range(3))
    kind = rng.choice(kinds)
    if kind == 0:
        return f"{a}"
    if kind == 1:
        return f"{a}*t+({b})"
    if kind == 2:
        return f"({a})*t^2+({b})*t+({c})"
    return f"({a}+({b})*t)/(t+{rng.choice([1, 2])})"


def random_family(rng, field, n, cli_spec=None):
    """Root texts and family of n distinct roots.  Up to four roots, every
    other family starts with the rational-function root 1/(t+1); quadratic
    roots come with at most three roots and five roots are constant or
    linear with coefficients in [-1, 1], which keeps the oracle's
    elimination cheap.  With `cli_spec`,
    only families whose full `family` run succeeds (no root has a pole at
    a critical value) are returned."""
    kinds = {2: (0, 1, 2, 3), 3: (0, 1, 2, 3), 4: (0, 1, 3), 5: (0, 1)}[n]
    while True:
        texts = ["1/(t+1)"] if n < 5 and rng.random() < 0.5 else []
        bound = 1 if n == 5 else 3
        texts += [random_root_text(rng, kinds, bound) for _ in range(n - len(texts))]
        roots = [parse_ratfunc(x, field, T) for x in texts]
        try:
            fam = RootFamily(field, roots)
        except ValueError:
            continue
        if cli_spec is None:
            return texts, fam
        code, text = run(["family", "--roots", ",".join(texts), "--field", cli_spec, "--json"])
        if code == 0:
            return texts, json.loads(text)["results"]


class TestAdjugateAgainstGaussJordan:
    @pytest.mark.parametrize("spec,field", DIFF_FIELDS, ids=[f[0] for f in DIFF_FIELDS])
    def test_every_permutation_matches_oracle(self, spec, field):
        rng = random.Random(f"adjugate-{spec}")
        for n in (2, 3, 4, 5):
            _, fam = random_family(rng, field, n)
            perms = all_perms(n)
            expected = gauss_jordan_vectors(fam, perms)
            for sigma in perms:
                got = perm_coeff_vector(fam, sigma)
                assert list(got) == expected[sigma], (fam.roots, sigma)

    def test_rational_function_roots_with_shared_and_distinct_denominators(self):
        texts = ["1/(t+1)", "t/(t+1)", "1/(t+2)", "t"]
        fam = RootFamily(QQ, [parse_ratfunc(x, QQ, T) for x in texts])
        perms = all_perms(4)
        expected = gauss_jordan_vectors(fam, perms)
        for sigma in perms:
            assert list(perm_coeff_vector(fam, sigma)) == expected[sigma]

    def test_memoized_algebra_is_shared(self, fam_0_t_1):
        assert fam_0_t_1.algebra_at(0) is fam_0_t_1.algebra_at(QQ.coerce(0))

    @pytest.mark.parametrize("spec,field", DIFF_FIELDS, ids=[f[0] for f in DIFF_FIELDS])
    def test_single_perm_run_matches_full_run(self, spec, field):
        rng = random.Random(f"perm-run-{spec}")
        for n in (3, 4):
            texts, full = random_family(rng, field, n, cli_spec=spec)
            base = ["family", "--roots", ",".join(texts), "--field", spec, "--json"]
            for sigma in all_perms(n):
                cycles = perm_to_cycles(sigma)
                code, text = run(base + ["--perm", cycles])
                assert code == 0
                one = json.loads(text)["results"]
                assert one["generic_maps"] == [
                    g for g in full["generic_maps"] if g["perm"] == cycles
                ]
                assert [e["t"] for e in one["at"]] == [e["t"] for e in full["at"]]
                for e_one, e_full in zip(one["at"], full["at"]):
                    assert e_one["statuses"] == [
                        st for st in e_full["statuses"] if st["perm"] == cycles
                    ]


# -- differential test: critical values against the expanded product ---------


def _divisors(n):
    """Divisors of n >= 1 from its factorization by trial division, which
    is quick for the smooth constants of products of small factors."""
    divs, p = [1], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divs = [d * p**i for d in divs for i in range(k + 1)]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def expanded_product_critical_values(fam):
    """The search that expanded prod_{i<j} num(r_i - r_j), kept as a
    test-only oracle: every element of a finite field, or over Q the value
    0 and then every +-a/b with a dividing the lowest and b the highest
    coefficient of the integer-scaled product, in order of first
    appearance, that is a root of the product."""
    field, t = fam.field, fam.param
    num = MultiPoly.constant(field, fam.symbols, 1)
    for i in range(fam.n):
        for j in range(i + 1, fam.n):
            num = num * (fam.roots[i] - fam.roots[j]).num
    if field.size() is not None:
        return [z for z in field.elements() if num.eval_all({t: z}).is_zero()]
    found = [field.zero] if num.eval_all({t: field.zero}).is_zero() else []
    coeffs = {e[0]: c for e, c in num.terms.items()}
    lo, hi = min(coeffs), max(coeffs)
    if lo == hi:
        return found
    scale = math.lcm(*(v.denominator for v in coeffs.values()))
    ints = [int(coeffs.get(k, 0) * scale) for k in range(hi + 1)]

    def vanishes(q):
        # v^hi * P(u/v) by Horner in integers, for speed on many candidates
        u, v = q.numerator, q.denominator
        acc, vk = ints[hi], v
        for c in reversed(ints[:hi]):
            acc, vk = acc * u + c * vk, vk * v
        return acc == 0

    for a in _divisors(abs(ints[lo])):
        for b in _divisors(abs(ints[hi])):
            for s in (1, -1):
                q = Fraction(s * a, b)
                cand = field.coerce(q)
                if cand not in found and vanishes(q):
                    found.append(cand)
    return found


def collision_root_text(rng, max_deg):
    """A polynomial in t of degree 0..max_deg with coefficients in [-3, 3],
    a quarter of them halves or thirds, and in a quarter of the cases
    divided by a linear polynomial such as 2*t + 1."""

    def coeff():
        a = rng.randint(-3, 3)
        return f"{a}/{rng.choice([2, 3])}" if rng.random() < 0.25 else f"{a}"

    poly = "+".join(f"({coeff()})*t^{k}" for k in range(rng.randint(0, max_deg) + 1))
    if rng.random() < 0.25:
        return f"({poly})/({rng.choice(['2*t+1', 't+1', 't-2', '3*t-1'])})"
    return poly


def random_collision_family(rng, field, n):
    """Root texts and family of n distinct roots; degree 3 with up to three
    roots, 2 with four and 1 with five, so that the oracle's product and
    its divisor search stay small."""
    max_deg = {2: 3, 3: 3, 4: 2, 5: 1}[n]
    while True:
        texts = [collision_root_text(rng, max_deg) for _ in range(n)]
        try:
            return texts, RootFamily(field, [parse_ratfunc(x, field, T) for x in texts])
        except ValueError:
            continue


# The expanded-product oracle searches rational roots, while over Q(zeta3)
# critical_values solves quadratics in Q(zeta3) and leaves cubics unsearched
# (TestUnsearchedCriticalFactors covers that field).
CRITICAL_FIELDS = [f for f in DIFF_FIELDS if f[0] != "Qzeta3"]


class TestCriticalValuesAgainstExpandedProduct:
    @pytest.mark.parametrize("spec,field", CRITICAL_FIELDS, ids=[f[0] for f in CRITICAL_FIELDS])
    def test_same_values_in_same_order(self, spec, field):
        rng = random.Random(f"critical-{spec}")
        nonempty = 0
        for n in (2, 3, 4, 5):
            for _ in range(19):
                texts, fam = random_collision_family(rng, field, n)
                got = fam.critical_values()
                assert got == expanded_product_critical_values(fam), texts
                nonempty += len(got) > 1
        assert nonempty > 19  # the comparison is not between empty lists

    def test_rational_roots_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random("critical-sympy")
        for n in (2, 3, 4, 5):
            for _ in range(10):
                texts, fam = random_collision_family(rng, QQ, n)
                rs = [sympy.sympify(x.replace("^", "**"), locals={"t": t}) for x in texts]
                prod = sympy.Integer(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        prod *= sympy.numer(sympy.cancel(rs[i] - rs[j]))
                expected = set(sympy.Poly(prod, t, domain="QQ").ground_roots())
                got = {sympy.Rational(c.value.numerator, c.value.denominator)
                       for c in fam.critical_values()}
                assert got == expected, texts

    def test_linear_factors_over_qzeta3(self):
        # the search over Q needs rational coefficients; a linear factor
        # gives its root in any field, listed 0 first, then by sort_key
        qz = rationals_with_cube_root()
        roots = [parse_ratfunc(x, qz, T) for x in ["0", "t", "1", "zeta3", "zeta3*t + 2"]]
        got = RootFamily(qz, roots).critical_values()
        z = qz.generator()
        # t = 0, 1, zeta3 and the roots of (zeta3*t + 2) - r for r = 0, t, 1, zeta3
        others = {qz.one, z, -2 / z, 2 / (1 - z), -1 / z, (z - 2) / z}
        assert got == [qz.zero] + sorted(others, key=lambda c: c.sort_key())


class TestUnsearchedCriticalFactors:
    """Over Q(zeta3) a critical factor of degree >= 3, or a quadratic with
    zeta3 in its coefficients, is not searched; the run says so."""

    NOTE = ("note: the roots of the critical factor {} are not searched, "
            "so they are not listed among the critical values")

    # t^3 - 1 has the roots 1, zeta3, zeta3^2; t^2 - zeta3 has +-zeta3^2
    @pytest.mark.parametrize("roots,factor", [("0,t^3-1", "t^3 - 1"), ("0,t^2-zeta3", "t^2 - zeta3")])
    def test_one_note_per_unsearched_factor(self, roots, factor):
        code, out = run(["family", "--field", "Qzeta3", "--roots", roots])
        assert code == 0
        assert "critical values: none found" in out
        assert out.splitlines()[-1] == self.NOTE.format(factor)
        assert out.count("note:") == 1
        code, js = run(["family", "--field", "Qzeta3", "--roots", roots, "--json"])
        assert json.loads(js)["warnings"] == [self.NOTE.format(factor)[len("note: "):]]

    def test_the_factor_is_named_monic(self):
        qz = rationals_with_cube_root()
        fam = RootFamily(qz, [parse_ratfunc(x, qz, T) for x in ["0", "t^3-1", "2*t^3+3"]])
        assert fam.critical_values() == []
        assert [str(g) for g in fam.unsearched_factors()] == ["X^3 - 1", "X^3 + (3/2)", "X^3 + 4"]

    # 0,t^2-2: a searched quadratic without a root; 0,t,1,zeta3: the golden
    @pytest.mark.parametrize("roots", ["0,t^2-2", "0,t,1,zeta3"])
    def test_no_note_when_every_factor_is_searched(self, roots):
        code, out = run(["family", "--field", "Qzeta3", "--roots", roots])
        assert code == 0 and "note:" not in out
        code, js = run(["family", "--field", "Qzeta3", "--roots", roots, "--json"])
        assert "warnings" not in json.loads(js)


# -- differential test: shifted-table limits against reduced forms -----------


def reduced_form_status(fam, sigma, t0):
    """The reduced-form path, kept as a test-only oracle: limit each
    gcd-reduced coefficient of sigma's generic map (perm_coeff_vector) by
    RationalFunction.limit_at.  Returns ("pole", index, order) for the first
    coefficient without a limit, else ("survives", limit image)."""
    t0 = fam.field.coerce(t0)
    algebra = fam.algebra_at(t0)
    limits = []
    for k, c in enumerate(perm_coeff_vector(fam, sigma)):
        if c.is_zero():
            limits.append(fam.field.zero)
            continue
        lim = c.limit_at(fam.param, t0)
        if isinstance(lim, Pole):
            return ("pole", k, lim.order)
        limits.append(lim.as_constant())
    return ("survives", SubstitutionMap(algebra, UniPoly(fam.field, limits)).image)


def shifted_status(fam, sigma, t0):
    st = analyze_at(fam, sigma, t0)
    if isinstance(st, PoleAt):
        return ("pole", st.coeff_index, st.order)
    assert st.limit_map.is_automorphism()
    return ("survives", st.limit_map.image)


def assert_statuses_match(fam, t0):
    """Every permutation gets the same verdict, index, order and limit map
    from analyze_at as from the oracle; a root pole at t0 raises in both."""
    try:
        fam.algebra_at(t0)
    except ValueError:
        with pytest.raises(ValueError):
            analyze_at(fam, identity_perm(fam.n), t0)
        return 0
    for sigma in all_perms(fam.n):
        assert shifted_status(fam, sigma, t0) == reduced_form_status(fam, sigma, t0), (
            fam.roots, sigma, t0)
    return 1


RATIONAL_ROOTS = ["1/(t+1)", "(t+2)/(2*t+1)"]


class TestShiftedLimitsAgainstReducedForms:
    @pytest.mark.parametrize("spec,field", DIFF_FIELDS, ids=[f[0] for f in DIFF_FIELDS])
    def test_every_permutation_matches_oracle(self, spec, field):
        # Q(zeta3) arithmetic is slow, so its families stop at four roots,
        # one of them with a zeta3 coefficient
        rng = random.Random(f"shifted-{spec}")
        compared = 0
        for n in (2, 3, 3, 4) if spec == "Qzeta3" else (2, 3, 3, 4, 4, 5):
            texts, fam = random_family(rng, field, n)
            if n < 5 and rng.random() < 0.5:
                texts = [rng.choice(RATIONAL_ROOTS)] + texts[1:]
            if spec == "Qzeta3":
                texts = texts[:-1] + [rng.choice(["zeta3", "zeta3*t", "zeta3*t+1"])]
            try:
                fam = RootFamily(field, [parse_ratfunc(x, field, T) for x in texts])
            except ValueError:
                continue
            # the collisions, a root's pole (-1 or -2, or 1/2 over Q), and
            # one more value where nothing collides
            values = fam.critical_values()[:4] + [field.coerce(v) for v in (-1, 2)]
            for t0 in values:
                compared += assert_statuses_match(fam, t0)
        assert compared >= 8

    def test_named_rational_root_families(self):
        for texts in (["1/(t+1)", "t", "0", "1", "-1"], ["(t+2)/(2*t+1)", "t", "1", "2*t"]):
            fam = RootFamily(QQ, [parse_ratfunc(x, QQ, T) for x in texts])
            for t0 in fam.critical_values() + [QQ.coerce(-1), QQ.coerce(Fraction(-1, 2))]:
                assert_statuses_match(fam, t0)

    def test_non_permutation_raises_after_root_pole_check(self):
        fam = RootFamily(QQ, [parse_ratfunc(x, QQ, T) for x in ["1/(t+1)", "t", "0"]])
        with pytest.raises(ValueError, match="pole"):
            analyze_at(fam, (0, 0, 1), -1)
        with pytest.raises(ValueError, match="not a permutation"):
            analyze_at(fam, (0, 0, 1), 0)

    def test_six_roots_over_f7_in_subprocess(self):
        # all 720 permutations of a 6-root family at two collision values,
        # the oracle included, in a fresh process under a time bound
        tests = Path(__file__).resolve().parent
        code = (
            "import sys\n"
            f"sys.path[:0] = [{str(tests)!r}, {str(tests.parent / 'src')!r}]\n"
            "from test_families import *\n"
            "f7 = GF(7)\n"
            "texts = ['0', 't', '1', '2*t', '3', '-1']\n"
            "fam = RootFamily(f7, [parse_ratfunc(x, f7, T) for x in texts])\n"
            "for t0 in (0, 3):\n"
            "    assert assert_statuses_match(fam, t0)\n"
            "    print(t0, len(surviving_subgroup(fam, t0).surviving))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              timeout=10, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        # at 0 the survivors are the six permutations of the roots 1, 3, -1
        # times the swap of the roots 0 and 2t
        assert proc.stdout.decode().split("\n")[0] == "0 12"

    def test_cap_is_seven_roots(self):
        fam = RootFamily(QQ, [parse_ratfunc(x, QQ, T) for x in "0 t 1 2 3 4 5 6".split()])
        with pytest.raises(ValueError, match="n <= 7"):
            surviving_subgroup(fam, 0)


class TestRootsFromCanonicalPairs:
    """A family reads each root once as its canonical pair (num, den) in t;
    the roots' own limits and RationalFunction equality are the oracles."""

    @pytest.mark.parametrize("spec,field", DIFF_FIELDS, ids=[f[0] for f in DIFF_FIELDS])
    def test_roots_at_is_the_limit_of_each_root(self, spec, field):
        rng = random.Random(f"roots-at-{spec}")
        texts = ["(t+2)/(2*t+1)", "t^2/(t+1)", "1/t", "(3*t+1)/2", "(t^2+1)/(t^2+2)"]
        if field.size() is None:
            values = [field.coerce(Fraction(a, b)) for a in range(-3, 4) for b in (1, 2)]
        else:
            values = list(field.elements())
        poles = 0
        for _ in range(6):
            chosen = ["1/(t-1)", rng.choice(texts)] + [random_root_text(rng, (0, 1, 2, 3), 3) for _ in range(2)]
            try:
                fam = RootFamily(field, [parse_ratfunc(x, field, T) for x in chosen])
            except ValueError:
                continue
            for t0 in values:
                limits = [r.limit_at("t", t0) for r in fam.roots]
                if any(isinstance(lim, Pole) for lim in limits):
                    poles += 1
                    with pytest.raises(ValueError) as err:
                        fam.roots_at(t0)
                    assert str(err.value) == f"root has a pole at t = {t0}"
                else:
                    assert fam.roots_at(t0) == [lim.as_constant() for lim in limits]
        assert poles > 0

    @pytest.mark.parametrize("spec,field", DIFF_FIELDS, ids=[f[0] for f in DIFF_FIELDS])
    def test_equal_pairs_are_exactly_equal_roots(self, spec, field):
        # each root written several ways, so equal roots arrive as different texts
        texts = ["1/(t-1)", "2/(2*t-2)", "(t+1)/(t^2-1)", "t", "t^2/t", "(2*t+2)/2", "t+1", "0",
                 "0/(t+1)", "(t^2+t)/(2*t)"]
        rng = random.Random(f"distinct-{spec}")
        seen = set()
        for _ in range(60):
            roots = [parse_ratfunc(x, field, T) for x in rng.sample(texts, 3)]
            equal = [(i, j) for i in range(3) for j in range(i + 1, 3) if roots[i] == roots[j]]
            seen.add(bool(equal))
            if equal:
                i, j = equal[0]
                with pytest.raises(ValueError, match=rf"^roots {i + 1} and {j + 1} coincide as rational functions$"):
                    RootFamily(field, roots)
            else:
                assert RootFamily(field, roots).roots == tuple(roots)
        assert seen == {True, False}

    def test_parsing_and_survival_run_no_canonical_kernel_and_no_limit(self, monkeypatch):
        # a polynomial over 1 is its own canonical form, and root values
        # are read from the canonical pairs by Horner
        calls = []
        for owner, name in [(poly, "_dense_canonical"), (RationalFunction, "limit_at")]:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        roots = parse_ratfunc_list("0,t,1,2*t,3", QQ, T)
        assert calls == []
        fam = RootFamily(QQ, roots)
        crit = fam.critical_values()
        assert crit == [QQ.coerce(v) for v in (0, 1, Fraction(1, 2), 3, Fraction(3, 2))]
        for t0 in crit:
            surviving_subgroup(fam, t0)
        assert "limit_at" not in calls
