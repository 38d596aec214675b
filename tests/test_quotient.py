import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from symlab import quotient
from symlab.cli import run
from symlab.fields import GF, QQ, FieldError, rationals_with_cube_root
from symlab.linalg import MAX_DIMENSION, Matrix, laplace_det
from symlab.parse import parse_ratfunc, parse_ratfunc_list
from symlab.poly import FunctionField, MultiPoly, UniPoly
from symlab.quotient import (
    IDEMPOTENT_BUDGET,
    AlgebraElement,
    AlgebraHom,
    MonogenicAlgebra,
    SubstitutionMap,
    aut_description,
    brute_force_automorphisms,
    check_idempotent_weight,
    idempotents,
    lagrange_basis,
    lagrange_numerator,
    lagrange_pairs,
    root_differences,
    vandermonde_adjugate,
    vandermonde_pair,
    verify_idempotents,
)


def partitions(n, largest=None):
    """The partitions of n, each as a non-increasing tuple."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (m,) + rest
        for m in range(min(n, largest), 0, -1)
        for rest in partitions(n - m, m)
    ]


def count_evaluations(monkeypatch, name):
    """Patch the cached property `name` of AlgebraHom so that every map it
    is computed for is recorded; returns the list of those maps."""
    compute = AlgebraHom.__dict__[name].func
    calls = []

    def counting(hom):
        calls.append(hom)
        return compute(hom)

    prop = functools.cached_property(counting)
    prop.__set_name__(AlgebraHom, name)
    monkeypatch.setattr(AlgebraHom, name, prop)
    return calls


def algebra(field, coeffs):
    return MonogenicAlgebra(field, UniPoly(field, coeffs))


X3 = algebra(QQ, [0, 0, 0, 1])  # Q[X]/(X^3)
X3X2 = algebra(QQ, [0, 0, -1, 1])  # Q[X]/(X^3 - X^2)


class TestElementArithmetic:
    def test_mul_mod_examples(self):
        x = X3.gen()
        assert ((x * x) * (x * x)).is_zero()  # X^4 = 0 mod X^3
        y = X3X2.gen()
        assert (y * y) * (y * y) == y * y  # X^2 is idempotent mod X^3 - X^2
        # oracle: reduce X^4 by long division mod X^3 - 3X^2
        a = algebra(QQ, [0, 0, -3, 1])
        x4 = UniPoly(QQ, [0, 0, 0, 0, 1])
        _, r = divmod(x4, a.modulus)
        assert r == UniPoly(QQ, [0, 0, 9])
        z = a.gen()
        assert (z * z) * (z * z) == a.element([0, 0, 9])

    def test_unit_and_commutativity(self):
        x = X3X2.gen()
        one = X3X2.one()
        assert one * x == x and x * one == x
        u = X3X2.element([1, 2, 3])
        v = X3X2.element([-1, 0, Fraction(1, 2)])
        assert u * v == v * u

    def test_owner_mismatch(self):
        with pytest.raises(ValueError):
            X3.gen() * X3X2.gen()


class TestSubstitutionMaps:
    def test_apply_examples(self):
        # X -> aX on Q(a)[X]/(X^2)
        ff = FunctionField(QQ, ("a",))
        a2 = algebra(ff, [0, 0, 1])
        amap = SubstitutionMap(a2, [ff.zero, ff.symbol("a")])
        assert amap(a2.gen()) == a2.element([0, ff.symbol("a")])
        # X -> -X + 2X^2 fixes X^2 in Q[X]/(X^3 - X^2)
        g = SubstitutionMap(X3X2, [0, -1, 2])
        x = X3X2.gen()
        assert g(x * x) == x * x
        assert SubstitutionMap.identity(X3X2)(x) == x

    def test_apply_is_ring_hom_when_endomorphism(self):
        g = SubstitutionMap(X3X2, [0, -1, 2])
        assert g.is_endomorphism()
        rng = random.Random(3)
        for _ in range(50):
            u = X3X2.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
            v = X3X2.element([Fraction(rng.randint(-5, 5)) for _ in range(3)])
            assert g(u + v) == g(u) + g(v)
            assert g(u * v) == g(u) * g(v)

    def test_is_endomorphism_examples(self):
        # on Q[X]/(X^3): c + aX + bX^2 is an endomorphism iff c = 0
        ff = FunctionField(QQ, ("a", "b", "c"))
        a3 = algebra(ff, [0, 0, 0, 1])
        a, b, c = ff.symbol("a"), ff.symbol("b"), ff.symbol("c")
        assert SubstitutionMap(a3, [ff.zero, a, b]).is_endomorphism()
        assert not SubstitutionMap(a3, [c, a, b]).is_endomorphism()
        # X -> aX + (1-a)X^2 with a = 5 on Q[X]/(X^3 - X^2)
        assert SubstitutionMap(X3X2, [0, 5, -4]).is_endomorphism()
        # X -> aX + (1-a)/t X^2 on Q(a,t)[X]/(X^3 - tX^2)
        fft = FunctionField(QQ, ("a", "t"))
        at, tt = fft.symbol("a"), fft.symbol("t")
        famalg = MonogenicAlgebra(fft, UniPoly(fft, [fft.zero, fft.zero, -tt, fft.one]))
        g = SubstitutionMap(famalg, [fft.zero, at, (fft.one - at) / tt])
        assert g.is_endomorphism()

    def test_is_automorphism_examples(self):
        assert not SubstitutionMap(X3, [0, 0, 5]).is_automorphism()  # a = 0
        assert SubstitutionMap(X3X2, [0, -1, 2]).is_automorphism()
        assert SubstitutionMap.identity(X3).is_automorphism()
        assert SubstitutionMap(X3, [0, 0, 1]).is_endomorphism()  # X -> X^2

    def test_inverse_examples(self):
        # symbolic: X -> aX inverts to X -> X/a
        ff = FunctionField(QQ, ("a",))
        a3 = algebra(ff, [0, 0, 0, 1])
        amap = SubstitutionMap(a3, [ff.zero, ff.symbol("a")])
        assert amap.inverse().image == UniPoly(ff, [ff.zero, ff.symbol("a").inverse()])
        # involution is self-inverse
        g = SubstitutionMap(X3X2, [0, -1, 2])
        assert g.inverse() == g
        # oracle: (X - X^2) + (X - X^2)^2 = X mod X^3
        h = SubstitutionMap(X3, [0, 1, 1])
        hinv = h.inverse()
        assert hinv.image == UniPoly(QQ, [0, 1, -1])
        assert h.compose(hinv).is_identity() and hinv.compose(h).is_identity()

    def test_inverse_of_non_automorphism(self):
        with pytest.raises(ValueError):
            SubstitutionMap(X3, [0, 0, 1]).inverse()

    def test_order_examples(self):
        assert SubstitutionMap(X3X2, [0, -1, 2]).order() == 2
        assert SubstitutionMap.identity(X3).order() == 1
        f7 = GF(7)
        a3 = algebra(f7, [0, 0, 0, 1])
        assert SubstitutionMap(a3, [0, 2, 0]).order() == 3  # 2^3 = 1 mod 7
        assert SubstitutionMap(algebra(f7, [4, 1]), [3]).order() == 1  # X = 3 on F_7[X]/(X + 4)
        ff = FunctionField(QQ, ("a",))
        assert SubstitutionMap(algebra(ff, [0, 0, 1]), [ff.zero, -ff.one]).order() == 2

    def test_order_of_non_automorphism(self):
        for g in (SubstitutionMap(X3, [0, 0, 1]), SubstitutionMap(X3X2, [0, 1, 1])):
            assert not g.is_automorphism()
            with pytest.raises(ValueError, match="non-automorphism"):
                g.order()

    def test_automorphism_implies_endomorphism_randomized(self):
        rng = random.Random(5)
        f5 = GF(5)
        a = MonogenicAlgebra.from_roots(f5, [0, 1, 2])
        elems = list(f5.elements())
        for _ in range(100):
            g = SubstitutionMap(a, [elems[rng.randrange(5)] for _ in range(3)])
            if g.is_automorphism():
                assert g.is_endomorphism()
                inv = g.inverse()
                assert g.compose(inv).is_identity()


class TestIdempotents:
    def test_degree_one_lagrange(self):
        a = MonogenicAlgebra.from_roots(QQ, [0, 1])
        e1, e2 = idempotents(a.field, [0, 1])
        assert e1 == a.element([1, -1]) and e2 == a.element([0, 1])

    def test_cubic_example(self):
        a = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
        es = idempotents(a.field, [0, 1, 2])
        # oracle: e0 = (X^2 - 3X + 2)/2, then e0^2 = e0
        assert es[0] == a.element([1, Fraction(-3, 2), Fraction(1, 2)])
        assert es[0] * es[0] == es[0]

    def test_symbolic_family_idempotent(self):
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        a = MonogenicAlgebra.from_roots(ff, [ff.zero, t, ff.one])
        es = idempotents(a.field, [ff.zero, t, ff.one])
        # e_t = (X^2 - X)/(t^2 - t)
        d = (t * t - t).inverse()
        assert es[1] == a.element([ff.zero, -d, d])

    def test_idempotent_suite_randomized(self):
        rng = random.Random(42)
        done = 0
        while done < 200:
            n = rng.choice([3, 4])
            roots = rng.sample(range(-5, 6), n)
            a = MonogenicAlgebra.from_roots(QQ, roots)
            es = idempotents(a.field, roots)
            for i in range(n):
                for j in range(n):
                    expected = es[i] if i == j else a.zero()
                    assert es[i] * es[j] == expected
            assert sum(es[1:], es[0]) == a.one()
            x = a.gen()
            for z, e in zip(roots, es):
                assert x * e == QQ.coerce(z) * e
            # coordinates of X in the idempotent basis equal the root vector
            # (idempotent coords of a power-basis vector c are M * c)
            m, _ = vandermonde_pair(QQ, roots)
            coords = m.mul_vec([QQ.coerce(c) for c in x.coeffs])
            assert coords == [QQ.coerce(z) for z in roots]
            done += 1

    def test_idempotents_are_the_columns_of_adj_over_det(self):
        # M c = (e_i(z_1), ..., e_i(z_n)) = the i-th unit vector, so the
        # coordinates of e_i form column i of M^(-1) = adj/det
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        cases = [
            (QQ, [0, 1, 2, Fraction(5, 2)]),
            (GF(7), [1, 3, 4, 6]),
            (ff, [ff.zero, t, ff.one, (t + ff.one).inverse()]),
        ]
        for field, roots in cases:
            zs = [field.coerce(z) for z in roots]
            a = MonogenicAlgebra.from_roots(field, zs)
            adj, det = vandermonde_adjugate(zs, field.one)
            inv = det.inverse()
            for i, e in enumerate(idempotents(a.field, zs)):
                assert [e.coeff(k) for k in range(len(zs))] == [adj[k][i] * inv for k in range(len(zs))]

    def test_lagrange_numerator(self):
        one = QQ.one
        zs = [QQ.coerce(z) for z in (1, 2, 3)]
        assert lagrange_numerator(zs, 0, one) == [6, -5, 1]  # (X - 2)(X - 3)
        assert lagrange_numerator(zs, 2, one) == [2, -3, 1]  # (X - 1)(X - 2)
        assert lagrange_numerator(zs[:1], 0, one) == [1]

    @pytest.mark.parametrize(
        "field",
        [GF(5), GF(7), GF(2, 2), QQ, rationals_with_cube_root()],
        ids=["F5", "F7", "F4", "Q", "Qzeta3"],
    )
    def test_lagrange_basis_interpolates(self, field):
        # l_i(z_j) = delta_ij, sum_i l_i = 1, and d_i = N_i(z_i)
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        if field.size() is not None:
            values = st.sampled_from(list(field.elements()))
        else:
            rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
            values = st.builds(lambda x, y: field.coerce(x) + field.generator() * field.coerce(y),
                               rational, rational) if field != QQ else rational.map(field.coerce)

        @settings(max_examples=40, deadline=None, database=None)
        @given(st.lists(values, min_size=1, max_size=5, unique_by=str))
        def check(zs):
            one, zero = field.one, field.zero
            basis = lagrange_basis(field, zs)
            for i, ((num, d), l) in enumerate(zip(lagrange_pairs(zs, one), basis)):
                assert UniPoly(field, num)(zs[i]) == d
                assert l == UniPoly(field, num) * d.inverse()
                assert [l(z) for z in zs] == [one if j == i else zero for j in range(len(zs))]
            assert sum(basis, UniPoly.zero(field)) == UniPoly.constant(field, 1)

        check()

    def test_lagrange_pairs_over_a_polynomial_ring(self):
        # over k[a, t], with no division: N_i(z_j) = 0 for j != i,
        # N_i(z_i) = d_i, and sum_i N_i * prod_{j != i} d_j = prod_j d_j
        syms = ("a", "t")
        one = MultiPoly.constant(QQ, syms, 1)
        a, t = (MultiPoly.symbol(QQ, syms, s) for s in syms)
        zs = [one - one, a, t, a + t * 2, a * t - one]
        pairs = lagrange_pairs(zs, one)

        def at(cs, z):
            acc = one - one
            for c in reversed(cs):
                acc = acc * z + c
            return acc

        for i, (num, d) in enumerate(pairs):
            assert num == lagrange_numerator(zs, i, one)
            assert [at(num, z) for z in zs] == [d if j == i else one - one for j in range(len(zs))]
        ds = [d for _, d in pairs]
        total = [one - one] * len(zs)
        for i, (num, _) in enumerate(pairs):
            rest = functools.reduce(lambda x, y: x * y, ds[:i] + ds[i + 1:], one)
            total = [s + c * rest for s, c in zip(total, num)]
        assert total == [functools.reduce(lambda x, y: x * y, ds, one)] + [one - one] * (len(zs) - 1)

    def test_errors(self):
        a = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
        with pytest.raises(ValueError):
            idempotents(a.field, [0, 1, 1])

    def test_repeated_roots_refused_by_their_zero_d_i(self):
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        for field, roots in [(QQ, [0, 1, 1]), (GF(7), [2, 5, 9]), (ff, [t, ff.one, t])]:
            zs = [field.coerce(z) for z in roots]
            with pytest.raises(ValueError, match="^roots must be pairwise distinct$"):
                lagrange_basis(field, zs)
            with pytest.raises(ValueError, match="^roots must be pairwise distinct$"):
                idempotents(field, zs)

    def test_idem_multiplies_its_modulus_out_once(self, monkeypatch):
        # idempotents builds the algebra of its roots, and the CLI reads it
        # from the basis
        honest = UniPoly.from_roots
        calls = []

        def counted(cls, field, roots):
            calls.append(roots)
            return honest(field, roots)

        monkeypatch.setattr(UniPoly, "from_roots", classmethod(counted))
        code, out = run(["idem", "--roots", "0,t,1", "--symbols", "t"])
        assert code == 0 and "verified" in out
        assert len(calls) == 1


def product_verification(algebra, roots, es):
    """The oracle: every product e_i*e_j, the sum of the e_i and each X*e_i
    computed in the algebra over the field, as idem checked before the
    identities over k[symbols]."""
    n = len(es)
    x = algebra.gen()
    return (
        all(
            (es[i] * es[j]).is_zero() if i != j else es[i] * es[j] == es[i]
            for i in range(n)
            for j in range(n)
        )
        and sum(es[1:], es[0]) == algebra.one()
        and all(x * e == z * e for z, e in zip(roots, es))
    )


# Roots in no symbol, one and two symbols, with rational ones among them.
VERIFY_ROOTS = {
    (): ["0", "1", "-2", "3", "1/2", "-3/4", "5/3"],
    ("t",): ["0", "1", "-2", "1/2", "t", "2*t", "t^2", "t+1", "1/(t+1)", "t/(t+2)",
             "(t-1)/(t^2+3)", "2/t"],
    ("a", "t"): ["0", "1", "-2", "t", "a", "2*t", "a*t", "a+t", "1/(t+1)", "t/(a+1)",
                 "1/(a-t)", "(a+2)/(t+3)"],
}
VERIFY_FIELDS = [QQ, GF(5), GF(7), GF(11)]


def _verify_cases(count, seed):
    """(algebra, roots, idempotents) for distinct roots drawn at random; a
    draw whose roots collide or leave the field is skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        symbols = rng.choice(list(VERIFY_ROOTS))
        base = rng.choice(VERIFY_FIELDS)
        # the oracle's products swell past two roots in two symbols
        n = rng.choice([2] if len(symbols) == 2 else [2, 3, 4])
        field = FunctionField(base, symbols) if symbols else base
        try:
            rfs = [parse_ratfunc(r, base, symbols) for r in rng.sample(VERIFY_ROOTS[symbols], n)]
            zs = [field.coerce(r) if symbols else r.as_constant() for r in rfs]
            algebra = MonogenicAlgebra.from_roots(field, zs)
            out.append((algebra, zs, idempotents(algebra.field, zs)))
        except (FieldError, ValueError, ZeroDivisionError):
            continue
    return out


class TestVerifyIdempotents:
    def test_agrees_with_products_in_the_algebra(self):
        kinds = Counter()
        for algebra, zs, es in _verify_cases(60, seed=3):
            assert verify_idempotents(zs, es) is True
            assert product_verification(algebra, zs, es)
            kinds[(str(algebra.field), len(zs))] += 1
        assert len(kinds) >= 15

    def test_agrees_with_products_three_roots_two_symbols(self):
        cases = [
            (QQ, ["0", "a", "t"]),
            (QQ, ["-a", "0", "3*t"]),
            (GF(5), ["a+t", "1", "2*a"]),
            (GF(7), ["0", "1/(a+1)", "t"]),
            (GF(11), ["a*t", "1", "t"]),
        ]
        for base, roots in cases:
            field = FunctionField(base, ("a", "t"))
            zs = [field.coerce(parse_ratfunc(r, base, ("a", "t"))) for r in roots]
            algebra = MonogenicAlgebra.from_roots(field, zs)
            es = idempotents(algebra.field, zs)
            assert verify_idempotents(zs, es) is True
            assert product_verification(algebra, zs, es), roots

    def test_one_perturbed_coefficient_fails(self):
        rng = random.Random(4)
        for algebra, zs, es in _verify_cases(40, seed=5):
            i, k = rng.randrange(len(es)), rng.randrange(len(zs))
            coeffs = [es[i].coeff(j) for j in range(len(zs))]
            coeffs[k] = coeffs[k] + algebra.field.one
            bad = list(es)
            bad[i] = AlgebraElement(algebra, coeffs)
            assert verify_idempotents(zs, bad) is False
            assert not product_verification(algebra, zs, bad)

    def test_idempotents_of_other_roots_fail(self):
        # the identities hold for the Lagrange idempotents of the roots
        # given, and for no permutation of them
        algebra = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
        zs = [QQ.coerce(z) for z in (0, 1, 2)]
        es = idempotents(algebra.field, zs)
        assert verify_idempotents(zs, es)
        assert not verify_idempotents(zs, [es[1], es[0], es[2]])
        assert not verify_idempotents(zs, es[:2])

    def test_consistent_wrong_pairs_fail_at_the_values(self, monkeypatch):
        # idempotents and the coefficient step read the same lagrange_pairs,
        # so only the values at the roots tell e_i + 1 from e_i: N_i[0] + d_i
        # is consistent under the scaling by q
        honest = quotient.lagrange_pairs

        def wrong(zs, one):
            pairs = honest(zs, one)
            num, d = pairs[-1]
            pairs[-1] = ([num[0] + d] + num[1:], d)
            return pairs

        monkeypatch.setattr(quotient, "lagrange_pairs", wrong)
        kinds = set()
        for algebra, zs, es in _verify_cases(30, seed=6):
            assert verify_idempotents(zs, es) is False
            assert not product_verification(algebra, zs, es)
            kinds.add(str(algebra.field))
        assert len(kinds) >= 6

    def test_a_zero_d_i_fails(self, monkeypatch):
        # N_i = 0 and d_i = 0 pass both the coefficient and the value
        # comparisons; only the nonzero test on d_i refuses them
        honest = quotient.lagrange_pairs

        def zero_pair(zs, one):
            pairs = honest(zs, one)
            pairs[1] = ([one - one] * len(zs), one - one)
            return pairs

        cases = _verify_cases(10, seed=7)
        monkeypatch.setattr(quotient, "lagrange_pairs", zero_pair)
        for algebra, zs, es in cases:
            assert verify_idempotents(zs, es) is False

    def test_repeated_roots_fail(self):
        algebra = MonogenicAlgebra.from_roots(QQ, [0, 1, 2])
        es = idempotents(algebra.field, [QQ.coerce(z) for z in (0, 1, 2)])
        assert not verify_idempotents([QQ.coerce(z) for z in (1, 1, 2)], es)

    def test_single_root(self):
        algebra = MonogenicAlgebra.from_roots(GF(5), [3])
        zs = [GF(5).coerce(3)]
        assert verify_idempotents(zs, idempotents(algebra.field, zs))


FRACTIONAL_ROOTS = ["1/(t+1)", "t/(a+1)", "1/(a-t)", "(a+2)/(t+3)", "1/(a+2*t)", "a/(t-2)", "(t+1)/(a+3)"]


class TestIdempotentWeight:
    @staticmethod
    def check(roots, symbols):
        check_idempotent_weight(parse_ratfunc_list(roots, QQ, symbols))

    def test_admitted(self):
        self.check(",".join(map(str, range(MAX_DIMENSION))), ())
        self.check(",".join(f"{i}*t+{i}^2" for i in range(MAX_DIMENSION)), ("t",))
        for roots in ("0,a,t,1,a+t", "1/(a-t),a,t,0,(a+2)/(t+3)", ",".join(FRACTIONAL_ROOTS[:5])):
            self.check(roots, ("a", "t"))

    def test_refused_past_the_root_count(self):
        with pytest.raises(ValueError, match=f"15 roots are past MAX_DIMENSION = {MAX_DIMENSION}"):
            self.check(",".join(map(str, range(15))), ())

    def test_refused_past_the_weight(self):
        # six fractional roots in a,t: n^2 * C(5*6 + 2, 2) = 36 * 496
        with pytest.raises(ValueError, match=f"17856 is past IDEMPOTENT_BUDGET = {IDEMPOTENT_BUDGET}"):
            self.check(",".join(FRACTIONAL_ROOTS[:6]), ("a", "t"))
        with pytest.raises(ValueError, match="IDEMPOTENT_BUDGET"):
            self.check(",".join(f"1/(t+{i})" for i in range(10)), ("t",))


class TestVandermonde:
    def test_symbolic_inverse_of_three_roots(self):
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        m, m_inv = vandermonde_pair(ff, [ff.zero, t, ff.one])
        assert m * m_inv == Matrix.identity(ff, 3)
        # published inverse: (1/((1-t)t)) [[t-t^2,0,0],[-(1-t^2),1,-t^2],[1-t,-1,t]]
        s = ((ff.one - t) * t).inverse()
        expected = Matrix(
            ff,
            [
                [(t - t * t) * s, ff.zero, ff.zero],
                [-(ff.one - t * t) * s, s, -(t * t) * s],
                [(ff.one - t) * s, -s, t * s],
            ],
        )
        assert m_inv == expected

    def test_det_of_geometric_roots(self):
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        m, m_inv = vandermonde_pair(ff, [ff.zero, t, t * t])
        assert m.det() == t**4 * (t - ff.one)
        assert m * m_inv == Matrix.identity(ff, 3)
        # published inverse (1/(t^4(t-1))) [[t^5-t^4,0,0],[-(t^4-t^2),t^4,-t^2],[t^2-t,-t^2,t]]
        s = (t**4 * (t - ff.one)).inverse()
        expected = Matrix(
            ff,
            [
                [(t**5 - t**4) * s, ff.zero, ff.zero],
                [-(t**4 - t * t) * s, t**4 * s, -(t * t) * s],
                [(t * t - t) * s, -(t * t) * s, t * s],
            ],
        )
        assert m_inv == expected

    def test_identity_round_trip(self):
        m, m_inv = vandermonde_pair(QQ, [2, 3, 5, 7])
        assert m * m_inv == Matrix.identity(QQ, 4)

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError, match="roots must be pairwise distinct"):
            vandermonde_pair(QQ, [1, 1, 2])

    def test_inverse_is_the_lagrange_basis(self, monkeypatch):
        # column i of the inverse holds l_i; no adjugate and no inversion
        def refuse(*args):
            raise AssertionError("vandermonde_pair needs no adjugate and no inverse")

        monkeypatch.setattr(quotient, "vandermonde_adjugate", refuse)
        monkeypatch.setattr(Matrix, "inverse", refuse)
        for field, roots in [(QQ, [2, 3, 5, 7]), (GF(7), [0, 1, 3]), (FunctionField(QQ, ("t",)), [0, 1])]:
            zs = [field.coerce(z) for z in roots]
            m, m_inv = vandermonde_pair(field, zs)
            assert m * m_inv == Matrix.identity(field, len(zs))
            for i, l in enumerate(lagrange_basis(field, zs)):
                assert [m_inv[k, i] for k in range(len(zs))] == [l.coeff(k) for k in range(len(zs))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adjugate_equals_cofactors_for_polynomial_roots(self, n):
        # division-free on symbolic roots z_i: adj[k][i] is the (i, k)
        # cofactor and det the Laplace determinant, exactly as polynomials
        syms = tuple(f"z{i}" for i in range(n))
        one = MultiPoly.constant(QQ, syms, 1)
        zs = [MultiPoly.symbol(QQ, syms, s) for s in syms]
        rows = [[z**k for k in range(n)] for z in zs]
        adj, det = vandermonde_adjugate(zs, one)
        assert det == laplace_det(rows)
        # the determinant alone, multiplied in the same order, prints alike
        assert str(root_differences(zs, one)) == str(det)
        for i in range(n):
            for k in range(n):
                minor = [r[:k] + r[k + 1 :] for j, r in enumerate(rows) if j != i]
                cof = laplace_det(minor) if n > 1 else one
                assert adj[k][i] == (-cof if (i + k) % 2 else cof)


class TestDecomposition:
    def test_examples(self):
        d = aut_description([(0, 2), (1, 3), (2, 3)])
        assert d.parts == ((2, 1), (3, 2))
        assert aut_description([(0, 1), (1, 1), (2, 1)]).parts == ((1, 3),)
        assert aut_description([(0, 3)]).parts == ((3, 1),)

    def test_repeated_roots_rejected(self):
        with pytest.raises(ValueError):
            aut_description([(0, 2), (0, 3)])
        with pytest.raises(ValueError):
            aut_description([(0, 0)])

    def test_aut_description(self):
        d = aut_description([(0, 1), (1, 1), (2, 1)])
        assert d.permutation_part == "S3"
        assert d.finite_order == 6
        assert d.factors[0].connected == "trivial"

        d = aut_description([(0, 3)])
        assert d.permutation_part == "S1"
        assert d.finite_order is None
        assert d.factors[0].connected_dim == 2
        assert "extended 1 time" in d.factors[0].connected

        d = aut_description([(0, 2), (1, 3), (2, 3)])
        assert d.permutation_part == "S1 x S2"
        assert d.finite_order is None

    def test_finite_order_matches_brute_force(self):
        f5 = GF(5)
        for roots in [[0], [0, 1], [0, 1, 2]]:
            a = MonogenicAlgebra.from_roots(f5, roots)
            desc = aut_description([(z, 1) for z in roots])
            assert desc.finite_order == len(brute_force_automorphisms(a))


def pattern_algebras(field, max_degree):
    """(pattern, algebra) for every multiplicity pattern of degree at most
    max_degree with no more roots than the field has elements."""
    elems = list(field.elements())
    for degree in range(1, max_degree + 1):
        for pattern in partitions(degree):
            if len(pattern) <= len(elems):
                flat = [z for z, m in zip(elems[::-1], pattern) for _ in range(m)]
                yield pattern, MonogenicAlgebra.from_roots(field, flat)


def order_by_composition(g, bound):
    """Test-only oracle for SubstitutionMap.order: the first k <= bound with
    the k-fold composite by compose equal to the identity, or None."""
    acc = g
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = g.compose(acc)
    return None


def unpruned_automorphisms(a):
    """Every image polynomial of degree < n through is_automorphism, with no
    filter, in the order of enumeration."""
    candidates = itertools.product(list(a.field.elements()), repeat=a.dim)
    return [g for g in (SubstitutionMap(a, list(cs)) for cs in candidates) if g.is_automorphism()]


def images(maps):
    return [g.image for g in maps]


class TestBruteForce:
    def test_s3_over_f5(self):
        # the pruned search against the known size and order profile of S3;
        # the unpruned enumeration is the oracle of the
        # test_matches_unpruned_enumeration_* tests below
        a = MonogenicAlgebra.from_roots(GF(5), [0, 1, 2])
        auts = brute_force_automorphisms(a)
        assert len(auts) == 6
        profile = {}
        for g in auts:
            profile[g.order()] = profile.get(g.order(), 0) + 1
        assert profile == {1: 1, 2: 3, 3: 2}  # the S3 order profile
        # closed under composition
        for g in auts:
            for h in auts:
                assert g.compose(h) in auts

    @pytest.mark.parametrize(
        "q,degrees,seed",
        [(3, (1, 2, 3), 0), (5, (1, 2, 3), 1), (5, (4,), 2), (7, (4,), 3)],
    )
    def test_counts_on_non_reduced_moduli_match_closed_form(self, q, degrees, seed):
        # For f = prod (X - z_i)^(m_i) over F_q, Aut(F_q[X]/(f)) permutes the
        # roots of equal multiplicity and acts on each local factor
        # F_q[X]/(X^m) by X -> aX + bX^2 + ... with a != 0: its order is
        # prod_m r_m! * prod_{m_i >= 2} (q - 1) * q^(m_i - 2), r_m being the
        # number of roots of multiplicity m.
        field = GF(q)
        elems = list(field.elements())
        rng = random.Random(seed)
        for degree in degrees:
            for pattern in partitions(degree):
                if len(pattern) > q:
                    continue
                roots = rng.sample(elems, len(pattern))
                flat = [z for z, m in zip(roots, pattern) for _ in range(m)]
                auts = brute_force_automorphisms(MonogenicAlgebra.from_roots(field, flat))
                expected = 1
                for r in Counter(pattern).values():
                    expected *= math.factorial(r)
                for m in pattern:
                    if m >= 2:
                        expected *= (q - 1) * q ** (m - 2)
                assert len(auts) == expected, (q, pattern)
                assert SubstitutionMap.identity(auts[0].algebra) in auts
                group = set(auts)
                pairs = list(itertools.product(auts, repeat=2))
                if len(pairs) > 400:
                    pairs = rng.sample(pairs, 400)
                for g, h in pairs:
                    assert g.compose(h) in group

    def test_order_profile_of_a_group_with_orders_past_64(self):
        # Aut(F_67[X]/(X^2)) = {X -> bX : b != 0} is cyclic of order 66, so
        # its order profile counts phi(k) elements of order k for k | 66
        a = MonogenicAlgebra.from_roots(GF(67), [0, 0])
        auts = brute_force_automorphisms(a)
        assert len(auts) == 66
        assert SubstitutionMap(a, [0, 2]).order() is None  # order 66 > 64
        profile = Counter(g.order(len(auts)) for g in auts)
        assert profile == {1: 1, 2: 1, 3: 2, 6: 2, 11: 10, 22: 10, 33: 20, 66: 20}

    @pytest.mark.parametrize("field", [GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)], ids=str)
    def test_matches_unpruned_enumeration_on_every_pattern(self, field):
        # every multiplicity pattern of degree <= 4, or <= 3 over F_9
        for pattern, a in pattern_algebras(field, 4 if field.size() <= 7 else 3):
            assert images(brute_force_automorphisms(a)) == images(unpruned_automorphisms(a)), pattern

    @pytest.mark.parametrize("field", [GF(3), GF(5), GF(7), GF(2, 2)], ids=str)
    def test_orders_match_repeated_composition(self, field):
        for pattern, a in pattern_algebras(field, 4):
            auts = brute_force_automorphisms(a)
            assert SubstitutionMap.identity(a) in auts, pattern  # not vacuous
            for g in auts:
                assert g.order(len(auts)) == order_by_composition(g, len(auts)), (pattern, g)

    def test_order_profile_checks_no_map_again(self, monkeypatch):
        # the CLI's order profile reads each map's verdict from the search:
        # the only full checks are the 6 of the 3! images enumerated
        calls = count_evaluations(monkeypatch, "_isomorphic")
        code, out = run(["aut", "--field", "Fp(5)", "--poly", "factored:(X)(X-1)(X-2)", "--brute-force"])
        assert code == 0 and "order profile: order 1: 1, order 2: 3, order 3: 2" in out
        assert len(calls) == 6
        a = MonogenicAlgebra.from_roots(GF(7), [1, 1, 1])
        auts = brute_force_automorphisms(a)
        searched = len(calls)
        assert Counter(g.order(len(auts)) for g in auts) == {1: 1, 2: 7, 3: 14, 6: 14, 7: 6}
        assert len(calls) == searched == 6 + 7**2

    @pytest.mark.parametrize(
        "q,coeffs",
        [(3, [1, 0, 1]), (3, [0, 1, 0, 1]), (5, [1, 0, 0, 0, 1])],
        ids=["X^2+1/F3", "X(X^2+1)/F3", "X^4+1/F5"],
    )
    def test_matches_unpruned_enumeration_on_non_split_moduli(self, q, coeffs):
        a = algebra(GF(q), coeffs)
        assert images(brute_force_automorphisms(a)) == images(unpruned_automorphisms(a))

    def test_matches_unpruned_enumeration_on_random_moduli(self):
        pytest.importorskip("hypothesis")
        from hypothesis import example, given, settings, strategies as st

        moduli = st.sampled_from([3, 5]).flatmap(
            lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
        )

        @settings(max_examples=60, deadline=None, database=None)
        @given(moduli)
        @example((5, [0, 4, 1, 4]))  # X(X - 1)(X - 2)(X - 3): S4 on the roots
        @example((3, [0, 0, 1, 1]))  # X^2 (X - 1)^2: the two roots swap
        @example((5, [0, 0, 2, 2]))  # X^2 (X - 1)(X - 2): 1 and 2 swap
        def check(case):
            q, lower = case
            a = algebra(GF(q), lower + [1])  # monic of degree 1 to 4
            assert images(brute_force_automorphisms(a)) == images(unpruned_automorphisms(a))

        check()

    @pytest.mark.parametrize(
        "q,coeffs,checked",
        [
            (7, UniPoly.from_roots(GF(7), [0, 1, 2]).coeffs, 3 * 2),  # R = {0, 1, 2}: 6 of 343
            (7, UniPoly.from_roots(GF(7), [3] * 4).coeffs, 7**3),  # R = {3}: 343 of 2,401
            (5, UniPoly.from_roots(GF(5), [1, 1, 4]).coeffs, 2 * 5),  # R = {1, 4}
            (3, [1, 0, 1], 3**2),  # X^2 + 1 has no root in F_3
            (5, [1, 0, 0, 0, 1], 5**4),  # nor X^4 + 1 in F_5
        ],
        ids=["(1,1,1)/F7", "(4,)/F7", "(2,1)/F5", "X^2+1/F3", "X^4+1/F5"],
    )
    def test_maps_checked_in_full(self, monkeypatch, q, coeffs, checked):
        # g permuting R leaves |R|! value tuples on the distinct roots R,
        # each reached by q^(n - |R|) images of degree < n, since evaluation
        # at |R| <= n distinct points is onto; only those build a map
        full_check = SubstitutionMap.is_automorphism
        calls = []

        def counted(g):
            calls.append(g)
            return full_check(g)

        monkeypatch.setattr(SubstitutionMap, "is_automorphism", counted)
        brute_force_automorphisms(algebra(GF(q), coeffs))
        assert len(calls) == checked

    def test_enumeration_budget(self):
        a = MonogenicAlgebra.from_roots(GF(101), [0, 1, 2, 3, 4])  # 101^5 maps
        with pytest.raises(ValueError, match="enumeration budget exceeded"):
            brute_force_automorphisms(a)

    def test_infinite_field_rejected(self):
        with pytest.raises(FieldError):
            brute_force_automorphisms(X3)


class TestAlgebraHom:
    def test_cross_algebra_iso(self):
        # X -> 2X: Q[X]/(X^3) -> itself is an algebra map; scaling roots
        ff = FunctionField(QQ, ("t",))
        t = ff.symbol("t")
        src = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -t, ff.one]))
        tgt = MonogenicAlgebra(ff, UniPoly(ff, [ff.zero, ff.zero, -ff.one, ff.one]))
        iso = AlgebraHom(src, tgt, UniPoly(ff, [ff.zero, t]))
        assert iso.is_homomorphism() and iso.is_isomorphism()
        back = iso.inverse_image()
        assert back == UniPoly(ff, [ff.zero, t.inverse()])
        assert AlgebraHom(tgt, src, back).is_isomorphism()

    def test_non_hom_detected(self):
        hom = AlgebraHom(X3, X3X2, UniPoly(QQ, [0, 1]))
        assert not hom.is_homomorphism()

    def test_inverse_image_refuses_non_isomorphisms(self):
        # X -> 2X on Q[X]/(X^2 - 1): invertible matrix, but (2X)^2 = 4 != 1
        square = algebra(QQ, [-1, 0, 1])
        scale = AlgebraHom(square, square, UniPoly(QQ, [0, 2]))
        assert scale.matrix().is_invertible() and not scale.is_homomorphism()
        with pytest.raises(ValueError, match="not a homomorphism"):
            scale.inverse_image()
        # X -> X^2 on Q[X]/(X^3): a homomorphism with a singular matrix
        squaring = AlgebraHom(X3, X3, UniPoly(QQ, [0, 0, 1]))
        assert squaring.is_homomorphism() and not squaring.matrix().is_invertible()
        with pytest.raises(ValueError, match="singular"):
            squaring.inverse_image()

    def test_reduced_by_the_modulus_only_from_its_degree(self, monkeypatch):
        # an image or element of degree < n is its own remainder mod the
        # modulus of degree n, so it is taken as it is, with no division
        divisions = []
        divide = UniPoly.__divmod__

        def counted(p, q):
            divisions.append(p.degree)
            return divide(p, q)

        monkeypatch.setattr(UniPoly, "__divmod__", counted)
        low, high = UniPoly(QQ, [0, 1, 1]), UniPoly(QQ, [1, 0, 0, 0, 1])
        assert AlgebraHom(X3, X3, low).image == low
        assert [X3.from_poly(low).coeff(k) for k in range(3)] == [0, 1, 1]
        assert SubstitutionMap(X3, [0, 1]).is_identity()
        assert divisions == []
        # X^4 + 1 = 1 mod X^3
        assert AlgebraHom(X3, X3, high).image == UniPoly(QQ, [1])
        assert X3.from_poly(high) == X3.one()
        assert divisions == [4, 4]

    def test_one_power_table_per_map(self, monkeypatch):
        builds = count_evaluations(monkeypatch, "_power_table")
        h = SubstitutionMap(X3, [0, 1, 1])
        assert h.is_automorphism() and h.is_homomorphism()
        assert h.matrix() == Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        assert h.inverse_image() == UniPoly(QQ, [0, 1, -1])
        assert h.inverse().image == UniPoly(QQ, [0, 1, -1])
        assert builds == [h]

    @staticmethod
    def random_isos(field, draw, count):
        """Isomorphisms k[X]/(f) -> k[Y]/(g) sending X to a*Y + b, for a
        random monic f of degree 3, random a != 0 and b, and g the monic
        f(a*Y + b) / a^3."""
        out = []
        while len(out) < count:
            a, b = draw(), draw()
            if a.is_zero():
                continue
            f = UniPoly(field, [draw() for _ in range(3)] + [field.one])
            lin = UniPoly(field, [b, a])
            g = UniPoly.zero(field)
            for k in range(f.degree, -1, -1):
                g = g * lin + UniPoly.constant(field, f.coeff(k))
            g = g * UniPoly.constant(field, a.inverse() ** 3)
            out.append(AlgebraHom(MonogenicAlgebra(field, f), MonogenicAlgebra(field, g), lin))
        return out

    def test_call_maps_coordinates_by_the_matrix_and_respects_products(self):
        rng = random.Random(23)
        qt, qat = FunctionField(QQ, ("t",)), FunctionField(QQ, ("a", "t"))
        draws = {
            QQ: lambda: QQ.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
            GF(7): lambda: GF(7).coerce(rng.randint(0, 6)),
            qt: lambda: qt.coerce(rng.randint(-3, 3)) + rng.randint(-2, 2) * qt.symbol("t"),
            qat: lambda: qat.coerce(rng.randint(-3, 3)) + rng.randint(-2, 2) * qat.symbol("t"),
        }
        # the README conj pair: X -> tX from k[X]/(X^2 (X - t)) to k[X]/(X^2 (X - 1))
        readme = AlgebraHom(
            MonogenicAlgebra.from_roots(qat, [0, 0, qat.symbol("t")]),
            MonogenicAlgebra.from_roots(qat, [0, 0, 1]),
            UniPoly(qat, [0, qat.symbol("t")]),
        )
        isos = [readme] + [iso for f in (QQ, GF(7), qt) for iso in self.random_isos(f, draws[f], 4)]
        for iso in isos:
            assert iso.is_isomorphism(), iso.image
            draw = draws[iso.source.field]
            for _ in range(3):
                u, v = (iso.source.element([draw() for _ in range(3)]) for _ in range(2))
                assert iso(u) == iso.target.element(iso.matrix().mul_vec(u.coeffs))
                assert iso(u * v) == iso(u) * iso(v)
            if iso.target != iso.source:
                with pytest.raises(ValueError, match="different algebra"):
                    iso(iso.target.gen())

    def test_each_verdict_reached_once_per_map(self, monkeypatch):
        homs = count_evaluations(monkeypatch, "_homomorphic")
        isos = count_evaluations(monkeypatch, "_isomorphic")
        h = SubstitutionMap(X3, [0, 1, 1])
        for _ in range(2):
            assert h.is_endomorphism() and h.is_homomorphism()
            assert h.is_automorphism() and h.is_isomorphism()
            assert h.inverse_image() == UniPoly(QQ, [0, 1, -1])
            assert h.order(8) is None  # X -> X + X^2 has infinite order over Q
        assert homs == isos == [h]
        # a non-homomorphism is refused by its one verdict, checked once
        scale = SubstitutionMap(algebra(QQ, [-1, 0, 1]), [0, 2])
        for _ in range(2):
            assert not scale.is_automorphism() and not scale.is_endomorphism()
            with pytest.raises(ValueError, match="non-automorphism"):
                scale.order()
            with pytest.raises(ValueError, match="not a homomorphism"):
                scale.inverse_image()
        assert homs == [h, scale] and isos == [h, scale]

    @pytest.mark.parametrize(
        "argv,verdicts",
        [
            # iso, alpha and the conjugated map, each checked once
            (["conj", "--field", "Q", "--symbols", "a,t", "--source-roots", "0,0,t",
              "--target-roots", "0,0,1", "--iso", "0,t", "--aut", "0,a,1-a", "--limit", "0"], 3),
            # the endomorphism and the automorphism line read one verdict
            (["aut", "--field", "Q", "--poly", "factored:(X)^2(X-1)", "--check-map", "0,a,1-a",
              "--symbols", "a"], 1),
        ],
        ids=["conj", "aut-check-map"],
    )
    def test_readme_rows_reach_each_homomorphism_verdict_once(self, monkeypatch, argv, verdicts):
        homs = count_evaluations(monkeypatch, "_homomorphic")
        code, out = run(argv)
        assert code == 0 and "True" in out, out
        assert len(homs) == verdicts and len(set(map(id, homs))) == verdicts
