import itertools
import random

import pytest

from symlab.fields import ENUMERATION_BUDGET, GF, QQ, FieldError, rationals_with_cube_root
from symlab.linalg import Matrix
from symlab.poly import FunctionField
from symlab.quotient import MonogenicAlgebra
from symlab.quotient import brute_force_automorphisms as quotient_brute_force
from symlab.structure import (
    AutPair,
    algebra_from_json,
    LinearAlgebraMap,
    StructElement,
    StructureConstAlgebra,
    brute_force_automorphisms,
    build_T,
    compose_pair,
    limit_map_at_zero,
    transport_aut,
)


def k_plus_k(field):
    """field[u]/(u^2 - u), i.e. two copies of the field, basis (1, u)."""
    zero, one = field.zero, field.one
    table = [
        [[one, zero], [zero, one]],
        [[zero, one], [zero, one]],
    ]
    return StructureConstAlgebra(field, table, [one, zero], ("1", "u"))


# T(1) written from its relations: 1 is the unit, e2^2 = 1, e3^2 = 0,
# e2*e3 = e3 and e3*e2 = -e3
T1_TABLE = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 0, -1], [0, 0, 0]],
]
T1_UNIT = [1, 0, 0]


class TestConstruction:
    def test_relations_at_one(self):
        t1 = build_T(QQ.one)
        e2, e3 = t1.basis(1), t1.basis(2)
        assert e2 * e2 == t1.one()
        assert (e3 * e3).is_zero() if hasattr(e3 * e3, "is_zero") else e3 * e3 == t1.zero()
        assert e2 * e3 == e3
        assert e3 * e2 == -e3

    def test_zero_member_is_commutative(self):
        t0 = build_T(QQ.zero)
        assert t0.is_commutative()
        assert not build_T(QQ.one).is_commutative()
        # t = 0: e2^2 = e3^2 = e2*e3 = 0, two independent square-zero elements
        e2, e3 = t0.basis(1), t0.basis(2)
        assert e2 * e2 == t0.zero() and e3 * e3 == t0.zero() and e2 * e3 == t0.zero()

    def test_symbolic_member_is_associative(self):
        ff = FunctionField(QQ, ("t",))
        # the constructor checks the unit axiom and the 8 triples of e2, e3;
        # the unit axiom settles the other 19
        build_T(ff.symbol("t"))

    def test_corrupted_table_rejected(self):
        f5 = GF(5)
        assert StructureConstAlgebra(f5, T1_TABLE, T1_UNIT, ("1", "e2", "e3")) == build_T(f5.one)
        bad = [[list(cell) for cell in row] for row in T1_TABLE]
        bad[1][2][0] = 3  # tamper with e2*e3
        with pytest.raises(ValueError):
            StructureConstAlgebra(f5, bad, T1_UNIT)

    def test_elements_of_equal_algebras_hash_alike(self):
        # equal elements of two equal copies of T(1), or of k[X]/(f), are
        # one set member; elements of T(1) and T(2), or of k[X]/(f) and
        # k[X]/(g), stay apart
        f5, q3 = GF(5), rationals_with_cube_root()
        a, b = build_T(f5.one), build_T(f5.one)
        assert a is not b and a.basis(1) == b.basis(1)
        assert hash(a.basis(1)) == hash(b.basis(1))
        assert len({a.basis(1), b.basis(1), a.basis(1) * 1}) == 1
        assert len({a.basis(1), build_T(f5.coerce(2)).basis(1)}) == 2
        z = q3.generator()
        assert len({build_T(z).basis(2) * z, build_T(z).basis(2) * z + 0}) == 1
        for field, roots, other in ((f5, [0, 1, 3], [0, 1, 4]), (q3, [0, 1, z], [0, 1, -z])):
            m, n = MonogenicAlgebra.from_roots(field, roots), MonogenicAlgebra.from_roots(field, roots)
            assert m is not n and m.gen() == n.gen() and hash(m.gen()) == hash(n.gen())
            assert len({m.gen() * m.gen(), n.gen() ** 2, n.one() * n.gen() ** 2}) == 1
            assert len({m.gen(), MonogenicAlgebra.from_roots(field, other).gen()}) == 2

    def test_unit_axiom_enforced(self):
        f5 = GF(5)
        with pytest.raises(ValueError):
            StructureConstAlgebra(f5, T1_TABLE, [0, 1, 0])


def count_products(monkeypatch):
    """Record the operands of every product of two algebra elements."""
    times = StructElement._times
    calls = []

    def counting(u, v):
        calls.append((u.coeffs, v.coeffs))
        return times(u, v)

    monkeypatch.setattr(StructElement, "_times", counting)
    return calls


def first_failing_triple(field, table, unit):
    """Oracle for the construction checks, on the dense table of field
    elements: the message for the first basis vector failing the unit axiom,
    else for the first of all n^3 basis triples, in lexicographic order,
    that does not associate, else None."""
    n = len(table)

    def mul(u, v):
        out = [field.zero] * n
        for i, j in itertools.product(range(n), repeat=2):
            out = [o + u[i] * v[j] * c for o, c in zip(out, table[i][j])]
        return out

    basis = [[field.one if k == i else field.zero for k in range(n)] for i in range(n)]
    for i, b in enumerate(basis):
        if mul(unit, b) != b or mul(b, unit) != b:
            return f"unit axiom fails on basis vector {i + 1}"
    for i, j, k in itertools.product(range(n), repeat=3):
        if mul(mul(basis[i], basis[j]), basis[k]) != mul(basis[i], mul(basis[j], basis[k])):
            return f"associativity fails on basis triple ({i + 1}, {j + 1}, {k + 1})"
    return None


class TestUnitSettledTriples:
    """A triple holding the unit basis vector associates by the unit axiom,
    so construction checks associativity only on the other triples."""

    def test_build_T_makes_38_products(self, monkeypatch):
        # unit axiom: 2 products per basis vector; 2^3 triples of e2, e3: 4 each
        for t in (GF(7).coerce(3), QQ.zero, FunctionField(QQ, ("t",)).symbol("t")):
            products = count_products(monkeypatch)
            build_T(t)
            assert len(products) == 3 * 2 + 2**3 * 4, t

    def test_unit_off_the_basis_checks_every_triple(self, monkeypatch):
        from test_raw_kernels import rebased

        field = GF(7)
        algebra, table = rebased(build_T(field.coerce(2)), [[1, 1, 0], [1, 2, 1], [3, 0, 1]])
        assert all(algebra.basis(i) != algebra.one() for i in range(3))
        products = count_products(monkeypatch)
        assert StructureConstAlgebra(field, table, algebra.unit) == algebra
        assert len(products) == 3 * 2 + 3**3 * 4

    def test_non_associative_table_with_a_unit_basis_vector(self):
        # basis (a, 1, b): a*a = b, a*b = a, b*a = b*b = 0, so
        # (a*a)*a = 0 but a*(a*a) = a; the unit is the second basis vector
        a, u, b, z = [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]
        table = [[b, a, a], [a, u, b], [z, b, z]]
        message = "associativity fails on basis triple (1, 1, 1)"
        dense = [[list(map(QQ.coerce, cell)) for cell in row] for row in table]
        assert first_failing_triple(QQ, dense, list(map(QQ.coerce, u))) == message
        with pytest.raises(ValueError) as err:
            StructureConstAlgebra(QQ, table, u)
        assert str(err.value) == message

    @pytest.mark.parametrize("p", [2, 3])
    def test_same_verdict_and_message_as_every_triple(self, p):
        # random tables with the unit at a random basis vector: the check on
        # the triples the unit axiom leaves open fails exactly when some
        # triple fails, and on the same first triple
        field, rng = GF(p), random.Random(p)
        for _ in range(150):
            n, at = 3, rng.randrange(3)
            basis = [[field.one if k == i else field.zero for k in range(n)] for i in range(n)]
            table = [[[field.coerce(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
                     for _ in range(n)]
            for i in range(n):
                table[at][i], table[i][at] = basis[i], basis[i]
            want = first_failing_triple(field, table, basis[at])
            try:
                StructureConstAlgebra(field, table, basis[at])
                got = None
            except ValueError as e:
                got = str(e)
            assert got == want, (table, at)


class TestMorphisms:
    def test_pair_map_is_morphism(self):
        f7 = GF(7)
        t1 = build_T(f7.one)
        phi = transport_aut(f7.one, AutPair(f7.coerce(5), f7.coerce(2)), t1)
        assert phi.is_algebra_morphism() and phi.is_automorphism()

    def test_swap_is_not_morphism(self):
        t1 = build_T(QQ.one)
        swap = LinearAlgebraMap.from_images(
            t1, t1, [t1.one(), t1.basis(2), t1.basis(1)]
        )
        assert not swap.is_algebra_morphism()  # e3^2 = 0 but phi(e3)^2 = 1

    def test_identity_is_morphism(self):
        t1 = build_T(QQ.one)
        assert LinearAlgebraMap.identity(t1).is_algebra_morphism()

    def test_scaling_isomorphism_both_directions(self):
        f7 = GF(7)
        rng = random.Random(8)
        for _ in range(10):
            t = f7.coerce(rng.randrange(1, 7))
            t1 = build_T(f7.one)
            tt = build_T(t)
            # e2' = t e2, e3' = e3 maps T(1) onto T(t)
            fwd = LinearAlgebraMap.from_images(
                tt, t1, [t1.one(), t * t1.basis(1), t1.basis(2)]
            )
            assert fwd.is_algebra_morphism() and fwd.is_invertible()
            back = LinearAlgebraMap(
                t1, tt, fwd.matrix.inverse()
            )
            assert back.is_algebra_morphism() and back.is_invertible()


class TestBruteForce:
    def test_triangular_at_one_over_f5(self):
        f5 = GF(5)
        t1 = build_T(f5.one)
        auts = brute_force_automorphisms(t1)
        assert len(auts) == 20  # |{(b, b') : b' != 0}| = 5 * 4
        pairs = []
        for phi in auts:
            # every automorphism fixes 1 and has the (b, b') shape
            im2, im3 = phi.image_of_basis(1), phi.image_of_basis(2)
            b = im2.coeff(2)
            bp = im3.coeff(2)
            assert im2 == t1.basis(1) + b * t1.basis(2)
            assert im3 == bp * t1.basis(2)
            pairs.append(AutPair(b, bp))
        # group law matches the pair model on all 400 pairs
        by_pair = {(str(p.b), str(p.bp)): m for p, m in zip(pairs, auts)}
        for p1, p2 in itertools.product(pairs, repeat=2):
            combo = compose_pair(p2, p1)
            composed = by_pair[(str(p2.b), str(p2.bp))].compose(
                by_pair[(str(p1.b), str(p1.bp))]
            )
            assert composed == transport_aut(f5.one, combo, t1)

    def test_commutative_member_over_f3_is_gl2(self):
        f3 = GF(3)
        auts = brute_force_automorphisms(build_T(f3.zero))
        assert len(auts) == 48  # |GL2(F3)| = (9-1)(9-3)
        # oracle: count invertible 2x2 matrices directly
        count = sum(
            1
            for m in itertools.product(range(3), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 3 != 0
        )
        assert count == 48

    def test_two_copies_of_f3(self):
        auts = brute_force_automorphisms(k_plus_k(GF(3)))
        assert len(auts) == 2  # identity and the factor swap

    def test_budget_and_field_guards(self):
        with pytest.raises(FieldError):
            brute_force_automorphisms(build_T(QQ.one))
        # a pruning pass over the 101^3 vectors of F_101^3
        with pytest.raises(ValueError, match="enumeration budget exceeded"):
            brute_force_automorphisms(build_T(GF(101).one))

    def test_budget_counts_the_pruned_combinations(self):
        # T(0) over F_17: the pruning pass covers 17^3 = 4,913 vectors and
        # keeps 17^2 per free column, whose 83,521 combinations are refused
        with pytest.raises(ValueError) as e:
            brute_force_automorphisms(build_T(GF(17).zero))
        assert str(e.value) == (
            "enumeration budget exceeded: 83521 combinations of pruned columns, "
            f"past ENUMERATION_BUDGET = {ENUMERATION_BUDGET}"
        )
        assert 17**3 <= ENUMERATION_BUDGET < 17**4


def naive_automorphisms(algebra):
    """The automorphisms as a set of raw matrices, found the long way: the
    unit's column is pinned when the unit is a basis vector, every other
    column runs over all q^n vectors, and each map gets the complete
    `is_algebra_morphism` and `is_invertible`."""
    field, n = algebra.field, algebra.dim
    vectors = list(itertools.product([e.value for e in field.elements()], repeat=n))
    columns = [[algebra.unit] if algebra.basis(i) == algebra.one() else vectors for i in range(n)]
    found = set()
    for cols in itertools.product(*columns):
        phi = LinearAlgebraMap(algebra, algebra, Matrix._wrap(field, zip(*cols)))
        if phi.is_algebra_morphism() and phi.is_invertible():
            found.add(phi.matrix.rows)
    return found


def unit_off_the_basis(field):
    """T(1) in the basis (1 + e2, e2, e3): no basis vector is the unit."""
    from test_raw_kernels import rebased

    algebra, _ = rebased(build_T(field.one), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert all(algebra.basis(i) != algebra.one() for i in range(3))
    return algebra


def as_structure_constants(quotient):
    """k[X]/(f) as a structure-constant algebra in the basis 1, X, ...,
    X^(n-1)."""
    n = quotient.dim
    powers = [quotient.element([0] * i + [1]) for i in range(n)]
    table = [[list((u * v).coeffs) for v in powers] for u in powers]
    return StructureConstAlgebra(quotient.field, table, [1] + [0] * (n - 1))


def oracle_cases():
    for field in (GF(3), GF(5)):
        for t in field.elements():
            yield f"T({t}) over {field}", lambda t=t: build_T(t)
    f4 = GF(2, 2)
    for t in (f4.one, f4.generator()):
        yield f"T({t}) over F4", lambda t=t: build_T(t)
    yield "F3 x F3", lambda: k_plus_k(GF(3))
    # X^2 is not in the span of 1 and X: a column without a profile
    f3 = GF(3)
    yield "F3[X]/(X^3)", lambda: as_structure_constants(MonogenicAlgebra.from_roots(f3, [f3.zero] * 3))
    for p in (2, 3):
        yield f"T(1) over F{p}, unit off the basis", lambda p=p: unit_off_the_basis(GF(p))


ORACLE_CASES = list(oracle_cases())


class TestBruteForceOracle:
    """brute_force_automorphisms proves each identity once (pinned unit,
    unit axiom, pruned squares, the remaining pairs); the naive search
    checks every identity on every map.  They must find the same maps."""

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_CASES], ids=[i for i, _ in ORACLE_CASES])
    def test_same_maps_as_the_naive_search(self, make):
        algebra = make()
        auts = brute_force_automorphisms(algebra)
        assert {phi.matrix.rows for phi in auts} == naive_automorphisms(algebra)
        assert len({phi.matrix.rows for phi in auts}) == len(auts)
        assert all(phi.is_automorphism() for phi in auts)

    @pytest.mark.parametrize("p", [3, 5])
    def test_structure_constants_agree_with_the_quotient_engine(self, p):
        # k[X]/(f) in the basis 1, X, ..., X^(n-1), for every multiplicity
        # pattern of degree <= 3 on the roots 0, 1, 2
        field = GF(p)
        for pattern in ([1], [2], [1, 1], [3], [2, 1], [1, 1, 1]):
            roots = [field.coerce(r) for r, m in enumerate(pattern) for _ in range(m)]
            quotient = MonogenicAlgebra.from_roots(field, roots)
            algebra = as_structure_constants(quotient)
            assert len(brute_force_automorphisms(algebra)) == len(quotient_brute_force(quotient)), pattern

    @pytest.mark.parametrize(
        "field,at_zero,elsewhere",
        [
            (GF(3), 48, 6),
            (GF(5), 480, 20),
            (GF(7), 2016, 42),
            (GF(2, 2), 180, 180),
            (GF(3, 2), 5760, 72),
        ],
        ids=["F3", "F5", "F7", "F4", "F9"],
    )
    def test_closed_forms_of_aut_T(self, field, at_zero, elsewhere):
        # q(q-1) pairs (b, b') off 0 in odd characteristic, |GL2(F_q)| at
        # 0, and |GL2(F_4)| at every t in characteristic 2, where
        # e2 -> e2 + t maps T(t) onto T(0)
        q = field.size()
        gl2 = (q * q - 1) * (q * q - q)
        assert at_zero == gl2
        assert elsewhere == (gl2 if q % 2 == 0 else q * (q - 1))
        assert len(brute_force_automorphisms(build_T(field.zero))) == at_zero
        nonzero = list(field.elements())[-1]
        assert len(brute_force_automorphisms(build_T(nonzero))) == elsewhere


class TestPairModel:
    def test_compose_pair_symbolic(self):
        ff = FunctionField(QQ, ("b1", "bp1", "b2", "bp2"))
        b1, bp1, b2, bp2 = (ff.symbol(s) for s in ("b1", "bp1", "b2", "bp2"))
        got = compose_pair(AutPair(b2, bp2), AutPair(b1, bp1))
        assert got.b == b2 + b1 * bp2
        assert got.bp == bp1 * bp2
        # matches the 2x2 upper-triangular matrix model
        m1 = Matrix(ff, [[ff.one, b1], [ff.zero, bp1]])
        m2 = Matrix(ff, [[ff.one, b2], [ff.zero, bp2]])
        prod = m1 * m2
        assert prod[0, 1] == got.b and prod[1, 1] == got.bp

    def test_identity_pair(self):
        f5 = GF(5)
        ident = AutPair(f5.zero, f5.one)
        other = AutPair(f5.coerce(3), f5.coerce(2))
        assert compose_pair(ident, other) == other
        assert compose_pair(other, ident) == other

    def test_concrete_composition_oracle(self):
        # oracle: compose the two linear maps on T(1) over F5 and read off
        f5 = GF(5)
        t1 = build_T(f5.one)
        p2 = AutPair(f5.coerce(1), f5.coerce(2))
        p1 = AutPair(f5.coerce(3), f5.coerce(4))
        combo = compose_pair(p2, p1)
        assert (combo.b, combo.bp) == (f5.coerce(2), f5.coerce(3))
        map2, map1 = (transport_aut(f5.one, p, t1) for p in (p2, p1))
        assert map2.compose(map1) == transport_aut(f5.one, combo, t1)

    def test_nonzero_bp_required(self):
        with pytest.raises(ValueError):
            AutPair(QQ.one, QQ.zero)


class TestTransport:
    def test_symbolic_transport_and_limit(self):
        ff = FunctionField(QQ, ("b", "bp", "t"))
        b, bp, t = ff.symbol("b"), ff.symbol("bp"), ff.symbol("t")
        tt = build_T(t)
        phi = transport_aut(t, AutPair(b, bp), tt)
        # e2 -> e2 + t*b*e3, e3 -> bp*e3
        assert phi.image_of_basis(1) == tt.basis(1) + (t * b) * tt.basis(2)
        assert phi.image_of_basis(2) == bp * tt.basis(2)
        assert phi.is_algebra_morphism()
        lim = limit_map_at_zero(phi)
        rest = lim.field
        expected = Matrix(
            rest,
            [
                [rest.one, rest.zero, rest.zero],
                [rest.zero, rest.one, rest.zero],
                [rest.zero, rest.zero, rest.symbol("bp")],
            ],
        )
        assert lim == expected  # independent of b
        t0 = build_T(rest.coerce(0))
        as_map = LinearAlgebraMap(t0, t0, lim)
        assert as_map.is_algebra_morphism() and as_map.is_invertible()

    def test_transport_at_one_is_pair_map(self):
        f7 = GF(7)
        t1 = build_T(f7.one)
        pair = AutPair(f7.coerce(4), f7.coerce(6))
        e2, e3 = t1.basis(1), t1.basis(2)
        by_hand = LinearAlgebraMap.from_images(t1, t1, [t1.one(), e2 + 4 * e3, 6 * e3])
        assert transport_aut(f7.one, pair, t1) == by_hand

    def test_limit_is_group_homomorphism_with_kernel_b_one(self):
        # (b, b') -> limit map forgets b; kernel = {(b, 1)}
        f5 = GF(5)
        t0 = build_T(f5.zero)
        ident = LinearAlgebraMap.identity(t0)

        def limit_of(pair):
            return LinearAlgebraMap.from_images(
                t0, t0, [t0.one(), t0.basis(1), pair.bp * t0.basis(2)]
            )

        pairs = [
            AutPair(b, bp)
            for b in f5.elements()
            for bp in f5.elements()
            if not bp.is_zero()
        ]
        for p1, p2 in itertools.product(pairs, repeat=2):
            assert limit_of(compose_pair(p2, p1)) == limit_of(p2).compose(limit_of(p1))
        kernel = [p for p in pairs if limit_of(p) == ident]
        assert all(p.bp == f5.one for p in kernel) and len(kernel) == 5

    def test_transport_requires_nonzero_t(self):
        with pytest.raises(ValueError):
            transport_aut(QQ.zero, AutPair(QQ.one, QQ.one), build_T(QQ.zero))


class TestJsonInterface:
    TEXT = """
    {"dimension": 2, "field": "Fp(3)",
     "table": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
     "unit": [1, 0]}
    """

    def test_round_trip(self):
        algebra = algebra_from_json(self.TEXT)
        assert algebra.dim == 2 and algebra.field == GF(3)
        assert len(brute_force_automorphisms(algebra)) == 2

    def test_rational_strings(self):
        doc = """
        {"dimension": 2, "field": "Q",
         "table": [[[1, 0], [0, 1]], [[0, 1], ["-1/4", 0]]],
         "unit": [1, 0]}
        """
        algebra = algebra_from_json(doc)
        u = algebra.basis(1)
        from fractions import Fraction
        assert u * u == algebra.element([Fraction(-1, 4), 0])

    def test_missing_key(self):
        with pytest.raises(ValueError):
            algebra_from_json('{"dimension": 2}')

    def test_bad_table_shape(self):
        with pytest.raises(ValueError):
            algebra_from_json(
                '{"dimension": 2, "field": "Q", "table": [[[1, 0]]], "unit": [1, 0]}'
            )

    def test_unit_axiom_rejected(self):
        bad = """
        {"dimension": 2, "field": "Q",
         "table": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
         "unit": [1, 0]}
        """
        with pytest.raises(ValueError):
            algebra_from_json(bad)
