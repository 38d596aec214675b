import random

import pytest

from symlab import chi
from symlab.chi import Chi, NoS3Report, all_chis, no_s3_check, order_class
from symlab.fields import GF, QQ, FieldError, rationals_with_cube_root
from symlab.poly import FunctionField

FINITE_FIELDS = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(3, 2), GF(2, 3)]


def brute_orders(field):
    """Independent oracle: order of every group element by iterated
    composition, capped at the group order."""
    cap = field.size() * (field.size() - 1)
    return {c: c.order(cap) for c in all_chis(field)}


class TestComposition:
    def test_symbolic_composition_law(self):
        ff = FunctionField(QQ, ("a", "b", "ap", "bp"))
        a, b, ap, bp = (ff.symbol(s) for s in ("a", "b", "ap", "bp"))
        got = Chi(a, b).compose(Chi(ap, bp))
        assert got.a == a * ap
        assert got.b == a * bp + ap * ap * b

    def test_identity(self):
        f7 = GF(7)
        phi = Chi(f7.coerce(2), f7.coerce(1))
        assert Chi.identity(f7).compose(phi) == phi
        assert phi.compose(Chi.identity(f7)) == phi

    def test_concrete_composition_oracle(self):
        # oracle: compose the substitution polynomials mod X^3 and read off
        f7 = GF(7)
        phi, psi = Chi(f7.coerce(2), f7.coerce(1)), Chi(f7.coerce(3), f7.coerce(4))
        got = phi.compose(psi)
        assert got == Chi(f7.coerce(6), f7.coerce(3))
        sub = phi.as_substitution().compose(psi.as_substitution())
        assert sub.image.coeff(1) == got.a and sub.image.coeff(2) == got.b

    def test_agrees_with_substitution_composition(self):
        rng = random.Random(12)
        for field in [GF(5), GF(2, 2)]:
            chis = list(all_chis(field))
            for _ in range(60):
                u, v = rng.choice(chis), rng.choice(chis)
                w = u.compose(v)
                sub = u.as_substitution().compose(v.as_substitution())
                assert sub.image.coeff(0).is_zero()
                assert (sub.image.coeff(1), sub.image.coeff(2)) == (w.a, w.b)

    def test_associativity_randomized(self):
        rng = random.Random(13)
        for field in FINITE_FIELDS:
            chis = list(all_chis(field))
            for _ in range(100):
                u, v, w = (rng.choice(chis) for _ in range(3))
                assert u.compose(v).compose(w) == u.compose(v.compose(w))

    def test_normal_subgroup_conjugation(self):
        # N = {chi(1, b)} is normal, and conjugation by phi_a = chi(a, 0)
        # scales b by a: with image-polynomial composition the scaling shows
        # up as phi^(-1) o psi o phi = psi_{ab} (the other grouping gives b/a)
        rng = random.Random(14)
        for field in [GF(5), GF(7), GF(2, 2)]:
            elems = list(field.elements())
            chis = list(all_chis(field))
            for _ in range(50):
                a = rng.choice([x for x in elems if not x.is_zero()])
                b = rng.choice(elems)
                phi = Chi(a, field.zero)
                psi = Chi(field.one, b)
                got = phi.inverse().compose(psi.compose(phi))
                assert got == Chi(field.one, a * b)
                other = phi.compose(psi.compose(phi.inverse()))
                assert other == Chi(field.one, b / a)
            for _ in range(25):
                phi = rng.choice(chis)
                psi = Chi(field.one, rng.choice(elems))
                for conj in (
                    phi.compose(psi.compose(phi.inverse())),
                    phi.inverse().compose(psi.compose(phi)),
                ):
                    assert conj.a == field.one  # lands in N


class TestPowers:
    def test_closed_form_small_exponents(self):
        ff = FunctionField(QQ, ("a", "b"))
        a, b = ff.symbol("a"), ff.symbol("b")
        phi = Chi(a, b)
        assert phi.power(1) == phi
        p2 = phi.power(2)
        assert p2.a == a * a and p2.b == (a + a * a) * b
        p3 = phi.power(3)
        assert p3.a == a**3 and p3.b == (a**2 + a**3 + a**4) * b

    def test_power_equals_iterated_composition(self):
        rng = random.Random(15)
        for field in FINITE_FIELDS:
            chis = list(all_chis(field))
            for _ in range(20):
                phi = rng.choice(chis)
                acc = phi
                for n in range(1, 13):
                    assert phi.power(n) == acc
                    acc = acc.compose(phi)

    def test_inverse(self):
        for field in [GF(5), GF(2, 2)]:
            for phi in all_chis(field):
                assert phi.compose(phi.inverse()).is_identity()
                assert phi.inverse().compose(phi).is_identity()


class TestOrderClass:
    def test_explicit_lists_match_brute_force(self):
        # fields up to size 9
        for field in FINITE_FIELDS:
            orders = brute_orders(field)
            rep = order_class(field)
            assert set(rep.order2_elements) == {c for c, o in orders.items() if o == 2}
            assert set(rep.order3_elements) == {c for c, o in orders.items() if o == 3}

    def test_counts(self):
        assert len(order_class(GF(5)).order2_elements) == 5
        assert order_class(GF(5)).order3_elements == ()
        assert len(order_class(GF(2, 2)).order3_elements) == 8
        assert len(order_class(GF(3)).order3_elements) == 2
        assert len(order_class(GF(7)).order3_elements) == 14

    def test_case_labels(self):
        assert order_class(GF(2)).case_label == "char2-no-zeta3"
        assert order_class(GF(2, 2)).case_label == "char2-with-zeta3"
        assert order_class(GF(3)).case_label == "char3-no-zeta3"
        assert order_class(GF(3, 2)).case_label == "char3-no-zeta3"
        assert order_class(GF(5)).case_label == "char-other-no-zeta3"
        assert order_class(GF(7)).case_label == "char-other-with-zeta3"
        assert order_class(QQ).case_label == "char-other-no-zeta3"
        assert order_class(rationals_with_cube_root()).case_label == "char-other-with-zeta3"

    def test_char3_vacuous_case_note(self):
        rep = order_class(GF(3))
        assert rep.notes and "unreachable" in rep.notes[0]
        assert order_class(GF(5)).notes == ()

    def test_infinite_fields_have_no_lists(self):
        rep = order_class(QQ)
        assert rep.order2_elements is None and rep.order3_elements is None

    def test_lists_only_up_to_the_bound(self, monkeypatch):
        monkeypatch.setattr(chi, "LISTING_BOUND", 7)
        assert len(order_class(GF(7)).order3_elements) == 14
        assert order_class(GF(7)).notes == ()
        for field in (GF(11), GF(2, 3), GF(3, 2)):
            rep = order_class(field)
            assert rep.order2_elements is None and rep.order3_elements is None
            assert "LISTING_BOUND = 7" in rep.notes[-1]
        big = order_class(GF(1000000009))
        assert big.case_label == "char-other-with-zeta3" and big.order2_elements is None


def chi_no_s3_oracle(field):
    """The exhaustive pass on Chi objects, every product by Chi.compose."""
    involutions = [
        c for c in all_chis(field) if not c.is_identity() and c.compose(c).is_identity()
    ]
    pairs = 0
    for u in involutions:
        for v in involutions:
            if u == v:
                continue
            pairs += 1
            w = u.compose(v)
            if not w.is_identity() and w.compose(w).compose(w).is_identity():
                return NoS3Report(field, False, pairs, (u, v))
    return NoS3Report(field, True, pairs, None)


class TestNoS3:
    def test_passes_away_from_characteristic_3(self):
        for field in [GF(2), GF(2, 2), GF(5), GF(7), GF(2, 3)]:
            rep = no_s3_check(field)
            assert rep.ok, rep.counterexample
        assert no_s3_check(GF(2)).pairs_checked == 0  # a single involution

    def test_characteristic_3_has_counterexamples(self):
        # chi(-1, 0) and chi(-1, 1) are involutions whose product chi(1, ±1)
        # has order 3 in characteristic 3, so the whole group over F3 is S3
        for field in [GF(3), GF(3, 2)]:
            rep = no_s3_check(field)
            assert not rep.ok
            u, v = rep.counterexample
            assert u.order(4) == 2 and v.order(4) == 2
            assert u.compose(v).order(4) == 3
        profile = {}
        for c, o in brute_orders(GF(3)).items():
            profile[o] = profile.get(o, 0) + 1
        assert profile == {1: 1, 2: 3, 3: 2}

    @pytest.mark.parametrize(
        "p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]
    )
    def test_tabulated_pass_matches_chi_composition(self, p, k):
        field = GF(p, k)
        assert no_s3_check(field) == chi_no_s3_oracle(field)

    def test_requires_small_finite_field(self):
        with pytest.raises(FieldError):
            no_s3_check(QQ)
        with pytest.raises(FieldError):
            no_s3_check(GF(53))


def test_chi_requires_nonzero_a():
    with pytest.raises(ValueError):
        Chi(QQ.zero, QQ.one)
