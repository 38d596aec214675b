"""Parametrized root families and what happens to their symmetries at
critical parameter values.

A family (RootFamily) is a list of pairwise-distinct rational functions
r_i(t) in the one parameter t, defining the algebras A_t = k[X]/(prod (X -
r_i(t))).  Away from critical values the automorphisms permute the Lagrange
idempotents, so each permutation sigma yields a substitution map, its
generic map, given by its coefficient vector: rational functions of t
(perm_coeff_vector).  Taking exact limits of those coefficients decides
which permutations survive at a critical value, collapse (pole), or
degenerate.

The coefficient vector c(sigma) of sigma's map X -> g_sigma(X) solves
M c = (r_sigma(1), ..., r_sigma(n)) for the Vandermonde matrix M of the
roots, so c(sigma) = adj(M) (r_sigma(1), ..., r_sigma(n)) / det(M).  Each
family builds adj(M) and det(M) once, as polynomials and without division
(quotient.vandermonde_adjugate), over one common denominator q of its roots
r_j = p_j/q: since g_r(X) = g_p(qX)/q, the X^k coefficient for the roots
r_j is c_k(p) * q^(k-1).  The table holds dense polynomials in t (UniPoly),
and a listing forms each product adj_k[i] * p_j once per family, at most
n^3 for all n! maps; each coefficient is then a sum of n memoized lists put
in canonical form by one dense kernel (RationalFunction._from_values).

Limits need no rational function: at each parameter value t0 the table is
Taylor-shifted to t0 once, by the one Taylor kernel poly.taylor, and
truncated at each denominator's order there, read from its own series
(RootFamily.shifted_table), so a permutation's pole orders and limits are
read from truncated products of series, with no gcd (analyze_at).

The critical values are the t where two roots collide.  They are read off
the numerator of each difference r_i - r_j separately, never from their
product: linear factors give their root exactly over any field, and only
factors of degree >= 2 need a search (all elements of a finite field; over
Q the discriminant for degree 2, the rational root theorem from degree 3;
over Q(zeta3) only quadratics with rational coefficients, and the factors
left unsearched are listed by RootFamily.unsearched_factors).

Permutation convention: a permutation sigma acts on the coordinate vector
of X in the idempotent basis by (v_1, ..., v_n) -> (v_{sigma(1)}, ...,
v_{sigma(n)}).  Permutations are 0-indexed tuples with sigma[i] = image of
position i; compose_perm(p, q)[i] = p[q[i]].
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import Field, FieldElement, RationalField
from .poly import MultiPoly, Pole, RationalFunction, UniPoly, _mul_values, clear_denominators, taylor
from .quotient import (
    AlgebraHom,
    MonogenicAlgebra,
    SubstitutionMap,
    common_denominator,
    vandermonde_adjugate,
)
from .quotient import vandermonde_pair  # noqa: F401 - perfbench's tracer test reads it here


class InternalInconsistencyError(RuntimeError):
    """A finite limit map failed its mandatory automorphism verification."""


def identity_perm(n: int) -> tuple:
    return tuple(range(n))

def compose_perm(p: tuple, q: tuple) -> tuple:
    """Apply q, then p."""
    return tuple(p[q[i]] for i in range(len(p)))

def all_perms(n: int):
    return [tuple(p) for p in itertools.permutations(range(n))]

def perm_to_cycles(p: tuple) -> str:
    """One-line cycle notation on 1-based positions, 'id' for the identity."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "id"

def is_perm_group(perms: set) -> bool:
    """A finite set of permutations is a group iff it is nonempty, holds the
    identity and is closed under composition; inverses follow, since
    p^(-1) = p^(ord p - 1)."""
    if not perms:
        return False
    n = len(next(iter(perms)))
    if identity_perm(n) not in perms:
        return False
    return all(compose_perm(p, q) in perms for p in perms for q in perms)


class RootFamily:
    """Pairwise-distinct roots r_i(t), each a RationalFunction over
    (field, ("t",)): the family A_t in its one parameter t."""

    param = "t"
    symbols = ("t",)

    def __init__(self, field: Field, roots):
        self.field = field
        rs = tuple(roots)
        for r in rs:
            if not isinstance(r, RationalFunction) or (r.field, r.symbols) != (field, self.symbols):
                raise ValueError("root from a different context")
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                if rs[i] == rs[j]:
                    raise ValueError(
                        f"roots {i + 1} and {j + 1} coincide as rational functions"
                    )
        self.roots = rs
        # per-family memo: interpolation table and its products, and per
        # parameter value the specialized algebra and the shifted table
        self._table = None
        self._products = {}
        self._algebras = {}
        self._shifted = {}

    @property
    def n(self) -> int:
        return len(self.roots)

    def roots_at(self, t0) -> list[FieldElement]:
        """Exact root values at the parameter value t0."""
        t0 = self.field.coerce(t0)
        out = []
        for r in self.roots:
            lim = r.limit_at(self.param, t0)
            if isinstance(lim, Pole):
                raise ValueError(f"root has a pole at {self.param} = {t0}")
            out.append(lim.as_constant())
        return out

    def algebra_at(self, t0) -> MonogenicAlgebra:
        t0 = self.field.coerce(t0)
        if t0 not in self._algebras:
            self._algebras[t0] = MonogenicAlgebra.from_roots(self.field, self.roots_at(t0))
        return self._algebras[t0]

    def interpolation_table(self):
        """Rows (adj_k, den_k), k = 0..n-1, with the X^k coefficient of
        sigma's map equal to sum_i adj_k[i] * p_sigma(i) / den_k, and the
        root numerators p_j over one common denominator q, all of them
        UniPoly in t over the base field.

        adj_k is row k of the Vandermonde adjugate of the p_j scaled by
        q^(k-1); den_k is det * q for k = 0 and det otherwise.  Built once
        per family, without division.
        """
        if self._table is None:
            f, one = self.field, UniPoly.constant(self.field, 1)
            dense = [[UniPoly._wrap(f, p.split(self.param).get((), [])) for p in (r.num, r.den)]
                     for r in self.roots]
            q, ps = common_denominator(dense, one)
            adj, det = vandermonde_adjugate(ps, one)
            rows = [(adj[0], det * q)]
            scale = one
            for k in range(1, self.n):
                rows.append(([a * scale for a in adj[k]], det))
                scale = scale * q
            self._table = (tuple(rows), tuple(ps))
        return self._table

    def shifted_table(self, t0):
        """The interpolation table as truncated Taylor series in s = t - t0.

        Returns (rows, series): row k is (e_k, inv_k, adj_k) with e_k the
        order of den_k at t0, inv_k the inverse of its coefficient of s^e_k,
        and adj_k[i] the Taylor coefficients of adj_k[i] up to s^e_k;
        series[j] holds those of p_j up to s^max(e_k).  A series is a tuple
        of its nonzero terms (index, raw field value) by rising index, read
        from the table's coefficient lists by the Taylor kernel.  Built once
        per t0.
        """
        t0 = self.field.coerce(t0)
        if t0 not in self._shifted:
            field = self.field

            def terms(p, count):
                series = itertools.islice(taylor(field, list(p.coeffs), t0.value), count)
                return tuple((i, c) for i, c in enumerate(series) if not field._is_zero(c))

            rows, ps = self.interpolation_table()
            shifted = []
            for adj_k, den in rows:
                e, lead = terms(den, len(den.coeffs))[0]
                adj = tuple(terms(a, e + 1) for a in adj_k)
                shifted.append((e, field._inv(lead), adj))
            top = max(e for e, _, _ in shifted) + 1
            self._shifted[t0] = (tuple(shifted), tuple(terms(p, top) for p in ps))
        return self._shifted[t0]

    def critical_values(self) -> list[FieldElement]:
        """Parameter values where two roots collide: the roots of the
        numerators of the differences r_i - r_j, one difference at a time.

        A numerator t^m * g(t) with g(0) != 0 gives 0 when m > 0 and, when g
        is linear, its root exactly.  The roots of a g of degree >= 2 are
        found by enumeration over a finite field and over Q from the
        discriminant (degree 2) or by the rational root theorem (degree
        >= 3, within DIVISOR_SEARCH_BOUND steps, else ValueError).  Over
        Q(zeta3) a quadratic g with rational coefficients is solved from its
        discriminant; the roots of a g of degree >= 3, or of a quadratic
        with zeta3 in its coefficients, are not searched there, and such a
        g is listed by unsearched_factors.  Listed 0 first, then over Q by
        (|numerator|, denominator, positive first) and otherwise by
        sort_key, which over a finite field is the order of
        field.elements().
        """
        return list(self._collisions[0])

    def unsearched_factors(self) -> list[UniPoly]:
        """The factors g, made monic, whose roots critical_values does not
        search, so that some critical values may be missing."""
        return list(self._collisions[1])

    @functools.cached_property
    def _collisions(self):
        field = self.field
        found = set()
        factors = {}  # distinct g, each searched once
        for i in range(self.n):
            for j in range(i + 1, self.n):
                num = (self.roots[i] - self.roots[j]).num
                lo = num.order_in(self.param)
                if lo:
                    found.add(field.zero)
                g = UniPoly._wrap(field, num.split(self.param)[()][lo:])
                factors[g] = None
        unsearched = []
        for g in factors:
            if g.degree == 1:
                found.add(-g.coeff(0) / g.coeff(1))
            elif g.degree >= 2:
                if field.size() is not None:
                    candidates = field.elements()
                elif isinstance(field, RationalField):
                    candidates = _rational_roots(g)
                elif g.degree == 2 and all(c[1] == 0 for c in g.coeffs):
                    rational = clear_denominators([c[0] for c in g.coeffs])
                    candidates = _quadratic_roots(field, *rational)
                else:
                    candidates = ()
                    unsearched.append(g * g.coeff(g.degree).inverse())
                found.update(z for z in candidates if g(z).is_zero())

        def order(z):
            if isinstance(field, RationalField):
                return (abs(z.value.numerator), z.value.denominator, z.value < 0)
            return (not z.is_zero(), z.sort_key())

        return sorted(found, key=order), unsearched


def _quadratic_roots(field: Field, c: int, b: int, a: int) -> set:
    """The roots in field, Q or Q(zeta3), of a*t^2 + b*t + c on integers:
    (-b +- sqrt(D))/(2a) when the discriminant D is a square, or, over
    Q(zeta3), -3 times a square, as sqrt(-3) = 1 + 2*zeta3."""
    disc = b * b - 4 * a * c
    units = [(1, field.one)]
    if not isinstance(field, RationalField):
        units.append((-3, field.one + 2 * field.generator()))
    for k, unit in units:
        square, rem = divmod(disc, k)
        root = math.isqrt(square) if square >= 0 else -1
        if rem == 0 and root * root == square:
            return {(field.coerce(-b) + s * root * unit) / field.coerce(2 * a) for s in (1, -1)}
    return set()


# Most steps the rational root search of one critical factor of degree >= 3
# may take, counted twice: the trial divisions that list the divisors of its
# constant and leading coefficients (sqrt|a_0| + sqrt|a_n| of them, about
# 0.12 us each), and then its candidate roots +-p/q (2 d(a_0) d(a_n) of
# them, about 1 us each on integers).  Measured with Python 3.11 on a
# shared 2-vCPU VM, the bound keeps one factor's search under 1.5 s; past
# it the search stops with an error that names the bound.
DIVISOR_SEARCH_BOUND = 10**6


def _rational_roots(g: UniPoly) -> set:
    """The rational roots of g (g(0) != 0, over Q), from its coefficients
    cleared of denominators: for a quadratic a*t^2 + b*t + c, (-b +-
    sqrt(D))/(2a) when the discriminant D is a perfect square; from degree 3
    on, by the rational root theorem, the +-p/q in lowest terms with p
    dividing the constant and q the leading coefficient that are roots.
    Raises ValueError past DIVISOR_SEARCH_BOUND."""
    ints = clear_denominators(g.coeffs)
    if g.degree == 2:
        return _quadratic_roots(g.field, *ints)
    d = g.degree
    too_long = ValueError(
        f"the rational root search for a critical factor of degree {d} would "
        f"take more than DIVISOR_SEARCH_BOUND = {DIVISOR_SEARCH_BOUND} steps"
    )
    if math.isqrt(abs(ints[0])) + math.isqrt(abs(ints[-1])) > DIVISOR_SEARCH_BOUND:
        raise too_long
    ps, qs = _divisors(ints[0]), _divisors(ints[-1])
    if 2 * len(ps) * len(qs) > DIVISOR_SEARCH_BOUND:
        raise too_long

    def is_root(p, q):
        # q^d * g(p/q) by Horner on integers
        acc, qk = ints[-1], q
        for c in reversed(ints[:-1]):
            acc, qk = acc * p + c * qk, qk * q
        return acc == 0

    return {
        g.field.coerce(Fraction(s * p, q))
        for p in ps
        for q in qs
        for s in (1, -1)
        if math.gcd(p, q) == 1 and is_root(s * p, q)
    }


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _check_perm(fam: RootFamily, sigma: tuple):
    if sorted(sigma) != list(range(fam.n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{fam.n - 1}")


def perm_coeff_vector(fam: RootFamily, sigma: tuple) -> tuple:
    """The generic map of sigma as its coefficient vector c, a tuple of
    RationalFunctions in t: the solution of M c = (r_{sigma(1)}, ...,
    r_{sigma(n)}) for the Vandermonde M of the roots, with entry k the
    coefficient of X^k.

    c = adj(M) (r_{sigma(1)}, ..., r_{sigma(n)}) / det(M), read off the
    family's interpolation table: with the roots written r_j = p_j/q,
    c_k = c_k(p) * q^(k-1), where c_k(p) = sum_i adj(M_p)[k][i] p_sigma(i)
    / det(M_p).  Each product adj_k[i] * p_j is formed once per family, so
    a listing of all n! permutations forms at most n^3 of them, and each
    entry is one call of the dense canonical kernel on their summed lists.
    """
    sigma = tuple(sigma)
    _check_perm(fam, sigma)
    rows, ps = fam.interpolation_table()
    field, products = fam.field, fam._products
    out = []
    for k, (adj_k, den) in enumerate(rows):
        num = []
        for i, j in enumerate(sigma):
            prod = products.get((k, i, j))
            if prod is None:
                prod = products[k, i, j] = _mul_values(field, adj_k[i].coeffs, ps[j].coeffs)
            num = [*map(field._add, num, prod), *num[len(prod) :], *prod[len(num) :]]
        out.append(RationalFunction._from_values(field, fam.symbols, num, list(den.coeffs)))
    return tuple(out)


@dataclass(frozen=True)
class Survives:
    limit_map: SubstitutionMap  # verified as an automorphism by analyze_at

@dataclass(frozen=True)
class PoleAt:
    coeff_index: int
    order: int


def analyze_at(fam: RootFamily, sigma: tuple, t0):
    """Limit the permutation's coefficient vector at t = t0.

    Returns Survives(map) with the limit substitution verified as an
    automorphism of the specialized algebra, or PoleAt(index, order) for the
    first coefficient without a limit.  A root with a pole at t0 raises
    ValueError before any limit is taken, whatever sigma is; a finite limit
    that fails the automorphism check raises InternalInconsistencyError.

    Each coefficient c_k = num_k / den_k, num_k = sum_i adj_k[i] p_sigma(i),
    is read from the family's table shifted to t0 (shifted_table), with no
    rational function and no gcd: the Taylor coefficients of num_k up to
    s^e_k, e_k = ord_t0(den_k), are truncated products of the shifted
    entries.  Their lowest nonzero index a gives a pole of order e_k - a
    when a < e_k, the limit num_k[e_k] / den_k[e_k] when a = e_k, and the
    limit 0 when none is nonzero.
    """
    t0 = fam.field.coerce(t0)
    algebra = fam.algebra_at(t0)
    sigma = tuple(sigma)
    _check_perm(fam, sigma)
    field = fam.field
    mul, add, is_zero, zero = field._mul, field._add, field._is_zero, field.zero.value
    rows, series = fam.shifted_table(t0)
    images = [series[j] for j in sigma]
    limits = []
    for k, (e, inv_lead, adj) in enumerate(rows):
        num = [zero] * (e + 1)
        for a_terms, p_terms in zip(adj, images):
            for a, x in a_terms:
                for b, y in p_terms:
                    if a + b > e:
                        break
                    num[a + b] = add(num[a + b], mul(x, y))
        low = next((m for m, c in enumerate(num) if not is_zero(c)), None)
        if low is None:
            limits.append(zero)
        elif low < e:
            return PoleAt(coeff_index=k, order=e - low)
        else:
            limits.append(mul(num[e], inv_lead))
    while limits and is_zero(limits[-1]):
        limits.pop()
    limit_map = SubstitutionMap(algebra, UniPoly._wrap(field, limits))
    if not limit_map.is_automorphism():
        raise InternalInconsistencyError(
            f"finite limit of {perm_to_cycles(sigma)} at {fam.param}={t0} "
            f"is not an automorphism of {algebra}"
        )
    return Survives(limit_map=limit_map)


@dataclass(frozen=True)
class SurvivalReport:
    """Per-permutation survival at one critical value, plus the surviving
    subgroup (verified closed under composition and inverses)."""

    statuses: tuple  # pairs (sigma, Survives | PoleAt), lexicographic in sigma
    surviving: tuple  # the surviving permutations

    def status_of(self, sigma):
        for s, st in self.statuses:
            if s == tuple(sigma):
                return st
        raise KeyError(sigma)


def surviving_subgroup(fam: RootFamily, t0) -> SurvivalReport:
    """Analyze every permutation (n <= 7) and assert subgroup closure of the
    surviving set."""
    if fam.n > 7:
        raise ValueError("exhaustive analysis is limited to n <= 7")
    t0 = fam.field.coerce(t0)
    statuses = []
    surviving = []
    for sigma in all_perms(fam.n):
        st = analyze_at(fam, sigma, t0)
        statuses.append((sigma, st))
        if isinstance(st, Survives):
            surviving.append(sigma)
    if not is_perm_group(set(surviving)):
        raise InternalInconsistencyError(
            f"surviving set at {fam.param}={t0} is not a subgroup: "
            + ", ".join(perm_to_cycles(s) for s in surviving)
        )
    return SurvivalReport(statuses=tuple(statuses), surviving=tuple(surviving))


# -- symbolic three-root families r_i = t * x_i -----------------------------

SCALED_SYMBOLS = ("x1", "x2", "x3")


def specialize_scaled(field: Field, xs) -> RootFamily:
    """The family with roots (t*x_1, t*x_2, t*x_3) at concrete x values."""
    xs = [field.coerce(x) for x in xs]
    t = MultiPoly.symbol(field, RootFamily.symbols, RootFamily.param)
    return RootFamily(field, [RationalFunction.from_poly(t * x) for x in xs])


@dataclass(frozen=True)
class SurvivalCondition:
    """For a permutation of the scaled family: the polynomial in x1..x3
    whose vanishing (with the x_i pairwise distinct) makes the permutation
    survive at t = 0, and the X-coefficient of the limit map on that locus.

    `denominator` is the product of root differences paired with
    `condition`: the full X^2 coefficient is condition/(denominator * t).
    """

    condition: MultiPoly  # in (x1, x2, x3)
    denominator: MultiPoly  # in (x1, x2, x3)
    limit_linear_coeff: RationalFunction  # in (x1, x2, x3)

    def holds_at(self, xs) -> bool:
        field = self.condition.field
        vals = {f"x{i + 1}": field.coerce(x) for i, x in enumerate(xs)}
        return self.condition.eval_all(vals).is_zero()


def survival_condition(sigma: tuple, field: Field = None) -> SurvivalCondition:
    """Survival condition of a permutation of the scaled three-root family.

    By the scaling law the map for the roots t*x_i is X -> t*g(X/t), g the
    map for the roots x_i, so its X^k coefficient is t^(1-k) times that of
    g.  Its X^2 coefficient is t^(-1) * R(x)/D(x) and its X coefficient
    limit_linear_coeff = L(x)/D(x), independent of t: D = prod of root
    differences is the Vandermonde determinant of x1, x2, x3, and R and L
    are rows 2 and 1 of its exact adjugate applied to (x_sigma(1),
    x_sigma(2), x_sigma(3)), so the condition R has no spurious factors.
    """
    if field is None:
        field = RationalField()
    if sorted(sigma) != [0, 1, 2]:
        raise ValueError("sigma must be a permutation of three slots")
    xs = [MultiPoly.symbol(field, SCALED_SYMBOLS, name) for name in SCALED_SYMBOLS]
    adj, det = vandermonde_adjugate(xs, MultiPoly.constant(field, SCALED_SYMBOLS, 1))
    permuted, zero = [xs[j] for j in sigma], MultiPoly.zero(field, SCALED_SYMBOLS)
    linear, condition = (sum((a * x for a, x in zip(adj[k], permuted)), zero) for k in (1, 2))
    return SurvivalCondition(
        condition=condition,
        denominator=det,
        limit_linear_coeff=RationalFunction(linear, det),
    )


def conjugate_through_iso(
    source: MonogenicAlgebra,
    target: MonogenicAlgebra,
    iso_image: UniPoly,
    aut_image: UniPoly,
) -> SubstitutionMap:
    """Pull an automorphism alpha of `target` back to `source` through the
    isomorphism iota: source -> target with the given image of X, by one
    solve: the pull-back sends X to the h with iota(h) = alpha(iota(X))."""
    iso = AlgebraHom(source, target, iso_image)
    if not iso.is_isomorphism():
        raise ValueError("the given map is not an isomorphism")
    alpha = SubstitutionMap(target, aut_image)
    if not alpha.is_automorphism():
        raise ValueError("the given map is not an automorphism of the target")
    w = alpha(target.from_poly(iso.image))
    return SubstitutionMap(source, iso.matrix().solve([w.coeff(k) for k in range(target.dim)]))
