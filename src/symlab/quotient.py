"""Quotient algebras k[X]/(f): arithmetic, substitution maps, idempotent
bases, Vandermonde transitions, and the automorphism-group description of
a split modulus from its (root, multiplicity) pairs.

A substitution map is determined by the image polynomial of X.  Composition
is polynomial composition of the images: compose(outer, inner) has image
outer_image(inner_image(X)) mod f, so it reproduces the classical closed
composition law on X -> aX + bX^2 maps coefficient for coefficient.

A map (AlgebraHom) owns its homomorphism and isomorphism verdicts and
reaches each at most once.  They run on raw field values: a map's powers
image^k mod f are computed once, and the verdicts, the matrix behind the
determinant test, the inverse, the order, the map applied to an element
and composition all read them: the one way p(g) mod f is computed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .fields import Field, FieldError, check_budget, power
from .linalg import MAX_DIMENSION, CoordinateVector, Matrix
from .poly import FunctionField, MultiPoly, UniPoly, _mul_values, _reduce_values, lagrange_numerator


class MonogenicAlgebra:
    """k[X]/(f) for a monic modulus f of degree >= 1."""

    def __init__(self, field: Field, modulus: UniPoly):
        if modulus.field != field:
            raise FieldError("modulus is over a different field")
        if modulus.degree < 1:
            raise ValueError("modulus must have degree at least 1")
        if not modulus.is_monic():
            raise ValueError("modulus must be monic")
        self.field = field
        self.modulus = modulus

    @classmethod
    def from_roots(cls, field, roots):
        return cls(field, UniPoly.from_roots(field, roots))

    @property
    def dim(self) -> int:
        return self.modulus.degree

    def element(self, coeffs) -> "AlgebraElement":
        return self.from_poly(UniPoly(self.field, coeffs))

    def reduce(self, p: UniPoly) -> UniPoly:
        """p mod the modulus, dividing only when deg p >= deg f."""
        return p if p.degree < self.dim else p % self.modulus

    def from_poly(self, p: UniPoly) -> "AlgebraElement":
        cs = self.reduce(p).coeffs
        return AlgebraElement._wrap(self, cs + (self.field.zero.value,) * (self.dim - len(cs)))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def gen(self):
        """The class of X."""
        return self.element([0, 1])

    def __eq__(self, other):
        if not isinstance(other, MonogenicAlgebra):
            return NotImplemented
        return self.field == other.field and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.field, self.modulus))

    def __repr__(self):
        return f"{self.field}[X]/({self.modulus})"


class AlgebraElement(CoordinateVector):
    """Element in the basis 1, X, ..., X^(n-1) of its algebra."""

    __slots__ = ()

    def as_poly(self) -> UniPoly:
        f, cs = self.algebra.field, list(self.coeffs)
        while cs and f._is_zero(cs[-1]):
            cs.pop()
        return UniPoly._wrap(f, cs)

    def _times(self, other):
        return self.algebra.from_poly(self.as_poly() * other.as_poly())

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        return power(self, n, self.algebra.one())

    def __str__(self):
        return self.as_poly().to_str(ascending=True)


class AlgebraHom:
    """Unital algebra map source -> target sending X to `image`.

    Whether the assignment actually is a homomorphism is a property
    (is_homomorphism), not a construction invariant, because testing the
    failure case is part of the point.

    Its two verdicts, homomorphism and isomorphism, are each reached at
    most once; every check, the inverse and a substitution map's order read
    them.  The verdicts, the matrix and the inverse read one power table,
    the raw coefficients of image^k mod f_target for k = 0..deg f_source.
    """

    def __init__(self, source: MonogenicAlgebra, target: MonogenicAlgebra, image: UniPoly):
        if source.field != target.field:
            raise FieldError("source and target over different fields")
        if image.field != source.field:
            raise FieldError("image polynomial over a different field")
        self.source = source
        self.target = target
        self.image = target.reduce(image)

    @functools.cached_property
    def _power_table(self) -> list:
        """Raw coefficient lists, lowest degree first and padded with zeros
        to deg f_target, of image^k reduced mod f_target, for
        k = 0..deg f_source."""
        f, n = self.source.field, self.target.dim
        img, mod = self.image.coeffs, self.target.modulus.coeffs
        acc = [f.one.value]
        pad = [f.zero.value] * n
        table = [acc + pad[1:]]
        for _ in range(self.source.dim):
            acc = _reduce_values(f, _mul_values(f, acc, img), mod)
            table.append(acc + pad[len(acc):])
        return table

    def _substitute(self, cs) -> list:
        """Raw coefficients in the target of sum_j cs_j * image^j, for raw
        values cs_0, cs_1, ..., at most deg f_source + 1 of them: the
        polynomial sum cs_j X^j with the image substituted for X, read off
        the power table."""
        f, table = self.source.field, self._power_table
        mul, add, is_zero = f._mul, f._add, f._is_zero
        out = [f.zero.value] * len(table[0])
        for c, row in zip(cs, table):
            if not is_zero(c):
                out = [add(s, mul(c, v)) for s, v in zip(out, row)]
        return out

    @functools.cached_property
    def _homomorphic(self) -> bool:
        """True iff f_source(image(X)) == 0 in the target."""
        f = self.source.field
        return all(map(f._is_zero, self._substitute(self.source.modulus.coeffs)))

    @functools.cached_property
    def _isomorphic(self) -> bool:
        same_dim = self.source.dim == self.target.dim
        return same_dim and self._homomorphic and self.matrix().is_invertible()

    def is_homomorphism(self) -> bool:
        return self._homomorphic

    def is_isomorphism(self) -> bool:
        return self._isomorphic

    def __call__(self, u: AlgebraElement) -> AlgebraElement:
        if u.algebra != self.source:
            raise ValueError("element of a different algebra")
        return AlgebraElement._wrap(self.target, self._substitute(u.coeffs))

    def matrix(self) -> Matrix:
        """Induced linear map, columns = coordinates of images of X^k."""
        if self.target.dim != self.source.dim:
            raise ValueError("matrix of a map between different dimensions")
        return Matrix._wrap(self.source.field, zip(*self._power_table[:-1]))

    def inverse_image(self) -> UniPoly:
        """Image of X under the inverse map (target -> source); raises
        ValueError for a non-homomorphism and, from solve, for a singular
        matrix."""
        if not self._homomorphic:
            raise ValueError("map is not a homomorphism")
        x = self.target.gen()
        sol = self.matrix().solve([x.coeff(k) for k in range(self.target.dim)])
        return UniPoly(self.source.field, sol)


class SubstitutionMap(AlgebraHom):
    """Endomorphism of one algebra, given by the image polynomial of X."""

    def __init__(self, algebra: MonogenicAlgebra, image):
        if not isinstance(image, UniPoly):
            image = UniPoly(algebra.field, image)
        super().__init__(algebra, algebra, image)

    @property
    def algebra(self):
        return self.source

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, UniPoly.x(algebra.field))

    def is_endomorphism(self) -> bool:
        return self._homomorphic

    def is_automorphism(self) -> bool:
        return self._isomorphic

    def compose(self, inner: "SubstitutionMap") -> "SubstitutionMap":
        """Map with image self.image(inner.image(X)) mod f: inner applied to it."""
        if inner.algebra != self.algebra:
            raise ValueError("maps on different algebras")
        return SubstitutionMap(self.algebra, inner(self.algebra.from_poly(self.image)).as_poly())

    def inverse(self) -> "SubstitutionMap":
        return SubstitutionMap(self.algebra, self.inverse_image())

    def is_identity(self) -> bool:
        return self.image == self.algebra.reduce(UniPoly.x(self.algebra.field))

    def order(self, max_order: int = 64):
        """Smallest k <= max_order with the k-fold composite equal to the
        identity, or None.  With max_order the size of a finite group of
        automorphisms holding the map, the answer is exact (Lagrange).

        The composites are raw coefficient lists: the image of X under
        the (k+1)-fold composite is the k-fold image with g substituted for
        X."""
        if not self._isomorphic:
            raise ValueError("order of a non-automorphism")
        acc = ident = list(self.algebra.gen().coeffs)
        for k in range(1, max_order + 1):
            acc = self._substitute(acc)
            if acc == ident:
                return k
        return None

    def __eq__(self, other):
        if not isinstance(other, SubstitutionMap):
            return NotImplemented
        return self.algebra == other.algebra and self.image == other.image

    def __hash__(self):
        return hash((self.algebra, self.image))

    def __str__(self):
        return f"X -> {self.image.to_str(ascending=True)}"

    def __repr__(self):
        return self.__str__()


def idempotents(field: Field, roots) -> list[AlgebraElement]:
    """Lagrange idempotents prod_{j != i} (X - z_j)/(z_i - z_j) of the split
    algebra k[X]/(prod (X - z_i)) on the distinct roots z_i, each an element
    of that algebra."""
    zs = [field.coerce(z) for z in roots]
    algebra = MonogenicAlgebra.from_roots(field, zs)
    return [algebra.from_poly(l) for l in lagrange_basis(field, zs)]


def lagrange_pairs(zs, one):
    """(N_i, d_i) for each i, with N_i the coefficients, X^0 first, of
    prod_{j != i} (X - z_j) and d_i = prod_{j != i} (z_i - z_j), each
    multiplied left to right from `one`.  Entries need only +, -, *, with
    `one` the unit of their ring; over a field with the z_i distinct,
    N_i/d_i is the Lagrange basis polynomial, 1 at z_i and 0 at the rest."""
    pairs = []
    for i, zi in enumerate(zs):
        d = one
        for j, zj in enumerate(zs):
            if j != i:
                d = d * (zi - zj)
        pairs.append((lagrange_numerator(zs, i, one), d))
    return pairs


def lagrange_basis(field: Field, zs) -> list[UniPoly]:
    """The Lagrange basis N_i/d_i on the field elements zs; a repeated one
    makes some d_i zero, and raises ValueError."""
    basis = []
    for num, d in lagrange_pairs(zs, field.one):
        if d.is_zero():
            raise ValueError("roots must be pairwise distinct")
        basis.append(UniPoly(field, num) * d.inverse())
    return basis


def common_denominator(pairs, one):
    """(q, ws) for pairs (num_i, den_i): q the product of the distinct
    den_i, and w_i = q * num_i / den_i, formed without division."""
    dens = []
    for _, d in pairs:
        if all(d != e for e in dens):
            dens.append(d)
    q = one
    for d in dens:
        q = q * d
    ws = []
    for num, den in pairs:
        w = num
        for d in dens:
            if d != den:
                w = w * d
        ws.append(w)
    return q, ws


def _ring_parts(field):
    """(one, split) for the polynomial ring R under `field`: k[symbols]
    (MultiPoly) for a function field, the field itself otherwise; split(x)
    gives (num, den) in R with x = num/den."""
    if isinstance(field, FunctionField):
        one = MultiPoly.constant(field.base, field.symbols, 1)
        return one, lambda x: (x.value.num, x.value.den)
    return field.one, lambda x: (x, field.one)


# Most weight an `idem` run may carry.  verify_idempotents evaluates n
# numerators of n coefficients at n points by Horner, about n^3 products in
# the s symbols of total degree up to m = (n - 1) * D, with D the top degree
# of a root times the product of the distinct root denominators; C(m + s, s)
# terms at most.  A run weighs n^2 * C(m + s, s).  In-process CPU time,
# Python 3.11 on a shared 2-vCPU VM: admitted, 5 fractional roots in a,t
# weigh 5,775 and take 0.4 s, 9 roots t/(t + i) 5,913 (0.6 s); refused, 6
# fractional roots weigh 17,856 (2.8 s), 10 roots 1/(t + i) 8,200 (0.5 s).
# Past MAX_DIMENSION roots are refused too: 14 integers take 0.14 s, 60 take
# 8.6 s.
IDEMPOTENT_BUDGET = 6000


def check_idempotent_weight(ratfuncs):
    """Raise ValueError past MAX_DIMENSION roots or IDEMPOTENT_BUDGET, for
    the roots as rational functions from the parser."""
    n, s = len(ratfuncs), len(ratfuncs[0].symbols)
    if n > MAX_DIMENSION:
        raise ValueError(f"{n} roots are past MAX_DIMENSION = {MAX_DIMENSION}")
    deg = lambda p: max(map(sum, p.terms), default=0)
    dens = [r.den for i, r in enumerate(ratfuncs) if all(r.den != o.den for o in ratfuncs[:i])]
    top = sum(map(deg, dens)) + max(deg(r.num) - deg(r.den) for r in ratfuncs)
    weight = n * n * math.comb((n - 1) * top + s, s)
    if weight > IDEMPOTENT_BUDGET:
        raise ValueError(f"idempotent weight {weight} is past IDEMPOTENT_BUDGET = {IDEMPOTENT_BUDGET}")


def verify_idempotents(roots, es) -> bool:
    """True iff es are the orthogonal idempotents, summing to 1, with
    X*e_i = z_i*e_i, of the split algebra k[X]/(prod (X - z_i)).

    With the z_i distinct, evaluation at them maps k[X]/(prod (X - z_i))
    isomorphically onto k^n (Chinese remainder theorem), so those four
    properties hold iff e_i(z_k) = delta_ik.  Both steps run over the ring
    R of the roots' numerators and denominators, with no division.  With q
    the product of the distinct root denominators, w_i = q*z_i and
    (N_i, d_i) the Lagrange pairs of the w_i, the X^k coefficient of each
    e_i must equal q^k*N_i[k]/d_i, so that e_i(z_k) = N_i(w_k)/d_i; then
    Horner must give N_i(w_k) = d_i for k = i and 0 otherwise, with every
    d_i nonzero, which also makes the z_i distinct.
    """
    n = len(roots)
    if len(es) != n or any(len(e.coeffs) != n for e in es):
        return False
    one, split = _ring_parts(roots[0].field)
    q, ws = common_denominator([split(z) for z in roots], one)
    zero = one - one
    for i, (e, (num, d)) in enumerate(zip(es, lagrange_pairs(ws, one))):
        if d == zero:
            return False
        qk = one
        for k, nk in enumerate(num):
            cn, cd = split(e.coeff(k))
            if cn * d != cd * qk * nk:
                return False
            qk = qk * q
        for k, w in enumerate(ws):
            acc = zero
            for c in reversed(num):
                acc = acc * w + c
            if acc != (d if k == i else zero):
                return False
    return True


def vandermonde_adjugate(roots, one):
    """Adjugate and determinant of the Vandermonde matrix M with rows
    (1, z_i, ..., z_i^(n-1)), without division, so that M^(-1) = adj/det.

    det = prod_{j<l} (z_l - z_j).  Column i of adj holds the coefficients
    (X^0 first) of the Lagrange numerator prod_{j != i} (X - z_j), times
    (-1)^(n-1-i) and the product of the differences z_l - z_j (j < l) that
    do not involve i.  Entries need only +, -, *: FieldElement, UniPoly
    and MultiPoly entries work alike, with `one` the unit of their ring.
    """
    zs = list(roots)
    n = len(zs)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        numer = lagrange_numerator(zs, i, one)
        scale = root_differences(zs, one, i)
        if (n - 1 - i) % 2:
            scale = -scale
        for k in range(n):
            adj[k][i] = scale * numer[k]
    return adj, root_differences(zs, one)


def root_differences(zs, one, skip=None):
    """prod_{j<l} (z_l - z_j) over the pairs not involving index `skip`,
    multiplied in that order from `one`; with skip None, the Vandermonde
    determinant."""
    acc = one
    for j in range(len(zs)):
        for l in range(j + 1, len(zs)):
            if skip not in (j, l):
                acc = acc * (zs[l] - zs[j])
    return acc


def vandermonde_pair(field: Field, roots) -> tuple[Matrix, Matrix]:
    """Vandermonde matrix with rows (1, z_i, ..., z_i^(n-1)) and its exact
    inverse, whose column i holds the coefficients of the Lagrange basis
    polynomial l_i; raises ValueError on repeated roots."""
    zs = [field.coerce(z) for z in roots]
    inverse = Matrix._wrap(field, zip(*(l.coeffs for l in lagrange_basis(field, zs))))
    return Matrix(field, [[z**k for k in range(len(zs))] for z in zs]), inverse


@dataclass(frozen=True)
class AutFactor:
    multiplicity: int
    count: int
    connected: str
    connected_dim: int


@dataclass(frozen=True)
class AutDescription:
    """Automorphism group of a product of one-root local algebras.  Its
    multiplicity profile parts = ((m_1, r_1), ..., (m_s, r_s)) lists the
    distinct multiplicities m_i, each occurring for r_i roots; the group is a
    permutation part S_{r_1} x ... x S_{r_s} and, per local factor, the
    connected group of that factor."""

    parts: tuple
    factors: tuple
    permutation_part: str
    finite_order: int | None


def _connected_description(m: int) -> tuple[str, int]:
    if m == 1:
        return "trivial", 0
    if m == 2:
        return "multiplicative group (X -> bX, b != 0)", 1
    times = f"{m - 2} time" + ("s" if m != 3 else "")
    return (
        f"multiplicative group extended {times} by the additive group",
        m - 1,
    )


def aut_description(root_multiplicities) -> AutDescription:
    """Aut(k[X]/(prod (X - r)^m)) from explicit (root, multiplicity) pairs,
    grouped by multiplicity."""
    seen = []
    counts: dict[int, int] = {}
    for root, mult in root_multiplicities:
        if mult < 1:
            raise ValueError("multiplicities must be >= 1")
        if any(other == root for other in seen):
            raise ValueError("repeated root in multiplicity data")
        seen.append(root)
        counts[mult] = counts.get(mult, 0) + 1
    parts = tuple(sorted(counts.items()))
    order = math.prod(math.factorial(r) for _, r in parts)
    return AutDescription(
        parts=parts,
        factors=tuple(AutFactor(m, r, *_connected_description(m)) for m, r in parts),
        permutation_part=" x ".join(f"S{r}" for _, r in parts) or "S0",
        finite_order=order if all(m == 1 for m, _ in parts) else None,
    )


def brute_force_automorphisms(algebra: MonogenicAlgebra) -> list[SubstitutionMap]:
    """All substitution automorphisms of a quotient algebra over a finite
    field, by enumeration of image polynomials g of degree < n.

    With R the roots of f in the field, Hom(A, k) for A = k[X]/(f) is R,
    the map X -> r for each root r.  An automorphism X -> g of A acts by
    precomposition as a bijection on Hom(A, k), sending X -> r to
    X -> g(r), so g permutes R.  Only the images meeting this necessary
    condition are enumerated, each once: with l_i the Lagrange basis on R
    and P = prod_{r in R} (X - r), they are g = sum_i v_i*l_i + P*h for v a
    permutation of R and h of degree < n - |R|, |R|! * q^(n - |R|) of them.
    A modulus without a root in the field has P = 1, so every image is
    enumerated.  Each one is checked in full by is_automorphism.
    """
    field = algebra.field
    q = field.size()
    if q is None:
        raise FieldError("brute force needs a finite field")
    n = algebra.dim
    # all q^n images, as for a modulus without roots (fields.ENUMERATION_BUDGET)
    check_budget(q**n, "candidate images", max(1, n * n // 16))
    elems = list(field.elements())
    roots = [z for z in elems if algebra.modulus(z).is_zero()]
    basis = lagrange_basis(field, roots)
    vanishing = UniPoly.from_roots(field, roots)
    lows = [
        sum((l * v for l, v in zip(basis, vs)), UniPoly.zero(field))
        for vs in itertools.permutations(roots)
    ]
    highs = [vanishing * UniPoly(field, h) for h in itertools.product(elems, repeat=n - len(roots))]
    out = []
    for low, high in itertools.product(lows, highs):
        g = SubstitutionMap(algebra, low + high)
        if g.is_automorphism():
            out.append(g)
    out.sort(key=lambda g: tuple(g.image.coeff(i).sort_key() for i in range(n)))
    return out
