"""The Floer cohomology ring of a product three-manifold.

For a genus-g surface and a nonzero twisting level r with |r| <= g-1,
the ring V_r is the degree <= 2d monomial algebra (d = g-1-|r|) modulo
the radical of the sphere-invariant pairing.  This module provides:

  - build_oracle: the pairing-kernel construction (a PairingQuotient
    over the full level sum);
  - tilde_relation: the closed-form relation polynomials, whose
    primitive-prefactor multiples generate the vanishing ideal;
  - presentation_quotient: the sector rings cut out by those relations
    together with the nilpotence relations, by exact linear algebra;
  - recursion_unique: the constrained polynomial recursion determining
    an alternative relation family, solved and checked for uniqueness;
  - recursion_free_check: the unconstrained one-step solution of the
    same recursion, verified identically;
  - deformation_components: the splitting of a product into its base
    cup-product term and the higher corrections along degrees stepping
    by 2|r|.

The oracle route and the presentation route are independent; their
agreement is exercised by the test suite, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Tuple

from .errors import (
    DomainError,
    InconsistentRecursion,
    SingularMatrix,
    VerificationFailure,
)
from .extalg import ExtClass, ExtMono, primitive_dim
from .qlinalg import QMatrix, invert
from .swpair import PairingQuotient, SphereParams
from .symprod import (
    BiPoly,
    SectorQuotient,
    alpha_of,
    relation_R,
    sector_monomials,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Poly = Tuple[Fraction, ...]  # univariate, index = exponent


# -- univariate helpers ----------------------------------------------------

def _poly_trim(c: List[Fraction]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _poly_trim(out)


def poly_add(p: Poly, q: Poly) -> Poly:
    out = [ZERO] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return _poly_trim(out)


def poly_scale(p: Poly, c: Fraction) -> Poly:
    return _poly_trim([c * a for a in p])


def poly_pow(p: Poly, n: int) -> Poly:
    out: Poly = (ONE,)
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def poly_shift(p: Poly, c: int) -> Poly:
    """p(x + c)."""
    out = [ZERO] * len(p)
    cf = Fraction(c)
    for e, a in enumerate(p):
        if not a:
            continue
        power = ONE
        for j in range(e, -1, -1):
            out[j] += a * comb(e, j) * power
            power *= cf
    return _poly_trim(out)


def _x_power(n: int) -> Poly:
    return tuple([ZERO] * n + [ONE])


# -- the recursion ---------------------------------------------------------

def _check_gr(g: int, r: int) -> Tuple[int, int]:
    """(g, |r|), once SphereParams has accepted the pair."""
    SphereParams(g, r)
    return g, abs(r)


def seed_poly(g: int, r: int) -> Poly:
    """The recursion seed (x-1)^(d-alpha+1) x^(g-(d-alpha+1))."""
    g, r = _check_gr(g, r)
    d = g - 1 - r
    a = alpha_of(d, 0)
    n = d - a + 1
    return poly_mul(poly_pow((Fraction(-1), ONE), n), _x_power(g - n))


@lru_cache(maxsize=None)
def _run_recursion(g: int, r: int):
    """Solve the constrained recursion at one genus.

    Step m seeks p_m = sum a_im x^(g-i) over the index window
    2 alpha + 2mr - d <= i <= alpha + mr, matching the Taylor expansion
    of -(p_0(x+m) + ... + p_{m-1}(x+1)) at x = 1 to order d - alpha - mr.
    The window and the order shrink together, so each step is a square
    linear system; a singular one would falsify the uniqueness this
    construction relies on and aborts loudly.

    Returns (polynomials by step, coefficients a_im by (i, m), and the
    assembled order-zero relation as a BiPoly).
    """
    g, r = _check_gr(g, r)
    d = g - 1 - r
    a0 = alpha_of(d, 0)
    polys: Dict[int, Poly] = {0: seed_poly(g, r)}
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    p0 = polys[0]
    for i in range(d - a0 + 2):
        c = p0[g - i] if g - i < len(p0) else ZERO
        if c:
            coeffs[(i, 0)] = c
    m = 1
    while a0 + m * r <= d:
        lo = 2 * a0 + 2 * m * r - d
        hi = a0 + m * r
        orders = d - a0 - m * r + 1
        A = QMatrix([[Fraction(comb(g - i, j)) for i in range(lo, hi + 1)]
                     for j in range(orders)], ncols=hi - lo + 1)
        rhs_poly: Poly = ()
        for mm in range(m):
            rhs_poly = poly_add(rhs_poly, poly_shift(polys[mm], m - mm))
        shifted = poly_shift(rhs_poly, 1)
        rhs = [-(shifted[j] if j < len(shifted) else ZERO) for j in range(orders)]
        try:
            sol = invert(A).apply(rhs)
        except SingularMatrix:
            raise InconsistentRecursion(
                f"step {m} at (g,r)=({g},{r}): solution not unique") from None
        pm: Poly = ()
        for offset, i in enumerate(range(lo, hi + 1)):
            c = sol[offset]
            if c:
                coeffs[(i, m)] = c
                pm = poly_add(pm, poly_scale(_x_power(g - i), c))
        polys[m] = pm
        m += 1
    return polys, coeffs, BiPoly(
        ((a0 + mm * r - i, i), c / (factorial(i) * comb(g, i)))
        for (i, mm), c in coeffs.items())


@dataclass(frozen=True)
class RelationSet:
    """Both relation families for one (g, r), plus the recursion data."""

    g: int
    r: int
    tilde: Dict[int, BiPoly]
    recursion: Dict[int, BiPoly]
    p_polys: Dict[int, Poly]
    a_coeffs: Dict[Tuple[int, int], Fraction]

    @property
    def d(self) -> int:
        return self.g - 1 - abs(self.r)


def tilde_relation(g: int, r: int, k: int) -> BiPoly:
    """Closed-form relation: the symmetric-product relation polynomial
    minus the tail sum_{i<=alpha+|r|} C(alpha+|r|, i)/(i! C(g-k, i))
    eta^(alpha+|r|-i) theta^i; equals 1 at k = d+1."""
    g, r = _check_gr(g, r)
    d = g - 1 - r
    if k < 0 or k > d + 1:
        raise DomainError(f"k must satisfy 0 <= k <= d+1, got k={k}")
    if k == d + 1:
        return BiPoly.unit()
    a = alpha_of(d, k)
    tail: Dict[Tuple[int, int], Fraction] = {}
    for i in range(a + r + 1):
        c = Fraction(comb(a + r, i), factorial(i) * comb(g - k, i))
        tail[(a + r - i, i)] = c
    return relation_R(g, d, k) - BiPoly(tail)


def recursion_unique(g: int, r: int) -> RelationSet:
    """Solve the recursion at every needed genus and assemble both
    relation families; the order-k recursion relation is the order-zero
    relation one genus down per prefactor degree."""
    g, r = _check_gr(g, r)
    d = g - 1 - r
    polys, coeffs, _ = _run_recursion(g, r)
    tilde = {k: tilde_relation(g, r, k) for k in range(d + 2)}
    recursion = {}
    for k in range(d + 1):
        _, _, R0 = _run_recursion(g - k, r)
        recursion[k] = R0
    recursion[d + 1] = BiPoly.unit()
    return RelationSet(g=g, r=r, tilde=tilde, recursion=recursion,
                       p_polys=dict(polys), a_coeffs=dict(coeffs))


def recursion_free_check(g: int, r: int) -> bool:
    """Verify the unconstrained solution of the recursion.

    With p_1 = -x^(g-alpha-r) (x+1)^(alpha+r) and p_m = 0 for m >= 2:
    p_0(x+m) + p_1(x+m-1) must vanish identically for every m >= 2, p_1
    must agree with -p_0(x+1) to the required Taylor order at x = 1,
    and the read-back coefficients must be a_i1 = -C(alpha+r, i).
    """
    g, r = _check_gr(g, r)
    d = g - 1 - r
    a = alpha_of(d, 0)
    p0 = seed_poly(g, r)
    p1 = poly_scale(poly_mul(_x_power(g - a - r), poly_pow((ONE, ONE), a + r)),
                    Fraction(-1))
    for i in range(a + r + 1):
        have = p1[g - i] if g - i < len(p1) else ZERO
        if have != -comb(a + r, i):
            return False
    for m in range(2, d + 4):
        if poly_add(poly_shift(p0, m), poly_shift(p1, m - 1)):
            return False
    diff = poly_shift(poly_add(p1, poly_shift(p0, 1)), 1)
    for j in range(d - a - r + 1):
        if j < len(diff) and diff[j]:
            return False
    return True


# -- sector presentation ---------------------------------------------------

@lru_cache(maxsize=None)
def presentation_quotient(g: int, r: int, k: int) -> SectorQuotient:
    """One primitive sector of the presentation.

    The quotient of Q[eta, theta] by the ideal generated by the order-k
    relation, theta times the order-(k+1) relation, and the nilpotence
    relations eta^(d+1) and theta^(d+1), on the basis
    {eta^a theta^b : 2a+b <= d-k}.  Every monomial of weight 2d+1 is
    divisible by eta^(d+1) or theta^(d+1), hence the weight cap 2d+1.
    """
    g, r = _check_gr(g, r)
    d = g - 1 - r
    if k < 0 or k > d:
        raise DomainError(f"k must satisfy 0 <= k <= d, got k={k}")
    gens = [
        tilde_relation(g, r, k),
        BiPoly.theta(1) * tilde_relation(g, r, k + 1),
        BiPoly.eta(d + 1),
        BiPoly.theta(d + 1),
    ]
    return SectorQuotient(gens, sector_monomials(d - k), 2 * d + 1)


def presentation_dimension(g: int, r: int) -> int:
    """Total dimension of the presentation: primitive dimension times
    sector dimension, summed over prefactor degrees."""
    g, r = _check_gr(g, r)
    d = g - 1 - r
    return sum(primitive_dim(g, k) * presentation_quotient(g, r, k).dim
               for k in range(d + 1))


# -- the oracle ring -------------------------------------------------------

@lru_cache(maxsize=None)
def build_oracle(g: int, r: int) -> PairingQuotient:
    """V_r as a quotient by the radical of the full level sum; negative r
    is folded onto |r| by the conjugation symmetry of the invariants."""
    return PairingQuotient(SphereParams(g, r))


def deformation_components(ring: PairingQuotient, f1: ExtClass,
                           f2: ExtClass) -> List[ExtClass]:
    """Split a product into its ladder components.

    For homogeneous inputs of degrees i and j the product decomposes as
    Phi_0 + Phi_1 + ... with Phi_m of degree i + j + 2m|r|; Phi_0 is the
    symmetric-product cup product.  A nonzero component at any other
    degree would contradict the mod-2|r| grading and raises.

    A zero factor has no degree and no ladder: the result is [].
    """
    if f1.is_zero() or f2.is_zero():
        return []
    base = f1.degree() + f2.degree()
    N = ring.params.N
    cap = 2 * ring.d
    vec = ring.product_vector(f1, f2)
    by_degree: Dict[int, List[Tuple[ExtMono, Fraction]]] = {}
    for c, label, e in zip(vec, ring.labels, ring.basis):
        if c:
            by_degree.setdefault(label.degree, []).extend(
                (m, c * ce) for m, ce in e.terms.items())
    ladder = []
    q = base
    while q <= cap:
        ladder.append(q)
        q += N
    for q in by_degree:
        if q not in ladder:
            raise VerificationFailure(
                f"product component at degree {q} off the ladder "
                f"{ladder} at (g,r)=({ring.g},{ring.params.r})")
    return [ExtClass(ring.g, by_degree.get(q, ())) for q in ladder]
