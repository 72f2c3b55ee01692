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
    an alternative relation family, solved on one table of coefficients
    and checked for uniqueness;
  - recursion_free_check: the unconstrained one-step solution of the
    same recursion, verified identically.  Both compare polynomials one
    Taylor coefficient at a time (_taylor), with no polynomial type;
  - deformation_components: the splitting of a homogeneous class, such
    as one product f1 ^ f2, into its base cup-product term and the higher
    corrections along degrees stepping by 2|r|.

The oracle route and the presentation route are independent; their
agreement is exercised by the test suite, never assumed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, NamedTuple, Tuple

from .errors import (
    DomainError,
    InconsistentRecursion,
    SingularMatrix,
    VerificationFailure,
)
from .extalg import ExtClass, primitive_dim
from .qlinalg import QMatrix, invert
from .swpair import PairingQuotient, SphereParams
from .symprod import (
    BiPoly,
    SectorQuotient,
    alpha_of,
    relation_R,
    sector_monomials,
)


def _taylor(e: int, j: int, at: int) -> int:
    """The j-th Taylor coefficient of x^e at x = at: C(e, j) at^(e-j),
    and 0 when j > e (where at^(e-j) would be a float)."""
    return comb(e, j) * at ** (e - j) if j <= e else 0


# -- the recursion ---------------------------------------------------------

@lru_cache(maxsize=None)
def _run_recursion(g: int, r: int):
    """Solve the constrained recursion at one genus, on one coefficient
    table a_im of the polynomials p_m = sum_i a_im x^(g-i).

    The seed p_0 = (x-1)^n x^(g-n), n = d - alpha + 1, has
    a_i0 = (-1)^i C(n, i).  Step m seeks the a_im over the index window
    2 alpha + 2mr - d <= i <= alpha + mr whose Taylor coefficients at
    x = 1 match those of -(p_0(x+m) + ... + p_{m-1}(x+1)) to order
    d - alpha - mr, each read off the table by _taylor.  The window and
    the order shrink together, so each step is a square linear system; a
    singular one would falsify the uniqueness this construction relies
    on and aborts loudly.

    Returns (coefficients a_im by (i, m), and the assembled order-zero
    relation as a BiPoly).  r > 0, as recursion_unique folds it.
    """
    d = SphereParams(g, r).d
    a0 = alpha_of(d, 0)
    n = d - a0 + 1
    coeffs: Dict[Tuple[int, int], Fraction] = {
        (i, 0): Fraction((-1) ** i * comb(n, i)) for i in range(n + 1)}
    m = 1
    while a0 + m * r <= d:
        lo = 2 * a0 + 2 * m * r - d
        hi = a0 + m * r
        orders = d - a0 - m * r + 1
        A = QMatrix([[_taylor(g - i, j, 1) for i in range(lo, hi + 1)]
                     for j in range(orders)], ncols=hi - lo + 1)
        rhs = [-sum(c * _taylor(g - i, j, 1 + m - mm)
                    for (i, mm), c in coeffs.items())
               for j in range(orders)]
        try:
            sol = invert(A).apply(rhs)
        except SingularMatrix:
            raise InconsistentRecursion(
                f"step {m} at (g,r)=({g},{r}): solution not unique") from None
        for i, c in zip(range(lo, hi + 1), sol):
            if c:
                coeffs[(i, m)] = c
        m += 1
    return coeffs, BiPoly(
        ((a0 + mm * r - i, i), c / (factorial(i) * comb(g, i)))
        for (i, mm), c in coeffs.items())


class RelationSet(NamedTuple):
    """Both relation families for one (g, r), plus the recursion data."""

    g: int
    r: int
    tilde: Dict[int, BiPoly]
    recursion: Dict[int, BiPoly]
    a_coeffs: Dict[Tuple[int, int], Fraction]


def tilde_relation(g: int, r: int, k: int) -> BiPoly:
    """Closed-form relation: the symmetric-product relation polynomial
    minus the tail sum_{i<=alpha+|r|} C(alpha+|r|, i)/(i! C(g-k, i))
    eta^(alpha+|r|-i) theta^i; equals 1 at k = d+1."""
    params = SphereParams(g, r)
    d, r = params.d, params.r
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
    params = SphereParams(g, r)
    d, r = params.d, params.r
    coeffs, _ = _run_recursion(g, r)
    tilde = {k: tilde_relation(g, r, k) for k in range(d + 2)}
    recursion = {k: _run_recursion(g - k, r)[1] for k in range(d + 1)}
    recursion[d + 1] = BiPoly.unit()
    return RelationSet(g=g, r=r, tilde=tilde, recursion=recursion,
                       a_coeffs=dict(coeffs))


def recursion_free_check(g: int, r: int) -> bool:
    """Verify the unconstrained solution of the recursion.

    With p_1 = -x^(g-alpha-r) (x+1)^(alpha+r), that is
    a_i1 = -C(alpha+r, i), and p_m = 0 for m >= 2, the recursion asks
    that p_0(x+m) + p_1(x+m-1) vanish for every m >= 2 and that p_1
    agree with -p_0(x+1) to order d - alpha - r at x = 1.  Both follow
    from the one identity q(x) = p_0(x+1) + p_1(x) = 0, of degree <= g:
    the first are its shifts q(x+m-1), the second its Taylor coefficients
    at x = 1.  So only q is tested, one Taylor coefficient at a time.  The
    check confirms the closed form, not the solver (_run_recursion).
    """
    params = SphereParams(g, r)
    d, r = params.d, params.r
    a = alpha_of(d, 0)
    n = d - a + 1
    p0 = [(g - i, (-1) ** i * comb(n, i)) for i in range(n + 1)]
    p1 = [(g - i, -comb(a + r, i)) for i in range(a + r + 1)]
    return not any(sum(c * _taylor(e, j, 1) for e, c in p0)
                   + sum(c * _taylor(e, j, 0) for e, c in p1)
                   for j in range(g + 1))


# -- sector presentation ---------------------------------------------------

def presentation_quotient(g: int, r: int, k: int) -> SectorQuotient:
    """One primitive sector of the presentation.

    The quotient of Q[eta, theta] by the ideal generated by the order-k
    relation, theta times the order-(k+1) relation, and the nilpotence
    relations eta^(d+1) and theta^(d+1), on the basis
    {eta^a theta^b : 2a+b <= d-k}.  Every monomial of weight 2d+1 is
    divisible by eta^(d+1) or theta^(d+1), hence the weight cap 2d+1.
    One sector is built per (g, |r|, k).
    """
    return _presentation_sector(SphereParams(g, r), k)


@lru_cache(maxsize=None)
def _presentation_sector(params: SphereParams, k: int) -> SectorQuotient:
    g, r, d = params.g, params.r, params.d
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
    return sum(primitive_dim(g, k) * presentation_quotient(g, r, k).dim
               for k in range(SphereParams(g, r).d + 1))


# -- the oracle ring -------------------------------------------------------

def build_oracle(g: int, r: int) -> PairingQuotient:
    """V_r as a quotient by the radical of the full level sum; SphereParams
    folds negative r onto |r| (the conjugation symmetry of the invariants),
    so one ring is built per (g, |r|)."""
    return _oracle(SphereParams(g, r))


@lru_cache(maxsize=None)
def _oracle(params: SphereParams) -> PairingQuotient:
    return PairingQuotient(params)


def deformation_components(ring: PairingQuotient,
                           z: ExtClass) -> List[ExtClass]:
    """Split the class of a homogeneous z into its ladder components.

    For z of degree q the class decomposes as Phi_0 + Phi_1 + ... with
    Phi_m of degree q + 2m|r|; for z = f1 ^ f2, Phi_0 is the
    symmetric-product cup product of f1 and f2.  A nonzero component at
    any other degree would contradict the mod-2|r| grading and raises.

    A zero class has no degree and no ladder: the result is [].  A class
    of mixed degree raises DomainError.
    """
    base = z.degree()
    if base is None:
        return []
    vec = ring.nf_vector(z)
    ladder = list(range(base, 2 * ring.d + 1, ring.params.N))
    off = {L.degree for c, L in zip(vec, ring.labels) if c} - set(ladder)
    if off:
        raise VerificationFailure(
            f"product component at degree {min(off)} off the ladder "
            f"{ladder} at (g,r)=({ring.g},{ring.params.r})")
    return [ring.element_from_vector([c if L.degree == q else 0
                                      for c, L in zip(vec, ring.labels)])
            for q in ladder]
