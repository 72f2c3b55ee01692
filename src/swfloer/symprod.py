"""Cohomology of symmetric products of a surface.

The d-th symmetric product of a genus-g surface has cohomology ring
generated (over the odd part) by two even classes: eta, the class of the
divisor of configurations through a fixed point, and theta, pulled back
from the Jacobian.  This module computes:

  - Betti numbers, from the Macdonald generating function
    (1+zt)^(2g) / ((1-z)(1-zt^2)), coefficient of z^d;
  - the relation polynomials R_k in Q[eta, theta] whose multiples cut the
    ring out of the free module over the primitive exterior algebra;
  - sector quotients (SectorQuotient): Q[eta, theta] modulo relation
    polynomials on a certified monomial basis, built here by
    sector_quotient and by the Floer ring presentation in floerring;
  - sector normal forms: the canonical representative of a polynomial
    modulo (R_k, theta R_{k+1}, theta^(g-k+1)) on the monomial basis
    {eta^a theta^b : 2a + b <= d - k};
  - an independent full-ring oracle built from the sphere-invariant
    pairing at its top level, for cross-checking the presentation.

Polynomials in eta and theta are BiPoly values; the text form writes
eta as `e` and theta as `t`, for example "e - 1/3*t", and its sums are
split into terms by extalg.signed_terms, as class expressions are.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import DomainError, VerificationFailure
from .extalg import _RAT_RE, parse_frac, parse_int, primitive_dim, render_sum, signed_terms
from .qlinalg import QMatrix, frac, reduce_by_rref, rref, sum_terms

ZERO = Fraction(0)
ONE = Fraction(1)


class BiPoly:
    """Polynomial in eta and theta with rational coefficients.

    Terms map (a, b) = (eta exponent, theta exponent) to a nonzero
    coefficient.  The cohomological degree of eta^a theta^b is 2a + 2b;
    its weight is a + b.  Summed in one pass (qlinalg.sum_terms) from a
    mapping, every key of which is checked, or from ((a, b), c) pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        self.terms = sum_terms(terms)
        for a, b in terms if isinstance(terms, Mapping) else self.terms:
            if a < 0 or b < 0:
                raise DomainError(f"negative exponent in ({a},{b})")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly({})

    @staticmethod
    def unit() -> "BiPoly":
        return BiPoly({(0, 0): ONE})

    @staticmethod
    def eta(a: int = 1) -> "BiPoly":
        return BiPoly({(a, 0): ONE})

    @staticmethod
    def theta(b: int = 1) -> "BiPoly":
        return BiPoly({(0, b): ONE})

    @staticmethod
    def monomial(a: int, b: int, coeff: Fraction = ONE) -> "BiPoly":
        return BiPoly({(a, b): coeff})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "BiPoly":
        c = frac(c)
        return BiPoly({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly(((a1 + a2, b1 + b2), c1 * c2)
                      for (a1, b1), c1 in self.terms.items()
                      for (a2, b2), c2 in other.terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({render_bipoly(self)})"

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, a: int, b: int) -> Fraction:
        return self.terms.get((a, b), ZERO)

    def weights(self) -> List[int]:
        return sorted({a + b for (a, b) in self.terms})

    def sorted_terms(self) -> List[Tuple[Tuple[int, int], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0]))


# -- text form -------------------------------------------------------------

_BP_FACTOR_RE = re.compile(r"(e|t)(?:\^(\d+))?$")


def render_bipoly(p: BiPoly) -> str:
    """Canonical text: terms by weight then eta exponent descending."""
    terms = []
    for (a, b), c in p.sorted_terms():
        factors = []
        if a:
            factors.append("e" if a == 1 else f"e^{a}")
        if b:
            factors.append("t" if b == 1 else f"t^{b}")
        terms.append(("*".join(factors) if factors else "1", c))
    return render_sum(terms)


def parse_bipoly(text: str) -> BiPoly:
    """Parse the render_bipoly grammar: sums of rational multiples of
    products of `e^a` and `t^b`."""
    terms: List[Tuple[Tuple[int, int], Fraction]] = []
    for sign, chunk in signed_terms(text):
        coeff = Fraction(sign)
        a = b = 0
        for factor in chunk.split("*"):
            factor = factor.strip()
            if _RAT_RE.fullmatch(factor):
                coeff *= parse_frac(factor)
                continue
            m = _BP_FACTOR_RE.match(factor)
            if not m:
                raise DomainError(f"bad factor {factor!r} in {text!r}")
            exp = parse_int(m.group(2)) if m.group(2) else 1
            if m.group(1) == "e":
                a += exp
            else:
                b += exp
        terms.append(((a, b), coeff))
    return BiPoly(terms)


# -- Betti numbers ---------------------------------------------------------

def betti(g: int, d: int) -> List[int]:
    """Betti numbers b_0..b_2d of the d-th symmetric product, as the
    coefficient of z^d in (1+zt)^(2g) / ((1-z)(1-zt^2))."""
    if g < 2:
        raise DomainError(f"genus must be >= 2, got {g}")
    if d < 0 or d > g - 1:
        raise DomainError(f"d must satisfy 0 <= d <= g-1, got d={d}, g={g}")
    out = []
    for i in range(2 * d + 1):
        total = 0
        for v in range(max(0, i - d), i // 2 + 1):
            total += comb(2 * g, i - 2 * v)
        out.append(total)
    return out


def betti_total(g: int, d: int) -> int:
    return sum(betti(g, d))


# -- relation polynomials --------------------------------------------------

def alpha_of(d: int, k: int) -> int:
    """Half the codimension step: [(d-k)/2] + 1."""
    return (d - k) // 2 + 1


def relation_R(g: int, d: int, k: int) -> BiPoly:
    """The k-th relation polynomial.

    R_k = sum_{i=0}^{alpha} C(d-k-alpha+1, i)/C(g-k, i) (-1)^i/i! *
    eta^(alpha-i) theta^i with alpha = [(d-k)/2] + 1, and R_{d+1} = 1.
    """
    if g < 2:
        raise DomainError(f"genus must be >= 2, got {g}")
    if d < 0 or d > g - 1:
        raise DomainError(f"d must satisfy 0 <= d <= g-1, got d={d}")
    if k < 0 or k > d + 1:
        raise DomainError(f"k must satisfy 0 <= k <= d+1, got k={k}")
    if k == d + 1:
        return BiPoly.unit()
    a = alpha_of(d, k)
    terms: Dict[Tuple[int, int], Fraction] = {}
    fact = 1
    for i in range(a + 1):
        if i:
            fact *= i
        num = comb(d - k - a + 1, i)
        if num == 0:
            continue
        c = Fraction(num, comb(g - k, i) * fact) * (-1) ** i
        terms[(a - i, i)] = c
    return BiPoly(terms)


# -- sector quotients -------------------------------------------------------

def sector_monomials(top: int) -> List[Tuple[int, int]]:
    """The monomials eta^a theta^b with 2a + b <= top, by weight and then
    by eta exponent, highest first: the basis of a sector."""
    out = []
    for m in range(top + 1):
        for a in range(min(m, top - m), -1, -1):
            out.append((a, m - a))
    return out


class SectorQuotient:
    """Q[eta, theta] modulo the ideal of some generators, on a monomial basis.

    Construction row-reduces every monomial multiple of the generators up
    to weight ``cap``, truncated above ``cap``, with columns ordered by
    (in basis, weight, eta exponent descending), so the reduction certifies
    the basis exactly when every pivot lands outside it; otherwise it
    raises VerificationFailure.  The multiples of a single-monomial
    generator are the unit rows of the monomials it divides, and a unit
    vector in the row space is a row of the unique rref: those columns
    are dropped, one rref runs on the rest, and the unit rows go back in
    by pivot.

    The basis holds no monomial of weight ``cap``, so the certificate also
    proves that the whole of weight ``cap`` lies in the ideal, and every
    higher weight with it, being multiples of weight ``cap``: terms above
    ``cap`` are zero in the quotient and ``normal_form`` drops them.
    Truncating the rows loses nothing when the generators are homogeneous
    (nothing is cut) or include powers of eta and theta that put all of
    weight ``cap`` in the ideal outright; the generators of both callers
    are of one kind or the other.
    """

    def __init__(self, generators: Sequence[BiPoly],
                 basis: Sequence[Tuple[int, int]], cap: int):
        self.basis = list(basis)
        self.cap = cap
        in_basis = set(self.basis)
        cols = sorted(((a, m - a) for m in range(cap + 1) for a in range(m + 1)),
                      key=lambda ab: (ab in in_basis, ab[0] + ab[1], -ab[0]))
        self._cols = cols
        self._index = {ab: j for j, ab in enumerate(cols)}
        units, rows = set(), []
        for gen in generators:
            if gen.is_zero():
                continue
            if len(gen.terms) == 1:
                (ab,) = gen.terms
                units.update(self._divided(ab))
                continue
            low = gen.weights()[0]
            for m in range(cap - low + 1):
                for i in range(m + 1):
                    rows.append(self._vector(gen * BiPoly.monomial(i, m - i)))
        keep = [j for j in range(len(cols)) if j not in units]
        reduced, local, _ = rref(QMatrix([[row[j] for j in keep] for row in rows],
                                         ncols=len(keep)))
        # pivot column -> the nonzero entries of its rref row
        full = {j: {j: ONE} for j in units}
        full.update((keep[p], dict(zip(keep, row)))
                    for p, row in zip(local, reduced.to_rows()))
        pivots = tuple(sorted(full))
        if len(pivots) != len(cols) - len(self.basis) or \
                any(cols[p] in in_basis for p in pivots):
            raise VerificationFailure(
                f"relations {', '.join(render_bipoly(g) for g in generators)} "
                f"do not complement the basis {self.basis} up to weight {cap}")
        self._reduced = QMatrix([[full[p].get(j, ZERO) for j in range(len(cols))]
                                 for p in pivots], ncols=len(cols))
        self._pivots = pivots

    def _divided(self, ab: Tuple[int, int]) -> List[int]:
        """The columns of the monomials that eta^a theta^b divides."""
        return [j for (a, b), j in self._index.items()
                if a >= ab[0] and b >= ab[1]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _vector(self, p: BiPoly) -> List[Fraction]:
        vec = [ZERO] * len(self._cols)
        for (a, b), c in p.terms.items():
            if a + b <= self.cap:
                vec[self._index[(a, b)]] = c
        return vec

    def normal_form(self, p: BiPoly) -> BiPoly:
        """Canonical representative of p on the basis."""
        vec = reduce_by_rref(self._vector(p), self._reduced, self._pivots)
        return BiPoly({ab: c for ab, c in zip(self._cols, vec) if c})


def sector_quotient(g: int, d: int, k: int) -> SectorQuotient:
    """Sector k of the presentation of H*(s^d Sigma) over the primitive
    sectors.

    The quotient of Q[eta, theta] by (R_k, theta R_{k+1}, theta^(g-k+1))
    on the basis {eta^a theta^b : 2a + b <= d - k}; the full ring is the
    sum over k of these sectors tensored with the degree-k primitive
    subspace.  Construction first verifies that the weighted sector sizes
    add up to the total Betti number.

    theta^(g-k+1) is not passed as a generator: its weight g-k+1 exceeds
    the cap d-k+1 (d <= g-1), and the certified basis already puts every
    weight from the cap up in the ideal of the other two.
    """
    if g < 2:
        raise DomainError(f"genus must be >= 2, got {g}")
    if d < 0 or d > g - 1:
        raise DomainError(f"d must satisfy 0 <= d <= g-1, got d={d}")
    total = sum(primitive_dim(g, j) * len(sector_monomials(d - j))
                for j in range(d + 1))
    if total != betti_total(g, d):
        raise VerificationFailure(
            f"sector dimension sum {total} != Betti total "
            f"{betti_total(g, d)} at (g,d)=({g},{d})")
    if k < 0 or k > d:
        raise DomainError(f"k must satisfy 0 <= k <= d, got k={k}")
    gens = [relation_R(g, d, k), BiPoly.theta(1) * relation_R(g, d, k + 1)]
    return SectorQuotient(gens, sector_monomials(d - k), d - k + 1)


def sector_normal_form(g: int, d: int, k: int, p: BiPoly) -> BiPoly:
    """Canonical representative of p modulo the sector-k ideal."""
    return sector_quotient(g, d, k).normal_form(p)


# -- independent ring oracle -----------------------------------------------

def ring_oracle(g: int, d: int) -> PairingQuotient:
    """The full ring from the fundamental-class pairing.

    Realizes H*(s^d Sigma) as the degree <= 2d monomial algebra modulo
    the radical of the level -1 sphere-invariant pairing at r = g-1-d.
    Unavailable at d = g-1, where that pairing would need r = 0; only
    the presentation route exists there.
    """
    if g < 2:
        raise DomainError(f"genus must be >= 2, got {g}")
    if d < 0 or d > g - 2:
        raise DomainError(
            f"oracle needs 0 <= d <= g-2 (got d={d}, g={g}); "
            f"at d = g-1 only the presentation route exists")
    # imported here, so that the symmetric-product commands never load
    # the pairing engine
    from .swpair import PairingQuotient, SphereParams
    return PairingQuotient(SphereParams(g, g - 1 - d), n_filter=-1)
