"""Seiberg-Witten invariants of the ruled surface over Sigma and the pairing
they induce on the model algebra.

For a genus-g surface and a twisting level r with 1 <= |r| <= g-1, the
spin-c structures of interest on Sigma x S^2 are indexed by an integer n.
SphereParams folds the sign of r, since V_-r is V_r by the conjugation
symmetry of the invariants, so every function here sees r = |r| > 0.  The
invariant of a class z in A(Sigma) at level n is nonzero only when

    n <= -1,   deg z = 2*D,   D = r*n + g - 1 >= 0.

In that case, writing z = sum_a x^a w_a with w_a purely in the gammas,
the invariant is sum_a top_eval(w_a ^ exp(-n theta)), the exponential
truncated at theta^g; tests/helpers.py keeps this definition as the
reference ``sw_sphere``.  theta^j is j! times the sum of the products of
j distinct pairs gamma_i gamma_(g+i), so a gamma monomial g_W reaches
the volume only when W is the union of m such pairs (j = g - m), and the
engine evaluates it in closed form (``_gamma_eval``):

    top_eval(g_W ^ exp(-n theta)) = (-1)^(m(m-1)/2) (-n)^(g-m),

the sign being that of sorting the pairs into W.  The gram-structure
check compares this form with the wedge on every even gamma set.  Two
classical value families follow and are pinned as tests:
sw(x^a theta^b) = g!/(g-b)! (-n)^(g-b), and with a product of k
primitive pairs inserted, (g-k)!/(g-k-b)! (-n)^(g-k-b).

``class_pair`` sums the invariant of z1 ^ z2 over all levels; on a wedge
of two homogeneous classes at most one level can contribute, so the sum
is finite and exact.

The PairingQuotient engine at the bottom of this file is the quotient of
the monomials of degree <= 2d (d = g-1-|r|) by the radical of this
pairing: the Floer ring, consumed by the floerring and symprod modules.
It never computes the radical.  mono_pair vanishes unless the two torus
weights are opposite, so the radical splits by weight, and the build
certifies its canonical basis one weight at a time: the rank of the
pairing between the monomials of weight lambda and those of weight
-lambda must equal the number of basis elements of weight lambda
(``weight_ranks``).  Its Gram blocks come from the primitive
factorisation of the basis (``PairingQuotient.label_pair``).
``PairingQuotient.pair_vectors`` applies them or their inverses to
coordinate vectors, and ``nf_vector`` applies the inverses to the
pairings of a class with the basis.  Below the inverse blocks every
value is an integer: mono_pair, the basis coefficients, the rows and the
Gram block entries are computed in int, and the weight and Gram blocks
are ranked and inverted fraction-free (qlinalg.integer_rref), as are
the pairing rows of ``killed_by``.  A class coefficient is an int when
it is integral and a Fraction otherwise (qlinalg.exact), so an integral
class is paired in int; the inverse blocks, normal forms and
``class_pair`` are Fractions.  A
class meets the basis in one place, ``PairingQuotient.pair_basis``,
behind normal forms, radical membership and ``killed_by``.  It sums
rows: a monomial's row holds its nonzero pairings with the basis
elements of opposite weight and a contributing degree, each computed by
mono_pair over the terms of the basis element.  A row is filled on the
monomial's first use and kept for the ring's life, so a patch to
mono_pair made after a ring is built does not reach the rows it already
holds.  The radical itself, homogeneous pieces degree by degree and
then the mixed-degree corrections, is ``_radical``, computed only when
asked for by the quotient's ``radical_*`` methods.  Both it and ``weight_ranks`` read the
weight blocks of the monomial pairing from ``_pair_blocks``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, VerificationFailure
from .extalg import (
    ExtClass,
    ExtMono,
    _merge_sign,
    by_weight,
    mono_weight,
    monomials_up_to,
    primitive_basis,
    theta_power,
    wedge,
)
from .qlinalg import QMatrix, block_kernel, exact, integer_invert, integer_rref

ZERO = Fraction(0)


class _SphereFields(NamedTuple):
    g: int
    r: int


class SphereParams(_SphereFields):
    """Genus and twisting level, stored as |r| (V_-r is V_r by conjugation);
    fixes d = g-1-|r| and the ladder step 2|r|."""

    __slots__ = ()

    def __new__(cls, g: int, r: int) -> SphereParams:
        if g < 2:
            raise DomainError(f"genus must be >= 2, got {g}")
        if not (1 <= abs(r) <= g - 1):
            raise DomainError(
                f"twisting level must satisfy 1 <= |r| <= g-1, got r={r} at g={g}")
        return super().__new__(cls, g, abs(r))

    @property
    def d(self) -> int:
        return self.g - 1 - self.r

    @property
    def N(self) -> int:
        return 2 * self.r


def contributing_level(params: SphereParams, total_degree: int,
                       n_filter: Optional[int] = None) -> Optional[int]:
    """The unique level n <= -1 with total_degree = 2(r n + g - 1), if any
    and if it is n_filter when that is set: the one test of the filter."""
    if total_degree < 0 or total_degree % 2:
        return None
    num = total_degree // 2 - (params.g - 1)
    if num % params.r:
        return None
    n = num // params.r
    return n if n <= -1 and (n_filter is None or n == n_filter) else None


def _gamma_eval(g: int, gammas: Tuple[int, ...], n: int) -> int:
    """top_eval(g_W ^ exp(-n theta)) for the sorted gamma set W = gammas:
    (-1)^(m(m-1)/2) (-n)^(g-m) if W is the union of m pairs {i, g+i},
    and 0 otherwise."""
    m, odd = divmod(len(gammas), 2)
    if odd or gammas[m:] != tuple(i + g for i in gammas[:m]):
        return 0
    return (-1) ** (m * (m - 1) // 2) * (-n) ** (g - m)


def mono_pair(params: SphereParams, m1: ExtMono, m2: ExtMono,
              n_filter: Optional[int] = None) -> int:
    """class_pair on two monomials, an integer."""
    n = contributing_level(params, m1.degree + m2.degree, n_filter)
    if n is None:
        return 0
    sign, gam = _merge_sign(m1.gammas, m2.gammas)
    if sign == 0:
        return 0
    return sign * _gamma_eval(params.g, gam, n)


def class_pair(params: SphereParams, z1: ExtClass, z2: ExtClass,
               n_filter: Optional[int] = None) -> Fraction:
    """Sum over all levels (or over level n_filter alone) of the
    invariant sw(n, z1 ^ z2).

    Only levels with 0 <= r n + g - 1 <= deg(z1 z2)/2 can contribute, and
    for homogeneous inputs at most one does.
    """
    if z1.g != params.g or z2.g != params.g:
        raise DomainError("genus mismatch against params")
    total = ZERO
    for m1, c1 in z1.terms.items():
        for m2, c2 in z2.terms.items():
            v = mono_pair(params, m1, m2, n_filter)
            if v:
                total += c1 * c2 * v
    return total


@lru_cache(maxsize=None)
def monos_of_degree(g: int, q: int) -> Tuple[ExtMono, ...]:
    return tuple(m for m in monomials_up_to(g, q) if m.degree == q)


def _pair_blocks(params: SphereParams, n_filter: Optional[int],
                 cols: Sequence[ExtMono], rows: Sequence[ExtMono]
                 ) -> Iterator[Tuple[Tuple[int, ...], List[int], List[List[int]]]]:
    """The mono_pair matrix between cols and rows, weight block by weight
    block: for each weight lambda of a column, in order of first
    appearance, (lambda, the indices of the columns of weight lambda, the
    nonzero rows m of weight -lambda as [mono_pair(c, m) for c in those
    columns]), rows in their given order.  mono_pair vanishes unless the
    two torus weights are opposite, so these blocks hold every nonzero
    entry; a row with no contributing level is zero and is dropped."""
    rows_of = by_weight(params.g, rows)
    for w, idx in by_weight(params.g, cols).items():
        block = ([mono_pair(params, cols[j], rows[i], n_filter) for j in idx]
                 for i in rows_of.get(tuple(-x for x in w), ()))
        yield w, idx, [row for row in block if any(row)]


@lru_cache(maxsize=None)
def _radical(params: SphereParams, n_filter: Optional[int]):
    """The radical of the pairing: the z of degree <= 2d with
    pair(z, m) = 0 for every monomial m of degree <= 2d.

    Returns (pieces, mixed).  pieces[q] is the homogeneous piece of
    degree q, the canonical kernel basis over monos_of_degree(g, q); its
    pivot monomials span a canonical complement of the piece.  mixed
    holds the radical elements that are not sums of homogeneous ones:
    levels n and n-1 tie degrees q and q - 2|r| together, and (for
    example) at g=5, r=1 there is one with components in degrees 4 and 6
    whose degree-4 part alone is not in the radical.  Modulo the pieces
    such an element can be taken supported on the pivot monomials, and
    testing it against the pivot monomials suffices, since a piece pairs
    to zero with every monomial of degree <= 2d.  They are listed by the
    residue mod 2|r| of their top degree, then by their free (highest)
    pivot monomial.  Every kernel is taken over the weight blocks of
    _pair_blocks.
    """
    g, cap = params.g, 2 * params.d

    def kernel(cols: Sequence[ExtMono], rows: Sequence[ExtMono]):
        return block_kernel([(idx, block) for _, idx, block in
                             _pair_blocks(params, n_filter, cols, rows)],
                            len(cols))

    pieces, pivot_monos = [], []
    for q in range(cap + 1):
        cols = monos_of_degree(g, q)
        vecs, pivots = kernel(cols, monomials_up_to(g, cap))
        pieces.append(tuple(vecs))
        pivot_monos.extend(cols[p] for p in pivots)
    vecs, _ = kernel(pivot_monos, pivot_monos)
    mixed = sorted((ExtClass(g, {m: c for m, c in zip(pivot_monos, v) if c})
                    for v in vecs), key=lambda z: z.degrees()[-1] % params.N)
    return tuple(pieces), tuple(mixed)


def weight_ranks(params: SphereParams, n_filter: Optional[int] = None
                 ) -> Dict[Tuple[int, ...], int]:
    """For each torus weight lambda of a monomial of degree <= 2d, the
    rank of the pairing between the monomials of weight lambda and those
    of weight -lambda.  The radical splits by weight, so this is the
    dimension of the weight-lambda part of the quotient by the radical.

    The blocks are integer (mono_pair is) and are eliminated fraction-free,
    columns and rows taken by degree, highest first; with columns in
    increasing order the elimination fills in and takes several times
    longer.
    """
    monos = sorted(monomials_up_to(params.g, 2 * params.d),
                   key=lambda m: -m.degree)
    return {w: len(integer_rref(block, len(idx))[1])
            for w, idx, block in _pair_blocks(params, n_filter, monos, monos)}


@lru_cache(maxsize=None)
def primitive_pair(g: int, k: int, w: int, w2: int) -> int:
    """P_k(w, w') / (g-k)!, P_k(w, w') = top_eval(w ^ w' ^ theta^(g-k)) for
    the primitive basis elements w, w' of degree k: the signed sum of
    _gamma_eval(g, W, -1) = top_eval(g_W ^ theta^(g-k)) / (g-k)! over the
    merged gamma sets W of their terms, an int as the basis is integral."""
    pb = primitive_basis(g, k)
    return sum(c1 * c2 * sign * _gamma_eval(g, gam, -1)
               for m1, c1 in pb[w].terms.items() for m2, c2 in pb[w2].terms.items()
               for sign, gam in [_merge_sign(m1.gammas, m2.gammas)] if sign)


class BasisLabel(NamedTuple):
    """Canonical basis element w_k[w] ^ x^a theta^b with 2a + b <= d - k."""
    k: int
    w: int
    a: int
    b: int

    @property
    def degree(self) -> int:
        return self.k + 2 * self.a + 2 * self.b


def canonical_labels(g: int, d: int) -> List[BasisLabel]:
    """Primitive-prefactor basis labels, degree-sorted deterministically."""
    labels = []
    for k in range(d + 1):
        width = len(primitive_basis(g, k))
        for w in range(width):
            for a in range((d - k) // 2 + 1):
                for b in range(d - k - 2 * a + 1):
                    labels.append(BasisLabel(k, w, a, b))
    labels.sort(key=lambda L: (L.degree, L.k, L.w, L.a))
    return labels


def label_element(g: int, label: BasisLabel) -> ExtClass:
    w = primitive_basis(g, label.k)[label.w]
    return wedge(w, wedge(ExtClass.x_power(g, label.a), theta_power(g, label.b)))


class PairingQuotient:
    """The quotient of A^(<= 2d) by the radical of a pairing.

    Two pairings are used: the full level sum (the Floer ring of
    Sigma x S^1) and its restriction to level n = -1 (the cohomology ring
    of the symmetric product s^d Sigma).  Everything else is shared: the
    canonical primitive-prefactor basis, the Gram blocks, and normal
    forms.

    The radical is not always a graded subspace (level coupling between
    degrees q and q - 2|r| produces mixed-degree elements, first at
    g=5, r=1), so the quotient is graded only mod 2|r|.  The homogeneous
    canonical basis still represents a basis, and construction
    certifies it weight by weight without computing the radical.  For
    every torus weight lambda (see extalg.mono_weight), the number of
    basis elements of weight lambda must equal the rank of the pairing
    between the monomials of weights lambda and -lambda (weight_ranks),
    the dimension of the weight-lambda part of the quotient; and the
    Gram block between the basis elements of weights lambda and -lambda
    must be invertible, which gives independence mod the radical.
    Violation raises.  The radical is computed on first use by the
    radical_* methods.
    """

    def __init__(self, params: SphereParams, n_filter: Optional[int] = None):
        self.params = params
        self.g = params.g
        self.d = params.d
        self.n_filter = n_filter
        cap = 2 * self.d
        self.monos = monomials_up_to(self.g, cap)

        self.labels = canonical_labels(self.g, self.d)
        self.basis = [label_element(self.g, L) for L in self.labels]
        self.dim = len(self.basis)
        # monomial -> its pair_basis row, filled on first use
        self._rows: Dict[ExtMono, Tuple[Tuple[int, int], ...]] = {}
        # torus weight -> indices of the basis elements of that weight
        self.weight_groups: Dict[Tuple[int, ...], List[int]] = {}
        self._weight_of: List[Tuple[int, ...]] = []
        for i, e in enumerate(self.basis):
            weights = {mono_weight(self.g, m) for m in e.terms}
            if len(weights) != 1:
                raise VerificationFailure(
                    f"basis element {i} is not weight-homogeneous at "
                    f"(g,r)=({self.g},{params.r})")
            self._weight_of.append(weights.pop())
            self.weight_groups.setdefault(self._weight_of[-1], []).append(i)
        for w, n in weight_ranks(params, n_filter).items():
            have = len(self.weight_groups.get(w, ()))
            if have != n:
                raise VerificationFailure(
                    f"weight {w}: {have} basis elements against a pairing "
                    f"of rank {n} at (g,r)=({self.g},{params.r})")
        dims = self.dims_by_degree()
        for q in range(cap + 1):
            if dims[q] != dims[cap - q]:
                raise VerificationFailure(
                    f"basis counts not symmetric between degrees {q} and {cap - q}")
        # pair and invert every weight block; SingularMatrix here means the
        # claimed basis is not a complement, which no valid input should cause
        self._weight_blocks: Dict[Tuple[int, ...], Tuple[
            List[int], List[int], QMatrix, QMatrix]] = {}
        for w, cols in self.weight_groups.items():
            rows = self.weight_groups.get(tuple(-x for x in w), [])
            if len(rows) != len(cols):
                raise VerificationFailure(
                    f"{len(cols)} basis elements of weight {w} against "
                    f"{len(rows)} of the opposite weight")
            block = QMatrix([[self.label_pair(self.labels[i], self.labels[l])
                              for i in cols] for l in rows], ncols=len(cols))
            self._weight_blocks[w] = (cols, rows, block, integer_invert(block))

    # -- pairing and Gram --------------------------------------------------

    def pair_basis(self, z: ExtClass) -> Dict[int, Fraction]:
        """{l: pair(z, e_l)} over the canonical basis, zeros left out: the
        sum of c * pair(m, e_l) over the terms c m of z, each monomial's
        row of values filled on its first use (_row) and kept for the
        ring's life.  The rows are int, so a value is an int when z is
        integral and may be a Fraction otherwise."""
        if z.g != self.g:
            raise DomainError(f"genus mismatch: class {z.g}, ring {self.g}")
        out: Dict[int, Fraction] = {}
        for m, c in z.terms.items():
            row = self._rows.get(m)
            if row is None:
                row = self._rows[m] = self._row(m)
            for l, v in row:
                out[l] = out[l] + c * v if l in out else c * v
        return {l: v for l, v in out.items() if v}

    def _row(self, m: ExtMono) -> Tuple[Tuple[int, int], ...]:
        """((l, pair(m, e_l)), ...) over the _partners of m, nonzero values
        only, each value summed by mono_pair over the terms of e_l, in int
        as the basis is integral."""
        row = []
        for l in self._partners(m):
            v = 0
            for t, c in self.basis[l].terms.items():
                p = mono_pair(self.params, m, t, self.n_filter)
                if p:
                    v += c * p
            if v:
                row.append((l, v))
        return tuple(row)

    def _partners(self, m: ExtMono) -> List[int]:
        """The e_l that m can pair with: mono_pair vanishes unless the two
        torus weights are opposite (gram-structure certifies this) and the
        total degree has a contributing level, n_filter if one is set."""
        opposite, q = tuple(-x for x in mono_weight(self.g, m)), m.degree
        return [l for l in self.weight_groups.get(opposite, ())
                if contributing_level(self.params, q + self.labels[l].degree,
                                      self.n_filter) is not None]

    def label_pair(self, L1: BasisLabel, L2: BasisLabel) -> int:
        """The pairing of two basis elements, from their labels.

        With e = w x^a theta^b (w primitive of degree k) and x, theta
        even, the pair is that of w w' x^A theta^B, A = a + a' and
        B = b + b', at the one level n that fits degree 2(k + A + B).
        top_eval(w w' theta^m) vanishes unless k = k' and m = g - k (the
        Lefschetz decomposition), which leaves
        P_k(w, w') (-n)^(g-k-B) / (g-k-B)!, an integer as g-k-B <= g-k.
        """
        j = self.g - L1.k - L1.b - L2.b
        n = contributing_level(self.params, L1.degree + L2.degree,
                               self.n_filter)
        if L1.k != L2.k or j < 0 or n is None:
            return 0
        return primitive_pair(self.g, L1.k, L1.w, L2.w) * \
            (factorial(self.g - L1.k) // factorial(j)) * (-n) ** j

    def pair_vectors(self, u: Sequence[Fraction], v: Sequence[Fraction],
                     inverse: bool = False) -> Fraction:
        """The form sum u_i m_ij v_j on coordinate vectors, m the Gram
        matrix (its inverse with inverse=True), read from the weight blocks
        whose columns meet a nonzero of v."""
        keys = {self._weight_of[j] for j, x in enumerate(v) if x}
        if not inverse:  # column j of a Gram block has the opposite weight
            keys = {tuple(-x for x in w) for w in keys}
        return sum((u[i] * m * v[j] for i, j, m in self._entries(keys, inverse)
                    if v[j] and u[i]), ZERO)

    def block_entries(self, inverse: bool = False
                      ) -> Iterator[Tuple[int, int, Fraction]]:
        """Every entry (i, j, v) inside the (lambda, -lambda) weight blocks,
        zeros included: v is pair(e_i, e_j), or with inverse=True entry
        (i, j) of the inverse Gram matrix.  Both matrices are zero at every
        other (i, j); the gram-structure check certifies this for every
        class."""
        return self._entries(self._weight_blocks, inverse)

    def _entries(self, keys, inverse: bool
                 ) -> Iterator[Tuple[int, int, Fraction]]:
        """block_entries of the weight blocks with these keys."""
        for key in keys:
            cols, rows, block, inv = self._weight_blocks[key]
            left, right, m = ((rows, cols, inv) if inverse
                              else (cols, rows, block))
            for a, i in enumerate(left):
                for b, j in enumerate(right):
                    yield i, j, m[b, a]

    @property
    def gram(self) -> QMatrix:
        """The table pair(e_i, e_j)."""
        return self._assemble(self.block_entries())

    def inverse_gram(self) -> QMatrix:
        """Inverse of the Gram matrix, assembled from the block inverses."""
        return self._assemble(self.block_entries(inverse=True))

    def _assemble(self, entries) -> QMatrix:
        m = [[ZERO] * self.dim for _ in range(self.dim)]
        for i, j, v in entries:
            m[i][j] = v
        return QMatrix(m, self.dim)

    # -- normal forms ------------------------------------------------------

    def nf_vector(self, z: ExtClass) -> Tuple[Fraction, ...]:
        """Coefficients of the class of z on the canonical basis: the
        pairings pair_basis(z) with the basis elements of weight -lambda,
        times the inverse of the weight-lambda block (zero where z pairs
        to zero with every basis element of weight -lambda)."""
        values = self.pair_basis(z)
        coeffs = [ZERO] * self.dim
        for w in {tuple(-x for x in self._weight_of[l]) for l in values}:
            cols, rows, _, inv = self._weight_blocks[w]
            for i, c in zip(cols, inv.apply([values.get(l, ZERO)
                                             for l in rows])):
                coeffs[i] = c
        return tuple(coeffs)

    def nf_class(self, z: ExtClass) -> ExtClass:
        return self.element_from_vector(self.nf_vector(z))

    def is_in_radical(self, z: ExtClass) -> bool:
        return not self.pair_basis(z)

    def element_from_vector(self, vec: Sequence[Fraction]) -> ExtClass:
        """sum_i vec[i] e_i; an integral coordinate is multiplied in int."""
        return ExtClass(self.g, ((m, c * ce)
                                 for c, e in zip(map(exact, vec), self.basis)
                                 if c for m, ce in e.terms.items()))

    # -- ring structure ----------------------------------------------------

    def killed_by(self, factors: Sequence[ExtMono]
                  ) -> Tuple[Tuple[Fraction, ...], ...]:
        """Canonical basis of {phi : a . phi = 0 for every monomial a in
        factors}.  The pairing is nondegenerate, so the rows pair(a ^ e_i, e_l)
        have the row space, and the canonical kernel, of the multiplication
        maps, and each is read from pair_basis(a ^ e_i).  For e_i of weight w
        only the e_l of weight -(w + wt a) pair nonzero, so each weight is
        reduced alone, fraction-free (the rows are integral), stopping at
        full rank."""
        blocks = []
        for w, cols in self.weight_groups.items():
            rows = []
            for a in factors:
                partners = self.weight_groups.get(tuple(
                    -x - y for x, y in zip(w, mono_weight(self.g, a))), ())
                if partners and len(rows) < len(cols):
                    images = [self.pair_basis(wedge(
                        ExtClass.monomial(self.g, a), self.basis[i]))
                        for i in cols]
                    rows.extend([p.get(l, 0) for p in images]
                                for l in partners)
                    rows = [v for v in integer_rref(rows, len(cols))[0]
                            if any(v)]
            blocks.append((cols, rows))
        return tuple(block_kernel(blocks, self.dim)[0])

    # -- radical access ----------------------------------------------------

    def radical_vectors(self, q: int) -> List[Tuple[Fraction, ...]]:
        pieces = _radical(self.params, self.n_filter)[0]
        return list(pieces[q]) if 0 <= q < len(pieces) else []

    def mixed_radical_elements(self) -> List[ExtClass]:
        return list(_radical(self.params, self.n_filter)[1])

    def basis_degrees(self) -> List[int]:
        return [L.degree for L in self.labels]

    def dims_by_degree(self) -> List[int]:
        degs = self.basis_degrees()
        return [degs.count(q) for q in range(2 * self.d + 1)]
