"""Helpers that only the tests need: dense matrix arithmetic, the
primitive basis and the Gram table computed without weights, the
gamma-annihilated subspace and the vanishing-cycle ideal from products,
splitting by degree or weight, sums folded term by term, the wedge with
its signs from inversions, the quotient dimension from one weight block
per Weyl orbit, and a deadline."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from swfloer.extalg import (
    ExtClass,
    ExtMono,
    gamma_monomials,
    mono_weight,
    monomials_up_to,
    theta_power,
    wedge,
)
from swfloer.qlinalg import QMatrix, block_kernel, kernel_basis, rank, rref
from swfloer.swpair import SphereParams, class_pair, mono_pair
from swfloer.symprod import BiPoly


def identity(n):
    return QMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    assert a.ncols == b.nrows, "shape mismatch in matrix product"
    return QMatrix([[sum(a[i, k] * b[k, j] for k in range(a.ncols))
                     for j in range(b.ncols)] for i in range(a.nrows)],
                   b.ncols)


def dense_primitive_basis(g, k):
    """The kernel of theta^(g-k+1) on the gamma monomials of degree k,
    from the whole multiplication matrix (both sides in lexicographic
    order) without reference to torus weights: the reference for
    extalg.primitive_basis, which eliminates weight block by block."""
    cols = gamma_monomials(g, k)
    rows = gamma_monomials(g, 2 * g - k + 2)  # none when k < 2
    row_index = {gam: i for i, gam in enumerate(rows)}
    power = theta_power(g, g - k + 1)
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for j, gam in enumerate(cols):
        for m, c in wedge(ExtClass.monomial(g, ExtMono(0, gam)), power).terms.items():
            mat[row_index[m.gammas]][j] = c
    return tuple(ExtClass(g, {ExtMono(0, cols[j]): c for j, c in enumerate(vec) if c})
                 for vec in kernel_basis(QMatrix(mat, ncols=len(cols))))


@lru_cache(maxsize=None)
def dense_gram(Q):
    """pair(e_i, e_j) by class_pair on every pair of basis elements of a
    PairingQuotient, without reference to torus weights."""
    return QMatrix([[class_pair(Q.params, u, v, Q.n_filter) for v in Q.basis]
                    for u in Q.basis], Q.dim)


def product_row_kernel(ring):
    """Canonical basis of {phi : gamma_j . phi = 0 for all j} from the
    multiplication-by-gamma_j maps, whose columns are normal forms: the
    reference for glueadj.kernel_K_basis, which reads pairing rows."""
    gammas = [ExtClass.gamma(ring.g, j) for j in range(1, 2 * ring.g + 1)]
    blocks = []
    for cols in ring.weight_groups.values():
        rows = []
        for gcls in gammas:
            images = [ring.nf_vector(wedge(gcls, ring.basis[i])) for i in cols]
            rows.extend(row for row in zip(*images) if any(row))
        blocks.append((cols, rows))
    return tuple(block_kernel(blocks, ring.dim)[0])


def product_row_ideal(ring):
    """RREF and pivots of the span of the ideal generated by
    gamma_1..gamma_d, from the normal forms of the products gamma_j e_i:
    the reference for glueadj.in_vanishing_cycle_ideal, which reads the
    pairing-orthogonal of the annihilator."""
    gammas = [ExtClass.gamma(ring.g, j) for j in range(1, ring.d + 1)]
    products = (ring.nf_vector(wedge(a, e)) for a in gammas for e in ring.basis)
    rows = [list(v) for v in products if any(v)]
    if not rows:
        return QMatrix([], ring.dim), ()
    reduced, pivots, _ = rref(QMatrix(rows, ring.dim))
    return reduced, pivots


def homogeneous_components(z):
    """The degree-q parts of a class, by increasing q."""
    out = {}
    for m, c in z.terms.items():
        out.setdefault(m.degree, {})[m] = c
    return {q: ExtClass(z.g, t) for q, t in sorted(out.items())}


def weight_component(p, m):
    """The terms eta^a theta^b of a BiPoly with a + b = m."""
    return BiPoly({ab: c for ab, c in p.terms.items() if sum(ab) == m})


def fold_class(g, pairs):
    """The repeated-+ fold of single-term classes: the reference for the
    one-pass sum ExtClass(g, pairs)."""
    out = ExtClass.zero(g)
    for m, c in pairs:
        out = out + ExtClass.monomial(g, m, c)
    return out


def reference_wedge(u, v):
    """The wedge of two classes term by term, each sign read from the
    inversions of the concatenated gamma tuple, not from the merge of
    extalg._merge_sign: the reference for extalg.wedge."""
    out = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            gams = m1.gammas + m2.gammas
            if len(set(gams)) < len(gams):
                continue
            inversions = sum(a > b for a, b in combinations(gams, 2))
            m = ExtMono(m1.xexp + m2.xexp, tuple(sorted(gams)))
            out[m] = out.get(m, 0) + (-1) ** inversions * c1 * c2
    return ExtClass(u.g, out)


def fold_bipoly(pairs):
    """The repeated-+ fold of single-term polynomials: the reference for
    the one-pass sum BiPoly(pairs)."""
    out = BiPoly.zero()
    for (a, b), c in pairs:
        out = out + BiPoly.monomial(a, b, c)
    return out


def weyl_orbit_dimension(g, r):
    """The dimension of V_r from one weight block per Weyl orbit.

    Every torus weight of a monomial has entries in {-1, 0, 1}, and the
    signed permutations of the symplectic pairs preserve mono_pair up to
    sign, so the rank of the pairing between weights lambda and -lambda
    depends only on the number j of nonzero entries of lambda.  Sum the
    rank at (1^j, 0^(g-j)) times the orbit size 2^j C(g, j).  Each block
    is built here straight from mono_pair, without the basis or the
    per-weight blocks of swpair."""
    params = SphereParams(g, r)
    # highest degree first, as in swpair.weight_ranks: far less fill-in
    monos = sorted(monomials_up_to(g, 2 * params.d), key=lambda m: -m.degree)
    weights = [mono_weight(g, m) for m in monos]
    total = 0
    for j in range(g + 1):
        lam = (1,) * j + (0,) * (g - j)
        neg = tuple(-x for x in lam)
        cols = [m for m, w in zip(monos, weights) if w == lam]
        rows = [[mono_pair(params, c, m) for c in cols]
                for m, w in zip(monos, weights) if w == neg]
        total += rank(rows, len(cols)) * 2 ** j * comb(g, j)
    return total


@contextmanager
def deadline(seconds, what):
    """Fail the test if the block runs longer than seconds.  (main turns a
    TimeoutError, being an OSError, into exit code 2.)"""
    def timeout(signum, frame):
        pytest.fail(f"{what} took over {seconds} s")
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
