"""Helpers that only the tests need: dense matrix arithmetic, Gauss-Jordan
elimination in Fraction arithmetic (the reference for every elimination
of the package), the primitive basis and the Gram table computed without
weights, the invariant of the ruled surface from its wedge definition,
the radical's elements as classes, the cap table of a basis element, the
gamma-annihilated subspace and the vanishing-cycle ideal from products,
splitting by degree or weight, sums folded term by term, the wedge with
its signs from inversions, the pairing rows, normal forms and killed_by
in Fraction arithmetic only, the kernel from the Fraction rref, the
pairing ranks weight by weight and the quotient dimension from one
weight block per Weyl orbit, a sector quotient's rref from all the
multiples of its generators, and a deadline."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import pytest

from swfloer.errors import DomainError
from swfloer.extalg import (
    ExtClass,
    ExtMono,
    gamma_monomials,
    mono_weight,
    monomials_up_to,
    theta_power,
    top_eval,
    wedge,
)
from swfloer.floerring import build_oracle
from swfloer.glueadj import SWTable
from swfloer.qlinalg import QMatrix, block_kernel
from swfloer.swpair import (
    SphereParams,
    _pair_blocks,
    class_pair,
    mono_pair,
    monos_of_degree,
)
from swfloer.symprod import BiPoly


def identity(n):
    return QMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    assert a.ncols == b.nrows, "shape mismatch in matrix product"
    return QMatrix([[sum(a[i, k] * b[k, j] for k in range(a.ncols))
                     for j in range(b.ncols)] for i in range(a.nrows)],
                   b.ncols)


def fraction_rref(rows, ncols):
    """Gauss-Jordan elimination in Fraction arithmetic: (the rref's rows,
    zero rows last, its pivot columns), pivoting on the first nonzero row
    at or below the next pivot row, columns in increasing order.  The
    reference for qlinalg.integer_rref and everything that reads it: rref,
    rank, invert and block_kernel."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        top = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if top is None:
            continue
        rows[r], rows[top] = rows[top], rows[r]
        prow = rows[r] = [v / rows[r][c] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        pivots.append(c)
    return rows, pivots


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
                 for vec in rref_kernel(QMatrix(mat, ncols=len(cols))))


@lru_cache(maxsize=None)
def dense_gram(Q):
    """pair(e_i, e_j) by class_pair on every pair of basis elements of a
    PairingQuotient, without reference to torus weights."""
    return QMatrix([[class_pair(Q.params, u, v, Q.n_filter) for v in Q.basis]
                    for u in Q.basis], Q.dim)


def sw_sphere(params, n, z):
    """The invariant of z at level n from its definition: with
    z = sum_a x^a w_a, w_a purely in the gammas, it is
    sum_a top_eval(w_a ^ exp(-n theta)) over the terms of degree
    2(r n + g - 1), and zero unless n <= -1 and r n + g - 1 >= 0.  The
    reference for swpair._gamma_eval, the closed form behind class_pair."""
    if z.g != params.g:
        raise DomainError(f"class has genus {z.g}, params have {params.g}")
    D = params.r * n + params.g - 1
    if n >= 0 or D < 0:
        return Fraction(0)
    g = params.g
    exp_theta = ExtClass(g, ((m, c * Fraction((-n) ** j, factorial(j)))
                             for j in range(g + 1)
                             for m, c in theta_power(g, j).terms.items()))
    w = ExtClass(g, ((ExtMono(0, m.gammas), c) for m, c in z.terms.items()
                     if m.degree == 2 * D))
    return top_eval(wedge(w, exp_theta))


def radical_elements(Q):
    """The radical of a PairingQuotient as classes: the homogeneous
    pieces radical_vectors(q) by degree, then mixed_radical_elements()."""
    return [ExtClass(Q.g, {m: c for m, c in zip(monos_of_degree(Q.g, q), v) if c})
            for q in range(2 * Q.d + 1) for v in Q.radical_vectors(q)] \
        + Q.mixed_radical_elements()


def cap_table(g, r, k):
    """The table pairing every monomial with the k-th basis element:
    gluing any table against it reads off the table's value on e_k, the
    matrix identity sum_j m_ij gram_jk = delta_ik in table form."""
    ring = build_oracle(g, r)
    return SWTable(g, r, {m: v for m in ring.monos if (
        v := ring.pair_basis(ExtClass.monomial(g, m)).get(k))})


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
    reduced, pivots = fraction_rref([v for v in products if any(v)], ring.dim)
    return QMatrix(reduced, ring.dim), tuple(pivots)


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


def fraction_wedge(u, v):
    """The nonzero terms of the wedge of two classes, as a dict with
    Fraction values, computed term by term in Fraction arithmetic, each
    sign read from the inversions of the concatenated gamma tuple, not
    from the merge of extalg._merge_sign."""
    out = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            gams = m1.gammas + m2.gammas
            if len(set(gams)) < len(gams):
                continue
            inversions = sum(a > b for a, b in combinations(gams, 2))
            m = ExtMono(m1.xexp + m2.xexp, tuple(sorted(gams)))
            out[m] = out.get(m, Fraction(0)) + \
                (-1) ** inversions * Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


def reference_wedge(u, v):
    """fraction_wedge as a class: the reference for extalg.wedge."""
    return ExtClass(u.g, fraction_wedge(u, v))


def fraction_pair_basis(ring, z):
    """{l: pair(z, e_l)}, zeros left out, summed by mono_pair over every
    pair of terms in Fraction arithmetic, without rows or weights: the
    reference for PairingQuotient.pair_basis."""
    out = {}
    for l, e in enumerate(ring.basis):
        v = sum((Fraction(c) * Fraction(ce) * mono_pair(ring.params, m, t, ring.n_filter)
                 for m, c in z.terms.items() for t, ce in e.terms.items()),
                Fraction(0))
        if v:
            out[l] = v
    return out


@lru_cache(maxsize=None)
def _transposed_gram_inverse(Q):
    gram, n = dense_gram(Q), Q.dim
    rows, pivots = fraction_rref([[gram[j, i] for j in range(n)] +
                                  [int(j == i) for j in range(n)]
                                  for i in range(n)], 2 * n)
    assert pivots[:n] == list(range(n)), "singular Gram matrix"
    return QMatrix([row[n:] for row in rows], n)


def fraction_nf_vector(ring, z):
    """The coordinates c of z with sum_i c_i pair(e_i, e_l) = pair(z, e_l)
    for every l, solved in Fraction arithmetic by the inverse of the
    transposed dense Gram matrix: the reference for
    PairingQuotient.nf_vector."""
    values = fraction_pair_basis(ring, z)
    return _transposed_gram_inverse(ring).apply(
        [values.get(l, Fraction(0)) for l in range(ring.dim)])


def fraction_killed_by(ring, factors):
    """PairingQuotient.killed_by with every pairing row a Fraction row,
    reduced by fraction_rref weight by weight: the reference for its
    fraction-free elimination."""
    blocks = []
    for w, cols in ring.weight_groups.items():
        rows = []
        for a in factors:
            partners = ring.weight_groups.get(tuple(
                -x - y for x, y in zip(w, mono_weight(ring.g, a))), ())
            if partners and len(rows) < len(cols):
                images = [ring.pair_basis(wedge(
                    ExtClass.monomial(ring.g, a), ring.basis[i]))
                    for i in cols]
                rows.extend([Fraction(p.get(l, 0)) for p in images]
                            for l in partners)
                rows = [v for v in fraction_rref(rows, len(cols))[0] if any(v)]
        blocks.append((cols, rows))
    return tuple(block_kernel(blocks, ring.dim)[0])


def rref_kernel(m):
    """The canonical kernel basis of a QMatrix read from its fraction_rref,
    one vector per free column: the reference for qlinalg.block_kernel,
    which eliminates fraction-free."""
    reduced, pivots = fraction_rref(m.to_rows(), m.ncols)
    out = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        out.append(tuple(v))
    return out


def fold_bipoly(pairs):
    """The repeated-+ fold of single-term polynomials: the reference for
    the one-pass sum BiPoly(pairs)."""
    out = BiPoly.zero()
    for (a, b), c in pairs:
        out = out + BiPoly.monomial(a, b, c)
    return out


def per_weight_ranks(params, n_filter=None):
    """The rank of every (lambda, -lambda) block of the monomial pairing,
    one weight at a time and in Fraction arithmetic (fraction_rref), keyed
    and ordered as swpair.weight_ranks: the reference for it, which ranks
    one block per Weyl orbit, fraction-free."""
    monos = sorted(monomials_up_to(params.g, 2 * params.d),
                   key=lambda m: -m.degree)
    return {w: len(fraction_rref(block, len(idx))[1]) for w, idx, block in
            _pair_blocks(params, n_filter, monos, monos)}


def weyl_orbit_dimension(g, r):
    """The dimension of V_r from one weight block per Weyl orbit.

    Every torus weight of a monomial has entries in {-1, 0, 1}, and the
    signed permutations of the symplectic pairs preserve mono_pair up to
    sign, so the rank of the pairing between weights lambda and -lambda
    depends only on the number j of nonzero entries of lambda.  Sum the
    rank at (1^j, 0^(g-j)) times the orbit size 2^j C(g, j).
    swpair.weight_ranks rests on the same symmetry; this route differs in
    building each block straight from mono_pair at a fixed
    representative, without the basis, and in counting the orbit sizes
    instead of the basis elements of each weight.  The symmetry itself is
    tested on mono_pair, and weight_ranks against per_weight_ranks."""
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
        total += len(fraction_rref(rows, len(cols))[1]) * 2 ** j * comb(g, j)
    return total


def dense_sector(quotient, generators):
    """The rref rows and pivots of a SectorQuotient built the dense way:
    every monomial multiple of every generator up to weight cap, truncated
    above cap, in one rref on the quotient's columns.  The reference for
    the constructor, which sets the unit rows of monomial generators
    aside."""
    cap, index = quotient.cap, {ab: j for j, ab in enumerate(quotient._cols)}
    rows = []
    for gen in generators:
        low = min(a + b for a, b in gen.terms)
        for m in range(cap - low + 1):
            for i in range(m + 1):
                row = [Fraction(0)] * len(index)
                for (a, b), c in (gen * BiPoly.monomial(i, m - i)).terms.items():
                    if a + b <= cap:
                        row[index[(a, b)]] = c
                rows.append(row)
    reduced, pivots = fraction_rref(rows, len(index))
    return QMatrix(reduced[:len(pivots)], len(index)), tuple(pivots)


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
