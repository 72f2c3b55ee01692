"""Helpers that only the tests need: dense matrix arithmetic, the Gram
table computed without weights, the gamma-annihilated subspace from
products, splitting by degree or weight, and sums folded term by term."""

from functools import lru_cache

from swfloer.extalg import ExtClass
from swfloer.qlinalg import QMatrix, block_kernel
from swfloer.swpair import class_pair
from swfloer.symprod import BiPoly


def identity(n):
    return QMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a, b):
    assert a.ncols == b.nrows, "shape mismatch in matrix product"
    return QMatrix([[sum(a[i, k] * b[k, j] for k in range(a.ncols))
                     for j in range(b.ncols)] for i in range(a.nrows)],
                   b.ncols)


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
            images = [ring.product_vector(gcls, ring.basis[i]) for i in cols]
            rows.extend(row for row in zip(*images) if any(row))
        blocks.append((cols, rows))
    return tuple(block_kernel(blocks, ring.dim)[0])


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


def fold_bipoly(pairs):
    """The repeated-+ fold of single-term polynomials: the reference for
    the one-pass sum BiPoly(pairs)."""
    out = BiPoly.zero()
    for (a, b), c in pairs:
        out = out + BiPoly.monomial(a, b, c)
    return out
