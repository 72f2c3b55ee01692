"""Helpers that only the tests need: dense matrix arithmetic, the Gram
table computed without weights, and splitting by degree or weight."""

from functools import lru_cache

from swfloer.extalg import ExtClass
from swfloer.qlinalg import QMatrix
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


def homogeneous_components(z):
    """The degree-q parts of a class, by increasing q."""
    out = {}
    for m, c in z.terms.items():
        out.setdefault(m.degree, {})[m] = c
    return {q: ExtClass(z.g, t) for q, t in sorted(out.items())}


def weight_component(p, m):
    """The terms eta^a theta^b of a BiPoly with a + b = m."""
    return BiPoly({ab: c for ab, c in p.terms.items() if sum(ab) == m})
