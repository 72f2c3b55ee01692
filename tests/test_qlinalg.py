import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError, SingularMatrix
from swfloer.qlinalg import (
    QMatrix,
    block_kernel,
    integer_rref,
    invert,
    kernel_basis,
    rank,
    rref,
)

from helpers import fraction_rref, identity, matmul, rref_kernel

F = Fraction


def det_cofactor(rows):
    """Independent determinant oracle, Laplace expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def test_rref_identity_fixed_point():
    m = identity(3)
    r, pivots, rank = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)
    assert rank == 3


def test_rref_rank_deficient():
    r, pivots, rank = rref(QMatrix([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == (0,)
    assert r.to_rows() == [[F(1), F(2)], [F(0), F(0)]]


def test_rref_pivot_cols_strictly_increase():
    m = QMatrix([[0, 0, 3, 1], [0, 2, 1, 0], [0, 2, 1, 5]])
    _, pivots, rank = rref(m)
    assert list(pivots) == sorted(pivots)
    assert len(set(pivots)) == rank == 3
    assert pivots == (1, 2, 3)


def test_kernel_of_sum_functional():
    ker = kernel_basis(QMatrix([[1, 1, 0]]))
    assert ker == [(F(-1), F(1), F(0)), (F(0), F(0), F(1))]


def test_kernel_of_zero_row_matrix():
    # map into the zero space: everything is in the kernel
    ker = kernel_basis(QMatrix([], ncols=3))
    assert ker == [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_invert_unitriangular():
    m = QMatrix([[1, 1], [0, 1]])
    assert invert(m).to_rows() == [[F(1), F(-1)], [F(0), F(1)]]


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(QMatrix([[1, 2], [2, 4]]))


def test_invert_rejects_nonsquare():
    with pytest.raises(DomainError):
        invert(QMatrix([[1, 2, 3]]))


def test_invert_seeded_6x6_against_cofactor_oracle():
    rng = random.Random(20240611)
    rows = [[F(rng.randint(-5, 5)) for _ in range(6)] for _ in range(6)]
    d = det_cofactor(rows)
    assert d != 0, "seed chosen to give an invertible matrix"
    m = QMatrix(rows)
    inv = invert(m)
    assert matmul(m, inv) == identity(6)
    assert matmul(inv, m) == identity(6)
    # Cramer check of the first row: inv[0,i] * det = signed minor
    for i in range(6):
        cof = det_cofactor([[rows[k][j] for j in range(1, 6)] for k in range(6) if k != i])
        sign = -1 if i % 2 else 1
        assert inv[(0, i)] * d == sign * cof


def test_floats_rejected():
    with pytest.raises(DomainError):
        QMatrix([[0.5]])


def test_invert_singular_message():
    with pytest.raises(SingularMatrix, match="^matrix of size 2 has rank 1$"):
        invert(QMatrix([[2, 4], [3, 6]]))


def test_integer_rref_rejects_floats():
    with pytest.raises(DomainError):
        integer_rref([[1, 0.5]], 2)


def test_float_entry_is_a_domain_error_in_rref_rank_and_invert():
    # a QMatrix never holds a float, so none reaches rref or invert
    with pytest.raises(DomainError):
        rref(QMatrix([[1, 0.5]]))
    with pytest.raises(DomainError):
        rank([[F(1), 0.5]], 2)
    with pytest.raises(DomainError):
        invert(QMatrix([[1, 0], [0, 0.5]]))


small_entries = st.integers(min_value=-7, max_value=7)
rational_entries = st.fractions(min_value=-7, max_value=7, max_denominator=6)


@st.composite
def matrices(draw, max_dim=5, entries=small_entries):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return QMatrix(rows)


@st.composite
def square_matrices(draw, entries, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return QMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                 min_size=n, max_size=n)))


@st.composite
def sparse_matrices(draw, entries, max_dim=5, square=False):
    """Matrices with 0 to max_dim rows and columns and many zero entries:
    zero rows, all-zero and singular matrices are common."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    m = n if square else draw(st.integers(min_value=0, max_value=max_dim))
    row = st.one_of(st.just([0] * m), st.lists(st.one_of(st.just(0), entries),
                                              min_size=m, max_size=m))
    return QMatrix(draw(st.lists(row, min_size=n, max_size=n)), m)


any_matrices = st.one_of(sparse_matrices(small_entries),
                         sparse_matrices(rational_entries))


@st.composite
def block_matrices(draw, max_dim=6):
    """A matrix as (blocks, ncols, assembled rows): each row lies in one
    random column block."""
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    labels = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=ncols, max_size=ncols))
    blocks, dense = [], []
    for b in sorted(set(labels)):
        cols = [c for c in range(ncols) if labels[c] == b]
        rows = draw(st.lists(st.lists(small_entries, min_size=len(cols),
                                      max_size=len(cols)), max_size=4))
        blocks.append((cols, rows))
        for row in rows:
            full = [0] * ncols
            for c, v in zip(cols, row):
                full[c] = v
            dense.append(full)
    return blocks, ncols, draw(st.permutations(dense))


class TestProperties:
    @given(block_matrices())
    @settings(max_examples=100, deadline=None)
    def test_block_kernel_matches_assembled(self, bm):
        blocks, ncols, dense = bm
        m = QMatrix(dense, ncols)
        assert block_kernel(blocks, ncols) == \
            (rref_kernel(m), tuple(fraction_rref(dense, ncols)[1]))

    @given(st.one_of(matrices(), matrices(entries=rational_entries)))
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_is_the_fraction_rref_kernel(self, m):
        basis = kernel_basis(m)
        assert basis == rref_kernel(m)
        assert all(type(x) is Fraction for v in basis for x in v)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, m):
        r1, p1, k1 = rref(m)
        r2, p2, k2 = rref(r1)
        assert r1 == r2 and p1 == p2 and k1 == k2

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.apply(v))

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        _, _, rank = rref(m)
        assert rank + len(kernel_basis(m)) == m.ncols

    @given(any_matrices)
    @settings(max_examples=100, deadline=None)
    def test_integer_rref_rows_are_rref_multiples(self, m):
        reduced, pivots = fraction_rref(m.to_rows(), m.ncols)
        rows, int_pivots = integer_rref(m.to_rows(), m.ncols)
        assert int_pivots == pivots
        assert all(type(v) is int for row in rows for v in row)
        for row, want, p in zip(rows, reduced, pivots):
            assert [Fraction(v, row[p]) for v in row] == want
        assert not any(any(row) for row in rows[len(pivots):])

    @given(any_matrices)
    @settings(max_examples=150, deadline=None)
    def test_rref_and_rank_are_the_fraction_rref(self, m):
        # R keeps every row, the zero rows last, each pivot entry 1
        reduced, pivots = fraction_rref(m.to_rows(), m.ncols)
        assert rref(m) == (QMatrix(reduced, m.ncols), tuple(pivots), len(pivots))
        assert rank(m.to_rows(), m.ncols) == len(pivots)

    @given(st.one_of(sparse_matrices(small_entries, square=True),
                     sparse_matrices(rational_entries, square=True),
                     square_matrices(small_entries), any_matrices))
    @settings(max_examples=200, deadline=None)
    def test_invert_is_the_fraction_inverse(self, m):
        n = m.nrows
        if n != m.ncols:
            with pytest.raises(DomainError,
                               match="^only square matrices can be inverted$"):
                invert(m)
            return
        rows, pivots = fraction_rref([list(m.row(i)) + [int(j == i) for j in range(n)]
                                      for i in range(n)], 2 * n)
        k = len([p for p in pivots if p < n])
        if k < n:
            with pytest.raises(SingularMatrix,
                               match=f"^matrix of size {n} has rank {k}$"):
                invert(m)
        else:
            assert invert(m) == QMatrix([row[n:] for row in rows], n)
