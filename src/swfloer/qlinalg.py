"""Exact linear algebra over Q.

Everything downstream (annihilators, Gram matrices, normal forms) reduces to
row reduction of matrices with rational entries, so the conventions here are
pinned down once and for all:

  * ``rref`` returns the reduced row echelon form, which is unique, together
    with the strictly increasing tuple of pivot columns and the rank.
  * ``kernel_basis`` (a one-block ``block_kernel``) derives its basis
    from the rref by setting one free variable to 1 (free columns taken
    in increasing order) and the others to 0.  Two mathematically equal
    matrices therefore always produce the identical kernel basis, and a
    matrix eliminated block by block gives the same basis as assembled.
  * ``reduce_by_rref`` reduces a vector modulo the row space of an rref
    by clearing its pivot coordinates.
  * ``integer_rref`` eliminates fraction-free; swpair ranks and inverts
    (``integer_invert``) its integer pairing blocks with it.

No floats are ever produced.  ``frac`` coerces every matrix entry and
every BiPoly coefficient to Fraction, and ``exact`` every ExtClass
coefficient to an int when it is integral and to a Fraction otherwise;
both reject a float with a DomainError.  ``integer_rref`` returns ints:
integer multiples of the rref's rows.

>>> m = QMatrix([[1, 1], [0, 1]])
>>> invert(m).to_rows()
[[Fraction(1, 1), Fraction(-1, 1)], [Fraction(0, 1), Fraction(1, 1)]]
>>> kernel_basis(QMatrix([[1, 1, 0]]))
[(Fraction(-1, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))]
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import DomainError, SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(v) -> Fraction:
    """The one coercion to Q: a float is a DomainError, never rounded."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        raise DomainError("float entries are not allowed; use Fraction or int")
    return Fraction(v)


def exact(v):
    """frac, with an integral result as its int; an int is kept as it is.

    >>> exact(Fraction(4, 2)), exact(Fraction(1, 2)), exact(3)
    (2, Fraction(1, 2), 3)
    """
    if type(v) is int:
        return v
    q = frac(v)
    return q.numerator if q.denominator == 1 else q


def sum_terms(terms, coerce=frac) -> Dict:
    """The nonzero coefficient sums, in one pass, of a mapping or of an
    iterable of (key, coefficient) pairs with repeated keys; every
    coefficient, and every sum of pairs, goes through coerce (frac or
    exact), and a mapping is never read as pairs."""
    if isinstance(terms, Mapping):
        sums = {k: coerce(c) for k, c in terms.items()}
        return {k: c for k, c in sums.items() if c}
    sums = {}
    for k, c in terms:
        c = coerce(c)
        sums[k] = sums[k] + c if k in sums else c
    return {k: coerce(c) for k, c in sums.items() if c}


class QMatrix:
    """Immutable dense matrix over Q.

    Stored as a tuple of row tuples.  A matrix may have zero rows (the
    matrix of a map into the zero space); the column count is kept
    explicitly so such matrices still know their domain.
    """

    __slots__ = ("_data", "nrows", "ncols")

    def __init__(self, data: Iterable[Iterable], ncols: Optional[int] = None):
        rows = tuple(tuple(frac(v) for v in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged rows")
            if ncols is not None and ncols != width:
                raise DomainError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "_data", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self._data[i]

    def to_rows(self) -> List[List[Fraction]]:
        return [list(r) for r in self._data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.ncols == other.ncols
                and self._data == other._data)

    def __hash__(self):
        return hash((self._data, self.ncols))

    def __repr__(self):
        return f"QMatrix({self.nrows}x{self.ncols})"

    def apply(self, vec: Sequence) -> Tuple[Fraction, ...]:
        """Matrix times column vector."""
        v = [frac(x) for x in vec]
        if len(v) != self.ncols:
            raise DomainError("vector length mismatch")
        return tuple(_dot(r, v) for r in self._data)


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    s = ZERO
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


def _rref_rows(rows: List[List[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    pivots: List[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [v * inv for v in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: QMatrix) -> Tuple[QMatrix, Tuple[int, ...], int]:
    """Reduced row echelon form of m.

    Returns (R, pivot_cols, rank).  R is the unique RREF, pivot_cols is
    strictly increasing, rank == len(pivot_cols).

    >>> r, p, k = rref(QMatrix([[1, 2], [2, 4]]))
    >>> (p, k)
    ((0,), 1)
    """
    rows, pivots = _rref_rows(m.to_rows(), m.ncols)
    return QMatrix(rows, m.ncols), tuple(pivots), len(pivots)


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    """Rank of the matrix with these rows, eliminated in column order.

    >>> rank([[0, 1, 2], [0, 2, 4]], 3)
    1
    """
    return len(_rref_rows([[frac(v) for v in r] for r in rows], ncols)[1])


def kernel_basis(m: QMatrix) -> List[Tuple[Fraction, ...]]:
    """Canonical basis of the right kernel {v : m v = 0}; see
    block_kernel for the convention."""
    return block_kernel([(range(m.ncols), m.to_rows())], m.ncols)[0]


def block_kernel(blocks: Iterable[Tuple[Sequence[int], Sequence[Sequence]]],
                 ncols: int) -> Tuple[List[Tuple[Fraction, ...]], Tuple[int, ...]]:
    """Canonical kernel basis and pivot columns of a block-structured matrix.

    Each block is (cols, rows): cols is an increasing list of column
    indices, the blocks' lists partitioning range(ncols), and each row
    gives the entries of one matrix row on those columns (zero
    elsewhere).  Every block is eliminated on its own; since the rref is
    unique, the rows of the block rrefs sorted by pivot are the rref of
    the assembled matrix, so the result is exactly what that matrix
    gives.

    The kernel basis has one vector per free column, free columns in
    increasing order; the chosen free variable is set to 1 and every
    other free variable to 0, pivot variables solved from the rref rows.

    >>> basis, pivots = block_kernel([([0, 2], [[1, 2]]), ([1], [])], 3)
    >>> pivots, [[int(x) for x in v] for v in basis]
    ((0,), [[0, 1, 0], [-2, 0, 1]])
    """
    vectors = {}
    pivots: List[int] = []
    for cols, rows in blocks:
        reduced, local = _rref_rows([[frac(v) for v in r] for r in rows],
                                    len(cols))
        pivot_set = set(local)
        for f, col in enumerate(cols):
            if f in pivot_set:
                continue
            v = [ZERO] * ncols
            v[col] = ONE
            for i, p in enumerate(local):
                v[cols[p]] = -reduced[i][f]
            vectors[col] = tuple(v)
        pivots.extend(cols[p] for p in local)
    return [vectors[c] for c in sorted(vectors)], tuple(sorted(pivots))


def reduce_by_rref(vec: Sequence, reduced: QMatrix,
                   pivots: Sequence[int]) -> List[Fraction]:
    """Reduce vec modulo the row space of an rref.

    Clears every pivot coordinate by subtracting multiples of the rref
    rows; the result is zero exactly when vec lies in the row space, and
    is otherwise the canonical representative supported off the pivots.

    >>> r, p, _ = rref(QMatrix([[1, 0, 2], [0, 1, 3]]))
    >>> reduce_by_rref([1, 1, 0], r, p)
    [Fraction(0, 1), Fraction(0, 1), Fraction(-5, 1)]
    """
    out = [frac(x) for x in vec]
    if len(out) != reduced.ncols:
        raise DomainError("vector length mismatch")
    for i, p in enumerate(pivots):
        c = out[p]
        if c:
            for j, rij in enumerate(reduced.row(i)):
                if rij:
                    out[j] -= c * rij
    return out


def invert(m: QMatrix) -> QMatrix:
    """Inverse of a square matrix; raises SingularMatrix when rank < n."""
    rows, n = _augmented(m, _rref_rows)
    return QMatrix([r[n:] for r in rows], n)


def integer_invert(m: QMatrix) -> QMatrix:
    """invert, by integer_rref: the same entries."""
    rows, n = _augmented(m, integer_rref)
    return QMatrix([[Fraction(v, r[i]) for v in r[n:]] for i, r in enumerate(rows)], n)


def _augmented(m: QMatrix, eliminate) -> Tuple[List[list], int]:
    """[m | 1] eliminated, and n; SingularMatrix when rank < n."""
    n = m.nrows
    if n != m.ncols:
        raise DomainError("only square matrices can be inverted")
    rows, pivots = eliminate([list(m.row(i)) + [ONE if j == i else ZERO for j in range(n)]
                              for i in range(n)], 2 * n)
    rank = len([p for p in pivots if p < n])
    if rank < n:
        raise SingularMatrix(f"matrix of size {n} has rank {rank}")
    return rows, n


def integer_rref(rows: Iterable[Sequence], ncols: int) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination: (rows, pivots), row i a
    nonzero multiple of row i of the rref.  A row is scaled to integers by
    its common denominator (frac checks each entry that is not an int), and
    every row is divided by its content."""
    out = []
    for row in rows:
        row = [v if isinstance(v, int) else frac(v) for v in row]
        den = lcm(*(v.denominator for v in row))
        out.append(_primitive([v.numerator * (den // v.denominator) for v in row]))
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        top = next((i for i in range(r, len(out)) if out[i][c]), None)
        if top is None:
            continue
        out[r], out[top] = out[top], out[r]
        prow = out[r]
        out = [row if i == r or not row[c] else _primitive(
            [prow[c] * a - row[c] * b for a, b in zip(row, prow)])
            for i, row in enumerate(out)]
        pivots.append(c)
    return out, pivots


def _primitive(row: List[int]) -> List[int]:
    h = gcd(*row)
    return [v // h for v in row] if h > 1 else row
