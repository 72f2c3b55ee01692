"""Gluing along a surface and adjunction checks.

Two four-manifold pieces glued along Sigma x S^1 have their invariants
coupled by the inverse Gram matrix of the Floer pairing: the closed
invariant is sum_ij m_ij t1(z_i) t2(z_j) over the canonical basis
{z_i} (glue).  The per-piece data enters as finite tables (SWTable);
offsets of the Spin^C structure along the surface and rim-torus classes
are pre-aggregated into the table values, since at most one offset can
contribute in each degree.  For tables on the pure x-powers alone the
sum collapses to c_coefficient(g, r) s1 s2, s_i the value on x^(d/2),
when d is even, and to zero when d is odd.

The second half implements the adjunction-inequality verdicts for an
embedded surface of genus g >= 2 with nonnegative self-intersection,
in three strengths: the plain degree bound, the invariant-dimension
bound, and the vanishing-cycle bound.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, GenusMismatch, VerificationFailure
from .extalg import (
    ExtClass,
    ExtMono,
    _check_mono,
    embed_bipoly,
    parse_factors,
    parse_frac,
    parse_int,
    render_mono,
)
from .floerring import build_oracle, tilde_relation
from .qlinalg import QMatrix, frac, rank
from .swpair import BasisLabel, SphereParams, class_pair

ZERO = Fraction(0)


# -- relative-invariant tables ---------------------------------------------

class SWTable:
    """Finite rational-valued functional on monomials, with metadata.

    Keys are monomials of degree at most 2d for the (g, r) the table
    belongs to; absent keys are zero.  Aggregation convention: a value
    is the sum over surface offsets and rim-torus classes of the
    invariants of one piece against one fixed insertion times the key
    monomial.
    """

    __slots__ = ("g", "r", "values")

    def __init__(self, g: int, r: int, values: Dict[ExtMono, Fraction]):
        cap = 2 * SphereParams(g, r).d
        clean: Dict[ExtMono, Fraction] = {}
        for m, v in values.items():
            _check_mono(g, m)
            if m.degree > cap:
                raise DomainError(
                    f"monomial {render_mono(m)} has degree {m.degree} "
                    f"above the table cap {cap}")
            v = frac(v)
            if v:
                clean[m] = v
        self.g = g
        self.r = r
        self.values = clean

    def value(self, m: ExtMono) -> Fraction:
        return self.values.get(m, ZERO)

    def evaluate(self, z: ExtClass) -> Fraction:
        """The table extended linearly to classes."""
        total = ZERO
        for m, c in z.terms.items():
            v = self.values.get(m)
            if v is not None:
                total += c * v
        return total


def parse_sw_table(text: str) -> SWTable:
    """Parse the table file format.

    First meaningful line: ``genus <g> r <r>``.  Every further line is
    ``<monomial> <rational>`` in the monomial grammar of extalg, with
    the rational (extalg.parse_frac) as the last whitespace-separated
    token.  Blank lines and ``#`` comments are skipped.  Each key must
    be a plain monomial (no ``t`` factors, which expand to sums; they
    are rejected before any expansion) and may appear only once.
    """
    header: Optional[Tuple[int, int]] = None
    entries: Dict[ExtMono, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            tokens = line.split()
            if len(tokens) != 4 or tokens[0] != "genus" or tokens[2] != "r":
                raise DomainError(
                    f"line {lineno}: expected 'genus <g> r <r>', got {line!r}")
            try:
                header = (parse_int(tokens[1]), parse_int(tokens[3]))
            except DomainError:
                raise DomainError(
                    f"line {lineno}: non-integer genus or twist in {line!r}"
                ) from None
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise DomainError(
                f"line {lineno}: expected '<monomial> <rational>', got {line!r}")
        mono_text, value_text = parts
        m, tpow = parse_factors(header[0], mono_text)
        if tpow:
            raise DomainError(
                f"line {lineno}: {mono_text!r} has a t factor, which "
                f"expands to a sum of monomials")
        if m in entries:
            raise DomainError(
                f"line {lineno}: duplicate monomial {render_mono(m)}")
        try:
            entries[m] = parse_frac(value_text)
        except DomainError as e:
            raise DomainError(f"line {lineno}: {e}") from None
    if header is None:
        raise DomainError("empty table: missing 'genus <g> r <r>' header")
    return SWTable(header[0], header[1], entries)


def load_sw_table(path: str) -> SWTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DomainError(f"{path}: not UTF-8 text ({e.reason} at byte "
                              f"{e.start})") from None
    return parse_sw_table(text)


# -- the universal matrix --------------------------------------------------

def universal_matrix(g: int, r: int) -> Tuple[Tuple[BasisLabel, ...], QMatrix]:
    """Inverse Gram matrix of the Floer pairing on the canonical basis.

    The matrix depends on the basis; the labels are returned with it so
    callers can translate.  It is assembled from the weight-block
    inverses the ring was built with; a singular block would contradict
    the nondegeneracy of the pairing and has already aborted loudly.
    """
    ring = build_oracle(g, r)
    return tuple(ring.labels), ring.inverse_gram()


def glue(g: int, r: int, t1: SWTable, t2: SWTable) -> Fraction:
    """Invariant of the glued manifold from two per-piece tables.

    Computes sum_ij m_ij t1(z_i) t2(z_j); with the aggregation baked
    into the tables this is the total invariant of the union, summed
    over rim-torus classes.
    """
    for t, side in ((t1, "first"), (t2, "second")):
        if SphereParams(t.g, t.r) != SphereParams(g, r):
            raise GenusMismatch(
                f"{side} table is for (g, r) = ({t.g}, {t.r}), "
                f"gluing asked for ({g}, {r})")
    ring = build_oracle(g, r)
    left, right = ([t.evaluate(z) for z in ring.basis] for t in (t1, t2))
    return ring.pair_vectors(left, right, inverse=True)


def c_coefficient(g: int, r: int) -> Fraction:
    """The scalar relating the two middle-dimensional gluing routes.

    Returns (-1)^alpha C(g-1, alpha) with alpha = d/2, after verifying
    against the independent route: the self-pairing of the embedded
    order-one relation must be exactly its reciprocal.
    """
    params = SphereParams(g, r)
    d = params.d
    if d % 2:
        raise DomainError(f"coefficient defined only for even d, got d={d}")
    a = d // 2
    c = Fraction((-1) ** a * comb(g - 1, a))
    rel = embed_bipoly(g, tilde_relation(g, r, 1))
    self_pair = class_pair(params, rel, rel)
    if self_pair != 1 / c:
        raise VerificationFailure(
            f"(g, r) = ({g}, {r}): formula gives c = {c} but the "
            f"relation self-pairs to {self_pair}, not {1 / c}")
    return c


# -- the gamma-annihilated subspace ----------------------------------------

def kernel_K_basis(g: int, r: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Basis of {phi : gamma_j . phi = 0 for all j}, in oracle coordinates."""
    return build_oracle(g, r).killed_by(
        [ExtMono(0, (j,)) for j in range(1, 2 * g + 1)])


def kernel_pairing_rank(g: int, r: int) -> int:
    """Rank of the Floer pairing restricted to the gamma-annihilated
    subspace; one for d even, zero for d odd."""
    ring = build_oracle(g, r)
    vecs = kernel_K_basis(g, r)
    return rank([[ring.pair_vectors(u, v) for v in vecs] for u in vecs],
                len(vecs))


# -- vanishing witnesses ---------------------------------------------------

@lru_cache(maxsize=None)
def _cycle_subspace(g: int, r: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Basis of {phi : gamma_j . phi = 0 for j <= d}, in oracle coordinates."""
    ring = build_oracle(g, r)
    return ring.killed_by([ExtMono(0, (j,)) for j in range(1, ring.d + 1)])


def in_vanishing_cycle_ideal(g: int, r: int, vec: Sequence[Fraction]) -> bool:
    """Whether a vector in oracle coordinates lies in the ideal generated by
    gamma_1..gamma_d.  As pair(gamma_j e_i, phi) = +-pair(e_i, gamma_j phi)
    and the pairing is nondegenerate, the ideal is the pairing-orthogonal of
    {phi : gamma_j . phi = 0 for j <= d}."""
    ring = build_oracle(g, r)
    return not any(ring.pair_vectors(vec, phi) for phi in _cycle_subspace(g, r))


def vanishing_witness(g: int, r: int, m: ExtMono) -> bool:
    """Whether a monomial is zero in the quotient ring.

    For monomials of degree above d the class, zero or not, must lie
    in the ideal generated by the first d one-dimensional classes;
    that structural claim is verified on the side and a failure raises,
    since it would break the vanishing-cycle adjunction argument.
    """
    ring = build_oracle(g, r)
    vec = ring.nf_vector(ExtClass.monomial(g, m))
    if m.degree > ring.d and not in_vanishing_cycle_ideal(g, r, vec):
        raise VerificationFailure(
            f"(g, r) = ({g}, {r}): monomial {render_mono(m)} of degree "
            f"{m.degree} > {ring.d} is outside the vanishing-cycle ideal")
    return not any(vec)


# -- adjunction verdicts ---------------------------------------------------

class _QueryFields(NamedTuple):
    g: int
    sigma_sq: int
    c1_dot: int
    deg_b: int = 0
    b_plus: int = 2
    l: Optional[int] = None
    d_s: Optional[int] = None


class AdjunctionQuery(_QueryFields):
    """One adjunction question about an embedded surface.

    g: genus of the surface (>= 2); sigma_sq: its self-intersection
    (>= 0); c1_dot: pairing of the Spin^C determinant with the surface;
    deg_b: degree of the surface-supported insertion; b_plus: 1 for
    b+ = 1 (the verdict is then chamber-specific, taken on the side of
    the surface class), anything larger for b+ > 1; l: number of
    vanishing cycles, if known; d_s: dimension of the invariant, if
    known (requires the simple-type hypothesis on the manifold side).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        q = super().__new__(cls, *args, **kwargs)
        if q.g < 2:
            raise DomainError(f"genus must be at least 2, got {q.g}")
        if q.sigma_sq < 0:
            raise DomainError(
                f"self-intersection must be nonnegative, got {q.sigma_sq}")
        if q.deg_b < 0:
            raise DomainError(f"insertion degree must be nonnegative")
        if q.b_plus < 1:
            raise DomainError(f"b_plus must be at least 1, got {q.b_plus}")
        if abs(q.c1_dot) + q.sigma_sq <= 0:
            raise DomainError(
                "torsion case: |c1 . surface| + self-intersection must be "
                "positive")
        if q.l is not None and q.l < 0:
            raise DomainError(f"vanishing-cycle count must be nonnegative")
        if q.d_s is not None and q.d_s < 0:
            raise DomainError(f"invariant dimension must be nonnegative")
        return q


class AdjunctionVerdict(NamedTuple):
    excluded: bool
    form: Optional[str] = None

    def __str__(self) -> str:
        if not self.excluded:
            return "ALLOWED"
        return f"EXCLUDED (thm adjunction, {self.form} form)"


def adjunction_verdict(q: AdjunctionQuery) -> AdjunctionVerdict:
    """Decide whether a nonzero invariant is ruled out.

    The self-intersection is absorbed into the bound by the blow-up
    bookkeeping, which leaves the genus and the invariant dimension
    unchanged; so each test compares base + correction against 2g - 2,
    where base is |c1 . S| + S^2, except with b+ = 1 where only the
    chamber on the surface side is available and base is
    -c1 . S + S^2 (no verdict when that is not positive).  The three
    corrections, tried in order: the insertion degree; twice the
    invariant dimension, if supplied; twice the insertion degree, if a
    vanishing-cycle count l with deg_b <= l + 1 is supplied.
    """
    bound = 2 * q.g - 2
    if q.b_plus == 1:
        base = -q.c1_dot + q.sigma_sq
        if base <= 0:
            return AdjunctionVerdict(False)
    else:
        base = abs(q.c1_dot) + q.sigma_sq
    if base + q.deg_b > bound:
        return AdjunctionVerdict(True, "deg")
    if q.d_s is not None and base + 2 * q.d_s > bound:
        return AdjunctionVerdict(True, "dim")
    if q.l is not None and q.deg_b <= q.l + 1 and base + 2 * q.deg_b > bound:
        return AdjunctionVerdict(True, "cycle")
    return AdjunctionVerdict(False)
