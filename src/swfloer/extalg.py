"""The model algebra A = Q[x] (x) Lambda*(gamma_1, ..., gamma_2g).

Degrees: deg x = 2, deg gamma_i = 1.  A monomial is x^a g_S for a subset S
of {1..2g} kept as a strictly increasing tuple; the wedge of two monomials
is zero when the gamma sets meet, otherwise the merged monomial with the
shuffle sign.

The distinguished degree-2 element

    theta = sum_i gamma_i wedge gamma_{g+i}

plays the role of the symplectic/theta class.  ``top_eval`` reads off the
coefficient of a class on the volume element theta^g / g!; note that
theta^g = g! * (-1)^(g(g-1)/2) * gamma_1 ... gamma_2g, so the extraction
carries the shuffle sign epsilon_g = (-1)^(g(g-1)/2).

Primitive subspaces: Lambda_0^k = ker(theta^(g-k+1) : Lambda^k ->
Lambda^(2g-k+2)), of dimension C(2g,k) - C(2g,k-2).  The returned basis is
the canonical kernel basis of the multiplication matrix in lexicographic
monomial order, so every module downstream agrees on it; theta has torus
weight 0, so it is eliminated by weight and equals the assembled kernel.

>>> top_eval(theta_class(2) * theta_class(2))
Fraction(2, 1)
>>> [len(primitive_basis(3, k)) for k in range(4)]
[1, 6, 14, 14]
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, GenusMismatch
from .qlinalg import block_kernel, exact, frac, sum_terms


class ExtMono(NamedTuple):
    """x^xexp times the wedge of the listed gamma generators."""
    xexp: int
    gammas: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return 2 * self.xexp + len(self.gammas)

    def sort_key(self):
        # canonical order: by degree, then x exponent descending, then
        # gamma tuple lexicographically
        return (self.degree, -self.xexp, self.gammas)


UNIT_MONO = ExtMono(0, ())


def mono_weight(g: int, m: ExtMono) -> Tuple[int, ...]:
    """Torus weight in Z^g: gamma_i has +e_i, gamma_(g+i) has -e_i, x has
    0.  Weights add under wedge and top_eval vanishes off weight 0.

    >>> mono_weight(2, ExtMono(1, (1, 2, 3)))
    (0, 1)
    """
    w = [0] * g
    for i in m.gammas:
        if i <= g:
            w[i - 1] += 1
        else:
            w[i - g - 1] -= 1
    return tuple(w)


def by_weight(g: int, monos: Sequence[ExtMono]) -> Dict[Tuple[int, ...], List[int]]:
    """The indices of monos grouped by torus weight: weights in order of
    first appearance, each index list increasing (the column layout that
    qlinalg.block_kernel takes)."""
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, m in enumerate(monos):
        groups.setdefault(mono_weight(g, m), []).append(i)
    return groups


def _check_mono(g: int, m: ExtMono) -> None:
    if m.xexp < 0:
        raise DomainError(f"negative x exponent in {m}")
    if list(m.gammas) != sorted(set(m.gammas)):
        raise DomainError(f"gamma indices must be strictly increasing: {m.gammas}")
    if m.gammas and not (1 <= m.gammas[0] and m.gammas[-1] <= 2 * g):
        raise DomainError(f"gamma index out of range 1..{2*g}: {m.gammas}")


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Merge two increasing gamma tuples; (sign, merged) or (0, None) on
    overlap, found by the merge itself."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    merged = []
    i = j = 0
    inversions = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        elif a[i] > b[j]:
            # b[j] jumps over the remaining len(a)-i generators of a
            merged.append(b[j])
            inversions += len(a) - i
            j += 1
        else:
            return 0, None
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1 if inversions % 2 else 1), tuple(merged)


class ExtClass:
    """A finite Q-linear combination of ExtMono terms at a fixed genus,
    summed in one pass (qlinalg.sum_terms) from a mapping or from
    (monomial, coefficient) pairs; each surviving monomial is checked.
    A coefficient is stored by qlinalg.exact: an int when it is integral,
    a Fraction otherwise, so the products of integral classes stay in
    int.  The two compare and hash alike."""

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms: Iterable = ()):
        if g < 1:
            raise DomainError(f"genus must be >= 1, got {g}")
        self.g = g
        self.terms = sum_terms(terms, exact)
        for m in self.terms:
            _check_mono(g, m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g: int) -> "ExtClass":
        return cls(g)

    @classmethod
    def unit(cls, g: int) -> "ExtClass":
        return cls(g, {UNIT_MONO: 1})

    @classmethod
    def monomial(cls, g: int, m: ExtMono, coeff=1) -> "ExtClass":
        return cls(g, {m: coeff})

    @classmethod
    def x_power(cls, g: int, a: int) -> "ExtClass":
        return cls(g, {ExtMono(a, ()): 1})

    @classmethod
    def gamma(cls, g: int, i: int) -> "ExtClass":
        return cls(g, {ExtMono(0, (i,)): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: ExtMono):
        return self.terms.get(m, 0)

    def degrees(self) -> List[int]:
        return sorted({m.degree for m in self.terms})

    def degree(self) -> Optional[int]:
        """Degree if homogeneous (None for 0); DomainError otherwise."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise DomainError(f"class is not homogeneous, degrees {degs}")
        return degs[0]

    def sorted_terms(self) -> List[Tuple[ExtMono, Fraction]]:
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    # -- arithmetic --------------------------------------------------------

    def _require_same_genus(self, other: "ExtClass") -> None:
        if self.g != other.g:
            raise GenusMismatch(f"genus {self.g} vs {other.g}")

    def __add__(self, other: "ExtClass") -> "ExtClass":
        self._require_same_genus(other)
        return ExtClass(self.g, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "ExtClass":
        return ExtClass(self.g, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ExtClass") -> "ExtClass":
        return self + (-other)

    def scale(self, k) -> "ExtClass":
        k = exact(k)
        return ExtClass(self.g, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExtClass):
            return wedge(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtClass) and self.g == other.g
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.g, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ExtClass(g={self.g}, {render_class(self)})"


def wedge(u: ExtClass, v: ExtClass) -> ExtClass:
    """Wedge product, bilinear over Q; raises GenusMismatch across genera.
    Each pair of terms costs one product of coefficients, negated on an
    odd shuffle."""
    u._require_same_genus(v)
    out = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            sign, gam = _merge_sign(m1.gammas, m2.gammas)
            if sign:
                m = ExtMono(m1.xexp + m2.xexp, gam)
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                out[m] = out[m] + c if m in out else c
    return ExtClass(u.g, out)


def theta_class(g: int) -> ExtClass:
    """theta = sum_{i=1}^{g} gamma_i ^ gamma_{g+i}."""
    if g < 1:
        raise DomainError("genus must be >= 1")
    return ExtClass(g, {ExtMono(0, (i, g + i)): 1 for i in range(1, g + 1)})


@lru_cache(maxsize=None)
def theta_power(g: int, j: int) -> ExtClass:
    """theta^j, cached; theta^j = 0 once j > g."""
    if j < 0:
        raise DomainError("negative theta power")
    if j == 0:
        return ExtClass.unit(g)
    if j > g:
        return ExtClass.zero(g)
    return wedge(theta_power(g, j - 1), theta_class(g))


def epsilon(g: int) -> int:
    """Shuffle sign relating theta^g to the sorted volume monomial."""
    return -1 if (g * (g - 1) // 2) % 2 else 1


def top_eval(u: ExtClass) -> Fraction:
    """Coefficient of u on the volume element theta^g / g!.

    Only the component on x^0 gamma_1...gamma_2g contributes; everything
    else is ignored.

    >>> top_eval(theta_power(3, 3))
    Fraction(6, 1)
    >>> top_eval(ExtClass.unit(3))
    Fraction(0, 1)
    """
    g = u.g
    vol = ExtMono(0, tuple(range(1, 2 * g + 1)))
    return frac(epsilon(g) * u.coefficient(vol))


def gamma_monomials(g: int, k: int) -> List[Tuple[int, ...]]:
    """All k-element gamma index tuples, lexicographic."""
    return list(combinations(range(1, 2 * g + 1), k))


def monomials_up_to(g: int, maxdeg: int) -> List[ExtMono]:
    """All monomials of degree <= maxdeg in the canonical order.

    Order: by degree, then x exponent descending, then gamma tuple lex.
    """
    out: List[ExtMono] = []
    for deg in range(maxdeg + 1):
        for xexp in range(deg // 2, -1, -1):
            gdeg = deg - 2 * xexp
            if gdeg > 2 * g:
                continue
            for gam in combinations(range(1, 2 * g + 1), gdeg):
                out.append(ExtMono(xexp, gam))
    return out


@lru_cache(maxsize=None)
def primitive_basis(g: int, k: int) -> Tuple[ExtClass, ...]:
    """Canonical basis of the primitive subspace Lambda_0^k.

    Lambda_0^k = ker(theta^(g-k+1): Lambda^k -> Lambda^(2g-k+2)); the basis
    is the canonical kernel basis of the multiplication matrix, columns in
    lexicographic monomial order.  theta preserves torus weight, so each
    weight block of columns is eliminated alone (block_kernel): the rref is
    unique, and the basis equals the assembled matrix's kernel.
    """
    if not (0 <= k <= g):
        raise DomainError(f"primitive degree k = {k} outside 0..g = {g}")
    cols = [ExtMono(0, gam) for gam in gamma_monomials(g, k)]
    power = theta_power(g, g - k + 1)
    blocks = []
    for idx in by_weight(g, cols).values():
        rows: Dict[ExtMono, List[int]] = {}
        for a, j in enumerate(idx):
            for m, c in wedge(ExtClass.monomial(g, cols[j]), power).terms.items():
                rows.setdefault(m, [0] * len(idx))[a] = c
        blocks.append((idx, list(rows.values())))
    return tuple(ExtClass(g, {cols[j]: c for j, c in enumerate(vec) if c})
                 for vec in block_kernel(blocks, len(cols))[0])


def primitive_dim(g: int, k: int) -> int:
    """dim Lambda_0^k = C(2g, k) - C(2g, k-2).

    >>> [primitive_dim(3, k) for k in range(4)]
    [1, 6, 14, 14]
    """
    return comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)


def embed_bipoly(g: int, poly) -> ExtClass:
    """Send a polynomial in eta, theta into A: eta -> x, theta -> theta_class.

    ``poly`` may be a symprod.BiPoly or any mapping-like object whose items
    are ((eta_exp, theta_exp), coefficient).
    """
    items = poly.terms.items() if hasattr(poly, "terms") else dict(poly).items()
    return ExtClass(g, [(m, c * frac(coeff)) for (a, b), coeff in items
                        for m, c in wedge(ExtClass.x_power(g, a),
                                          theta_power(g, b)).terms.items()])


# -- text format -----------------------------------------------------------
#
# Monomial grammar: '*'-separated factors out of
#     1       the unit
#     x, x^3  powers of x
#     g7      a gamma generator (indices strictly increasing as written)
#     t, t^2  powers of the theta alias (expands to theta_class(g))
# A class expression is a '+'/'-' separated sum of products of these
# factors and rationals, which may stand anywhere in the product.
# Rationals print as p/q with '/q' omitted when q == 1.  One render_sum
# writes the signed sums of render_class and symprod.render_bipoly, and
# one signed_terms splits those that parse_class and parse_bipoly read.

_FACTOR_RE = re.compile(r"^(1|x(\^\d+)?|t(\^\d+)?|g\d+)$")
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INT_RE = re.compile(r"[+-]?\d+")


def _decimal(n: int) -> str:
    """str(n) past int's limit on the digits it converts (4,300 by
    default): a long numeral is converted in two halves."""
    if n.bit_length() <= 2000:  # about 600 digits, under any allowed limit
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # about half of its digits
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def render_frac(q: Fraction) -> str:
    num = _decimal(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal(q.denominator)}"


def parse_frac(text: str) -> Fraction:
    """Inverse of render_frac.  Anything outside the grammar
    [+-]?digits(/digits)? (an exponent, a decimal point, an underscore),
    a zero denominator or a numeral too long for int() (over 4,300
    digits by default) is a DomainError.

    >>> parse_frac("-3/6")
    Fraction(-1, 2)
    """
    try:
        if _RAT_RE.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
    raise DomainError(f"bad rational {shown!r}")


def parse_int(text: str) -> int:
    """A numeral [+-]?digits.  Anything else (an underscore, a decimal
    point, spaces) or a numeral too long for int() (over 4,300 digits by
    default) is a DomainError, like any other malformed input."""
    if not _INT_RE.fullmatch(text):
        raise DomainError(f"bad integer {text!r}")
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"numeral of {len(text)} digits is too long") from None


def render_mono(m: ExtMono) -> str:
    parts = []
    if m.xexp == 1:
        parts.append("x")
    elif m.xexp > 1:
        parts.append(f"x^{m.xexp}")
    parts.extend(f"g{i}" for i in m.gammas)
    return "*".join(parts) if parts else "1"


def render_sum(terms: Iterable[Tuple[str, Fraction]]) -> str:
    """The signed sum of (monomial text, coefficient) pairs, in the given
    order: the magnitude is written unless it is 1 on a monomial other
    than '1', terms are joined by ' + ' and ' - ', and no terms give '0'."""
    chunks: List[str] = []
    for mono, c in terms:
        mag = abs(c)
        if mono == "1":
            body = render_frac(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{render_frac(mag)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


def render_class(u: ExtClass) -> str:
    """Canonical text of a class; terms in canonical monomial order."""
    return render_sum((render_mono(m), c) for m, c in u.sorted_terms())


def parse_factors(g: int, text: str) -> Tuple[ExtMono, int]:
    """One monomial in the grammar above, split into its x and gamma part
    and its power of t, without expanding t."""
    text = text.strip()
    if not text:
        raise DomainError("empty monomial")
    xexp = 0
    tpow = 0
    gammas: List[int] = []
    saw_unit = False
    for factor in text.split("*"):
        factor = factor.strip()
        if not _FACTOR_RE.match(factor):
            raise DomainError(f"bad factor {factor!r} in monomial {text!r}")
        if factor == "1":
            saw_unit = True
        elif factor.startswith("x"):
            xexp += parse_int(factor[2:]) if "^" in factor else 1
        elif factor.startswith("t"):
            tpow += parse_int(factor[2:]) if "^" in factor else 1
        else:
            idx = parse_int(factor[1:])
            if not (1 <= idx <= 2 * g):
                raise DomainError(f"gamma index {idx} out of range 1..{2*g}")
            if gammas and idx <= gammas[-1]:
                raise DomainError(
                    f"gamma indices must be strictly increasing, got g{gammas[-1]} before g{idx}")
            gammas.append(idx)
    if saw_unit and (xexp or tpow or gammas):
        raise DomainError(f"'1' cannot be combined with other factors: {text!r}")
    return ExtMono(xexp, tuple(gammas)), tpow


def parse_monomial(g: int, text: str) -> ExtClass:
    """One monomial in the grammar above, as a class (t expands to a sum)."""
    m, tpow = parse_factors(g, text)
    out = ExtClass.monomial(g, m)
    if tpow:
        out = wedge(out, theta_power(g, tpow))
    return out


def signed_terms(text: str) -> Iterator[Tuple[int, str]]:
    """The (sign, term text) pairs of a '+'/'-' separated sum."""
    text = text.strip()
    if not text:
        raise DomainError("empty expression")
    # each term follows a run of signs, worth -1 per '-' (no parentheses)
    s = text.replace(" ", "")
    for signs, body in re.findall(r"([+-]*)([^+-]+)", s):
        yield (-1) ** signs.count("-"), body
    # checked last, so that a bad term before it keeps its own message
    if s[-1] in "+-":
        raise DomainError(f"dangling operator in {text!r}")


def parse_class(g: int, text: str) -> ExtClass:
    """A sum of rational multiples of monomials, e.g. '3/2*x^2*g1*g5 - t + 1'.
    A rational (1 included) may stand anywhere in a product, and several
    multiply, as in symprod.parse_bipoly; the other factors form the
    monomial, and a product of rationals alone is a multiple of 1."""
    terms: List[Tuple[ExtMono, Fraction]] = []
    for sign, body in signed_terms(text):
        coeff = Fraction(sign)
        factors = []
        for factor in body.split("*"):
            rational = factor.strip()
            if _RAT_RE.fullmatch(rational):
                coeff *= parse_frac(rational)
            else:
                factors.append(factor)
        mono = parse_monomial(g, "*".join(factors) or "1")
        terms.extend((m, c * coeff) for m, c in mono.terms.items())
    return ExtClass(g, terms)
