"""Seeded input generators, independent of the swfloer package.

Everything here is plain data (tuples, dicts, Fractions, text), so the
parent process can build command lines without importing the package,
and the generators keep producing the same inputs whatever a later
change does to the package's own enumeration or rendering code.

Every generated input is valid: classes, tables and polynomials stay
within the degree cap 2d of their case (d = g - 1 - r), so no request
is expected to fail.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def cap_degree(g, r):
    return 2 * (g - 1 - r)


@lru_cache(maxsize=None)
def monomials(g, maxdeg):
    """(xexp, gammas) pairs of degree <= maxdeg, degree-major order.

    The list is shared between callers and must not be changed."""
    out = []
    for deg in range(maxdeg + 1):
        for xexp in range(deg // 2, -1, -1):
            k = deg - 2 * xexp
            if k <= 2 * g:
                out.extend((xexp, gam)
                           for gam in combinations(range(1, 2 * g + 1), k))
    return out


def random_rational(rng):
    num = rng.choice([n for n in range(-9, 10) if n])
    return Fraction(num, rng.randint(1, 6))


def random_terms(rng, pool, lo, hi):
    """Between lo and hi distinct items of pool, each with a nonzero rational."""
    picks = rng.sample(pool, min(len(pool), rng.randint(lo, hi)))
    return {m: random_rational(rng) for m in picks}


def random_class(rng, g, r):
    """Up to four monomials of degree <= 2d with rational coefficients."""
    return random_terms(rng, monomials(g, cap_degree(g, r)), 1, 4)


def random_table(rng, g, r):
    """Up to eight table entries on monomials of degree <= 2d."""
    return random_terms(rng, monomials(g, cap_degree(g, r)), 1, 8)


def random_bipoly(rng, d):
    """Up to three eta^a theta^b terms of weight a + b <= d + 2."""
    pool = [(a, w - a) for w in range(d + 3) for a in range(w + 1)]
    return random_terms(rng, pool, 1, 3)


# -- text in the package's input grammars ----------------------------------

def mono_text(m):
    xexp, gammas = m
    parts = []
    if xexp:
        parts.append("x" if xexp == 1 else f"x^{xexp}")
    parts.extend(f"g{i}" for i in gammas)
    return "*".join(parts) if parts else "1"


def _signed_sum(chunks):
    out = ""
    for c, body in chunks:
        mag = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not out:
            out = mag if c > 0 else "-" + mag
        else:
            out += (" + " if c > 0 else " - ") + mag
    return out


def class_text(terms):
    """A class expression accepted by ``floer-nf --expr``."""
    return _signed_sum((c, mono_text(m)) for m, c in sorted(terms.items()))


def bipoly_text(terms):
    """A polynomial accepted by ``sp-nf --expr``."""
    def body(a, b):
        parts = [f"{v}^{n}" if n > 1 else v
                 for v, n in (("e", a), ("t", b)) if n]
        return "*".join(parts) if parts else "1"
    return _signed_sum((c, body(a, b)) for (a, b), c in sorted(terms.items()))


def table_text(g, r, values):
    """A table file accepted by ``glue``."""
    lines = [f"genus {g} r {r}"]
    lines.extend(f"{mono_text(m)} {v}" for m, v in sorted(values.items()))
    return "\n".join(lines) + "\n"
