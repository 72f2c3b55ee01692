"""The invariant suite behind ``swfloer verify`` and the acceptance tests.

Each check takes a list of (g, r) cases and returns failure strings;
empty means pass.  The registry CHECKS at the bottom drives both
``swfloer verify`` and the acceptance tests, so they cannot drift apart.
The command line loads this module only for verify, and reads the
registry from here (``swfloer.cli.CHECKS`` is this same list).
"""

import random
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Tuple

from .errors import VerificationFailure
from .extalg import (
    ExtClass,
    ExtMono,
    embed_bipoly,
    gamma_monomials,
    mono_weight,
    primitive_basis,
    primitive_dim,
    theta_power,
    top_eval,
    wedge,
)
from .floerring import (
    build_oracle,
    deformation_components,
    presentation_dimension,
    presentation_quotient,
    recursion_free_check,
    recursion_unique,
    tilde_relation,
)
from .glueadj import (
    AdjunctionQuery,
    SWTable,
    adjunction_verdict,
    c_coefficient,
    glue,
    kernel_pairing_rank,
    universal_matrix,
)
from . import swpair
from .swpair import SphereParams, class_pair, monos_of_degree
from .symprod import BiPoly, alpha_of, betti, betti_total, ring_oracle

SWEEP = [(g, r) for g in range(2, 6) for r in range(1, g)]


def check_dimension_match(cases) -> List[str]:
    """Quotient dimension equals the total Betti number."""
    fails = []
    for g, r in cases:
        ring = build_oracle(g, r)
        want = betti_total(g, ring.d)
        if ring.dim != want:
            fails.append(f"({g},{r}): oracle dim {ring.dim} != {want}")
    return fails


def check_relations_annihilate(cases) -> List[str]:
    """Every w ^ R~_k and w ^ theta R~_(k+1) is in the pairing radical."""
    fails = []
    for g, r in cases:
        ring = build_oracle(g, r)
        d = ring.d
        for k in range(d + 1):
            rel = embed_bipoly(g, tilde_relation(g, r, k))
            nxt = embed_bipoly(g, BiPoly.theta() * tilde_relation(g, r, k + 1))
            for w in primitive_basis(g, k):
                if not ring.is_in_radical(wedge(w, rel)):
                    fails.append(f"({g},{r}) k={k}: relation survives")
                    break
                if not ring.is_in_radical(wedge(w, nxt)):
                    fails.append(f"({g},{r}) k={k}: theta-shifted relation "
                                 f"survives")
                    break
    return fails


def check_presentation_basis(cases) -> List[str]:
    """Sector bases are the predicted monomials; weighted sizes add up."""
    fails = []
    for g, r in cases:
        d = g - 1 - r
        total = 0
        for k in range(d + 1):
            quo = presentation_quotient(g, r, k)
            want = sorted(((a, b) for a in range(d + 1) for b in range(d + 1)
                           if 2 * a + b <= d - k),
                          key=lambda ab: (ab[0] + ab[1], -ab[0]))
            if sorted(quo.basis) != sorted(want):
                fails.append(f"({g},{r}) k={k}: basis {quo.basis}")
            total += primitive_dim(g, k) * quo.dim
        if total != betti_total(g, d):
            fails.append(f"({g},{r}): weighted sector sum {total}")
    return fails


def check_recursion_consistency(cases) -> List[str]:
    """Unique solution matches the closed form; free solution checks out;
    order-k relations are order-zero relations one genus down."""
    fails = []
    for g, r in cases:
        rs = recursion_unique(g, r)
        d = g - 1 - r
        a = alpha_of(d, 0)
        lo, hi = 2 * a + 2 * r - d, a + r
        for i in range(max(lo, 0), hi + 1):
            want = sum(
                Fraction((-1) ** (j + 1) * factorial(a + r) * 2 ** (i - j),
                         factorial(i - j) * factorial(j)
                         * factorial(a + r - i))
                for j in range(i - lo + 1))
            if rs.a_coeffs.get((i, 1), Fraction(0)) != want:
                fails.append(f"({g},{r}): a[{i},1] != closed form")
        for (i, m) in rs.a_coeffs:
            if m == 1 and not (lo <= i <= hi):
                fails.append(f"({g},{r}): stray a[{i},1]")
        if not recursion_free_check(g, r):
            fails.append(f"({g},{r}): free-solution check failed")
        for k in range(1, d + 1):
            if rs.recursion[k] != recursion_unique(g - k, r).recursion[0]:
                fails.append(f"({g},{r}): order-{k} relation not the "
                             f"genus-{g - k} order-zero relation")
    return fails


def check_gram_structure(cases) -> List[str]:
    """Zero off the (lambda, -lambda) weight blocks, each block entry the
    pairing itself, anti-triangular by degree, the fundamental pairing on
    the antidiagonal, invertible.

    The first claim is certified on gamma sets, for all classes: a gamma
    set W with top_eval(g_W ^ theta^(g-|W|/2)) != 0 must have weight 0.
    A monomial pairing is that value for the merged gamma set times a
    sign and (-n)^j/j! != 0, and weights add on merging, so classes of
    non-opposite weights pair to zero at every level, the level -1 filter
    included.  The same walk certifies the engine's closed form: on each
    W the wedge value must be j! times swpair._gamma_eval(g, W, -1), read
    at call time, so the engine no longer shares the wedge with this
    check.  The other claims then need only the block entries.  The
    ring computed them from the primitive factorisation of the basis, so
    each entry (i, j) is compared with pair_basis(e_i)[j], the definition
    through mono_pair; the fundamental pairing is the level -1 filter of
    class_pair.  The ring inverted every block when it was built.
    """
    fails = []
    for g, r in cases:
        for size in range(0, 2 * g + 1, 2):
            j = g - size // 2
            power = theta_power(g, j)
            for W in gamma_monomials(g, size):
                m = ExtMono(0, W)
                v = top_eval(wedge(ExtClass.monomial(g, m), power))
                if v and any(mono_weight(g, m)):
                    fails.append(f"({g},{r}): nonzero off the weight blocks: "
                                 f"gamma set {W} reaches the volume at "
                                 f"weight {mono_weight(g, m)}")
                if v != factorial(j) * swpair._gamma_eval(g, W, -1):
                    fails.append(f"({g},{r}): closed form differs from "
                                 f"the wedge at gamma set {W}")
        ring = build_oracle(g, r)
        degs = ring.basis_degrees()
        cap = 2 * ring.d
        pairs = [ring.pair_basis(e) for e in ring.basis]
        for i, j, v in ring.block_entries():
            if v != pairs[i].get(j, 0):
                fails.append(f"({g},{r}): block entry ({i},{j}) differs "
                             f"from the pairing of the basis elements")
            s = degs[i] + degs[j]
            if s > cap and v:
                fails.append(f"({g},{r}): nonzero above top degree "
                             f"at ({i},{j})")
            if s == cap and v != class_pair(ring.params, ring.basis[i],
                                            ring.basis[j], -1):
                fails.append(f"({g},{r}): antidiagonal entry ({i},{j}) "
                             f"differs from the fundamental pairing")
    return fails


def _random_homogeneous(ring, rng) -> ExtClass:
    by_deg: Dict[int, List[ExtClass]] = {}
    for lab, e in zip(ring.labels, ring.basis):
        by_deg.setdefault(lab.degree, []).append(e)
    while True:
        q = rng.choice(sorted(by_deg))
        ks = [rng.randint(-3, 3) for _ in by_deg[q]]
        out = ExtClass(ring.g, ((m, k * c) for k, e in zip(ks, by_deg[q])
                                for m, c in e.terms.items()))
        if not out.is_zero():
            return out


def check_deformation_cup(cases) -> List[str]:
    """Base deformation component is the cup product; nothing appears off
    the even ladder.  100 seeded pairs per case up to genus 4; above genus
    4 it compares nothing.  Each pair is wedged once, for both rings.  The
    reference, ring_oracle(g, d), is the same PairingQuotient engine at
    level -1, sharing basis, Gram blocks and nf_vector with the ring under
    test; only the level filter differs."""
    fails = []
    for g, r in cases:
        if g > 4:
            continue
        ring = build_oracle(g, r)
        sym = ring_oracle(g, ring.d)
        rng = random.Random(1000 * g + r)
        for t in range(100):
            f1 = _random_homogeneous(ring, rng)
            f2 = _random_homogeneous(ring, rng)
            z = wedge(f1, f2)
            try:
                comps = deformation_components(ring, z)
            except VerificationFailure:
                fails.append(f"({g},{r}) pair {t}: off-ladder component")
                break
            cup = sym.nf_class(z)
            base_ok = comps[0] == cup if comps else cup.is_zero()
            if not base_ok:
                fails.append(f"({g},{r}) pair {t}: base term is not the "
                             f"cup product")
                break
    return fails


def check_middle_coefficient(cases) -> List[str]:
    """Both routes to the middle coefficient agree; the pairing restricted
    to the gamma-annihilated subspace has rank 1 for d even, 0 for odd."""
    fails = []
    for g, r in cases:
        d = g - 1 - r
        if d % 2 == 0:
            try:
                c = c_coefficient(g, r)
            except VerificationFailure as e:
                fails.append(f"({g},{r}): {e}")
                continue
            if (g, r) == (4, 1):
                rel = embed_bipoly(4, tilde_relation(4, 1, 1))
                if c != -3 or class_pair(SphereParams(4, 1), rel, rel) != \
                        Fraction(-1, 3):
                    fails.append("(4,1): expected c = -3 and self-pairing "
                                 "-1/3")
        want = 1 if d % 2 == 0 else 0
        if kernel_pairing_rank(g, r) != want:
            fails.append(f"({g},{r}): restricted pairing rank != {want}")
    return fails


def check_gluing_cap(cases) -> List[str]:
    """Top-twist gluing is a plain product; the universal matrix M inverts
    the Gram matrix entry by entry; then glue, which reads the inverse
    weight blocks, equals sum t1(e_i) M_ij t2(e_j) on two seeded tables
    of six monomials off weight 0."""
    fails = []
    for g, r in cases:
        if r == g - 1:
            s, t = Fraction(3, 2), Fraction(-4, 5)
            t1 = SWTable(g, r, {ExtMono(0, ()): s})
            t2 = SWTable(g, r, {ExtMono(0, ()): t})
            if glue(g, r, t1, t2) != s * t:
                fails.append(f"({g},{r}): product formula failed")
        ring = build_oracle(g, r)
        _, m = universal_matrix(g, r)
        g_rows = [[] for _ in range(ring.dim)]
        for j, k, v in ring.block_entries():
            if v:
                g_rows[j].append((k, v))
        for i in range(ring.dim):
            acc = {i: Fraction(-1)}  # row i of M G minus row i of the identity
            for mij, row in zip(m.row(i), g_rows):
                if mij:
                    for k, gv in row:
                        acc[k] = acc.get(k, 0) + mij * gv
            bad = sorted(k for k, v in acc.items() if v)
            if bad:
                fails.append(f"({g},{r}): cap identity fails at "
                             f"({i},{bad[0]})")
                break
        else:
            rng = random.Random(7000 + 10 * g + r)
            off = [mono for mono in ring.monos if any(mono_weight(g, mono))]
            t1, t2 = (SWTable(g, r, {
                mono: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                               rng.randint(1, 4))
                for mono in rng.sample(off, min(6, len(off)))})
                for _ in range(2))
            left, right = ([t.evaluate(e) for e in ring.basis] for t in (t1, t2))
            want = sum((x * mij * right[j] for i, x in enumerate(left) if x
                        for j, mij in enumerate(m.row(i)) if mij and right[j]),
                       Fraction(0))
            if glue(g, r, t1, t2) != want:
                fails.append(f"({g},{r}): glue differs from the universal "
                             f"matrix on seeded tables")
    return fails


def check_high_degree_vanishing(cases) -> List[str]:
    """Monomials above twice the symmetric-product dimension die: all of
    them for the four lowest degrees past the cap (plus the pure-x ladder)
    at genus up to four, a seeded sample of 500 at genus five.  As a
    negative control, no basis element may be in the radical, so a
    radical test that says yes to everything fails here."""
    fails = []
    for g, r in cases:
        ring = build_oracle(g, r)
        cap = 2 * ring.d
        for i, e in enumerate(ring.basis):
            if ring.is_in_radical(e):
                fails.append(f"({g},{r}): basis element {i} is in the radical")
                break
        monos: List[ExtMono] = []
        if g <= 4:
            for q in range(cap + 1, cap + 5):
                monos.extend(monos_of_degree(g, q))
            monos.extend(ExtMono(a, ())
                         for a in range(ring.d + 1, ring.d + 7))
        else:
            rng = random.Random(20240612 + r)
            while len(monos) < 500:
                xexp = rng.randint(0, 6)
                ng = rng.randint(0, 2 * g)
                gammas = tuple(sorted(rng.sample(range(1, 2 * g + 1), ng)))
                m = ExtMono(xexp, gammas)
                if m.degree > cap:
                    monos.append(m)
        for m in monos:
            if not ring.is_in_radical(ExtClass.monomial(g, m)):
                fails.append(f"({g},{r}): {m} does not vanish")
                break
    return fails


def check_betti_triple(cases) -> List[str]:
    """Series coefficients, presentation dimensions and oracle dimensions
    agree; low Betti numbers match the alternating binomial count."""
    fails = []
    for g in range(2, 6):
        for d in range(g - 1):
            r = g - 1 - d
            total = betti_total(g, d)
            if presentation_dimension(g, r) != total:
                fails.append(f"g={g} d={d}: presentation sum != {total}")
            if build_oracle(g, r).dim != total:
                fails.append(f"g={g} d={d}: oracle dim != {total}")
            b = betti(g, d)
            for i in range(d + 1):
                want = sum(comb(2 * g, i - 2 * v) for v in range(i // 2 + 1))
                if b[i] != want:
                    fails.append(f"g={g} d={d}: b_{i} != binomial sum")
    return fails


ADJUNCTION_CASES: List[Tuple[dict, str]] = [
    (dict(g=2, sigma_sq=0, c1_dot=-2, deg_b=1, b_plus=2),
     "EXCLUDED (thm adjunction, deg form)"),
    (dict(g=3, sigma_sq=0, c1_dot=-2, deg_b=2, b_plus=2), "ALLOWED"),
    (dict(g=2, sigma_sq=1, c1_dot=-1, deg_b=0, b_plus=2), "ALLOWED"),
    (dict(g=2, sigma_sq=2, c1_dot=2, deg_b=0, b_plus=2),
     "EXCLUDED (thm adjunction, deg form)"),
    (dict(g=3, sigma_sq=0, c1_dot=6, deg_b=0, b_plus=1), "ALLOWED"),
    (dict(g=3, sigma_sq=0, c1_dot=-6, deg_b=0, b_plus=1),
     "EXCLUDED (thm adjunction, deg form)"),
    (dict(g=2, sigma_sq=0, c1_dot=-2, deg_b=0, d_s=1, b_plus=2),
     "EXCLUDED (thm adjunction, dim form)"),
    (dict(g=4, sigma_sq=0, c1_dot=-2, deg_b=0, d_s=2, b_plus=2), "ALLOWED"),
    (dict(g=3, sigma_sq=0, c1_dot=-2, deg_b=2, l=2, b_plus=2),
     "EXCLUDED (thm adjunction, cycle form)"),
    (dict(g=3, sigma_sq=0, c1_dot=-2, deg_b=3, l=1, b_plus=2),
     "EXCLUDED (thm adjunction, deg form)"),
    (dict(g=2, sigma_sq=3, c1_dot=-1, deg_b=0, b_plus=2),
     "EXCLUDED (thm adjunction, deg form)"),
    (dict(g=3, sigma_sq=1, c1_dot=-2, deg_b=0, d_s=1, b_plus=1),
     "EXCLUDED (thm adjunction, dim form)"),
]


def check_adjunction_table(cases) -> List[str]:
    """Twelve hand-computed verdicts, covering both chambers, all three
    inequality forms, the applicability gate and a boundary case."""
    fails = []
    for i, (kwargs, want) in enumerate(ADJUNCTION_CASES):
        got = str(adjunction_verdict(AdjunctionQuery(**kwargs)))
        if got != want:
            fails.append(f"query {i + 1}: got {got!r}, want {want!r}")
    return fails


# name, function, runs-in-single-case-mode
CHECKS: List[Tuple[str, Callable, bool]] = [
    ("dimension-match", check_dimension_match, True),
    ("relations-annihilate", check_relations_annihilate, True),
    ("presentation-basis", check_presentation_basis, True),
    ("recursion-consistency", check_recursion_consistency, True),
    ("gram-structure", check_gram_structure, True),
    ("deformation-cup", check_deformation_cup, True),
    ("middle-coefficient", check_middle_coefficient, True),
    ("gluing-cap", check_gluing_cap, True),
    ("high-degree-vanishing", check_high_degree_vanishing, True),
    ("betti-triple-count", check_betti_triple, False),
    ("adjunction-table", check_adjunction_table, False),
]
