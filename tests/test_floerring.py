"""Tests for the Floer ring: both relation families, the recursion
solver, the sector presentation, and the deformation split."""

from fractions import Fraction
from math import comb, factorial

import pytest

from swfloer.errors import DomainError, VerificationFailure
from swfloer.extalg import (
    ExtClass,
    embed_bipoly,
    primitive_basis,
    theta_power,
    wedge,
)
from swfloer.floerring import (
    _taylor,
    alpha_of,
    build_oracle,
    deformation_components,
    presentation_dimension,
    presentation_quotient,
    recursion_free_check,
    recursion_unique,
    tilde_relation,
)
from swfloer.swpair import PairingQuotient, SphereParams
from swfloer.symprod import (
    BiPoly,
    betti_total,
    parse_bipoly,
    relation_R,
    render_bipoly,
    ring_oracle,
)

from helpers import weight_component, weyl_orbit_dimension

F = Fraction

SWEEP = [(g, r) for g in range(2, 6) for r in range(1, g)]


# -- closed-form relations -------------------------------------------------

def test_tilde_relation_examples():
    assert render_bipoly(tilde_relation(2, 1, 0)) == "e - e^2 - e*t - 1/2*t^2"
    assert (render_bipoly(tilde_relation(3, 1, 0))
            == "e - 1/3*t - e^2 - 2/3*e*t - 1/6*t^2")
    # top-order relation is the unit
    for g, r in SWEEP:
        d = g - 1 - r
        assert tilde_relation(g, r, d + 1) == BiPoly.unit()


def test_tilde_relation_domain_errors():
    with pytest.raises(DomainError):
        tilde_relation(3, 0, 0)
    with pytest.raises(DomainError):
        tilde_relation(3, 3, 0)
    with pytest.raises(DomainError):
        tilde_relation(3, 1, -1)
    with pytest.raises(DomainError):
        tilde_relation(3, 1, 3)  # d = 1, so k <= 2


def test_tilde_relation_negative_twist_matches_positive():
    for g in range(2, 6):
        for r in range(1, g):
            d = g - 1 - r
            for k in range(d + 2):
                assert tilde_relation(g, -r, k) == tilde_relation(g, r, k)


def test_tilde_index_shift():
    # the order-k relation is the order-zero relation of the
    # (g-k)-fold problem with the same twist
    for g, r in SWEEP:
        d = g - 1 - r
        for k in range(1, d + 1):
            assert tilde_relation(g, r, k) == tilde_relation(g - k, r, 0), (g, r, k)


def test_tilde_low_weight_part_is_untwisted_relation():
    # dropping the correction tail recovers the symmetric-product
    # relation: it is exactly the weight-alpha component
    for g, r in SWEEP:
        d = g - 1 - r
        for k in range(d + 1):
            a = alpha_of(d, k)
            t = tilde_relation(g, r, k)
            assert weight_component(t, a) == relation_R(g, d, k), (g, r, k)
            assert set(t.weights()) <= {a, a + r}, (g, r, k)


# -- recursion -------------------------------------------------------------

def test_seed_poly_matches_closed_form():
    # the m = 0 entries a_i0 are the coefficients of x^(g-i) in
    # (x-1)^(d-alpha+1) x^(g-d+alpha-1), expanded here as a product in e
    for g, r in SWEEP:
        d = g - 1 - r
        a = alpha_of(d, 0)
        n = d - a + 1
        want = BiPoly.eta(g - n)
        for _ in range(n):
            want = want * (BiPoly.eta() - BiPoly.unit())
        seed = {i: c for (i, m), c in recursion_unique(g, r).a_coeffs.items()
                if m == 0}
        assert seed == {g - e: c for (e, _), c in want.terms.items()}, (g, r)


def test_recursion_trivial_when_window_empty():
    # below genus 5 every step system is empty: the relation is just
    # the seed coefficients, no corrections
    for g, r in SWEEP:
        if (g, r) == (5, 1):
            continue
        rs = recursion_unique(g, r)
        assert all(m == 0 for (_, m) in rs.a_coeffs), (g, r)
        d = g - 1 - r
        a = alpha_of(d, 0)
        assert rs.recursion[0].weights() == [a], (g, r)


def test_recursion_coefficients_genus_five():
    rs = recursion_unique(5, 1)
    assert rs.a_coeffs == {(0, 0): F(1), (1, 0): F(-2), (2, 0): F(1),
                           (3, 1): F(-8)}
    assert render_bipoly(rs.recursion[0]) == "e^2 - 2/5*e*t + 1/20*t^2 - 2/15*t^3"


# Steps m >= 2 first occur at (7,1); each step's right-hand side sums over
# every earlier step, so these values pin that sum and not just step m-1.
LATER_STEPS = {
    (7, 1): ({(0, 0): 1, (1, 0): -3, (2, 0): 3, (3, 0): -1, (3, 1): -32,
              (4, 1): 16, (5, 2): -264},
             "e^3 - 3/7*e^2*t + 1/14*e*t^2 - 1/210*t^3 - 16/105*e*t^3"
             " + 2/105*t^4 - 11/105*t^5"),
    (9, 1): ({(0, 0): 1, (1, 0): -4, (2, 0): 6, (3, 0): -4, (3, 1): -80,
              (4, 0): 1, (4, 1): 80, (5, 1): -32, (5, 2): -1824,
              (6, 2): 1008, (7, 3): -20352},
             "e^4 - 4/9*e^3*t + 1/12*e^2*t^2 - 1/126*e*t^3 + 1/3024*t^4"
             " - 10/63*e^2*t^3 + 5/189*e*t^4 - 2/945*t^5 - 38/315*e*t^5"
             " + 1/60*t^6 - 106/945*t^7"),
    (11, 1): ({(0, 0): 1, (1, 0): -5, (2, 0): 10, (3, 0): -10, (3, 1): -160,
               (4, 0): 5, (4, 1): 240, (5, 0): -1, (5, 1): -192,
               (5, 2): -6992, (6, 1): 48, (6, 2): 7696, (7, 2): -3040,
               (7, 3): -215808, (8, 3): 123520, (9, 4): -2771072},
              "e^5 - 5/11*e^4*t + 1/11*e^3*t^2 - 1/99*e^2*t^3 + 1/1584*e*t^4"
              " - 1/55440*t^5 - 16/99*e^3*t^3 + 1/33*e^2*t^4 - 4/1155*e*t^5"
              " + 1/6930*t^6 - 437/3465*e^2*t^5 + 481/20790*e*t^6"
              " - 19/10395*t^7 - 2248/17325*e*t^7 + 193/10395*t^8"
              " - 21649/155925*t^9"),
    (12, 2): ({(0, 0): 1, (1, 0): -5, (2, 0): 10, (3, 0): -10, (4, 0): 5,
               (5, 0): -1, (5, 1): -672, (6, 1): 896, (7, 1): -352,
               (9, 2): -30048},
              "e^5 - 5/12*e^4*t + 5/66*e^3*t^2 - 1/132*e^2*t^3"
              " + 1/2376*e*t^4 - 1/95040*t^5 - 7/990*e^2*t^5 + 2/1485*e*t^6"
              " - 1/11340*t^7 - 313/831600*t^9"),
}


@pytest.mark.parametrize("g,r", sorted(LATER_STEPS))
def test_recursion_later_steps_pinned(g, r):
    coeffs, rendered = LATER_STEPS[(g, r)]
    rs = recursion_unique(g, r)
    assert rs.a_coeffs == coeffs
    assert render_bipoly(rs.recursion[0]) == rendered


def test_recursion_first_step_closed_form():
    # independent closed form for the first step:
    # a_i1 = sum_j (-1)^(j+1) (alpha+r)! / ((i-j)! j! (alpha+r-i)!) 2^(i-j).
    # (5, 1) has the one nonempty step in the sweep, a 1x1 system; below
    # genus 7 every step is 1x1, so the larger cases pin the square solve
    # on 2x2 and 3x3 systems.
    for g, r in ((5, 1), (7, 1), (8, 1), (9, 1)):
        d = g - 1 - r
        a = alpha_of(d, 0)
        rs = recursion_unique(g, r)
        lo, hi = 2 * a + 2 * r - d, a + r
        for i in range(lo, hi + 1):
            want = sum(F((-1) ** (j + 1) * factorial(a + r) * 2 ** (i - j),
                         factorial(i - j) * factorial(j) * factorial(a + r - i))
                       for j in range(i - lo + 1))
            assert rs.a_coeffs.get((i, 1), F(0)) == want, (g, r, i)


def test_recursion_free_check_sweep():
    # p_0(x+1) + p_1(x) = 0 holds at every (g, r); 435 cases to genus 30
    for g in range(2, 31):
        for r in range(1, g):
            assert recursion_free_check(g, r), (g, r)
            assert recursion_free_check(g, -r), (g, r)


def test_recursion_order_k_is_lower_genus_order_zero():
    for g, r in SWEEP:
        rs = recursion_unique(g, r)
        d = g - 1 - r
        for k in range(d + 1):
            assert rs.recursion[k] == recursion_unique(g - k, r).recursion[0]
        assert rs.recursion[d + 1] == BiPoly.unit()


def test_recursion_correction_weights():
    # the recursion relation differs from the untwisted one only in
    # weights alpha + m r with m >= 1
    for g, r in SWEEP:
        rs = recursion_unique(g, r)
        d = g - 1 - r
        for k in range(d + 1):
            a = alpha_of(d, k)
            diff = rs.recursion[k] - relation_R(g, d, k)
            for w in diff.weights():
                assert w > a and (w - a) % r == 0, (g, r, k, w)


def test_two_families_differ_at_genus_five():
    # the families agree at weight alpha but their correction tails are
    # genuinely different elements of the ideal
    rs = recursion_unique(5, 1)
    t = tilde_relation(5, 1, 0)
    assert rs.recursion[0] != t
    assert weight_component(rs.recursion[0], 2) == weight_component(t, 2)


# -- annihilation in the oracle --------------------------------------------

def _annihilates(ring: PairingQuotient, k: int, rel: BiPoly) -> bool:
    g = ring.g
    emb = embed_bipoly(g, rel)
    for w in primitive_basis(g, k):
        if not ring.is_in_radical(wedge(w, emb)):
            return False
    return True


@pytest.mark.parametrize("g,r", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)])
def test_relations_annihilate_small(g, r):
    ring = build_oracle(g, r)
    rs = recursion_unique(g, r)
    d = g - 1 - r
    for k in range(d + 1):
        assert _annihilates(ring, k, rs.tilde[k]), ("tilde", k)
        assert _annihilates(ring, k, rs.recursion[k]), ("recursion", k)
        theta_next = BiPoly.theta() * rs.tilde[k + 1]
        assert _annihilates(ring, k, theta_next), ("theta-tilde", k)


def test_relations_annihilate_genus_four_r_one():
    ring = build_oracle(4, 1)
    rs = recursion_unique(4, 1)
    for k in range(3):
        assert _annihilates(ring, k, rs.tilde[k])
        assert _annihilates(ring, k, rs.recursion[k])


def test_correction_tail_needed():
    # the untwisted relation alone does NOT die in the twisted ring.
    # Genus 5, twist 1 is the only desk-scale case where the tail lands
    # inside the pairing window (weight alpha + r <= d); in the smaller
    # cases the tail exceeds the top degree and is radical by itself,
    # so the bare relation dies there for a trivial reason.
    ring = build_oracle(5, 1)
    bare = relation_R(5, 3, 0)
    assert not _annihilates(ring, 0, bare)
    assert _annihilates(ring, 0, tilde_relation(5, 1, 0))
    ring31 = build_oracle(3, 1)
    assert _annihilates(ring31, 0, relation_R(3, 1, 0))


# -- sector presentation ---------------------------------------------------

def test_presentation_basis_examples():
    assert presentation_quotient(2, 1, 0).basis == [(0, 0)]
    assert presentation_quotient(3, 1, 0).basis == [(0, 0), (0, 1)]
    assert presentation_quotient(4, 1, 0).basis == [(0, 0), (1, 0), (0, 1),
                                                    (0, 2)]
    assert presentation_quotient(4, 1, 1).basis == [(0, 0), (0, 1)]
    assert presentation_quotient(4, 1, 2).basis == [(0, 0)]


def test_presentation_normal_form_examples():
    q = presentation_quotient(3, 1, 0)
    assert render_bipoly(q.normal_form(parse_bipoly("e"))) == "1/3*t"
    q41 = presentation_quotient(4, 1, 0)
    assert render_bipoly(q41.normal_form(parse_bipoly("e"))) == "e"
    assert render_bipoly(q41.normal_form(parse_bipoly("e^2"))) == "1/12*t^2"


def test_presentation_normal_form_kills_generators():
    for g, r in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        d = g - 1 - r
        for k in range(d + 1):
            q = presentation_quotient(g, r, k)
            rels = [tilde_relation(g, r, k),
                    BiPoly.theta() * tilde_relation(g, r, k + 1)]
            for rel in rels:
                assert q.normal_form(rel).is_zero(), (g, r, k)
                assert q.normal_form(BiPoly.eta() * rel).is_zero(), (g, r, k)


def test_presentation_normal_form_fixes_basis():
    for g, r in [(3, 1), (4, 1), (5, 2)]:
        d = g - 1 - r
        for k in range(d + 1):
            q = presentation_quotient(g, r, k)
            for (a, b) in q.basis:
                mono = BiPoly({(a, b): F(1)})
                assert q.normal_form(mono) == mono, (g, r, k, a, b)


def test_presentation_dimension_matches_betti():
    for g, r in SWEEP:
        d = g - 1 - r
        assert presentation_dimension(g, r) == betti_total(g, d), (g, r)


def test_presentation_domain_errors():
    with pytest.raises(DomainError):
        presentation_quotient(3, 3, 0)
    with pytest.raises(DomainError):
        presentation_quotient(3, 1, 5)
    with pytest.raises(DomainError):
        presentation_dimension(2, 2)


# -- oracle ring -----------------------------------------------------------

def test_oracle_dimensions():
    for g, r in SWEEP:
        ring = build_oracle(g, r)
        assert ring.dim == betti_total(g, ring.d), (g, r)
        assert ring.params.r == r


@pytest.mark.parametrize("r,dim", [(3, 592), (2, 2063)])
def test_genus_seven_dimension_by_weyl_orbits(r, dim):
    # four routes to one number: the quotient, the Betti numbers, the
    # presentation, and one pairing block per Weyl orbit of weights
    assert betti_total(7, 6 - r) == dim
    assert build_oracle(7, r).dim == dim
    assert presentation_dimension(7, r) == dim
    assert weyl_orbit_dimension(7, r) == dim


def test_oracle_negative_twist_same_ring():
    assert build_oracle(3, -2) is build_oracle(3, -2)
    assert build_oracle(3, -2).dim == build_oracle(3, 2).dim
    assert build_oracle(3, -2).params == SphereParams(3, 2)


def test_one_ring_and_one_sector_per_absolute_twist():
    # SphereParams folds the sign of r before either cache is read, so a
    # caller mixing signs builds each ring and each sector once
    for g, r in [(3, 1), (4, 2), (5, 1)]:
        assert build_oracle(g, -r) is build_oracle(g, r)
        for k in range(g - r):
            assert presentation_quotient(g, -r, k) is \
                presentation_quotient(g, r, k)


def test_product_top_degree_vanishes():
    ring = build_oracle(3, 1)
    x = ExtClass.x_power(3, 1)
    assert ring.nf_class(wedge(x, x)).is_zero()


def test_product_cross_route_eta():
    # nf(x) in the ring matches the sector answer eta -> t/3
    ring = build_oracle(3, 1)
    x = ExtClass.x_power(3, 1)
    theta = embed_bipoly(3, BiPoly.theta())
    assert ring.nf_class(x) == ring.nf_class(theta).scale(F(1, 3))


# -- deformation split -----------------------------------------------------

def test_deformation_unit():
    ring = build_oracle(2, 1)
    comps = deformation_components(ring, ExtClass.unit(2))
    assert comps == [ExtClass.unit(2)]


def test_deformation_base_is_cup_product():
    import random
    for g, r in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        ring = build_oracle(g, r)
        sym = ring_oracle(g, ring.d)
        rng = random.Random(20240612)
        for _ in range(60):
            f1 = ring.basis[rng.randrange(ring.dim)]
            f2 = ring.basis[rng.randrange(ring.dim)]
            z = wedge(f1, f2)
            comps = deformation_components(ring, z)
            cup = sym.nf_class(z)
            if comps:
                assert comps[0] == cup, (g, r)
            else:
                assert cup.is_zero(), (g, r)


def test_deformation_components_homogeneous_on_ladder():
    ring = build_oracle(4, 1)
    for i in range(ring.dim):
        for j in range(i, ring.dim):
            f1, f2 = ring.basis[i], ring.basis[j]
            base = f1.degree() + f2.degree()
            comps = deformation_components(ring, wedge(f1, f2))
            total = ExtClass.zero(4)
            for m, c in enumerate(comps):
                if not c.is_zero():
                    assert c.degree() == base + 2 * m
                total = total + c
            assert total == ring.nf_class(wedge(f1, f2))


def test_deformation_components_of_zero_and_mixed_classes():
    # a zero class has no degree and no ladder; a mixed one is no product
    # of homogeneous factors
    ring = build_oracle(3, 1)
    assert deformation_components(ring, ExtClass.zero(3)) == []
    with pytest.raises(DomainError):
        deformation_components(ring, ExtClass.unit(3)
                               + ExtClass.x_power(3, 1))


def test_deformation_rejects_off_ladder_component():
    class _Doctored(PairingQuotient):
        def nf_vector(self, z):
            vec = list(super().nf_vector(z))
            # inject a spurious odd-degree coefficient
            for idx, lab in enumerate(self.labels):
                if lab.degree == 1:
                    vec[idx] += F(1)
                    break
            return tuple(vec)

    ring = _Doctored(SphereParams(3, 1))
    with pytest.raises(VerificationFailure):
        deformation_components(ring, ExtClass.unit(3))


def test_deformation_trivial_below_genus_five():
    # for g <= 4 the product IS the cup product: every higher
    # component vanishes on all basis pairs
    for g, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        ring = build_oracle(g, r)
        for i in range(ring.dim):
            for j in range(i, ring.dim):
                comps = deformation_components(
                    ring, wedge(ring.basis[i], ring.basis[j]))
                assert all(c.is_zero() for c in comps[1:]), (g, r, i, j)


def test_deformation_witness_genus_five():
    # the single deformed basis product in the desk sweep: x.x at
    # (g, r) = (5, 1).  Phi_1 = 2/15 theta^3 is the same correction
    # the recursion produces as the trailing -2/15 t^3 term.
    ring = build_oracle(5, 1)
    x = ExtClass.x_power(5, 1)
    comps = deformation_components(ring, wedge(x, x))
    assert len(comps) == 2
    want0 = (wedge(x, theta_power(5, 1)).scale(F(2, 5))
             + theta_power(5, 2).scale(F(-1, 20)))
    assert comps[0] == want0
    assert comps[1] == theta_power(5, 3).scale(F(2, 15))


# -- Taylor coefficients --------------------------------------------------

def test_poly_shift_is_substitution():
    # p(x) = x^2 - 3x; the coefficients of p(x + c) are the Taylor
    # coefficients of p at c: (x+2)^2 - 3(x+2) = x^2 + x - 2
    p = [(2, 1), (1, -3)]

    def shifted(c):
        return [sum(a * _taylor(e, j, c) for e, a in p) for j in range(3)]

    assert shifted(2) == [-2, 1, 1]
    assert shifted(0) == [0, -3, 1]
    # past the degree the coefficient is an exact 0, not a float power
    assert _taylor(1, 2, 2) == 0 and type(_taylor(1, 2, 2)) is int
