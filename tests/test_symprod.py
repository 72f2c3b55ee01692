"""Tests for symmetric-product cohomology: Betti numbers, relations,
sector normal forms, and the pairing oracle."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError
from swfloer.extalg import embed_bipoly, parse_class, wedge
from swfloer.qlinalg import invert
from swfloer.symprod import (
    BiPoly,
    alpha_of,
    betti,
    betti_total,
    parse_bipoly,
    relation_R,
    render_bipoly,
    ring_oracle,
    sector_normal_form,
    sector_quotient,
)

F = Fraction


# -- Betti numbers ---------------------------------------------------------

def test_betti_examples():
    assert betti(2, 0) == [1]
    assert betti(5, 0) == [1]
    assert betti(2, 1) == [1, 4, 1]
    assert betti(4, 2) == [1, 8, 29, 8, 1]
    assert betti(5, 3) == [1, 10, 46, 130, 46, 10, 1]
    assert betti_total(4, 2) == 47
    assert betti_total(5, 3) == 244


def test_betti_poincare_symmetry():
    for g in range(2, 6):
        for d in range(g):
            b = betti(g, d)
            assert b == b[::-1], (g, d)


def test_betti_binomial_sum_up_to_middle():
    # for i <= d the count is C(2g,i) + C(2g,i-2) + ...
    for g in range(2, 6):
        for d in range(g):
            b = betti(g, d)
            for i in range(d + 1):
                want = sum(comb(2 * g, j) for j in range(i, -1, -2))
                assert b[i] == want, (g, d, i)


def test_betti_domain_errors():
    with pytest.raises(DomainError):
        betti(2, 2)
    with pytest.raises(DomainError):
        betti(3, -1)
    with pytest.raises(DomainError):
        betti(1, 0)


# -- relation polynomials --------------------------------------------------

def test_relation_examples():
    assert relation_R(3, 1, 2) == BiPoly.unit()  # k = d+1
    assert relation_R(3, 1, 0) == parse_bipoly("e - 1/3*t")
    assert relation_R(4, 2, 1) == parse_bipoly("e - 1/3*t")
    assert relation_R(2, 1, 0) == parse_bipoly("e - 1/2*t")
    assert relation_R(3, 2, 2) == parse_bipoly("e")


def test_relation_leading_term_is_eta_to_alpha():
    for g in range(2, 6):
        for d in range(g):
            for k in range(d + 1):
                a = alpha_of(d, k)
                R = relation_R(g, d, k)
                assert R.coefficient(a, 0) == 1, (g, d, k)
                assert all(x + y <= a for (x, y) in R.terms), (g, d, k)


def test_relation_domain_errors():
    with pytest.raises(DomainError):
        relation_R(3, 1, 3)
    with pytest.raises(DomainError):
        relation_R(3, 1, -1)
    with pytest.raises(DomainError):
        relation_R(3, 3, 0)


# -- sector normal forms ---------------------------------------------------

def test_sector_nf_fixes_basis_monomials():
    for (g, d) in ((2, 1), (3, 1), (3, 2), (4, 2)):
        for k in range(d + 1):
            for (a, b) in sector_quotient(g, d, k).basis:
                p = BiPoly.monomial(a, b)
                assert sector_normal_form(g, d, k, p) == p, (g, d, k, a, b)


def test_sector_nf_examples():
    assert sector_normal_form(3, 1, 0, BiPoly.eta()) == parse_bipoly("1/3*t")
    # weight above d - k dies
    assert sector_normal_form(3, 1, 0, BiPoly.monomial(2, 1)).is_zero()
    assert sector_normal_form(4, 2, 1, BiPoly.monomial(0, 2)).is_zero()


def _generators(g, d, k):
    return relation_R(g, d, k), BiPoly.theta(1) * relation_R(g, d, k + 1)


def test_sector_nf_kills_ideal_generators():
    for (g, d) in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)):
        for k in range(d + 1):
            Rk, tRk1 = _generators(g, d, k)
            assert sector_normal_form(g, d, k, Rk).is_zero(), (g, d, k)
            assert sector_normal_form(g, d, k, tRk1).is_zero(), (g, d, k)
            assert sector_normal_form(g, d, k, BiPoly.theta(g - k + 1)).is_zero(), \
                (g, d, k)


def test_sector_nf_kills_ideal_multiples():
    for k in (0, 1):
        Rk, tRk1 = _generators(4, 2, k)
        for mult in (BiPoly.eta(), BiPoly.theta(1), BiPoly.monomial(1, 1)):
            assert sector_normal_form(4, 2, k, Rk * mult).is_zero()
            assert sector_normal_form(4, 2, k, tRk1 * mult).is_zero()


def test_sector_nf_linear():
    quo = sector_quotient(3, 2, 0)
    p = parse_bipoly("e^2 - t")
    q = parse_bipoly("3*e*t + 1/2*t^2")
    lhs = quo.normal_form(p + q.scale(F(5, 3)))
    rhs = quo.normal_form(p) + quo.normal_form(q).scale(F(5, 3))
    assert lhs == rhs


def test_presentation_dimension_invariant_full_range():
    # construction verifies weighted sector sizes against the Betti total
    for g in range(2, 6):
        for d in range(g):
            for k in range(d + 1):
                sector_quotient(g, d, k)


def test_presentation_domain_errors():
    with pytest.raises(DomainError):
        sector_quotient(3, 3, 0)
    with pytest.raises(DomainError):
        sector_normal_form(3, 1, 2, BiPoly.unit())


# -- ring oracle -----------------------------------------------------------

def test_oracle_dimensions_match_betti():
    for (g, d) in ((2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 3)):
        Q = ring_oracle(g, d)
        assert Q.dim == betti_total(g, d), (g, d)
        assert Q.dims_by_degree() == betti(g, d), (g, d)


def test_oracle_unavailable_at_top_d():
    with pytest.raises(DomainError):
        ring_oracle(3, 2)
    with pytest.raises(DomainError):
        ring_oracle(2, 1)


def test_oracle_product_graded_commutative_and_associative():
    Q = ring_oracle(3, 1)
    b = Q.basis
    degs = Q.basis_degrees()
    for i, u in enumerate(b):
        for j, v in enumerate(b):
            uv = Q.nf_class(wedge(u, v))
            vu = Q.nf_class(wedge(v, u))
            sign = (-1) ** (degs[i] * degs[j])
            assert uv == (vu if sign == 1 else vu.scale(F(-1)))
    for u in b:
        for v in b:
            uv = Q.nf_class(wedge(u, v))
            for w in b:
                assert Q.nf_class(wedge(uv, w)) == \
                    Q.nf_class(wedge(u, Q.nf_class(wedge(v, w))))


def test_oracle_gram_blocks_invertible():
    # construction inverts every antidiagonal block; the full matrix is
    # block antidiagonal here because only one level contributes
    Q = ring_oracle(4, 2)
    G = Q.gram
    invert(G)
    degs = Q.basis_degrees()
    for i in range(Q.dim):
        for j in range(Q.dim):
            if degs[i] + degs[j] != 2 * Q.d:
                assert G[(i, j)] == 0


def test_oracle_matches_sector_route_on_even_part():
    # eta embeds as x; at (3,1) both routes send it to theta/3
    Q = ring_oracle(3, 1)
    nf = Q.nf_class(embed_bipoly(3, BiPoly.eta()))
    assert nf == parse_class(3, "1/3*t")
    sect = sector_normal_form(3, 1, 0, BiPoly.eta())
    assert embed_bipoly(3, sect) == parse_class(3, "1/3*t")


# -- BiPoly text form ------------------------------------------------------

def test_bipoly_render_examples():
    assert render_bipoly(BiPoly.zero()) == "0"
    assert render_bipoly(BiPoly.unit()) == "1"
    assert render_bipoly(relation_R(3, 1, 0)) == "e - 1/3*t"
    assert render_bipoly(parse_bipoly("t^2*e")) == "e*t^2"
    assert render_bipoly(BiPoly.monomial(2, 0, F(-3, 4))) == "-3/4*e^2"


def test_bipoly_parse_errors():
    for bad in ("", "e +", "x", "e^", "2//3*e"):
        with pytest.raises(DomainError):
            parse_bipoly(bad)


def bipolys():
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4).filter(lambda q: q != 0)
    expo = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.dictionaries(expo, coeff, max_size=5).map(BiPoly)


class TestBiPolyProperties:
    @settings(max_examples=80, deadline=None)
    @given(bipolys())
    def test_render_parse_roundtrip(self, p):
        assert parse_bipoly(render_bipoly(p)) == p

    @settings(max_examples=60, deadline=None)
    @given(bipolys(), bipolys(), bipolys())
    def test_ring_axioms(self, p, q, r):
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
