from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError, GenusMismatch
from swfloer.extalg import (
    ExtClass,
    ExtMono,
    by_weight,
    embed_bipoly,
    epsilon,
    gamma_monomials,
    mono_weight,
    monomials_up_to,
    parse_class,
    parse_monomial,
    primitive_basis,
    render_class,
    render_mono,
    theta_class,
    theta_power,
    top_eval,
    wedge,
)
from swfloer.qlinalg import QMatrix, rref

from helpers import dense_primitive_basis, homogeneous_components, reference_wedge

F = Fraction


def gam(g, *idx):
    out = ExtClass.unit(g)
    for i in idx:
        out = wedge(out, ExtClass.gamma(g, i))
    return out


class TestWedge:
    def test_square_of_generator_vanishes(self):
        assert wedge(ExtClass.gamma(2, 1), ExtClass.gamma(2, 1)).is_zero()

    def test_anticommutes(self):
        a, b = ExtClass.gamma(2, 1), ExtClass.gamma(2, 3)
        assert wedge(a, b) == -wedge(b, a)

    def test_merge_sign_example(self):
        # g1 g4 ^ g2 g5 = -g1 g2 g4 g5
        lhs = wedge(gam(3, 1, 4), gam(3, 2, 5))
        assert lhs == ExtClass.monomial(3, ExtMono(0, (1, 2, 4, 5)), -1)

    def test_x_is_central(self):
        u = gam(2, 1, 2) + ExtClass.x_power(2, 1)
        x = ExtClass.x_power(2, 1)
        assert wedge(x, u) == wedge(u, x)

    def test_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            wedge(ExtClass.unit(2), ExtClass.unit(3))

    def test_theta_squared_expansion(self):
        # direct expansion oracle at g = 2
        t = theta_class(2)
        expected = 2 * wedge(gam(2, 1, 3), gam(2, 2, 4))
        assert wedge(t, t) == expected


class TestTheta:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_power_vanishes_past_g(self, g):
        assert theta_power(g, g + 1).is_zero()
        assert not theta_power(g, g).is_zero()

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_top_power_is_shuffled_volume(self, g):
        vol = ExtMono(0, tuple(range(1, 2 * g + 1)))
        tg = theta_power(g, g)
        assert set(tg.terms) == {vol}
        fact = 1
        for i in range(2, g + 1):
            fact *= i
        assert tg.terms[vol] == epsilon(g) * fact


class TestTopEval:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_volume_normalization(self, g):
        fact = 1
        for i in range(2, g + 1):
            fact *= i
        assert top_eval(theta_power(g, g)) == fact

    def test_unit_has_no_top_component(self):
        assert top_eval(ExtClass.unit(3)) == 0

    def test_primitive_pair_against_theta_square(self):
        # g = 3: g1 g4 ^ theta^2/2 evaluates to 1
        val = top_eval(wedge(gam(3, 1, 4), theta_power(3, 2)).scale(F(1, 2)))
        assert val == 1

    @pytest.mark.parametrize("g,k", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2)])
    def test_complementary_theta_powers(self, g, k):
        fact = 1
        for i in range(2, g + 1):
            fact *= i
        assert top_eval(wedge(theta_power(g, k), theta_power(g, g - k))) == fact


class TestMonomials:
    def test_count_genus2_degree2(self):
        # 1; four gammas; x plus six gamma pairs
        assert len(monomials_up_to(2, 2)) == 12

    def test_order_prefix_genus2(self):
        ms = monomials_up_to(2, 2)
        assert ms[0] == ExtMono(0, ())
        assert ms[1:5] == [ExtMono(0, (i,)) for i in (1, 2, 3, 4)]
        # degree 2 starts with x (x exponent descending), then gamma pairs lex
        assert ms[5] == ExtMono(1, ())
        assert ms[6] == ExtMono(0, (1, 2))

    def test_degrees_monotone(self):
        ms = monomials_up_to(3, 5)
        degs = [m.degree for m in ms]
        assert degs == sorted(degs)

    @pytest.mark.parametrize("g,maxdeg", [(2, 3), (3, 4), (5, 6)])
    def test_count_formula(self, g, maxdeg):
        n = 0
        for deg in range(maxdeg + 1):
            for xexp in range(deg // 2 + 1):
                gdeg = deg - 2 * xexp
                n += comb(2 * g, gdeg)
        assert len(monomials_up_to(g, maxdeg)) == n


class TestByWeight:
    def test_small_example(self):
        monos = [ExtMono(0, (1,)), ExtMono(1, ()), ExtMono(0, (1, 3))]
        assert by_weight(2, monos) == {(1, 0): [0], (0, 0): [1, 2]}
        assert list(by_weight(2, monos)) == [(1, 0), (0, 0)]

    @pytest.mark.parametrize("g,maxdeg", [(2, 4), (3, 4), (4, 3)])
    def test_partitions_by_weight_in_order_of_first_appearance(self, g, maxdeg):
        monos = monomials_up_to(g, maxdeg)[::-1]
        groups = by_weight(g, monos)
        assert list(groups) == list(dict.fromkeys(mono_weight(g, m) for m in monos))
        assert sorted(i for idx in groups.values() for i in idx) == \
            list(range(len(monos)))
        for w, idx in groups.items():
            assert idx == sorted(idx)
            assert {mono_weight(g, monos[i]) for i in idx} == {w}


class TestPrimitiveBasis:
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_dimensions(self, g):
        for k in range(g + 1):
            expect = comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)
            assert len(primitive_basis(g, k)) == expect

    def test_degree_one_is_all_generators(self):
        basis = primitive_basis(3, 1)
        assert list(basis) == [ExtClass.gamma(3, i) for i in range(1, 7)]

    def test_degree_zero_is_unit(self):
        assert list(primitive_basis(4, 0)) == [ExtClass.unit(4)]

    @pytest.mark.parametrize("g,k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_killed_by_complementary_theta_power(self, g, k):
        power = theta_power(g, g - k + 1)
        for w in primitive_basis(g, k):
            assert wedge(w, power).is_zero()

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            primitive_basis(3, 4)

    # every degree a command reads: k <= d = g - 1 - |r| <= 4 at genus 6
    @pytest.mark.parametrize("g,k", [(g, k) for g in range(1, 6)
                                     for k in range(g + 1)]
                             + [(6, k) for k in range(5)])
    def test_equals_the_assembled_kernel(self, g, k):
        assert primitive_basis(g, k) == dense_primitive_basis(g, k)

    @pytest.mark.parametrize("g,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_hard_lefschetz_bijection(self, g, k):
        # theta^(g-k) : Lambda^k -> Lambda^(2g-k) is bijective
        cols = gamma_monomials(g, k)
        rows = gamma_monomials(g, 2 * g - k)
        row_index = {t: i for i, t in enumerate(rows)}
        power = theta_power(g, g - k)
        mat = [[F(0)] * len(cols) for _ in rows]
        for j, t in enumerate(cols):
            img = wedge(ExtClass.monomial(g, ExtMono(0, t)), power)
            for m, c in img.terms.items():
                mat[row_index[m.gammas]][j] = c
        _, _, rank = rref(QMatrix(mat, ncols=len(cols)))
        assert rank == len(cols) == len(rows)


class TestEmbed:
    def test_eta_theta_map(self):
        p = {(1, 0): F(1), (0, 1): F(-1, 3)}
        got = embed_bipoly(3, p)
        assert got == ExtClass.x_power(3, 1) - theta_power(3, 1).scale(F(1, 3))

    def test_unit(self):
        assert embed_bipoly(2, {(0, 0): F(1)}) == ExtClass.unit(2)


class TestTextFormat:
    @pytest.mark.parametrize("text,xexp,gammas", [
        ("1", 0, ()),
        ("x", 1, ()),
        ("x^3", 3, ()),
        ("g1", 0, (1,)),
        ("x^2*g1*g5", 2, (1, 5)),
    ])
    def test_parse_plain_monomials(self, text, xexp, gammas):
        got = parse_monomial(3, text)
        assert got == ExtClass.monomial(3, ExtMono(xexp, gammas))

    def test_t_alias(self):
        assert parse_monomial(3, "t") == theta_class(3)
        assert parse_monomial(2, "x*t") == wedge(ExtClass.x_power(2, 1), theta_class(2))

    def test_gamma_order_enforced(self):
        with pytest.raises(DomainError):
            parse_monomial(3, "g5*g1")
        with pytest.raises(DomainError):
            parse_monomial(3, "g2*g2")

    def test_gamma_range_enforced(self):
        with pytest.raises(DomainError):
            parse_monomial(2, "g5")

    def test_parse_class_sums(self):
        got = parse_class(3, "3/2*x^2*g1*g5 - t + 1")
        expect = (ExtClass.monomial(3, ExtMono(2, (1, 5)), F(3, 2))
                  - theta_class(3) + ExtClass.unit(3))
        assert got == expect

    def test_render_parse_roundtrip(self):
        u = (ExtClass.monomial(4, ExtMono(1, (2, 7)), F(-5, 3))
             + ExtClass.unit(4).scale(2)
             + ExtClass.monomial(4, ExtMono(0, (1,))))
        assert parse_class(4, render_class(u)) == u

    def test_render_mono_examples(self):
        assert render_mono(ExtMono(0, ())) == "1"
        assert render_mono(ExtMono(2, (1, 5))) == "x^2*g1*g5"

    def test_render_zero(self):
        assert render_class(ExtClass.zero(2)) == "0"


@st.composite
def small_classes(draw, g=2, max_terms=3):
    monos = monomials_up_to(g, 3)
    idxs = draw(st.lists(st.integers(0, len(monos) - 1), min_size=1, max_size=max_terms))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(idxs), max_size=len(idxs)))
    out = ExtClass.zero(g)
    for i, c in zip(idxs, coeffs):
        out = out + ExtClass.monomial(g, monos[i], c)
    return out


class TestAlgebraProperties:
    @given(small_classes(), small_classes(), small_classes())
    @settings(max_examples=50, deadline=None)
    def test_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @given(small_classes(), small_classes(), small_classes())
    @settings(max_examples=50, deadline=None)
    def test_distributive(self, a, b, c):
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)

    @given(small_classes(), small_classes())
    @settings(max_examples=50, deadline=None)
    def test_graded_commutative(self, a, b):
        for da, ca in homogeneous_components(a).items():
            for db, cb in homogeneous_components(b).items():
                sign = -1 if (da % 2) and (db % 2) else 1
                assert wedge(ca, cb) == wedge(cb, ca).scale(sign)


@st.composite
def class_pairs(draw):
    """Two classes at one genus in 2..5, with gamma sets of at most four
    generators, so that they are often empty and often overlap."""
    g = draw(st.integers(2, 5))
    gammas = st.sets(st.integers(1, 2 * g), max_size=4).map(
        lambda s: tuple(sorted(s)))
    terms = st.lists(st.tuples(st.builds(ExtMono, st.integers(0, 2), gammas),
                               st.fractions(-3, 3, max_denominator=4)),
                     max_size=6)
    return ExtClass(g, draw(terms)), ExtClass(g, draw(terms))


@given(class_pairs())
@settings(max_examples=100, deadline=None)
def test_wedge_matches_the_inversion_count_reference(uv):
    u, v = uv
    w = wedge(u, v)
    assert w == reference_wedge(u, v)
    # stored as the constructor would: no zero, an integral value as int
    assert all(c and (type(c) is int or c.denominator > 1)
               for c in w.terms.values())
