"""Tests for the sphere invariants, the pairing, and the quotient engine."""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfloer.cli import SWEEP
from swfloer.errors import DomainError, VerificationFailure
from swfloer.extalg import (
    ExtClass,
    ExtMono,
    gamma_monomials,
    mono_weight,
    monomials_up_to,
    parse_class,
    parse_monomial,
    theta_power,
    top_eval,
    wedge,
)
from swfloer.qlinalg import QMatrix, invert, kernel_basis
from swfloer import floerring, swpair
from swfloer.swpair import (
    PairingQuotient,
    SphereParams,
    class_pair,
    contributing_level,
    mono_pair,
    monos_of_degree,
    weight_ranks,
)
from swfloer.symprod import ring_oracle

from helpers import dense_gram, radical_elements, sw_sphere

F = Fraction


@lru_cache(maxsize=None)
def quotient(g, r):
    return PairingQuotient(SphereParams(g, r))


def cls(g, text):
    return parse_class(g, text)


# -- parameters and levels -------------------------------------------------

def test_params_validation():
    p = SphereParams(5, 2)
    assert p.d == 2 and p.N == 4
    assert SphereParams(3, -2).d == 0
    with pytest.raises(DomainError):
        SphereParams(1, 1)
    with pytest.raises(DomainError):
        SphereParams(3, 0)
    with pytest.raises(DomainError):
        SphereParams(3, 3)


def test_contributing_level_examples():
    p31 = SphereParams(3, 1)
    assert contributing_level(p31, 0) == -2
    assert contributing_level(p31, 2) == -1
    assert contributing_level(p31, 4) is None  # would need n = 0
    assert contributing_level(p31, 3) is None  # odd
    p52 = SphereParams(5, 2)
    assert contributing_level(p52, 0) == -2
    assert contributing_level(p52, 4) == -1
    assert contributing_level(p52, 2) is None  # n = -3/2 is not integral
    # at most one level fits a given total degree, by construction
    p41 = SphereParams(4, 1)
    assert [contributing_level(p41, t) for t in (0, 2, 4, 6)] == [-3, -2, -1, None]


def test_params_fold_the_sign_of_the_twist():
    # V_-r is V_r: SphereParams stores |r|, so every function of the
    # params gives the |r| values at -r
    nonzero = 0
    for g, r in SWEEP:
        plus, minus = SphereParams(g, r), SphereParams(g, -r)
        assert minus == plus and minus.r == r, (g, r)
        rng = random.Random(100 * g + r)
        # sums of x^a theta^b and single gammas pair to nonzero values far
        # more often than sums of random monomials do
        pool = [wedge(ExtClass.x_power(g, a), theta_power(g, b))
                for a in range(g) for b in range(g - a)]
        pool += [ExtClass.gamma(g, i) for i in range(1, 2 * g + 1)]
        for _ in range(20):
            z1, z2 = (sum((rng.choice(pool).scale(F(rng.randint(-3, 3), rng.randint(1, 3)))
                           for _ in range(3)), ExtClass.zero(g))
                      for _ in range(2))
            for n_filter in (None, -1):
                value = class_pair(plus, z1, z2, n_filter)
                assert class_pair(minus, z1, z2, n_filter) == value, (g, r)
                nonzero += bool(value)
            for m1 in z1.terms:
                for m2 in z2.terms:
                    assert mono_pair(minus, m1, m2) == mono_pair(plus, m1, m2)
            z = wedge(z1, z2)
            for n in range(-g, 1):
                assert sw_sphere(minus, n, z) == sw_sphere(plus, n, z), (g, r, n)
        for total in range(4 * g + 1):
            assert contributing_level(minus, total) == \
                contributing_level(plus, total), (g, r, total)
    assert nonzero >= 40  # not vacuous: 42 of the 400 pairings are nonzero


# -- invariant values ------------------------------------------------------

def test_sw_pure_x_theta_family():
    # closed family: sw at level n of x^a theta^b with a + b = rn + g - 1
    # equals g!/(g-b)! (-n)^(g-b)
    for g in range(2, 6):
        for r in range(1, g):
            p = SphereParams(g, r)
            for n in (-1, -2, -3):
                D = r * n + g - 1
                if D < 0:
                    continue
                for b in range(0, min(D, g) + 1):
                    a = D - b
                    z = wedge(ExtClass.x_power(g, a), theta_power(g, b))
                    want = F(factorial(g), factorial(g - b)) * (-n) ** (g - b)
                    assert sw_sphere(p, n, z) == want, (g, r, n, a, b)


def test_sw_paired_gamma_insertion_family():
    # k disjoint pairs gamma_i gamma_{g+i} wedged onto x^a theta^b,
    # a + b + k = rn + g - 1, gives (g-k)!/(g-k-b)! (-n)^(g-k-b)
    for g in (4, 5):
        p = SphereParams(g, 1)
        for n in (-1, -2):
            D = n + g - 1
            for k in (1, 2):
                pairs = ExtClass.unit(g)
                for i in range(1, k + 1):
                    pairs = wedge(pairs, cls(g, f"g{i}*g{g + i}"))
                for b in range(0, g - k + 1):
                    a = D - b - k
                    if a < 0:
                        continue
                    z = wedge(wedge(ExtClass.x_power(g, a), theta_power(g, b)), pairs)
                    want = F(factorial(g - k), factorial(g - k - b)) * (-n) ** (g - k - b)
                    assert sw_sphere(p, n, z) == want, (g, n, k, a, b)


def test_sw_frozen_spot_values():
    # frozen from hand evaluation of the closed families at g=5, r=1, n=-2
    p = SphereParams(5, 1)
    assert sw_sphere(p, -2, cls(5, "x^2")) == 32
    assert sw_sphere(p, -2, wedge(cls(5, "x"), theta_power(5, 1))) == 80
    assert sw_sphere(p, -2, theta_power(5, 2)) == 160
    assert sw_sphere(p, -2, cls(5, "x*g1*g6")) == 16


def test_sw_zero_outside_window():
    p = SphereParams(3, 1)
    assert sw_sphere(p, -1, cls(3, "x^2")) == 0  # degree 4, window wants 2
    assert sw_sphere(p, 0, cls(3, "x")) == 0  # level must be negative
    assert sw_sphere(p, 5, cls(3, "x")) == 0
    assert sw_sphere(p, -3, cls(3, "1")) == 0  # D = -1 < 0
    with pytest.raises(DomainError):
        sw_sphere(p, -1, cls(4, "x"))


def test_sw_vanishes_on_noncompletable_gamma_monomials():
    # a gamma monomial evaluates to zero unless theta powers can fill its
    # complement with index pairs (i, g+i); exhaustive at g <= 3
    for g in (2, 3):
        p = SphereParams(g, 1)
        for m in monomials_up_to(g, 2 * g):
            s = set(m.gammas)
            completable = all((i in s) == (g + i in s) for i in range(1, g + 1))
            if completable:
                continue
            z = ExtClass.monomial(g, m)
            for n in (-1, -2, -3):
                assert sw_sphere(p, n, z) == 0, (g, n, m)


def test_gamma_eval_closed_form_is_the_wedge_definition():
    # every gamma set W, odd ones included, at g = 2..6 (21,824 values):
    # top_eval(g_W ^ theta^j) (-n)^j / j! with j = g - |W|/2, zero for odd
    # |W|; genus 6 lies beyond verify --all
    count = 0
    for g in range(2, 7):
        for size in range(2 * g + 1):
            j, odd = divmod(2 * g - size, 2)
            for W in gamma_monomials(g, size):
                base = 0 if odd else top_eval(wedge(
                    ExtClass.monomial(g, ExtMono(0, W)), theta_power(g, j)))
                for n in (-1, -2, -3, -5):
                    want = F(base * (-n) ** j, factorial(j))
                    assert swpair._gamma_eval(g, W, n) == want, (g, W, n)
                    count += 1
    assert count == 21824


# -- the pairing -----------------------------------------------------------

def test_pair_examples():
    assert class_pair(SphereParams(2, 1), cls(2, "1"), cls(2, "1")) == 1
    assert class_pair(SphereParams(3, 1), cls(3, "1"), cls(3, "x")) == 1
    assert class_pair(SphereParams(3, 1), cls(3, "x"), cls(3, "x")) == 0
    assert class_pair(SphereParams(4, 2), cls(4, "1"), cls(4, "1")) == 0
    # level -2 contributes 2^3 on the unit pair one genus up
    assert class_pair(SphereParams(3, 1), cls(3, "1"), cls(3, "1")) == 8


def test_class_pair_rejects_genus_mismatch():
    for z1, z2 in ((cls(3, "1"), cls(2, "1")), (cls(2, "1"), cls(3, "x"))):
        with pytest.raises(DomainError):
            class_pair(SphereParams(2, 1), z1, z2)


def test_pair_grading_mod_two_r():
    # pair vanishes unless deg z1 + deg z2 = 2d mod 2|r|
    for (g, r) in ((3, 1), (4, 2)):
        p = SphereParams(g, r)
        monos = monomials_up_to(g, 2 * p.d)
        for m1 in monos:
            for m2 in monos:
                if (m1.degree + m2.degree - 2 * p.d) % (2 * r) != 0:
                    assert mono_pair(p, m1, m2) == 0, (g, r, m1, m2)


def test_pair_graded_symmetry():
    p = SphereParams(3, 1)
    monos = monomials_up_to(3, 2)
    for m1 in monos:
        for m2 in monos:
            lhs = mono_pair(p, m1, m2)
            rhs = mono_pair(p, m2, m1)
            sign = (-1) ** (m1.degree * m2.degree)
            assert lhs == sign * rhs, (m1, m2)


def test_pair_top_degree_is_level_minus_one():
    for (g, r) in ((3, 1), (4, 2)):
        p = SphereParams(g, r)
        monos = monomials_up_to(g, 2 * p.d)
        for m1 in monos:
            for m2 in monos:
                if m1.degree + m2.degree != 2 * p.d:
                    continue
                z1 = ExtClass.monomial(g, m1)
                z2 = ExtClass.monomial(g, m2)
                assert class_pair(p, z1, z2) == sw_sphere(p, -1, wedge(z1, z2))


# -- gram ------------------------------------------------------------------

def test_gram_on_unit_basis():
    m = PairingQuotient(SphereParams(2, 1)).gram
    assert m == QMatrix([[F(1)]])


def test_gram_canonical_basis_antitriangular_and_invertible():
    Q = quotient(3, 1)
    m = Q.gram
    for i, Li in enumerate(Q.labels):
        for j, Lj in enumerate(Q.labels):
            if Li.degree + Lj.degree > 2:
                assert m[(i, j)] == 0
    invert(m)  # raises SingularMatrix if the form were degenerate


# -- the radical: the annihilator of the pairing ---------------------------

BETTI_TOTALS = {
    (2, 1): 1, (3, 1): 8, (3, 2): 1,
    (4, 1): 47, (4, 2): 10, (4, 3): 1,
    (5, 1): 244, (5, 2): 68, (5, 3): 12, (5, 4): 1,
}


def test_annihilator_codim_matches_betti():
    for (g, r) in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        Q = quotient(g, r)
        codim = len(Q.monos) - len(radical_elements(Q))
        assert codim == BETTI_TOTALS[(g, r)], (g, r)


def test_annihilator_folds_negative_level():
    # the pairing depends on |r| only, as in PairingQuotient and build_oracle
    for (g, r) in ((3, 1), (4, 1), (4, 2)):
        Q = PairingQuotient(SphereParams(g, -r))
        radical = radical_elements(Q)
        assert len(Q.monos) - len(radical) == BETTI_TOTALS[(g, r)], (g, -r)
        assert radical == radical_elements(quotient(g, r)), (g, -r)


def test_annihilator_elements_annihilate():
    for (g, r) in ((3, 1), (4, 2)):
        Q = quotient(g, r)
        monos = [ExtClass.monomial(g, m) for m in Q.monos]
        for z in radical_elements(Q):
            assert all(class_pair(Q.params, z, m) == 0 for m in monos)


def test_annihilator_degree_zero_and_one_empty_at_g3():
    Q = quotient(3, 1)
    assert Q.radical_vectors(0) == [] and Q.radical_vectors(1) == []


def test_annihilator_everything_above_degree_zero_at_g2():
    # d = 0: the quotient is one-dimensional, every positive degree dies
    p = SphereParams(2, 1)
    monos = monomials_up_to(2, 3)
    for m in monos:
        if m.degree >= 1:
            assert all(mono_pair(p, m, m2) == 0 for m2 in monos), m


def test_annihilator_contains_x_to_d_plus_one():
    for (g, r) in ((2, 1), (3, 1), (4, 2)):
        p = SphereParams(g, r)
        xtop = ExtClass.x_power(g, p.d + 1)
        for m in monomials_up_to(g, 2 * p.d):
            assert class_pair(p, xtop, ExtClass.monomial(g, m)) == 0, (g, r, m)


def test_relation_with_correction_annihilates_at_g3():
    # degree-2 head and degree-4 correction both die against everything
    z = cls(3, "x - 1/3*t - x^2 - 2/3*x*t - 1/6*t^2")
    Q = quotient(3, 1)
    assert Q.is_in_radical(z)
    assert not Q.is_in_radical(cls(3, "x"))


# -- the radical is not graded in general ----------------------------------

def test_radical_mixes_degrees_at_genus_five():
    # this homogeneous degree-4 class kills every level -1 pairing but
    # survives at level -2, so the radical has no basis of homogeneous
    # elements and per-degree kernel counts overshoot by one
    p = SphereParams(5, 1)
    z = cls(5, "-x^2 + x*g1*g6 + x*g2*g7 + g1*g2*g6*g7")
    for m in monos_of_degree(5, 2):
        assert class_pair(p, z, ExtClass.monomial(5, m)) == 0
    assert class_pair(p, z, cls(5, "1")) == -8
    Q = quotient(5, 1)
    assert not Q.is_in_radical(z)
    mixed = Q.mixed_radical_elements()
    assert len(mixed) == 1
    corr = mixed[0]
    assert sorted(corr.degrees()) == [4, 6]
    monos = [ExtClass.monomial(5, m) for m in monomials_up_to(5, 2 * p.d)]
    assert all(class_pair(p, corr, m) == 0 for m in monos)
    assert Q.nf_class(corr).is_zero()


@pytest.mark.parametrize("g, r", [(4, 1), (5, 2)])
def test_radical_vectors_match_dense_kernel(g, r):
    # reference without weight blocks: every monomial of degree <= 2d
    # is a row of the degree-q pairing matrix
    Q = quotient(g, r)
    rows = monomials_up_to(g, 2 * Q.d)
    for q in range(2 * Q.d + 1):
        cols = monos_of_degree(g, q)
        m = QMatrix([[mono_pair(Q.params, c, m2) for c in cols] for m2 in rows],
                    ncols=len(cols))
        assert Q.radical_vectors(q) == kernel_basis(m), (g, r, q)


def test_no_mixed_corrections_below_genus_five():
    for (g, r) in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        assert quotient(g, r).mixed_radical_elements() == []


# -- the build certificate -------------------------------------------------

@pytest.mark.parametrize("n_filter", [None, -1])
@pytest.mark.parametrize("g, r", [(g, r) for g in range(2, 6)
                                  for r in range(1, g)])
def test_weight_ranks_sum_to_the_radical_codimension(g, r, n_filter):
    # the per-weight ranks the build certifies against the old global
    # count: len(monos) - radical_dim, read from the lazily built radical
    Q = quotient(g, r) if n_filter is None else ring_oracle(g, g - 1 - r)
    ranks = weight_ranks(Q.params, n_filter)
    radical_dim = sum(len(Q.radical_vectors(q)) for q in range(2 * Q.d + 1)) \
        + len(Q.mixed_radical_elements())
    assert sum(ranks.values()) == len(Q.monos) - radical_dim == Q.dim
    assert sorted(ranks) == sorted({mono_weight(g, m) for m in Q.monos})


def test_dropping_a_basis_element_fails_the_rank_certificate(monkeypatch):
    labels = swpair.canonical_labels(3, 1)
    dropped = swpair.label_element(3, labels[1])
    (weight,) = {mono_weight(3, m) for m in dropped.terms}
    monkeypatch.setattr(swpair, "canonical_labels",
                        lambda g, d: labels[:1] + labels[2:])
    with pytest.raises(VerificationFailure) as err:
        PairingQuotient(SphereParams(3, 1))
    assert str(err.value) == (f"weight {weight}: 0 basis elements against a "
                              f"pairing of rank 1 at (g,r)=(3,1)")


# -- quotient engine -------------------------------------------------------

DIMS_BY_DEGREE = {
    (2, 1): [1],
    (3, 1): [1, 6, 1],
    (3, 2): [1],
    (4, 1): [1, 8, 29, 8, 1],
    (4, 2): [1, 8, 1],
    (4, 3): [1],
    (5, 1): [1, 10, 46, 130, 46, 10, 1],
    (5, 2): [1, 10, 46, 10, 1],
    (5, 3): [1, 10, 1],
    (5, 4): [1],
}


def test_quotient_dimensions_full_sweep():
    for (g, r), dims in DIMS_BY_DEGREE.items():
        Q = quotient(g, r)
        assert Q.dim == BETTI_TOTALS[(g, r)], (g, r)
        assert Q.dims_by_degree() == dims, (g, r)


def test_quotient_negative_r_normalizes():
    Q = PairingQuotient(SphereParams(3, -1))
    assert Q.params.r == 1
    assert Q.dim == 8


def test_nf_fixes_basis_elements():
    Q = quotient(3, 1)
    for i, e in enumerate(Q.basis):
        vec = Q.nf_vector(e)
        assert all(c == (1 if j == i else 0) for j, c in enumerate(vec))


def test_nf_kills_radical_elements():
    for (g, r) in ((3, 1), (4, 2)):
        Q = quotient(g, r)
        for z in radical_elements(Q):
            assert Q.nf_class(z).is_zero(), (g, r)


def test_nf_kills_radical_sample_at_genus_five():
    import random

    Q = quotient(5, 1)
    rad = radical_elements(Q)
    rng = random.Random(20240612)
    for z in rng.sample(rad, 25):
        assert Q.nf_class(z).is_zero()


def test_nf_of_x_is_theta_over_three_at_g3():
    Q = quotient(3, 1)
    assert Q.nf_class(cls(3, "x")) == cls(3, "1/3*t")


def test_nf_zero_beyond_top_degree():
    Q = quotient(2, 1)
    assert Q.nf_class(cls(2, "x")).is_zero()
    assert Q.nf_class(cls(2, "g1*g3")).is_zero()


def test_product_unit_is_identity():
    for (g, r) in ((3, 1), (4, 2)):
        Q = quotient(g, r)
        one = ExtClass.unit(g)
        for e in Q.basis:
            assert Q.nf_class(wedge(one, e)) == Q.nf_class(e)


def test_product_associative_exhaustive_at_g3():
    Q = quotient(3, 1)
    b = Q.basis
    for u in b:
        for v in b:
            uv = Q.nf_class(wedge(u, v))
            for w in b:
                assert Q.nf_class(wedge(uv, w)) == \
                    Q.nf_class(wedge(u, Q.nf_class(wedge(v, w))))


def test_structure_constants_match_products():
    # the product coefficients solve the Gram system of the direct table:
    # sum_k c_k pair(e_k, e_l) = pair(e_i e_j, e_l) for every l
    Q = quotient(4, 1)
    G = dense_gram(Q)
    for i in (0, 3, 9):
        for j in (0, 5):
            prod = wedge(Q.basis[i], Q.basis[j])
            vec = Q.nf_vector(prod)
            for l in range(Q.dim):
                assert sum(c * G[k, l] for k, c in enumerate(vec) if c) \
                    == class_pair(Q.params, prod, Q.basis[l]), (i, j, l)


def test_gram_vanishes_off_weight_blocks():
    # checked against the dense table, which is computed without weights
    for g, r in DIMS_BY_DEGREE:
        Q = quotient(g, r)
        wts = []
        for e in Q.basis:
            weights = {mono_weight(g, m) for m in e.terms}
            assert len(weights) == 1, (g, r, e)
            wts.append(weights.pop())
        G = dense_gram(Q)
        for i in range(Q.dim):
            for j in range(Q.dim):
                if G[i, j]:
                    assert wts[i] == tuple(-w for w in wts[j]), (g, r, i, j)


def test_gram_equals_dense_table():
    # the Gram matrix is assembled from the weight blocks; every entry,
    # zeros included, must be the pairing itself, for both pairings
    for g, r in DIMS_BY_DEGREE:
        for Q in (quotient(g, r), ring_oracle(g, g - 1 - r)):
            assert Q.gram == dense_gram(Q), (g, r, Q.n_filter)


def test_pair_vectors_is_class_pair_of_the_classes():
    rng = random.Random(14)

    def sparse_vector(n):
        return [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4
                else F(0) for _ in range(n)]

    for g, r in [(3, 1), (4, 1), (5, 2)]:
        Q = quotient(g, r)
        inv = Q.inverse_gram()
        for _ in range(10):
            u, v = sparse_vector(Q.dim), sparse_vector(Q.dim)
            assert Q.pair_vectors(u, v) == class_pair(
                Q.params, Q.element_from_vector(u), Q.element_from_vector(v))
            assert Q.pair_vectors(u, v, inverse=True) == sum(
                u[i] * inv[i, j] * v[j] for i in range(Q.dim)
                for j in range(Q.dim))


def test_gram_apply_equals_the_dense_product_on_sparse_vectors():
    # pair_vectors reads only the blocks that meet a nonzero of v, and
    # pair_vectors(e_i, v) is (G v)_i; the dense table is computed without
    # weights, and G (G^-1 v) = v checks the inverse without inverting it
    rng = random.Random(17)
    for g, r in DIMS_BY_DEGREE:
        Q = quotient(g, r)
        G = dense_gram(Q)
        units = [[F(int(i == j)) for j in range(Q.dim)] for i in range(Q.dim)]
        for _ in range(6):
            v = [F(0)] * Q.dim
            for j in rng.sample(range(Q.dim), min(Q.dim, rng.randint(1, 3))):
                v[j] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            assert [Q.pair_vectors(e, v) for e in units] == list(G.apply(v)), (g, r)
            assert G.apply([Q.pair_vectors(e, v, inverse=True)
                            for e in units]) == tuple(v), (g, r)
        assert not any(Q.pair_vectors(e, [F(0)] * Q.dim) for e in units)


def test_quotient_gram_invertible():
    Q = quotient(4, 2)
    invert(Q.gram)


# -- property tests --------------------------------------------------------

def classes_g3():
    monos = st.sampled_from(monomials_up_to(3, 2))
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=3).filter(lambda q: q != 0)
    return st.dictionaries(monos, coeff, max_size=4).map(
        lambda d: ExtClass(3, d))


@st.composite
def ring_and_class(draw):
    """The Floer ring or the level -1 ring at one of four cases, and a
    class of degree up to 2d + 2 on it."""
    g, r = draw(st.sampled_from([(3, 1), (4, 2), (5, 1), (5, 2)]))
    Q = quotient(g, r) if draw(st.booleans()) else ring_oracle(g, g - 1 - r)
    monos = st.sampled_from(monomials_up_to(g, 2 * Q.d + 2))
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=3).filter(lambda q: q != 0)
    return Q, ExtClass(g, draw(st.dictionaries(monos, coeff, max_size=6)))


class TestQuotientProperties:
    @settings(max_examples=60, deadline=None)
    @given(classes_g3())
    def test_nf_idempotent(self, u):
        Q = quotient(3, 1)
        nf = Q.nf_class(u)
        assert Q.nf_class(nf) == nf

    @settings(max_examples=60, deadline=None)
    @given(classes_g3(), classes_g3())
    def test_nf_well_defined_under_products(self, u, v):
        Q = quotient(3, 1)
        direct = Q.nf_class(wedge(u, v))
        reduced = Q.nf_class(wedge(Q.nf_class(u), v))
        assert direct == reduced

    @settings(max_examples=60, deadline=None)
    @given(classes_g3())
    def test_nf_solves_direct_gram_system(self, u):
        Q = quotient(3, 1)
        G = dense_gram(Q)
        vec = Q.nf_vector(u)
        for l in range(Q.dim):
            assert sum(c * G[k, l] for k, c in enumerate(vec)) \
                == class_pair(Q.params, u, Q.basis[l])

    @settings(max_examples=60, deadline=None)
    @given(ring_and_class())
    def test_pair_basis_is_class_pair_with_each_basis_element(self, Qz):
        Q, z = Qz
        got = Q.pair_basis(z)
        assert all(got.values())
        for l, e in enumerate(Q.basis):
            assert got.get(l, 0) == class_pair(Q.params, z, e, Q.n_filter), l
        assert Q.is_in_radical(z) == (not any(Q.nf_vector(z)))

    @settings(max_examples=60, deadline=None)
    @given(classes_g3(), classes_g3())
    def test_pair_is_bilinear(self, u, v):
        p = SphereParams(3, 1)
        w = cls(3, "1 + x")
        assert class_pair(p, u + v, w) == class_pair(p, u, w) + class_pair(p, v, w)
        assert class_pair(p, u.scale(F(3, 2)), v) == F(3, 2) * class_pair(p, u, v)


@pytest.mark.parametrize("g, r", [(3, 1), (4, 1), (4, 2)])
@pytest.mark.parametrize("floer_first", [True, False],
                         ids=["floer-first", "level-first"])
def test_pair_basis_rows_match_class_pair(g, r, floer_first):
    """pair_basis of every monomial of degree <= 2d + 2 is class_pair with
    each basis element, read twice (the second time from the filled
    rows), on the Floer ring and on the level -1 ring at the same
    (g, r), built in either order: rows shared between the two rings
    would be wrong on the second."""
    floerring._oracle.cache_clear()
    d = SphereParams(g, r).d
    builds = [lambda: floerring.build_oracle(g, r), lambda: ring_oracle(g, d)]
    if not floer_first:
        builds.reverse()
    for ring in [build() for build in builds]:
        want = {}
        for m in monomials_up_to(g, 2 * d + 2):
            z = ExtClass.monomial(g, m)
            want[m] = {l: v for l, e in enumerate(ring.basis)
                       if (v := class_pair(ring.params, z, e, ring.n_filter))}
        for _ in range(2):
            for m, pairs in want.items():
                assert ring.pair_basis(ExtClass.monomial(g, m)) == pairs, \
                    (ring.n_filter, m)
