"""Tests for gluing along a surface and the adjunction checkers."""

import random
from fractions import Fraction

import pytest

from swfloer.cli import SWEEP
from swfloer import glueadj
from swfloer.errors import DomainError, GenusMismatch, VerificationFailure
from swfloer.extalg import ExtClass, ExtMono, monomials_up_to, wedge
from swfloer.floerring import build_oracle
from swfloer.glueadj import (
    AdjunctionQuery,
    AdjunctionVerdict,
    SWTable,
    adjunction_verdict,
    c_coefficient,
    glue,
    in_vanishing_cycle_ideal,
    kernel_K_basis,
    kernel_pairing_rank,
    load_sw_table,
    parse_sw_table,
    universal_matrix,
    vanishing_witness,
)
from swfloer.qlinalg import QMatrix, kernel_basis, reduce_by_rref, rref
from swfloer.swpair import monos_of_degree

from helpers import cap_table, dense_gram, product_row_ideal, product_row_kernel

F = Fraction

ODD_D = [(3, 1), (4, 2), (5, 3)]


def xtab(g, r, coeffs):
    """Table supported on pure x powers with the given values."""
    return SWTable(g, r, {ExtMono(a, ()): F(c) for a, c in coeffs.items()})


# -- tables ----------------------------------------------------------------

def test_table_drops_zero_values():
    t = SWTable(3, 1, {ExtMono(0, ()): F(0), ExtMono(1, ()): F(2)})
    assert t.value(ExtMono(0, ())) == 0
    assert t.value(ExtMono(1, ())) == 2
    assert t.values == {ExtMono(1, ()): F(2)}
    assert SWTable(3, 1, {}).values == {}


def test_table_rejects_bad_monomials():
    with pytest.raises(DomainError):
        SWTable(2, 1, {ExtMono(0, (5,)): F(1)})  # gamma index > 2g
    with pytest.raises(DomainError):
        SWTable(3, 1, {ExtMono(2, ()): F(1)})  # degree 4 > 2d = 2
    # every key is checked as a monomial, zero-valued ones included
    with pytest.raises(DomainError):
        SWTable(3, 1, {ExtMono(0, (4, 1)): F(5)})  # unsorted: never matches
    with pytest.raises(DomainError):
        SWTable(3, 1, {ExtMono(0, (2, 2)): F(0)})  # repeated index
    with pytest.raises(DomainError):
        SWTable(3, 1, {ExtMono(-1, (1, 2, 3)): F(2)})  # negative x exponent


def test_table_evaluate_is_linear():
    t = SWTable(3, 1, {ExtMono(0, ()): F(2), ExtMono(0, (1, 4)): F(5)})
    z = ExtClass.unit(3).scale(F(3)) + ExtClass.monomial(3, ExtMono(0, (1, 4)),
                                                         F(1, 2))
    assert t.evaluate(z) == 3 * 2 + F(1, 2) * 5


def test_parse_table_roundtrip():
    text = """
    # a comment
    genus 3 r 1

    1 3/2        # unit insertion
    x -1
    g1*g4 2/7
    """
    t = parse_sw_table(text)
    assert (t.g, t.r) == (3, 1)
    assert t.value(ExtMono(0, ())) == F(3, 2)
    assert t.value(ExtMono(1, ())) == -1
    assert t.value(ExtMono(0, (1, 4))) == F(2, 7)
    assert t.value(ExtMono(0, (2, 5))) == 0


def test_parse_table_errors():
    with pytest.raises(DomainError):
        parse_sw_table("")  # no header
    with pytest.raises(DomainError):
        parse_sw_table("genus 3\n1 1")
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r x\n")
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r 1\n1 1\n1 2")  # duplicate
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r 1\nx 1/0")
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r 1\nx")  # missing value
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r 1\nt 1")  # expands to a sum
    with pytest.raises(DomainError):
        parse_sw_table("genus 3 r 1\n2*x 1")  # coefficient on the key


def test_load_table(tmp_path):
    p = tmp_path / "t.swt"
    p.write_text("genus 2 r 1\n1 4\n", encoding="utf-8")
    t = load_sw_table(str(p))
    assert (t.g, t.r) == (2, 1)
    assert t.value(ExtMono(0, ())) == 4


# -- universal matrix ------------------------------------------------------

def test_universal_matrix_genus_two():
    labels, m = universal_matrix(2, 1)
    assert len(labels) == 1
    assert m.to_rows() == [[F(1)]]


def test_universal_matrix_inverts_gram():
    for g, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)]:
        ring = build_oracle(g, r)
        labels, m = universal_matrix(g, r)
        assert list(labels) == list(ring.labels)
        G = dense_gram(ring)
        n = ring.dim
        for i in range(n):
            for k in range(n):
                want = F(1) if i == k else F(0)
                assert sum(m[i, j] * G[j, k] for j in range(n)) == want


def test_glue_equals_dense_double_sum():
    # glue sums over the inverse block entries only; the reference is
    # sum_ij m_ij t1(z_i) t2(z_j) over the whole dense universal matrix,
    # with tables that are nonzero on monomials of every degree
    rng = random.Random(1)
    for g, r in SWEEP:
        ring = build_oracle(g, r)
        _, m = universal_matrix(g, r)
        monos = monomials_up_to(g, 2 * ring.d)
        t1, t2 = (SWTable(g, r, {mono: F(rng.randint(-9, 9), rng.randint(1, 5))
                                 for mono in monos}) for _ in range(2))
        left = [t1.evaluate(z) for z in ring.basis]
        right = [t2.evaluate(z) for z in ring.basis]
        want = sum(m[i, j] * left[i] * right[j]
                   for i in range(ring.dim) for j in range(ring.dim))
        assert glue(g, r, t1, t2) == want, (g, r)


def test_universal_matrix_folds_the_sign():
    assert universal_matrix(3, -1) == universal_matrix(3, 1)


# -- gluing ----------------------------------------------------------------

def test_glue_product_formula_top_twist():
    # r = g-1 means d = 0: gluing is the plain product of the two
    # unit-insertion values
    for g in range(2, 6):
        t1 = xtab(g, g - 1, {0: F(3, 2)})
        t2 = xtab(g, g - 1, {0: F(-4, 5)})
        assert glue(g, g - 1, t1, t2) == F(3, 2) * F(-4, 5)


def test_glue_zero_table():
    t1 = SWTable(3, 1, {})
    t2 = xtab(3, 1, {0: 7, 1: 2})
    assert glue(3, 1, t1, t2) == 0
    assert glue(3, 1, t2, t1) == 0


def test_glue_genus_mismatch():
    t3 = xtab(3, 1, {0: 1})
    t4 = xtab(4, 1, {0: 1})
    with pytest.raises(GenusMismatch):
        glue(3, 1, t3, t4)
    with pytest.raises(GenusMismatch):
        glue(4, 1, t3, t4)
    t32 = xtab(3, 2, {0: 1})
    with pytest.raises(GenusMismatch):
        glue(3, 1, t3, t32)


def test_glue_symmetry():
    mono = {ExtMono(0, ()): F(2), ExtMono(0, (1, 4)): F(3),
            ExtMono(1, ()): F(-1)}
    t1 = SWTable(3, 1, mono)
    t2 = SWTable(3, 1, {ExtMono(0, ()): F(5), ExtMono(0, (2, 5)): F(1)})
    assert glue(3, 1, t1, t2) == glue(3, 1, t2, t1)


def test_glue_odd_d_kills_even_tables():
    # with d odd, tables supported on gamma-free monomials pair through
    # an empty ladder
    for g, r in ODD_D:
        d = g - 1 - r
        t1 = xtab(g, r, {a: a + 1 for a in range(d + 1)})
        t2 = xtab(g, r, {a: a + 2 for a in range(d + 1)})
        assert glue(g, r, t1, t2) == 0, (g, r)


def test_cap_identity():
    # gluing against the pair-with-e_k table reads off the k-th
    # coordinate of any table
    for g, r in [(2, 1), (3, 1), (3, 2)]:
        ring = build_oracle(g, r)
        vals = {ExtMono(0, ()): F(2)}
        if ring.d > 0:
            vals[ExtMono(0, (1, g + 1))] = F(-3)
        t1 = SWTable(g, r, vals)
        for k in range(ring.dim):
            cap = cap_table(g, r, k)
            assert glue(g, r, t1, cap) == t1.evaluate(ring.basis[k]), (g, r, k)


# -- scalar gluing and the c coefficient -----------------------------------

def test_h1_simple_values():
    # pure-x tables glue to (-1)^(d/2) C(g-1, d/2) s1 s2 for d even
    assert c_coefficient(3, 2) * 2 * 3 == 6
    assert c_coefficient(5, 2) * 1 * 1 == -4


def test_h1_simple_matches_glue_on_x_tables():
    # tables on the pure x-powers glue to c_coefficient(g, r) times their
    # values on x^(d/2) for d even, and to zero for d odd
    for g, r in SWEEP:
        d = g - 1 - r
        t1 = xtab(g, r, {a: F(2 * a + 3, 7) for a in range(d + 1)})
        t2 = xtab(g, r, {a: F(5 - a, 3) for a in range(d + 1)})
        want = 0 if d % 2 else c_coefficient(g, r) * \
            t1.value(ExtMono(d // 2, ())) * t2.value(ExtMono(d // 2, ()))
        assert glue(g, r, t1, t2) == want, (g, r)


def test_c_coefficient_values():
    assert c_coefficient(4, 1) == -3
    assert c_coefficient(5, 2) == -4
    assert c_coefficient(2, 1) == 1
    assert c_coefficient(3, 2) == 1
    assert c_coefficient(4, 3) == 1
    assert c_coefficient(5, 4) == 1


def test_c_coefficient_odd_d_rejected():
    for g, r in ODD_D:
        with pytest.raises(DomainError):
            c_coefficient(g, r)


# -- gamma-annihilated subspace --------------------------------------------

def test_kernel_dimensions():
    dims = {(2, 1): 1, (3, 1): 1, (3, 2): 1, (4, 1): 2, (4, 2): 1, (4, 3): 1}
    for (g, r), want in dims.items():
        assert len(kernel_K_basis(g, r)) == want, (g, r)


def test_kernel_vectors_are_annihilated():
    for g, r in [(2, 1), (3, 1), (4, 1)]:
        ring = build_oracle(g, r)
        for vec in kernel_K_basis(g, r):
            phi = ring.element_from_vector(vec)
            for j in range(1, 2 * g + 1):
                gcls = ExtClass.monomial(g, ExtMono(0, (j,)))
                assert ring.nf_class(wedge(gcls, phi)).is_zero(), (g, r, j)


def test_kernel_K_basis_matches_dense_stack():
    # reference without weight blocks: all 2g multiplication maps stacked
    # over every basis column
    g, r = 4, 1
    ring = build_oracle(g, r)
    rows = []
    for j in range(1, 2 * g + 1):
        gcls = ExtClass.monomial(g, ExtMono(0, (j,)))
        images = [ring.nf_vector(wedge(gcls, e)) for e in ring.basis]
        rows.extend(list(row) for row in zip(*images))
    assert kernel_K_basis(g, r) == tuple(kernel_basis(QMatrix(rows, ring.dim)))


def test_kernel_K_basis_matches_product_rows():
    # the pairing rows and the normal-form product rows span the same
    # row space, so the canonical kernel bases are identical
    for g, r in SWEEP:
        assert kernel_K_basis(g, r) == product_row_kernel(build_oracle(g, r)), \
            (g, r)


def test_kernel_pairing_rank_parity():
    for g, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        d = g - 1 - r
        want = 1 if d % 2 == 0 else 0
        assert kernel_pairing_rank(g, r) == want, (g, r)


# -- vanishing witnesses ---------------------------------------------------

def test_vanishing_above_pairing_window():
    assert vanishing_witness(3, 1, ExtMono(2, ()))       # degree 4 > 2
    assert vanishing_witness(3, 1, ExtMono(1, (1, 2)))   # degree 4 > 2
    assert vanishing_witness(2, 1, ExtMono(0, (3,)))     # degree 1 > 0


def test_vanishing_x_survives():
    # x pairs to 1 against the unit, so it is not zero in the quotient
    assert not vanishing_witness(3, 1, ExtMono(1, ()))


def test_vanishing_ideal_check_runs_clean():
    # every monomial above degree d must clear the vanishing-cycle
    # ideal membership check without raising
    for g, r in [(3, 1), (4, 1), (4, 2)]:
        d = g - 1 - r
        for q in range(d + 1, 2 * d + 1):
            for m in monos_of_degree(g, q):
                vanishing_witness(g, r, m)


def test_ideal_membership_matches_product_rows():
    # the pairing-orthogonal of the annihilator against the span of the
    # products gamma_j e_i, on every basis vector and on the normal form of
    # every monomial of degree <= 2d; both answers occur
    answers = set()
    for g, r in SWEEP:
        ring = build_oracle(g, r)
        reduced, pivots = product_row_ideal(ring)
        units = [tuple(F(int(i == j)) for j in range(ring.dim))
                 for i in range(ring.dim)]
        nfs = {ring.nf_vector(ExtClass.monomial(g, m))
               for m in monomials_up_to(g, 2 * ring.d)}
        for vec in units + sorted(nfs):
            want = not any(reduce_by_rref(vec, reduced, pivots))
            assert in_vanishing_cycle_ideal(g, r, vec) == want, (g, r, vec)
            answers.add(want)
        assert len(glueadj._cycle_subspace(ring.params)) == \
            ring.dim - len(pivots)
    assert answers == {True, False}


def test_cycle_subspace_is_built_once_per_folded_twist():
    # V_-r is V_r: the subspace is cached on SphereParams, not the signed r
    glueadj._cycle_subspace.cache_clear()
    vec = (F(1),) + (F(0),) * (build_oracle(4, 1).dim - 1)
    assert in_vanishing_cycle_ideal(4, -1, vec) == \
        in_vanishing_cycle_ideal(4, 1, vec)
    info = glueadj._cycle_subspace.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_vanishing_witness_raises_outside_the_ideal(monkeypatch):
    # with every unit vector in the subspace the ideal, its pairing-
    # orthogonal, is zero, so a nonzero monomial above degree d is
    # reported outside it
    ring = build_oracle(3, 1)
    monkeypatch.setattr(glueadj, "_cycle_subspace", lambda params: tuple(
        tuple(F(int(i == j)) for j in range(ring.dim)) for i in range(ring.dim)))
    with pytest.raises(VerificationFailure):
        vanishing_witness(3, 1, ExtMono(1, ()))


def test_vanishing_nonzero_but_in_ideal():
    # a monomial can be nonzero in the quotient yet lie inside the
    # vanishing-cycle ideal: the witness is false, no error raised
    assert not vanishing_witness(4, 1, ExtMono(1, (1,)))


# -- adjunction ------------------------------------------------------------

ADJUNCTION_TABLE = [
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


@pytest.mark.parametrize("kwargs,want", ADJUNCTION_TABLE)
def test_adjunction_table(kwargs, want):
    assert str(adjunction_verdict(AdjunctionQuery(**kwargs))) == want


def test_adjunction_chamber_asymmetry():
    # with b+ = 1 only the surface-side chamber is tested: flipping the
    # sign of c1 . S flips the verdict
    plus = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=6, b_plus=1)
    minus = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=-6, b_plus=1)
    assert not adjunction_verdict(plus).excluded
    assert adjunction_verdict(minus).excluded
    # with b+ > 1 both signs behave the same
    for s in (6, -6):
        q = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=s, b_plus=2)
        assert adjunction_verdict(q).excluded


def test_adjunction_boundary_not_excluded():
    # equality never excludes
    q = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=-4, deg_b=0, d_s=0, l=0,
                        b_plus=2)
    assert not adjunction_verdict(q).excluded


def test_adjunction_cycle_gate():
    # the doubled-degree bound applies only when deg_b <= l + 1
    gated = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=-1, deg_b=3, l=1,
                            b_plus=2)
    open_ = AdjunctionQuery(g=3, sigma_sq=0, c1_dot=-1, deg_b=3, l=2,
                            b_plus=2)
    assert not adjunction_verdict(gated).excluded  # 1 + 3 <= 4, gate closed
    v = adjunction_verdict(open_)
    assert v.excluded and v.form == "cycle"       # 1 + 6 > 4


def test_adjunction_query_validation():
    with pytest.raises(DomainError):
        AdjunctionQuery(g=1, sigma_sq=0, c1_dot=-2)
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=-1, c1_dot=2)
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=0, c1_dot=0)  # torsion case
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=0, c1_dot=2, deg_b=-1)
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=0, c1_dot=2, b_plus=0)
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=0, c1_dot=2, l=-1)
    with pytest.raises(DomainError):
        AdjunctionQuery(g=3, sigma_sq=0, c1_dot=2, d_s=-1)


def test_verdict_rendering():
    assert str(AdjunctionVerdict(False)) == "ALLOWED"
    assert (str(AdjunctionVerdict(True, "deg"))
            == "EXCLUDED (thm adjunction, deg form)")
