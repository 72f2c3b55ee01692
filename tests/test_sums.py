"""Tests for the one-pass summing constructors of ExtClass and BiPoly and
for the one coercion rule behind every coefficient: sums of pairs with
repeats and cancellations agree with folding the terms one at a time,
and a float never enters."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swfloer.checks import _random_homogeneous
from swfloer.errors import DomainError
from swfloer.extalg import ExtClass, ExtMono, monomials_up_to, render_class
from swfloer.floerring import build_oracle
from swfloer.glueadj import SWTable
from swfloer.symprod import BiPoly

from helpers import fold_bipoly, fold_class

G = 2
# few keys, so that random pairs repeat them often
EXT_KEYS = monomials_up_to(G, 3)[:8]
BI_KEYS = [(a, b) for a in range(3) for b in range(3)]
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def pair_sums(draw, keys):
    """Pairs with repeated keys, where every contribution of some keys is
    also added negated, so those keys cancel fully."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(keys), coeffs),
                          max_size=12))
    cancel = draw(st.sets(st.sampled_from(keys)))
    pairs += [(k, -c) for k, c in pairs if k in cancel]
    return draw(st.permutations(pairs))


def direct_sums(pairs):
    """The nonzero coefficient sums, each key summed on its own."""
    sums = {k: sum((c for k2, c in pairs if k2 == k), Fraction(0))
            for k, _ in pairs}
    return {k: c for k, c in sums.items() if c}


@given(pair_sums(EXT_KEYS))
@settings(max_examples=200, deadline=None)
def test_extclass_pair_sum_equals_the_fold(pairs):
    u = ExtClass(G, pairs)
    assert u == fold_class(G, pairs)
    assert u == ExtClass(G, iter(pairs))
    assert u.terms == direct_sums(pairs)
    assert all(type(c) is Fraction for c in u.terms.values())


@given(pair_sums(BI_KEYS))
@settings(max_examples=200, deadline=None)
def test_bipoly_pair_sum_equals_the_fold(pairs):
    p = BiPoly(pairs)
    assert p == fold_bipoly(pairs)
    assert p == BiPoly(iter(pairs))
    assert p.terms == direct_sums(pairs)
    assert all(type(c) is Fraction for c in p.terms.values())


def test_mapping_is_never_read_as_pairs():
    # iterating this dict gives the key (1, 0), which as a pair would be
    # monomial 1 with coefficient 0
    assert BiPoly({(1, 0): 2}).terms == {(1, 0): Fraction(2)}
    m = ExtMono(0, (1,))
    assert ExtClass(G, {m: 2}).terms == {m: Fraction(2)}


def test_mapping_validation_is_unchanged():
    # BiPoly rejects a negative exponent on any key of a mapping, even
    # with a zero coefficient; ExtClass checks nonzero terms only
    with pytest.raises(DomainError):
        BiPoly({(-1, 0): 0})
    assert ExtClass(G, {ExtMono(-1, ()): 0}).is_zero()
    with pytest.raises(DomainError):
        ExtClass(G, {ExtMono(-1, ()): 1})
    with pytest.raises(DomainError):
        ExtClass(G, [(ExtMono(0, (2, 1)), 1)])
    with pytest.raises(DomainError):
        BiPoly([((0, -1), 1)])


M = ExtMono(0, (1,))
FLOAT_INPUTS = {
    "ExtClass mapping": lambda: ExtClass(3, {M: 0.1}),
    "ExtClass later pair": lambda: ExtClass(3, [(M, 1), (M, 0.5)]),
    "ExtClass scale": lambda: ExtClass.unit(3).scale(0.5),
    "ExtClass times float": lambda: ExtClass.unit(3) * 0.5,
    "BiPoly mapping": lambda: BiPoly({(1, 0): 0.1}),
    "BiPoly later pair": lambda: BiPoly([((1, 0), 1), ((1, 0), 0.5)]),
    "BiPoly scale": lambda: BiPoly.eta().scale(0.5),
    "SWTable value": lambda: SWTable(3, 1, {ExtMono(0, ()): 0.1}),
}


@pytest.mark.parametrize("build", FLOAT_INPUTS.values(), ids=FLOAT_INPUTS)
def test_float_coefficient_is_domain_error(build):
    with pytest.raises(DomainError, match="float"):
        build()


def test_random_homogeneous_draws_in_a_fixed_order():
    # the deformation-cup check draws its classes from a seeded rng; the
    # draws, and so the classes checked, are pinned
    ring = build_oracle(3, 1)
    rng = random.Random(7)
    drawn = [render_class(_random_homogeneous(ring, rng)) for _ in range(3)]
    assert drawn == ["-2*g1 + 2*g3 - 3*g4 - 3*g5 + 3*g6",
                     "-3*g1*g4 - 3*g2*g5 - 3*g3*g6",
                     "g1 - 3*g2 + g3 - 2*g4 - 3*g5 - 3*g6"]
