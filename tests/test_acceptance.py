"""Acceptance gate: every verified claim over the full desk-scale sweep.

Each test runs one registered check from the CLI verify suite over the
whole parameter range (genus 2 to 5, every twist), prints a single
PASS/FAIL line, and fails with the first few counterexamples if the
claim breaks.  All comparisons are exact rational identities; there are
no tolerances anywhere.
"""

import hashlib

import pytest

from swfloer.cli import CHECKS, SWEEP, main

_BY_NAME = {name: fn for name, fn, _ in CHECKS}


def _run(name):
    fails = _BY_NAME[name](SWEEP)
    print(("PASS " if not fails else "FAIL ") + name)
    assert not fails, fails[:5]


def test_01_oracle_dimensions_match_betti_totals():
    _run("dimension-match")


def test_02_relations_annihilate_exactly():
    _run("relations-annihilate")


def test_03_presentation_bases_and_counts():
    _run("presentation-basis")


def test_04_recursion_consistency():
    _run("recursion-consistency")


def test_05_gram_structure():
    _run("gram-structure")


def test_06_deformation_base_is_cup_product():
    _run("deformation-cup")


def test_07_middle_coefficient_dual_routes():
    _run("middle-coefficient")


def test_08_gluing_product_and_cap_identity():
    _run("gluing-cap")


def test_09_high_degree_vanishing():
    _run("high-degree-vanishing")


def test_10_betti_triple_count():
    _run("betti-triple-count")


def test_11_adjunction_query_table():
    _run("adjunction-table")


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_12_genus_six_verifies(r, capsys):
    # the largest genus the command line accepts
    assert main(["verify", "--g", "6", "--r", str(r)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == sum(per_case for _, _, per_case in CHECKS) == 9
    assert all(line.startswith("PASS ") for line in lines), lines


# sha256 and byte length of the whole stdout.  Every change to the
# package keeps these outputs byte for byte; d = 0 at (6, 5), so that
# genus-6 case is cheap.
VERIFY_DIGESTS = {
    "verify --all": ["14a09a71e977fa6fb22ee3b0e3b49d1cf6d8ff3617544fa250e373c09142c5a4", 252],
    "verify --g 6 --r 5": ["f8033ebfe85fa59b268ad4dc4b406476378d452c924bfe7fd996020d28dc3d9c", 206],
}


@pytest.mark.parametrize("line", sorted(VERIFY_DIGESTS))
def test_13_verify_output_is_byte_identical(line, capsys):
    assert main(line.split()) == 0
    out = capsys.readouterr().out.encode()
    assert [hashlib.sha256(out).hexdigest(), len(out)] == VERIFY_DIGESTS[line]


@pytest.mark.parametrize("g, r", SWEEP)
def test_14_negative_twist_verifies(g, r):
    # V_-r is V_r by conjugation: every per-case check folds the sign of r
    fails = {name: fn([(g, -r)]) for name, fn, per_case in CHECKS if per_case}
    assert not any(fails.values()), fails
