"""A standing catalogue of mutants: `swfloer verify` must fail under each.

Each entry names a target, a patch of one of its attributes and the
checks of the cli registry of which at least one must report a failure.
The test applies the patch with monkeypatch and runs those checks in
process on cli.SWEEP.  Every functools.lru_cache of the package is
cleared before and after each entry: monkeypatch restores attributes but
not cached results, and a result computed under a mutant must not reach
a later test.

A mutant under which a build raises (VerificationFailure,
SingularMatrix from a Gram block, InconsistentRecursion from the
recursion solver) fails the checks that build, each with a FAIL line
naming the exception, while `swfloer verify` runs every later check;
those are listed apart (RAISING) and run through `verify --all` in
process.

Entries are never removed or loosened.  The mutants that still pass
`verify --all` are listed here, each with the ROADMAP item expected to
kill it, which adds its entry when it does:

  1. pair_vectors without the weight negation (Gram form): item 5, the
     vanishing-cycle ideal checked in high-degree-vanishing.
  4. SectorQuotient.normal_form truncated to the basis: item 8.
  5. nf_vector dropping the components off the input's degree: items 8
     and 4.
  6. deformation_components adding the next ladder term to the base at
     g >= 5: item 4.
"""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import swfloer
from swfloer import cli, extalg, floerring, swpair
from swfloer.errors import InconsistentRecursion, SingularMatrix
from swfloer.swpair import PairingQuotient
from swfloer.symprod import SectorQuotient

# the package's lru_caches, by module and name
CACHES = {
    "extalg.theta_power", "extalg.primitive_basis",
    "swpair.monos_of_degree", "swpair._radical", "swpair.primitive_pair",
    "floerring._run_recursion", "floerring._presentation_sector",
    "floerring._oracle",
    "glueadj._cycle_subspace",
}


def package_caches():
    """Every lru_cache defined in a module of the package; there must be
    exactly the ones in CACHES, so that a new cache is cleared too."""
    found = {}
    for info in pkgutil.iter_modules(swfloer.__path__):
        module = importlib.import_module(f"swfloer.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and \
                    getattr(obj, "__module__", None) == module.__name__:
                found[f"{info.name}.{name}"] = obj
    assert set(found) == CACHES
    return found.values()


@pytest.fixture
def clean_caches():
    for cache in package_caches():
        cache.cache_clear()
    yield
    for cache in package_caches():
        cache.cache_clear()


def inverse_with_the_negation(pair_vectors):
    # the inverse form read from the blocks keyed by the negated weights
    def patched(self, u, v, inverse=False):
        if not inverse:
            return pair_vectors(self, u, v)
        keys = {tuple(-x for x in self._weight_of[j])
                for j, x in enumerate(v) if x}
        return sum((u[i] * m * v[j] for i, j, m in self._entries(keys, True)
                    if v[j] and u[i]), Fraction(0))
    return patched


def unsigned(gamma_eval):
    # (-n)^(g-m) > 0 at every level n <= -1, so abs drops (-1)^(m(m-1)/2)
    return lambda g, gammas, n: abs(gamma_eval(g, gammas, n))


def first_factor_only(killed_by):
    return lambda self, factors: killed_by(self, factors[:1])


def always_in_radical(is_in_radical):
    return lambda self, z: True


def drop_last_coordinate(element_from_vector):
    return lambda self, vec: element_from_vector(self, list(vec)[:-1])


def row_without_first_entry(row):
    return lambda self, m: row(self, m)[1:]


def degree_filter_shifted(partners):
    # x has weight 0, so one more x moves only the degree, by 2
    return lambda self, m: partners(self, m._replace(xexp=m.xexp + 1))


class GammaKeyedRows(dict):
    """A row cache that ignores the x exponent of its monomial keys."""

    def get(self, m, default=None):
        return dict.get(self, m.gammas, default)

    def __setitem__(self, m, row):
        dict.__setitem__(self, m.gammas, row)


def rows_keyed_by_gammas(init):
    def patched(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._rows = GammaKeyedRows()
    return patched


def rank_one_short(integer_rref):
    # one pivot short on every weight block with more than one row
    def patched(rows, ncols):
        out, pivots = integer_rref(rows, ncols)
        return out, pivots[:-1] if len(rows) > 1 else pivots
    return patched


def always_singular(integer_invert):
    def patched(m):
        raise SingularMatrix(f"matrix of size {m.nrows} has rank 0")
    return patched


def never_unique(run_recursion):
    def patched(g, r):
        raise InconsistentRecursion(f"solution not unique at ({g},{r})")
    return patched


def denominator_dropped(exact):
    # every class coefficient loses its denominator: 1/2 is stored as 1
    return lambda v: exact(v).numerator


def one_unit_column_short(divided):
    return lambda self, ab: divided(self, ab)[1:]


# (row of the ROADMAP survey, target, attribute, patch, checks)
MUTANTS = [
    (2, PairingQuotient, "pair_vectors", inverse_with_the_negation,
     ["gluing-cap"]),
    (3, PairingQuotient, "is_in_radical", always_in_radical,
     ["high-degree-vanishing"]),
    (7, PairingQuotient, "element_from_vector", drop_last_coordinate,
     ["high-degree-vanishing"]),
    (8, PairingQuotient, "killed_by", first_factor_only,
     ["middle-coefficient"]),
    (10, PairingQuotient, "_row", row_without_first_entry,
     ["gram-structure", "middle-coefficient"]),
    (11, PairingQuotient, "_partners", degree_filter_shifted,
     ["gram-structure", "relations-annihilate", "middle-coefficient"]),
    (12, PairingQuotient, "__init__", rows_keyed_by_gammas,
     ["gram-structure", "relations-annihilate", "middle-coefficient"]),
    (13, swpair, "_gamma_eval", unsigned, ["gram-structure"]),
    (14, extalg, "exact", denominator_dropped,
     ["relations-annihilate", "middle-coefficient"]),
]


@pytest.mark.parametrize("row, target, name, patch, checks", MUTANTS,
                         ids=[f"row{m[0]}-{m[2]}" for m in MUTANTS])
def test_verify_fails_under_mutant(row, target, name, patch, checks,
                                   clean_caches, monkeypatch):
    monkeypatch.setattr(target, name, patch(getattr(target, name)))
    registry = {check: fn for check, fn, _ in cli.CHECKS}
    assert any(registry[check](cli.SWEEP) for check in checks), row


# the sweep cases with d >= 1, the ones with basis elements off weight 0
OFF_WEIGHT_CASES = [(g, r) for g, r in cli.SWEEP if r < g - 1]


@pytest.mark.parametrize("g, r", OFF_WEIGHT_CASES)
def test_gluing_cap_catches_row_2_in_every_case(g, r, monkeypatch):
    # the seeded tables pair one weight block, so the negated-key inverse
    # form reads the wrong one at each case, not only somewhere in the
    # sweep; no cache holds a pair_vectors result, so none is cleared
    monkeypatch.setattr(PairingQuotient, "pair_vectors",
                        inverse_with_the_negation(PairingQuotient.pair_vectors))
    assert cli.check_gluing_cap([(g, r)])


# (target, attribute, patch, the exception raised) of the mutants under
# which a build raises
RAISING = [
    (swpair, "integer_rref", rank_one_short, "VerificationFailure"),
    (SectorQuotient, "_divided", one_unit_column_short, "VerificationFailure"),
    (swpair, "integer_invert", always_singular, "SingularMatrix"),
    (floerring, "_run_recursion", never_unique, "InconsistentRecursion"),
]


@pytest.mark.parametrize("target, name, patch, error", RAISING,
                         ids=[m[1] for m in RAISING])
def test_verify_all_fails_under_raising_mutant(target, name, patch, error,
                                               clean_caches, monkeypatch,
                                               capsys):
    monkeypatch.setattr(target, name, patch(getattr(target, name)))
    assert cli.main(["verify", "--all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # one PASS or FAIL line per check, in registry order: the raising
    # build ends the checks that build, not the run
    heads = [line.split(":")[0].split() for line in lines]
    assert [check for _, check in heads] == [check for check, _, _ in cli.CHECKS]
    assert {status for status, _ in heads} <= {"PASS", "FAIL"}
    assert any(line.startswith("FAIL ") and f": {error}: " in line
               for line in lines)
