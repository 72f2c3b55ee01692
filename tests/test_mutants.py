"""A standing catalogue of mutants: `swfloer verify` must fail under each.

Each entry names a target, a patch of one of its attributes and the
checks of the cli registry of which at least one must report a failure.
The test applies the patch with monkeypatch and runs those checks in
process on cli.SWEEP.  Every functools.lru_cache of the package is
cleared before and after each entry: monkeypatch restores attributes but
not cached results, and a result computed under a mutant must not reach
a later test.

Entries are never removed or loosened.  The mutants that still pass
`verify --all` are listed here, each with the ROADMAP item expected to
kill it, which adds its entry when it does:

  1. pair_vectors without the weight negation (Gram form): item 5, the
     vanishing-cycle ideal checked in high-degree-vanishing.
  2. pair_vectors(inverse=True) with the weight negation: item 9, a cap
     round trip in gluing-cap.
  4. SectorQuotient.normal_form truncated to the basis: item 8.
  5. nf_vector dropping the components off the input's degree: items 8
     and 4.
  6. deformation_components adding the next ladder term to the base at
     g >= 5: item 4.
  7. element_from_vector dropping the last coordinate: item 9, the round
     trip nf_vector(element_from_vector(v)) == v.
"""

import importlib
import pkgutil

import pytest

import swfloer
from swfloer import cli
from swfloer.swpair import PairingQuotient

# the package's lru_caches, by module and name
CACHES = {
    "extalg.theta_class", "extalg.theta_power", "extalg.primitive_basis",
    "swpair._gamma_eval", "swpair.monos_of_degree", "swpair._radical",
    "swpair.primitive_pair",
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


def first_factor_only(killed_by):
    return lambda self, factors: killed_by(self, factors[:1])


def always_in_radical(is_in_radical):
    return lambda self, z: True


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


# (row of the ROADMAP survey, target, attribute, patch, checks)
MUTANTS = [
    (3, PairingQuotient, "is_in_radical", always_in_radical,
     ["high-degree-vanishing"]),
    (8, PairingQuotient, "killed_by", first_factor_only,
     ["middle-coefficient"]),
    (10, PairingQuotient, "_row", row_without_first_entry,
     ["gram-structure", "middle-coefficient"]),
    (11, PairingQuotient, "_partners", degree_filter_shifted,
     ["gram-structure", "relations-annihilate", "middle-coefficient"]),
    (12, PairingQuotient, "__init__", rows_keyed_by_gammas,
     ["gram-structure", "relations-annihilate", "middle-coefficient"]),
]


@pytest.mark.parametrize("row, target, name, patch, checks", MUTANTS,
                         ids=[f"row{m[0]}-{m[2]}" for m in MUTANTS])
def test_verify_fails_under_mutant(row, target, name, patch, checks,
                                   clean_caches, monkeypatch):
    monkeypatch.setattr(target, name, patch(getattr(target, name)))
    registry = {check: fn for check, fn, _ in cli.CHECKS}
    assert any(registry[check](cli.SWEEP) for check in checks), row
