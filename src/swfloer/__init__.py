"""Exact computation of Seiberg-Witten-Floer cohomology rings of Sigma x S^1.

The package computes, over Q with no floating point anywhere:

  * the exterior-algebra model A(Sigma) = Q[x] (x) Lambda*(gamma_1..gamma_2g)
    and its primitive decomposition (extalg),
  * Seiberg-Witten invariants of the ruled surface Sigma x S^2 and the
    induced pairing on A(Sigma) (swpair),
  * cohomology rings of symmetric products s^d(Sigma) with their
    eta/theta presentations (symprod),
  * the Floer ring V_r for a non-torsion spin-c structure, its relation
    ideals, and the deformation splitting of its product (floerring),
  * the universal gluing matrix, simple-gluing coefficients, and
    adjunction-inequality verdicts (glueadj),
  * the invariant suite behind ``swfloer verify`` and the acceptance
    tests (checks),
  * a command line front end (cli), whose commands each import only the
    modules they run.

Everything is desk-scale and exact: the verification sweep covers genus
2 to 5, and the command line goes up to genus 6, checked per case with
``swfloer verify --g 6 --r r``.
"""

from .errors import (
    DomainError,
    GenusMismatch,
    InconsistentRecursion,
    SingularMatrix,
    VerificationFailure,
)

__all__ = [
    "DomainError",
    "GenusMismatch",
    "InconsistentRecursion",
    "SingularMatrix",
    "VerificationFailure",
]

__version__ = "0.1.0"
