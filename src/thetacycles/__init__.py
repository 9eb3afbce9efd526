"""Exact calculus of clean conic Lagrangian cycles on abelian varieties.

Subpackages:

- symfun:     partitions, power-sum/elementary/Schur transitions, Jacobi-Trudi
- lambdaring: group rings Z[Gamma] as lambda-rings: Adams and Schur operations
- chow:       numerical Chow vectors of a very general ppav, Pontryagin product
- cycles:     clean-cycle models with Chern-Mather data and fiber models
- lierep:     root systems, Weyl orbits, characters and classifiers
- schottky:   theta Tannaka groups, summand/simplicity criteria,
              fake-Jacobian equations and the genus-5 obstruction
- cli:        command-line interface over all of the above
"""

from .symfun import Partition, SymExpr, partitions, schur_to_powersum, elementary_to_powersum
from .lambdaring import FgAbelianGroup, GroupRingElement, TensorConstruction
from .chow import ChowVector
from .cycles import CycleComponent, CleanCycleModel
from .lierep import RootSystem, Character

__all__ = [
    "Partition",
    "SymExpr",
    "partitions",
    "schur_to_powersum",
    "elementary_to_powersum",
    "FgAbelianGroup",
    "GroupRingElement",
    "TensorConstruction",
    "ChowVector",
    "CycleComponent",
    "CleanCycleModel",
    "RootSystem",
    "Character",
]
