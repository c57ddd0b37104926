"""Exact cohomology of Lie superalgebras and color Lie algebras over Q."""

from .exactlin import BACKEND, RationalSparseMatrix
from .grading import CommutationFactor, GradingGroup, super_factor, super_z_factor
from .algebra import EpsLieAlgebra
from .gmodule import GradedModule
from .cohomology import Cochain, CochainComplex

__all__ = [
    "BACKEND",
    "RationalSparseMatrix",
    "CommutationFactor",
    "GradingGroup",
    "super_factor",
    "super_z_factor",
    "EpsLieAlgebra",
    "GradedModule",
    "Cochain",
    "CochainComplex",
]

__version__ = "0.1.0"
