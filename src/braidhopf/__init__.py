"""Exact verification engine for bialgebras in braided monoidal categories."""

from .category import (CatObject, FiniteGroup, Morphism, SignGradedBackend,
                       SuperVecBackend, SUPER, VEC, VecBackend,
                       YetterDrinfeldBackend)
from .hopf import BraidedBialgebra, Coalgebra, HopfAlgebra
from .linalg import Matrix

__all__ = [
    "BraidedBialgebra", "CatObject", "Coalgebra", "FiniteGroup", "HopfAlgebra",
    "Matrix", "Morphism", "SignGradedBackend", "SUPER", "SuperVecBackend", "VEC",
    "VecBackend", "YetterDrinfeldBackend",
]
