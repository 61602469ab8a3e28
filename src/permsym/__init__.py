"""Permutation symmetry workbench.

What varies under relabelling identical things, and what could never
have: symmetric-group sectors on n-particle Hilbert spaces, the operator
symmetriser and its trace identities, and permutation invariance for
finite first-order models and the theories that select among them.
"""

from . import casebook, hilbert, models, sectors, symgroup, symmetriser
from .hilbert import AssemblyConfig, DensityOperator, Observable, StateVector
from .sectors import SectorProjectors
from .symgroup import Permutation

__version__ = "0.1.0"

__all__ = [
    "AssemblyConfig",
    "DensityOperator",
    "Observable",
    "Permutation",
    "SectorProjectors",
    "StateVector",
    "__version__",
    "casebook",
    "hilbert",
    "models",
    "sectors",
    "symgroup",
    "symmetriser",
]
