"""Exact Schubert calculus for oriented cohomology of complete flag varieties.

The package computes the multiplicative structure of the algebraic model of
H*(G/B) for an arbitrary one-dimensional commutative formal group law, with
exact (rational/integer) coefficient arithmetic throughout.
"""

from .coeffring import CoeffPoly, CoeffRing
from .errors import (
    AssociativityError,
    DivisionError,
    FlagCohomError,
    InsufficientPrecisionError,
    IntegralityError,
    NotInImageError,
    RingMismatchError,
    SpecializationError,
)
from .fgl import FormalGroupLaw
from .fgring import FormalGroupRing, TorsionData
from .flagring import FlagBasis, FlagClass, default_truncation, torsion_bezout
from .lazard import LazardBasis
from .rootdata import RootDatum, WeylElement
from .tables import MultiplicationTable, build_table, make_theory
from .tseries import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "CoeffPoly",
    "CoeffRing",
    "FlagBasis",
    "FlagClass",
    "FormalGroupLaw",
    "FormalGroupRing",
    "LazardBasis",
    "MultiplicationTable",
    "RootDatum",
    "TorsionData",
    "TruncatedSeries",
    "WeylElement",
    "build_table",
    "default_truncation",
    "make_theory",
    "torsion_bezout",
    "FlagCohomError",
    "AssociativityError",
    "DivisionError",
    "InsufficientPrecisionError",
    "IntegralityError",
    "NotInImageError",
    "RingMismatchError",
    "SpecializationError",
    "__version__",
]
