"""Coordinate sumsets and difference sets of modular hyperbolas.

Exact closed-form cardinalities at prime powers, multiplicative
composition over the factorization of the modulus, dominance ratios and
scans, and a brute-force enumeration oracle everything is verified
against.
"""

from . import analysis, arith, cardinality, hyperbola
from .analysis import *
from .arith import *
from .cardinality import *
from .hyperbola import *

__version__ = "0.1.0"

# each layer's __all__ is the one list of its public names
__all__ = [*analysis.__all__, *arith.__all__, *cardinality.__all__, *hyperbola.__all__]
