"""Coordinate sumsets and difference sets of modular hyperbolas.

Exact closed-form cardinalities at prime powers, multiplicative
composition over the factorization of the modulus, dominance ratios and
scans, and a brute-force enumeration oracle everything is verified
against.
"""

from .analysis import (
    BALANCED,
    DIFFERENCE_DOMINANT,
    SUM_DOMINANT,
    CoverageReport,
    DensityReport,
    DominanceReport,
    PrimorialReport,
    PrimorialRow,
    classify,
    coverage_check,
    density_report,
    dominance_class_constant,
    dominance_report,
    dominance_scan,
    primes_3_mod_4,
    primorial_series,
    solve_sum_product,
)
from .arith import (
    PrimeFactorization,
    euler_phi,
    factorize,
    is_prime,
    legendre,
    primes_up_to,
    sqrt_mod_pp,
)
from .cardinality import (
    CardinalityReport,
    FactorCount,
    PartialResultError,
    RatioValue,
    card_S2_pp,
    card_signed_sumset,
    ratio_c2,
    ratio_c2_pp,
)
from .hyperbola import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    HyperbolaSpec,
    ResidueSet,
    enumerate_points,
    signed_sumset,
    sum_diff_cardinalities,
    sum_diff_sets,
    sum_diff_tables,
)

__version__ = "0.1.0"

__all__ = [
    "BALANCED",
    "CardinalityReport",
    "CoverageReport",
    "DEFAULT_BUDGET",
    "DensityReport",
    "DIFFERENCE_DOMINANT",
    "DominanceReport",
    "EnumerationBudgetError",
    "FactorCount",
    "HyperbolaSpec",
    "PartialResultError",
    "PrimeFactorization",
    "PrimorialReport",
    "PrimorialRow",
    "RatioValue",
    "ResidueSet",
    "SUM_DOMINANT",
    "card_S2_pp",
    "card_signed_sumset",
    "classify",
    "coverage_check",
    "density_report",
    "dominance_class_constant",
    "dominance_report",
    "dominance_scan",
    "enumerate_points",
    "euler_phi",
    "factorize",
    "is_prime",
    "legendre",
    "primes_3_mod_4",
    "primes_up_to",
    "primorial_series",
    "ratio_c2",
    "ratio_c2_pp",
    "signed_sumset",
    "solve_sum_product",
    "sqrt_mod_pp",
    "sum_diff_cardinalities",
    "sum_diff_sets",
    "sum_diff_tables",
]
