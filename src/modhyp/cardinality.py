"""Closed-form cardinalities of planar sumsets and difference sets at prime
powers, their multiplicative composition over the factorization of n, and
the exact sum/difference dominance ratio.

Only the sumset has a closed form: y -> -y maps the hyperbola of a onto
that of -a, so the difference set at a is the sumset at -a and its count is
card_S2_pp(-a, p, t).  Criteria 01 and 03 check this against the
enumeration oracle, which does not use the identity.  The count depends
on a only through its class (_count), a mod 8 at p = 2 and the Legendre
symbol at odd p.  Callers that hold a proven prime read the pair (sumset,
difference set) from _counts, or at each a of an array from _counts_array.

Every count is an exact integer and every ratio an exact rational, so the
dominance boundary at ratio 1 is decided without any rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import _check_prime_power, _legendre_unchecked, factorize
from .hyperbola import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    HyperbolaSpec,
    signed_sumset,
)

__all__ = [
    "CardinalityReport",
    "FactorCount",
    "METHOD_CLOSED_FORM_ODD",
    "METHOD_CLOSED_FORM_P2",
    "METHOD_FULL_COVERAGE",
    "METHOD_ORACLE",
    "METHOD_SMALL_POWER",
    "PartialResultError",
    "RatioValue",
    "card_S2_pp",
    "card_signed_sumset",
    "ratio_c2",
    "ratio_c2_pp",
]

METHOD_CLOSED_FORM_P2 = "closed-form-p2"
METHOD_CLOSED_FORM_ODD = "closed-form-odd-p"
METHOD_SMALL_POWER = "small-power-table"
METHOD_FULL_COVERAGE = "full-coverage-d>2"
METHOD_ORACLE = "oracle"
# proved in the docstring of analysis.solve_sum_product
_FULL_COVERAGE_ABOVE = 7  # for d > 2 the signed sumset is all of Z/p^t at every p above it


class FactorCount(NamedTuple):
    """One prime-power factor's count and the method that produced it.  The
    count field shadows tuple.count."""

    p: int
    t: int
    count: int
    method: str


class CardinalityReport(NamedTuple):
    """Per-prime-power counts and their product for one signed-sumset spec."""

    spec: HyperbolaSpec
    per_factor: tuple[FactorCount, ...]
    total: int


class RatioValue(NamedTuple):
    """Exact dominance ratio: |sumset| over |difference set|."""

    numerator: int
    denominator: int
    value: Fraction


class PartialResultError(RuntimeError):
    """Some factors needed the enumeration oracle but exceeded the budget."""

    def __init__(
        self,
        computed: tuple[FactorCount, ...],
        uncomputed: tuple[tuple[int, int], ...],
    ) -> None:
        missing = ", ".join(f"{p}^{t}" for p, t in uncomputed)
        super().__init__(f"budget exhausted before computing factors: {missing}")
        self.computed = computed
        self.uncomputed = uncomputed


def _exact_div(num: int, den: int, where: str) -> int:
    if num % den:
        raise ArithmeticError(f"non-integral count in {where}")
    return num // den


def _count(p: int, t: int, cls: int) -> int:
    # the sumset count at p^t of the units a of class cls: a mod 8 at p = 2
    # (stated for t <= 4), else the Legendre symbol, and the count s1 + s2:
    # the k with k^2 - a a square coprime to p (s1) or divisible by p (s2)
    if p == 2:
        if t <= 2:
            return 1
        if t == 3:
            return 2 if cls % 4 == 1 else 1
        if t == 4:
            return 2
        if cls == 1:
            return _exact_div((1 << (t - 4)) + (-1) ** (t - 1) + 9, 3, f"p=2, t={t}")
        return 1 << (t - 3) if cls in (3, 7) else 1 << (t - 4)
    pt1 = p ** (t - 1)
    if cls < 0:
        return (p - 1) * pt1 // 2  # s2 = 0
    num = 2 * pt1 + 3 * (p + 1) + (-1) ** (t - 1) * (p - 1)
    return (p - 3) * pt1 // 2 + _exact_div(num, 2 * (p + 1), f"p={p}, t={t}")


def _counts(a: int, p: int, t: int) -> tuple[int, int]:
    # the sumset and difference set counts at p^t of a unit a at a proven prime p
    if p == 2:
        return _count(2, t, a % 8), _count(2, t, -a % 8)
    e = _legendre_unchecked(a, p)  # Euler's criterion; (-a/p) = (a/p) iff p = 1 (mod 4)
    return _count(p, t, e), _count(p, t, e if p % 4 == 1 else -e)


def card_S2_pp(a: int, p: int, t: int) -> int:
    """Exact planar sumset cardinality at p^t.

    The difference set at a is the sumset at -a (y -> -y maps one hyperbola
    onto the other), so its count is card_S2_pp(-a, p, t); criteria 01 and
    03 check both against the enumeration oracle.  The count is that of the
    class of a (_count): a mod 8 at p = 2, the Legendre symbol at odd p.
    Divisibility of each formula is checked, so a non-integral branch value
    can never escape.
    """
    _check_prime_power(a, p, t)
    return _counts(a, p, t)[0]


def _counts_array(a: np.ndarray, p: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """_counts at each a of an integer array of units at the prime p <= 8192,
    as the arrays (sums, diffs): one table, the count of each residue mod 8
    at p = 2 or mod p at odd p (by whether it is a square), read at a and -a."""
    if p == 2:
        table = np.array([_count(2, t, r) for r in range(8)], dtype=np.int64)
    else:
        square = np.zeros(p, dtype=bool)
        square[np.arange(1, p) ** 2 % p] = True
        table = np.where(square, _count(p, t, 1), _count(p, t, -1))
    return table[a % len(table)], table[-a % len(table)]


def card_signed_sumset(spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET) -> CardinalityReport:
    """Per-prime-power counts of the signed sumset, composed by product.

    d = 2 resolves every factor in closed form (m in {0, 2} counts the
    sumset, m = 1 the difference set; the m = 0 set is a negation, so its
    cardinality matches m = 2).  For d > 2, factors with p > 7 have full
    coverage (count p^t, independent of m); factors with p <= 7 fall back
    to the enumeration oracle, budget permitting.

    Raises:
        PartialResultError: oracle fallback was needed but the budget ran
            out; the error lists computed and uncomputed factors.
    """
    done: list[FactorCount] = []
    blocked: list[tuple[int, int]] = []
    total = 1
    for p, t in factorize(spec.n).factors:
        if spec.d == 2:
            if p == 2:
                method = METHOD_SMALL_POWER if t <= 4 else METHOD_CLOSED_FORM_P2
            else:
                method = METHOD_CLOSED_FORM_ODD
            count = _counts(spec.a, p, t)[spec.m == 1]
        elif p > _FULL_COVERAGE_ABOVE:
            count, method = p**t, METHOD_FULL_COVERAGE
        else:
            q = p**t
            sub = HyperbolaSpec(spec.d, spec.m, spec.a % q, q)
            try:
                count, method = len(signed_sumset(sub, budget=budget)), METHOD_ORACLE
            except EnumerationBudgetError:
                blocked.append((p, t))
                continue
        done.append(FactorCount(p, t, count, method))
        total *= count
    if blocked:
        raise PartialResultError(tuple(done), tuple(blocked))
    return CardinalityReport(spec, tuple(done), total)


def ratio_c2_pp(a: int, p: int, t: int) -> Fraction:
    """Per-prime-power dominance ratio |sumset| / |difference set|."""
    _check_prime_power(a, p, t)
    return Fraction(*_counts(a, p, t))


def ratio_c2(a: int, n: int) -> RatioValue:
    """The exact dominance ratio at modulus n, from closed forms only.

    Multiplicative over the prime powers of n; factors p = 1 (mod 4)
    contribute exactly 1.  n = 1 is the empty product, ratio 1/1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a = {a} must be coprime to n = {n}")
    num = den = 1
    for p, t in factorize(n).factors:
        s, d = _counts(a, p, t)
        num *= s
        den *= d
    return RatioValue(num, den, Fraction(num, den))
