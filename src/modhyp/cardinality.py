"""Closed-form cardinalities of planar sumsets and difference sets at prime
powers, their multiplicative composition over the factorization of n, and
the exact sum/difference dominance ratio.

Only the sumset has a closed form: y -> -y maps the hyperbola of a onto
that of -a, so the difference set at a is the sumset at -a and its count is
card_S2_pp(-a, p, t).  Criteria 01 and 03 check this against the
enumeration oracle, which does not use the identity.  At odd p the sumset
count depends only on the Legendre symbol of a; p mod 4 enters only
through -a.

Every count is an exact integer and every ratio an exact rational, so the
dominance boundary at ratio 1 is decided without any rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import _legendre_unchecked, factorize, is_prime
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


def _p2_count(a: int, t: int) -> int:
    if t <= 2:
        return 1
    if t == 3:
        return 2 if a % 4 == 1 else 1
    if t == 4:
        return 2
    r = a % 8
    if r == 1:
        return _exact_div((1 << (t - 4)) + (-1) ** (t - 1) + 9, 3, f"p=2, t={t}")
    return 1 << (t - 3) if r in (3, 7) else 1 << (t - 4)


def _odd_count(p: int, t: int, square: bool) -> int:
    # the sumset count at odd p^t for an a whose Legendre symbol is +1
    # exactly when square: s1 + s2, where s1 counts the k with k^2 - a a
    # square coprime to p and s2 those with k^2 - a a square divisible by p
    pt1 = p ** (t - 1)
    if not square:
        return (p - 1) * pt1 // 2  # s2 = 0
    num = 2 * pt1 + 3 * (p + 1) + (-1) ** (t - 1) * (p - 1)
    return (p - 3) * pt1 // 2 + _exact_div(num, 2 * (p + 1), f"p={p}, t={t}")


def card_S2_pp(a: int, p: int, t: int) -> int:
    """Exact planar sumset cardinality at p^t.

    The difference set at a is the sumset at -a (y -> -y maps one hyperbola
    onto the other), so its count is card_S2_pp(-a, p, t); criteria 01 and
    03 check both against the enumeration oracle.  p = 2 splits on a mod 8
    (with the stated small-power values for t <= 4); odd p depends only on
    the Legendre symbol of a, so p mod 4 enters only through -a.
    Divisibility of each formula is checked, so a non-integral branch value
    can never escape.
    """
    if t < 1:
        raise ValueError("exponent t must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(a, p) != 1:
        raise ValueError(f"a = {a} must be a unit at p = {p}")
    if p == 2:
        return _p2_count(a, t)
    return _odd_count(p, t, _legendre_unchecked(a, p) == 1)


def _card_S2_pp_array(a: np.ndarray, p: int, t: int) -> np.ndarray:
    """card_S2_pp(a, p, t) at each a of an int64 array of units at the
    prime p <= 8192.  The class of a, a mod 8 at p = 2 or whether a is a
    square mod p at odd p, indexes the counts of the classes."""
    if p == 2:
        return np.array([_p2_count(r, t) for r in range(8)], dtype=np.int64)[a % 8]
    square = np.zeros(p, dtype=bool)
    square[np.arange(1, p) ** 2 % p] = True
    return np.where(square[a % p], _odd_count(p, t, True), _odd_count(p, t, False))


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
    signed_a = -spec.a if spec.m == 1 else spec.a
    total = 1
    for p, t in factorize(spec.n).factors:
        if spec.d == 2:
            if p == 2:
                method = METHOD_SMALL_POWER if t <= 4 else METHOD_CLOSED_FORM_P2
            else:
                method = METHOD_CLOSED_FORM_ODD
            count = card_S2_pp(signed_a, p, t)
        elif p > 7:
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
    return Fraction(card_S2_pp(a, p, t), card_S2_pp(-a, p, t))


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
        num *= card_S2_pp(a, p, t)
        den *= card_S2_pp(-a, p, t)
    return RatioValue(num, den, Fraction(num, den))
