"""Dominance scans and the higher-level studies built on the closed forms:
empirical dominance density against its certified lower bound, ratio growth
along primorials of 3-mod-4 primes, full-coverage checks in dimension
three and up, and a constructive solver for unit triples with prescribed
sum and product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .arith import _legendre_unchecked, factorize, is_prime, primes_up_to, sqrt_mod_pp
from .cardinality import ratio_c2, ratio_c2_pp
from .hyperbola import DEFAULT_BUDGET, HyperbolaSpec, ResidueSet, signed_sumset

__all__ = [
    "BALANCED",
    "CoverageReport",
    "DensityReport",
    "DIFFERENCE_DOMINANT",
    "DominanceReport",
    "PrimorialReport",
    "PrimorialRow",
    "SUM_DOMINANT",
    "classify",
    "coverage_check",
    "density_report",
    "dominance_class_constant",
    "dominance_report",
    "dominance_scan",
    "primes_3_mod_4",
    "primorial_series",
    "solve_sum_product",
]

SUM_DOMINANT = "sum-dominant"
DIFFERENCE_DOMINANT = "difference-dominant"
BALANCED = "balanced"

_BOUND_PRIME_LIMIT = 100_000
_SLICE = 1 << 14  # sieve entries turned into Python ints at a time
_SIEVE_LIMIT = 2**31  # _ratio_sieve's int32 entries hold every n below it


@dataclass(frozen=True)
class DominanceReport:
    """Classification of one modulus.  factor_breakdown, the ratio at each
    prime power of n, is derived on demand from the factorization of n."""

    a: int
    n: int
    c2: Fraction
    classification: str

    @property
    def factor_breakdown(self) -> tuple[tuple[int, int, Fraction], ...]:
        return tuple(
            (p, t, ratio_c2_pp(self.a, p, t)) for p, t in factorize(self.n).factors
        )


@dataclass(frozen=True)
class DensityReport:
    """Empirical dominance density among eligible moduli, and lower bounds.

    A modulus is eligible when it is coprime to a and every prime
    p = 3 (mod 4) dividing it has Legendre symbol +1 at a.  The truncated
    bound multiplies the class constant by the product of (1 - 1/p^2) over
    such primes up to prime_limit; the rigorous bound additionally scales
    by (1 - 1/prime_limit), which certifiably under-estimates the omitted
    tail of the infinite product.  Both bounds are floored to 12 decimal
    places (exact rationals, direction preserved) so they stay compact.

    The bounds apply to the asymptotic lower density of sum-dominant
    moduli (threshold 1), not to the share at a finite x.  Balanced moduli,
    with no prime = 3 (mod 4) factor, have ratio exactly 1 and thin out
    only like 1/sqrt(log x), so empirical_density sits below the bounds by
    about their share (at a = 4, x = 10^5: 0.6750 against 0.8561, with
    balanced moduli 19.25% of the eligible set).
    """

    a: int
    x: int
    threshold: Fraction
    eligible_count: int
    dominant_count: int
    empirical_density: Fraction
    class_constant: Fraction
    bound_truncated: Fraction
    bound_rigorous: Fraction
    prime_limit: int


@dataclass(frozen=True)
class PrimorialRow:
    """One step of the primorial ratio series."""

    k: int
    primorial: int
    ratio_first_power: Fraction
    ratio_power_t: Fraction
    loglog: float


@dataclass(frozen=True)
class PrimorialReport:
    a: int
    t: int
    rows: tuple[PrimorialRow, ...]


@dataclass(frozen=True)
class CoverageReport:
    """Which residues the signed sumset attains, for d >= 3.

    guaranteed is True when every prime factor of n exceeds 7, the regime
    where full coverage always holds (and so missing must be empty).
    """

    spec: HyperbolaSpec
    covered: bool
    missing: ResidueSet
    guaranteed: bool


def classify(c2: Fraction) -> str:
    """Dominance class of an exact ratio: above, at, or below 1."""
    if c2 > 1:
        return SUM_DOMINANT
    if c2 == 1:
        return BALANCED
    return DIFFERENCE_DOMINANT


def _check_sieve_range(x: int) -> None:
    if x >= _SIEVE_LIMIT:
        raise ValueError(f"range bound {x} must be below 2^31 (the ratio sieve is int32)")


def _ratio_sieve(a: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    """c2(a; n) = num[n] / den[n] for every n in 0..x, from closed forms.

    Both are 0 at n = 0 and where gcd(a, n) > 1, else the products of the
    numerators and denominators of the ratios at the prime powers of n.
    The multiples of each q = p^t trade the factor of p^(t-1) for that of
    p^t (exact division first), so no entry exceeds n.  Primes = 1 (mod 4)
    have ratio 1 and are skipped.
    """
    _check_sieve_range(x)
    nd = np.ones((2, x + 1), dtype=np.int32)  # rows: numerators, denominators
    nd[:, 0] = 0
    for p in primes_up_to(x):
        if a % p == 0:
            nd[:, ::p] = 0
        elif p % 4 != 1:
            q, t, prev = p, 1, None
            while q <= x:
                r = ratio_c2_pp(a, p, t)
                factor = np.array([[r.numerator], [r.denominator]], dtype=np.int32)
                if prev is not None:
                    nd[:, q::q] //= prev
                nd[:, q::q] *= factor
                prev = factor
                q, t = q * p, t + 1
    return nd[0], nd[1]


def _sieve_rows(num: np.ndarray, den: np.ndarray, lo: int) -> Iterator[tuple[int, ...]]:
    """(n, num[n], den[n]) for n >= lo, a fixed slice at a time, so no
    Python list spans the whole range."""
    for start in range(lo, len(num), _SLICE):
        stop = start + _SLICE
        nums, dens = num[start:stop].tolist(), den[start:stop].tolist()
        yield from zip(range(start, stop), nums, dens)


def dominance_report(a: int, n: int) -> DominanceReport:
    """Classify one modulus from closed forms."""
    c2 = ratio_c2(a, n).value
    return DominanceReport(a, n, c2, classify(c2))


def dominance_scan(
    a: int,
    n_max: int,
    threshold: Fraction | int | None = None,
) -> Iterator[DominanceReport]:
    """Reports for every n in [2, n_max] coprime to a, ascending, closed
    forms only.  Moduli sharing a factor with a are skipped silently.

    The ratios come from one multiplicative sieve (_ratio_sieve) as integer
    pairs s/d.  With threshold N/M, only n with s*M > d*N (exact, in Python
    integers) are yielded, and only yielded rows get a Fraction and a
    report.  One serial pass, each report yielded as soon as it is built,
    so a consumer can stream them and the output order is deterministic.
    """
    if n_max < 2:
        return
    # with no threshold every (positive) ratio passes: compare against -1
    bar = Fraction(-1 if threshold is None else threshold)
    t_num, t_den = bar.numerator, bar.denominator
    num, den = _ratio_sieve(a, n_max)
    for n, s, d in _sieve_rows(num, den, 2):
        if d and s * t_den > d * t_num:
            c2 = Fraction(s, d)
            yield DominanceReport(a, n, c2, classify(c2))


def _floor_fraction(f: Fraction, digits: int = 12) -> Fraction:
    # rounds toward zero at the given decimal precision, so a lower bound
    # stays a lower bound and the value serializes compactly
    scale = 10**digits
    return Fraction(f.numerator * scale // f.denominator, scale)


def dominance_class_constant(a: int) -> Fraction:
    """The parity/residue-keyed constant of the density lower bound."""
    if a % 2 == 0:
        return Fraction(1)
    r = a % 8
    if r == 1:
        return Fraction(63, 64)
    if r == 5:
        return Fraction(31, 32)
    return Fraction(15, 16)  # a = 3 (mod 4)


def density_report(
    a: int,
    x: int,
    threshold: Fraction | int = 1,
    prime_limit: int = _BOUND_PRIME_LIMIT,
) -> DensityReport:
    """Empirical dominance density among eligible moduli up to x.

    A modulus is eligible when coprime to a with symbol +1 at each of its
    3-mod-4 primes, and dominant when its ratio exceeds the threshold N/M.
    The ratios s/d come from the sieve dominance_scan reads (_ratio_sieve),
    with the moduli of 3-mod-4 primes of symbol -1 zeroed; s*M > d*N is
    counted in Python integers, exact for every rational threshold.  Also
    evaluates the truncated and tail-corrected lower bounds for the
    asymptotic lower density at threshold 1 (both exact rationals, so
    comparisons against them are certified).  At finite x the empirical
    density falls short of them by about the share of balanced moduli; see
    DensityReport.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if x < 2:
        raise ValueError("x must be >= 2")
    threshold = Fraction(threshold)
    t_num, t_den = threshold.numerator, threshold.denominator
    num, den = _ratio_sieve(a, x)
    for p in primes_up_to(x):
        if p % 4 == 3 and _legendre_unchecked(a, p) == -1:
            num[p::p] = den[p::p] = 0
    eligible = int(np.count_nonzero(den[1:]))
    # a zeroed modulus has 0*M > 0*N, false at every threshold
    dominant = sum(s * t_den > d * t_num for _, s, d in _sieve_rows(num, den, 1))
    constant = dominance_class_constant(a)
    ps = [
        p
        for p in primes_up_to(prime_limit)
        if p % 4 == 3 and _legendre_unchecked(a, p) == 1
    ]
    exact_truncated = constant * Fraction(
        math.prod(p * p - 1 for p in ps), math.prod(p * p for p in ps)
    )
    # floor both bounds to 12 decimal places: the exact products carry
    # tens of thousands of digits, and rounding down keeps them certified
    truncated = _floor_fraction(exact_truncated)
    rigorous = _floor_fraction(exact_truncated * (1 - Fraction(1, prime_limit)))
    return DensityReport(
        a=a,
        x=x,
        threshold=threshold,
        eligible_count=eligible,
        dominant_count=dominant,
        empirical_density=Fraction(dominant, eligible),
        class_constant=constant,
        bound_truncated=truncated,
        bound_rigorous=rigorous,
        prime_limit=prime_limit,
    )


def primes_3_mod_4(k: int) -> list[int]:
    """The first k primes congruent to 3 mod 4."""
    out: list[int] = []
    cand = 3
    while len(out) < k:
        if cand % 4 == 3 and is_prime(cand):
            out.append(cand)
        cand += 2
    return out


def primorial_series(a: int, k_max: int, t: int = 2) -> PrimorialReport:
    """Dominance ratios along products of the first k primes = 3 (mod 4).

    a must be a positive perfect square coprime to every prime used, so
    its symbol is +1 at each of them.  Each row carries the ratio at the
    squarefree product (where it grows) and at the t-th power (where it
    shrinks), next to log log of the product.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2")
    root = math.isqrt(a) if a > 0 else -1
    if a <= 0 or root * root != a:
        raise ValueError("a must be a positive perfect square")
    rows: list[PrimorialRow] = []
    primorial = 1
    c_first = Fraction(1)
    c_power = Fraction(1)
    for k, p in enumerate(primes_3_mod_4(k_max), start=1):
        if a % p == 0:
            raise ValueError(f"a = {a} shares the prime factor {p} with the primorial")
        primorial *= p
        c_first *= ratio_c2_pp(a, p, 1)
        c_power *= ratio_c2_pp(a, p, t)
        rows.append(
            PrimorialRow(k, primorial, c_first, c_power, math.log(math.log(primorial)))
        )
    return PrimorialReport(a, t, tuple(rows))


def coverage_check(spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET) -> CoverageReport:
    """Exhaustively attained signed sums versus all of Z/n, for d >= 3."""
    if spec.d < 3:
        raise ValueError("coverage_check requires d >= 3")
    attained = signed_sumset(spec, budget=budget)
    missing = attained.complement()
    guaranteed = all(p > 7 for p, _ in factorize(spec.n).factors)
    return CoverageReport(spec, len(missing) == 0, missing, guaranteed)


def solve_sum_product(b: int, a: int, p: int, t: int = 1) -> tuple[int, int, int]:
    """A unit triple (x1, x2, x3) mod p^t with x1+x2+x3 = b, x1*x2*x3 = a.

    Requires a prime p > 7, where a usable parameter always exists: y is
    scanned upward from 1 until the cubic -4a*y^3 + b^2*y^2 - 2b*y + 1 is
    a nonzero square mod p; its square root then lifts to p^t and the
    quadratic in x is solved directly.  The triple is verified by
    substitution before it is returned.

    Raises:
        ValueError: p is not a prime exceeding 7, or p divides a.
        RuntimeError: the scan or the substitution check failed (cannot
            happen for p > 7).
    """
    if not is_prime(p) or p <= 7:
        raise ValueError("p must be a prime greater than 7")
    if t < 1:
        raise ValueError("exponent t must be >= 1")
    if a % p == 0:
        raise ValueError(f"a = {a} must be a unit modulo {p}")
    q = p**t
    a_q, b_q = a % q, b % q
    a_p, b_p = a % p, b % p
    for y in range(1, p):
        value = (-4 * a_p * y**3 + b_p * b_p * y * y - 2 * b_p * y + 1) % p
        if value and _legendre_unchecked(value, p) == 1:
            break
    else:  # pragma: no cover - impossible for p > 7
        raise RuntimeError(f"no usable parameter found modulo {p}")
    disc_num = (-4 * a_q * y**3 + b_q * b_q * y * y - 2 * b_q * y + 1) % q
    root = sqrt_mod_pp(disc_num, p, t)[0]
    y_inv = pow(y, -1, q)
    s = root * y_inv % q
    x1 = (b_q - y_inv + s) * pow(2, -1, q) % q
    x2 = y_inv
    x3 = (b_q - x1 - x2) % q
    triple = (x1, x2, x3)
    if (
        (x1 + x2 + x3) % q != b_q
        or x1 * x2 * x3 % q != a_q
        or any(v % p == 0 for v in triple)
    ):  # pragma: no cover - guarded by construction
        raise RuntimeError("substitution check failed")
    return triple
