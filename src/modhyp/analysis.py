"""Dominance scans and the higher-level studies built on the closed forms:
empirical dominance density against its certified lower bound, ratio growth
along primorials of 3-mod-4 primes, full-coverage checks in dimension
three and up, a constructive solver for unit triples with prescribed
sum and product, and the sweep that checks the closed forms against the
enumeration oracle.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .arith import _TRIAL_PRIMES, _jacobi, _sqrt_mod_pp_unchecked, _units
from .arith import factorize, is_prime, primes_up_to
from .cardinality import _FULL_COVERAGE_ABOVE, _counts, _counts_array
from .hyperbola import (
    _TABLE_LIMIT,
    DEFAULT_BUDGET,
    HyperbolaSpec,
    ResidueSet,
    _check_table_modulus,
    signed_sumset,
    sum_diff_cardinalities,
)

__all__ = [
    "BALANCED",
    "CoverageReport",
    "DensityReport",
    "DIFFERENCE_DOMINANT",
    "DominanceWindow",
    "PrimorialReport",
    "PrimorialRow",
    "SUM_DOMINANT",
    "classify",
    "coverage_check",
    "density_report",
    "dominance_class_constant",
    "dominance_scan",
    "primes_3_mod_4",
    "primorial_series",
    "solve_sum_product",
    "verify_sweep",
]

SUM_DOMINANT = "sum-dominant"
DIFFERENCE_DOMINANT = "difference-dominant"
BALANCED = "balanced"
# the dominance classes, indexed by the sign of num - den plus one
_CLASSES = (DIFFERENCE_DOMINANT, BALANCED, SUM_DOMINANT)

_BOUND_PRIME_LIMIT = 100_000
_WINDOW = 1 << 13  # moduli per ratio sieve window
_SIEVE_LIMIT = 2**31  # _ratio_sieve's int32 entries hold every n below it
# the largest period _symbols tabulates.  With a' just under it the table costs
# density and scan 4-6 ms more than the kernel at each modulus for x <= 2 * 10^4,
# and saves density 11-14 ms at x = 3.5 * 10^5, where 5 * 10^4 moduli reach the
# kernel; a table of 2^18 costs 25 ms and still loses there (2-core host)
_SYMBOL_TABLE_LIMIT = 1 << 16
_SMALL_SWEEP_ALL_A = 300  # below this n the verify sweep checks every unit a
_SWEEP_SAMPLES = 20
_SWEEP_SEED = 0x5EED


class DominanceWindow(NamedTuple):
    """The rows dominance_scan keeps from one sieve window, an immutable
    named tuple of parallel lists: row i is the modulus n[i], ascending,
    with c2(a; n[i]) = num[i]/den[i] in lowest terms (den[i] > 0) and its
    classification[i], one of the names classify returns.  A window whose
    moduli are all skipped or filtered out has empty lists."""

    a: int
    n: list[int]
    num: list[int]
    den: list[int]
    classification: list[str]


class DensityReport(NamedTuple):
    """Empirical dominance density among eligible moduli, and lower bounds,
    an immutable named tuple.

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


class PrimorialRow(NamedTuple):
    """One step of the primorial ratio series."""

    k: int
    primorial: int
    ratio_first_power: Fraction
    ratio_power_t: Fraction
    loglog: float


class PrimorialReport(NamedTuple):
    a: int
    t: int
    rows: tuple[PrimorialRow, ...]


class CoverageReport(NamedTuple):
    """Which residues the signed sumset attains, for d >= 3.

    guaranteed is True when every prime factor of n is past the threshold
    of full coverage (cardinality), so that missing must be empty.
    """

    spec: HyperbolaSpec
    covered: bool
    missing: ResidueSet
    guaranteed: bool


def classify(c2: Fraction) -> str:
    """Dominance class of an exact ratio: above, at, or below 1.  The
    denominator of a Fraction is positive, so the integers decide."""
    num, den = c2.numerator, c2.denominator
    return _CLASSES[(num > den) - (num < den) + 1]


def _residues(a: int, m: np.ndarray) -> np.ndarray:
    """a mod m elementwise (int64, 0 < m < 2^31), exact for an a of any
    size: Horner's rule over the 30-bit limbs of |a|, each step below 2^62."""
    limbs = []
    rest = abs(a)
    while rest:
        limbs.append(rest & (1 << 30) - 1)
        rest >>= 30
    r = np.zeros_like(m)
    for limb in reversed(limbs):
        r = ((r << 30) + limb) % m
    return -r % m if a < 0 else r


@lru_cache(maxsize=16)
def _symbols(a: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(a/P) as a function of the int64 arrays a mod P and P, for odd primes
    P < 2^31 not dividing a.  With a' = a over the squares of the trial
    primes, (a/P) = (a'/P) depends only on P mod 4|a'| (reciprocity for the
    Jacobi symbol): a period up to _SYMBOL_TABLE_LIMIT is tabulated once,
    at its odd residues, and a longer one runs the kernel at each P."""
    core = a
    for p in _TRIAL_PRIMES:
        while core and core % (p * p) == 0:  # a = 0 needs no symbol
            core //= p * p
    period = 4 * abs(core)
    if not 0 < period <= _SYMBOL_TABLE_LIMIT:
        return _jacobi
    odd = np.arange(1, period, 2)
    table = _jacobi(core % odd, odd)
    return lambda r, p: table[(p % period) >> 1]


def _prime_ratios(a: int, primes: np.ndarray, eligible: bool) -> tuple[np.ndarray, np.ndarray]:
    """ratio_c2_pp(a, P, 1) at each prime P of an int64 array (P < 2^31),
    as the reduced pairs (num, den).

    (0, 0) where P | a.  A prime P = 3 (mod 4) gives ((P + e)/2, (P - e)/2)
    with e its Legendre symbol at a (_symbols), every other prime (1, 1).
    With eligible set, e = -1 gives (0, 0) as well.
    """
    r = _residues(a, primes)
    num = (r != 0).astype(np.int64)
    den = num.copy()
    k = np.flatnonzero((primes & 3 == 3) & (r != 0))
    p = primes[k]
    e = _symbols(a)(r[k], p)
    num[k], den[k] = (p + e) >> 1, (p - e) >> 1
    if eligible:
        num[k[e < 0]] = den[k[e < 0]] = 0
    return num, den


def _column(pair: tuple[int, int], p: int) -> np.ndarray:
    # the (3, 1) int32 column that scales a window's numerators and
    # denominators by the ratio num/den and its smooth parts by p
    return np.array([[pair[0]], [pair[1]], [p]], dtype=np.int32)


def _multiples(primes: np.ndarray, start: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets in start..start+size-1 of the multiples of every prime
    (int32), each with the index of its prime."""
    first = -start % primes
    count = (size - first + primes - 1) // primes
    owner = np.repeat(np.arange(len(primes), dtype=np.int32), count)
    offset = np.arange(len(owner), dtype=np.int32)
    offset -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    offset *= primes[owner]
    offset += first[owner]
    return offset, owner


def _ratio_sieve(
    a: int, x: int, lo: int = 1, eligible: bool = False
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """c2(a; n) = num[i] / den[i] at n = start + i, for every n in lo..x,
    from closed forms, one window (start, num, den) of _WINDOW moduli at a
    time, so memory is O(sqrt(x) + _WINDOW).

    num and den are int32: 0 where gcd(a, n) > 1, else the products of the
    reduced numerators and denominators of the ratios at the prime powers
    of n, so no entry exceeds n.  With eligible set, the moduli divisible
    by a prime p = 3 (mod 4) of Legendre symbol -1 at a are 0 as well.

    Only the primes p <= sqrt(x) read the class counts (_counts), once
    per p^t <= x before the first window.  In each window every multiple of
    p^t trades the ratio at p^(t-1) for that at p^t (exact division first)
    and gains a factor p in its smooth part: one scatter for all primes with
    few multiples per window at t = 1, a strided update per prime power else.
    What is left of n over its smooth part is 1 or one prime P > sqrt(x)
    to the first power, whose factor _prime_ratios applies to the whole
    window at once.
    """
    if x >= _SIEVE_LIMIT:
        raise ValueError(f"range bound {x} must be below 2^31 (the ratio sieve is int32)")
    scattered = []  # (num, den, p): the ratio at each prime p >= dense, and p
    strided = []  # (p^t, divisor or None, multiplier) for the other powers, in order
    dense = _WINDOW >> 7  # below it a prime has over 128 multiples a window: stride them
    small = np.array(primes_up_to(math.isqrt(x)), dtype=np.int64)
    for p, den in zip(small.tolist(), _prime_ratios(a, small, eligible)[1].tolist()):
        if den == 0:
            pairs = [(0, 0)]  # p kills its multiples
        else:
            pairs, q = [], p
            while q <= x:
                pairs.append(Fraction(*_counts(a, p, len(pairs) + 1)).as_integer_ratio())
                q *= p
        if p < dense:
            strided.append((p, None, _column(pairs[0], p)))
        else:
            scattered.append((*pairs[0], p))
        for t in range(1, len(pairs)):
            divisor = None if pairs[t - 1] == (1, 1) else _column(pairs[t - 1], 1)
            strided.append((p ** (t + 1), divisor, _column(pairs[t], p)))
    columns = np.array(scattered, dtype=np.int32).reshape(-1, 3).T
    moduli = np.array([q for q, _, _ in strided], dtype=np.int64)
    for start in range(lo, x + 1, _WINDOW):
        size = min(_WINDOW, x + 1 - start)
        block = np.ones((3, size), dtype=np.int32)  # numerators, denominators, smooth parts
        at, owner = _multiples(columns[2], start, size)
        for row, column in zip(block, columns):
            np.multiply.at(row, at, column[owner])
        for i in np.flatnonzero(-start % moduli < size).tolist():
            q, divisor, multiplier = strided[i]
            first = -start % q
            if divisor is not None:
                block[:, first::q] //= divisor
            block[:, first::q] *= multiplier
        live = np.flatnonzero(block[1])
        rest = (live + start) // block[2, live]
        large = rest > 1
        num, den = _prime_ratios(a, rest[large], eligible)
        live = live[large]
        block[0, live] *= num
        block[1, live] *= den
        yield start, block[0], block[1]


def _above(threshold: Fraction, x: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The mask of sieve entries with d > 0 and s/d > threshold, exact in
    int64 for entries s, d <= x < 2^31.

    With k = floor(threshold), f = threshold - k and p/q = the fraction
    closest to f with q <= x (Fraction.limit_denominator), no fraction with
    denominator <= x lies strictly between p/q and f.  So for
    e = clip(s - k*d, 0, d), e/d > f iff e*q > d*p when p/q <= f, and iff
    e*q >= d*p, that is e*q + 1 > d*p, when p/q > f.  Every product stays
    below 2^62.  A negative threshold passes every live entry, and one of x
    or more passes none (s/d <= n <= x).
    """
    if threshold < 0:
        return lambda s, d: d > 0
    k = math.floor(threshold)
    if k >= x:
        return lambda s, d: np.zeros(len(d), dtype=bool)
    near = (threshold - k).limit_denominator(x)
    p, q, tie = near.numerator, near.denominator, int(near > threshold - k)

    def mask(s: np.ndarray, d: np.ndarray) -> np.ndarray:
        d = d.astype(np.int64)
        e = np.clip(s - k * d, 0, d)
        return (d > 0) & (e * q + tie > d * p)

    return mask


def dominance_scan(
    a: int,
    n_max: int,
    threshold: Fraction | int | None = None,
    skipped: list[int] | None = None,
) -> Iterator[DominanceWindow]:
    """The ratios of every n in [2, n_max] coprime to a, ascending, closed
    forms only, as one DominanceWindow per sieve window of _WINDOW moduli.
    Moduli sharing a factor with a are skipped silently; when a list is
    given as skipped, the count of those in each sieve window is appended
    to it.

    The ratios come from the windowed multiplicative sieve (_ratio_sieve)
    as integer pairs s/d.  With a threshold, only n with s/d above it are
    kept, selected by one exact int64 comparison (_above).  Each window's
    kept pairs are reduced by np.gcd and classified by the sign of s - d,
    in numpy: no Fraction is built.  One serial pass, each window yielded
    as soon as it is sieved, so a consumer can stream them and the output
    order is deterministic.
    """
    if n_max < 2:
        return
    # with no threshold every (positive) ratio passes: compare against -1
    above = _above(Fraction(-1 if threshold is None else threshold), n_max)
    for start, num, den in _ratio_sieve(a, n_max, lo=2):
        if skipped is not None:
            skipped.append(len(den) - int(np.count_nonzero(den)))
        rows = np.flatnonzero(above(num, den))
        s, d = num[rows], den[rows]
        g = np.gcd(s, d)
        s //= g
        d //= g
        classes = np.array(_CLASSES, dtype=object)[np.sign(s - d) + 1]
        yield DominanceWindow(
            a, (rows + start).tolist(), s.tolist(), d.tolist(), classes.tolist()
        )


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
    The ratios s/d come window by window from the ratio sieve (_ratio_sieve),
    as dominance_scan's do, with the moduli of 3-mod-4 primes of symbol -1
    zeroed, and are counted with the exact int64 comparison that selects
    dominance_scan's rows (_above).  Also evaluates the truncated and
    tail-corrected lower bounds for the asymptotic lower density at
    threshold 1 (exact rationals floored to 12 decimals, so comparisons
    against them are certified).  At finite x the empirical density falls
    short of them by about the share of balanced moduli; see DensityReport.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if x < 2:
        raise ValueError("x must be >= 2")
    threshold = Fraction(threshold)
    above = _above(threshold, x)
    eligible = dominant = 0
    for _, num, den in _ratio_sieve(a, x, eligible=True):
        eligible += int(np.count_nonzero(den))
        dominant += int(np.count_nonzero(above(num, den)))
    constant = dominance_class_constant(a)
    primes = np.array(primes_up_to(prime_limit), dtype=np.int64)
    primes = primes[primes & 3 == 3]
    ps = primes[_prime_ratios(a, primes, True)[1] > 0].tolist()  # symbol +1
    # V = constant * prod (1 - 1/p^2) in fixed point: each of the len(ps) + 1
    # floors loses under one unit, and the later factors, all below 1, only
    # shrink what was lost, so lo <= V * 2^128 < lo + len(ps) + 1
    lo = (constant.numerator << 128) // constant.denominator
    for p in ps:
        lo = lo * (p * p - 1) // (p * p)
    scale = 10**12

    def floors(num: int, den: int) -> tuple[int, int]:
        # the 12-decimal floors of num/den and of num/den * (1 - 1/prime_limit)
        return num * scale // den, num * scale * (prime_limit - 1) // (den * prime_limit)

    bounds = {floors(lo, 1 << 128), floors(lo + len(ps) + 1, 1 << 128)}
    if len(bounds) > 1:  # the ends straddle a 12-decimal number: by chance once in 2^75
        # at the default prime_limit, so in practice a bound is that number (at a = 1009,
        # prime_limit = 50 the rigorous one is 21/25); the exact products settle it
        num = constant.numerator * math.prod(p * p - 1 for p in ps)
        bounds = {floors(num, constant.denominator * math.prod(p * p for p in ps))}
    truncated, rigorous = (Fraction(f, scale) for f in bounds.pop())
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


def _too_long(p: int, e: int) -> int:
    """The int-to-str digit limit if p^e (p >= 2, e >= 0) has more digits,
    else 0.  p^e and 10^limit are formed only within a digit of the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 = none, before Python 3.10.7
    size = e * math.log10(p)  # log10(p^e), off by far less than a digit
    return limit if limit and size > limit - 1 and (size > limit + 1 or p**e >= 10**limit) else 0


def primes_3_mod_4(k: int) -> Iterator[int]:
    """The first k primes congruent to 3 mod 4, generated on demand."""
    cand = 3
    while k > 0:
        if is_prime(cand):
            yield cand
            k -= 1
        cand += 4


def primorial_series(a: int, k_max: int, t: int = 2) -> PrimorialReport:
    """Dominance ratios along products of the first k primes = 3 (mod 4).

    a must be a positive perfect square coprime to every prime used, so
    its symbol is +1 at each of them.  Each row carries the ratio at the
    squarefree product (where it grows) and at the t-th power (where it
    shrinks), next to log log of the product.  A row with an integer past
    ``sys.get_int_max_str_digits()``, which could not be printed, is refused.
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
        # row 1's ratio at 3^t has the denominator 3^(t-1): refuse it unformed
        if k == 1 and (limit := _too_long(p, t - 1)):
            raise ValueError(f"row k = 1 holds an integer of over {limit} digits, too long to print")
        primorial *= p
        c_first *= Fraction(*_counts(a, p, 1))
        c_power *= Fraction(*_counts(a, p, t))
        largest = max(primorial, *c_first.as_integer_ratio(), *c_power.as_integer_ratio())
        if limit := _too_long(largest, 1):
            raise ValueError(
                f"row k = {k} holds an integer of over {limit} digits, too long to print"
            )
        rows.append(
            PrimorialRow(k, primorial, c_first, c_power, math.log(math.log(primorial)))
        )
    return PrimorialReport(a, t, tuple(rows))


def coverage_check(spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET) -> CoverageReport:
    """Exhaustively attained signed sums versus all of Z/n, for d >= 3.
    guaranteed: every prime of n exceeds _FULL_COVERAGE_ABOVE, where
    solve_sum_product's docstring proves full coverage."""
    if spec.d < 3:
        raise ValueError("coverage_check requires d >= 3")
    attained = signed_sumset(spec, budget=budget)
    missing = attained.complement()
    guaranteed = all(p > _FULL_COVERAGE_ABOVE for p, _ in factorize(spec.n).factors)
    return CoverageReport(spec, len(missing) == 0, missing, guaranteed)


def solve_sum_product(b: int, a: int, p: int, t: int = 1) -> tuple[int, int, int]:
    """A unit triple (x1, x2, x3) mod p^t with x1+x2+x3 = b, x1*x2*x3 = a,
    verified by substitution before it is returned.

    It exists for every unit a and every b at each prime p > 7
    (_FULL_COVERAGE_ABOVE), which proves that for d >= 3 the signed sumset
    is all of Z/p^t there:
    - Signs and dimension.  Negating x_i flips its sign and the sign of a,
      so each m is the all-plus problem at +-a; for d > 3, x_4 = ... = x_d
      = 1 leaves the d = 3 problem at b - (d - 3).
    - The witness.  With x2 = 1/y, x1 and x3 are the roots of
      X^2 - (b - 1/y)X + a*y, of discriminant f(y)/y^2 with
      f(y) = (b*y - 1)^2 - 4a*y^3.  A y in F_p* with f(y) a nonzero square
      gives a unit triple mod p (x1*x3 = a*y), and Hensel lifts the root to
      p^t.  y is scanned upward from 1.
    - p >= 13.  If f is squarefree, z^2 = f(y) is an elliptic curve with at
      least p - 2*sqrt(p) > 5 affine points (Hasse; Silverman, The
      Arithmetic of Elliptic Curves, V.1.1); at most 3 have z = 0 and 2
      have y = 0, since f(0) = 1.  If f = -4a(y - r)^2(y - s), each y not 0
      or r with -4a(y - s) a nonzero square works: (p - 1)/2 - 2 or more.
    - p = 11.  The scan reads a and b mod p only, and
      test_solver_all_pairs_mod_11 exhausts them.
    At p = 7 the rule fails (criterion 07's counterexamples).

    Raises:
        ValueError: p is not a prime exceeding 7, p divides a, or p^t has
            over ``sys.get_int_max_str_digits()`` digits, too long to print.
        RuntimeError: the scan or the substitution check failed (cannot
            happen, by the argument above).
    """
    if not is_prime(p) or p <= _FULL_COVERAGE_ABOVE:
        raise ValueError(f"p must be a prime greater than {_FULL_COVERAGE_ABOVE}")
    if t < 1:
        raise ValueError("exponent t must be >= 1")
    if a % p == 0:
        raise ValueError(f"a = {a} must be a unit modulo {p}")
    if limit := _too_long(p, t):
        raise ValueError(f"modulus {p}^{t} has over {limit} digits, too long to print")
    q = p**t
    a_q, b_q = a % q, b % q
    for y in range(1, p):
        disc = (-4 * a_q * y**3 + b_q * b_q * y * y - 2 * b_q * y + 1) % q
        if disc % p and (roots := _sqrt_mod_pp_unchecked(disc, p, t)):
            break
    else:  # pragma: no cover - impossible, by the argument above
        raise RuntimeError(f"no usable parameter found modulo {p}")
    y_inv = pow(y, -1, q)
    s = roots[0] * y_inv % q
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


def _mismatches(n: int, a: np.ndarray, where: str) -> list[str]:
    """A line for each unit of the array a where the closed forms disagree
    with the oracle at n: |S| and |D| at a are the products over the prime
    powers p^t of n of the sumset and difference set counts at a."""
    pairs = [_counts_array(a, p, t) for p, t in factorize(n).factors]
    s, d = np.prod(pairs, axis=0)
    sums, diffs = sum_diff_cardinalities(n, a)
    return [
        f"mismatch at a={a[i]}, {where} ({s[i]}, {d[i]}) vs oracle ({sums[i]}, {diffs[i]})"
        for i in np.flatnonzero((s != sums) | (d != diffs)).tolist()
    ]


def verify_sweep(max_pp: int, max_n: int | None = None) -> Iterator[tuple[int, int, list[str]]]:
    """Check the planar closed forms against the enumeration oracle.

    The prime-power phase (0) compares the closed-form pair _counts_array
    with the oracle's |S| and |D| at every unit a of each prime power <= max_pp.
    The composite phase (1) compares their products over the prime powers
    of n for every n in [2, max_n]: at every unit a up to n = 300, above it
    at 20 units drawn from one seeded stream in ascending n.  Yields one
    record (phase, cases, mismatch lines) per modulus, every prime power
    ascending, then every composite n.  Each modulus is checked with whole
    arrays: the class of each a indexes the closed-form counts, and the
    oracle counts only the rows of the units checked.

    A modulus over the 8192 table limit is refused (ValueError) before any
    check.
    """
    pp = {}  # every prime power q <= max_pp, with its (p, t)
    # a larger bound has a prime in (8192, 16384] (Bertrand) and is refused
    for p in primes_up_to(min(max_pp, 2 * _TABLE_LIMIT)):
        q, t = p, 1
        while q <= max_pp:
            pp[q] = p, t
            q, t = q * p, t + 1
    max_n = max_n or 0
    # refuse an over-limit sweep before computing any of it
    if pp:
        _check_table_modulus(max(pp))
    if max_n >= 2:
        _check_table_modulus(max_n)
    for q, (p, t) in sorted(pp.items()):
        a = _units(q)
        yield 0, len(a), _mismatches(q, a, f"q={p}^{t}: closed form")
    rng = random.Random(_SWEEP_SEED)
    for n in range(2, max_n + 1):
        a = _units(n)
        if n > _SMALL_SWEEP_ALL_A:
            # sample's choices depend only on the population's length, so
            # drawing indices picks what drawing from the list would
            a = np.sort(a[rng.sample(range(len(a)), min(_SWEEP_SAMPLES, len(a)))])
        yield 1, len(a), _mismatches(n, a, f"n={n}: composed")
