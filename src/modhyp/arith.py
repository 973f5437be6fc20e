"""Exact modular arithmetic kernels.

Primality, factorization, Legendre symbols and square roots modulo prime
powers.  Everything is exact integer arithmetic and every algorithm is
deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PrimeFactorization",
    "euler_phi",
    "factorize",
    "is_prime",
    "legendre",
    "primes_up_to",
    "sqrt_mod_pp",
]

# Miller-Rabin with the first k primes as witnesses is deterministic for
# every n below psi_k (OEIS A014233; Sorenson & Webster, Math. Comp. 86,
# 2017), and psi_k itself is a strong pseudoprime to those k bases, so n
# takes the shortest prefix whose psi_k exceeds it.  The first 13 primes
# reach psi_13 ~ 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PREFIXES = (  # (psi_k, k)
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),  # = psi_8
    (3_825_123_056_546_413_051, 9),  # = psi_10 = psi_11
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (sieve of Eratosthenes)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), sieve))


_TRIAL_PRIMES = primes_up_to(10_000)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)  # the trial primorial, 14,277 bits


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with the shortest proven
    prefix of the first 13 primes as witnesses)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    for bound, k in _MR_PREFIXES:
        if n < bound:
            break
    else:
        raise ValueError(f"{n} exceeds the deterministic witness range")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for w in _MR_WITNESSES[:k]:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pow_mod(b: np.ndarray, e: int, m: int) -> np.ndarray:
    """b^e mod m elementwise, for an int64 array b with 0 <= b < m < 2^31
    and an int e >= 0, so every product stays below 2^62."""
    out, b = np.ones_like(b), b.copy()
    for i in range(e.bit_length()):
        if e >> i & 1:
            out *= b
            out %= m
        b *= b
        b %= m
    return out


def _jacobi(r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The Jacobi symbol (r/m) elementwise, for int64 arrays with odd
    0 < m < 2^31 and 0 <= r < m, in int32 steps (half the cost of int64
    division).  Each step strips the twos of r, where (2/m) = -1 at
    m = 3, 5 (mod 8), then swaps r and m by reciprocity, -1 at
    r = m = 3 (mod 4); bit 1 of s collects the signs.  Remainders lie in
    1..r, so an entry ends at r = m = the gcd of its inputs and stays there
    unguarded: the symbol is 0 unless m = 1."""
    m = m.astype(np.int32)
    r = np.where(r, r, m).astype(np.int32)  # (0/m) is done at once
    s = np.zeros_like(r)
    while (r != m).any():
        low = r & -r
        r //= low
        # low = 2^k with k odd exactly when it sets a bit of 0x2AAAAAAA
        s ^= np.where(low & 0x2AAAAAAA, m ^ m >> 1, 0) ^ r & m
        r, m = (m - 1) % r + 1, r
    return np.where(m == 1, 1 - (s & 2), 0)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, by Brent's cycle method.

    The polynomial increment c is swept deterministically, so repeated
    calls always split n the same way.
    """
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")  # pragma: no cover


@dataclass(frozen=True)
class PrimeFactorization:
    """A positive integer with its canonical prime factorization.

    Factors are (prime, exponent) pairs with strictly increasing primes;
    their product must reassemble n, and each prime is re-checked with the
    deterministic primality test on construction.  ``factorize`` builds its
    results through ``_proven``, as it proves each prime where it finds it.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        prev, acc = 1, 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            acc *= p**e
        if acc != self.n:
            raise ValueError(f"factors reassemble to {acc}, not {self.n}")

    @classmethod
    def _proven(cls, n: int, factors: tuple[tuple[int, int], ...]) -> "PrimeFactorization":
        """The factorization with no checks, for factors the caller has just
        proven prime and multiplied back to n."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "factors", factors)
        return out


@lru_cache(maxsize=1 << 14)
def factorize(n: int) -> PrimeFactorization:
    """Canonical factorization of n >= 1: a gcd with the trial primorial
    (Bernstein, 2004), trial division of that gcd, then Miller-Rabin and
    Brent rho on the rest.  n = 1 yields an empty factor list.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    original = n
    counts: dict[int, int] = {}
    g = math.gcd(n, _TRIAL_PRODUCT)  # each trial prime that divides n, once
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            counts[p] = 0
    if g > 1:  # one trial prime is left, above the square root of g
        counts[g] = 0
    for p in counts:
        while n % p == 0:
            counts[p] += 1
            n //= p
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m in counts or is_prime(m):  # a prime found before is not proven again
                counts[m] = counts.get(m, 0) + 1
            else:
                d = _brent_rho(m)
                stack += [d, m // d]
    return PrimeFactorization._proven(original, tuple(sorted(counts.items())))


def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol of a at the odd prime p: 1, -1, or 0 when p | a."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _legendre_unchecked(a, p)


def _legendre_unchecked(a: int, p: int) -> int:
    # Euler's criterion; caller guarantees p is an odd prime.
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod_odd_prime(a: int, p: int) -> int | None:
    """One square root of a unit a modulo an odd prime p, or None (Tonelli-Shanks)."""
    if _legendre_unchecked(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q = p - 1
    s = (q & -q).bit_length() - 1
    q >>= s
    z = 2
    while _legendre_unchecked(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _check_prime_power(a: int, p: int, t: int) -> None:
    """Refuse t < 1, then a p that is not prime, then an a not a unit at p."""
    if t < 1:
        raise ValueError("exponent t must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if math.gcd(a, p) != 1:
        raise ValueError(f"a = {a} must be a unit at p = {p}")


def sqrt_mod_pp(a: int, p: int, t: int) -> list[int]:
    """All x in [0, p^t) with x^2 = a (mod p^t), for gcd(a, p) = 1.

    Sorted ascending.  Root counts: 0 or 2 for odd p; for p = 2 exactly
    one root at t = 1, two when a = 1 (mod 4) at t = 2, and four when
    a = 1 (mod 8) at t >= 3 (empty otherwise).

    Odd p lifts a Tonelli-Shanks root by Newton iteration; p = 2 lifts
    bit by bit from the residue 1 modulo 8.
    """
    _check_prime_power(a, p, t)
    return _sqrt_mod_pp_unchecked(a, p, t)


def _sqrt_mod_pp_unchecked(a: int, p: int, t: int) -> list[int]:
    # sqrt_mod_pp; caller guarantees p is prime, t >= 1 and gcd(a, p) = 1.
    q = p**t
    a %= q
    if p == 2:
        if t == 1:
            return [1]
        if t == 2:
            return [1, 3] if a % 4 == 1 else []
        if a % 8 != 1:
            return []
        r = 1
        for j in range(3, t):
            if (r * r - a) % (1 << (j + 1)):
                r += 1 << (j - 1)
        half = q >> 1
        return sorted({r, q - r, (r + half) % q, (q - r + half) % q})
    r = _sqrt_mod_odd_prime(a, p)
    if r is None:
        return []
    k = 1
    while k < t:
        k = min(2 * k, t)
        modulus = p**k
        r = (r + (a - r * r) * pow(2 * r, -1, modulus)) % modulus
    return sorted({r, q - r})
