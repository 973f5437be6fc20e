import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import factorint as sympy_factorint
from sympy import jacobi_symbol as sympy_jacobi_symbol
from sympy import nextprime as sympy_nextprime
from sympy import prevprime as sympy_prevprime
from sympy import primerange as sympy_primerange
from sympy.functions.combinatorial.numbers import legendre_symbol as sympy_legendre_symbol
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

import modhyp.arith as arith
from modhyp.arith import (
    PrimeFactorization,
    _jacobi,
    euler_phi,
    factorize,
    is_prime,
    legendre,
    primes_up_to,
    sqrt_mod_pp,
)

ODD_PRIMES_100 = [p for p in primes_up_to(100) if p > 2]


def prime_powers_up_to(bound):
    out = []
    for p in primes_up_to(bound):
        q, t = p, 1
        while q <= bound:
            out.append((p, t, q))
            q *= p
            t += 1
    return out


# ---------------------------------------------------------------- factorize


def test_factorize_examples():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_roundtrip_exhaustive():
    # spf-style independent expected factorization for every n below the bound
    limit = 20_000
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(1, limit + 1):
        expected = {}
        m = n
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            expected[p] = e
        assert factorize(n).factors == tuple(sorted(expected.items()))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reassembles(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac.factors) == n


def test_factorize_large_semiprime():
    n = 1_000_003 * 1_000_033
    assert factorize(n).factors == ((1_000_003, 1), (1_000_033, 1))


def test_prime_factorization_validates():
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((3, 1), (2, 2)))  # out of order
    with pytest.raises(ValueError):
        PrimeFactorization(8, ((8, 1),))  # not prime
    with pytest.raises(ValueError, match="^n must be positive$"):
        PrimeFactorization(0, ())
    with pytest.raises(ValueError, match="^exponent of 2 must be >= 1$"):
        PrimeFactorization(1, ((2, 0),))


def test_factorize_proves_each_factor_once(monkeypatch):
    # 10007 and the 32-bit primes are proven by Miller-Rabin, 9973 by the
    # trial primorial; the result is not proven a second time
    calls = []

    def counted(m):
        calls.append(m)
        return is_prime.__wrapped__(m)

    monkeypatch.setattr(arith, "is_prime", counted)
    n = 4294967291 * 4294967279 * 10007 * 9973
    fac = factorize.__wrapped__(n)
    assert fac.factors == ((9973, 1), (10007, 1), (4294967279, 1), (4294967291, 1))
    assert len(calls) == 5
    assert fac == PrimeFactorization(n, fac.factors)
    assert len(calls) == 9  # the checked constructor proves all four again
    semiprime = 4294967291 * 4294967279
    with pytest.raises(ValueError, match=f"^{semiprime} is not prime$"):
        PrimeFactorization(semiprime, ((semiprime, 1),))


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert euler_phi(2304) == 768
    for n in range(2, 200):
        assert euler_phi(n) == sum(1 for a in range(1, n) if math.gcd(a, n) == 1)


# ---------------------------------------------------------------- legendre


def test_legendre_examples():
    for p in ODD_PRIMES_100:
        assert legendre(1, p) == 1
    assert legendre(2, 7) == 1  # 3^2 = 2 (mod 7)
    assert legendre(14, 7) == 0


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, 15, 1):
        with pytest.raises(ValueError):
            legendre(3, p)


def test_legendre_matches_square_sets():
    for p in ODD_PRIMES_100:
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected


def test_legendre_completely_multiplicative():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]:
        for a in range(1, p):
            for b in range(1, p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_character_sum_identity():
    # sum over i of the symbol of (i^2 - a) is -1, for every unit a
    for p in ODD_PRIMES_100:
        for a in range(1, p):
            assert sum(legendre(i * i - a, p) for i in range(p)) == -1


# ---------------------------------------------------------------- squares mod p^t


def test_sqrt_examples():
    assert sqrt_mod_pp(2, 7, 1) == [3, 4]
    assert sqrt_mod_pp(17, 2, 5) == [7, 9, 23, 25]
    assert sqrt_mod_pp(3, 5, 2) == []


def test_sqrt_rejects_shared_factor():
    with pytest.raises(ValueError, match="^a = 10 must be a unit at p = 5$"):
        sqrt_mod_pp(10, 5, 2)


def test_sqrt_rejects_exponent_below_one():
    with pytest.raises(ValueError, match="exponent t must be >= 1"):
        sqrt_mod_pp(3, 7, 0)


def test_sqrt_vs_exhaustive():
    for p, t, q in prime_powers_up_to(2000):
        roots_of = {}
        for x in range(q):
            roots_of.setdefault(x * x % q, []).append(x)
        for a in range(1, q):
            if math.gcd(a, p) != 1:
                continue
            got = sqrt_mod_pp(a, p, t)
            assert got == sorted(roots_of.get(a, []))
            if p == 2:
                assert len(got) in ((1,) if t == 1 else (0, 2) if t == 2 else (0, 4))
            else:
                assert len(got) in (0, 2)


def test_sqrt_sampled_large_prime_powers():
    rng = random.Random(11)
    for p, t, q in prime_powers_up_to(10_000):
        if q <= 2000:
            continue
        for _ in range(24):
            a = rng.randrange(1, q)
            if math.gcd(a, p) != 1:
                continue
            got = sqrt_mod_pp(a, p, t)
            for r in got:
                assert r * r % q == a % q
            if got:
                # both signs present, and count matches the stated contract
                assert (q - got[0]) % q in got
                assert len(got) == (4 if p == 2 and t >= 3 else 2 if not (p == 2 and t == 1) else 1)


def test_is_prime_edges():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    carmichael = 561
    assert not is_prime(carmichael)


def test_psi12_is_composite():
    # psi_12: the least strong pseudoprime to the first 12 prime bases
    psi12 = 318665857834031151167461
    assert is_prime(psi12) is False
    assert factorize(psi12).factors == ((399165290221, 1), (798330580441, 1))


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233), for every k at which is_prime switches to a longer prefix
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_every_psi_is_composite():
    for psi in _PSI[:-1]:
        assert is_prime(psi) is False, psi
        assert len(factorize(psi).factors) > 1, psi
    with pytest.raises(ValueError, match="witness range"):
        is_prime(_PSI[-1])  # past the 13-base range, refused rather than guessed


def test_primes_up_to_is_a_list_of_ints():
    for limit in (-1, 0, 1, 2, 3, 4, 97, 10**5):
        primes = primes_up_to(limit)
        assert type(primes) is list and all(type(p) is int for p in primes)
        assert primes == list(sympy_primerange(limit + 1)), limit


def test_is_prime_matches_sieve():
    limit = 10**6
    flags = bytearray(limit + 1)
    for p in primes_up_to(limit):
        flags[p] = 1
    assert all(is_prime.__wrapped__(n) == bool(flags[n]) for n in range(limit + 1))


def test_is_prime_matches_sympy_on_64_bit_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(64)
    cases = [rng.getrandbits(64) | 1 for _ in range(3000)]
    cases += [sympy.nextprime(rng.getrandbits(64)) for _ in range(300)]
    cases += [psi + d for psi in _PSI for d in range(-40, 41, 2) if psi + d < _PSI[-1]]
    cases += [sympy.prevprime(psi) for psi in _PSI]  # the last prime each prefix proves
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


# ---------------------------------------------------------------- differential: sympy

# factorize, legendre and sqrt_mod_pp against sympy's factorint,
# legendre_symbol and sqrt_mod, up to the 13-base witness range and past it
_PSI12, _PSI13 = _PSI[-2], _PSI[-1]


def _chernick(k):
    # (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when all three are prime
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


# 1729, the largest Chernick numbers below 2^64, psi_12 and psi_13, and the first above psi_13
_CARMICHAEL = (561, 1105, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 3215031751)
_CARMICHAEL += tuple(_chernick(k) for k in (1, 242160, 6264765, 13678205))
_CARMICHAEL_PAST_PSI13 = _chernick(13679106)


def _sympy_factors(n):
    return tuple(sorted((int(p), e) for p, e in sympy_factorint(n).items()))


def _trial_cofactor(n):
    # what factorize leaves for Miller-Rabin after its trial division, except
    # where this loop stops early at p^2 > n: it then leaves 1 or a prime below
    # 10^8, and factorize strips that prime too if it is below 10^4.  So the two
    # agree whenever either is at or above psi_13.
    for p in primes_up_to(10_000):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
    return n


def _primes_below(bound):
    return st.integers(min_value=3, max_value=bound - 1).map(sympy_prevprime)


_PRIMES = st.one_of(
    st.sampled_from([2, *ODD_PRIMES_100]),
    _primes_below(2**64),
    _primes_below(_PSI12),
    _primes_below(_PSI13),
    st.just(sympy_prevprime(_PSI13)),
)


def _product_below_psi13(primes):
    # prime powers and mixed sizes: each prime joins while the product stays in range
    n = 1
    for p in primes:
        if n * p < _PSI13:
            n *= p
    return n


def test_carmichael_numbers_are_carmichael():
    # Korselt's criterion, from sympy's factorization: squarefree, and p - 1 | n - 1
    for n in (*_CARMICHAEL, _CARMICHAEL_PAST_PSI13):
        factors = sympy_factorint(n)
        assert len(factors) >= 3 and set(factors.values()) == {1}, n
        assert all((n - 1) % (p - 1) == 0 for p in factors), n


@pytest.mark.parametrize("n", _CARMICHAEL)
def test_factorize_carmichael_matches_sympy(n):
    assert is_prime(n) is False
    assert factorize(n).factors == _sympy_factors(n)
    with pytest.raises(ValueError, match="not an odd prime"):
        legendre(2, n)
    with pytest.raises(ValueError, match="not prime"):
        sqrt_mod_pp(2, n, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=_PSI12 - 10**6, max_value=_PSI12 - 1),
        st.integers(min_value=_PSI13 - 10**6, max_value=_PSI13 - 1),
        st.lists(_PRIMES, min_size=1, max_size=8).map(_product_below_psi13),
    )
)
def test_factorize_matches_sympy(n):
    assert factorize(n).factors == _sympy_factors(n)


_TRIAL_PRIMORIAL = math.prod(primes_up_to(10_000))


@pytest.mark.parametrize(
    "n",
    [
        9973,  # the largest trial prime, alone and as a power
        9973**2,
        9973**5 * 10007,  # and with the first prime past the trial bound
        10007**2,
        _TRIAL_PRIMORIAL,  # the gcd stays above p^2 until the last trial prime
        _TRIAL_PRIMORIAL**2,
        2**4000 * 9973**300,  # 10^4-smooth, about 2,400 digits
    ],
    ids=["9973", "9973^2", "9973^5*10007", "10007^2", "primorial", "primorial^2", "smooth"],
)
def test_factorize_trial_division_matches_sympy(n):
    assert factorize(n).factors == _sympy_factors(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=_PSI13, max_value=2**128))
@example(_PSI13)
@example(_CARMICHAEL_PAST_PSI13)
@example(sympy_nextprime(_PSI13))
def test_refusal_at_or_above_psi13(n):
    cofactor = _trial_cofactor(n)
    if cofactor >= _PSI13:
        with pytest.raises(ValueError, match="witness range"):
            factorize(n)
    else:
        assert factorize(n).factors == _sympy_factors(n)
    if all(n % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)):
        for call in (lambda: is_prime(n), lambda: legendre(3, n), lambda: sqrt_mod_pp(3, n, 1)):
            with pytest.raises(ValueError, match="witness range"):
                call()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(10**30), max_value=10**30), _PRIMES.filter(lambda p: p > 2))
def test_legendre_matches_sympy(a, p):
    assert legendre(a, p) == sympy_legendre_symbol(a, p)


def _jacobi_of(pairs):
    r, m = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return _jacobi(r, m).tolist()


def test_jacobi_kernel_exhaustive_small():
    # every 0 <= r < m for odd m < 200: m = 1, r = 0 and gcd(r, m) > 1 included
    pairs = [(r, m) for m in range(1, 200, 2) for r in range(m)]
    assert _jacobi_of(pairs) == [sympy_jacobi_symbol(r, m) for r, m in pairs]


# whole arrays, so entries leave the kernel's loop at different steps
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**31), st.integers(0, 2**30 - 1)),
        min_size=1,
        max_size=40,
    )
)
@example([(2**31 - 2, 2**30 - 1), (0, 0), (2**30, 2**29 + 1)])
def test_jacobi_kernel_matches_sympy(draws):
    pairs = [(r % (2 * h + 1), 2 * h + 1) for r, h in draws]
    assert _jacobi_of(pairs) == [sympy_jacobi_symbol(r, m) for r, m in pairs]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-(10**6), max_value=_PSI13 - 1))
def test_legendre_refuses_what_sympy_refuses(n):
    a = 5
    try:
        expected = sympy_legendre_symbol(a, n)
    except ValueError:
        with pytest.raises(ValueError):
            legendre(a, n)
    else:
        assert legendre(a, n) == expected


@settings(max_examples=200, deadline=None)
@given(_PRIMES, st.integers(min_value=1, max_value=6), st.integers(min_value=-(10**30), max_value=10**30))
def test_sqrt_mod_pp_matches_sympy(p, t, a):
    assume(a % p)
    assert sqrt_mod_pp(a, p, t) == sorted(sympy_sqrt_mod(a, p**t, all_roots=True))
