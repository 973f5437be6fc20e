import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import modhyp.analysis as analysis
import modhyp.arith as arith
import modhyp.cardinality as cardinality
from modhyp.analysis import (
    BALANCED,
    DIFFERENCE_DOMINANT,
    SUM_DOMINANT,
    CoverageReport,
    DensityReport,
    DominanceWindow,
    PrimorialReport,
    PrimorialRow,
    classify,
    coverage_check,
    density_report,
    dominance_class_constant,
    dominance_scan,
    primes_3_mod_4,
    primorial_series,
    solve_sum_product,
)
from modhyp.arith import _jacobi, factorize, is_prime, legendre, primes_up_to
from modhyp.cardinality import (
    METHOD_FULL_COVERAGE,
    card_S2_pp,
    card_signed_sumset,
    ratio_c2,
    ratio_c2_pp,
)
from modhyp.hyperbola import HyperbolaSpec, signed_sumset, sum_diff_sets


# ---------------------------------------------------------------- dominance


def test_classify():
    assert classify(Fraction(8, 7)) == SUM_DOMINANT
    assert classify(Fraction(1)) == BALANCED
    assert classify(Fraction(2, 3)) == DIFFERENCE_DOMINANT
    # 1 +- 10^-30 read as 1 in a float; a negative sign lands on the numerator
    cases = (Fraction(10**30 + 1, 10**30), Fraction(10**30 - 1, 10**30), Fraction(-1, 2))
    for c2 in (*cases, Fraction(3, -2), Fraction(-5, -4), 0, 1, 2, -1):
        expected = SUM_DOMINANT if c2 > 1 else BALANCED if c2 == 1 else DIFFERENCE_DOMINANT
        assert classify(c2) == expected, c2


def _breakdown(a, n):
    """The ratio at each prime power of n, as the ratio command's table lists it."""
    return tuple((p, t, ratio_c2_pp(a, p, t)) for p, t in factorize(n).factors)


def test_dominance_report_examples():
    # what the ratio command reports of one modulus: c2, its class, its breakdown
    c2 = ratio_c2(11, 441).value
    assert c2 == Fraction(8, 7)
    assert classify(c2) == SUM_DOMINANT
    assert _breakdown(11, 441) == (
        (3, 2, Fraction(3, 2)),
        (7, 2, Fraction(16, 21)),
    )
    assert classify(ratio_c2(2, 625).value) == BALANCED


def _scan_rows(a, x, threshold=None, skipped=None):
    """dominance_scan's rows as (n, c2, classification), every window and
    row checked against the window contract: parallel lists, n ascending
    across windows, den positive, num/den reduced, and the classification
    classify gives num/den."""
    rows, last = [], 1
    for window in dominance_scan(a, x, threshold, skipped):
        assert type(window) is DominanceWindow and window.a == a
        assert len({len(column) for column in window[1:]}) == 1
        for n, num, den, classification in zip(*window[1:]):
            assert n > last and den > 0 and math.gcd(num, den) == 1, (a, n)
            c2 = Fraction(num, den)
            assert classification == classify(c2), (a, n)
            rows.append((n, c2, classification))
            last = n
    return rows


def test_dominance_report_contract():
    # a scan row holds the ratio and class that one modulus gets on its own
    for a, threshold in ((1019, None), (-7, Fraction(3, 2))):
        rows = _scan_rows(a, 300, threshold)
        assert rows
        for n, c2, classification in rows:
            assert ratio_c2(a, n).value == c2 and classify(c2) == classification, (a, n)
    for a, n, expected in ((11, 441, (8, 7, SUM_DOMINANT)), (-7, 9000, (3, 1, SUM_DOMINANT))):
        c2 = ratio_c2(a, n).value
        assert type(c2) is Fraction
        assert c2.denominator > 0 and math.gcd(c2.numerator, c2.denominator) == 1
        assert (c2.numerator, c2.denominator, classify(c2)) == expected


def test_study_records_contract():
    assert DensityReport._fields == (
        "a",
        "x",
        "threshold",
        "eligible_count",
        "dominant_count",
        "empirical_density",
        "class_constant",
        "bound_truncated",
        "bound_rigorous",
        "prime_limit",
    )
    assert PrimorialRow._fields == ("k", "primorial", "ratio_first_power", "ratio_power_t", "loglog")
    assert PrimorialReport._fields == ("a", "t", "rows")
    assert CoverageReport._fields == ("spec", "covered", "missing", "guaranteed")
    primorial = primorial_series(4, 2)
    records = [
        density_report(4, 300),
        primorial,
        *primorial.rows,
        coverage_check(HyperbolaSpec(3, 3, 1, 3)),
    ]
    for record in records:
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
    assert tuple(primorial.rows[1])[:3] == (2, 21, Fraction(8, 3))


# The range studies read one ratio sieve; these tests compare it, modulus by
# modulus, with ratio_c2 and legendre.  1019 and 1009 are prime factors of a
# above sqrt(x), and 3 * 10^40 + 7 is past 2^64.  The symbols at +-4 * 1009^2
# come from a table of period 4, those at 4036036 = 2^2 * 821 * 1229 from the
# kernel at each prime.  The thresholds 1 +- 10^-30 overflow any 64-bit
# product s*M and a float reads them as 1; 10^40 is past every ratio.
_SIEVE_AS = (1, 2, 3, 5, 7, 8, 15, 36, -3, -7, 1019, 3 * 10**40 + 7)
_SIEVE_AS += (4036036, 4 * 1009**2, -4 * 1009**2)
_THRESHOLDS = (
    1,
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(1, 3),
    0,
    Fraction(-1, 2),
    Fraction(10**30 + 1, 10**30),
    Fraction(10**30 - 1, 10**30),
    10**40,
)


@pytest.mark.parametrize("a", (11, *_SIEVE_AS))
def test_scan_ascending_skips_and_filters(a):
    ratios = {n: ratio_c2(a, n).value for n in range(2, 2001) if math.gcd(a, n) == 1}
    for x in (1, 2, 3, 60, 2000):
        for threshold in (None, *_THRESHOLDS):
            got = _scan_rows(a, x, threshold)
            assert got == [
                (n, c2, classify(c2))
                for n, c2 in ratios.items()
                if n <= x and (threshold is None or c2 > threshold)
            ], (x, threshold)


def _eligible(a, n):
    return math.gcd(a, n) == 1 and all(
        legendre(a, p) == 1 for p, _ in factorize(n).factors if p % 4 == 3
    )


@pytest.mark.parametrize("window", (97, analysis._WINDOW))
def test_range_studies_across_windows(monkeypatch, window):
    # many small windows, or three of the real size: window edges, powers
    # that straddle them and cofactors left for the vectorized t = 1 factor
    monkeypatch.setattr(analysis, "_WINDOW", window)
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 100)
    x = 3 * window - 7 if window > 97 else 2000
    for a in (-7,) if window > 97 else (12, -7, 1019, 3 * 10**40 + 7):
        ratios = {n: ratio_c2(a, n).value for n in range(1, x + 1) if math.gcd(a, n) == 1}
        skipped = []
        scanned = {n: c2 for n, c2, _ in _scan_rows(a, x, skipped=skipped)}
        assert scanned == {n: c2 for n, c2 in ratios.items() if n > 1}
        assert sum(skipped) == x - len(ratios)
        eligible = [c2 for n, c2 in ratios.items() if _eligible(a, n)]
        for threshold in (1, Fraction(10**30 - 1, 10**30), Fraction(4, 3)):
            rep = density_report(a, x, threshold=threshold)
            assert rep.eligible_count == len(eligible)
            assert rep.dominant_count == sum(c2 > threshold for c2 in eligible)


def test_ratio_sieve_at_the_top_of_int32():
    # the last window below 2^31: no entry, smooth part or product wraps
    x = 2**31 - 1
    for a in (-7, 4, 3 * 10**40 + 7):
        for eligible in (False, True):
            for start, num, den in analysis._ratio_sieve(a, x, x - 3000, eligible):
                for n, s, d in zip(range(start, x + 1), num.tolist(), den.tolist()):
                    if math.gcd(a, n) > 1 or eligible and not _eligible(a, n):
                        assert (s, d) == (0, 0), (a, n)
                    else:
                        assert Fraction(s, d) == ratio_c2(a, n).value, (a, n)


def test_prime_ratios_match_closed_forms():
    # the vectorized t = 1 factor against card_S2_pp at every prime <= 10^5
    primes = primes_up_to(10**5)
    for a in (1, -1, 2, 3, 4, 11, 36):
        for eligible in (False, True):
            num, den = analysis._prime_ratios(a, np.array(primes, dtype=np.int64), eligible)
            for p, s, d in zip(primes, num.tolist(), den.tolist()):
                if a % p == 0 or eligible and p % 4 == 3 and legendre(a, p) < 0:
                    assert (s, d) == (0, 0), (a, p)
                else:
                    r = Fraction(card_S2_pp(a, p, 1), card_S2_pp(-a, p, 1))
                    assert (s, d) == (r.numerator, r.denominator), (a, p)


def test_ratio_sieve_proves_no_prime_again(monkeypatch):
    # the sieve's small primes come from its own prime sieve: their powers'
    # ratios are read from the class counts, never through the checked
    # ratio_c2_pp, card_S2_pp or is_prime
    scan = list(dominance_scan(11, 5000))
    density = density_report(4, 5000)

    def refuse(*args):
        raise AssertionError("proved a prime of the sieve again")

    monkeypatch.setattr(analysis, "ratio_c2_pp", refuse, raising=False)
    for name in ("ratio_c2_pp", "card_S2_pp"):
        monkeypatch.setattr(cardinality, name, refuse)
    monkeypatch.setattr(arith, "is_prime", refuse)
    assert list(dominance_scan(11, 5000)) == scan
    assert density_report(4, 5000) == density


@pytest.mark.parametrize("core", (16383, 16385))
def test_symbol_table_matches_kernel(core):
    # a' = 3 * 43 * 127 has the period 65532, just within the table limit;
    # a' = 5 * 29 * 113 has 65540, just past it, and takes the kernel
    assert 4 * 16383 <= analysis._SYMBOL_TABLE_LIMIT < 4 * 16385
    primes = np.array(primes_up_to(3 * 10**5)[1:], dtype=np.int64)
    for a in (core, -core, 9 * 1009**2 * core):
        symbol = analysis._symbols(a)
        assert (symbol is _jacobi) == (core == 16385)
        p = primes[a % primes != 0]
        r = analysis._residues(a, p)
        assert symbol(r, p).tolist() == _jacobi(r, p).tolist(), a
        assert symbol(r, p)[:300].tolist() == [legendre(a, q) for q in p[:300].tolist()]


def test_residues_of_any_size():
    m = np.array(primes_up_to(5000) + [2**31 - 1], dtype=np.int64)
    for a in (0, 1, -1, 2**30, -(2**62) - 5, 3 * 10**40 + 7, -(7**300)):
        assert analysis._residues(a, m).tolist() == [a % int(q) for q in m], a


@pytest.mark.parametrize("x", [1, 2, 3, 7, 30])
def test_above_matches_fraction_comparison(x):
    tiny, eps = Fraction(1, 10**30), Fraction(1, 10**9)
    thresholds = {Fraction(-1), Fraction(-1, 2), -eps, Fraction(x), x + eps, Fraction(2 * x)}
    thresholds |= {1 - tiny, 1 + tiny}
    for j in range(1, 9):  # i/j below 2 and in the last unit below x
        for i in [*range(2 * j + 1), *range((x - 1) * j, x * j)]:
            thresholds |= {Fraction(i, j) - eps, Fraction(i, j), Fraction(i, j) + eps}
    grid = np.array([(s, d) for s in range(x + 1) for d in range(x + 1)], dtype=np.int32).T
    ratios = [Fraction(s, d) if d else None for s, d in grid.T.tolist()]
    for t in sorted(thresholds):
        wanted = [r is not None and r > t for r in ratios]
        assert analysis._above(t, x)(*grid).tolist() == wanted, (t, x)


def test_scan_factor_breakdown_matches_report():
    for a in (11, -3, 4 * 1009**2):
        wanted = {n for n in (2, 8, 441, 1025, 1944, 1997) if math.gcd(a, n) == 1}
        seen = set()
        for n, c2, classification in _scan_rows(a, 2000):
            if n in wanted:
                seen.add(n)
                assert ratio_c2(a, n).value == c2 and classify(c2) == classification
                assert math.prod(r for _, _, r in _breakdown(a, n)) == c2
        assert seen == wanted


def test_scan_agrees_with_oracle():
    for n, c2, classification in _scan_rows(11, 3000):
        s, d = sum_diff_sets(11, n)
        assert c2 == Fraction(len(s), len(d)), n
        assert classification == classify(Fraction(len(s), len(d)))


def test_two_prime_remark_cases():
    # exponent 1 on the larger prime keeps the conclusion; exponent 1 on
    # the smaller prime reverses both inequalities
    from modhyp.cardinality import ratio_c2_pp

    primes34 = [p for p in primes_up_to(50) if p % 4 == 3]

    def rep(p, symbol):
        if symbol == 1:
            return 1
        z = 2
        while legendre(z, p) != -1:
            z += 1
        return z

    for i, p in enumerate(primes34):
        for q in primes34[i + 1 :]:
            rp = {e: {s: ratio_c2_pp(rep(p, s), p, e) for s in (1, -1)} for e in (1, 2, 3, 4)}
            rq = {e: {s: ratio_c2_pp(rep(q, s), q, e) for s in (1, -1)} for e in (1, 2, 3, 4)}
            sym_p = [legendre(a, p) for a in range(p)]
            sym_q = [legendre(a, q) for a in range(q)]
            for a in range(1, p * q):
                ep, eq = sym_p[a % p], sym_q[a % q]
                if ep == 0 or eq == 0:
                    continue
                for t in (2, 3, 4):
                    c = rp[t][ep] * rq[1][eq]
                    assert (c < 1) if ep == 1 else (c > 1), (a, p, q, t)
                for s in (1, 2, 3, 4):
                    c = rp[1][ep] * rq[s][eq]
                    assert (c > 1) if ep == 1 else (c < 1), (a, p, q, s)


# ---------------------------------------------------------------- density


def test_class_constant_table():
    assert dominance_class_constant(2) == 1
    assert dominance_class_constant(4) == 1
    assert dominance_class_constant(1) == Fraction(63, 64)
    assert dominance_class_constant(9) == Fraction(63, 64)
    assert dominance_class_constant(5) == Fraction(31, 32)
    assert dominance_class_constant(3) == Fraction(15, 16)
    assert dominance_class_constant(7) == Fraction(15, 16)


def test_density_report_small(monkeypatch):
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 1000)
    rep = density_report(4, 2000)
    # eligible = all odd n (4 is a square at every odd prime)
    assert rep.eligible_count == 1000
    assert 0 <= rep.empirical_density <= 1
    assert rep.bound_rigorous < rep.bound_truncated < 1
    assert rep.class_constant == 1


def _floored_bounds(a, prime_limit):
    # the bounds from one exact product each, floored to 12 decimals
    ps = [p for p in primes_up_to(prime_limit) if p % 4 == 3 and legendre(a, p) == 1]
    v = dominance_class_constant(a) * Fraction(
        math.prod(p * p - 1 for p in ps), math.prod(p * p for p in ps)
    )
    tail = Fraction(prime_limit - 1, prime_limit)
    return tuple(Fraction(math.floor(f * 10**12), 10**12) for f in (v, v * tail))


def test_density_bounds_equal_exact_floors(monkeypatch):
    # density_report reads _BOUND_PRIME_LIMIT at each call and reports it
    for a in (1, 2, 3, 5, 9, -7, 11, 1019, 4036036, 4 * 1009**2, 3 * 10**40 + 7):
        for prime_limit in (1, 2, 3, 5, 7, 8, 100, 1000, 10**4, 10**5):
            monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", prime_limit)
            rep = density_report(a, 2)
            got = rep.bound_truncated, rep.bound_rigorous
            assert got == _floored_bounds(a, prime_limit), (a, prime_limit)
            assert rep.prime_limit == prime_limit


def test_density_bounds_on_twelve_decimal_numbers(monkeypatch):
    products = []

    class Math:  # math, recording the exact products of the fallback
        def __getattr__(self, name):
            return getattr(math, name)

        def prod(self, values):
            products.append(1)
            return math.prod(values)

    monkeypatch.setattr(analysis, "math", Math())
    # ps = [3]: 63/64 * 8/9 = 7/8 and 7/8 * 4/5 = 7/10, exact in fixed point
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 5)
    rep = density_report(1, 2)
    assert (rep.bound_truncated, rep.bound_rigorous, products) == (
        Fraction(7, 8),
        Fraction(7, 10),
        [],
    )
    # symbol +1 at 3 and 7 only, below 50: 63/64 * 8/9 * 48/49 = 6/7, and
    # the tail 49/50 gives 21/25, which the fixed point straddles
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 50)
    rep = density_report(1009, 2)
    assert rep.bound_rigorous == Fraction(21, 25) and products
    assert (rep.bound_truncated, rep.bound_rigorous) == _floored_bounds(1009, 50)


def test_density_eligibility_excludes_nonresidues(monkeypatch):
    # at a = 3: the prime 7 is 3 mod 4 with symbol(3, 7) = -1, so no
    # multiple of 7 is eligible
    assert legendre(3, 7) == -1
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 100)
    rep = density_report(3, 500)
    manual = 0
    for n in range(1, 501):
        if math.gcd(3, n) != 1:
            continue
        good = True
        m = n
        for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83):
            if m % p == 0 and legendre(3, p) != 1:
                good = False
        # crude: only primes <= 500 matter and all are covered by trial loop
        for p in range(2, 501):
            if n % p == 0 and p % 4 == 3 and all(p % r for r in range(2, p)):
                if legendre(3, p) != 1:
                    good = False
        if good:
            manual += 1
    assert rep.eligible_count == manual


@pytest.mark.parametrize("a", (4, *_SIEVE_AS))
def test_density_counts_threshold(monkeypatch, a):
    monkeypatch.setattr(analysis, "_BOUND_PRIME_LIMIT", 100)
    eligible = {n: ratio_c2(a, n).value for n in range(1, 2001) if _eligible(a, n)}
    for x in (2, 3, 100, 300, 2000):
        ratios = [c2 for n, c2 in eligible.items() if n <= x]
        for threshold in _THRESHOLDS:
            rep = density_report(a, x, threshold=threshold)
            dominant = sum(c2 > threshold for c2 in ratios)
            assert rep.eligible_count == len(ratios), (x, threshold)
            assert rep.dominant_count == dominant, (x, threshold)
            assert rep.empirical_density == Fraction(dominant, len(ratios))


def test_density_rejects_zero():
    with pytest.raises(ValueError):
        density_report(0, 100)


def test_ratio_sieve_refuses_int32_overflow(monkeypatch):
    # the sieve's int32 entries hold n up to 2^31 - 1: that bound passes the
    # check and reaches numpy (stubbed here), 2^31 is refused first
    class Allocated(Exception):
        pass

    class Numpy:
        def __getattr__(self, name):
            raise Allocated

    monkeypatch.setattr(analysis, "np", Numpy())
    for study in (density_report, lambda a, x: next(dominance_scan(a, x))):
        with pytest.raises(Allocated):
            study(3, 2**31 - 1)
        with pytest.raises(ValueError, match="below 2\\^31"):
            study(3, 2**31)


# ---------------------------------------------------------------- primorial


def test_primes_3_mod_4():
    assert list(primes_3_mod_4(8)) == [3, 7, 11, 19, 23, 31, 43, 47]


def test_primorial_examples():
    rep = primorial_series(4, 2)
    assert rep.rows[0].primorial == 3
    assert rep.rows[0].ratio_first_power == 2
    assert rep.rows[1].primorial == 21
    assert rep.rows[1].ratio_first_power == Fraction(8, 3)


def test_primorial_monotone_growth():
    rows = primorial_series(4, 8).rows
    firsts = [r.ratio_first_power for r in rows]
    assert all(x < y for x, y in zip(firsts, firsts[1:]))


def test_primorial_matches_direct_ratio():
    rows = primorial_series(4, 3, t=2).rows
    for row in rows:
        assert row.ratio_first_power == ratio_c2(4, row.primorial).value
        assert row.ratio_power_t == ratio_c2(4, row.primorial**2).value


def test_primorial_validates():
    with pytest.raises(ValueError):
        primorial_series(5, 3)  # not a perfect square
    with pytest.raises(ValueError) as err:
        primorial_series(9, 3)  # shares the prime 3
    assert "3" in str(err.value)
    with pytest.raises(ValueError, match="shares the prime factor 3"):
        primorial_series(9, 1, t=10**9)  # refused before the digit limit is tested
    with pytest.raises(ValueError):
        primorial_series(4, 3, t=1)


def test_primorial_refusal_stops_at_the_refused_row(monkeypatch):
    # the primes are generated row by row, so refusing row 819 (the first
    # too long to print at 4300 digits) tests only the candidates up to it
    calls = 0

    def counted(n):
        nonlocal calls
        calls += 1
        return is_prime(n)

    monkeypatch.setattr(analysis, "is_prime", counted)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="row k = 819 "):
            primorial_series(4, 100_000)
    finally:
        sys.set_int_max_str_digits(saved)
    assert calls < 10_000


@pytest.mark.parametrize(
    "p, e, expected",
    [
        (10, 4299, 0),  # 10^4299 has 4,300 digits, exactly the limit
        (10, 4300, 4300),
        (11, 4129, 0),
        (11, 4130, 4300),
        (3, 9012, 0),
        (3, 9013, 4300),
    ],
)
def test_too_long_on_both_sides_of_the_limit(monkeypatch, p, e, expected):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    assert analysis._too_long(p, e) == expected
    assert (p**e >= 10**4300) == bool(expected)


class _Unpowered(int):
    """An int that refuses to be the base or the exponent of a power."""

    def __pow__(self, e):
        raise AssertionError("formed a power")

    __rpow__ = __pow__


def test_too_long_forms_no_power_a_digit_from_the_limit(monkeypatch):
    # a 62-bit p^3 has 56 digits and 2^(10^12) over 3 * 10^11: neither they
    # nor 10^4300 are formed
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: _Unpowered(4300), raising=False)
    assert analysis._too_long(_Unpowered(2305843009213706309), 3) == 0
    assert analysis._too_long(_Unpowered(2), 10**12) == 4300


# ---------------------------------------------------------------- coverage


def test_coverage_examples():
    rep = coverage_check(HyperbolaSpec(3, 3, 1, 11))
    assert rep.covered and rep.guaranteed and len(rep.missing) == 0

    rep = coverage_check(HyperbolaSpec(3, 3, 1, 3))
    assert not rep.covered and not rep.guaranteed
    assert 1 in rep.missing
    assert sorted(rep.missing.complement()) == [0, 2]

    rep = coverage_check(HyperbolaSpec(3, 3, 3, 7))
    assert 0 in rep.missing and not rep.guaranteed


def test_coverage_rejects_planar():
    with pytest.raises(ValueError):
        coverage_check(HyperbolaSpec(2, 2, 1, 11))


def test_coverage_guarantee_holds_sampled():
    for n in (11, 121, 13 * 17, 1331):
        for m in range(4):
            rep = coverage_check(HyperbolaSpec(3, m, 2, n))
            assert rep.guaranteed and rep.covered, (n, m)


def test_coverage_guarantee_is_the_full_coverage_method():
    # one threshold decides both: guaranteed exactly when card counts every
    # factor by full coverage, over moduli with primes at most 7 and above it
    for n in (5, 7, 11, 13, 2 * 11, 3 * 13, 7 * 11, 11 * 13, 5 * 7, 49, 121):
        spec = HyperbolaSpec(3, 2, 1, n)
        methods = {fc.method for fc in card_signed_sumset(spec).per_factor}
        assert coverage_check(spec).guaranteed == (methods == {METHOD_FULL_COVERAGE}), n


def test_full_coverage_d4_d5():
    # the reduction of d > 3 to d = 3 in solve_sum_product's docstring, by
    # the oracle; d = 5 at 121 and 169 is over the default budget
    for d, n in [(4, 11), (4, 13), (4, 121), (4, 169), (5, 11), (5, 13)]:
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                for m in range(d + 1):
                    assert len(signed_sumset(HyperbolaSpec(d, m, a, n))) == n, (d, m, a, n)


# ---------------------------------------------------------------- solver


def _check_triple(triple, b, a, q, p):
    x1, x2, x3 = triple
    assert (x1 + x2 + x3) % q == b % q
    assert x1 * x2 * x3 % q == a % q
    assert all(1 <= v < q and v % p != 0 for v in triple)


def test_solver_examples():
    _check_triple(solve_sum_product(0, 1, 11, 1), 0, 1, 11, 11)
    _check_triple(solve_sum_product(3, 1, 13, 1), 3, 1, 13, 13)
    _check_triple(solve_sum_product(0, 1, 11, 3), 0, 1, 11**3, 11)


def test_solver_all_pairs_mod_11():
    # every (b, a) at every prime 11 <= p < 200; p = 11 is the case of the
    # full-coverage proof (solve_sum_product's docstring) that Hasse's bound
    # leaves open, and t = 1 covers every t: the scan reads a and b mod p only
    for p in primes_up_to(199)[4:]:
        for t in (1, 2) if p < 17 else (1,):
            for b in range(p):
                for a in range(1, p):
                    _check_triple(solve_sum_product(b, a, p, t), b, a, p**t, p)


def test_solver_scan_skips_the_primality_check(monkeypatch):
    # solve_sum_product proves p at its entry; the roots it scans for are
    # taken without re-proving p at each y
    calls = 0

    def counted(n):
        nonlocal calls
        calls += 1
        return is_prime(n)

    monkeypatch.setattr("modhyp.arith.is_prime", counted)
    p = 2305843009213706309
    _check_triple(solve_sum_product(123456789, 987654321, p, 3), 123456789, 987654321, p**3, p)
    assert calls == 0


def test_solver_validates():
    with pytest.raises(ValueError):
        solve_sum_product(0, 1, 7, 1)
    with pytest.raises(ValueError):
        solve_sum_product(0, 1, 12, 1)
    with pytest.raises(ValueError):
        solve_sum_product(0, 11, 11, 1)
    with pytest.raises(ValueError, match="must be a unit"):
        solve_sum_product(0, 11, 11, 10**9)  # refused before the digit limit is tested
