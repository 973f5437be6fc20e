import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhyp.arith import euler_phi, primes_up_to
from modhyp.cardinality import (
    METHOD_CLOSED_FORM_ODD,
    METHOD_CLOSED_FORM_P2,
    METHOD_FULL_COVERAGE,
    METHOD_ORACLE,
    METHOD_SMALL_POWER,
    CardinalityReport,
    FactorCount,
    PartialResultError,
    RatioValue,
    _card_S2_pp_array,
    card_S2_pp,
    card_signed_sumset,
    ratio_c2,
    ratio_c2_pp,
)
from modhyp.hyperbola import HyperbolaSpec, signed_sumset, sum_diff_cardinalities


def prime_powers_up_to(bound):
    out = []
    for p in primes_up_to(bound):
        q, t = p, 1
        while q <= bound:
            out.append((p, t, q))
            q *= p
            t += 1
    return out


# ---------------------------------------------------------------- card_S2_pp


def test_card_examples():
    for a in (3, 11, 19, 27):  # a = 3 (mod 8)
        assert card_S2_pp(-a, 2, 5) == 2
    assert card_S2_pp(-7, 2, 5) == 4
    assert card_S2_pp(4, 5, 1) == 3


def test_card_validates():
    with pytest.raises(ValueError):
        card_S2_pp(3, 6, 1)
    with pytest.raises(ValueError):
        card_S2_pp(10, 5, 2)
    with pytest.raises(ValueError):
        card_S2_pp(1, 5, 0)


def test_card_small_powers_of_two():
    # stated values: 1 for t <= 3 except 2 at t = 3 when a = 1 (mod 4);
    # always 2 at t = 4
    for t in (1, 2):
        for a in range(1, 2**t, 2):
            assert card_S2_pp(a, 2, t) == 1
    for a in (1, 5):
        assert card_S2_pp(a, 2, 3) == 2
    for a in (3, 7):
        assert card_S2_pp(a, 2, 3) == 1
    for a in range(1, 16, 2):
        assert card_S2_pp(a, 2, 4) == 2


def test_card_matches_oracle_prime_powers():
    for p, t, q in prime_powers_up_to(729):
        sums, diffs = sum_diff_cardinalities(q)
        for a in range(1, q):
            if math.gcd(a, p) != 1:
                continue
            assert card_S2_pp(a, p, t) == int(sums[a]), (a, p, t)
            assert card_S2_pp(-a, p, t) == int(diffs[a]), (a, p, t)


def test_card_array_matches_per_a():
    # the class-keyed array form against card_S2_pp at every unit a and -a
    # of every p^t <= 2048, so p = 2 up to t = 11
    for p, t, q in prime_powers_up_to(2048):
        a = np.array([a for a in range(1, q) if a % p], dtype=np.int64)
        for signed in (a, -a):
            counts = _card_S2_pp_array(signed, p, t)
            assert counts.tolist() == [card_S2_pp(int(x), p, t) for x in signed], (p, t)


def test_card_reduces_a():
    assert card_S2_pp(-7 - 32, 2, 5) == card_S2_pp(-7, 2, 5)
    assert card_S2_pp(-1, 5, 2) == card_S2_pp(24, 5, 2)
    # a negative a at p = 2, through the small-power table and the general branch
    for t in range(1, 7):
        for a in range(1, 2**t, 2):
            assert card_S2_pp(-a, 2, t) == card_S2_pp(2**t - a, 2, t), (a, t)


# ---------------------------------------------------------------- components


def test_components_brute_force():
    # the odd-p sumset count is s1 + s2, counted here by brute force: the k
    # with k^2 - a a square mod q, coprime to p (s1) or divisible by p (s2)
    for p, t, q in prime_powers_up_to(400):
        if p == 2:
            continue
        squares = {x * x % q for x in range(q)}
        for a in range(1, min(q, 25)):
            if math.gcd(a, p) != 1:
                continue
            s1 = sum(1 for k in range(q) if (k * k - a) % q in squares and (k * k - a) % p != 0)
            s2 = sum(1 for k in range(q) if (k * k - a) % q in squares and (k * k - a) % p == 0)
            assert card_S2_pp(a, p, t) == s1 + s2, (a, p, t)


# ---------------------------------------------------------------- composition


def test_card_signed_sumset_examples():
    rep = card_signed_sumset(HyperbolaSpec(2, 2, 1, 45))
    assert [(f.p, f.t, f.count) for f in rep.per_factor] == [(3, 2, 2), (5, 1, 3)]
    assert rep.total == 6
    assert rep.total == len(signed_sumset(HyperbolaSpec(2, 2, 1, 45)))

    rep = card_signed_sumset(HyperbolaSpec(3, 3, 1, 143))
    assert rep.total == 143
    assert all(f.method == METHOD_FULL_COVERAGE for f in rep.per_factor)

    rep = card_signed_sumset(HyperbolaSpec(2, 2, 1, 8))
    assert rep.total == 2
    assert rep.per_factor[0].method == METHOD_SMALL_POWER


def test_card_signed_sumset_methods():
    rep = card_signed_sumset(HyperbolaSpec(2, 2, 3, 2**6 * 11))
    assert [f.method for f in rep.per_factor] == [
        METHOD_CLOSED_FORM_P2,
        METHOD_CLOSED_FORM_ODD,
    ]
    rep = card_signed_sumset(HyperbolaSpec(3, 2, 1, 9))
    assert rep.per_factor[0].method == METHOD_ORACLE
    assert rep.total == len(signed_sumset(HyperbolaSpec(3, 2, 1, 9)))


def test_card_signed_sumset_oracle_fallback_mixed():
    # 63 = 7 * 9: the 7 exceeds nothing (p <= 7 both) -> both factors via oracle
    rep = card_signed_sumset(HyperbolaSpec(3, 3, 2, 63))
    assert all(f.method == METHOD_ORACLE for f in rep.per_factor)
    assert rep.total == math.prod(f.count for f in rep.per_factor)
    # full product equals the direct oracle on the composite modulus
    assert rep.total == len(signed_sumset(HyperbolaSpec(3, 3, 2, 63)))


def test_card_signed_sumset_total_matches_oracle_composites():
    for n in range(2, 120):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            for m in (1, 2):
                rep = card_signed_sumset(HyperbolaSpec(2, m, a, n))
                assert rep.total == len(signed_sumset(HyperbolaSpec(2, m, a, n))), (a, n, m)


def test_card_m_zero_matches_all_plus():
    for n in (9, 16, 35):
        rep0 = card_signed_sumset(HyperbolaSpec(2, 0, 2 if n != 16 else 3, n))
        rep2 = card_signed_sumset(HyperbolaSpec(2, 2, 2 if n != 16 else 3, n))
        assert rep0.total == rep2.total
        assert rep0.total == len(signed_sumset(rep0.spec))


def test_partial_result_error():
    with pytest.raises(PartialResultError) as err:
        card_signed_sumset(HyperbolaSpec(3, 3, 1, 7 * 11), budget=10)
    assert err.value.uncomputed == ((7, 1),)
    assert [f.p for f in err.value.computed] == [11]
    assert "7^1" in str(err.value)
    # the computed factors keep factor order around the blocked ones
    with pytest.raises(PartialResultError) as err:
        card_signed_sumset(HyperbolaSpec(3, 3, 1, 2 * 5 * 7 * 11 * 13), budget=32770)
    assert err.value.computed == (
        FactorCount(2, 1, 1, METHOD_ORACLE),
        FactorCount(11, 1, 11, METHOD_FULL_COVERAGE),
        FactorCount(13, 1, 13, METHOD_FULL_COVERAGE),
    )
    assert all(type(f) is FactorCount for f in err.value.computed)
    assert err.value.uncomputed == ((5, 1), (7, 1))


def test_report_records_contract():
    assert FactorCount._fields == ("p", "t", "count", "method")
    assert CardinalityReport._fields == ("spec", "per_factor", "total")
    assert RatioValue._fields == ("numerator", "denominator", "value")
    fc = FactorCount(3, 2, 5, METHOD_CLOSED_FORM_ODD)
    assert fc.count == 5  # the field shadows tuple.count
    rep = card_signed_sumset(HyperbolaSpec(2, 2, 7, 360))
    for record, name in ((fc, "count"), (rep, "total"), (ratio_c2(11, 441), "value")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    num, den, value = ratio_c2(11, 441)
    assert value == Fraction(num, den) == Fraction(8, 7)


def test_factor_product_order_invariant():
    rep = card_signed_sumset(HyperbolaSpec(2, 2, 1, 3 * 3 * 5 * 7 * 16))
    counts = [f.count for f in rep.per_factor]
    assert math.prod(counts) == rep.total == math.prod(reversed(counts))


# ---------------------------------------------------------------- ratios


def test_ratio_examples():
    for a in (1, 4, 7, 13):  # squares mod 3
        for k in (1, 2, 3, 5):
            assert ratio_c2(a, 5**k).value == 1
    assert ratio_c2(1, 9).value == Fraction(2, 3)
    assert ratio_c2(4, 9).value == Fraction(2, 3)
    assert ratio_c2(11, 441).value == Fraction(8, 7)
    assert ratio_c2(11, 9).value == Fraction(3, 2)
    assert ratio_c2(11, 49).value == Fraction(16, 21)


def test_ratio_fields():
    rv = ratio_c2(11, 441)
    assert (rv.numerator, rv.denominator) == (
        len(signed_sumset(HyperbolaSpec(2, 2, 11, 441))),
        len(signed_sumset(HyperbolaSpec(2, 1, 11, 441))),
    )
    assert rv.value == Fraction(rv.numerator, rv.denominator)


def test_ratio_n_equals_one():
    rv = ratio_c2(5, 1)
    assert (rv.numerator, rv.denominator, rv.value) == (1, 1, Fraction(1))


def test_ratio_validates():
    with pytest.raises(ValueError):
        ratio_c2(3, 9)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=400))
def test_ratio_reciprocity(n, a):
    if math.gcd(a, n) != 1:
        return
    assert ratio_c2((-a) % n, n).value == 1 / ratio_c2(a, n).value


def test_three_mod_four_series_formula():
    # ratio at p^t for a square a: 1 - 2 * sum(p^-(2i+1), i < floor(t/2)) + 2/phi(p^t)
    for p in (3, 7, 11, 19):
        for t in range(1, 9):
            series = (
                1
                - 2 * sum(Fraction(1, p ** (2 * i + 1)) for i in range(t // 2))
                + Fraction(2, euler_phi(p**t))
            )
            assert ratio_c2_pp(1, p, t) == series, (p, t)


def test_ratio_monotone_decreasing_in_t():
    for p in (3, 7, 11, 19, 23):
        values = [ratio_c2_pp(1, p, t) for t in range(1, 11)]
        assert all(x > y for x, y in zip(values, values[1:])), p


def test_one_mod_four_ratio_is_one():
    for p in (5, 13, 17, 29):
        for t in (1, 2, 3, 4):
            for a in (1, 2, 3):
                if math.gcd(a, p) != 1:
                    continue
                assert ratio_c2_pp(a, p, t) == 1
