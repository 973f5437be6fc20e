import collections
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modhyp.arith as arith
import modhyp.cardinality as cardinality
from modhyp.arith import euler_phi, factorize, is_prime, legendre, primes_up_to
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
    _counts_array,
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
        units = [a for a in range(1, q) if math.gcd(a, p) == 1]
        sums, diffs = sum_diff_cardinalities(q, units)
        for a, osum, odiff in zip(units, sums.tolist(), diffs.tolist()):
            assert card_S2_pp(a, p, t) == osum, (a, p, t)
            assert card_S2_pp(-a, p, t) == odiff, (a, p, t)


def _class_representatives():
    # one unit per class of the closed forms: the four odd residues mod 8 at
    # p = 2, and 1 and the least non-residue at odd p
    for t in (13, 16, 18, 20):
        for a in (1, 3, 5, 7):
            yield a, 2, t
    for p, ts in ((3, (10, 11, 12)), (5, (6, 7, 8)), (7, (5, 6, 7)), (11, (3, 4, 5))):
        non_residue = next(r for r in range(2, p) if legendre(r, p) == -1)
        for t in ts:
            for a in (1, non_residue):
                yield a, p, t


@pytest.mark.parametrize("a, p, t", list(_class_representatives()))
def test_card_matches_oracle_per_class_past_the_table_limit(a, p, t):
    # the single-a oracle reaches prime powers far past the 4096 of
    # criterion 01, where every class's t-dependence is checked once
    q = p**t
    assert len(signed_sumset(HyperbolaSpec(2, 2, a, q))) == card_S2_pp(a, p, t)
    assert len(signed_sumset(HyperbolaSpec(2, 1, a, q))) == card_S2_pp(-a, p, t)


def test_card_array_matches_per_a():
    # the class-keyed array pair against card_S2_pp at every unit x and -x
    # of every p^t <= 2048, so p = 2 up to t = 11
    for p, t, q in prime_powers_up_to(2048):
        a = np.array([a for a in range(1, q) if a % p], dtype=np.int64)
        sums, diffs = _counts_array(a, p, t)
        assert sums.tolist() == [card_S2_pp(x, p, t) for x in a.tolist()], (p, t)
        assert diffs.tolist() == [card_S2_pp(-x, p, t) for x in a.tolist()], (p, t)


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
    # the computed factors keep factor order around the blocked ones; the
    # budget fits the oracle at 2 (1 tuple, 2 steps of 2^14, a 2-residue
    # table) but not at 5 (16 tuples, the steps, a 5-residue table)
    with pytest.raises(PartialResultError) as err:
        card_signed_sumset(HyperbolaSpec(3, 3, 1, 2 * 5 * 7 * 11 * 13), budget=32771)
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


def test_proven_factorizations_are_not_proven_again(monkeypatch):
    # ratio_c2 and the planar card_signed_sumset hold the factorization of
    # n, whose primes factorize proved: neither calls is_prime or card_S2_pp
    n = 2**9 * 3**7 * 5**2 * 7**5 * 19**3 * (2**61 - 1)
    factorize(n)
    expected = {
        a: (ratio_c2(a, n), [card_signed_sumset(HyperbolaSpec(2, m, a, n)) for m in (1, 2)])
        for a in (11, -13)
    }

    def refuse(*args):
        raise AssertionError("proved a prime of a proven factorization again")

    monkeypatch.setattr(arith, "is_prime", refuse)
    monkeypatch.setattr(cardinality, "card_S2_pp", refuse)
    for a, (ratio, reports) in expected.items():
        assert ratio_c2(a, n) == ratio
        assert [card_signed_sumset(HyperbolaSpec(2, m, a, n)) for m in (1, 2)] == reports


def test_each_prime_is_proven_once(monkeypatch):
    # the checked ratio proves p once for its two counts, and factorize
    # counts a prime that rho splits off again without proving it again
    ratio = Fraction(card_S2_pp(11, 10007, 3), card_S2_pp(-11, 10007, 3))
    proofs = collections.Counter()

    def counted(m):
        proofs[m] += 1
        return is_prime.__wrapped__(m)

    for module in (arith, cardinality):  # wherever the name may be bound
        monkeypatch.setattr(module, "is_prime", counted, raising=False)
    assert ratio_c2_pp(11, 10007, 3) == ratio
    assert proofs[10007] == 1
    proofs.clear()
    n = 1000003**2 * (2**31 - 1)
    assert factorize.__wrapped__(n).factors == ((1000003, 2), (2**31 - 1, 1))
    assert proofs[1000003] == proofs[2**31 - 1] == 1


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
