import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from modhyp.arith import euler_phi, primes_up_to
import modhyp.hyperbola
from modhyp.hyperbola import (
    _BLOCK,
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    HyperbolaSpec,
    ResidueSet,
    _checked_tuple_count,
    _unit_tables,
    enumerate_points,
    signed_sumset,
    sum_diff_cardinalities,
    sum_diff_sets,
    sum_diff_tables,
)


def naive_signed_sumset(spec):
    """Definition-level reference: nested loops over unit tuples."""
    n, a = spec.n, spec.a
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    signs = spec.signs
    out = set()
    for point in itertools.product(units, repeat=spec.d - 1):
        prod = 1
        for x in point:
            prod = prod * x % n
        last = a * pow(prod, -1, n) % n
        coords = (*point, last)
        out.add(sum(s * x for s, x in zip(signs, coords)) % n)
    return out


# ---------------------------------------------------------------- spec type


def test_spec_reduces_and_validates():
    spec = HyperbolaSpec(2, 2, 14, 5)
    assert spec.a == 4
    with pytest.raises(ValueError):
        HyperbolaSpec(2, 2, 5, 10)  # shared factor
    with pytest.raises(ValueError):
        HyperbolaSpec(1, 1, 1, 5)
    with pytest.raises(ValueError):
        HyperbolaSpec(2, 3, 1, 5)
    with pytest.raises(ValueError):
        HyperbolaSpec(2, 2, 1, 1)


def test_spec_signs():
    assert HyperbolaSpec(3, 2, 1, 5).signs == (1, 1, -1)
    assert HyperbolaSpec(2, 0, 1, 5).signs == (-1, -1)


# ---------------------------------------------------------------- ResidueSet


def from_mask(modulus, values):
    mask = np.zeros(modulus, dtype=bool)
    mask[list(values)] = True
    return ResidueSet(mask)


def test_residue_set_basics():
    rs = from_mask(9, [0, 3, 6, 3])
    assert len(rs) == 3
    assert list(rs) == [0, 3, 6]
    assert 3 in rs and 4 not in rs
    assert 0 in rs and 8 not in rs and -1 not in rs and 9 not in rs
    assert rs == from_mask(9, [6, 0, 3])
    assert hash(rs) == hash(from_mask(9, [6, 0, 3]))
    assert rs != from_mask(10, [0, 3, 6])
    assert sorted(rs.complement()) == [1, 2, 4, 5, 7, 8]
    empty, full = from_mask(5, []), from_mask(5, range(5))
    assert empty.complement() == full and list(full.complement()) == []
    assert len(empty) == 0 and not empty and len(full) == 5 and 4 in full
    with pytest.raises(ValueError):
        ResidueSet(np.zeros(0, dtype=bool))
    with pytest.raises(ValueError):
        ResidueSet(np.zeros((3, 3), dtype=bool))


def test_residue_set_mask_roundtrip():
    mask = np.zeros(70, dtype=bool)
    mask[[0, 1, 63, 64, 69]] = True
    given = mask.copy()
    rs = ResidueSet(given)
    assert rs.values() == [0, 1, 63, 64, 69]
    # the set keeps the caller's array, uncopied, and makes it read-only
    assert not given.flags.writeable
    with pytest.raises(ValueError):
        given[2] = True
    assert np.array_equal(given, mask) and 2 not in rs


# ---------------------------------------------------------------- enumerate


def test_enumerate_examples():
    assert set(enumerate_points(HyperbolaSpec(2, 2, 4, 5))) == {
        (1, 4),
        (2, 2),
        (3, 3),
        (4, 1),
    }
    assert set(enumerate_points(HyperbolaSpec(2, 2, 1, 9))) == {
        (1, 1),
        (2, 5),
        (4, 7),
        (5, 2),
        (7, 4),
        (8, 8),
    }
    assert set(enumerate_points(HyperbolaSpec(3, 3, 1, 3))) == {
        (1, 1, 1),
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
    }


def test_enumerate_order_and_count():
    for spec in [
        HyperbolaSpec(2, 2, 3, 20),
        HyperbolaSpec(3, 1, 2, 9),
        HyperbolaSpec(4, 2, 1, 6),
        HyperbolaSpec(1200, 3, 1, 2),  # one unit: every dimension fits the budget
    ]:
        pts = list(enumerate_points(spec))
        assert len(pts) == euler_phi(spec.n) ** (spec.d - 1)
        assert pts == sorted(pts)  # lexicographic in the leading coordinates
        for pt in pts:
            assert math.prod(pt) % spec.n == spec.a
            assert all(1 <= c < spec.n and math.gcd(c, spec.n) == 1 for c in pt)


def test_enumerate_budget():
    with pytest.raises(EnumerationBudgetError) as err:
        list(enumerate_points(HyperbolaSpec(3, 3, 1, 101), budget=100))
    assert err.value.tuple_count == 100**2
    assert "10000" in str(err.value)
    # phi(2^10000)^2 = 2^19998 has 6,020 digits, past the interpreter's
    # int-to-str limit; the message shows it as a power of two
    with pytest.raises(EnumerationBudgetError, match=r"at least 2\^19998 leading"):
        signed_sumset(HyperbolaSpec(3, 3, 1, 2**10000), budget=10**4000)


# ---------------------------------------------------------------- signed sumset


def test_signed_sumset_examples():
    s = signed_sumset(HyperbolaSpec(2, 2, 4, 5))
    assert sorted(s) == [0, 1, 4] and len(s) == 3
    d = signed_sumset(HyperbolaSpec(2, 1, 1, 9))
    assert sorted(d) == [0, 3, 6] and len(d) == 3
    full = signed_sumset(HyperbolaSpec(3, 3, 1, 11))
    assert len(full) == 11


def test_signed_sumset_matches_naive():
    rng = random.Random(5)
    cases = []
    for n in [5, 8, 9, 12, 16, 21, 30]:
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for d in (2, 3):
            for m in range(d + 1):
                cases.append(HyperbolaSpec(d, m, rng.choice(units), n))
    cases.append(HyperbolaSpec(4, 2, 1, 9))
    cases.append(HyperbolaSpec(4, 0, 5, 6))
    cases.append(HyperbolaSpec(5, 3, 1, 4))
    cases.append(HyperbolaSpec(1200, 401, 1, 2))
    # n = 339: no m attains every residue, so no block exits early;
    # n = 331 (prime) is covered, so the scan stops after a few blocks
    cases.extend(HyperbolaSpec(3, m, 1, 339) for m in range(4))
    cases.append(HyperbolaSpec(3, 2, 5, 331))
    for spec in cases:
        assert set(signed_sumset(spec)) == naive_signed_sumset(spec), spec


def test_signed_sumset_budget():
    with pytest.raises(EnumerationBudgetError):
        signed_sumset(HyperbolaSpec(2, 2, 1, 9), budget=5)


def test_coordinate_steps_charged_to_budget():
    # the kernel takes d - 1 numpy steps per block even at phi(n) = 1, so
    # each step is charged _BLOCK tuples: the budget that exactly fits the
    # tuples plus the steps passes, one less is refused before any work
    for spec, tuples in ((HyperbolaSpec(40, 40, 1, 2), 1), (HyperbolaSpec(3, 2, 2, 5), 16)):
        edge = tuples + (spec.d - 1) * _BLOCK
        assert set(signed_sumset(spec, budget=edge)) == naive_signed_sumset(spec)
        assert len(list(enumerate_points(spec, budget=edge))) == tuples
        with pytest.raises(EnumerationBudgetError, match=f"{spec.d - 1} coordinate steps"):
            signed_sumset(spec, budget=edge - 1)


def test_modulus_bound_precedes_any_table(monkeypatch):
    # _pow_mod and the kernel's int64 products need n < 2^31: a larger n that
    # the budget admits is refused before any array is built, and the
    # budget is still checked first
    def no_tables(n):
        raise AssertionError(f"built the tables of {n}")

    monkeypatch.setattr(modhyp.hyperbola, "_unit_tables", no_tables)
    spec = HyperbolaSpec(2, 2, 1, 2**31)
    with pytest.raises(ValueError, match=r"below 2\^31"):
        _checked_tuple_count(spec, 10**12)
    for enumerate_ in (signed_sumset, lambda s, budget: list(enumerate_points(s, budget))):
        with pytest.raises(ValueError, match=r"below 2\^31"):
            enumerate_(spec, budget=10**12)
    with pytest.raises(ValueError, match=r"below 2\^31"):
        sum_diff_sets(1, 2**31, budget=10**12)
    with pytest.raises(EnumerationBudgetError):
        _checked_tuple_count(HyperbolaSpec(2, 2, 1, 2**31 - 1), DEFAULT_BUDGET)
    with pytest.raises(EnumerationBudgetError):
        signed_sumset(HyperbolaSpec(2, 2, 1, 2**31 - 1))


def test_unit_tables_inverses():
    # the inverses, formed as u^(phi(n) - 1), against pow(u, -1, n); the
    # tables switch from int32 to int64 between 46340 and 46341
    for n in range(2, 3001):
        units, inv = _unit_tables(n)
        assert units.tolist() == [u for u in range(n) if math.gcd(u, n) == 1], n
        assert inv.tolist() == [pow(u, -1, n) for u in units.tolist()], n
    for n, dtype in ((46340, np.int32), (46341, np.int64)):
        units, inv = _unit_tables(n)
        assert units.dtype == inv.dtype == dtype
        assert inv.tolist() == [pow(u, -1, n) for u in units.tolist()], n


# ---------------------------------------------------------------- invariants


def test_reflection_symmetry_planar():
    for n in [7, 16, 45, 100]:
        for a in [1, 3]:
            if math.gcd(a, n) != 1:
                continue
            pts = set(enumerate_points(HyperbolaSpec(2, 2, a, n)))
            assert pts == {(y, x) for x, y in pts}
            dset = signed_sumset(HyperbolaSpec(2, 1, a, n))
            assert all((n - v) % n in dset for v in dset)


def test_sum_equals_reflected_difference_small():
    # sumset of a equals difference set of -a, as sets
    for n in range(2, 200):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            s, _ = sum_diff_sets(a, n)
            _, d = sum_diff_sets((-a) % n, n)
            assert s == d, (a, n)


def test_parity_at_two_powers():
    for t in range(1, 9):
        q = 2**t
        for a in range(1, q, 2):
            s, d = sum_diff_sets(a, q)
            assert all(v % 2 == 0 for v in s)
            assert all(v % 2 == 0 for v in d)


def test_doubling_bijection():
    # |difference set at p^t| equals the count of k with k^2 + a square,
    # k over [0, p^t) for odd p and [0, 2^(t-1)) at p = 2
    for p in primes_up_to(47):
        q, t = p, 1
        while q <= 2048:
            bound = q // 2 if p == 2 else q
            squares = {x * x % q for x in range(q)}
            for a in range(1, min(q, 40)):
                if math.gcd(a, p) != 1:
                    continue
                _, d = sum_diff_sets(a, q)
                count = sum(1 for k in range(bound) if (k * k + a) % q in squares)
                assert len(d) == count, (a, p, t)
            q *= p
            t += 1


def test_complement_symmetry():
    # coordinate negation: m-plus set of (-1)^d * a is the negated m-plus set of a
    # coordinate reversal: (d-m)-plus set of a is the negated m-plus set of a
    rng = random.Random(17)
    for d in (2, 3):
        for n in [5, 9, 16, 50, 201, 500]:
            units = [x for x in range(1, n) if math.gcd(x, n) == 1]
            a = rng.choice(units)
            for m in range(d + 1):
                base = signed_sumset(HyperbolaSpec(d, m, a, n))
                negated = from_mask(n, ((-v) % n for v in base))
                flipped_a = ((-1) ** d * a) % n
                assert signed_sumset(HyperbolaSpec(d, m, flipped_a, n)) == negated
                assert signed_sumset(HyperbolaSpec(d, d - m, a, n)) == negated


# ---------------------------------------------------------------- tables


def test_tables_match_per_a_oracle():
    # 1031 has 1030 units, 15 rows to a block: the last block holds 10
    for n in [2, 3, 5, 8, 12, 45, 60, 1031]:
        s_tab, d_tab = sum_diff_tables(n)
        s_card, d_card = sum_diff_cardinalities(n)
        for a in range(n):
            if math.gcd(a, n) != 1:
                assert not s_tab[a].any() and not d_tab[a].any()
                continue
            s, d = sum_diff_sets(a, n)
            assert np.flatnonzero(s_tab[a]).tolist() == s.values()
            assert np.flatnonzero(d_tab[a]).tolist() == d.values()
            assert int(s_card[a]) == len(s) and int(d_card[a]) == len(d)


def test_cardinalities_at_given_rows():
    # only the rows asked for are formed; they equal the full table's rows,
    # in the order given, and a is taken modulo n
    rng = random.Random(3)
    for n in (301, 1024, 2310, 4999):
        sums, diffs = sum_diff_cardinalities(n)
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        rows = rng.sample(units, 20)
        s, d = sum_diff_cardinalities(n, np.array(rows))
        assert s.tolist() == sums[rows].tolist() and d.tolist() == diffs[rows].tolist()
        s, d = sum_diff_cardinalities(n, [a - n for a in rows])
        assert s.tolist() == sums[rows].tolist() and d.tolist() == diffs[rows].tolist()
    assert [c.tolist() for c in sum_diff_cardinalities(7, [])] == [[], []]
    with pytest.raises(ValueError, match="unit"):
        sum_diff_cardinalities(12, [1, 4])


def test_tables_reject_out_of_range():
    for build in (sum_diff_tables, sum_diff_cardinalities):
        with pytest.raises(ValueError):
            build(1)
        with pytest.raises(ValueError):
            build(10**6)


def test_cardinalities_memory_is_linear():
    # one n x n bool table alone is 64 MB at n = 8192
    tracemalloc.start()
    try:
        sum_diff_cardinalities(8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
