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
    _check_budget,
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


def test_residue_set_other_types_and_repr():
    # comparison with a non-ResidueSet falls back (NotImplemented) to identity
    rs = from_mask(9, [0, 3, 6])
    assert rs != [0, 3, 6] and not rs == [0, 3, 6]
    assert rs.__eq__([0, 3, 6]) is NotImplemented
    assert repr(rs) == "ResidueSet(mod 9, 3 members)"


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
        HyperbolaSpec(4, 2, 1, 75),  # 40^3 tuples, four blocks of 16,360
        HyperbolaSpec(1200, 3, 1, 2),  # one unit: every dimension fits the budget
    ]:
        pts = list(enumerate_points(spec))
        assert len(pts) == euler_phi(spec.n) ** (spec.d - 1)
        assert pts == sorted(pts)  # lexicographic in the leading coordinates
        for pt in pts:
            assert math.prod(pt) % spec.n == spec.a
            assert all(1 <= c < spec.n and math.gcd(c, spec.n) == 1 for c in pt)


def test_enumerate_budget_refused_at_the_call():
    # as signed_sumset does: the refusal comes from the call itself, before
    # any next(), so a caller can refuse before it writes or opens anything
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_points(HyperbolaSpec(3, 3, 1, 101), budget=100)
    assert err.value.tuple_count == 100**2


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
    # d = 4, n = 75: 40^3 tuples in four blocks of 16,360, whose edges fall
    # inside the second coordinate's range; neither m covers Z/75, so every
    # block is walked
    cases += [HyperbolaSpec(4, 1, 1, 75), HyperbolaSpec(4, 3, 1, 75)]
    for spec in cases:
        assert set(signed_sumset(spec)) == naive_signed_sumset(spec), spec


def test_fibre_over_several_blocks():
    # phi(n) > _BLOCK: one fibre fills several kernel calls, and every call
    # after the first starts partway through it (n = 16411 is prime and
    # takes int32 tables, n = 50000 int64 ones)
    for a, n in ((3, 16411), (7, 50000)):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        assert len(units) > _BLOCK
        points = [(x, a * pow(x, -1, n) % n) for x in units]
        assert list(enumerate_points(HyperbolaSpec(2, 2, a, n))) == points
        sums = sorted({(x + y) % n for x, y in points})
        diffs = sorted({(x - y) % n for x, y in points})
        s, d = sum_diff_sets(a, n)
        assert (s.values(), d.values()) == (sums, diffs)
        assert signed_sumset(HyperbolaSpec(2, 2, a, n)).values() == sums
        assert signed_sumset(HyperbolaSpec(2, 1, a, n)).values() == diffs


def test_signed_sumset_budget():
    with pytest.raises(EnumerationBudgetError):
        signed_sumset(HyperbolaSpec(2, 2, 1, 9), budget=5)


def test_coordinate_steps_charged_to_budget():
    # the kernel takes d - 1 numpy steps per block even at phi(n) = 1, so
    # each step is charged _BLOCK tuples, and the unit table built first
    # from all n residues is charged n: the budget that exactly fits the
    # tuples, the steps and the table passes, one less is refused before
    # any work
    for spec, tuples in ((HyperbolaSpec(40, 40, 1, 2), 1), (HyperbolaSpec(3, 2, 2, 5), 16)):
        edge = tuples + (spec.d - 1) * _BLOCK + spec.n
        assert set(signed_sumset(spec, budget=edge)) == naive_signed_sumset(spec)
        assert len(list(enumerate_points(spec, budget=edge))) == tuples
        charged = f"{spec.d - 1} coordinate steps at {_BLOCK} each and a unit table of {spec.n} "
        with pytest.raises(EnumerationBudgetError, match=charged) as err:
            signed_sumset(spec, budget=edge - 1)
        assert (err.value.steps, err.value.table) == (spec.d - 1, spec.n)


def test_modulus_bound_precedes_any_table(monkeypatch):
    # _pow_mod and the kernel's int64 products need n < 2^31: a larger n that
    # the budget admits is refused before any array is built, and the
    # budget is still checked first
    def no_tables(n):
        raise AssertionError(f"built the tables of {n}")

    monkeypatch.setattr(modhyp.hyperbola, "_unit_tables", no_tables)
    spec = HyperbolaSpec(2, 2, 1, 2**31)
    with pytest.raises(ValueError, match=r"below 2\^31"):
        _check_budget(spec, 10**12)
    for enumerate_ in (signed_sumset, lambda s, budget: list(enumerate_points(s, budget))):
        with pytest.raises(ValueError, match=r"below 2\^31"):
            enumerate_(spec, budget=10**12)
    with pytest.raises(ValueError, match=r"below 2\^31"):
        sum_diff_sets(1, 2**31, budget=10**12)
    with pytest.raises(EnumerationBudgetError):
        _check_budget(HyperbolaSpec(2, 2, 1, 2**31 - 1), DEFAULT_BUDGET)
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


def test_unit_tables_keep_only_the_last_modulus():
    # the budget charges each oracle call for its tables: they must not
    # outlive the call at the next modulus
    signed_sumset(HyperbolaSpec(3, 2, 1, 101))
    sum_diff_sets(3, 103)
    info = _unit_tables.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    hits = info.hits
    _unit_tables(103)
    assert _unit_tables.cache_info().hits == hits + 1


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
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        s_card, d_card = sum_diff_cardinalities(n, units)
        cards = dict(zip(units, zip(s_card.tolist(), d_card.tolist())))
        for a in range(n):
            if math.gcd(a, n) != 1:
                assert not s_tab[a].any() and not d_tab[a].any()
                continue
            s, d = sum_diff_sets(a, n)
            assert np.flatnonzero(s_tab[a]).tolist() == s.values()
            assert np.flatnonzero(d_tab[a]).tolist() == d.values()
            assert cards[a] == (len(s), len(d))


def test_cardinalities_at_given_rows():
    # only the rows asked for are formed; they equal the per-a oracle's
    # counts, in the order given, and a is taken modulo n
    rng = random.Random(3)
    for n in (301, 1024, 2310, 4999):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        rows = rng.sample(units, 20)
        sets = [sum_diff_sets(a, n) for a in rows]
        sums, diffs = [len(s) for s, _ in sets], [len(d) for _, d in sets]
        s, d = sum_diff_cardinalities(n, np.array(rows))
        assert s.tolist() == sums and d.tolist() == diffs
        s, d = sum_diff_cardinalities(n, [a - n for a in rows])
        assert s.tolist() == sums and d.tolist() == diffs
        # any signed-integer width takes the numpy path; an unsigned array
        # is reduced one entry at a time, exactly
        for dtype in (np.int32, np.int16, np.uint64):
            s, d = sum_diff_cardinalities(n, np.array(rows, dtype=dtype))
            assert s.tolist() == sums and d.tolist() == diffs, dtype
    assert [c.tolist() for c in sum_diff_cardinalities(7, [])] == [[], []]
    with pytest.raises(ValueError, match="unit"):
        sum_diff_cardinalities(12, [1, 4])
    # any int is reduced exactly: 2^70 + 1 = 3 (mod 7), past int64
    assert [c.tolist() for c in sum_diff_cardinalities(7, [2**70 + 1])] == [[3], [4]]
    # a uint64 entry past int64, 2^64 - 4 = 5 (mod 7)
    big = sum_diff_cardinalities(7, np.array([2**64 - 4], dtype=np.uint64))
    assert [c.tolist() for c in big] == [c.tolist() for c in sum_diff_cardinalities(7, [5])]
    for bad in ([1.5], np.array([1.5]), np.array([[1, 2]]), [[1, 2]], 3):
        with pytest.raises(ValueError, match="1-D sequence of integers"):
            sum_diff_cardinalities(7, bad)


def _reference_rows(n, rows):
    """Plain-loop sumset and difference set of each a in rows: the residues
    x + a x^-1 and x - a x^-1 over the units x."""
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    pairs = [(x, pow(x, -1, n)) for x in units]
    return [
        ({(x + a * xi) % n for x, xi in pairs}, {(x - a * xi) % n for x, xi in pairs})
        for a in rows
    ]


def test_direct_kernel_at_block_edges():
    # phi(2) = 1; phi(256) * 128 rows = _BLOCK exactly; 1031 has 1030 units,
    # 15 rows a block, the last holding 10
    assert euler_phi(256) * (_BLOCK // euler_phi(256)) == _BLOCK
    for n in (2, 256, 1031):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        expected = _reference_rows(n, units)
        s_tab, d_tab = sum_diff_tables(n)
        others = [a for a in range(n) if math.gcd(a, n) != 1]
        assert not s_tab[others].any() and not d_tab[others].any()
        for a, (s, d) in zip(units, expected):
            assert np.flatnonzero(s_tab[a]).tolist() == sorted(s)
            assert np.flatnonzero(d_tab[a]).tolist() == sorted(d)
        sums, diffs = sum_diff_cardinalities(n, units)
        assert sums.tolist() == [len(s) for s, _ in expected]
        assert diffs.tolist() == [len(d) for _, d in expected]
    # 8192 takes 4 rows a block: nine unsorted rows, with repeats, span three
    rows = [8191, 3, 5, 3, 4097, 1, 8191, 2049, 77]
    expected = _reference_rows(8192, rows)
    sums, diffs = sum_diff_cardinalities(8192, rows)
    assert sums.tolist() == [len(s) for s, _ in expected]
    assert diffs.tolist() == [len(d) for _, d in expected]
    for n in (2, 1031, 8192):
        empty = np.array([], dtype=np.int64)
        assert [c.tolist() for c in sum_diff_cardinalities(n, empty)] == [[], []]


def test_tables_reject_out_of_range():
    for build in (sum_diff_tables, lambda n: sum_diff_cardinalities(n, [1])):
        with pytest.raises(ValueError):
            build(1)
        with pytest.raises(ValueError):
            build(10**6)


def test_cardinalities_memory_is_linear():
    # one n x n bool table alone is 64 MB at n = 8192
    units = np.arange(1, 8192, 2)
    tracemalloc.start()
    try:
        sum_diff_cardinalities(8192, units)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
