"""Brute-force enumeration of modular hyperbolas and their signed sumsets.

The d-dimensional hyperbola at modulus n and unit a is the set of d-tuples
of units in [1, n) whose product is a (mod n).  This module materializes
those point sets and the exact residue sets of their signed coordinate
sums; it is the ground truth the closed-form counting code is checked
against, so it never takes shortcuts through any counting identity.

Enumeration partitions the leading-coordinate range into fixed-size
chunks; each chunk accumulates a private membership mask and the masks
merge by union, so results are deterministic and independent of worker
scheduling.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .arith import euler_phi

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "HyperbolaSpec",
    "ResidueSet",
    "enumerate_points",
    "signed_sumset",
    "sum_diff_cardinalities",
    "sum_diff_sets",
    "sum_diff_tables",
    "unreduced_sum_diff",
]

DEFAULT_BUDGET = 10**8
_TABLE_LIMIT = 8192
_CHUNK = 2048


class EnumerationBudgetError(RuntimeError):
    """An enumeration would evaluate more leading tuples than the budget allows."""

    def __init__(self, tuple_count: int, budget: int) -> None:
        super().__init__(
            f"enumeration needs {tuple_count} leading tuples, over the budget of {budget}"
        )
        self.tuple_count = tuple_count
        self.budget = budget


@dataclass(frozen=True)
class HyperbolaSpec:
    """A signed-sumset instance: dimension d, plus-sign count m, unit a, modulus n.

    The signed sum of a point (x_1, ..., x_d) is
    x_1 + ... + x_m - x_{m+1} - ... - x_d.  m = 0 (all minus signs) is
    permitted as the natural extension of the definition; its set is the
    negation of the all-plus set.  a is stored reduced into [1, n).
    """

    d: int
    m: int
    a: int
    n: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("dimension d must be >= 2")
        if not 0 <= self.m <= self.d:
            raise ValueError(f"m = {self.m} must lie in [0, d]")
        if self.n < 2:
            raise ValueError("modulus n must be >= 2")
        object.__setattr__(self, "a", self.a % self.n)
        if math.gcd(self.a, self.n) != 1:
            raise ValueError(f"a = {self.a} is not a unit modulo {self.n}")

    @property
    def signs(self) -> tuple[int, ...]:
        return (1,) * self.m + (-1,) * (self.d - self.m)


class ResidueSet:
    """An immutable set of residues modulo n, stored as a dense bit mask.

    Bit r of the mask is membership of residue r, so set equality and
    union are word-wise integer operations and the cardinality is a
    popcount (cached after first use).
    """

    __slots__ = ("modulus", "_bits", "_card")

    def __init__(self, modulus: int, bits: int = 0) -> None:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if bits < 0 or bits >> modulus:
            raise ValueError("bit mask has members outside [0, modulus)")
        self.modulus = modulus
        self._bits = bits
        self._card: int | None = None

    @classmethod
    def from_iterable(cls, modulus: int, values: Iterable[int]) -> "ResidueSet":
        bits = 0
        for v in values:
            bits |= 1 << (v % modulus)
        return cls(modulus, bits)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ResidueSet":
        packed = np.packbits(mask.astype(bool, copy=False), bitorder="little")
        return cls(mask.size, int.from_bytes(packed.tobytes(), "little"))

    def to_mask(self) -> np.ndarray:
        raw = np.frombuffer(
            self._bits.to_bytes((self.modulus + 7) // 8, "little"), dtype=np.uint8
        )
        return np.unpackbits(raw, bitorder="little")[: self.modulus].astype(bool)

    @property
    def cardinality(self) -> int:
        if self._card is None:
            self._card = self._bits.bit_count()
        return self._card

    def values(self) -> list[int]:
        return np.flatnonzero(self.to_mask()).tolist()

    def complement(self) -> "ResidueSet":
        return ResidueSet(self.modulus, ~self._bits & ((1 << self.modulus) - 1))

    def union(self, other: "ResidueSet") -> "ResidueSet":
        return self.__or__(other)

    def __or__(self, other: "ResidueSet") -> "ResidueSet":
        if self.modulus != other.modulus:
            raise ValueError("union requires matching moduli")
        return ResidueSet(self.modulus, self._bits | other._bits)

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.modulus and (self._bits >> r) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.modulus == other.modulus and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.modulus, self._bits))

    def __repr__(self) -> str:
        return f"ResidueSet(mod {self.modulus}, {self.cardinality} members)"


@lru_cache(maxsize=192)
def _unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (units, inverses) arrays for modulus n; read-only."""
    r = np.arange(n, dtype=np.int64)
    units = r[np.gcd(r, n) == 1]
    inv = np.fromiter(
        (pow(int(u), -1, n) for u in units), dtype=np.int64, count=len(units)
    )
    units.setflags(write=False)
    inv.setflags(write=False)
    return units, inv


def _checked_tuple_count(spec: HyperbolaSpec, budget: int) -> int:
    count = euler_phi(spec.n) ** (spec.d - 1)
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    return count


def enumerate_points(
    spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield the points of the hyperbola, each coordinate a unit in [1, n).

    Iteration is lexicographic in the leading d-1 coordinates; the last
    coordinate is a times the inverse of their product.  The number of
    leading tuples is phi(n)^(d-1) and must fit the budget.
    """
    _checked_tuple_count(spec, budget)
    n, a, d = spec.n, spec.a, spec.d
    units, inv = _unit_tables(n)
    units_l = units.tolist()
    inv_of = dict(zip(units_l, inv.tolist()))
    for prefix in itertools.product(units_l, repeat=d - 1):
        acc = 1
        for x in prefix:
            acc = acc * x % n
        yield (*prefix, a * inv_of[acc] % n)


def _chunk_mask(
    spec: HyperbolaSpec, units: np.ndarray, inv: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    n, a, d = spec.n, spec.a, spec.d
    signs = spec.signs
    mask = np.zeros(n, dtype=bool)
    if d == 2:
        x = units[lo:hi]
        y = a * inv[lo:hi] % n
        mask[(signs[0] * x + signs[1] * y) % n] = True
        return mask
    lead = units[lo:hi].tolist()
    middle = [units.tolist()] * (d - 3)
    for head in itertools.product(lead, *middle):
        acc, base = 1, 0
        for s, x in zip(signs, head):
            acc = acc * x % n
            base += s * x
        c = a * pow(acc, -1, n) % n
        last = c * inv % n
        mask[(base + signs[d - 2] * units + signs[d - 1] * last) % n] = True
        if mask.all():
            break
    return mask


def signed_sumset(
    spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> ResidueSet:
    """The exact residue set of signed coordinate sums over the hyperbola.

    Chunk boundaries are fixed, private chunk masks merge by union, and
    union is commutative, so the result is byte-identical for any worker
    count.  Stops early once every residue is attained (the set can only
    grow, so the answer is already final).
    """
    _checked_tuple_count(spec, budget)
    units, inv = _unit_tables(spec.n)
    spans = [(lo, min(lo + _CHUNK, len(units))) for lo in range(0, len(units), _CHUNK)]
    mask = np.zeros(spec.n, dtype=bool)
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # fold each chunk mask in as map yields it, rather than holding
            # one n-byte mask per chunk until the last one is done
            for chunk in pool.map(lambda s: _chunk_mask(spec, units, inv, *s), spans):
                mask |= chunk
    else:
        for lo, hi in spans:
            mask |= _chunk_mask(spec, units, inv, lo, hi)
            if mask.all():
                break
    return ResidueSet.from_mask(mask)


def sum_diff_sets(
    a: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[ResidueSet, ResidueSet]:
    """Reduced planar sumset and difference set, sharing one enumeration pass."""
    spec = HyperbolaSpec(2, 2, a, n)
    _checked_tuple_count(spec, budget)
    units, inv = _unit_tables(n)
    y = spec.a * inv % n
    smask = np.zeros(n, dtype=bool)
    smask[(units + y) % n] = True
    dmask = np.zeros(n, dtype=bool)
    dmask[(units - y) % n] = True
    return ResidueSet.from_mask(smask), ResidueSet.from_mask(dmask)


def sum_diff_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership tables S[a, v] and D[a, v] for every unit a at once.

    Row a of S marks the reduced coordinate sums over the hyperbola of a
    (D likewise for differences), filled by enumerating its points
    (x, a * x^-1) over all units x.  Rows of non-units stay empty.  Each
    table is n*n booleans, so n is capped at a desk-scale limit.
    """
    if n < 2 or n > _TABLE_LIMIT:
        raise ValueError(f"n must be in [2, {_TABLE_LIMIT}]")
    units64, inv64 = _unit_tables(n)
    units = units64.astype(np.int32)
    inv = inv64.astype(np.int32)
    # row at a is filled in one pass over the points (x, a * x^-1); rows are
    # double width so sums land in [2, 2n-2] and shifted differences in
    # [1, 2n) without any wrap fix-up, then one fold reduces them modulo n
    s = np.zeros((n, 2 * n), dtype=bool)
    d = np.zeros((n, 2 * n), dtype=bool)
    for a in units.tolist():
        y = a * inv % n
        s[a][units + y] = True
        d[a][(units - y) + n] = True
    s[:, :n] |= s[:, n:]
    d[:, :n] |= d[:, n:]
    return np.ascontiguousarray(s[:, :n]), np.ascontiguousarray(d[:, :n])


def sum_diff_cardinalities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """|sumset| and |difference set| for every unit a (0 at non-units)."""
    s, d = sum_diff_tables(n)
    return s.sum(axis=1, dtype=np.int64), d.sum(axis=1, dtype=np.int64)


def unreduced_sum_diff(
    a: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[set[int], set[int]]:
    """Integer (unreduced) coordinate sums and differences of the planar hyperbola.

    Sums lie in [2, 2n-2] and differences in [-(n-2), n-2]; no reduction
    modulo n is applied.
    """
    spec = HyperbolaSpec(2, 2, a, n)
    _checked_tuple_count(spec, budget)
    units, inv = _unit_tables(n)
    sums: set[int] = set()
    diffs: set[int] = set()
    for x, v in zip(units.tolist(), inv.tolist()):
        y = spec.a * v % n
        sums.add(x + y)
        diffs.add(x - y)
    return sums, diffs
