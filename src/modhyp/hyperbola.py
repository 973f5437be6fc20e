"""Brute-force enumeration of modular hyperbolas and their signed sumsets.

The d-dimensional hyperbola at modulus n and unit a is the set of d-tuples
of units in [1, n) whose product is a (mod n).  This module materializes
those point sets and the exact residue sets of their signed coordinate
sums; it is the ground truth the closed-form counting code is checked
against, so it never takes shortcuts through any counting identity.

Every point is formed in one kernel, ``_fibre``.  Fixing the head
x_1, ..., x_{d-2} leaves the planar hyperbola x_{d-1} x_d = c with
c = a (x_1 ... x_{d-2})^-1, whose points are (x, c x^-1) over all units x,
so the hyperbola is a union of planar fibres.  Tuples are numbered
lexicographically and every entry point walks them in blocks of at most
``_BLOCK`` cells (one per point or table entry), whole fibres at a time
where they fit, so memory is bounded by the block, not the hyperbola.

``signed_sumset`` stops once a block completes the residue set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import _pow_mod, euler_phi

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
]

DEFAULT_BUDGET = 10**8
_TABLE_LIMIT = 8192
# the moduli the kernel takes: _pow_mod and the int64 products of _fibre
# need n < 2^31
_MODULUS_LIMIT = 2**31
# Cells per kernel call.  Fibres are whole within a block, so the early exit
# of signed_sumset is checked every _BLOCK // phi(n) heads: larger blocks
# fire it late on d >= 3, smaller ones pay more numpy calls per cell.
_BLOCK = 1 << 14


class EnumerationBudgetError(RuntimeError):
    """An enumeration would cost more than the budget allows.

    The cost is the leading tuples plus ``_BLOCK`` for each of the d - 1
    coordinate steps of a kernel call, so a huge d is refused even where
    phi(n) = 1.  tuple_count is the first of phi(n), phi(n)^2,
    ..., phi(n)^(d-1) over the budget, a lower bound on the leading tuples
    (exact when it is the last), or all of them when the steps tip it over.
    """

    def __init__(self, tuple_count: int, budget: int, steps: int = 0) -> None:
        # a count past 1024 bits prints as the power of two below it, so the
        # message never meets the interpreter's int-to-str digit limit
        bits = tuple_count.bit_length()
        shown = tuple_count if bits <= 1024 else f"2^{bits - 1}"
        charged = f" and {steps} coordinate steps at {_BLOCK} each" if steps else ""
        super().__init__(
            f"enumeration needs at least {shown} leading tuples{charged}, "
            f"over the budget of {budget}"
        )
        self.tuple_count = tuple_count
        self.budget = budget
        self.steps = steps

    def __reduce__(self):
        # rebuild from the arguments, not from args = (message,), so the
        # error survives pickling
        return type(self), (self.tuple_count, self.budget, self.steps)


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
    """An immutable set of residues modulo n: entry r of a 1-D bool mask of
    length n is membership of r.  The set keeps the mask it is given, with
    no copy, and makes it read-only.  Iteration yields the members in
    ascending order.
    """

    __slots__ = ("modulus", "_mask")

    def __init__(self, mask: np.ndarray) -> None:
        if mask.dtype != bool or mask.ndim != 1 or mask.size == 0:
            raise ValueError("mask must be a non-empty 1-D bool array")
        mask.setflags(write=False)
        self.modulus = mask.size
        self._mask = mask

    def values(self) -> list[int]:
        return np.flatnonzero(self._mask).tolist()

    def complement(self) -> "ResidueSet":
        return ResidueSet(~self._mask)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __contains__(self, r: int) -> bool:
        return 0 <= r < self.modulus and bool(self._mask[r])

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return np.array_equal(self._mask, other._mask)

    def __hash__(self) -> int:
        return hash(self._mask.tobytes())

    def __repr__(self) -> str:
        return f"ResidueSet(mod {self.modulus}, {len(self)} members)"


@lru_cache(maxsize=192)
def _unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (units, inverses) arrays for modulus n; read-only.

    int32 while a product of two residues fits it (n^2 < 2^31), which
    halves the memory traffic of the kernel; int64 above.  The inverse of u
    is u^(phi(n) - 1) (Euler), formed for all units at once.
    """
    dtype = np.int32 if n * n < 2**31 else np.int64
    wide = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    inv = _pow_mod(wide, len(wide) - 1, n).astype(dtype)
    units = wide.astype(dtype)
    units.setflags(write=False)
    inv.setflags(write=False)
    return units, inv


def _checked_tuple_count(spec: HyperbolaSpec, budget: int) -> int:
    """phi(n)^(d-1), formed one factor at a time: the first partial product
    over the budget is refused, so a huge d never builds its full power.
    The d - 1 coordinate steps are charged on top, _BLOCK each.  A modulus
    within the budget but not below _MODULUS_LIMIT is refused (ValueError)."""
    phi, count = euler_phi(spec.n), 1
    steps = spec.d - 1
    for _ in range(steps if phi > 1 else 0):
        count *= phi
        if count > budget:
            raise EnumerationBudgetError(count, budget)
    if count + steps * _BLOCK > budget:
        raise EnumerationBudgetError(count, budget, steps)
    if spec.n >= _MODULUS_LIMIT:
        raise ValueError(f"modulus n = {spec.n} must be below 2^31 (the oracle's int64 products)")
    return count


def _mod(v: np.ndarray, n: int) -> np.ndarray:
    # v % n, in place: numpy divides an array by a scalar with a multiply
    # and a shift, but takes % with one hardware division per element
    v -= n * (v // n)
    return v


def _fibre(
    n: int, c0: np.ndarray, signs: tuple[int, ...], lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Constants c and signed sums b of the tuples lo..hi-1 extending the rows of c0.

    Tuple j is (i, x_1, ..., x_k) in lexicographic order, for a row i of c0
    and k = len(signs) units x_l; its constant is c0[i] * (x_1 ... x_k)^-1
    and its sum is s_1 x_1 + ... + s_k x_k.  The tuples are built one
    coordinate at a time: the l-th coordinate runs over the planar fibre
    (x, c x^-1) of each (l-1)-tuple, whose constant c it divides by x.
    """
    units, inv = _unit_tables(n)
    phi = len(units)
    ranges = [(lo, hi)]  # the tuples needed at each length, longest first
    for _ in signs:
        lo, hi = ranges[-1]
        ranges.append((lo // phi, (hi - 1) // phi + 1))
    first, last = ranges.pop()
    c, b = c0[first:last], np.zeros(last - first, dtype=units.dtype)
    for s, (lo, hi) in zip(signs, reversed(ranges)):
        wanted = slice(lo - first * phi, hi - first * phi)
        if len(c) == 1:  # one parent: extend it by only the units in range
            x, x_inv, cut = units[wanted], inv[wanted], slice(None)
        else:
            x, x_inv, cut = units, inv, wanted
        c = _mod(c[:, None] * x_inv, n).ravel()[cut]
        b = (b[:, None] + s * x).ravel()[cut]
        first = lo
    return c, b


def _blocks(
    n: int, c0: list[int] | np.ndarray, signs: tuple[int, ...], lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, c, b) of ``_fibre`` over tuples lo..hi-1, a block at a time: as
    many whole fibres of phi(n) tuples as fit in ``_BLOCK``, else ``_BLOCK``
    tuples of one fibre.  lo starts a fibre or lies in the only one."""
    units, _ = _unit_tables(n)
    c0 = np.asarray(c0, dtype=units.dtype)
    step = _BLOCK // len(units) * len(units) or _BLOCK
    for start in range(lo, hi, step):
        yield start, *_fibre(n, c0, signs, start, min(start + step, hi))


def enumerate_points(
    spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield the points of the hyperbola, each coordinate a unit in [1, n).

    Iteration is lexicographic in the leading d-1 coordinates; the last
    coordinate is a times the inverse of their product.  The number of
    leading tuples is phi(n)^(d-1) and must fit the budget.
    """
    count = _checked_tuple_count(spec, budget)
    units, _ = _unit_tables(spec.n)
    for start, last, _ in _blocks(spec.n, [spec.a], spec.signs[:-1], 0, count):
        rest, lead = np.arange(start, start + len(last)), []
        for _ in range(spec.d - 1):  # base-phi digits of the tuple number
            rest, digit = np.divmod(rest, len(units))
            lead.append(units[digit].tolist())
        yield from zip(*reversed(lead), last.tolist())


def signed_sumset(spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET) -> ResidueSet:
    """The exact residue set of signed coordinate sums over the hyperbola.

    Stops early once every residue is attained (the set can only grow, so
    the answer is already final).
    """
    count = _checked_tuple_count(spec, budget)
    n, signs = spec.n, spec.signs
    mask = np.zeros(n, dtype=bool)
    for _, c, b in _blocks(n, [spec.a], signs[:-1], 0, count):
        mask[_mod(b + signs[-1] * c, n)] = True
        if mask.all():
            break
    return ResidueSet(mask)


def sum_diff_sets(
    a: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[ResidueSet, ResidueSet]:
    """Reduced planar sumset and difference set, sharing one enumeration pass."""
    spec = HyperbolaSpec(2, 2, a, n)
    count = _checked_tuple_count(spec, budget)
    smask = np.zeros(n, dtype=bool)
    dmask = np.zeros(n, dtype=bool)
    for _, y, x in _blocks(n, [spec.a], (1,), 0, count):
        smask[(x + y) % n] = True
        dmask[(x - y) % n] = True
    return ResidueSet(smask), ResidueSet(dmask)


def _check_table_modulus(n: int) -> None:
    if n < 2 or n > _TABLE_LIMIT:
        raise ValueError(f"n must be in [2, {_TABLE_LIMIT}]")


def _table_blocks(
    n: int, a: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(units a, masks) for consecutive blocks of the units a (default every
    unit, ascending): masks[0, i] is the sumset of a[i] and masks[1, i] its
    difference set."""
    units, _ = _unit_tables(n)
    phi = len(units)
    a = units if a is None else a
    for start, y, x in _blocks(n, a, (1,), 0, len(a) * phi):
        rows = len(y) // phi
        # sums x + y lie in [0, 2n) and shifted differences x - y + n in
        # (0, 2n): mark both in double-width rows, then fold those modulo n
        marks = np.zeros((2, rows, 2 * n), dtype=bool)
        at = x.reshape(rows, phi) + np.arange(0, rows * 2 * n, 2 * n)[:, None]
        y = y.reshape(rows, phi).astype(np.int64)
        marks.reshape(-1)[at + y] = True
        at += rows * 2 * n + n
        at -= y
        marks.reshape(-1)[at] = True
        yield a[start // phi :][:rows], marks[..., :n] | marks[..., n:]


def sum_diff_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership tables S[a, v] and D[a, v] for every unit a at once.

    Row a of S marks the reduced coordinate sums over the hyperbola of a
    (D likewise for differences), filled by enumerating its points
    (x, a * x^-1) over all units x.  Rows of non-units stay empty.  Each
    table is n*n booleans, filled a block of n-wide rows at a time with no
    wider copy, so n is capped at a desk-scale limit.
    """
    _check_table_modulus(n)
    tables = np.zeros((2, n, n), dtype=bool)
    for a, masks in _table_blocks(n):
        tables[:, a] = masks
    return tables[0], tables[1]


def sum_diff_cardinalities(
    n: int, a: np.ndarray | list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """|sumset| and |difference set| for every unit a (0 at non-units), or,
    given an array of units a, at each of them in order, forming only their
    rows.

    The rows are counted a block at a time and no table is kept, so memory
    is O(n).
    """
    _check_table_modulus(n)
    if a is None:
        counts = np.zeros((2, n), dtype=np.int64)
        for rows, masks in _table_blocks(n):
            counts[:, rows] = masks.sum(axis=2)
        return counts[0], counts[1]
    a = np.asarray(a, dtype=np.int64) % n
    if np.any(np.gcd(a, n) != 1):
        raise ValueError(f"every a must be a unit modulo {n}")
    counts = [np.zeros((2, 0), dtype=np.int64)]  # the columns of an empty a
    counts += [masks.sum(axis=2) for _, masks in _table_blocks(n, a)]
    sums, diffs = np.concatenate(counts, axis=1)
    return sums, diffs
