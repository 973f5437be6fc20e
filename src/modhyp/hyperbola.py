"""Brute-force enumeration of modular hyperbolas and their signed sumsets.

The d-dimensional hyperbola at modulus n and unit a is the set of d-tuples
of units in [1, n) whose product is a (mod n).  This module materializes
those point sets and the exact residue sets of their signed coordinate
sums; it is the ground truth the closed-form counting code is checked
against, so it never takes shortcuts through any counting identity.

The single-a entry points form every point in one kernel, ``_blocks``.
Fixing the head x_1, ..., x_{d-2} leaves the planar hyperbola x_{d-1} x_d = c
with c = a (x_1 ... x_{d-2})^-1, whose points are (x, c x^-1) over all units
x, so the hyperbola is a union of planar fibres.  Tuples are numbered
lexicographically and those entry points walk them in blocks of at most
``_BLOCK`` tuples, whole fibres at a time where they fit, so memory is
bounded by the block, not the hyperbola.

The all-a planar tables (``sum_diff_tables``, ``sum_diff_cardinalities``)
need one coordinate only, so ``_table_blocks`` forms y = a x^-1 directly,
``_BLOCK // phi(n)`` rows of a at a time, over index bases built once per
modulus.  Through ``_blocks`` the same rows cost 1.15 to 1.5 times as much
a point (numpy 2.4, 2 cores), and precomputing only the bases there gained
nothing.

``signed_sumset`` stops once a block completes the residue set.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .arith import _pow_mod, euler_phi, factorize

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
# the moduli the kernel takes: _pow_mod and the int64 products of _blocks
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
    phi(n) = 1, plus n for the unit table that ``_unit_tables`` builds from
    all n residues before the first block.  tuple_count is the first of
    phi(n), phi(n)^2, ..., phi(n)^(d-1) over the budget, a lower bound on
    the leading tuples (exact when it is the last), or all of them when the
    steps and the table tip it over.
    """

    def __init__(self, tuple_count: int, budget: int, steps: int = 0, table: int = 0) -> None:
        # a count past 1024 bits prints as the power of two below it, so the
        # message never meets the interpreter's int-to-str digit limit
        bits = tuple_count.bit_length()
        shown = tuple_count if bits <= 1024 else f"2^{bits - 1}"
        extra = f", {steps} coordinate steps at {_BLOCK} each and a unit table of {table} residues"
        super().__init__(
            f"enumeration needs at least {shown} leading tuples{extra if steps else ''}, "
            f"over the budget of {budget}"
        )
        self.tuple_count = tuple_count
        self.budget = budget
        self.steps = steps
        self.table = table


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
        for lo in range(0, self.modulus, 1 << 16):  # no list of every member at once
            yield from (np.flatnonzero(self._mask[lo : lo + (1 << 16)]) + lo).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return np.array_equal(self._mask, other._mask)

    def __hash__(self) -> int:
        return hash(self._mask.tobytes())

    def __repr__(self) -> str:
        return f"ResidueSet(mod {self.modulus}, {len(self)} members)"


@lru_cache(maxsize=1)  # the last modulus only: its tables live until a call at another replaces them
def _unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned (units, inverses) arrays for modulus n; read-only.

    The one place the units of a modulus are formed: 0..n-1 with the
    multiples of each prime of n cleared.  int32 while a product of two
    residues fits it (n^2 < 2^31), which halves the memory traffic of the
    kernel; int64 above.  The inverse of u is u^(phi(n) - 1) (Euler).
    """
    dtype = np.int32 if n * n < 2**31 else np.int64
    coprime = np.ones(n, dtype=bool)
    for p, _ in factorize(n).factors:
        coprime[::p] = False
    wide = np.flatnonzero(coprime)
    inv = _pow_mod(wide, len(wide) - 1, n).astype(dtype, copy=False)
    units = wide.astype(dtype, copy=False)
    units.setflags(write=False)
    inv.setflags(write=False)
    return units, inv


def _check_budget(spec: HyperbolaSpec, budget: int) -> None:
    """Check phi(n)^(d-1), formed one factor at a time: the first partial
    product over the budget is refused, so a huge d never builds its full
    power.  The d - 1 coordinate steps are charged on top, _BLOCK each, and
    so is the n-residue unit table.  A modulus within the budget but not
    below _MODULUS_LIMIT is refused (ValueError)."""
    phi, count = euler_phi(spec.n), 1
    steps = spec.d - 1
    for _ in range(steps if phi > 1 else 0):
        count *= phi
        if count > budget:
            raise EnumerationBudgetError(count, budget)
    if count + steps * _BLOCK + spec.n > budget:
        raise EnumerationBudgetError(count, budget, steps, spec.n)
    if spec.n >= _MODULUS_LIMIT:
        raise ValueError(f"modulus n = {spec.n} must be below 2^31 (the oracle's int64 products)")


def _mod(v: np.ndarray, n: int) -> np.ndarray:
    # v % n, in place: numpy divides an array by a scalar with a multiply
    # and a shift, but takes % with one hardware division per element
    v -= n * (v // n)
    return v


def _blocks(n: int, a: int, signs: tuple[int, ...]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Constants c and signed sums b of the phi(n)^k tuples of the
    constant a, as (start, c, b) a block at a time: as many whole fibres
    of phi(n) tuples as fit in ``_BLOCK``, else ``_BLOCK`` tuples of one
    fibre.

    Tuple j is (x_1, ..., x_k) in lexicographic order, for k = len(signs)
    units x_l; its constant is a (x_1 ... x_k)^-1 and its sum is
    s_1 x_1 + ... + s_k x_k.  The tuples are built one coordinate at a
    time: the l-th coordinate runs over the planar fibre (x, c x^-1) of
    each (l-1)-tuple, whose constant c it divides by x.
    """
    units, inv = _unit_tables(n)
    phi = len(units)
    count = phi ** len(signs)
    step = _BLOCK // phi * phi or _BLOCK
    for start in range(0, count, step):
        # the tuples needed at each length, longest first
        ranges = [(start, min(start + step, count))]
        for _ in signs:
            lo, hi = ranges[-1]
            ranges.append((lo // phi, (hi - 1) // phi + 1))
        first, _ = ranges.pop()  # (0, 1): the empty tuple, whose constant is a
        c, b = np.array([a], dtype=units.dtype), np.zeros(1, dtype=units.dtype)
        for s, (lo, hi) in zip(signs, reversed(ranges)):
            wanted = slice(lo - first * phi, hi - first * phi)
            if len(c) == 1:  # one parent: extend it by only the units in range
                x, x_inv, cut = units[wanted], inv[wanted], slice(None)
            else:
                x, x_inv, cut = units, inv, wanted
            c = _mod(c[:, None] * x_inv, n).ravel()[cut]
            b = (b[:, None] + s * x).ravel()[cut]
            first = lo
        yield start, c, b


def enumerate_points(
    spec: HyperbolaSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """An iterator over the points of the hyperbola, each coordinate a unit in [1, n).

    Iteration is lexicographic in the leading d-1 coordinates; the last is
    a times the inverse of their product.  The phi(n)^(d-1) leading tuples
    must fit the budget, checked at the call, before any point is formed.
    """
    _check_budget(spec, budget)
    return _points(spec)


def _points(spec: HyperbolaSpec) -> Iterator[tuple[int, ...]]:
    units, _ = _unit_tables(spec.n)  # the points, a block of leading tuples at a time
    for start, last, _ in _blocks(spec.n, spec.a, spec.signs[:-1]):
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
    _check_budget(spec, budget)
    n, signs = spec.n, spec.signs
    mask = np.zeros(n, dtype=bool)
    for _, c, b in _blocks(n, spec.a, signs[:-1]):
        mask[_mod(b + signs[-1] * c, n)] = True
        if mask.all():
            break
    return ResidueSet(mask)


def sum_diff_sets(
    a: int, n: int, budget: int = DEFAULT_BUDGET
) -> tuple[ResidueSet, ResidueSet]:
    """Reduced planar sumset and difference set: ``signed_sumset`` at m = 2
    and at m = 1, two passes, each under the budget."""
    return (
        signed_sumset(HyperbolaSpec(2, 2, a, n), budget),
        signed_sumset(HyperbolaSpec(2, 1, a, n), budget),
    )


def _check_table_modulus(n: int) -> None:
    if n < 2 or n > _TABLE_LIMIT:
        raise ValueError(f"n must be in [2, {_TABLE_LIMIT}]")


def _table_blocks(n: int, a: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(units a, masks) for consecutive blocks of the units a: masks[0, i]
    is the sumset of a[i] and masks[1, i] its difference set.

    Row i holds the points (x, a[i] x^-1) over all units x.  Sums x + y lie
    in [0, 2n) and shifted differences x - y + n in (0, 2n): both are marked
    in double-width rows, at the index bases at and ad built once per
    modulus, then folded modulo n.
    """
    units, inv = _unit_tables(n)
    rows = max(1, min(len(a), _BLOCK // len(units)))
    width = 2 * n
    at = np.arange(0, rows * width, width, dtype=np.int64)[:, None] + units
    ad = at + (rows * width + n)
    marks = np.zeros((2, rows, width), dtype=bool)
    flat = marks.reshape(-1)
    a = a.astype(inv.dtype, copy=False)  # a x^-1 < n^2 fits it (n <= _TABLE_LIMIT)
    for start in range(0, len(a), rows):
        block = a[start : start + rows]
        r = len(block)
        y = _mod(block[:, None] * inv, n)
        flat[at[:r] + y] = True
        flat[ad[:r] - y] = True
        masks = marks[:, :r, :n] | marks[:, :r, n:]
        marks[:, :r] = False
        yield block, masks


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
    for a, masks in _table_blocks(n, _unit_tables(n)[0]):
        tables[:, a] = masks
    return tables[0], tables[1]


def sum_diff_cardinalities(
    n: int, a: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """|sumset| and |difference set| at each unit of the 1-D sequence of
    integers a, in order, each a taken modulo n; only their rows are formed.

    A signed-integer array of any width is reduced in numpy, as int64; any
    other input (a list, or an unsigned array, whose entries may pass int64)
    is reduced one entry at a time, exactly.  An input that is not 1-D, or
    an entry that is not an integer (``operator.index`` refuses it), is
    refused (ValueError).  The rows are counted a block at a time and no
    table is kept, so memory past the two count arrays is O(n).
    """
    _check_table_modulus(n)
    a = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    refusal = "a must be a 1-D sequence of integers"
    if a.ndim != 1:
        raise ValueError(refusal)
    if a.dtype.kind == "i":
        a = a.astype(np.int64, copy=False) % n
    else:
        try:
            a = np.array([operator.index(v) % n for v in a.tolist()], dtype=np.int64)
        except TypeError:
            raise ValueError(refusal) from None
    if np.any(np.gcd(a, n) != 1):
        raise ValueError(f"every a must be a unit modulo {n}")
    counts = [np.zeros((2, 0), dtype=np.int32)]  # the columns of an empty a
    # an int32 accumulator counts a row in about 0.6 of the default int64's time
    counts += [masks.sum(axis=2, dtype=np.int32) for _, masks in _table_blocks(n, a)]
    sums, diffs = np.concatenate(counts, axis=1)
    return sums, diffs
