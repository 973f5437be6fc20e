"""The four benchmark workloads: seeded inputs and output checks.

Each workload turns a seed into the exact inputs one measured process
receives (a CLI argv, or a batch of one-shot requests), and checks what the
process printed.  Checks run in the benchmark process, after the measured
process has exited, so they are never timed.  Inputs that need primes are
made here with sympy; the program under test only ever sees finished
numbers.

Why each workload exists:

* ``scan``: the main range study.  Most of its time is the per-modulus
  ``Fraction`` loop of ``analysis.dominance_scan``; the rest is ``cli`` row
  building, CSV writing and the second pass that counts skipped moduli.
* ``density``: the other per-modulus loop (``analysis.density_report``)
  with one output row, so a sieve change moves it and a serializer change
  does not.
* ``verify``: the enumeration oracle (``hyperbola.sum_diff_tables``)
  against the closed forms (``cardinality.card_S2_pp``); the only workload
  where ``hyperbola`` dominates.
* ``queries``: a closed loop of one client with one request outstanding,
  sending seeded one-shot requests through ``modhyp.cli.run`` in one
  process.  The only workload where ``arith`` factorizes large numbers and
  where per-call ``cli`` overhead (``build_parser``) shows.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sympy

THREADS = ["--threads", "2"]

# Full sizes, rescaled so that one process takes 1.2 to 2.2 s on a 2-core
# 2.1 GHz Xeon: a run then holds a dozen processes, and the median over them
# rides out the seconds-long slowdowns a shared machine has.
SCAN_MAX_N = 60_000
DENSITY_MAX_N = 350_000
VERIFY_MAX_PP, VERIFY_MAX_N = 768, 400
QUERY_BLOCKS = 8  # requests per process = QUERY_BLOCKS * sum(QUERY_BLOCK.values())

# Smoke sizes: every workload in well under a second.
SMOKE = {"scan": 3000, "density": 5000, "verify": (64, 40), "queries": 1}

SCAN_SAMPLE = 12  # rows per process re-derived with the oracle

# One block of the query mix, by request kind.  Every process gets whole
# blocks, so the share of each kind is exact: 84% planar ratio/card, 8%
# d = 3 card through the oracle fallback, 6% solve3 and 2% ratio at a
# modulus beyond the deterministic primality range.
QUERY_BLOCK = {"ratio": 21, "card": 21, "card3": 4, "solve3": 3, "ratio_big": 1}

# The verify sweep's own constants (modhyp.cli): below this n every unit a
# is checked, above it a fixed-size sample.
_VERIFY_ALL_A = 300
_VERIFY_SAMPLES = 20


@dataclass
class Request:
    """One command a measured process runs, and how to check its output."""

    kind: str
    argv: list[str]
    check: Callable[[str, str], bool]  # (stdout, stderr) -> output is right


@dataclass
class Plan:
    """What the measured processes of one run execute.

    ``mode`` is ``cli`` (one command per process) or ``queries`` (a batch
    of one-shot requests per process); ``next_batch`` gives the requests
    for the next process.
    """

    mode: str
    next_batch: Callable[[], list[Request]]


def _same(request: Request) -> Plan:
    return Plan("cli", lambda: [request])


def _rows(text: str, header: tuple[str, ...]) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != header:
        raise ValueError("unexpected CSV header")
    return [dict(zip(header, row)) for row in reader]


def _classification(c2: Fraction) -> str:
    # restated here rather than imported, so the check does not trust the
    # code it checks
    if c2 > 1:
        return "sum-dominant"
    return "balanced" if c2 == 1 else "difference-dominant"


_DOMINANCE = ("a", "n", "c2", "c2_decimal", "classification")
_CARD = ("a", "n", "d", "m", "p", "t", "count", "method", "total")
_TRIPLE = ("b", "a", "p", "t", "modulus", "x1", "x2", "x3")
_DENSITY = (
    "a", "x", "threshold", "eligible_count", "dominant_count",
    "empirical_density", "empirical_decimal", "class_constant",
    "bound_truncated", "bound_truncated_decimal", "bound_rigorous",
    "bound_rigorous_decimal", "prime_limit",
)


def _dominance_row_ok(row: dict[str, str], a: int, n: int) -> bool:
    c2 = Fraction(row["c2"])
    return (
        int(row["a"]) == a
        and int(row["n"]) == n
        and row["c2_decimal"] == f"{float(c2):.6f}"
        and row["classification"] == _classification(c2)
    )


# -- scan -------------------------------------------------------------------


def _prime_3_mod_4(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = sympy.nextprime(rng.randrange(lo, hi))
        if p % 4 == 3 and p < hi:
            return p


def scan_plan(seed: int, smoke: bool) -> Plan:
    rng = random.Random(seed)
    # a prime a = 3 (mod 4) above 1000: a skips under 0.1% of moduli, so
    # the work per process barely depends on the seed
    a = _prime_3_mod_4(rng, 1000, 2000)
    max_n = SMOKE["scan"] if smoke else SCAN_MAX_N
    sample_seed = rng.randrange(1 << 32)
    argv = ["scan", "--a", str(a), "--max-n", str(max_n), "--format", "csv", *THREADS]
    return _same(Request("scan", argv, lambda out, err: check_scan(a, max_n, sample_seed, out, err)))


def check_scan(a: int, max_n: int, sample_seed: int, out: str, err: str) -> bool:
    """Every modulus coprime to a appears once, ascending, with a consistent
    classification; a seeded sample of ratios is re-derived with the
    enumeration oracle ``hyperbola.sum_diff_sets`` (never the closed forms);
    the skipped count on stderr covers the rest."""
    from modhyp.hyperbola import sum_diff_sets

    rows = _rows(out, _DOMINANCE)
    expected = [n for n in range(2, max_n + 1) if math.gcd(a, n) == 1]
    if [int(r["n"]) for r in rows] != expected:
        return False
    if not all(_dominance_row_ok(r, a, int(r["n"])) for r in rows):
        return False
    for row in random.Random(sample_seed).sample(rows, min(SCAN_SAMPLE, len(rows))):
        sums, diffs = sum_diff_sets(a, int(row["n"]))
        if Fraction(row["c2"]) != Fraction(len(sums), len(diffs)):
            return False
    skipped = max_n - 1 - len(expected)
    return f"skipped {skipped} moduli sharing a factor with a={a}" in err


# -- density ----------------------------------------------------------------


def density_plan(seed: int, smoke: bool) -> Plan:
    rng = random.Random(seed)
    # a = (2s)^2 for a prime s: a square, so every 3-mod-4 prime not dividing
    # a is eligible and no modulus leaves the factor loop early, as at a = 4
    s = sympy.nextprime(rng.randrange(1000, 3000))
    a = 4 * s * s
    max_n = SMOKE["density"] if smoke else DENSITY_MAX_N
    argv = ["density", "--a", str(a), "--max-n", str(max_n), "--format", "csv", *THREADS]
    return _same(Request("density", argv, lambda out, err: check_density(a, max_n, out)))


def check_density(a: int, max_n: int, out: str) -> bool:
    """empirical density = dominant / eligible, and rigorous bound <=
    truncated bound <= class constant."""
    rows = _rows(out, _DENSITY)
    if len(rows) != 1:
        return False
    r = rows[0]
    eligible, dominant = int(r["eligible_count"]), int(r["dominant_count"])
    return (
        int(r["a"]) == a
        and int(r["x"]) == max_n
        and 0 <= dominant <= eligible
        and Fraction(r["empirical_density"]) == Fraction(dominant, eligible)
        and Fraction(r["bound_rigorous"])
        <= Fraction(r["bound_truncated"])
        <= Fraction(r["class_constant"])
    )


# -- verify -----------------------------------------------------------------


def verify_plan(seed: int, smoke: bool) -> Plan:
    # The sweep has no free input: every seed runs the same sweep.
    max_pp, max_n = SMOKE["verify"] if smoke else (VERIFY_MAX_PP, VERIFY_MAX_N)
    argv = ["verify", "--max-pp", str(max_pp), "--max-n", str(max_n), *THREADS]
    return _same(Request("verify", argv, lambda out, err: check_verify(max_pp, max_n, out)))


def check_verify(max_pp: int, max_n: int, out: str) -> bool:
    """0 mismatches, over exactly the number of cases the sweep must cover:
    every unit at every prime power up to max_pp, and every unit (n <= 300)
    or a 20-unit sample (n > 300) at every n up to max_n."""
    pp_cases = sum(
        int(sympy.totient(p**t))
        for p in sympy.primerange(2, max_pp + 1)
        for t in range(1, int(math.log(max_pp, p)) + 2)
        if p**t <= max_pp
    )
    composite_cases = sum(
        int(sympy.totient(n)) if n <= _VERIFY_ALL_A else min(_VERIFY_SAMPLES, int(sympy.totient(n)))
        for n in range(2, max_n + 1)
    )
    expected = f"verified {pp_cases} prime-power cases and {composite_cases} composite cases: 0 mismatches"
    return out.strip() == expected


# -- queries ----------------------------------------------------------------


def _unit(rng: random.Random, n: int) -> int:
    while True:
        a = rng.randrange(1, n)
        if math.gcd(a, n) == 1:
            return a


def _factors_ok(rows: list[dict[str, str]], n: int) -> bool:
    # Strictly increasing primes whose powers multiply to n: by unique
    # factorization this is exactly sympy.factorint(n), without refactoring n.
    prev, acc = 1, 1
    for r in rows:
        p, t = int(r["p"]), int(r["t"])
        if p <= prev or t < 1 or not sympy.isprime(p):
            return False
        prev, acc = p, acc * p**t
    return acc == n


def check_card(a: int, n: int, d: int, m: int, out: str) -> bool:
    """Per-factor rows name exactly the factorization of n, and the product
    of the per-factor counts is the total."""
    rows = _rows(out, _CARD)
    if not rows or not _factors_ok(rows, n):
        return False
    if any((int(r["a"]), int(r["n"]), int(r["d"]), int(r["m"])) != (a, n, d, m) for r in rows):
        return False
    totals = {int(r["total"]) for r in rows}
    return totals == {math.prod(int(r["count"]) for r in rows)}


def check_ratio(a: int, n: int, out: str) -> bool:
    """One row whose classification matches c2 compared against 1."""
    rows = _rows(out, _DOMINANCE)
    return len(rows) == 1 and _dominance_row_ok(rows[0], a, n)


def check_solve3(b: int, a: int, p: int, t: int, out: str) -> bool:
    """The triple sums to b and multiplies to a modulo p^t, all units."""
    rows = _rows(out, _TRIPLE)
    if len(rows) != 1:
        return False
    q = p**t
    x = [int(rows[0][k]) for k in ("x1", "x2", "x3")]
    return (
        int(rows[0]["modulus"]) == q
        and sum(x) % q == b % q
        and x[0] * x[1] * x[2] % q == a % q
        and all(v % p for v in x)
    )


def _request(kind: str, rng: random.Random) -> Request:
    csv_ = ["--format", "csv", *THREADS]
    if kind in ("ratio", "card"):
        n = rng.randrange(2, 1 << 64)
        a = _unit(rng, n)
        argv = [kind, "--a", str(a), "--n", str(n), *csv_]
        if kind == "ratio":
            return Request(kind, argv, lambda out, err: check_ratio(a, n, out))
        return Request(kind, argv, lambda out, err: check_card(a, n, 2, 2, out))
    if kind == "card3":
        # the cofactor is coprime to 210, so the oracle only ever sees the
        # drawn 7-smooth part, well inside the default enumeration budget
        smooth = 2 ** rng.randrange(7) * 3 ** rng.randrange(5) * 5 ** rng.randrange(4) * 7 ** rng.randrange(3)
        cofactor = rng.randrange(1, 1 << 40)
        while math.gcd(cofactor, 210) != 1:
            cofactor = rng.randrange(1, 1 << 40)
        n = max(2, smooth * cofactor)
        a, m = _unit(rng, n), rng.randrange(4)
        argv = ["card", "--d", "3", "--m", str(m), "--a", str(a), "--n", str(n), *csv_]
        return Request(kind, argv, lambda out, err: check_card(a, n, 3, m, out))
    if kind == "solve3":
        p = sympy.nextprime(rng.randrange(8, (1 << 62) - (1 << 16)))
        t = rng.randrange(1, 5)
        a, b = rng.randrange(1, p), rng.randrange(p**t)
        argv = ["solve3", "--b", str(b), "--a", str(a), "--p", str(p), "--t", str(t), *csv_]
        return Request(kind, argv, lambda out, err: check_solve3(b, a, p, t, out))
    if kind == "ratio_big":
        # n = s * P with s fully removed by trial division and P a prime in
        # (2^82, 2^96), beyond the deterministic Miller-Rabin witness range
        big = sympy.nextprime(rng.randrange(1 << 82, (1 << 96) - (1 << 20)))
        n = rng.randrange(1, 10_000) * big
        a = _unit(rng, n)
        argv = ["ratio", "--a", str(a), "--n", str(n), *csv_]
        return Request(kind, argv, lambda out, err: check_ratio(a, n, out))
    raise ValueError(kind)


def query_batch(rng: random.Random, smoke: bool) -> list[Request]:
    """Whole blocks of the query mix, in seeded random order."""
    blocks = SMOKE["queries"] if smoke else QUERY_BLOCKS
    kinds = [k for k, count in QUERY_BLOCK.items() for _ in range(count * blocks)]
    rng.shuffle(kinds)
    return [_request(kind, rng) for kind in kinds]


def queries_plan(seed: int, smoke: bool) -> Plan:
    # every process of a run gets a fresh batch, drawn from one seeded stream
    rng = random.Random(seed)
    return Plan("queries", lambda: query_batch(rng, smoke))


# Refused while is_prime trusts 12 Miller-Rabin witnesses up to 3.3e24
# (ROADMAP Open item 1): a refusal of this kind is the defect the mix shows,
# not a wrong answer.
EXPECTED_REFUSALS = {"ratio_big"}

PLANS = {
    "scan": scan_plan,
    "density": density_plan,
    "verify": verify_plan,
    "queries": queries_plan,
}
