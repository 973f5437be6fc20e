"""Command-line front end.

Subcommands cover every library operation; report output is a plain table,
CSV with fixed headers, or a JSON array.  Exact rationals serialize as
"num/den" next to a 6-decimal approximation, so the dominance boundary
survives serialization exactly.  Data goes to stdout, diagnostics to
stderr; exit codes are 0 (success), 1 (usage), 2 (computation failure).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, TextIO

from .analysis import (
    CoverageReport,
    DensityReport,
    DominanceReport,
    PrimorialReport,
    _check_sieve_range,
    coverage_check,
    density_report,
    dominance_report,
    dominance_scan,
    primorial_series,
    solve_sum_product,
)
from .arith import primes_up_to
from .cardinality import CardinalityReport, card_S2_pp, card_signed_sumset
from .hyperbola import (
    DEFAULT_BUDGET,
    HyperbolaSpec,
    _check_table_modulus,
    enumerate_points,
    signed_sumset,
    sum_diff_cardinalities,
    sum_diff_sets,
)

__all__ = ["build_parser", "main", "render_svg", "run", "write_reports"]

_SMALL_SWEEP_ALL_A = 300  # below this n the verify sweep checks every unit a
_SWEEP_SAMPLES = 20
_SWEEP_SEED = 0x5EED
# verify tasks per batch sent to a worker.  On a 2-core host, batches of one
# cost the parent 0.11 s of CPU in queue traffic over a 0.6 s two-worker
# sweep, batches of four 0.05 s; larger batches leave a worker idle at the
# end of the sweep, where the moduli are largest.
_SWEEP_CHUNK = 4

_HEADERS = {
    "dominance": ("a", "n", "c2", "c2_decimal", "classification"),
    "card": ("a", "n", "d", "m", "p", "t", "count", "method", "total"),
    "density": (
        "a",
        "x",
        "threshold",
        "eligible_count",
        "dominant_count",
        "empirical_density",
        "empirical_decimal",
        "class_constant",
        "bound_truncated",
        "bound_truncated_decimal",
        "bound_rigorous",
        "bound_rigorous_decimal",
        "prime_limit",
    ),
    "primorial": (
        "a",
        "t",
        "k",
        "primorial",
        "ratio_first_power",
        "ratio_first_decimal",
        "ratio_power_t",
        "ratio_power_decimal",
        "loglog",
    ),
    "coverage": ("a", "n", "d", "m", "covered", "guaranteed", "missing_count", "missing"),
    "triple": ("b", "a", "p", "t", "modulus", "x1", "x2", "x3"),
}


def _rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _dec(f: Fraction) -> str:
    return f"{f.numerator / f.denominator:.6f}"  # = float(f), minus numbers.Rational's detour


# Each builder turns one report into its rows, each row a tuple of values
# in the column order of _HEADERS for its kind.


def _dominance_rows(r: DominanceReport) -> list[tuple]:
    num, den = r.c2.numerator, r.c2.denominator
    return [(r.a, r.n, f"{num}/{den}", f"{num / den:.6f}", r.classification)]


def _card_rows(rep: CardinalityReport) -> list[tuple]:
    s = rep.spec
    return [
        (s.a, s.n, s.d, s.m, fc.p, fc.t, fc.count, fc.method, rep.total)
        for fc in rep.per_factor
    ]


def _density_rows(r: DensityReport) -> list[tuple]:
    return [
        (
            r.a,
            r.x,
            _rat(r.threshold),
            r.eligible_count,
            r.dominant_count,
            _rat(r.empirical_density),
            _dec(r.empirical_density),
            _rat(r.class_constant),
            _rat(r.bound_truncated),
            _dec(r.bound_truncated),
            _rat(r.bound_rigorous),
            _dec(r.bound_rigorous),
            r.prime_limit,
        )
    ]


def _primorial_rows(rep: PrimorialReport) -> list[tuple]:
    return [
        (
            rep.a,
            rep.t,
            row.k,
            row.primorial,
            _rat(row.ratio_first_power),
            _dec(row.ratio_first_power),
            _rat(row.ratio_power_t),
            _dec(row.ratio_power_t),
            f"{row.loglog:.6f}",
        )
        for row in rep.rows
    ]


def _coverage_rows(r: CoverageReport) -> list[tuple]:
    s = r.spec
    return [
        (
            s.a,
            s.n,
            s.d,
            s.m,
            "true" if r.covered else "false",
            "true" if r.guaranteed else "false",
            len(r.missing),
            " ".join(str(v) for v in r.missing),
        )
    ]


def _triple_rows(r: tuple[int, int, int, int, tuple[int, int, int]]) -> list[tuple]:
    b, a, p, t, triple = r
    return [(b, a, p, t, p**t, *triple)]


_BUILDERS = {
    "dominance": _dominance_rows,
    "card": _card_rows,
    "density": _density_rows,
    "primorial": _primorial_rows,
    "coverage": _coverage_rows,
    "triple": _triple_rows,
}


def write_reports(reports: Iterable, fmt: str, kind: str, out: TextIO) -> None:
    """Stream a homogeneous sequence of reports to out as CSV or a JSON array.

    Reports are consumed one at a time and each row is written as soon as
    it is built, so a generator of reports is never held in memory.  CSV
    starts with the fixed header for the report kind.  JSON is an array of
    objects keyed by that header, every value a string, byte-identical to
    json.dumps of the list of those objects with indent=2, plus a newline.
    An empty stream gives a header-only CSV (or "[]").  Row order follows
    input order, so output is byte-deterministic.  A "triple" report is the
    tuple (b, a, p, t, (x1, x2, x3)) of a solve_sum_product call.
    """
    header = _HEADERS[kind]
    build = _BUILDERS[kind]
    rows = (row for rep in reports for row in build(rep))
    if fmt == "csv":
        # csv.writer calls str on each value: no builder yields None or a float
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        # the layout json.dumps gives the whole list at indent=2, written
        # one object at a time; a str is escaped by json.dumps's own encoder
        keys = [f"    {json.dumps(k)}: " for k in header]
        encode = json.encoder.encode_basestring_ascii
        sep = "[\n"
        for row in rows:
            body = ",\n".join(k + encode(str(v)) for k, v in zip(keys, row))
            out.write(f"{sep}  {{\n{body}\n  }}")
            sep = ",\n"
        out.write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        raise ValueError(f"unsupported report format {fmt!r}")


def render_svg(points: Iterable[tuple[int, int]], n: int) -> str:
    """Standalone SVG scatter of planar points on a square of side n.

    Mathematical orientation (origin bottom-left, y upward); one filled
    unit square per point, or a dot for small n where squares would touch.
    No external references, so the document is self-contained.
    """
    pts = list(points)
    for x, y in pts:
        if not (1 <= x < n and 1 <= y < n):
            raise ValueError(f"point ({x}, {y}) is outside [1, {n})^2")
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="0 0 {n} {n}">',
        f'<g fill="#1f3b73" transform="translate(0,{n}) scale(1,-1)">',
    ]
    if n <= 64:
        parts.extend(
            f'<circle cx="{x + 0.5}" cy="{y + 0.5}" r="0.3"/>' for x, y in pts
        )
    else:
        parts.extend(f'<rect x="{x}" y="{y}" width="1" height="1"/>' for x, y in pts)
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational (use num/den)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process on first use."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="worker processes for verify (default 1); every other command ignores it",
    )
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"enumeration budget in leading tuples (default {DEFAULT_BUDGET})",
    )
    common.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )

    parser = argparse.ArgumentParser(
        prog="modhyp",
        description="Coordinate sumsets and difference sets of modular hyperbolas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="emit points or the signed sumset")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=None, help="plus signs (default d)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", action="store_true", help="emit points instead of the sumset")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("card", parents=[common], help="cardinality report with per-factor methods")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(handler=_cmd_card)

    p = sub.add_parser("ratio", parents=[common], help="dominance ratio with classification")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_ratio)

    p = sub.add_parser("verify", parents=[common], help="oracle-vs-closed-form sweep")
    p.add_argument("--max-pp", type=int, required=True, help="prime-power sweep bound")
    p.add_argument("--max-n", type=int, default=None, help="also sweep composite n up to this bound")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", parents=[common], help="dominance reports, ascending n")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--L", type=_rational_arg, default=None, help="emit only ratios above this")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("density", parents=[common], help="dominance density and lower bounds")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--L", type=_rational_arg, default=Fraction(1))
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("primorial", parents=[common], help="ratio series along 3-mod-4 primorials")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.set_defaults(handler=_cmd_primorial)

    p = sub.add_parser("coverage", parents=[common], help="attained residues for d >= 3")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_coverage)

    p = sub.add_parser("solve3", parents=[common], help="one verified sum-product triple")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(handler=_cmd_solve3)

    p = sub.add_parser("plot", parents=[common], help="SVG scatter of the planar hyperbola")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.set_defaults(handler=_cmd_plot)

    # argparse on Python 3.11 reads "-1/2" as an option and leaves --L without
    # a value: take any word of "-", an optional "." and a digit for a number
    for name in ("scan", "density"):
        sub.choices[name]._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _cmd_enumerate(args: argparse.Namespace) -> int:
    m = args.m if args.m is not None else args.d
    spec = HyperbolaSpec(args.d, m, args.a, args.n)
    if args.points:
        pts = enumerate_points(spec, budget=args.budget)
        pts = itertools.chain([next(pts)], pts)  # the budget check precedes any output
        if args.format == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow([f"x{i}" for i in range(1, spec.d + 1)])
            writer.writerows(pts)
        elif args.format == "json":
            # json.dumps of the whole list, a batch at a time, outer brackets cut
            sep = "["
            while batch := list(itertools.islice(pts, 4096)):
                sys.stdout.write(sep + json.dumps(batch)[1:-1])
                sep = ", "
            sys.stdout.write("]\n")
        else:
            for pt in pts:
                print(" ".join(str(c) for c in pt))
        return 0
    attained = signed_sumset(spec, budget=args.budget)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["residue"])
        writer.writerows([v] for v in attained)
    elif args.format == "json":
        payload = {
            "d": spec.d,
            "m": spec.m,
            "a": spec.a,
            "n": spec.n,
            "cardinality": len(attained),
            "members": attained.values(),
        }
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        print(f"cardinality {len(attained)} of modulus {spec.n}")
        print(" ".join(str(v) for v in attained))
    return 0


def _cmd_card(args: argparse.Namespace) -> int:
    m = args.m if args.m is not None else args.d
    spec = HyperbolaSpec(args.d, m, args.a, args.n)
    rep = card_signed_sumset(spec, budget=args.budget)
    if args.format == "table":
        for fc in rep.per_factor:
            print(f"{fc.p}^{fc.t}: {fc.count}  [{fc.method}]")
        print(f"total {rep.total}")
    else:
        write_reports([rep], args.format, "card", sys.stdout)
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    rep = dominance_report(args.a, args.n)
    if args.format == "table":
        print(f"c2({rep.a}; {rep.n}) = {_rat(rep.c2)} ({_dec(rep.c2)})  {rep.classification}")
        for p, t, r in rep.factor_breakdown:
            print(f"  {p}^{t}: {_rat(r)}")
    else:
        write_reports([rep], args.format, "dominance", sys.stdout)
    return 0


def _prime_powers_up_to(bound: int) -> list[tuple[int, int, int]]:
    out = []
    for p in primes_up_to(bound):
        q, t = p, 1
        while q <= bound:
            out.append((p, t, q))
            q *= p
            t += 1
    return sorted(out, key=lambda v: v[2])


def _verify_modulus(task: tuple) -> tuple:
    """Check one modulus n of the verify sweep against the oracle.

    task is (n, p, t, sample, budget): n = p^t is checked at every unit a
    when p is nonzero, and at each a of sample when sample is not None.
    Returns ((pp_cases, composite_cases), (pp_lines, composite_lines),
    error): the mismatch lines found, and error is None or (phase, exc)
    for an exception raised in the prime-power (0) or composite (1) phase.
    Errors are returned, not raised, so that _merge_verify can raise them in
    the serial sweep's order whichever worker met them.
    """
    n, p, t, sample, budget = task
    cases, lines = [0, 0], ([], [])
    phase = 0
    try:
        tables = None
        if p:
            sums, diffs = tables = [c.tolist() for c in sum_diff_cardinalities(n)]
            for a in range(1, n):
                if a % p == 0:
                    continue
                cases[0] += 1
                cs = card_S2_pp(a, p, t)
                cd = card_S2_pp(-a, p, t)
                if cs != sums[a] or cd != diffs[a]:
                    lines[0].append(
                        f"mismatch at a={a}, q={p}^{t}: closed form ({cs}, {cd}) "
                        f"vs oracle ({sums[a]}, {diffs[a]})"
                    )
        phase = 1
        if sample is not None:
            if n <= _SMALL_SWEEP_ALL_A:
                sums, diffs = tables or [c.tolist() for c in sum_diff_cardinalities(n)]
                oracle = lambda a: (sums[a], diffs[a])
            else:
                oracle = lambda a: tuple(len(s) for s in sum_diff_sets(a, n, budget=budget))
            for a in sample:
                cases[1] += 1
                osum, odiff = oracle(a)
                csum = card_signed_sumset(HyperbolaSpec(2, 2, a, n)).total
                cdiff = card_signed_sumset(HyperbolaSpec(2, 1, a, n)).total
                if csum != osum or cdiff != odiff:
                    lines[1].append(
                        f"mismatch at a={a}, n={n}: composed ({csum}, {cdiff}) "
                        f"vs oracle ({osum}, {odiff})"
                    )
    except Exception as exc:
        return cases, lines, (phase, exc)
    return cases, lines, None


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import random

    powers = _prime_powers_up_to(args.max_pp)
    max_n = args.max_n or 0
    # refuse an over-limit sweep before computing any of it
    if powers:
        _check_table_modulus(powers[-1][2])
    if max_n >= 2:
        _check_table_modulus(max_n)
    pp = {q: (p, t) for p, t, q in powers}
    moduli = sorted(pp.keys() | range(2, max_n + 1))
    rng = random.Random(_SWEEP_SEED)
    failed = []  # the composite sweep's first error, once _merge_verify meets it

    def task(n: int) -> tuple:
        sample = None
        if n <= max_n and not failed:
            sample = [a for a in range(1, n) if math.gcd(a, n) == 1]
            if n > _SMALL_SWEEP_ALL_A:
                sample = sorted(rng.sample(sample, min(_SWEEP_SAMPLES, len(sample))))
        return (n, *pp.get(n, (0, 0)), sample, args.budget)

    # built lazily in ascending n: the samples never depend on the workers,
    # and the serial sweep stops composite work at its first error
    tasks = map(task, moduli)
    composite = args.max_n is not None
    workers = min(args.threads, _usable_cpus(), len(moduli))
    if workers <= 1:
        return _merge_verify(map(_verify_modulus, tasks), composite, failed)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            results = pool.map(_verify_modulus, tasks, chunksize=_SWEEP_CHUNK)
            return _merge_verify(results, composite, failed)
        finally:
            pool.shutdown(cancel_futures=True)  # after an error, run no further task


def _merge_verify(results: Iterable[tuple], composite: bool, failed: list) -> int:
    """Print the sweep's results in the order of the serial sweep: every
    prime-power line, every composite line, then the summary.  An error is
    raised where the serial sweep would have raised it: a prime-power one at
    once, a composite one (kept in failed) after every prime-power line."""
    checked, mismatches = [0, 0], 0
    comp_lines = []
    for cases, (pp, comp), error in results:
        checked[0] += cases[0]
        mismatches += len(pp)
        for line in pp:
            print(line, file=sys.stderr)
        if error and error[0] == 0:
            raise error[1]
        if not failed:
            checked[1] += cases[1]
            comp_lines += comp
            if error:
                failed.append(error[1])
    for line in comp_lines:
        print(line, file=sys.stderr)
    if failed:
        raise failed[0]
    summary = f"verified {checked[0]} prime-power cases"
    if composite:
        summary += f" and {checked[1]} composite cases"
    mismatches += len(comp_lines)
    print(f"{summary}: {mismatches} mismatches")
    return 0 if mismatches == 0 else 2


def _cmd_scan(args: argparse.Namespace) -> int:
    _check_sieve_range(args.max_n)  # the sieve runs lazily, after the CSV header
    skipped: list[int] = []
    reports = dominance_scan(args.a, args.max_n, threshold=args.L, skipped=skipped)
    if args.format == "table":
        for rep in reports:
            print(f"n={rep.n} c2={_rat(rep.c2)} ({_dec(rep.c2)}) {rep.classification}")
    else:
        write_reports(reports, args.format, "dominance", sys.stdout)
    print(f"skipped {sum(skipped)} moduli sharing a factor with a={args.a}", file=sys.stderr)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    rep = density_report(args.a, args.max_n, threshold=args.L)
    if args.format == "table":
        print(
            f"eligible {rep.eligible_count}, above threshold {rep.dominant_count}, "
            f"empirical density {_rat(rep.empirical_density)} ({_dec(rep.empirical_density)})"
        )
        print(
            f"class constant {_rat(rep.class_constant)}, truncated bound "
            f"{_dec(rep.bound_truncated)}, rigorous bound {_dec(rep.bound_rigorous)} "
            f"(primes up to {rep.prime_limit})"
        )
    else:
        write_reports([rep], args.format, "density", sys.stdout)
    return 0


def _cmd_primorial(args: argparse.Namespace) -> int:
    rep = primorial_series(args.a, args.k_max, t=args.t)
    if args.format == "table":
        for row in rep.rows:
            print(
                f"k={row.k} N={row.primorial} c2={_rat(row.ratio_first_power)} "
                f"({_dec(row.ratio_first_power)}) c2^t={_rat(row.ratio_power_t)} "
                f"({_dec(row.ratio_power_t)}) loglog={row.loglog:.6f}"
            )
    else:
        write_reports([rep], args.format, "primorial", sys.stdout)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    spec = HyperbolaSpec(args.d, args.m, args.a, args.n)
    rep = coverage_check(spec, budget=args.budget)
    if args.format == "table":
        state = "covered" if rep.covered else "NOT covered"
        print(f"{state}; guaranteed={'yes' if rep.guaranteed else 'no'}")
        if rep.missing:
            print("missing: " + " ".join(str(v) for v in rep.missing))
    else:
        write_reports([rep], args.format, "coverage", sys.stdout)
    return 0


def _cmd_solve3(args: argparse.Namespace) -> int:
    triple = solve_sum_product(args.b, args.a, args.p, args.t)
    q = args.p**args.t
    if args.format == "table":
        x1, x2, x3 = triple
        print(f"x1={x1} x2={x2} x3={x3} (mod {q})")
        print(f"sum={sum(triple) % q} product={x1 * x2 * x3 % q}")
    else:
        report = (args.b, args.a, args.p, args.t, triple)
        write_reports([report], args.format, "triple", sys.stdout)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    spec = HyperbolaSpec(2, 2, args.a, args.n)
    pts = [(x, y) for x, y in enumerate_points(spec, budget=args.budget)]
    svg = render_svg(pts, spec.n)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        try:
            Path(args.out).write_text(svg)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
        print(f"wrote {len(pts)} points to {args.out}", file=sys.stderr)
    return 0


def run(argv: list[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away: silence the final flush, exit 1 (EPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
