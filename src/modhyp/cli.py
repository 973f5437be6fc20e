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
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, TextIO

from .analysis import (
    CoverageReport,
    DensityReport,
    DominanceWindow,
    PrimorialReport,
    _check_sieve_range,
    coverage_check,
    density_report,
    dominance_report,
    dominance_scan,
    primorial_series,
    solve_sum_product,
    verify_sweep,
)
from .cardinality import CardinalityReport, card_signed_sumset
from .hyperbola import DEFAULT_BUDGET, HyperbolaSpec, enumerate_points, signed_sumset

__all__ = ["build_parser", "main", "render_svg", "run", "write_reports"]

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


def _dominance_rows(w: DominanceWindow) -> list[tuple]:
    a = str(w.a)  # formatted once: a may have dozens of digits
    return [
        (a, n, f"{s}/{d}", f"{s / d:.6f}", c)
        for n, s, d, c in zip(w.n, w.num, w.den, w.classification)
    ]


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

    Reports are consumed one at a time and the rows of each are written as
    soon as they are built, so a generator of reports is never held in
    memory.  CSV starts with the fixed header for the report kind.  JSON is
    an array of objects keyed by that header, every value a string,
    byte-identical to json.dumps of the list of those objects with
    indent=2, plus a newline.  An empty stream gives a header-only CSV (or
    "[]").  Row order follows input order, so output is byte-deterministic.
    A "dominance" report is a DominanceWindow, of any number of rows, none
    included.  A "triple" report is the tuple (b, a, p, t, (x1, x2, x3)) of
    a solve_sum_product call.
    """
    header = _HEADERS[kind]
    build = _BUILDERS[kind]
    if fmt == "csv":
        # csv.writer calls str on each value: no builder yields None or a float
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for rep in reports:
            writer.writerows(build(rep))
    elif fmt == "json":
        rows = (row for rep in reports for row in build(rep))
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
    threads, budget, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    threads.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility and ignored: every command runs in one process",
    )
    budget.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        help=f"enumeration budget in leading tuples (default {DEFAULT_BUDGET})",
    )
    fmt.add_argument(
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

    def command(name, handler, summary, *flags):
        # every command parses --threads, which none reads, and only those
        # of the other shared flags that its handler reads
        p = sub.add_parser(name, parents=[threads, *flags], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command("enumerate", _cmd_enumerate, "emit points or the signed sumset", budget, fmt)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=None, help="plus signs (default d)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", action="store_true", help="emit points instead of the sumset")

    p = command("card", _cmd_card, "cardinality report with per-factor methods", budget, fmt)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=None)

    p = command("ratio", _cmd_ratio, "dominance ratio with classification", fmt)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("verify", _cmd_verify, "oracle-vs-closed-form sweep")
    p.add_argument("--max-pp", type=int, required=True, help="prime-power sweep bound")
    p.add_argument("--max-n", type=int, default=None, help="also sweep composite n up to this bound")

    p = command("scan", _cmd_scan, "dominance reports, ascending n", fmt)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--L", type=_rational_arg, default=None, help="emit only ratios above this")

    p = command("density", _cmd_density, "dominance density and lower bounds", fmt)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--L", type=_rational_arg, default=Fraction(1))

    p = command("primorial", _cmd_primorial, "ratio series along 3-mod-4 primorials", fmt)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--t", type=int, default=2)

    p = command("coverage", _cmd_coverage, "attained residues for d >= 3", budget, fmt)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("solve3", _cmd_solve3, "one verified sum-product triple", fmt)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, default=1)

    p = command("plot", _cmd_plot, "SVG scatter of the planar hyperbola", budget)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output file, or - for stdout")

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
    a, n, c2, classification = rep
    # the report as a one-row window, formatted as a scan row is
    window = DominanceWindow(a, [n], [c2.numerator], [c2.denominator], [classification])
    if args.format == "table":
        _, _, rat, dec, _ = _dominance_rows(window)[0]
        print(f"c2({a}; {n}) = {rat} ({dec})  {classification}")
        for p, t, r in rep.factor_breakdown:
            print(f"  {p}^{t}: {_rat(r)}")
    else:
        write_reports([window], args.format, "dominance", sys.stdout)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checked, mismatches = [0, 0], 0
    for phase, cases, lines in verify_sweep(args.max_pp, args.max_n):
        checked[phase] += cases
        mismatches += len(lines)
        sys.stderr.writelines(f"{line}\n" for line in lines)
    summary = f"verified {checked[0]} prime-power cases"
    if args.max_n is not None:
        summary += f" and {checked[1]} composite cases"
    print(f"{summary}: {mismatches} mismatches")
    return 0 if mismatches == 0 else 2


def _cmd_scan(args: argparse.Namespace) -> int:
    _check_sieve_range(args.max_n)  # the sieve runs lazily, after the CSV header
    skipped: list[int] = []
    windows = dominance_scan(args.a, args.max_n, threshold=args.L, skipped=skipped)
    if args.format == "table":
        for window in windows:
            sys.stdout.writelines(
                f"n={n} c2={rat} ({dec}) {classification}\n"
                for _, n, rat, dec, classification in _dominance_rows(window)
            )
    else:
        write_reports(windows, args.format, "dominance", sys.stdout)
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
