"""Command-line front end.

Subcommands cover every library operation; report output is a plain table,
CSV with fixed headers, or a JSON array.  Exact rationals serialize as
"num/den" next to a 6-decimal approximation, so the dominance boundary
survives serialization exactly.  Data goes to stdout, diagnostics to
stderr; exit codes are 0 (success), 1 (usage), 2 (computation failure).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, TextIO

from .analysis import (
    CoverageReport,
    DensityReport,
    DominanceWindow,
    PrimorialReport,
    classify,
    coverage_check,
    density_report,
    dominance_scan,
    primorial_series,
    solve_sum_product,
    verify_sweep,
)
from .arith import euler_phi, factorize
from .cardinality import CardinalityReport, _counts, card_signed_sumset, ratio_c2
from .hyperbola import DEFAULT_BUDGET, HyperbolaSpec, enumerate_points, signed_sumset

__all__ = ["build_parser", "main", "render_svg", "run", "write_reports"]

def _rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _dec(f: Fraction) -> str:
    return f"{f.numerator / f.denominator:.6f}"  # = float(f), minus numbers.Rational's detour


# Each kind has two builders: one turns a report into its rows, tuples in the
# column order of its header in _KINDS, the other into its table's lines.


def _dominance_rows(w: DominanceWindow) -> list[tuple]:
    a = str(w.a)  # formatted once: a may have dozens of digits
    return [
        (a, n, f"{s}/{d}", f"{s / d:.6f}", c)
        for n, s, d, c in zip(w.n, w.num, w.den, w.classification)
    ]


def _dominance_table(w: DominanceWindow) -> list[str]:
    return [f"n={n} c2={rat} ({dec}) {c}\n" for _, n, rat, dec, c in _dominance_rows(w)]


def _ratio_table(w: DominanceWindow) -> list[str]:
    [(a, n, rat, dec, c)] = _dominance_rows(w)  # one row, then its prime powers' ratios
    powers = [f"  {p}^{t}: {_rat(Fraction(*_counts(w.a, p, t)))}\n" for p, t in factorize(n).factors]
    return [f"c2({a}; {n}) = {rat} ({dec})  {c}\n", *powers]


def _card_rows(rep: CardinalityReport) -> list[tuple]:
    s = rep.spec
    return [
        (s.a, s.n, s.d, s.m, fc.p, fc.t, fc.count, fc.method, rep.total)
        for fc in rep.per_factor
    ]


def _card_table(rep: CardinalityReport) -> list[str]:
    lines = [f"{p}^{t}: {count}  [{method}]\n" for *_, p, t, count, method, _ in _card_rows(rep)]
    return [*lines, f"total {rep.total}\n"]


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


def _density_table(r: DensityReport) -> list[str]:
    return [
        f"eligible {r.eligible_count}, above threshold {r.dominant_count}, "
        f"empirical density {_rat(r.empirical_density)} ({_dec(r.empirical_density)})\n",
        f"class constant {_rat(r.class_constant)}, truncated bound "
        f"{_dec(r.bound_truncated)}, rigorous bound {_dec(r.bound_rigorous)} "
        f"(primes up to {r.prime_limit})\n",
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


def _primorial_table(rep: PrimorialReport) -> list[str]:
    return [
        f"k={k} N={n} c2={first} ({first_dec}) c2^t={power} ({power_dec}) loglog={loglog}\n"
        for _, _, k, n, first, first_dec, power, power_dec, loglog in _primorial_rows(rep)
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


def _coverage_table(r: CoverageReport) -> list[str]:
    state = "covered" if r.covered else "NOT covered"
    missing = ["missing: " + " ".join(str(v) for v in r.missing) + "\n"] if r.missing else []
    return [f"{state}; guaranteed={'yes' if r.guaranteed else 'no'}\n", *missing]


def _triple_rows(r: tuple[int, int, int, int, tuple[int, int, int]]) -> list[tuple]:
    b, a, p, t, triple = r
    return [(b, a, p, t, p**t, *triple)]


def _triple_table(r: tuple[int, int, int, int, tuple[int, int, int]]) -> list[str]:
    [(*_, q, x1, x2, x3)] = _triple_rows(r)
    checks = f"sum={(x1 + x2 + x3) % q} product={x1 * x2 * x3 % q}\n"
    return [f"x1={x1} x2={x2} x3={x3} (mod {q})\n", checks]


_DOMINANCE_HEADER = ("a", "n", "c2", "c2_decimal", "classification")
_KINDS = {
    "dominance": (_DOMINANCE_HEADER, _dominance_rows, _dominance_table),
    "ratio": (_DOMINANCE_HEADER, _dominance_rows, _ratio_table),
    "card": (("a", "n", "d", "m", "p", "t", "count", "method", "total"), _card_rows, _card_table),
    "density": (
        (
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
        _density_rows,
        _density_table,
    ),
    "primorial": (
        (
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
        _primorial_rows,
        _primorial_table,
    ),
    "coverage": (
        ("a", "n", "d", "m", "covered", "guaranteed", "missing_count", "missing"),
        _coverage_rows,
        _coverage_table,
    ),
    "triple": (("b", "a", "p", "t", "modulus", "x1", "x2", "x3"), _triple_rows, _triple_table),
}


def write_reports(reports: Iterable, fmt: str, kind: str, out: TextIO) -> None:
    """Stream a homogeneous sequence of reports to out as a table, CSV or a JSON array.

    Each report's rows (or table lines) are built when it is reached, and
    _write_joined writes the lines or JSON objects 4096 at a time, so memory
    holds one report's rows and one batch; a stream that raises at its first
    report writes nothing.  A table has no header.  CSV starts with the fixed header for
    the report kind.  JSON is an array of objects keyed by that header, every
    value a string, byte-identical to json.dumps of the list of those objects
    with indent=2, plus a newline.  An empty stream gives a header-only CSV
    (or "[]").  Row order follows input order, so output is byte-deterministic.
    A "dominance" report is a DominanceWindow, of any number of rows, none
    included; a "ratio" report is a one-row DominanceWindow, whose table adds
    the ratio at each prime power.  A "triple" report is the tuple
    (b, a, p, t, (x1, x2, x3)) of a solve_sum_product call.
    """
    header, rows, table = _KINDS[kind]
    if fmt == "table":
        _write_joined(itertools.chain.from_iterable(map(table, reports)), out)
    elif fmt == "csv":
        # no builder yields a value holding , " \r or \n, so %s needs no
        # quoting and gives csv.writer's bytes
        line = ",".join(["%s"] * len(header)) + "\n"
        _write_joined((line % row for rep in reports for row in rows(rep)), out, line % header)
    elif fmt == "json":
        # the layout json.dumps gives the whole list at indent=2; a str is
        # escaped by json.dumps's own encoder
        obj = "  {\n" + ",\n".join(f"    {json.dumps(k)}: %s" for k in header) + "\n  }"
        encode = json.encoder.encode_basestring_ascii
        objs = (obj % tuple(map(encode, map(str, row))) for rep in reports for row in rows(rep))
        if (first := next(objs, None)) is None:  # the one layout without "[\n"
            out.write("[]\n")
        else:
            _write_joined(itertools.chain([first], objs), out, "[\n", ",\n", "\n]\n")
    else:
        raise ValueError(f"unsupported report format {fmt!r}")


def _write_joined(pieces: Iterable[str], out: TextIO, start="", sep="", end="") -> None:
    """Write start + sep.join(pieces) + end to out, 4096 pieces per write, so
    one batch is held at a time; start goes out with the first batch, and
    end, if not empty, in a write of its own."""
    pieces = iter(pieces)
    out.write(start + sep.join(itertools.islice(pieces, 4096)))
    while batch := list(itertools.islice(pieces, 4096)):  # an empty piece is not the end
        out.write(sep + sep.join(batch))
    if end:
        out.write(end)


def _svg_lines(points: Iterable[tuple[int, int]], n: int) -> Iterator[str]:
    # the lines of render_svg, each point checked as it is drawn
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="0 0 {n} {n}">\n'
    )
    yield f'<g fill="#1f3b73" transform="translate(0,{n}) scale(1,-1)">\n'
    for x, y in points:
        if not (1 <= x < n and 1 <= y < n):
            raise ValueError(f"point ({x}, {y}) is outside [1, {n})^2")
        if n <= 64:
            yield f'<circle cx="{x + 0.5}" cy="{y + 0.5}" r="0.3"/>\n'
        else:
            yield f'<rect x="{x}" y="{y}" width="1" height="1"/>\n'
    yield "</g>\n</svg>\n"


def render_svg(points: Iterable[tuple[int, int]], n: int) -> str:
    """Standalone SVG scatter of planar points on a square of side n.

    Mathematical orientation (origin bottom-left, y upward); one filled
    unit square per point, or a dot for small n where squares would touch.
    No external references, so the document is self-contained.
    """
    return "".join(_svg_lines(points, n))


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
        help=f"enumeration budget: leading tuples, 2^14 per coordinate step and n for "
        f"the unit table (default {DEFAULT_BUDGET})",
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
        rows = enumerate_points(spec, budget=args.budget)
    else:
        rows = signed_sumset(spec, budget=args.budget)
    # each format gives the bytes of json.dumps of the whole list, csv.writer or print
    if args.format == "json" and args.points:
        line = "[" + ", ".join(["%s"] * spec.d) + "]"
        _write_joined((line % pt for pt in rows), sys.stdout, "[", ", ", "]\n")
    elif args.format == "json":
        payload = {"d": spec.d, "m": spec.m, "a": spec.a, "n": spec.n, "cardinality": len(rows)}
        head = json.dumps({**payload, "members": []})[:-2]  # its closing ]} cut
        _write_joined(map(str, rows), sys.stdout, head, ", ", "]}\n")
    elif args.points:
        line = ("," if args.format == "csv" else " ").join(["%s"] * spec.d) + "\n"
        head = line % tuple(f"x{i}" for i in range(1, spec.d + 1)) if args.format == "csv" else ""
        _write_joined((line % pt for pt in rows), sys.stdout, head)
    elif args.format == "csv":
        _write_joined((f"{v}\n" for v in rows), sys.stdout, "residue\n")
    else:
        head = f"cardinality {len(rows)} of modulus {spec.n}\n"
        _write_joined(map(str, rows), sys.stdout, head, " ", "\n")
    return 0


def _cmd_card(args: argparse.Namespace) -> int:
    m = args.m if args.m is not None else args.d
    rep = card_signed_sumset(HyperbolaSpec(args.d, m, args.a, args.n), budget=args.budget)
    write_reports([rep], args.format, "card", sys.stdout)
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    c2 = ratio_c2(args.a, args.n).value
    row = [args.n], [c2.numerator], [c2.denominator], [classify(c2)]
    write_reports([DominanceWindow(args.a, *row)], args.format, "ratio", sys.stdout)
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
    skipped: list[int] = []
    windows = dominance_scan(args.a, args.max_n, threshold=args.L, skipped=skipped)
    write_reports(windows, args.format, "dominance", sys.stdout)
    print(f"skipped {sum(skipped)} moduli sharing a factor with a={args.a}", file=sys.stderr)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    rep = density_report(args.a, args.max_n, threshold=args.L)
    write_reports([rep], args.format, "density", sys.stdout)
    return 0


def _cmd_primorial(args: argparse.Namespace) -> int:
    rep = primorial_series(args.a, args.k_max, t=args.t)
    write_reports([rep], args.format, "primorial", sys.stdout)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    rep = coverage_check(HyperbolaSpec(args.d, args.m, args.a, args.n), budget=args.budget)
    write_reports([rep], args.format, "coverage", sys.stdout)
    return 0


def _cmd_solve3(args: argparse.Namespace) -> int:
    params = args.b, args.a, args.p, args.t
    write_reports([(*params, solve_sum_product(*params))], args.format, "triple", sys.stdout)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    spec = HyperbolaSpec(2, 2, args.a, args.n)
    pts = enumerate_points(spec, budget=args.budget)  # refuses before any file is opened
    if args.out == "-":
        _write_joined(_svg_lines(pts, spec.n), sys.stdout)
        return 0
    try:
        with open(args.out, "w") as out:
            _write_joined(_svg_lines(pts, spec.n), out)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    print(f"wrote {euler_phi(spec.n)} points to {args.out}", file=sys.stderr)  # one per unit x
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
