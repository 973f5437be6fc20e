import collections
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import modhyp
import modhyp.analysis as analysis
from modhyp.analysis import (
    DominanceWindow,
    classify,
    coverage_check,
    density_report,
    primorial_series,
    solve_sum_product,
)
from modhyp.arith import euler_phi, primes_up_to
from modhyp.cardinality import _counts_array, card_S2_pp, card_signed_sumset, ratio_c2
from modhyp.cli import _KINDS, build_parser, render_svg, run, write_reports
from modhyp.hyperbola import HyperbolaSpec, enumerate_points, sum_diff_cardinalities


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- package surface

# every name the package exported before its __all__ was formed from the
# layers' lists, but for DominanceReport and dominance_report, which are gone
_PACKAGE_NAMES = [
    "BALANCED",
    "CardinalityReport",
    "CoverageReport",
    "DEFAULT_BUDGET",
    "DensityReport",
    "DIFFERENCE_DOMINANT",
    "EnumerationBudgetError",
    "FactorCount",
    "HyperbolaSpec",
    "PartialResultError",
    "PrimeFactorization",
    "PrimorialReport",
    "PrimorialRow",
    "RatioValue",
    "ResidueSet",
    "SUM_DOMINANT",
    "card_S2_pp",
    "card_signed_sumset",
    "classify",
    "coverage_check",
    "density_report",
    "dominance_class_constant",
    "dominance_scan",
    "enumerate_points",
    "euler_phi",
    "factorize",
    "is_prime",
    "legendre",
    "primes_3_mod_4",
    "primes_up_to",
    "primorial_series",
    "ratio_c2",
    "ratio_c2_pp",
    "signed_sumset",
    "solve_sum_product",
    "sqrt_mod_pp",
    "sum_diff_cardinalities",
    "sum_diff_sets",
    "sum_diff_tables",
]


def test_package_exports_each_layer_surface():
    layers = (modhyp.analysis, modhyp.arith, modhyp.cardinality, modhyp.hyperbola)
    assert len(_PACKAGE_NAMES) == 39 and set(_PACKAGE_NAMES) <= set(modhyp.__all__)
    assert not {"DominanceReport", "dominance_report"} & set(dir(modhyp))
    assert len(set(modhyp.__all__)) == len(modhyp.__all__)
    assert modhyp.__all__ == [name for layer in layers for name in layer.__all__]
    for layer in layers:
        for name in layer.__all__:
            assert getattr(modhyp, name) is getattr(layer, name), name
    namespace = {}
    exec("from modhyp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(modhyp.__all__)


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1():
    code, _, _ = run_cli(["no-such-command"])
    assert code == 1
    code, _, _ = run_cli(["ratio", "--a", "11"])  # missing --n
    assert code == 1
    code, _, err = run_cli(["ratio", "--a", "3", "--n", "9"])  # not coprime
    assert code == 1 and "error" in err
    code, _, err = run_cli(["card", "--a", "1", "--n", "7", "--threads", "x"])
    assert code == 1 and "--threads" in err
    for command in ("scan", "density"):  # past the int32 sieve: refused before the header
        code, out, err = run_cli([command, "--a", "3", "--max-n", str(2**31), "--format", "csv"])
        assert (code, out) == (1, "") and "below 2^31" in err, command


# a valid argument list for every command
_COMMAND_ARGS = {
    "enumerate": ["--a", "1", "--n", "7"],
    "card": ["--a", "1", "--n", "7"],
    "ratio": ["--a", "1", "--n", "7"],
    "verify": ["--max-pp", "7"],
    "scan": ["--a", "1", "--max-n", "7"],
    "density": ["--a", "1", "--max-n", "7"],
    "primorial": ["--a", "1", "--k-max", "2"],
    "coverage": ["--d", "3", "--m", "3", "--a", "1", "--n", "7"],
    "solve3": ["--b", "0", "--a", "1", "--p", "11"],
    "plot": ["--a", "1", "--n", "7", "--out", "-"],
}


def test_threads_must_be_positive():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(_COMMAND_ARGS) == sorted(commands)
    for command, argv in _COMMAND_ARGS.items():
        assert run_cli([command, *argv, "--threads", "1"])[0] == 0, command
        for bad in ("0", "-1", "-8", "x"):
            code, out, err = run_cli([command, *argv, "--threads", bad])
            assert (code, out) == (1, "") and "--threads" in err, (command, bad)


_BUDGET_COMMANDS = ["enumerate", "card", "coverage", "plot"]


def test_budget_and_format_parse_only_where_read():
    # each shared flag is declared only on the commands whose handler reads it
    commands = build_parser()._subparsers._group_actions[0].choices
    shared = {
        command: {opt for action in commands[command]._actions for opt in action.option_strings}
        & {"--threads", "--budget", "--format"}
        for command in _COMMAND_ARGS
    }
    assert [c for c, flags in shared.items() if "--budget" in flags] == _BUDGET_COMMANDS
    assert [c for c, flags in shared.items() if "--format" not in flags] == ["verify", "plot"]
    assert sum(len(flags) for flags in shared.values()) == 22
    for argv in (
        ["ratio", "--a", "1", "--n", "7", "--budget", "5"],
        ["verify", "--max-pp", "7", "--format", "csv"],
        ["plot", "--a", "1", "--n", "7", "--out", "-", "--format", "json"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "") and "unrecognized arguments" in err, argv
    for command in _BUDGET_COMMANDS:
        argv = [command, *_COMMAND_ARGS[command]]
        assert run_cli([*argv, "--budget", "1000000"])[0] == 0, command
        for bad in ("0", "-1", "x"):
            code, out, err = run_cli([*argv, "--budget", bad])
            assert (code, out) == (1, "") and "--budget" in err, (command, bad)


def test_help_exits_0():
    code, _, _ = run_cli(["--help"])
    assert code == 0


_PARSER_CASES = [
    ["scan", "--a", "11", "--max-n", "40", "--format", "csv"],
    ["density", "--a", "4", "--max-n", "300", "--format", "json"],
    ["ratio", "--a", "11", "--n", "441"],
    ["scan", "--a", "11", "--max-n", "20", "--L", "3/2"],
    ["ratio", "--a", "11"],  # usage error: --n missing
    ["card", "--d", "3", "--a", "1", "--n", "7"],
    ["solve3", "--b", "0", "--a", "1", "--p", "11", "--format", "json"],
    ["--help"],
    ["scan", "--help"],
]


def test_cached_parser_matches_fresh_parsers():
    fresh = []
    for argv in _PARSER_CASES:
        build_parser.cache_clear()
        fresh.append(run_cli(argv))
    build_parser.cache_clear()
    cached = [run_cli(argv) for _ in range(2) for argv in _PARSER_CASES]
    assert build_parser.cache_info().misses == 1
    assert cached == fresh * 2


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(modhyp.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# one input per streamed command, each writing far more than a pipe holds
_CLOSED_STDOUT_CASES = [
    (
        ["scan", "--a", "11", "--max-n", "200000", "--format", "csv"],
        [b"a,n,c2,c2_decimal,classification\n", b"11,2,1/1,1.000000,balanced\n"],
    ),
    (
        ["enumerate", "--a", "1", "--n", "1000003", "--points", "--format", "csv"],
        [b"x1,x2\n", b"1,1\n"],
    ),
    (
        ["plot", "--a", "1", "--n", "1000003", "--out", "-"],
        [
            b'<?xml version="1.0" encoding="UTF-8"?>\n',
            b'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
            b'viewBox="0 0 1000003 1000003">\n',
        ],
    ),
]


def test_closed_stdout_exits_1_without_traceback():
    env = _subprocess_env()
    for argv, expected in _CLOSED_STDOUT_CASES:
        with subprocess.Popen(
            [sys.executable, "-m", "modhyp", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            head = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()  # the reader goes away, as with `| head -2`
            _, err = proc.communicate(timeout=60)
        assert head == expected, argv[0]
        assert b"Traceback" not in err, argv[0]
        assert proc.returncode == 1, argv[0]


def test_budget_exhaustion_exits_2():
    # phi(7)^(d-1) has about 4,360 digits at d = 5600, past the interpreter's
    # int-to-str limit, and 7.8 million at d = 10^7: the check must stop at
    # the first partial product over the budget, never format the power
    for argv in (
        ["enumerate", "--d", "3", "--a", "1", "--n", "101", "--budget", "10"],
        ["card", "--d", "5600", "--a", "1", "--n", "7"],
        ["card", "--d", str(10**7), "--a", "1", "--n", "7"],
        ["enumerate", "--d", "5600", "--a", "1", "--n", "7"],
        # phi(2) = 1: one tuple at every d, but d - 1 kernel steps
        ["card", "--d", "100000", "--a", "1", "--n", "2"],
        ["card", "--d", str(10**7), "--a", "1", "--n", "2"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert "budget" in err, argv


def test_unit_table_charged_to_budget(monkeypatch):
    # n = 2 * 3 * ... * 23: its phi(n) = 36,495,360 leading tuples fit the
    # default budget, but not with the unit table of all n residues, so it
    # is refused before that table is built
    def no_tables(n):
        raise AssertionError(f"built the tables of {n}")

    monkeypatch.setattr(modhyp.hyperbola, "_unit_tables", no_tables)
    for points in ([], ["--points"]):
        code, out, err = run_cli(["enumerate", "--a", "1", "--n", "223092870", *points])
        assert (code, out) == (2, ""), points
        assert "a unit table of 223092870 residues, over the budget of 100000000" in err
    monkeypatch.undo()
    # at d = 2 a budget of phi(n) + n + 2^14 fits, one less does not
    edge = euler_phi(101) + 101 + 16384
    for points in ([], ["--points"]):
        argv = ["enumerate", "--a", "1", "--n", "101", "--format", "csv", *points]
        assert run_cli([*argv, "--budget", str(edge)])[0] == 0, points
        code, out, err = run_cli([*argv, "--budget", str(edge - 1)])
        assert (code, out) == (2, "") and f"budget of {edge - 1}" in err, points


def test_budget_edge_in_dimension():
    # at n = 2 the default budget of 10^8 holds the one tuple plus d - 1
    # steps of 2^14 up to d = 6104
    assert run_cli(["card", "--d", "6104", "--a", "1", "--n", "2"])[:2] == (
        0,
        "2^1: 1  [oracle]\ntotal 1\n",
    )
    code, out, err = run_cli(["card", "--d", "6105", "--a", "1", "--n", "2"])
    assert (code, out) == (2, "") and "budget" in err


# argument refusals that no other test reaches, each with its message
_REFUSALS = {
    ("scan", "--a", "1", "--max-n", "10", "--L", "abc"): "'abc' is not a rational",
    ("scan", "--a", "1", "--max-n", "10", "--L", "1/0"): "'1/0' is not a rational",
    ("primorial", "--a", "1", "--k-max", "0"): "error: k_max must be >= 1\n",
    ("solve3", "--b", "0", "--a", "1", "--p", "11", "--t", "0"): "error: exponent t must be >= 1\n",
    ("ratio", "--a", "1", "--n", "0"): "error: n must be >= 1\n",
    ("density", "--a", "1", "--max-n", "1"): "error: x must be >= 2\n",
}


@pytest.mark.parametrize("argv", list(_REFUSALS), ids=" ".join)
def test_refusal_message_and_exit_1(argv):
    code, out, err = run_cli(list(argv))
    assert (code, out) == (1, "") and _REFUSALS[argv] in err


# ---------------------------------------------------------------- ratio/card


def test_ratio_table_output():
    code, out, _ = run_cli(["ratio", "--a", "11", "--n", "441"])
    assert code == 0
    assert "8/7" in out and "sum-dominant" in out


def test_card_table_output():
    code, out, _ = run_cli(["card", "--a", "1", "--n", "8"])
    assert code == 0
    assert "total 2" in out and "small-power-table" in out


def test_card_csv_row():
    code, out, _ = run_cli(["card", "--a", "1", "--n", "8", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,n,d,m,p,t,count,method,total"
    assert lines[1] == "1,8,2,2,2,3,2,small-power-table,2"


def test_ratio_csv_matches_spec_example():
    code, out, _ = run_cli(["ratio", "--a", "11", "--n", "441", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "11,441,8/7,1.142857,sum-dominant"


def test_balanced_csv_row():
    code, out, _ = run_cli(["ratio", "--a", "2", "--n", "25", "--format", "csv"])
    assert out.splitlines()[1] == "2,25,1/1,1.000000,balanced"


# ---------------------------------------------------------------- verify


def _units(n):
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_verify_sweep_clean():
    # the case counts come from math.gcd alone, so a sweep that skips a case
    # or checks one twice changes the summary
    pp = sum(len(_units(q)) for q in range(2, 129) if _is_prime_power(q))
    comp = sum(len(_units(n)) for n in range(2, 41))
    code, out, err = run_cli(["verify", "--max-pp", "128", "--max-n", "40"])
    assert (code, err) == (0, "")
    assert out == f"verified {pp} prime-power cases and {comp} composite cases: 0 mismatches\n"


def test_verify_sweep_yields_serial_records():
    # the library sweep behind verify: one record per modulus and phase,
    # every prime power before every composite, case totals from math.gcd
    records = list(analysis.verify_sweep(128, 40))
    powers = [q for q in range(2, 129) if _is_prime_power(q)]
    assert [phase for phase, _, _ in records] == [0] * len(powers) + [1] * 39
    assert all(lines == [] for _, _, lines in records)
    totals = [sum(cases for phase, cases, _ in records if phase == k) for k in (0, 1)]
    assert totals[0] == sum(len(_units(q)) for q in powers)
    assert totals[1] == sum(len(_units(n)) for n in range(2, 41))


def _patch_closed_form(monkeypatch, edits):
    """Route the sweep's closed form through edits: the k-th evaluation at
    p^t (k from 1) has its sums replaced by edits[p, t, k](a, sums) for the
    array a.  The sweep evaluates the pair (sums, diffs) once at each
    modulus in its order."""
    calls = collections.Counter()

    def patched(a, p, t):
        sums, diffs = _counts_array(a, p, t)
        calls[p, t] += 1
        edit = edits.get((p, t, calls[p, t]))
        return (sums if edit is None else edit(a, sums)), diffs

    monkeypatch.setattr("modhyp.analysis._counts_array", patched)


def _raise(a, counts):
    raise ArithmeticError("injected")


def test_verify_reports_each_mismatch(monkeypatch):
    # one sum off at a = 2 in the prime-power check of 5 (the first
    # evaluation at 5^1), and one at a = 7 in the composite check of 12 (the
    # fourth at 3^1, after q = 3 and n = 3, 6)
    _patch_closed_form(
        monkeypatch,
        {(5, 1, 1): lambda a, c: c + (a == 2), (3, 1, 4): lambda a, c: c + (a == 7)},
    )
    s, d = card_S2_pp(2, 5, 1), card_S2_pp(-2, 5, 1)
    cs = card_signed_sumset(HyperbolaSpec(2, 2, 7, 12)).total
    cd = card_signed_sumset(HyperbolaSpec(2, 1, 7, 12)).total
    code, out, err = run_cli(["verify", "--max-pp", "16", "--max-n", "12"])
    assert code == 2
    assert out.endswith(": 2 mismatches\n")
    assert err.splitlines() == [
        f"mismatch at a=2, q=5^1: closed form ({s + 1}, {d}) vs oracle ({s}, {d})",
        f"mismatch at a=7, n=12: composed ({cs + 1}, {cd}) vs oracle ({cs}, {cd})",
    ]


def test_verify_samples_units_as_drawn_from_the_list(monkeypatch):
    # above n = 300 the composite check takes 20 units drawn from one seeded
    # stream in ascending n; the draw must be that from the list of every unit
    checked = []

    def record(n, a):
        checked.append((n, a.tolist()))
        return sum_diff_cardinalities(n, a)

    monkeypatch.setattr("modhyp.analysis.sum_diff_cardinalities", record)
    code, _, err = run_cli(["verify", "--max-pp", "1", "--max-n", "1200"])
    assert (code, err) == (0, "")
    assert [n for n, _ in checked] == list(range(2, 1201))
    rng = random.Random(0x5EED)
    for n, sample in checked:
        units = _units(n)
        if n > 300:
            units = sorted(rng.sample(units, min(20, len(units))))
        assert sample == units, n


def test_verify_identical_across_worker_counts():
    # 330 crosses the n > 300 sampling; --threads is accepted and ignored
    runs = [
        run_cli(["verify", "--max-pp", "128", "--max-n", "330", "--threads", threads])
        for threads in ("1", "2", "3")
    ]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 0 and runs[0][1].endswith(": 0 mismatches\n")


def test_verify_takes_no_budget():
    # the 8192 table limit bounds the oracle, so verify has no --budget
    code, out, err = run_cli(["verify", "--max-pp", "400", "--max-n", "305", "--budget", "100"])
    assert (code, out) == (1, "") and "unrecognized arguments: --budget 100" in err


def test_verify_errors_after_mismatches_match_serial(monkeypatch):
    # a prime-power error stops the sweep at once, a composite one after
    # every prime-power line and the composite lines before it.  The sweep
    # checks q = 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, then n = 2..12: the second
    # evaluation at 2^3 is the pair at n = 8, the third at 5^1 that at n = 10
    def lines_at(edits):
        _patch_closed_form(monkeypatch, edits)
        code, out, err = run_cli(["verify", "--max-pp", "16", "--max-n", "12"])
        assert (code, out) == (2, "") and err.endswith("error: injected\n")
        return [line.split(":")[0] for line in err.splitlines()]

    off = {(5, 1, 1): lambda a, c: c + (a == 2), (13, 1, 1): lambda a, c: c + (a == 3)}
    composite = {(2, 3, 2): lambda a, c: c + 1, (5, 1, 3): _raise, (3, 1, 4): lambda a, c: c + 1}
    assert lines_at({**off, **composite}) == [
        "mismatch at a=2, q=5^1",
        "mismatch at a=3, q=13^1",
        *(f"mismatch at a={a}, n=8" for a in (1, 3, 5, 7)),
        "error",
    ]
    assert lines_at({**off, (7, 1, 1): _raise}) == ["mismatch at a=2, q=5^1", "error"]


def test_verify_refuses_max_n_over_limit_before_sweep(monkeypatch):
    def no_sweep(n, *args):
        raise AssertionError(f"swept n = {n} before refusing")

    monkeypatch.setattr("modhyp.analysis.sum_diff_cardinalities", no_sweep)
    code, out, err = run_cli(["verify", "--max-pp", "1", "--max-n", "8193"])
    assert (code, out, err) == (1, "", "error: n must be in [2, 8192]\n")
    with pytest.raises(AssertionError, match="swept n = 2 "):
        run_cli(["verify", "--max-pp", "1", "--max-n", "8192"])


def test_cli_imports_no_pool_machinery():
    # every command runs in one process: no pool module is ever loaded, not
    # by verify under --threads 2 either
    script = (
        "import sys, modhyp.cli; modhyp.cli.run(['ratio', '--a', '3', '--n', '7']); "
        "modhyp.cli.run(['verify', '--max-pp', '16', '--max-n', '12', '--threads', '2']); "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "[]"


def test_verify_refuses_over_limit_before_sweep(monkeypatch):
    # 8209 is the first prime above the 8192 table limit
    def no_sweep(n, *args):
        raise AssertionError(f"swept n = {n} before refusing")

    monkeypatch.setattr("modhyp.analysis.sum_diff_cardinalities", no_sweep)
    code, out, err = run_cli(["verify", "--max-pp", "9000"])
    assert (code, out, err) == (1, "", "error: n must be in [2, 8192]\n")
    # 8192 = 2^13 is the largest prime power <= 8208: accepted, so it sweeps
    with pytest.raises(AssertionError, match="swept n = 2 "):
        run_cli(["verify", "--max-pp", "8208"])


def test_verify_sieves_no_further_than_the_refusal(monkeypatch):
    # a --max-pp over 2 * 8192 has a prime in (8192, 16384] (Bertrand), so
    # the sieve stops there and the bound is refused all the same; a longer
    # sieve fails here before it is built (at 10^10 it would take 10 GB)
    limits = []

    def record(limit):
        assert limit <= 2 * 8192, f"sieved to {limit}"
        limits.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr("modhyp.analysis.primes_up_to", record)
    code, out, err = run_cli(["verify", "--max-pp", "10000000000"])
    assert (code, out, err) == (1, "", "error: n must be in [2, 8192]\n")
    assert limits == [16384]


# ---------------------------------------------------------------- scan


def test_scan_csv_deterministic_across_threads():
    outputs = []
    for threads in ("1", "4", "16"):
        code, out, err = run_cli(
            ["scan", "--a", "11", "--max-n", "500", "--format", "csv", "--threads", threads]
        )
        assert code == 0
        assert "skipped" in err
        outputs.append(out.encode())
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_threshold_filter():
    code, out, _ = run_cli(
        ["scan", "--a", "11", "--max-n", "50", "--L", "1/1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(Fraction(r["c2"]) > 1 for r in rows)


@pytest.mark.parametrize("command", ["scan", "density"])
def test_negative_threshold_as_own_word(command):
    # argparse on Python 3.11 took "-1/2" for an option and left --L without a value
    argv = [command, "--a", "11", "--max-n", "20", "--format", "csv"]
    glued = run_cli([*argv, "--L=-1/2"])
    assert glued[0] == 0
    assert run_cli([*argv, "--L", "-1/2"]) == glued
    assert run_cli([*argv, "--L", "-1e5"]) == run_cli([*argv, "--L=-100000"])


def test_scan_csv_roundtrip():
    code, out, _ = run_cli(["scan", "--a", "4", "--max-n", "60", "--format", "csv"])
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        c2 = ratio_c2(int(row["a"]), int(row["n"])).value
        assert Fraction(row["c2"]) == c2
        assert row["classification"] == classify(c2)
        assert row["c2_decimal"] == f"{float(c2):.6f}"


def test_card_csv_roundtrip():
    code, out, _ = run_cli(
        ["card", "--a", "1", "--n", "360", "--format", "csv"]
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    rep = card_signed_sumset(HyperbolaSpec(2, 2, 1, 360))
    assert len(rows) == len(rep.per_factor)
    for row, fc in zip(rows, rep.per_factor):
        assert (int(row["p"]), int(row["t"]), int(row["count"]), row["method"]) == (
            fc.p,
            fc.t,
            fc.count,
            fc.method,
        )
        assert int(row["total"]) == rep.total


@pytest.mark.parametrize(
    "fmt, out", [("csv", "a,n,c2,c2_decimal,classification\n"), ("json", "[]\n"), ("table", "")]
)
def test_scan_at_zero_skips_every_modulus(fmt, out):
    # every n >= 2 shares a factor with a = 0, so no symbol is needed
    assert run_cli(["scan", "--a", "0", "--max-n", "50", "--format", fmt]) == (
        0,
        out,
        "skipped 49 moduli sharing a factor with a=0\n",
    )


# sha256 of scan stdout pinned from the release that wrote one row per
# report.  Under windows of 97 moduli the sieve windows 584..680 and
# 2621..2717 keep no row: empty windows between full ones.
_EMPTY_WINDOWS_SHA256 = {
    "csv": "fe52171cb0221175c1cb9ed200765a05010e5bde4def782495fb2dd17d115169",
    "json": "1fa32121f388c448ca9369a8b0ee1ddf87a2ae909e27b099933f2d73271a6156",
    "table": "0a98ad552253a2e8ee3d5dff078caeafbfd0a393cc558ad919fa4d4bc1ca340c",
}


@pytest.mark.parametrize("fmt", list(_EMPTY_WINDOWS_SHA256))
@pytest.mark.parametrize("window", (97, analysis._WINDOW))
def test_scan_bytes_across_empty_windows(monkeypatch, window, fmt):
    monkeypatch.setattr(analysis, "_WINDOW", window)
    argv = ["scan", "--a", "11", "--max-n", "3000", "--L", "5/2", "--format", fmt]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "skipped 272 moduli sharing a factor with a=11\n")
    assert hashlib.sha256(out.encode()).hexdigest() == _EMPTY_WINDOWS_SHA256[fmt]
    if window == 97:
        windows = list(analysis.dominance_scan(11, 3000, Fraction(5, 2)))
        assert [i for i, w in enumerate(windows) if not w.n] == [6, 27]
        assert windows[6].a == 11 and windows[5].n and windows[7].n


def test_scan_json_parses():
    code, out, _ = run_cli(["scan", "--a", "11", "--max-n", "30", "--format", "json"])
    rows = json.loads(out)
    assert rows[0]["n"] == "2"
    assert all(set(r) == {"a", "n", "c2", "c2_decimal", "classification"} for r in rows)


def test_scan_summary_follows_its_last_row():
    # the skipped count is known only once the sieve is done, so scan prints
    # it after its rows; the 2,729 lines go out in one write, more than the
    # stream buffer holds, so the order shows whether or not stdout buffers
    proc = subprocess.run(
        [sys.executable, "-m", "modhyp", "scan", "--a", "11", "--max-n", "3000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_subprocess_env(),
        timeout=60,
    )
    lines = proc.stdout.decode().splitlines()
    assert proc.returncode == 0
    assert lines[-1] == "skipped 272 moduli sharing a factor with a=11"
    assert [line for line in lines if line.startswith("skipped")] == lines[-1:]


# ---------------------------------------------------------------- write_reports


def _rat(f):
    return f"{f.numerator}/{f.denominator}"


def _dec(f):
    return f"{float(f):.6f}"


# Reference rows for every report kind: a list of dicts of strings per
# report, the keys in column order, as the writer's output must read.
_REFERENCE_ROWS = {
    "dominance": lambda w: [
        {
            "a": str(w.a),
            "n": str(n),
            "c2": _rat(Fraction(num, den)),
            "c2_decimal": _dec(Fraction(num, den)),
            "classification": classification,
        }
        for n, num, den, classification in zip(w.n, w.num, w.den, w.classification)
    ],
    "card": lambda r: [
        {
            "a": str(r.spec.a),
            "n": str(r.spec.n),
            "d": str(r.spec.d),
            "m": str(r.spec.m),
            "p": str(fc.p),
            "t": str(fc.t),
            "count": str(fc.count),
            "method": fc.method,
            "total": str(r.total),
        }
        for fc in r.per_factor
    ],
    "density": lambda r: [
        {
            "a": str(r.a),
            "x": str(r.x),
            "threshold": _rat(r.threshold),
            "eligible_count": str(r.eligible_count),
            "dominant_count": str(r.dominant_count),
            "empirical_density": _rat(r.empirical_density),
            "empirical_decimal": _dec(r.empirical_density),
            "class_constant": _rat(r.class_constant),
            "bound_truncated": _rat(r.bound_truncated),
            "bound_truncated_decimal": _dec(r.bound_truncated),
            "bound_rigorous": _rat(r.bound_rigorous),
            "bound_rigorous_decimal": _dec(r.bound_rigorous),
            "prime_limit": str(r.prime_limit),
        }
    ],
    "primorial": lambda r: [
        {
            "a": str(r.a),
            "t": str(r.t),
            "k": str(row.k),
            "primorial": str(row.primorial),
            "ratio_first_power": _rat(row.ratio_first_power),
            "ratio_first_decimal": _dec(row.ratio_first_power),
            "ratio_power_t": _rat(row.ratio_power_t),
            "ratio_power_decimal": _dec(row.ratio_power_t),
            "loglog": f"{row.loglog:.6f}",
        }
        for row in r.rows
    ],
    "coverage": lambda r: [
        {
            "a": str(r.spec.a),
            "n": str(r.spec.n),
            "d": str(r.spec.d),
            "m": str(r.spec.m),
            "covered": "true" if r.covered else "false",
            "guaranteed": "true" if r.guaranteed else "false",
            "missing_count": str(len(r.missing)),
            "missing": " ".join(str(v) for v in r.missing),
        }
    ],
    "triple": lambda r: [
        {
            "b": str(r[0]),
            "a": str(r[1]),
            "p": str(r[2]),
            "t": str(r[3]),
            "modulus": str(r[2] ** r[3]),
            "x1": str(r[4][0]),
            "x2": str(r[4][1]),
            "x3": str(r[4][2]),
        }
    ],
}
_REFERENCE_ROWS["ratio"] = _REFERENCE_ROWS["dominance"]


def _window(a, moduli):
    ratios = [ratio_c2(a, n).value for n in moduli]
    return DominanceWindow(
        a,
        list(moduli),
        [c2.numerator for c2 in ratios],
        [c2.denominator for c2 in ratios],
        [classify(c2) for c2 in ratios],
    )


def _sample_reports(kind):
    if kind == "dominance":
        # scan windows: three rows, none (every modulus filtered out), two
        return [_window(11, (2, 25, 441)), _window(11, ()), _window(3 * 10**40 + 7, (8, 9000))]
    if kind == "ratio":
        # one-row windows: a breakdown of two prime powers, of none, of three
        return [_window(11, (441,)), _window(3, (1,)), _window(3 * 10**40 + 7, (9000,))]
    if kind == "card":
        specs = [HyperbolaSpec(2, 2, 1, 360), HyperbolaSpec(2, 1, 5, 8), HyperbolaSpec(3, 3, 1, 35)]
        return [card_signed_sumset(s) for s in specs]
    if kind == "density":
        return [
            density_report(4, 500),
            density_report(11, 300, threshold=Fraction(3, 2)),
            density_report(3, 200, prime_limit=1000),
        ]
    if kind == "primorial":
        return [primorial_series(4, 2), primorial_series(25, 3, t=3), primorial_series(4, 1)]
    if kind == "coverage":
        specs = [HyperbolaSpec(3, 3, 1, 3), HyperbolaSpec(3, 3, 1, 11), HyperbolaSpec(3, 2, 1, 35)]
        return [coverage_check(s) for s in specs]
    args = [(0, 1, 11, 3), (5, 7, 13, 1), (-4, 2, 17, 2)]
    return [(*a, solve_sum_product(*a)) for a in args]


def _expected_bytes(kind, reports):
    # the CSV of csv.writer and the JSON of json.dumps over the reference
    # rows of the reports, and the number of those rows
    header = list(_REFERENCE_ROWS[kind](_sample_reports(kind)[0])[0])
    rows = [row for rep in reports for row in _REFERENCE_ROWS[kind](rep)]
    expected_csv = io.StringIO()
    writer = csv.writer(expected_csv, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[k] for k in header] for row in rows)
    return {"csv": expected_csv.getvalue(), "json": json.dumps(rows, indent=2) + "\n"}, len(rows)


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize(
    "kind", ["dominance", "ratio", "card", "density", "primorial", "coverage", "triple"]
)
def test_write_reports_streams_expected_bytes(kind, count):
    samples = _sample_reports(kind)
    expected, _ = _expected_bytes(kind, samples[:count])
    out = io.StringIO()
    # a generator: the writer must consume the reports in a single pass
    assert write_reports(iter(samples[:count]), "csv", kind, out) is None
    assert out.getvalue() == expected["csv"]
    out = io.StringIO()
    write_reports(iter(samples[:count]), "json", kind, out)
    assert out.getvalue() == expected["json"]


def test_write_reports_rejects_unknown_format():
    # an unknown kind is refused like an unknown format, before any write
    for fmt, kind in (("xml", "dominance"), ("csv", "nope"), ("xml", "nope")):
        out = _CountingIO()
        with pytest.raises(ValueError, match="unsupported report"):
            write_reports(_sample_reports("dominance"), fmt, kind, out)
        assert out.writes == 0, (fmt, kind)


class _CountingIO(io.StringIO):
    """A StringIO that counts the calls to its write and keeps the first."""

    writes = 0
    first = None

    def write(self, s):
        if not self.writes:
            self.first = s
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("kind", list(_KINDS))
def test_write_reports_writes_4096_pieces_per_call(kind, fmt):
    # every format goes through _write_joined: the CSV header or "[\n" with
    # the first 4096 lines or objects, one write per further 4096, and the
    # closing "\n]\n" in a write of its own; an empty stream still makes
    # one write, the bare header, "" or "[]\n"
    samples = _sample_reports(kind)
    streams = [samples[:count] for count in (0, 1, 3)]
    if kind == "dominance":
        # one report of 5,000 rows crosses a batch inside the report
        streams.append([_window(11, [n for n in range(2, 5600) if n % 11][:5000])])
    for reports in streams:
        expected, rows = _expected_bytes(kind, reports)
        out = _CountingIO()
        write_reports(iter(reports), fmt, kind, out)
        # a piece is a table line, a CSV row or a JSON object
        pieces = sum(len(_KINDS[kind][2](rep)) for rep in reports) if fmt == "table" else rows
        writes = max(1, math.ceil(pieces / 4096)) + (fmt == "json" and rows > 0)
        assert out.writes == writes, len(reports)
        # the first write holds the first batch, exactly, after the CSV header
        piece_end = "\n  }" if fmt == "json" else "\n"
        assert out.first.count(piece_end) == min(pieces, 4096) + (fmt == "csv"), len(reports)
        assert fmt == "table" or out.getvalue() == expected[fmt], len(reports)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_write_reports_writes_nothing_when_first_report_raises(fmt):
    # the first report is taken before any write: the scan's sieve refuses
    # 2^31 at its first window, and leaves no CSV header or JSON bracket
    out = _CountingIO()
    with pytest.raises(ValueError, match="must be below 2\\^31"):
        write_reports(analysis.dominance_scan(3, 2**31), fmt, "dominance", out)
    assert (out.writes, out.getvalue()) == (0, "")


@pytest.mark.parametrize("kind", list(_KINDS))
def test_built_fields_need_no_csv_quoting(kind):
    # the CSV line template writes each field with %s, unquoted: csv.writer
    # would quote a field holding any of these
    for rep in _sample_reports(kind):
        for row in _KINDS[kind][1](rep):
            for v in row:
                assert not set(str(v)) & set(',"\r\n'), (kind, v)


# ---------------------------------------------------------------- byte pins

# Every byte pin of the CLI but the empty-window ones, one manifest entry
# each: commands run in order, the exit code each returns, the sha256 of
# their joined stdout and their joined stderr as text.  A hash changes only
# in a change that names the entry and the reason in CHANGES.md.


def _load_pins():
    # a mistyped entry fails collection instead of checking nothing
    with open(os.path.join(os.path.dirname(__file__), "pins.json"), encoding="utf-8") as f:
        entries = json.load(f)
    names = [entry["name"] for entry in entries]
    assert len(set(names)) == len(names), "pin names must be unique"
    for entry in entries:
        name = entry["name"]
        assert set(entry) == {"name", "why", "argv", "exit", "stdout_sha256", "stderr"}, name
        assert isinstance(name, str) and name and isinstance(entry["why"], str), name
        assert re.fullmatch("[0-9a-f]{64}", entry["stdout_sha256"]), name
        argv = entry["argv"]
        assert isinstance(argv, list) and argv, name
        for words in argv:
            assert isinstance(words, list) and words, name
            assert all(isinstance(w, str) and w for w in words), name
        assert type(entry["exit"]) is int and entry["exit"] in (0, 1, 2), name
        assert isinstance(entry["stderr"], str), name
    return {entry["name"]: entry for entry in entries}


_PINS = _load_pins()


class _HashIO(io.TextIOBase):
    """A text sink that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, s):
        self.sha256.update(s.encode())
        return len(s)


@pytest.mark.parametrize("name", list(_PINS))
def test_pinned_bytes_in_process(name):
    pin = _PINS[name]
    out, err = _HashIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        codes = [run(argv) for argv in pin["argv"]]
    assert codes == [pin["exit"]] * len(codes)
    assert err.getvalue() == pin["stderr"]
    assert out.sha256.hexdigest() == pin["stdout_sha256"]


# through `python -m modhyp`: the TextIOWrapper on a real pipe and main's
# flush, which a shell user sees; sumset_1e6_csv is many 4096-piece writes
_PIPED = [
    "scan_1019_2e4_csv",
    "points_4_101_csv",
    "points_4_101_json",
    "points_4_101_table",
    "sumset_4_101_csv",
    "sumset_4_101_json",
    "sumset_4_101_table",
    "plot_51_64",
    "plot_4_101",
    "sumset_1e6_csv",
]


@pytest.mark.parametrize("name", _PIPED)
def test_pinned_bytes_through_a_pipe(name):
    pin = _PINS[name]
    (argv,) = pin["argv"]
    proc = subprocess.run(
        [sys.executable, "-m", "modhyp", *argv],
        capture_output=True,
        env=_subprocess_env(),
        timeout=120,
    )
    assert proc.returncode == pin["exit"]
    assert proc.stderr.decode() == pin["stderr"]
    assert hashlib.sha256(proc.stdout).hexdigest() == pin["stdout_sha256"]


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("plot", "--out", "-"), 100),
        (("enumerate", "--format", "table"), 50),
        (("enumerate", "--format", "json"), 50),
    ],
    ids=["plot", "sumset table", "sumset json"],
)
def test_stream_peak_memory_per_residue(argv, bound):
    # a list of every point or member, or the whole SVG or sumset line, costs
    # tens to hundreds of bytes a residue; streamed, the peak is the oracle's
    # own arrays (about 20 bytes a residue at this n, and 40 for plot)
    n = 100003
    with redirect_stdout(_HashIO()), redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            assert run([*argv, "--a", "1", "--n", str(n)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak / n < bound


# ---------------------------------------------------------------- README examples


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch):
    # every `modhyp ...` line of the README, its comment stripped as
    # sed 's/ *#.*//' does, run in a scratch directory (plot writes a file)
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        examples = [re.sub(" *#.*", "", line).split() for line in f if line.startswith("modhyp ")]
    assert examples
    monkeypatch.chdir(tmp_path)
    for words in examples:
        assert run_cli(words[1:])[0] == 0, words
    assert (tmp_path / "h.svg").is_file()


# ---------------------------------------------------------------- enumerate


def test_enumerate_writes_4096_rows_per_call():
    # phi(10007) = 10006 points; the sumset of x + 1/x has (p + 1) / 2 members
    size = len(modhyp.signed_sumset(HyperbolaSpec(2, 2, 1, 10007)))
    for extra, fmt, writes in (
        (["--points"], "csv", 3),
        (["--points"], "table", 3),
        (["--points"], "json", 3 + 1),
        ([], "csv", math.ceil(size / 4096)),
    ):
        out = _CountingIO()
        argv = ["enumerate", "--a", "1", "--n", "10007", "--format", fmt, *extra]
        with redirect_stdout(out):
            assert run(argv) == 0
        assert out.writes == writes, (extra, fmt)


def test_enumerate_points_csv():
    code, out, _ = run_cli(
        ["enumerate", "--d", "2", "--m", "2", "--a", "4", "--n", "5", "--points", "--format", "csv"]
    )
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2"
    assert lines[1:] == ["1,4", "2,2", "3,3", "4,1"]


def test_enumerate_sumset_json():
    code, out, _ = run_cli(
        ["enumerate", "--d", "2", "--m", "2", "--a", "4", "--n", "5", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["members"] == [0, 1, 4]
    assert payload["cardinality"] == 3


_TABLE_OUTPUTS = {
    ("ratio", "--a", "11", "--n", "441"): (
        "c2(11; 441) = 8/7 (1.142857)  sum-dominant\n"
        "  3^2: 3/2\n"
        "  7^2: 16/21\n"
    ),
    ("primorial", "--a", "4", "--k-max", "8"): (
        "k=1 N=3 c2=2/1 (2.000000) c2^t=2/3 (0.666667) loglog=0.094048\n"
        "k=2 N=21 c2=8/3 (2.666667) c2^t=32/63 (0.507937) loglog=1.113344\n"
        "k=3 N=231 c2=16/5 (3.200000) c2^t=1472/3465 (0.424820) loglog=1.694223\n"
        "k=4 N=4389 c2=32/9 (3.555556) c2^t=2944/7695 (0.382586) loglog=2.126666\n"
        "k=5 N=100947 c2=128/33 (3.878788) c2^t=29696/84645 (0.350830) loglog=2.444289\n"
        "k=6 N=3129357 c2=2048/495 (4.137374) c2^t=12947456/39359925 (0.328950) "
        "loglog=2.705135\n"
        "k=7 N=134562351 c2=4096/945 (4.334392) c2^t=11160707072/35542012275 "
        "(0.314014) loglog=2.929461\n"
        "k=8 N=6324430497 c2=32768/7245 (4.522843) c2^t=1651784646656/5488702181325 "
        "(0.300943) loglog=3.116519\n"
    ),
    ("scan", "--a", "11", "--max-n", "30"): (
        "n=2 c2=1/1 (1.000000) balanced\n"
        "n=3 c2=1/2 (0.500000) difference-dominant\n"
        "n=4 c2=1/1 (1.000000) balanced\n"
        "n=5 c2=1/1 (1.000000) balanced\n"
        "n=6 c2=1/2 (0.500000) difference-dominant\n"
        "n=7 c2=4/3 (1.333333) sum-dominant\n"
        "n=8 c2=1/2 (0.500000) difference-dominant\n"
        "n=9 c2=3/2 (1.500000) sum-dominant\n"
        "n=10 c2=1/1 (1.000000) balanced\n"
        "n=12 c2=1/2 (0.500000) difference-dominant\n"
        "n=13 c2=1/1 (1.000000) balanced\n"
        "n=14 c2=4/3 (1.333333) sum-dominant\n"
        "n=15 c2=1/2 (0.500000) difference-dominant\n"
        "n=16 c2=1/1 (1.000000) balanced\n"
        "n=17 c2=1/1 (1.000000) balanced\n"
        "n=18 c2=3/2 (1.500000) sum-dominant\n"
        "n=19 c2=10/9 (1.111111) sum-dominant\n"
        "n=20 c2=1/1 (1.000000) balanced\n"
        "n=21 c2=2/3 (0.666667) difference-dominant\n"
        "n=23 c2=11/12 (0.916667) difference-dominant\n"
        "n=24 c2=1/4 (0.250000) difference-dominant\n"
        "n=25 c2=1/1 (1.000000) balanced\n"
        "n=26 c2=1/1 (1.000000) balanced\n"
        "n=27 c2=9/4 (2.250000) sum-dominant\n"
        "n=28 c2=4/3 (1.333333) sum-dominant\n"
        "n=29 c2=1/1 (1.000000) balanced\n"
        "n=30 c2=1/2 (0.500000) difference-dominant\n"
    ),
    ("density", "--a", "4", "--max-n", "500"): (
        "eligible 250, above threshold 152, empirical density 76/125 (0.608000)\n"
        "class constant 1/1, truncated bound 0.856109, rigorous bound 0.856101 "
        "(primes up to 100000)\n"
    ),
    ("solve3", "--b", "0", "--a", "1", "--p", "11", "--t", "3"): (
        "x1=63 x2=444 x3=824 (mod 1331)\n"
        "sum=0 product=1\n"
    ),
    ("card", "--a", "7", "--n", "360"): (
        "2^3: 1  [small-power-table]\n"
        "3^2: 2  [closed-form-odd-p]\n"
        "5^1: 2  [closed-form-odd-p]\n"
        "total 4\n"
    ),
    ("card", "--d", "3", "--m", "1", "--a", "2", "--n", "35"): (
        "5^1: 4  [oracle]\n"
        "7^1: 7  [oracle]\n"
        "total 28\n"
    ),
    ("coverage", "--d", "3", "--m", "3", "--a", "1", "--n", "3"): (
        "NOT covered; guaranteed=no\n"
        "missing: 1\n"
    ),
    ("coverage", "--d", "3", "--m", "3", "--a", "1", "--n", "11"): "covered; guaranteed=yes\n",
    ("ratio", "--a", "3", "--n", "1"): "c2(3; 1) = 1/1 (1.000000)  balanced\n",
    ("ratio", "--a", "-7", "--n", "9000"): (
        "c2(-7; 9000) = 3/1 (3.000000)  sum-dominant\n"
        "  2^3: 2/1\n"
        "  3^2: 3/2\n"
        "  5^3: 1/1\n"
    ),
}


def _table_id(argv):
    # the command alone for its first pin, the whole argv for any later one
    first = next(key for key in _TABLE_OUTPUTS if key[0] == argv[0])
    return argv[0] if argv == first else " ".join(argv)


@pytest.mark.parametrize("argv", list(_TABLE_OUTPUTS), ids=_table_id)
def test_table_output_pinned(argv):
    code, out, _ = run_cli(list(argv))
    assert code == 0
    assert out == _TABLE_OUTPUTS[argv]


# ---------------------------------------------------------------- density / primorial / coverage / solve3


def test_density_command():
    code, out, _ = run_cli(
        ["density", "--a", "4", "--max-n", "500", "--format", "json"]
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["eligible_count"] == "250"
    assert Fraction(row["class_constant"]) == 1


def test_primorial_command():
    code, out, _ = run_cli(["primorial", "--a", "4", "--k-max", "2", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["primorial"] for r in rows] == ["3", "21"]
    assert rows[1]["ratio_first_power"] == "8/3"


def test_primorial_refuses_rows_past_int_str_limit():
    # at the default limit of 4300 digits the 819th primorial is the first
    # integer too long to print; a refused series prints nothing
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(["primorial", "--a", "4", "--k-max", "818", "--format", "csv"])
        assert code == 0 and out.count("\n") == 819
        for extra in (["--k-max", "819"], ["--k-max", "3", "--t", "20000"]):
            code, out, err = run_cli(["primorial", "--a", "4", *extra])
            assert (code, out) == (1, "") and "4300 digits" in err, extra
    finally:
        sys.set_int_max_str_digits(saved)


# At the default limit of 4300 digits: 11^4129 has 4300 digits, and row 1 of
# the primorial series at t has the denominator 3^(t-1), where 3^9012 has
# 4300.  A refusal prints nothing and comes before any big power is formed.
@pytest.mark.parametrize(
    "argv, last_t, refusal",
    [
        (["solve3", "--b", "0", "--a", "1", "--p", "11"], 4129, "modulus 11^"),
        (["primorial", "--a", "4", "--k-max", "1"], 9013, "row k = 1 "),
    ],
)
def test_exponent_refused_past_int_str_limit(argv, last_t, refusal):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("table", "csv", "json"):
            code, out, err = run_cli([*argv, "--t", str(last_t), "--format", fmt])
            assert code == 0 and out and err == "", fmt
            for t in (last_t + 1, 10**9):
                start = time.perf_counter()
                code, out, err = run_cli([*argv, "--t", str(t), "--format", fmt])
                assert time.perf_counter() - start < 1, (fmt, t)
                assert (code, out) == (1, "") and refusal in err, (fmt, t)
                assert "over 4300 digits, too long to print" in err, (fmt, t)
    finally:
        sys.set_int_max_str_digits(saved)


def test_coverage_command():
    code, out, _ = run_cli(
        ["coverage", "--d", "3", "--m", "3", "--a", "1", "--n", "3", "--format", "json"]
    )
    row = json.loads(out)[0]
    assert row["covered"] == "false"
    assert row["missing"] == "1"
    code, out, _ = run_cli(
        ["coverage", "--d", "3", "--m", "3", "--a", "1", "--n", "11", "--format", "table"]
    )
    assert "covered" in out and "yes" in out


def test_solve3_command():
    code, out, _ = run_cli(
        ["solve3", "--b", "0", "--a", "1", "--p", "11", "--t", "1", "--format", "csv"]
    )
    row = list(csv.DictReader(io.StringIO(out)))[0]
    vals = [int(row[k]) for k in ("x1", "x2", "x3")]
    assert sum(vals) % 11 == 0
    assert math.prod(vals) % 11 == 1


# ---------------------------------------------------------------- svg


def count_point_elements(svg_text):
    root = ET.fromstring(svg_text)
    return sum(
        1
        for el in root.iter()
        if el.tag.endswith("rect") or el.tag.endswith("circle")
    )


def test_svg_examples():
    pts = list(enumerate_points(HyperbolaSpec(2, 2, 51, 2**10)))
    svg = render_svg(pts, 2**10)
    assert count_point_elements(svg) == 512 == euler_phi(2**10)

    pts = list(enumerate_points(HyperbolaSpec(2, 2, 1325, 48**2)))
    svg = render_svg(pts, 48**2)
    assert count_point_elements(svg) == 768 == euler_phi(48**2)

    svg = render_svg([(1, 1), (2, 3), (3, 2), (4, 4)], 5)
    assert count_point_elements(svg) == 4


def test_svg_empty_is_valid():
    svg = render_svg([], 7)
    ET.fromstring(svg)
    assert count_point_elements(svg) == 0


def test_svg_rejects_out_of_range():
    with pytest.raises(ValueError):
        render_svg([(0, 1)], 5)
    with pytest.raises(ValueError):
        render_svg([(1, 5)], 5)


def test_plot_writes_file(tmp_path):
    out_file = tmp_path / "h.svg"
    code, _, err = run_cli(["plot", "--a", "1", "--n", "5", "--out", str(out_file)])
    assert code == 0
    svg = out_file.read_text()
    ET.fromstring(svg)
    assert count_point_elements(svg) == 4
    assert "4 points" in err


def test_plot_unwritable_path_exits_1(tmp_path):
    out_file = tmp_path / "missing" / "h.svg"
    code, out, err = run_cli(["plot", "--a", "51", "--n", "64", "--out", str(out_file)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {out_file}: ")
    assert err.count("\n") == 1


def test_plot_budget_refusal_creates_no_file(tmp_path):
    out_file = tmp_path / "h.svg"
    argv = ["plot", "--a", "1", "--n", "101", "--budget", "10", "--out", str(out_file)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and "budget of 10" in err
    assert not out_file.exists()


def test_plot_writes_4096_lines_per_call():
    # 3 header lines, phi(10007) = 10006 points and the closing tags
    out = _CountingIO()
    with redirect_stdout(out):
        assert run(["plot", "--a", "1", "--n", "10007", "--out", "-"]) == 0
    assert out.writes == 3
    assert out.getvalue() == render_svg(enumerate_points(HyperbolaSpec(2, 2, 1, 10007)), 10007)
