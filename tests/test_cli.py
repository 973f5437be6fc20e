import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from modhyp.analysis import (
    coverage_check,
    density_report,
    dominance_report,
    primorial_series,
    solve_sum_product,
)
from modhyp.arith import euler_phi
from modhyp.cardinality import card_signed_sumset
from modhyp.cli import render_svg, resolve_threads, run, write_reports
from modhyp.hyperbola import HyperbolaSpec, enumerate_points


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_1():
    code, _, _ = run_cli(["no-such-command"])
    assert code == 1
    code, _, _ = run_cli(["ratio", "--a", "11"])  # missing --n
    assert code == 1
    code, _, err = run_cli(["ratio", "--a", "3", "--n", "9"])  # not coprime
    assert code == 1 and "error" in err


def test_help_exits_0():
    code, _, _ = run_cli(["--help"])
    assert code == 0


def test_budget_exhaustion_exits_2():
    code, _, err = run_cli(
        ["enumerate", "--d", "3", "--a", "1", "--n", "101", "--budget", "10"]
    )
    assert code == 2
    assert "budget" in err


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


def test_verify_sweep_clean():
    code, out, _ = run_cli(["verify", "--max-pp", "128", "--max-n", "40"])
    assert code == 0
    assert "0 mismatches" in out


def test_verify_refuses_over_limit_before_sweep(monkeypatch):
    # 8209 is the first prime above the 8192 table limit
    def no_sweep(n):
        raise AssertionError(f"swept n = {n} before refusing")

    monkeypatch.setattr("modhyp.cli.sum_diff_cardinalities", no_sweep)
    code, out, err = run_cli(["verify", "--max-pp", "9000"])
    assert (code, out, err) == (1, "", "error: n must be in [2, 8192]\n")
    # 8192 = 2^13 is the largest prime power <= 8208: accepted, so it sweeps
    with pytest.raises(AssertionError, match="swept n = 2 "):
        run_cli(["verify", "--max-pp", "8208"])


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


def test_scan_csv_roundtrip():
    code, out, _ = run_cli(["scan", "--a", "4", "--max-n", "60", "--format", "csv"])
    assert code == 0
    for row in csv.DictReader(io.StringIO(out)):
        rep = dominance_report(int(row["a"]), int(row["n"]))
        assert Fraction(row["c2"]) == rep.c2
        assert row["classification"] == rep.classification
        assert row["c2_decimal"] == f"{float(rep.c2):.6f}"


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


def test_scan_json_parses():
    code, out, _ = run_cli(["scan", "--a", "11", "--max-n", "30", "--format", "json"])
    rows = json.loads(out)
    assert rows[0]["n"] == "2"
    assert all(set(r) == {"a", "n", "c2", "c2_decimal", "classification"} for r in rows)


# ---------------------------------------------------------------- write_reports


def _rat(f):
    return f"{f.numerator}/{f.denominator}"


def _dec(f):
    return f"{float(f):.6f}"


# Reference rows for every report kind: a list of dicts of strings per
# report, the keys in column order, as the writer's output must read.
_REFERENCE_ROWS = {
    "dominance": lambda r: [
        {
            "a": str(r.a),
            "n": str(r.n),
            "c2": _rat(r.c2),
            "c2_decimal": _dec(r.c2),
            "classification": r.classification,
        }
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


def _sample_reports(kind):
    if kind == "dominance":
        return [dominance_report(11, n) for n in (441, 25, 2)]
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


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize(
    "kind", ["dominance", "card", "density", "primorial", "coverage", "triple"]
)
def test_write_reports_streams_expected_bytes(kind, count):
    samples = _sample_reports(kind)
    header = list(_REFERENCE_ROWS[kind](samples[0])[0])
    rows = [row for rep in samples[:count] for row in _REFERENCE_ROWS[kind](rep)]
    expected_csv = io.StringIO()
    writer = csv.writer(expected_csv, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[k] for k in header] for row in rows)

    out = io.StringIO()
    # a generator: the writer must consume the reports in a single pass
    assert write_reports(iter(samples[:count]), "csv", kind, out) is None
    assert out.getvalue() == expected_csv.getvalue()
    out = io.StringIO()
    write_reports(iter(samples[:count]), "json", kind, out)
    assert out.getvalue() == json.dumps(rows, indent=2) + "\n"


def test_write_reports_rejects_unknown_format():
    out = io.StringIO()
    with pytest.raises(ValueError):
        write_reports([], "xml", "dominance", out)
    assert out.getvalue() == ""


# ---------------------------------------------------------------- enumerate


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


# ---------------------------------------------------------------- threads


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("MODHYP_THREADS", raising=False)
    assert resolve_threads(7) == 7
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("MODHYP_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2  # explicit flag wins
    monkeypatch.setenv("MODHYP_THREADS", "zebra")
    with pytest.raises(ValueError):
        resolve_threads(None)
