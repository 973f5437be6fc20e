"""The modhyp benchmark: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree (``src/modhyp`` next to ``perfbench``).
Every measured process is a fresh ``python3 perfbench/child.py`` with
``src`` on ``PYTHONPATH`` and ``--threads 2`` in every command.  A run first
times a few bare imports of ``modhyp.cli`` (set-up), then starts measured
processes until ``--seconds`` have passed (at least ``MIN_PROCESSES``), checks
every output after its process has exited, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Each of
their timings is a reference-box time: a measured process is followed by
one run of ``reference.py``, a fixed program that does not import modhyp,
and the process's times are scaled by ``REFERENCE_S`` over that program's
wall time.  A shared host that runs everything 20% slower for a few
minutes then moves the figures far less than it moves raw wall time; a
slower modhyp moves them in full.  The raw medians and the host speed are
printed on the line before the result.  ``--trace 1``
alternates untraced and traced processes on the same inputs and reports the
per-layer metrics (medians over the traced processes), with
``trace.overhead_s`` the traced minus the untraced wall time.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
fails unless every metric of BENCHMARK.json is printed with its unit and
every check passes.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 10  # bare imports timed per run, after one warm-up import
MIN_PROCESSES = 3  # measured processes per run, however long they take
PROCESS_TIMEOUT_S = 150
# Process wall time of reference.py on the reference box (2 vCPUs of a
# 2.1 GHz Xeon, Python 3.11.7, numpy 2.4.6) at its usual speed.  It only
# sets the scale: reported timings read as seconds on that box.
REFERENCE_S = 0.30


@dataclass
class Process:
    """One finished child: timings from the benchmark, results from the child."""

    wall_s: float
    setup_s: float | None
    maxrss_kb: int | None
    trace: dict | None
    results: list[tuple[int, float, str, str]]  # (exit code, ms, stdout, stderr)
    stdout_bytes: int


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MODHYP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # one less thing that differs between processes
    return env


def spawn(mode: str, requests: list[workloads.Request], trace: bool) -> Process:
    """Start one measured process, wait for it and collect what it reports."""
    argv = requests[0].argv if mode == "cli" else []
    stdin = json.dumps([r.argv for r in requests]).encode() if mode == "queries" else None
    report_r, report_w = os.pipe()
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(report_w), mode, str(int(trace)), *argv],
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        pass_fds=(report_w,),
        env=_env(),
        cwd=ROOT,
    )
    os.close(report_w)
    with os.fdopen(report_r) as pipe:
        try:
            out, err = proc.communicate(stdin, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        # the report is a few kilobytes at most, far below the pipe buffer,
        # so the child never blocks on it before exiting
        raw = pipe.read()
    report = json.loads(raw) if raw else None
    text, errtext = out.decode(), err.decode()
    results, stdout_bytes = [], len(out)
    if mode == "cli":
        results = [(proc.returncode, wall * 1000.0, text, errtext)]
    elif mode == "queries" and report is not None and proc.returncode == 0:
        results = [(code, ms, rout, "") for code, ms, rout in json.loads(text)]
        stdout_bytes = sum(len(r[2].encode()) for r in results)
    elif mode == "queries":  # the batch process itself died: every request failed
        results = [(proc.returncode or 1, wall * 1000.0, "", errtext)] * len(requests)
    return Process(
        wall_s=wall,
        setup_s=report["imported"] - start if report else None,
        maxrss_kb=report["maxrss_kb"] if report else None,
        trace=report["trace"] if report else None,
        results=results,
        stdout_bytes=stdout_bytes,
    )


@dataclass
class Tally:
    """Operations attempted and failed.  A failure is wrong (the run is not
    correct) unless it is a refusal, with a nonzero exit, of a request kind
    the mix holds to show a known defect."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    # verdicts by (argv, stdout, stderr): repeated processes of a run print
    # the same bytes, and those are checked once
    verdicts: dict = field(default_factory=dict)

    def add(self, requests: list[workloads.Request], proc: Process) -> list[float | None]:
        """Check one process's outputs; returns its request latencies in ms,
        with None for each failed request."""
        latencies: list[float | None] = []
        for req, (code, ms, out, err) in zip(requests, proc.results):
            self.attempted += 1
            key = (tuple(req.argv), out, err)
            if key not in self.verdicts:
                self.verdicts[key] = _check(req, out, err)
            ok = code == 0 and self.verdicts[key]
            if not ok:
                self.failed += 1
                if code == 0 or req.kind not in workloads.EXPECTED_REFUSALS:
                    self.wrong += 1
            latencies.append(ms if ok else None)
        return latencies


def _check(req: workloads.Request, out: str, err: str) -> bool:
    # malformed output (bad header, unparsable field) is a wrong answer
    try:
        return req.check(out, err)
    except (ValueError, KeyError, ZeroDivisionError):
        return False


def request_percentile(per_process: list[list[float | None]], q: float, failed_ms: float) -> float:
    """Nearest-rank q-th percentile of the run's request latencies, pooled
    over its processes; a failed request counts as ``failed_ms``, longer than
    any request that succeeded.

    A percentile with fewer than ten requests beyond it says little, so
    then the median is given instead.  That is the case on the
    single-command workloads, where a process serves one request and the
    median is the median process wall time."""
    ranked = sorted(failed_ms if v is None else v for lats in per_process for v in lats)
    if (1.0 - q) * len(ranked) < 10:
        q = 0.5
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def host_speed() -> float:
    """REFERENCE_S over the wall time of one fresh reference.py process:
    above 1 when the host runs fast, below 1 when it runs slow."""
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(REFERENCE)],
        stdin=subprocess.DEVNULL,
        env=_env(),
        cwd=ROOT,
        check=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return REFERENCE_S / (time.monotonic() - start)


def _setup_samples() -> list[float]:
    spawn("import", [], False)  # compiles bytecode and warms the file cache
    return [spawn("import", [], False).setup_s for _ in range(SETUP_SAMPLES)]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    plan = workloads.PLANS[name](seed, smoke)
    tally = Tally()
    setups = [] if trace else _setup_samples()
    min_processes = 1 if smoke or trace else MIN_PROCESSES
    untraced: list[Process] = []
    speeds: list[float] = []  # host speed measured right after each untraced process
    traced: list[Process] = []
    latencies: list[list[float | None]] = []
    start = time.monotonic()
    while len(untraced) < min_processes or time.monotonic() - start < seconds:
        requests = plan.next_batch()
        proc = spawn(plan.mode, requests, False)
        latencies.append(tally.add(requests, proc))
        untraced.append(proc)
        if trace:
            proc = spawn(plan.mode, requests, True)
            tally.add(requests, proc)
            traced.append(proc)
        else:
            speeds.append(host_speed())
    elapsed_ms = (time.monotonic() - start) * 1000.0
    if not any(p.setup_s is not None for p in untraced):
        raise RuntimeError(f"no measured process of {name} reported back")
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, speeds, setups, latencies, tally, elapsed_ms)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end_metrics(untraced, speeds, setups, latencies, tally, elapsed_ms) -> dict:
    """Every timing of a process is multiplied by the host speed measured
    right after it; the bare set-up imports, timed before the loop, by the
    run's median host speed."""
    run_speed = statistics.median(speeds)
    imports = [(p.setup_s, v) for p, v in zip(untraced, speeds) if p.setup_s is not None]
    setup = [s * run_speed for s in setups] + [s * v for s, v in imports]
    scaled = [[None if ms is None else ms * v for ms in lats] for lats, v in zip(latencies, speeds)]
    print(
        f"raw wall_s {statistics.median(p.wall_s for p in untraced):.4f},"
        f" raw setup_s {statistics.median(setups + [s for s, _ in imports]):.4f},"
        f" host speed {run_speed:.4f} (median of {len(speeds)})"
    )
    return {
        "wall_s": (statistics.median(p.wall_s * v for p, v in zip(untraced, speeds)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            statistics.median(p.maxrss_kb for p in untraced if p.maxrss_kb is not None) / 1024.0,
            "MB",
        ),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
        "query_p50_ms": (request_percentile(scaled, 0.50, elapsed_ms * run_speed), "ms"),
        "query_p95_ms": (request_percentile(scaled, 0.95, elapsed_ms * run_speed), "ms"),
    }


# Per-layer metric -> (how to read it from one traced process, unit).  Span
# times are thread CPU seconds (cpu_s), not wall time; they read exactly 0
# where a workload never enters the layer or function.
def _self(layer):
    return lambda p: p.trace["self_s"][layer]


def _incl(key):
    return lambda p: p.trace["incl_s"].get(key, 0.0)


def _calls(key):
    return lambda p: p.trace["calls"].get(key, 0)


def _hits(key):
    return lambda p: p.trace["hit_ratio"].get(key, 0.0)


LAYER_METRICS = {
    **{f"{layer}.self_s": (_self(layer), "cpu_s") for layer in tracer.LAYERS},
    "analysis.dominance_scan_s": (_incl("analysis.dominance_scan"), "cpu_s"),
    "analysis.density_report_s": (_incl("analysis.density_report"), "cpu_s"),
    "analysis.reports_yielded": (lambda p: p.trace["reports_yielded"], "count"),
    "cli.write_reports_s": (_incl("cli.write_reports"), "cpu_s"),
    "cli.stdout_bytes": (lambda p: p.stdout_bytes, "bytes"),
    "cli.build_parser_s": (_incl("cli.build_parser"), "cpu_s"),
    "cli.build_parser_calls": (_calls("cli.build_parser"), "count"),
    "arith.factorize_s": (_incl("arith.factorize"), "cpu_s"),
    "arith.factorize_calls": (_calls("arith.factorize"), "count"),
    "arith.factorize_hit_ratio": (_hits("arith.factorize"), "ratio"),
    "arith.is_prime_calls": (_calls("arith.is_prime"), "count"),
    "arith.is_prime_hit_ratio": (_hits("arith.is_prime"), "ratio"),
    "arith.primes_up_to_s": (_incl("arith.primes_up_to"), "cpu_s"),
    "hyperbola.sum_diff_tables_s": (_incl("hyperbola.sum_diff_tables"), "cpu_s"),
    "hyperbola.sum_diff_tables_calls": (_calls("hyperbola.sum_diff_tables"), "count"),
    "hyperbola.signed_sumset_calls": (_calls("hyperbola.signed_sumset"), "count"),
    "hyperbola.unit_tables_hit_ratio": (_hits("hyperbola._unit_tables"), "ratio"),
    # computed from the oracle calls' inputs, not counted in the loops:
    # phi(n)^(d-1) points per oracle call, 4 n^2 bytes per sum_diff_tables(n)
    "hyperbola.points_enumerated": (lambda p: p.trace["points_enumerated"], "count"),
    "hyperbola.table_bytes_peak": (lambda p: p.trace["table_bytes_peak"], "bytes"),
    "cardinality.card_S2_pp_calls": (_calls("cardinality.card_S2_pp"), "count"),
    "cardinality.ratio_c2_calls": (_calls("cardinality.ratio_c2"), "count"),
}


def src_lines() -> int:
    """Lines of Python under src/modhyp, tracked next to the timings."""
    return sum(len(f.read_text().splitlines()) for f in sorted((SRC / "modhyp").rglob("*.py")))


def layer_metrics(untraced: list[Process], traced: list[Process]) -> dict:
    done = [p for p in traced if p.trace is not None]
    if not done:
        raise RuntimeError("no traced process reported back")
    metrics = {
        name: (statistics.median(read(p) for p in done), unit)
        for name, (read, unit) in LAYER_METRICS.items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(t.wall_s - u.wall_s for u, t in zip(untraced, traced)),
        "s",
    )
    metrics["src_lines"] = (src_lines(), "count")
    return metrics


def smoke() -> int:
    spec = json.loads(SPEC.read_text())
    ok = True
    for name in workloads.PLANS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            started = time.monotonic()
            result = measure(name, seed=1, seconds=0, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not result["correct"]:
                problems.append("an output check failed, or a request failed unexpectedly")
            ok = ok and not problems
            print(f"{name} trace={int(trace)}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}"
                  f" ({result['attempted']} attempted, {result['failed']} failed,"
                  f" {time.monotonic() - started:.1f} s)")
            for metric, v in result["metrics"].items():
                print(f"    {metric:34s} {v['value']:>16.6g} {v['unit']}")
    print("smoke: " + ("all workloads ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "modhyp" / "cli.py").is_file():
        print(f"error: no modhyp source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the scan check uses the tree's own oracle
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
