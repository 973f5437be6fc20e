"""One measured modhyp process, started fresh by run.py.

    python3 child.py FD MODE TRACE [ARGS...]

MODE is ``import`` (import the CLI and exit), ``cli`` (run one command, as
the ``modhyp`` console script does) or ``queries`` (read a JSON list of
argv lists from stdin, send each through ``modhyp.cli.run`` in this one
process, one request outstanding at a time, and write a JSON list of
``[exit_code, latency_ms, stdout]`` to stdout).  TRACE is 1 to install the
per-layer tracer before the first command.

When it is done the process writes one JSON object to the pipe FD: the
monotonic time at which ``import modhyp.cli`` returned, its own peak RSS
and, when traced, the tracer summary.  run.py compares the import time
with the monotonic time at which it started the process.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _queries(run) -> list:
    requests = json.load(sys.stdin)
    results = []
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        results.append([code, (time.perf_counter() - start) * 1000.0, out.getvalue()])
    return results


def main() -> int:
    fd, mode, trace, args = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    import modhyp.cli

    imported = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    if mode == "cli":
        code = modhyp.cli.run(args)
    elif mode == "queries":
        json.dump(_queries(modhyp.cli.run), sys.stdout)
    sys.stdout.flush()
    report = {
        "imported": imported,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    with os.fdopen(fd, "w") as pipe:
        json.dump(report, pipe)
    return code


if __name__ == "__main__":
    sys.exit(main())
