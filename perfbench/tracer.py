"""Per-layer tracing of modhyp from outside the package.

Every public function (each name in a module's ``__all__`` that is callable
and not a class) of the five layer modules is replaced by a wrapper, in
every ``modhyp`` namespace that imported it, so that ``modhyp.cli.card_S2_pp``
and ``modhyp.cardinality.card_S2_pp`` both go through the same wrapper.  A
wrapper records a span per call: inclusive time per function, call counts,
and self time per layer (a span's duration minus the time its wrapped child
spans cover).  Private helpers (``_legendre_unchecked``, ``_ratio_pp_by_class``,
``_spf_sieve``, ``_unit_tables``, ...) are not wrapped, so their time stays in
the self time of the layer that called them, even across modules.

Times are CPU seconds of the thread doing the work (``time.thread_time``),
so a thread that waits for the interpreter lock or for a pool is not
charged for the wait.  The wrappers' own cost is measured once at install
time, on a no-op function, and taken off every span: the part inside a
span's clock reads from the span, the rest from its parent.

Generator functions (``dominance_scan``, ``enumerate_points``) are timed
across their resumes: each ``next()`` is one span, and the consumer's work
between resumes belongs to the consumer's layer.

Only the main thread records spans.  The ``ThreadPoolExecutor`` that
``analysis`` and ``hyperbola`` use (``--threads 2``) is replaced by one that
measures the CPU time of every task it runs and charges it to the
main-thread span that submitted the task: to that span's layer as self
time, and to every function then active as inclusive time.  Calls made
inside pool tasks are counted but not timed on their own.

Spans recorded inside the program itself (a stats module with stage
timers) are a separate, later change; this module only sees the layer
boundaries that the public functions form.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
from concurrent.futures import ThreadPoolExecutor
from time import thread_time

LAYERS = ("cli", "analysis", "cardinality", "hyperbola", "arith")

# Oracle entry points and how to read (d, n) from their bound arguments, for
# the computed point count phi(n)^(d-1) per call.
_ORACLES = {
    "signed_sumset": lambda b: (b["spec"].d, b["spec"].n),
    "enumerate_points": lambda b: (b["spec"].d, b["spec"].n),
    "sum_diff_sets": lambda b: (2, b["n"]),
    "unreduced_sum_diff": lambda b: (2, b["n"]),
    # every unit row of the two tables enumerates phi(n) points
    "sum_diff_tables": lambda b: (3, b["n"]),
}


def _noop() -> None:
    pass


def _calibrate(rounds: int = 5, spans: int = 2000) -> tuple[float, float]:
    """CPU seconds a wrapped call adds, inside its own span and to its parent's.

    A parent span calls a wrapped no-op ``spans`` times; the same loop over
    the bare no-op is the baseline.  Medians over a few rounds."""
    inside, outside = [], []
    for _ in range(rounds):
        probe_tracer = Tracer()
        probe = probe_tracer.wrap("arith", "probe", _noop)
        outer = probe_tracer.wrap("cli", "outer", lambda: [probe() for _ in range(spans)])
        outer()
        start = thread_time()
        [_noop() for _ in range(spans)]
        baseline = thread_time() - start
        inside.append(probe_tracer.self_s["arith"] / spans)
        outside.append((probe_tracer.self_s["cli"] - baseline) / spans)
    return statistics.median(inside), statistics.median(outside)


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


class Tracer:
    """Span and counter state for one traced process."""

    def __init__(self) -> None:
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        # [layer, key, start, child time, direct child spans, nested spans]
        self._stack: list[list] = []
        self._inside = self._outside = 0.0  # wrapper cost per span, see _calibrate
        self._active: dict[str, int] = {}
        # (layer, active keys, cpu seconds) per pool task; list.append is
        # atomic, and the records are merged once, in summary()
        self._pool_tasks: list[tuple[str, frozenset, float]] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.reports_yielded = 0
        self.points_enumerated = 0
        self.table_bytes_peak = 0
        self._phi_cache: dict[int, int] = {}
        self._caches: dict[str, object] = {}

    # -- spans -----------------------------------------------------------

    def _count(self, key: str) -> None:
        if threading.get_ident() == self._main:
            self.calls[key] = self.calls.get(key, 0) + 1
        else:
            with self._lock:
                self.calls[key] = self.calls.get(key, 0) + 1

    def _enter(self, layer: str, key: str) -> None:
        self._active[key] = self._active.get(key, 0) + 1
        self._stack.append([layer, key, thread_time(), 0.0, 0, 0])

    def _exit(self, key: str) -> None:
        end = thread_time()
        layer, _, start, child, direct, nested = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child - self._inside - direct * self._outside
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent[4] += 1
            parent[5] += nested + 1
        depth = self._active[key] - 1
        self._active[key] = depth
        if depth == 0:  # outermost activation only, so recursion is not double counted
            own = dur - self._inside - nested * (self._inside + self._outside)
            self.incl_s[key] = self.incl_s.get(key, 0.0) + own

    # -- computed oracle sizes --------------------------------------------

    def _record_oracle(self, name: str, sig: inspect.Signature, args, kwargs) -> None:
        d, n = _ORACLES[name](sig.bind(*args, **kwargs).arguments)
        phi = self._phi_cache.get(n)
        if phi is None:
            phi = self._phi_cache[n] = _phi(n)
        self.points_enumerated += phi ** (d - 1)
        if name == "sum_diff_tables":
            # two n x 2n bool tables
            self.table_bytes_peak = max(self.table_bytes_peak, 4 * n * n)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        main = self._main
        oracle_sig = inspect.signature(fn) if name in _ORACLES else None
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, key, fn, oracle_sig)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            self._enter(layer, key)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(key)
            if oracle_sig is not None:
                self._record_oracle(name, oracle_sig, args, kwargs)
            return out

        return wrapper

    def _wrap_generator(self, layer, name, key, fn, oracle_sig):
        counts_reports = name == "dominance_scan"

        def resumes(gen, args, kwargs):
            while True:
                self._enter(layer, key)
                try:
                    item = next(gen)
                except StopIteration:
                    if oracle_sig is not None:
                        self._record_oracle(name, oracle_sig, args, kwargs)
                    return
                finally:
                    self._exit(key)
                if counts_reports:
                    self.reports_yielded += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return resumes(fn(*args, **kwargs), args, kwargs)

        return wrapper

    def _pool_class(self) -> type:
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack
                layer = stack[-1][0] if stack else "cli"  # cli.run is every root span
                keys = frozenset(frame[1] for frame in stack)

                def task(*a, **kw):
                    start = thread_time()
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._pool_tasks.append((layer, keys, thread_time() - start))

                return super().submit(task, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        import modhyp
        import modhyp.analysis
        import modhyp.arith
        import modhyp.cardinality
        import modhyp.cli
        import modhyp.hyperbola

        self._inside, self._outside = _calibrate()
        layer_modules = {layer: getattr(modhyp, layer) for layer in LAYERS}
        namespaces = [modhyp, *layer_modules.values()]
        for layer, mod in layer_modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if hasattr(fn, "cache_info"):
                    self._caches[f"{layer}.{name}"] = fn
                wrapped = self.wrap(layer, name, fn)
                for ns in namespaces:
                    if ns.__dict__.get(name) is fn:
                        setattr(ns, name, wrapped)
        self._caches["hyperbola._unit_tables"] = modhyp.hyperbola._unit_tables
        pool = self._pool_class()
        for mod in layer_modules.values():
            if mod.__dict__.get("ThreadPoolExecutor") is ThreadPoolExecutor:
                mod.ThreadPoolExecutor = pool

    def hit_ratio(self, key: str) -> float:
        info = self._caches[key].cache_info()
        looked_up = info.hits + info.misses
        return info.hits / looked_up if looked_up else 0.0

    def summary(self) -> dict:
        for layer, keys, cpu in self._pool_tasks:
            self.self_s[layer] += cpu
            for key in keys:
                self.incl_s[key] = self.incl_s.get(key, 0.0) + cpu
        self._pool_tasks.clear()
        return {
            # the overhead correction can take a near-empty total a hair below 0
            "self_s": {k: max(0.0, v) for k, v in self.self_s.items()},
            "incl_s": {k: max(0.0, v) for k, v in self.incl_s.items()},
            "calls": self.calls,
            "hit_ratio": {key: self.hit_ratio(key) for key in self._caches},
            "reports_yielded": self.reports_yielded,
            "points_enumerated": self.points_enumerated,
            "table_bytes_peak": self.table_bytes_peak,
        }
