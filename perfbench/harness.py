"""Timing loop, span tracer, statistics and environment record for the
cliquestats benchmark.

Every operation is one call to a public cliquestats function, looked up by
name on its module at call time, so a traced pass goes through the same names
the library's own callers use.  Output checks run right after each call,
outside the timed region and with tracing paused.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import os
import platform
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Op:
    """One public call of a workload's work list.

    ``args`` is a tuple and ``kwargs`` a dict, or either is a callable
    returning one when an argument is the output (``out``) of an earlier
    operation of the same round; they are evaluated before the timer starts.
    ``check`` receives the output and returns True when it is correct;
    ``pin`` names a pinned expected value.
    ``replicates`` counts Monte Carlo (or matched-normal) replicates the call
    produces; ``throughput`` marks the calls whose time enters
    ``replicates_per_s``.
    """

    module: Any
    func: str
    args: Any = ()
    check: Callable[[Any], bool] = lambda out: True
    kwargs: Any = field(default_factory=dict)
    pin: "Pin | None" = None
    replicates: int = 0
    throughput: bool = False
    out: Any = None

    @property
    def name(self) -> str:
        return "%s.%s" % (self.module.__name__.rsplit(".", 1)[-1], self.func)


@dataclass
class Pin:
    """A pinned expected value: ``value(out)`` is a digest string compared
    exactly, or a list of numbers compared to relative ``tol``.  ``section``
    is ``default_seed`` when the value holds only at the default seed and
    ``any_seed`` when the input does not depend on the seed."""

    section: str
    key: str
    value: Callable[[Any], Any]
    tol: float = 0.0


def rel_close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


class Checker:
    """Compares outputs with the pins that apply at this run's seed.  A pin
    of the ``default_seed`` section cannot be repeated at another seed, so it
    passes there; a pin of a section that applies but is absent from the
    table is a failed check."""

    def __init__(self, table: dict, at_default_seed: bool):
        self.sections = ("any_seed", "default_seed") if at_default_seed else ("any_seed",)
        self.pinned = {}
        for section in self.sections:
            self.pinned.update(table.get(section, {}))

    def pin_ok(self, pin: "Pin | None", out) -> bool:
        if pin is None or pin.section not in self.sections:
            return True
        if pin.key not in self.pinned:
            return False
        want, got = self.pinned[pin.key], pin.value(out)
        if isinstance(want, str):
            return want == got
        return len(want) == len(got) and all(
            rel_close(float(g), float(w), pin.tol) for g, w in zip(got, want))


class Recorder:
    """Stands in for a Checker to collect the pins of a run."""

    def __init__(self):
        self.table: dict = {}

    def pin_ok(self, pin: "Pin | None", out) -> bool:
        if pin is not None:
            self.table.setdefault(pin.section, {})[pin.key] = pin.value(out)
        return True


REFERENCE_LOOPS = 12000
# Reference speed: the speed at which reference_work() takes this long.
# Times reported at reference speed are measured times scaled by
# REFERENCE_S / (the reference time measured around them).
REFERENCE_S = 0.003


def reference_work() -> int:
    """Fixed pure-Python work (integer bit operations in a loop, the kind of
    work the library's kernels do), timed to gauge the machine's speed."""
    acc = 0
    for i in range(REFERENCE_LOOPS):
        m = (i * 2654435761) & 0xFFFFF
        acc += (m & -m).bit_length() + (m >> 3).bit_count()
    return acc


MAX_BURST = 10


class SpeedMeter:
    """Times reference_work() between operations, at least every
    ``interval`` seconds.  An interval of time is scaled by the median
    reference time measured within ``window`` seconds of it, or within its
    own length for a longer interval.  The median smooths the millisecond
    jitter of single reference timings while following the machine's drift
    over seconds."""

    def __init__(self, interval: float = 0.1, window: float = 0.5):
        self.interval = interval
        self.window = window
        self.times: list = []  # end of each reference timing, ascending
        self.refs: list = []  # its duration

    def measure(self) -> None:
        """Time reference_work() once per interval elapsed since the last
        timing, at least once and at most MAX_BURST times, so that a long
        operation is scaled by about as many timings as a run of short
        ones."""
        gap = perf_counter() - self.times[-1] if self.times else self.interval
        for _ in range(max(1, min(MAX_BURST, int(gap / self.interval)))):
            t0 = perf_counter()
            reference_work()
            t1 = perf_counter()
            self.times.append(t1)
            self.refs.append(t1 - t0)

    def due(self) -> bool:
        return not self.times or perf_counter() - self.times[-1] >= self.interval

    def factor(self, t0: float, t1: float) -> float:
        """Reference speed over machine speed for the interval [t0, t1]; the
        nearest timing on each side always counts."""
        margin = max(self.window, t1 - t0)
        lo = bisect.bisect_left(self.times, t0 - margin)
        hi = bisect.bisect_right(self.times, t1 + margin)
        before = bisect.bisect_right(self.times, t0) - 1
        after = bisect.bisect_left(self.times, t1)
        lo = max(0, min(lo, before))
        hi = min(len(self.times), max(hi, after + 1))
        return REFERENCE_S / statistics.median(self.refs[lo:hi])


@dataclass
class PassResult:
    latencies: list  # measured seconds, one per op, in work-list order
    starts: list  # perf_counter() at the start of each op
    attempted: int
    failed: int
    failures: list  # names of the first failing ops, for the log
    replicates: int
    throughput: list  # indices of the ops whose time enters replicates_per_s

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def scaled(self, meter: SpeedMeter) -> list:
        """Op times at reference speed."""
        return [dt * meter.factor(t0, t0 + dt) for t0, dt in zip(self.starts, self.latencies)]


def run_pass(ops: list, checker, tracer: "Tracer | None" = None,
             meter: "SpeedMeter | None" = None) -> PassResult:
    """Run one round of the work list.  An op that raises, or whose check
    fails or raises, counts as failed.  Outputs are dropped at the end.
    With a meter, reference timings are taken at the start, at the end, and
    between operations whenever one is due."""
    latencies = []
    starts = []
    failed = 0
    failures = []
    replicates = 0
    throughput = []
    if meter is not None:
        meter.measure()
    for op in ops:
        fn = getattr(op.module, op.func)
        try:
            args = op.args() if callable(op.args) else op.args
            kwargs = op.kwargs() if callable(op.kwargs) else op.kwargs
        except Exception:  # an earlier op that failed left no input
            args = None
        ok = args is not None
        t0 = perf_counter()
        if ok:
            try:
                out = fn(*args, **kwargs)
            except Exception:  # a failing call is a failed operation
                ok = False
        dt = perf_counter() - t0
        if op.throughput:
            throughput.append(len(latencies))
            replicates += op.replicates
        latencies.append(dt)
        starts.append(t0)
        if ok:
            if tracer is not None:
                tracer.active = False
            op.out = out
            try:
                ok = bool(op.check(out)) and checker.pin_ok(op.pin, out)
            except Exception:  # a check that cannot run is a failed check
                ok = False
            if tracer is not None:
                tracer.active = True
        if not ok:
            failed += 1
            if len(failures) < 5:
                failures.append(op.name)
        if meter is not None and meter.due():
            meter.measure()
    for op in ops:
        op.out = None
    if meter is not None:
        meter.measure()
    return PassResult(latencies, starts, len(ops), failed, failures, replicates, throughput)


class Tracer:
    """Aggregated spans around the public functions of the library.

    Each wrapped call is a span; its self time is its duration minus the
    durations of the wrapped calls it made.  Spans are folded into per-name
    call counts and self-time sums as they close, because the small-graph
    workload makes millions of them.
    """

    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.active = True
        self._child = []  # child time accumulated by each open span
        self._undo = []

    def _wrap(self, name: str, fn):
        calls, self_s, child = self.calls, self.self_s, self._child
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if child:
                    child[-1] += dt

        return traced

    def install(self, modules: list, targets: list, init_classes: list):
        """Wrap each ``(module, name)`` target under every module attribute
        that is bound to the same function object, so callers that imported
        the name directly see the wrapper too.  For each ``(module, cls)`` in
        ``init_classes``, wrap ``cls.__init__`` and leave the class name
        bound to the class, which ``isinstance`` checks rely on."""
        for home, attr in targets:
            orig = getattr(home, attr)
            wrapped = self._wrap("%s.%s" % (_short(home), attr), orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for home, cls in init_classes:
            orig = cls.__init__
            cls.__init__ = self._wrap("%s.%s" % (_short(home), cls.__name__), orig)
            self._undo.append((cls, "__init__", orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def quantiles(values: list) -> tuple:
    """(p50, p90) as interpolated order statistics (statistics.quantiles,
    exclusive method)."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def cap_blas_threads() -> int:
    """Run BLAS/OpenMP pools with one thread, well within the CPUs this
    process may use; returns that CPU count.  The workloads' matrices are
    small, and a second BLAS thread mostly spin-waits: ``empirical_cov`` of
    20000 x 1 samples took 8 ms with 2 threads against 0.06 ms with 1, and
    its time swung with the load of the shared cores.  Must run before numpy
    is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    cpu = ln.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:  # show_config layout differs across numpy versions
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": "one benchmark process; simulate_raw threads=1; process "
                     "fan-out is not measured (wall-clock scaling on a few "
                     "shared cores cannot be trusted)",
    }
