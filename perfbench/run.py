"""cliquestats benchmark: times calls into the library's public functions
from outside, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload mc-large-n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # the three workloads in turn

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer call counts and self times.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MAX_SECONDS = 60

# (module, function) pairs timed in a traced run: every function a workload
# calls, and the library functions they call; and the class whose __init__ is
# timed as "graphs.Graph"
TRACE_TARGETS = (
    ("graphs", "gnp_generator"), ("graphs", "clique_count"), ("graphs", "cliques"),
    ("graphs", "link_count"),
    ("morse", "critical_counts_formula"), ("morse", "critical_counts_direct"),
    ("morse", "lex_matching"), ("morse", "verify_acyclic"),
    ("montecarlo", "simulate_raw"), ("montecarlo", "mvn_samples"),
    ("montecarlo", "smooth_discrepancy"), ("montecarlo", "convex_discrepancy"),
    ("montecarlo", "analytic_mean_sd"), ("montecarlo", "empirical_cov"),
    ("moments", "crit_variance"), ("moments", "statistic_cov_matrix"),
    ("bounds", "crit_bound"), ("bounds", "clique_bound"), ("bounds", "link_bound"),
    ("oracle", "exact_moments"), ("verify", "suite_oracle"),
)
TRACE_CLASSES = (("graphs", "Graph"),)
LAYER_NAMES = tuple("%s.%s" % t for t in TRACE_TARGETS + TRACE_CLASSES)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-large-n", "small-graphs", "analysis", "all"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed, 0 <= seed < 2**63 (default: the pinned seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="sizes the fixed work list: about this long at the seed "
                         "commit on 2 cores; at most 60, the longest work list "
                         "pins.json covers")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2**63)")
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error("--seconds must lie in (0, %d]" % MAX_SECONDS)
    return args


def load_library():
    """Import numpy and the checkout's cliquestats; returns the library
    modules by short name and the workloads module."""
    if not os.path.isfile(os.path.join(SRC, "cliquestats", "__init__.py")):
        raise SystemExit("perfbench: no cliquestats sources under %s; run from the "
                         "root of a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import cliquestats
    from cliquestats import bounds, graphs, moments, montecarlo, morse, oracle, verify
    import workloads
    if os.path.dirname(os.path.abspath(cliquestats.__file__)) != os.path.join(SRC, "cliquestats"):
        raise SystemExit("perfbench: imported cliquestats from %s, not from %s"
                         % (cliquestats.__file__, SRC))
    mods = {"bounds": bounds, "graphs": graphs, "moments": moments,
            "montecarlo": montecarlo, "morse": morse, "oracle": oracle, "verify": verify}
    return mods, workloads


IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import numpy
from cliquestats import bounds, graphs, moments, montecarlo, morse, oracle, verify
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Median time to import numpy and the library, each time in a fresh
    interpreter.  Importing is bound by file access and system calls, not by
    the interpreter's speed, so it is not scaled to reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def cache_counts(montecarlo) -> tuple:
    """(hits, misses) of the n <= 6 count cache, while the library has one."""
    cache = getattr(montecarlo, "_small_graph_counts", None)
    if cache is None or not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, mods: dict, workloads) -> dict:
    wl = workloads.WORKLOADS[name]
    rounds = wl.rounds(seconds)
    pins_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
    with open(pins_path) as fh:
        pins = json.load(fh).get(name, {})
    checker = harness.Checker(pins, seed == workloads.DEFAULT_SEED)

    meter = harness.SpeedMeter()
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous set-up's inputs before building anew
        gc.collect()
        meter.measure()
        t0 = perf_counter()
        inputs = wl.setup(seed, rounds)
        t1 = perf_counter()
        meter.measure()
        setups.append((t0, t1))
    gc.collect()

    plain, traced = [], []
    tracer = harness.Tracer() if trace else None
    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("cliquestats")]
    targets = [(mods[m], f) for m, f in TRACE_TARGETS]
    classes = [(mods[m], getattr(mods[m], c)) for m, c in TRACE_CLASSES]
    hits = misses = 0
    for r in range(rounds):
        ops = wl.ops(seed, r, inputs)
        # a traced run times each round both ways, alternating which goes
        # first, so slow drift of the machine cancels out of the overhead
        order = (False, True) if r % 2 == 0 else (True, False)
        for with_trace in (order if trace else (False,)):
            if not with_trace:
                plain.append(harness.run_pass(ops, checker, meter=meter))
                continue
            h0, m0 = cache_counts(mods["montecarlo"])
            tracer.install(modules, targets, classes)
            try:
                traced.append(harness.run_pass(ops, checker, tracer, meter))
            finally:
                tracer.uninstall()
            h1, m1 = cache_counts(mods["montecarlo"])
            hits, misses = hits + h1 - h0, misses + m1 - m0

    results = plain + traced
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    failures = sorted({f for p in results for f in p.failures})
    scaled = [p.scaled(meter) for p in plain]
    lat = [x for s in scaled for x in s]
    p50, p90 = harness.quantiles(lat)
    wall = sum(lat)
    throughput_s = sum(s[i] for p, s in zip(plain, scaled) for i in p.throughput)
    setup_s = import_s + statistics.median((t1 - t0) * meter.factor(t0, t1) for t0, t1 in setups)
    info = {"workload": name, "seed": seed, "rounds": rounds, "operations": len(lat),
            "ops_beyond_p90": sum(x > p90 for x in lat), "attempted": attempted,
            "failed": failed, "error_rate": failed / attempted if attempted else 1.0,
            "failing_ops": failures, "measured_wall_s": sum(p.wall_s for p in plain),
            "speed_factor_median": statistics.median(
                harness.REFERENCE_S / r for r in meter.refs)}
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "replicates_per_s": (sum(p.replicates for p in plain) / throughput_s, "1/s"),
        }
    else:
        # measured seconds, like the self times, so that they add up
        twall = sum(p.wall_s for p in traced)
        metrics = {}
        for layer in LAYER_NAMES:
            metrics[layer + ".calls"] = (tracer.calls.get(layer, 0), "count")
            metrics[layer + ".self_s"] = (tracer.self_s.get(layer, 0.0), "s")
        metrics["montecarlo.small_graph_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        untraced = sum(p.wall_s for p in plain)
        metrics["trace.wall_s"] = (twall, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (twall - untraced, "s")
        info["unattributed_s"] = twall - sum(tracer.self_s.values())
        info["spans"] = sum(tracer.calls.values())
    return {"info": info, "metrics": metrics}


def report(res: dict, prefix: str = "") -> None:
    info = res["info"]
    print("# %s: seed %d, %d rounds, %d operations (%d beyond p90), error_rate %.6g "
          "(%d failed of %d checked)%s"
          % (info["workload"], info["seed"], info["rounds"], info["operations"],
             info["ops_beyond_p90"], info["error_rate"], info["failed"], info["attempted"],
             "; failing: " + ", ".join(info["failing_ops"]) if info["failing_ops"] else ""))
    print("# measured (unscaled) wall %.6f s; machine speed / reference speed: median %.4f"
          % (info["measured_wall_s"], info["speed_factor_median"]))
    if "spans" in info:
        print("# %d spans; traced wall minus the sum of self times: %.6f s"
              % (info["spans"], info["unattributed_s"]))
    for key, (value, unit) in res["metrics"].items():
        print("%s%-48s %16.6f %s" % (prefix, key, value, unit))


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = harness.cap_blas_threads()
    mods, workloads = load_library()
    import_s = import_seconds()
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    print("# environment " + json.dumps(harness.environment(nproc)))
    names = (("mc-large-n", "small-graphs", "analysis") if args.workload == "all"
             else (args.workload,))
    results = [run_workload(n, seed, args.seconds, bool(args.trace), import_s, mods, workloads)
               for n in names]
    metrics = {}
    for name, res in zip(names, results):
        prefix = name + "." if len(names) > 1 else ""
        report(res, prefix)
        for key, (value, unit) in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    if not args.trace:
        # ru_maxrss is the process's peak so far, so it is one figure for the
        # whole run: a workload's own peak when the run has one workload
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("%-48s %16.6f MB" % ("peak_rss_mb", rss))
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    attempted = sum(r["info"]["attempted"] for r in results)
    failed = sum(r["info"]["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
