"""Run the benchmark on several seeds and report, for every metric, the
median, the quartiles and the interquartile range as a share of the median.

    python3 perfbench/steadiness.py --workload mc-large-n --runs 10 [--first-seed 1]

Runs are made one after another, each in its own process, from the root of
the checkout.  Quartiles are those of statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                          text=True, timeout=900)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    note = " ".join(ln[2:] for ln in lines if ln.startswith("# measured"))
    return json.loads(lines[-1]), elapsed, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    values: dict = {}
    units: dict = {}
    elapsed = []
    correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res, secs, note = one_run(args.workload, seed, args.seconds, args.trace)
        elapsed.append(secs)
        correct = correct and res["correct"] and res["failed"] == 0
        for key, m in res["metrics"].items():
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
        print("seed %d: %.1f s, correct=%s, failed=%d/%d; %s" % (
            seed, secs, res["correct"], res["failed"], res["attempted"], note), flush=True)
    print("%-40s %12s %12s %12s %8s %s" % ("metric", "q1", "median", "q3", "iqr/med", "unit"))
    summary = {}
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        summary[key] = {"q1": q1, "median": med, "q3": q3, "iqr_over_median": spread,
                        "unit": units[key], "values": vals}
        print("%-40s %12.6g %12.6g %12.6g %8.4f %s" % (key, q1, med, q3, spread, units[key]))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "first_seed": args.first_seed, "seconds": args.seconds,
                      "trace": args.trace, "all_correct": correct,
                      "run_elapsed_s": elapsed, "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
