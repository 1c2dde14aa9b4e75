"""Regenerate perfbench/pins.json: the expected outputs the benchmark checks.

    python3 perfbench/make_pins.py [WORKLOAD ...]    # default: all workloads

Runs every workload at the default seed with the work list of the longest
allowed run (``--seconds 60``) and records digests of the raw count rows and
matched normal samples, the exact convex discrepancy estimates, and the closed-form
values.  Regenerate only when an output is meant to change, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

import harness
import run


def main() -> int:
    harness.cap_blas_threads()
    _, workloads = run.load_library()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
    with open(path) as fh:
        table = json.load(fh)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        rec = harness.Recorder()
        failed = 0
        seed, rounds = workloads.DEFAULT_SEED, wl.rounds(run.MAX_SECONDS)
        inputs = wl.setup(seed, rounds)
        for r in range(rounds):
            failed += harness.run_pass(wl.ops(seed, r, inputs), rec).failed
        if failed:
            print("%s: %d checks failed; pins not written" % (name, failed), file=sys.stderr)
            return 1
        table[name] = {k: dict(sorted(v.items())) for k, v in sorted(rec.table.items())}
        print("%s: %d pins" % (name, sum(len(v) for v in rec.table.values())))
    with open(path + ".tmp", "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    os.replace(path + ".tmp", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
