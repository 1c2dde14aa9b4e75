"""Self-test of the benchmark's output checks: a wrong expected value, or a
call that raises, must be counted as a failed operation, and the true
expected values must pass.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import harness
import run


def main() -> int:
    harness.cap_blas_threads()
    mods, workloads = run.load_library()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as fh:
        pins = json.load(fh)
    seed = workloads.DEFAULT_SEED
    results = []

    def expect(label, ops, table, failed):
        got = harness.run_pass(ops, harness.Checker(table, True)).failed
        results.append(got == failed)
        print("%-4s %s: %d of %d failed, expected %d"
              % ("ok" if got == failed else "FAIL", label, got, len(ops), failed))

    def round_ops(name, r):
        wl = workloads.WORKLOADS[name]
        return wl.ops(seed, r, wl.setup(seed, r + 1))

    mc_ops = round_ops("mc-large-n", 0)
    table = pins["mc-large-n"]
    expect("mc-large-n round 0 against its pins", mc_ops, table, 0)
    bad = copy.deepcopy(table)
    bad["default_seed"][mc_ops[0].pin.key] = "0" * 32
    expect("mc-large-n with one wrong row digest", mc_ops, bad, 1)
    missing = copy.deepcopy(table)
    del missing["default_seed"][mc_ops[1].pin.key]
    expect("mc-large-n with one pin missing", mc_ops, missing, 1)

    # the closed-form calls of analysis round 0: those whose inputs are fixed
    closed = [op for op in round_ops("analysis", 0)
              if op.pin is not None and op.pin.section == "any_seed"
              and not callable(op.args)]
    table = pins["analysis"]
    expect("analysis closed forms against their pins", closed, table, 0)
    bad = copy.deepcopy(table)
    key = next(op.pin.key for op in closed if op.func == "crit_bound")
    bad["any_seed"][key] = [v * (1 + 1e-9) for v in bad["any_seed"][key]]
    expect("analysis with crit_bound off by 1e-9 relative", closed, bad, 1)

    oracle = mods["oracle"]
    wrong_p = harness.Op(oracle, "exact_moments", ("clique", 4, 0.5, 2, None),
                         check=lambda rep: workloads.oracle_matches_closed_form(
                             rep, "clique", 4, 0.51, 2, None))
    expect("oracle moments against closed forms at the wrong p", [wrong_p], {}, 1)

    raising = harness.Op(mods["moments"], "crit_variance", (1, 5, 0.5))
    expect("a call that raises", [raising], {}, 1)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
