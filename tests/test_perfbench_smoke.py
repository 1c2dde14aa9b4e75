"""The benchmark still runs on this tree.  perfbench calls and traces library
names (graphs.clique_count, graphs.cliques, the positional oracle_offdiag of
moments.statistic_cov_matrix, ...), so renaming or re-signing one breaks it; a
broken call is counted as a failed operation, and the run still exits 0, so
the result line is read as well as the exit code."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_workloads_run_correct_and_its_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # write nothing under perfbench/
    for args in (["perfbench/run.py", "--workload", "all", "--seconds", "1", "--trace", "0"],
                 ["perfbench/run.py", "--workload", "mc-large-n", "--seconds", "1", "--trace", "1"],
                 ["perfbench/selftest.py"]):
        out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=600)
        assert out.returncode == 0, (args, out.stderr[-2000:])
        if args[0] == "perfbench/run.py":
            result = json.loads(out.stdout.splitlines()[-1])
            assert (result["correct"], result["failed"]) == (True, 0), args
