"""Golden outputs: raw Monte Carlo rows and CLI reports pinned to recorded
values, so that a refactor or a kernel swap that changes any printed number
fails here.

* ``raw``: sha256 of the float64 bytes of ``simulate_raw`` rows, per kind, at
  n = 5 (through the small-graph count cache), 12 and 40, and at n = 100 for
  critical d = 1, clique d = 1 and link d = 3; at n = 6 for critical d = 3
  and clique d = 1 and 2, and for link wherever n - |t| <= 6; a run of 2500
  replicates; and a run whose last stream is 2^64 - 1.
* ``exact``: the exact output bytes of ``moments``, ``bounds`` and
  ``verify`` reports whose numbers come from closed forms alone.
* ``close``: ``simulate --check`` per kind and the ``simulate`` JSON dump.
  Their numbers pass through BLAS (matched-normal samples, covariances),
  whose last bits depend on the BLAS thread count, so floats compare at
  relative 1e-12 and strings, ints and verdicts compare exactly.
* ``rates``: the ``verify --suite rates`` report at 500 replicates, compared
  as ``close``.  Its gate details print BLAS-touched estimates at 3
  significant digits, so they are strings and compare exactly; the suite
  exits 1 from the critical grouped-bound gate, which fails by construction.

An intended output change regenerates the data file with
``PYTHONPATH=src python tests/test_golden.py --write`` and says why in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

from cliquestats import cli
from cliquestats import montecarlo as mc

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REL_TOL = 1e-12

# (kind, n, d, t, replicates, master_seed, replicate_offset)
RAW_SPECS = [
    ("critical", 5, 2, (), 400, 11, 0),
    ("critical", 12, 3, (), 300, 12, 7),
    ("critical", 40, 2, (), 200, 13, 0),
    ("critical", 40, 1, (), 200, 14, 0),
    ("critical", 100, 1, (), 100, 15, 3),
    ("critical", 40, 3, (), 100, 16, 0),
    ("clique", 5, 3, (), 400, 21, 0),
    ("clique", 12, 3, (), 300, 22, 0),
    ("clique", 40, 2, (), 300, 23, 1000),
    ("clique", 40, 3, (), 200, 24, 0),
    ("clique", 100, 1, (), 200, 25, 0),
    ("link", 5, 2, (2,), 400, 31, 0),
    ("link", 12, 3, (1, 3), 300, 32, 0),
    ("link", 40, 2, (1,), 300, 33, 0),
    ("link", 100, 3, (1,), 200, 34, 0),
    ("critical", 6, 3, (), 300, 17, 0),
    ("clique", 6, 1, (), 300, 27, 0),
    ("link", 8, 3, (1, 2), 300, 35, 0),
    ("link", 6, 3, (4,), 2500, 36, 9),
    ("clique", 6, 2, (), 500, 2 ** 64 - 1, 2 ** 64 - 500),
]

EXACT_ARGS = {
    "moments-critical-oracle": "moments --kind critical --n 5 --d 2 --p 0.5",
    "moments-critical-d1": "moments --kind critical --n 30 --d 1 --p 0.3",
    "moments-clique": "moments --kind clique --n 8 --d 3 --p 0.4",
    "moments-link": "moments --kind link --n 10 --d 2 --t-size 2 --p 0.6",
    "bounds-clique": "bounds --theorem clique --n 100 --d 2 --p 0.5",
    "bounds-link": "bounds --theorem link --n 50 --d 2 --t-size 1 --p 0.5",
    "bounds-critical": "bounds --theorem critical --n 30 --d 2 --p 0.5",
    "bounds-convex": "bounds --theorem convex --d 2 --smooth-b 0.5",
    "bounds-ustat": "bounds --theorem ustat --k-vec 2,3 --alpha-vec 0.2,0.1 --beta 0.5",
    "bounds-ustat-no-x": "bounds --theorem ustat-no-x --k-vec 2,3 --alpha-vec 0.2,0.1 --beta 0.5",
    "verify-figure2": "verify --suite figure2",
    "verify-bound-spots": "verify --suite bound-spots",
    "verify-truncation": "verify --suite truncation",
}

CLOSE_ARGS = {
    "check-critical": "simulate --kind critical --n 12 --d 2 --p 0.5 "
                      "--replicates 2000 --master-seed 5 --check",
    "check-clique": "simulate --kind clique --n 8 --d 2 --p 0.5 "
                    "--replicates 2000 --master-seed 3 --check",
    "check-link": "simulate --kind link --n 40 --d 1 --t-size 1 --p 0.5 "
                  "--replicates 2000 --master-seed 21 --check",
    "simulate-critical": "simulate --kind critical --n 10 --d 2 --p 0.5 "
                         "--replicates 300 --master-seed 4",
    "simulate-clique-empirical": "simulate --kind clique --n 10 --d 2 --p 0.5 "
                                 "--replicates 300 --master-seed 4 "
                                 "--standardization empirical",
    "simulate-link": "simulate --kind link --n 20 --d 2 --t-size 2 --p 0.5 "
                     "--replicates 300 --master-seed 4",
    "moments-critical-empirical": "moments --kind critical --n 8 --d 2 --p 0.5 "
                                  "--replicates 500 --master-seed 6",
}

RATES_ARGS = "verify --suite rates --replicates 500"


def raw_digest(kind, n, d, t, reps, seed, offset) -> str:
    rows = mc.simulate_raw(mc.MCConfig(kind, n, 0.5, d, reps, seed, t=t,
                                       replicate_offset=offset))
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()


def cli_output(args: str, tmp_dir: str, code: int = 0) -> str:
    """The JSON report the CLI writes for ``args``, with the default seed,
    after asserting the CLI's exit code."""
    out = os.path.join(tmp_dir, "report.json")
    old = os.environ.pop(cli.SEED_ENV, None)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            got = cli.main(args.split() + ["-o", out])
    finally:
        if old is not None:
            os.environ[cli.SEED_ENV] = old
    assert got == code, args
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def _raw_key(spec) -> str:
    return "/".join(map(str, spec))


def collect(tmp_dir: str) -> dict:
    return {
        "raw": {_raw_key(s): raw_digest(*s) for s in RAW_SPECS},
        "exact": {k: cli_output(a, tmp_dir) for k, a in EXACT_ARGS.items()},
        "close": {k: json.loads(cli_output(a, tmp_dir)) for k, a in CLOSE_ARGS.items()},
        "rates": json.loads(cli_output(RATES_ARGS, tmp_dir, code=1)),
    }


def assert_close(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        if got != want:
            assert abs(got - want) <= REL_TOL * max(abs(got), abs(want)), \
                "%s: %r != %r" % (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_close(got[k], want[k], "%s.%s" % (path, k))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, "%s[%d]" % (path, i))
    else:
        assert type(got) is type(want) and got == want, "%s: %r != %r" % (path, got, want)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("spec", RAW_SPECS, ids=_raw_key)
def test_raw_rows(golden, spec):
    assert raw_digest(*spec) == golden["raw"][_raw_key(spec)]


@pytest.mark.parametrize("key", sorted(EXACT_ARGS))
def test_exact_reports(golden, key, tmp_path):
    assert cli_output(EXACT_ARGS[key], str(tmp_path)) == golden["exact"][key]


@pytest.mark.parametrize("key", sorted(CLOSE_ARGS))
def test_close_reports(golden, key, tmp_path):
    assert_close(json.loads(cli_output(CLOSE_ARGS[key], str(tmp_path))),
                 golden["close"][key])


def test_rates_report(golden, tmp_path):
    assert_close(json.loads(cli_output(RATES_ARGS, str(tmp_path), code=1)), golden["rates"])


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = collect(tmp)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
