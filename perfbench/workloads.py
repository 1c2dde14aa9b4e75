"""The three benchmark workloads: their inputs, work lists and output checks.

A workload's set-up turns ``(seed, rounds)`` into its inputs, which are kept
for the whole run; the operations (:class:`harness.Op`) of each round are
built from them when the round starts and dropped when it ends.  Inputs
change from round to round (replicate offsets, p, n and sample seeds), so no
two calls in a run are identical except the exhaustive small-graph
enumeration, whose repetition is real.

Checks that can be repeated at any seed run on every seed.  Pinned digests
and values (``pins.json``, made by ``make_pins.py``) cover the default seed;
the closed-form inputs of ``analysis`` do not depend on the seed, so their
pins apply at every seed.
"""

from __future__ import annotations

import hashlib
import math
from math import comb

import numpy as np
from cliquestats import bounds, graphs, moments, montecarlo, morse, oracle, verify

from harness import Op, Pin, rel_close

DEFAULT_SEED = 1
REL_TOL_CLOSED = 1e-12
REL_TOL_ORACLE = 1e-10


def digest(rows) -> str:
    a = np.ascontiguousarray(np.asarray(rows, dtype="<f8"))
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:32]


def _derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """The benchmark's own stream for picking inputs, apart from the
    library's Philox keys."""
    return np.random.default_rng([seed, *tags])


# ---------------------------------------------------------------------------
# mc-large-n


# (kind, n, d, t): the n >= 40 entries of the baseline grid in ROADMAP.md.
# Every call simulates MC_CHUNK replicates, as a sweep of `cliquestats
# simulate` over the grid at one --replicates does, so each spec weighs in by
# its cost per replicate (critical n=100 is about half of the time).
MC_LARGE_SPECS = (
    ("clique", 40, 2, ()),
    ("clique", 40, 3, ()),
    ("link", 100, 1, (1,)),
    ("link", 100, 3, (1,)),
    ("critical", 40, 2, ()),
    ("critical", 100, 1, ()),
)
MC_CHUNK = 80
MC_P = 0.5


def mc_key(cfg) -> str:
    return "%s/n%d/d%d/t%s/p%r/seed%d/off%d/r%d" % (
        cfg.kind, cfg.n, cfg.d, ",".join(map(str, cfg.t)), cfg.p, cfg.master_seed,
        cfg.replicate_offset, cfg.replicates)


def scalar_row(cfg, r: int) -> list:
    """Counts of replicate r re-derived through the scalar path: the same
    Philox key draws the same graph, counted by the reference kernels."""
    g = graphs.sample_gnp(graphs.GnpParams(cfg.n, cfg.p, cfg.master_seed),
                          stream=cfg.replicate_offset + r)
    if cfg.kind == "clique":
        return [graphs.clique_count(g, s) for s in range(2, cfg.d + 2)]
    return list(morse.critical_counts_direct(g, cfg.d).counts)


def link_rows_plausible(cfg, rows) -> bool:
    """Link rows come from collapsed sampling, which draws other bits than
    the full graph, so only their ranges can be checked at a new seed."""
    room = cfg.n - len(cfg.t)
    for row in rows:
        m = row[0]
        if not (m == int(m) and 0 <= m <= room):
            return False
        if any(not (v == int(v) and 0 <= v <= comb(int(m), i + 2))
               for i, v in enumerate(row[1:])):
            return False
    return True


def mc_check(cfg, rows, sample_rows) -> bool:
    rows = np.asarray(rows)
    if rows.shape != (cfg.replicates, cfg.d) or not np.all(np.isfinite(rows)):
        return False
    if cfg.kind == "link":
        return link_rows_plausible(cfg, rows)
    return all(list(rows[r]) == scalar_row(cfg, r) for r in sample_rows)


def mc_op(cfg, sample_rows) -> Op:
    return Op(montecarlo, "simulate_raw", (cfg,), kwargs={"threads": 1},
              check=lambda rows: mc_check(cfg, rows, sample_rows),
              pin=Pin("default_seed", mc_key(cfg), digest),
              replicates=cfg.replicates, throughput=True)


def mc_large_rounds(seconds: float) -> int:
    return max(1, round(seconds * 1.1))


def mc_large_prepare(seed: int, rounds: int):
    """A random base replicate offset per spec; round r continues from it."""
    return _derived_rng(seed, 1).integers(0, 1 << 40, size=len(MC_LARGE_SPECS))


def mc_large_ops(seed: int, r: int, bases) -> list:
    return [mc_op(montecarlo.MCConfig(kind, n, MC_P, d, MC_CHUNK, seed, t=t,
                                      replicate_offset=int(base) + r * MC_CHUNK),
                  (r % MC_CHUNK,))
            for (kind, n, d, t), base in zip(MC_LARGE_SPECS, bases)]


def warm_mc_large(seed: int):
    for kind, n, d, t in MC_LARGE_SPECS:
        montecarlo.simulate_raw(montecarlo.MCConfig(kind, n, MC_P, d, 2, seed, t=t,
                                                    replicate_offset=1 << 62))


# ---------------------------------------------------------------------------
# small-graphs


SMALL_NS = (5, 6)
SMALL_MC = (("critical", 2, ()), ("clique", 2, ()), ("link", 2, (2,)))
SMALL_MC_REPS = 2000
SMALL_MC_CHUNKS = 2
ORACLE_KINDS = (("critical", None), ("clique", None), ("link", (2,)))


def small_rounds(seconds: float) -> int:
    # a multiple of 3, so each kind gets the same number of n=6 oracle calls
    return 3 * max(1, round(seconds * 0.15))


def small_graph_lists() -> dict:
    """Every labelled graph on 5 and 6 vertices."""
    return {n: [graphs.Graph(n, mask) for mask in range(1 << comb(n, 2))]
            for n in SMALL_NS}


def small_prepare(seed: int, rounds: int) -> dict:
    rng = _derived_rng(seed, 2)
    bases = rng.integers(0, 1 << 40, size=len(SMALL_MC))
    # the oracle takes one p per stratum of [0.2, 0.8], in seeded order; the
    # Monte Carlo keeps p = 0.5, because p moves the cost of a replicate
    ps = 0.2 + 0.6 * (rng.permutation(rounds) + rng.uniform(size=rounds)) / rounds
    return {"graphs": small_graph_lists(), "bases": bases, "ps": ps, "rounds": rounds}


def morse_ops(g, d: int) -> list:
    """Direct counts, formula counts, matching and acyclicity on one graph.
    Direct == formula is the Morse-equivalence gate; the matching must
    account for every clique of sizes 2..d+1 (critical, face or coface); the
    acyclicity gate must hold."""

    def matching_ok(m):
        in_pairs = {}
        for face, coface in m.pairs:
            in_pairs[len(face)] = in_pairs.get(len(face), 0) + 1
            in_pairs[len(coface)] = in_pairs.get(len(coface), 0) + 1
        critical = direct.out.counts
        return all(graphs.clique_count(g, s) == critical[s - 2] + in_pairs.get(s, 0)
                   for s in range(2, d + 2))

    direct = Op(morse, "critical_counts_direct", (g, d),
                check=lambda c: len(c.counts) == d and min(c.counts) >= 0)
    formula = Op(morse, "critical_counts_formula", (g, d),
                 check=lambda c: c.counts == direct.out.counts)
    matching = Op(morse, "lex_matching", (g, min(d + 2, g.n)), check=matching_ok)
    acyclic = Op(morse, "verify_acyclic", lambda: (matching.out, g),
                 check=lambda ok: ok is True)
    return [direct, formula, matching, acyclic]


def oracle_matches_closed_form(rep, kind: str, n: int, p: float, d: int, t) -> bool:
    """Exact moments against the closed forms, as in ``verify --suite oracle``
    (critical: means and variances; clique and link: means and covariances)."""
    def close(a, b):
        return rel_close(a, b, REL_TOL_ORACLE)

    dims = range(1, d + 1)
    if kind == "critical":
        return (all(close(rep.mean[k - 1], moments.crit_mean(n, k, p)) for k in dims)
                and all(close(rep.cov[k - 1][k - 1], moments.crit_variance(n, k, p))
                        for k in dims))
    if kind == "clique":
        return (all(close(rep.mean[i - 1], moments.clique_mean(n, i + 1, p)) for i in dims)
                and all(close(rep.cov[i - 1][j - 1], moments.clique_cov(n, i, j, p))
                        for i in dims for j in dims))
    ts = len(t)
    return (all(close(rep.mean[i], moments.link_mean(n, ts, i, p)) for i in range(d))
            and all(close(rep.cov[i][j], moments.link_cov(n, ts, i, j, p))
                    for i in range(d) for j in range(d)))


def small_ops(seed: int, r: int, inputs: dict) -> list:
    p = float(inputs["ps"][r])
    ops = [Op(verify, "suite_oracle", kwargs={"n_max": 5, "ps": (p,), "d_max": 3},
              check=lambda gates: bool(gates) and all(g.ok for g in gates))]
    okind, ot = ORACLE_KINDS[r % 3]
    ops.append(Op(oracle, "exact_moments", (okind, 6, p, 3, ot),
                  check=lambda rep: oracle_matches_closed_form(rep, okind, 6, p, 3, ot)))
    for (kind, d, t), base in zip(SMALL_MC, inputs["bases"]):
        for c in range(SMALL_MC_CHUNKS):
            off = int(base) + (r * SMALL_MC_CHUNKS + c) * SMALL_MC_REPS
            cfg = montecarlo.MCConfig(kind, 5, MC_P, d, SMALL_MC_REPS, seed, t=t,
                                      replicate_offset=off)
            ops.append(mc_op(cfg, range(0, SMALL_MC_REPS, 100)))
    # every graph once per run: round r takes the masks congruent to r
    for n in SMALL_NS:
        for g in inputs["graphs"][n][r::inputs["rounds"]]:
            ops.extend(morse_ops(g, min(3, n - 1)))
    return ops


def warm_small(seed: int):
    # empty the n <= 6 count cache, then fill it the way a long n=5
    # simulation would
    cache = getattr(montecarlo, "_small_graph_counts", None)
    if cache is not None and hasattr(cache, "cache_clear"):
        cache.cache_clear()
    for kind, d, t in SMALL_MC:
        montecarlo.simulate_raw(montecarlo.MCConfig(kind, 5, 0.5, d, 3000, seed, t=t,
                                                    replicate_offset=1 << 62))
    oracle.exact_moments("critical", 4, 0.5, 3)
    verify.suite_oracle(n_max=3, ps=(0.5,), d_max=2)
    g = graphs.Graph.complete(5)
    morse.verify_acyclic(morse.lex_matching(g, 5), g)
    morse.critical_counts_direct(g, 3)
    morse.critical_counts_formula(g, 3)


# ---------------------------------------------------------------------------
# analysis


# Each round runs, once per spec, the calls that verify.matched_normal_report
# (`cliquestats simulate --check`) makes after simulate_raw, in its order:
# analytic mean and sd, [critical: empirical covariance of W], the bound pair,
# the moment report, a matched normal sample of the same size, and the smooth
# and convex discrepancies between W and it.  W stands in for the
# standardized counts and is drawn for each round during set-up, so no
# replicate kernel runs.  The specs are those of mc-large-n, except that critical d=2 takes n
# from CRIT_LADDER (100..320, where crit_bound is slow) instead of 40.
ANALYSIS_REPS = 20000  # the sample size of the discrepancy baseline in ROADMAP.md
CRIT_LADDER = (100, 320, 160, 240, 130, 280)
GOLDEN = 0.6180339887498949


def analysis_rounds(seconds: float) -> int:
    return max(1, round(seconds * 0.2))


def analysis_schedule(r: int) -> tuple:
    """(p, [(kind, n, d, t) of each check]) of round r.  Independent of the
    seed, so the pinned closed forms hold at every seed, and of the run's
    length, so a shorter run's pins are those of a longer one's first rounds.
    No two rounds share an input."""
    p = round(0.3 + 0.4 * ((r * GOLDEN) % 1.0), 6)
    crit_n = CRIT_LADDER[r % len(CRIT_LADDER)] + r // len(CRIT_LADDER)
    specs = [(kind, crit_n if (kind, n, d) == ("critical", 40, 2) else n, d, t)
             for kind, n, d, t in MC_LARGE_SPECS]
    return p, specs


def analysis_prepare(seed: int, rounds: int) -> list:
    """Correlated normal sample sets W[d], one per dimension and round, so
    that no two rounds share a sample."""
    out = []
    for r in range(rounds):
        ws = {}
        for d in (1, 2, 3):
            corr = np.full((d, d), 0.3) + 0.7 * np.eye(d)
            z = _derived_rng(seed, 100 + d, r).standard_normal((ANALYSIS_REPS, d))
            ws[d] = z @ np.linalg.cholesky(corr).T
        out.append(ws)
    return out


def _logistic(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def smooth_reference(w, z) -> tuple:
    """Max over the logistic-ridge family of |mean h(W) - mean h(Z)|, and the
    pooled standard error of the argmax, evaluated function by function."""
    best = (-1.0, 0.0)
    for a, c in montecarlo.smooth_family(w.shape[1]):
        hw = _logistic(w @ a + c)
        hz = _logistic(z @ a + c)
        est = abs(float(hw.mean() - hz.mean()))
        if est > best[0]:
            best = (est, math.sqrt(float(hw.var(ddof=1)) / len(hw)
                                   + float(hz.var(ddof=1)) / len(hz)))
    return best


def halfspace_max(w, z, seed: int) -> float:
    """Largest halfspace gap of the seeded convex family; the convex
    estimate is a maximum over a superset, so it can be no smaller."""
    family = montecarlo.convex_family(w, z, seed=seed)
    return max(abs(float(np.mean(w @ u <= c)) - float(np.mean(z @ u <= c)))
               for u, c in family.halfspaces)


def covariance_close(c, w) -> bool:
    x = w - w.mean(axis=0)
    ref = x.T @ x / (len(w) - 1)
    return c.shape == ref.shape and bool(np.all(np.abs(c - ref) <= 1e-12 * np.abs(ref).max()))


def mvn_plausible(z, cov, n: int) -> bool:
    if z.shape != (n, cov.shape[0]) or not np.all(np.isfinite(z)):
        return False
    gap = np.abs(montecarlo.empirical_cov(z) - cov).max()
    return gap <= 8.0 * math.sqrt(2.0 / n) * float(np.diag(cov).max())


def correlation(cov) -> np.ndarray:
    """The matched normal's target for clique and link counts, as
    matched_normal_report builds it from the closed-form covariances."""
    d = len(cov)
    sd = [math.sqrt(cov[i][i]) for i in range(d)]
    return np.array([[cov[i][j] / (sd[i] * sd[j]) for j in range(d)] for i in range(d)])


def bound_op(kind: str, n: int, d: int, t, p: float) -> Op:
    if kind == "critical":
        func, args = "crit_bound", (n, d, p)
    elif kind == "clique":
        func, args = "clique_bound", (n, d, p)
    else:
        func, args = "link_bound", (n, len(t), d, p)
    return Op(bounds, func, args,
              pin=Pin("any_seed", "%s/%s" % (func, "/".join(map(repr, args))),
                      lambda b: [b.smooth.value, b.convex.value], REL_TOL_CLOSED))


def check_ops(kind: str, n: int, d: int, t, p: float, w, zseed: int, cseed: int,
              key: str) -> list:
    """The analysis calls of one matched-normal check of (kind, n, d, t) at
    p against the sample W, in the order matched_normal_report makes them."""
    spec = "%s/%d/%d/%r" % (kind, n, d, p)
    cfg = montecarlo.MCConfig(kind, n, p, d, len(w), DEFAULT_SEED, t=t)
    ops = [Op(montecarlo, "analytic_mean_sd", (cfg,),
              pin=Pin("any_seed", "mean_sd/" + spec,
                      lambda ms: [*ms[0].tolist(), *ms[1].tolist()], REL_TOL_CLOSED))]
    emp = None
    if kind == "critical":
        emp = Op(montecarlo, "empirical_cov", (w,), check=lambda c: covariance_close(c, w))
        ops.append(emp)
    bound = bound_op(kind, n, d, t, p)
    ops.append(bound)
    if kind == "critical":
        # off-diagonals come from W's covariance; the pin holds the
        # closed-form mean and variances
        report = Op(moments, "statistic_cov_matrix",
                    lambda: ("critical", n, d, p, 1,
                             (emp.out.tolist(), "empirical") if d > 1 else None),
                    check=lambda rep: all(rep.cov[i][j] == emp.out[i][j]
                                          for i in range(d) for j in range(d) if i != j),
                    pin=Pin("any_seed", "moments/" + spec,
                            lambda rep: rep.mean + [rep.cov[i][i] for i in range(d)],
                            REL_TOL_CLOSED))
    else:
        report = Op(moments, "statistic_cov_matrix", (kind, n, d, p, len(t) or 1),
                    pin=Pin("any_seed", "moments/%s/%d" % (spec, len(t)),
                            lambda rep: rep.mean + [v for row in rep.cov for v in row],
                            REL_TOL_CLOSED))
    ops.append(report)

    def target():
        return emp.out if kind == "critical" else correlation(report.out.cov)

    reps = len(w)
    mvn = Op(montecarlo, "mvn_samples", lambda: (target(), reps, zseed),
             check=lambda z: mvn_plausible(z, target(), reps),
             pin=Pin("default_seed", "mvn/" + key, digest),
             replicates=reps, throughput=True)
    smooth = Op(montecarlo, "smooth_discrepancy", lambda: (w, mvn.out),
                kwargs=lambda: {"bound": bound.out.smooth},
                check=lambda rep: (rep.estimate, rep.stderr) == smooth_reference(w, mvn.out),
                throughput=True)
    convex = Op(montecarlo, "convex_discrepancy", lambda: (w, mvn.out),
                kwargs=lambda: {"bound": bound.out.convex, "seed": cseed},
                check=lambda rep: (0.0 <= rep.estimate <= 1.0
                                   and rep.estimate >= halfspace_max(w, mvn.out, cseed)),
                pin=Pin("default_seed", "convex/" + key,
                        lambda rep: [rep.estimate, rep.stderr]),
                throughput=True)
    return ops + [mvn, smooth, convex]


def analysis_ops(seed: int, r: int, samples: list) -> list:
    p, specs = analysis_schedule(r)
    seeds = _derived_rng(seed, 3, r).integers(0, 1 << 62, size=(len(specs), 2))
    ops = []
    for (kind, n, d, t), (zseed, cseed) in zip(specs, seeds.tolist()):
        key = "%d/%d/%s/%d/%d/%d" % (seed, r, kind, n, d, zseed)
        ops.extend(check_ops(kind, n, d, t, p, samples[r][d], zseed, cseed, key))
    return ops


def warm_analysis(seed: int):
    moments.crit_variance(30, 1, 0.5)
    bounds.crit_bound(20, 2, 0.5)
    for d in (1, 2, 3):
        w = montecarlo.mvn_samples(np.eye(d), 200, 7)
        montecarlo.smooth_discrepancy(w, w[::-1])
        if d < 3:
            montecarlo.convex_discrepancy(w, w[::-1])


# ---------------------------------------------------------------------------


class Workload:
    """Set-up and work list of one workload."""

    def __init__(self, rounds, prepare, round_ops, warm):
        self.rounds = rounds
        self._prepare = prepare
        self._round_ops = round_ops
        self._warm = warm

    def setup(self, seed: int, rounds: int):
        """Warm up and build the inputs that the whole run keeps."""
        self._warm(seed)
        return self._prepare(seed, rounds)

    def ops(self, seed: int, r: int, inputs) -> list:
        """The operations of round r, built from the set-up's inputs."""
        return self._round_ops(seed, r, inputs)


WORKLOADS = {
    "mc-large-n": Workload(mc_large_rounds, mc_large_prepare, mc_large_ops, warm_mc_large),
    "small-graphs": Workload(small_rounds, small_prepare, small_ops, warm_small),
    "analysis": Workload(analysis_rounds, analysis_prepare, analysis_ops, warm_analysis),
}
