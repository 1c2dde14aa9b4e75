"""Verification suites: every gate the artifact must pass, shared between the
CLI ``verify`` subcommand and the acceptance test module.

Each suite returns a list of GateResult rows; a suite passes when no row is
FAIL.  VACUOUS-PASS marks inequality checks whose theoretical bound exceeds
the trivial one at the tested scale, where only the decay-rate evidence is
informative.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import moments as mo
from . import montecarlo as mc
from . import oracle as orc
from .graphs import (MAX_ENUM_VERTICES, Graph, GnpParams, clique_levels, clique_masks, gnp_mask,
                     gnp_pairs, gnp_streams, pair_matrix)
from .kinds import statistic
from .morse import (Matching, _matched, _pairs, _unmatched, critical_counts_direct,
                    critical_counts_formula, lex_matching, verify_acyclic)

REL_TOL_ORACLE = 1e-10


@dataclass
class GateResult:
    name: str
    status: str  # PASS | VACUOUS-PASS | FAIL
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"

    def row(self) -> str:
        return "%-12s %s%s" % (self.status, self.name,
                               "  [%s]" % self.detail if self.detail else "")


def _gate(name: str, ok: bool, detail: str = "") -> GateResult:
    return GateResult(name, "PASS" if ok else "FAIL", detail)


# ---------------------------------------------------------------------------
# suite: oracle  (acceptance criterion 1)


def suite_oracle(n_max: int = 5, ps=(0.2, 0.5, 0.8), d_max: int = 3) -> list:
    """Analytic moments vs exhaustive enumeration, relative 1e-10."""
    if not 2 <= n_max <= MAX_ENUM_VERTICES:  # before any gate runs
        raise ValueError("n_max must be >= 2 and <= %d, the enumeration cap (got %d)"
                         % (MAX_ENUM_VERTICES, n_max))
    results = []
    for n in range(2, n_max + 1):
        for p in ps:
            for kind, t in (("critical", ()), ("clique", ()), ("link", (2,)), ("link", (1, 3))):
                if len(t) >= n:
                    continue
                stat = statistic(kind)
                d = min(d_max, n - len(t) + 1 - stat.first_size)  # top size fits
                em = orc.exact_moments(kind, n, p, d, t=t or None)
                # off-diagonals without a closed form are the oracle's own
                rep = mo.statistic_cov_matrix(kind, n, d, p, len(t), (em.cov, em.provenance))
                ok = all(math.isclose(a, b, rel_tol=REL_TOL_ORACLE) for a, b in
                         zip(em.mean + sum(em.cov, []), rep.mean + sum(rep.cov, [])))
                name = "oracle %s %s n=%d p=%.1f" % (
                    kind, "mean/var" if stat.cov is None else "moments", n, p)
                results.append(_gate(name + (" t=%s" % (t,) if t else ""), ok))
    return results


# ---------------------------------------------------------------------------
# suite: morse-equivalence  (acceptance criterion 2) and acyclicity (criterion 4)


def _equiv_on_graph(g: Graph, d: int) -> tuple[bool, bool]:
    """critical_counts_direct(g, d) == critical_counts_formula(g, d), and
    verify_acyclic(lex_matching(g, min(d + 2, n)), g), from one walk and one
    Matching: faces of size d + 2 match only to size d + 3, so the counts of
    sizes 2..d+1 are those of the walk to depth d + 1.  Pairs that are no
    matching raise ValueError, from _matched's mask form of the rule that
    Matching checks."""
    levels = clique_masks(g, min(d + 2, g.n))
    matched = _matched(levels)
    m = Matching(_pairs(levels))
    eq = _unmatched(levels, matched, d).counts == critical_counts_formula(g, d).counts
    return eq, verify_acyclic(m, g)


def _equiv_tally(items) -> Counter:
    """Equivalence and acyclicity failures over (corpus, n, d, mask) items,
    keyed (corpus, "eq") and (corpus, "acy").  A graph whose pairs are no
    matching fails both, and its error is counted under (corpus, "invalid",
    message)."""
    tally = Counter()
    for corpus, n, d, mask in items:
        g = Graph(n, mask)
        try:
            eq, acy = _equiv_on_graph(g, d)
        except ValueError as e:  # from _matched or Matching
            eq = acy = False
            tally[corpus, "invalid", str(e)] += 1
        tally[corpus, "eq"] += not eq
        tally[corpus, "acy"] += not acy
    return tally


def suite_morse_equivalence(random_graphs: int = 1000, random_n: int = 12,
                            seed: int = 1, enum_ns=(5, 6),
                            threads: int = 1) -> list:
    """Direct matching counts == indicator-formula counts, exhaustively for
    n in {5,6} and on seeded G(12, 1/2) samples; lexicographical matchings
    verified acyclic on the same corpus.

    parallel_map gets the graphs of all corpora as one sequence; each corpus's
    failures are summed over the parts, so worker counts do not change them.
    """
    if random_graphs < 1:
        raise ValueError("random_graphs must be >= 1")
    if random_n < 4:  # the random corpus checks sizes up to 4
        raise ValueError("random_n must be >= 4")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    params = GnpParams(random_n, 0.5, seed)
    corpora = [("all %d graphs n=%d" % (1 << math.comb(n, 2), n), "all graphs n=%d" % n,
                n, min(3, n - 1), range(1 << math.comb(n, 2))) for n in enum_ns]
    name = "%d random graphs n=%d" % (random_graphs, random_n)
    corpora.append((name, name, random_n, 3,
                    [gnp_mask(rng, params.n, params.p)
                     for rng in gnp_streams(params.seed, 0, random_graphs)]))
    items = [(c, n, d, mask) for c, (*_, n, d, masks) in enumerate(corpora) for mask in masks]
    tally = sum(mc.parallel_map(_equiv_tally, items, threads), Counter())
    results = []
    for c, (eq_name, acy_name, *_) in enumerate(corpora):
        detail, why = "%d mismatches" % tally[c, "eq"], ""
        invalid = sorted((key[2], k) for key, k in tally.items() if key[:2] == (c, "invalid"))
        if invalid:
            why = "%d graphs' pairs are no matching, e.g. %s" % (
                sum(k for _, k in invalid), invalid[0][0])
            detail += "; " + why
        results += [_gate("morse equivalence " + eq_name, not tally[c, "eq"], detail),
                    _gate("acyclicity " + acy_name, not tally[c, "acy"], why)]
    return results


# ---------------------------------------------------------------------------
# suite: figure2  (acceptance criterion 3)


FIGURE2_EDGES = ((1, 2), (2, 3), (1, 4), (3, 4), (3, 5), (4, 5))
FIGURE2_PAIRS = frozenset({
    ((2,), (1, 2)), ((3,), (2, 3)), ((4,), (1, 4)), ((5,), (3, 5)),
    ((4, 5), (3, 4, 5))})


def suite_figure2() -> list:
    g = Graph.from_edges(5, FIGURE2_EDGES)
    m = lex_matching(g, 3)
    results = [
        _gate("figure2 matching pairs", m.pairs == FIGURE2_PAIRS, m.dump().replace("\n", "; ")),
        _gate("figure2 critical sizes 2..3", critical_counts_direct(g, 2).counts == (1, 0)),
        _gate("figure2 vertex 1 critical, others not",
              [v for v in range(1, 6)
               if (v,) not in m.simplices()] == [1]),
        _gate("figure2 matching acyclic", verify_acyclic(m, g)),
    ]
    return results


# ---------------------------------------------------------------------------
# suite: bound-spots  (acceptance criterion 5)


def suite_bound_spots() -> list:
    results = []
    got = bd.clique_bound(1, 1, 0.5).smooth.params["constant"]
    results.append(_gate("clique bound constant d=1 p=0.5",
                         abs(got - 32.0 / 3.0) <= 1e-12, "%.15g" % got))
    got = bd.convex_bound(1, 1.0).value
    want = 2.0 ** 3.5 * 3.0 ** -0.75
    results.append(_gate("convex transfer constant d=1 B=1",
                         abs(got - want) <= 1e-12, "%.15g" % got))
    return results


# ---------------------------------------------------------------------------
# suite: rates  (acceptance criterion 6)


def matched_normal_report(cfg: mc.MCConfig, threads: int = 1) -> dict:
    """Full run artifact: simulate, standardize to W, match a normal sample
    with the closed-form correlation (or W's own covariance where there is
    none), estimate the smooth and convex discrepancies, and check them
    against the kind's bound pair.  Moment off-diagonals without a closed
    form are the raw rows' empirical ones."""
    mc.check_rect_gathers(cfg.d)  # before the bounds and the simulation
    pair = statistic(cfg.kind).bound(cfg.n, cfg.d, cfg.p, len(cfg.t))
    raw = mc.simulate_raw(cfg, threads=threads)
    w = mc.standardize(raw, cfg)
    closed = statistic(cfg.kind).cov is not None
    report = mo.statistic_cov_matrix(
        cfg.kind, cfg.n, cfg.d, cfg.p, len(cfg.t),
        None if closed else (mc.empirical_cov(raw).tolist(), "empirical"))
    if closed:
        cov = np.array(report.cov)
        sd = np.array(mo.sigma(np.diag(cov)))
        corr = cov / np.outer(sd, sd)
    else:
        corr = mc.empirical_cov(w)
    # the auxiliary seeds wrap so that the largest 64-bit master seed works
    z = mc.mvn_samples(corr, cfg.replicates, (cfg.master_seed + 1) % 2 ** 64)
    sm = mc.smooth_discrepancy(w, z, bound=pair.smooth)
    cx = mc.convex_discrepancy(w, z, bound=pair.convex, seed=(cfg.master_seed + 2) % 2 ** 64)
    return {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in cfg.__dict__.items()},
        "moments": report.as_dict(),
        "bounds": {"smooth": pair.smooth.as_dict(), "convex": pair.convex.as_dict()},
        "discrepancies": {"smooth": sm.as_dict(), "convex": cx.as_dict()},
        "verdicts": {"smooth": mc.bound_check(sm, pair.smooth),
                     "convex": mc.bound_check(cx, pair.convex)},
    }


def _ratio_gate(name, small, big, family, ratio) -> GateResult:
    # one-sided test of H: est_big <= ratio * est_small, at 3 stderr
    r_small, r_big = small["discrepancies"][family], big["discrepancies"][family]
    slack = 3.0 * math.sqrt(r_big["stderr"] ** 2 + (ratio * r_small["stderr"]) ** 2)
    lhs = r_big["estimate"] - ratio * r_small["estimate"]
    return _gate(name, lhs <= slack,
                 "est %.3g -> %.3g, margin %.3g vs %.3g" %
                 (r_small["estimate"], r_big["estimate"], lhs, slack))


def _strict_decrease_gate(name, small, big, family) -> GateResult:
    r_small, r_big = small["discrepancies"][family], big["discrepancies"][family]
    drop = r_small["estimate"] - r_big["estimate"]
    slack = 3.0 * math.sqrt(r_small["stderr"] ** 2 + r_big["stderr"] ** 2)
    return _gate(name, drop > slack,
                 "est %.3g -> %.3g, drop %.3g vs noise %.3g" %
                 (r_small["estimate"], r_big["estimate"], drop, slack))


def _smooth_bound_row(name, run) -> GateResult:
    """The report's own smooth verdict, as simulate --check prints it."""
    return GateResult(name, run["verdicts"]["smooth"], "est %.3g vs bound %.3g" % (
        run["discrepancies"]["smooth"]["estimate"], run["bounds"]["smooth"]["value"]))


def suite_rates(reps: int = 100_000) -> list:
    """Decay-rate and non-vacuous-bound checks for the three statistics: five
    simulate --check runs and the closed-form critical bound."""
    if reps < 4:  # the clique n=100 check runs reps // 2
        raise ValueError("reps must be >= 4 (got %d)" % reps)
    seed = 20240
    c40, c80, c100, l100, l400 = (matched_normal_report(mc.MCConfig(*spec)) for spec in (
        ("clique", 40, 0.5, 2, reps, seed), ("clique", 80, 0.5, 2, reps, seed + 10),
        ("clique", 100, 0.5, 1, reps // 2, seed + 20),
        ("link", 100, 0.5, 1, reps, seed + 30, (1,)),
        ("link", 400, 0.5, 1, reps, seed + 40, (1,))))
    bn = [(n, bd.crit_bound(n, 2, 0.5).smooth.value * n) for n in (40, 80, 160)]
    worst = max(b / a for (_, a), (_, b) in zip(bn, bn[1:]))
    return [
        _ratio_gate("clique d=2 smooth ratio<=0.75 n=40->80", c40, c80, "smooth", 0.75),
        _ratio_gate("clique d=2 convex rate<=2^-1/4 n=40->80", c40, c80, "convex", 2.0 ** -0.25),
        _smooth_bound_row("clique d=2 bound check n=40 (vacuous at this scale)", c40),
        _smooth_bound_row("clique d=1 non-vacuous bound check n=100", c100),
        _ratio_gate("link d=1 smooth no-increase n=100->400", l100, l400, "smooth", 1.0),
        _strict_decrease_gate("link d=1 convex decrease n=100->400", l100, l400, "convex"),
        _gate("critical grouped bound x n bounded (<=1.25x per doubling)", worst <= 1.25,
              "; ".join("n=%d: %.4g" % t for t in bn)),
    ]


# ---------------------------------------------------------------------------
# suite: variance-order  (acceptance criterion 7)


def suite_variance_order() -> list:
    ns, k, p = (100, 200, 400), 1, 0.5
    results = []
    exact, lower = ([f(n, k, p) for n in ns] for f in (mo.crit_variance, mo.crit_variance_lower))
    cexact, clower = ([v / n ** (2 * k) for v, n in zip(vs, ns)] for vs in (exact, lower))
    ratios = [b / a for a, b in zip(cexact, cexact[1:])]
    conv = all(c > 0 for c in cexact) and abs(ratios[-1] - 1.0) <= 0.1 \
        and abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12
    results.append(_gate("exact variance / n^2 converges to a positive constant",
                         conv, "values " + ", ".join("%.5g" % c for c in cexact)))
    dominated = all(lo <= ex for lo, ex in zip(lower, exact))
    results.append(_gate("lower bound <= exact variance", dominated))
    lconv = all(c > 0 for c in clower)
    results.append(_gate("lower bound / n^2 positive over tested n", lconv,
                         "values " + ", ".join("%.5g" % c for c in clower)
                         + "; first positive n ~ %s"
                         % mo.smallest_positive_lower_bound_n(k, p)))
    return results


# ---------------------------------------------------------------------------
# suite: truncation  (acceptance criterion 8)


def suite_truncation() -> list:
    n, k, p, reps, seed = 30, 1, 0.5, 10_000, 808
    Ks = (5, 10, 20)
    results = []
    exceed = {K: 0 for K in Ks}
    for rng in gnp_streams(seed, 0, reps):
        minima = [[] for _ in range(k + 2)]
        clique_levels(pair_matrix(n, gnp_pairs(rng, n, p)), k + 1, critical=True, minima=minima)
        top = max(minima[k + 1], default=0)
        for K in Ks:
            if top > K:  # full count minus K-truncated count >= 1
                exceed[K] += 1
    for K in Ks:
        phat = exceed[K] / reps
        se = math.sqrt(max(phat * (1.0 - phat), 1.0 / reps) / reps)
        bound = mo.crit_tail_bound(n, k, p, K)
        ok = phat <= bound + 3.0 * se
        status = "PASS" if ok else "FAIL"
        if ok and bound >= 1.0:
            status = "VACUOUS-PASS"
        results.append(GateResult(
            "truncation tail K=%d" % K, status,
            "empirical %.4g vs bound %.4g (se %.2g)" % (phat, bound, se)))
    return results


# ---------------------------------------------------------------------------
# suite: degenerate-sigma  (acceptance criterion 9)


def suite_degenerate_sigma() -> list:
    seed = 4242
    results = []
    rank1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    s = mc.mvn_samples(rank1, 2000, seed)
    results.append(_gate("rank-1 covariance gives coordinate-equal samples",
                         bool(np.allclose(s[:, 0], s[:, 1]))))
    w = mc.simulate_vectors(mc.MCConfig("link", 30, 0.5, 1, 4000, seed, t=(1,)))
    dup = np.column_stack([w[:, 0], w[:, 0]])
    cov = mc.empirical_cov(dup)
    sing = abs(np.linalg.det(cov)) <= 1e-12
    try:
        z = mc.mvn_samples(cov, 4000, seed + 1)
        sm = mc.smooth_discrepancy(dup, z)
        cx = mc.convex_discrepancy(dup, z, seed=seed + 2)
        verdict = mc.bound_check(sm, bd.clique_bound(30, 2, 0.5).smooth)
        ran = True
        detail = ("singular=%s, smooth est %.3g, convex est %.3g, verdict %s"
                  % (sing, sm.estimate, cx.estimate, verdict))
    except Exception as exc:  # the gate is exactly "no error"
        ran = False
        detail = repr(exc)
    results.append(_gate("pipeline runs on singular empirical covariance",
                         ran and sing, detail))
    return results


# ---------------------------------------------------------------------------
# extra suite: oracle-mc (statistical cross-check of the simulator)


def suite_oracle_mc(reps: int = 1_000_000) -> list:
    """Empirical moments converge to exhaustive-oracle moments, 5-sigma gates."""
    if reps < 10:  # the clique and link checks run reps // 5
        raise ValueError("reps must be >= 10 (got %d)" % reps)
    n, p, seed = 5, 0.5, 515
    results = []
    plans = [("critical", 2, (), reps),
             ("clique", 2, (), reps // 5),
             ("link", 2, (2,), reps // 5)]
    for kind, d, t, r in plans:
        em = orc.exact_moments(kind, n, p, d, t=t or None)
        raw = mc.simulate_raw(mc.MCConfig(kind, n, p, d, r, seed, t=t))
        ok = True
        detail = []
        sds = mo.sigma(em.cov[a][a] for a in range(d))
        for a, sd in enumerate(sds):
            gap = abs(raw[:, a].mean() - em.mean[a])
            tol = 5.0 * sd / math.sqrt(r) + 1e-12
            ok = ok and gap <= tol
            detail.append("%.2g<=%.2g" % (gap, tol))
        results.append(_gate("oracle-mc %s n=%d (%d reps)" % (kind, n, r), ok,
                             ", ".join(detail)))
    return results


SUITES = {
    "oracle": suite_oracle,
    "morse-equivalence": suite_morse_equivalence,
    "figure2": suite_figure2,
    "bound-spots": suite_bound_spots,
    "rates": suite_rates,
    "variance-order": suite_variance_order,
    "truncation": suite_truncation,
    "degenerate-sigma": suite_degenerate_sigma,
    "oracle-mc": suite_oracle_mc,
}


def run_suite(name: str, **kwargs) -> list:
    if name == "all":
        if kwargs:  # each suite's options are its own
            raise ValueError("suite all takes no options (got %s)" % ", ".join(sorted(kwargs)))
        return [row for key in SUITES for row in run_suite(key)]
    if name not in SUITES:
        raise ValueError("unknown suite %r (have %s)" % (name, ", ".join(SUITES)))
    return SUITES[name](**kwargs)
