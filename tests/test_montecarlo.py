import itertools
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from cliquestats import bounds as bd
from cliquestats import moments as mo
from cliquestats import montecarlo as mc
from cliquestats import oracle as orc
from cliquestats import verify as vf
import reference


def test_config_validation():
    with pytest.raises(ValueError):
        mc.MCConfig("clique", 5, 0.5, 2, 1, 0)  # too few replicates
    with pytest.raises(ValueError):
        mc.MCConfig("link", 5, 0.5, 1, 10, 0)  # missing t
    with pytest.raises(ValueError):
        mc.MCConfig("link", 5, 0.5, 1, 10, 0, t=(6,))
    with pytest.raises(ValueError, match="takes no fixed subset"):
        mc.MCConfig("critical", 5, 0.5, 2, 10, 0, t=(3,))
    with pytest.raises(ValueError, match="d must be >= 1"):
        mc.MCConfig("clique", 5, 0.5, 0, 10, 0)
    with pytest.raises(ValueError):
        mc.MCConfig("critical", 3, 0.5, 3, 10, 0)  # d+1 > n
    with pytest.raises(ValueError):
        mc.MCConfig("clique", 5, 0.5, 2, 10, 0, standardization="other")
    with pytest.raises(ValueError):
        mc.MCConfig("betti", 5, 0.5, 2, 10, 0)
    with pytest.raises(ValueError):
        mc.MCConfig("clique", 5, 0.5, 2, 10, -1)
    with pytest.raises(ValueError):
        mc.MCConfig("clique", 5, 0.5, 2, 10, 2 ** 64)


def _scalar_rows(cfg):
    """The per-replicate reference for simulate_raw: a fresh generator per
    replicate, counted by the kind's replicate kernel."""
    from cliquestats.graphs import gnp_generator
    from cliquestats.kinds import statistic
    replicate = statistic(cfg.kind).replicate
    return np.array([replicate(cfg, gnp_generator(cfg.master_seed, cfg.replicate_offset + r))
                     for r in range(cfg.replicates)], dtype=np.float64).reshape(-1, cfg.d)


def test_offset_range():
    top = mc.MCConfig("clique", 5, 0.5, 2, 2, 1, replicate_offset=2 ** 64 - 2)
    assert mc.simulate_raw(top).tobytes() == _scalar_rows(top).tobytes()
    for offset in (2 ** 64 - 1, -1):
        with pytest.raises(ValueError, match=r"0\.\.2\^64 - 1"):
            mc.MCConfig("clique", 5, 0.5, 2, 2, 1, replicate_offset=offset)


def _table_specs():
    """(kind, n, d, t) for every kind whose counts come from count tables:
    critical and clique at n <= 6, link wherever n - |t| <= 6."""
    specs = [(kind, n, d, ()) for kind in ("critical", "clique")
             for n in range(2, 7) for d in range(1, n)]
    links = [(n, (1,)) for n in range(2, 7)] + [(6, (2, 5)), (7, (3,)), (8, (1, 2))]
    specs += [("link", n, d, t) for n, t in links for d in range(1, n - len(t) + 1)]
    return specs


@pytest.mark.parametrize("kind,n,d,t", _table_specs(),
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_table_path_matches_scalar_replicates(kind, n, d, t):
    for p in (0.0, 0.3, 1.0):
        cfg = mc.MCConfig(kind, n, p, d, 40, 3, t=t, replicate_offset=2 ** 32 - 20)
        assert mc.simulate_raw(cfg).tobytes() == _scalar_rows(cfg).tobytes()


@pytest.mark.parametrize("kind,t", [("critical", ()), ("clique", ()), ("link", (2,)),
                                    ("link", (1, 3))])
def test_batched_rows_match_scalar_replicates_across_blocks_and_workers(kind, t):
    # a partial last block, and each worker's chunk starting mid-block; n = 7
    # and 9 take the per-replicate path
    reps = mc.TABLE_BLOCK + 37
    for n, p in ((5, 0.3), (6, 0.5), (7, 0.5), (9, 0.3)):
        cfg = mc.MCConfig(kind, n, p, 2, reps if n <= 6 else 60, 8, t=t,
                          replicate_offset=5)
        want = _scalar_rows(cfg).tobytes()
        assert mc.simulate_raw(cfg).tobytes() == want
        assert mc.simulate_raw(cfg, threads=2).tobytes() == want


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_link_inner_graphs_up_to_6_vertices_match_a_walk(p):
    # n - |t| = 10 takes the per-replicate kernel; its inner graphs have
    # 0..6 vertices, each counted like a larger one, by clique_levels
    from cliquestats.graphs import Graph, clique_walk, gnp_generator, gnp_mask
    n, t, reps = 12, (1, 3), 400
    for d in (1, 2, 4):
        raw = mc.simulate_raw(mc.MCConfig("link", n, p, d, reps, 21, t=t))
        sizes = set()
        for r in range(reps):
            rng = gnp_generator(21, r)
            m = int(np.count_nonzero(rng.random(n - len(t)) < p ** len(t)))
            if m == 0:  # no common neighbour, no inner graph
                assert raw[r].tolist() == [0] * d
            else:
                g = Graph(m, gnp_mask(rng, m, p))  # the draw's next C(m, 2) variates
                assert raw[r].tolist() == clique_walk(g.adj, g.vertex_mask, d)[1:]
            sizes.add(m)
        assert sizes >= set(range(7 if p == 0.5 else 3))


def test_complete_graph_counts_constant():
    cfg = mc.MCConfig("clique", 10, 1.0, 2, 5, 0)
    raw = mc.simulate_raw(cfg)
    assert np.array_equal(raw, np.tile([45.0, 120.0], (5, 1)))


def test_determinism_and_merge():
    cfg = mc.MCConfig("critical", 8, 0.5, 2, 40, 123)
    a = mc.simulate_vectors(cfg)
    b = mc.simulate_vectors(cfg)
    assert np.array_equal(a, b)
    half1 = mc.simulate_raw(mc.MCConfig("critical", 8, 0.5, 2, 25, 123))
    half2 = mc.simulate_raw(mc.MCConfig("critical", 8, 0.5, 2, 15, 123,
                                        replicate_offset=25))
    full = mc.simulate_raw(mc.MCConfig("critical", 8, 0.5, 2, 40, 123))
    assert np.array_equal(np.vstack([half1, half2]), full)


def test_standardized_moments_near_unit():
    reps = 20000
    for cfg in [mc.MCConfig("clique", 12, 0.5, 2, reps, 5),
                mc.MCConfig("critical", 6, 0.5, 1, reps, 6),
                mc.MCConfig("link", 15, 0.5, 2, reps, 7, t=(3,))]:
        w = mc.simulate_vectors(cfg)
        tol = 4.0 / math.sqrt(reps)
        assert np.all(np.abs(w.mean(axis=0)) < 4 * tol)
        assert np.all(np.abs(w.std(axis=0) - 1.0) < 6 * tol)


def test_standardized_moments_at_n60():
    reps = 5000
    for cfg in [mc.MCConfig("clique", 60, 0.5, 2, reps, 51),
                mc.MCConfig("link", 60, 0.5, 2, reps, 52, t=(2,))]:
        w = mc.simulate_vectors(cfg)
        tol = 4.0 / math.sqrt(reps)
        assert np.all(np.abs(w.mean(axis=0)) < 4 * tol)
        assert np.all(np.abs(w.std(axis=0) - 1.0) < 6 * tol)


def test_clt_sanity_small_critical():
    reps = 100_000
    w = mc.simulate_vectors(mc.MCConfig("critical", 3, 0.5, 1, reps, 13))
    assert abs(w.mean()) < 4.0 / math.sqrt(reps)


def test_empirical_standardization():
    cfg = mc.MCConfig("clique", 10, 0.4, 2, 5000, 11, standardization="empirical")
    w = mc.simulate_vectors(cfg)
    assert np.allclose(w.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(w.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_clique_counts_match_graph_module():
    # numpy counting path vs the bitset clique counter
    from cliquestats.graphs import GnpParams, clique_count, sample_gnp
    cfg = mc.MCConfig("clique", 15, 0.5, 2, 10, 99)
    raw = mc.simulate_raw(cfg)
    for r in range(10):
        g = sample_gnp(GnpParams(15, 0.5, 99), stream=r)
        assert raw[r, 0] == clique_count(g, 2)
        assert raw[r, 1] == clique_count(g, 3)


@pytest.mark.parametrize("n", [20, 40])
def test_critical_edge_counts_match_scalar_formula(n):
    # clique_levels' critical edges vs the critical walk on the same draws
    from cliquestats.graphs import GnpParams, sample_gnp
    from reference import critical_walk
    for p in (0.1, 0.5, 0.9):
        raw = mc.simulate_raw(mc.MCConfig("critical", n, p, 1, 20, 8, replicate_offset=5))
        want = [len(critical_walk(sample_gnp(GnpParams(n, p, 8), stream=5 + r), 2)[2])
                for r in range(20)]
        assert raw.tolist() == [[float(w)] for w in want]


def test_triangle_counts_exact_beyond_float32():
    # 6 x triangles > 2^24 here, where a float32 trace rounds
    from cliquestats.graphs import GnpParams, clique_count, sample_gnp
    raw = mc.simulate_raw(mc.MCConfig("clique", 400, 0.9, 2, 3, 5))
    for r in range(3):
        assert raw[r, 1] == clique_count(sample_gnp(GnpParams(400, 0.9, 5), stream=r), 3)


def test_critical_replicate_memory_is_bounded():
    # About 205,000 triangles at n = 120, p = 0.9: products over a whole
    # level at once would allocate about 470 MB here; in blocks, about 5 MB.
    from cliquestats.graphs import gnp_generator
    from cliquestats.kinds import statistic
    cfg = mc.MCConfig("critical", 120, 0.9, 3, 2, 1)
    tracemalloc.start()
    try:
        row = statistic("critical").replicate(cfg, gnp_generator(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row == [0, 164, 11521]
    assert peak < 64 * 2 ** 20


def test_link_simulation_matches_oracle_moments():
    n, p, d, t = 5, 0.5, 2, (2,)
    em = orc.exact_moments("link", n, p, d, t=t)
    raw = mc.simulate_raw(mc.MCConfig("link", n, p, d, 200_000, 17, t=t))
    for a in range(d):
        se = math.sqrt(em.cov[a][a] / len(raw))
        assert abs(raw[:, a].mean() - em.mean[a]) < 5 * se + 1e-9


def test_critical_simulation_matches_oracle_moments():
    n, p, d = 5, 0.5, 2
    em = orc.exact_moments("critical", n, p, d)
    raw = mc.simulate_raw(mc.MCConfig("critical", n, p, d, 200_000, 19))
    for a in range(d):
        se = math.sqrt(em.cov[a][a] / len(raw))
        assert abs(raw[:, a].mean() - em.mean[a]) < 5 * se + 1e-9


def test_empirical_cov():
    samples = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert np.allclose(mc.empirical_cov(samples), 0.0)
    with pytest.raises(ValueError):
        mc.empirical_cov(np.array([[1.0, 2.0]]))
    assert mc.empirical_cov(np.array([1.0, 2.0, 3.0])).tolist() == [[1.0]]  # one component
    x = mc.mvn_samples(np.eye(3), 500, 1)
    c = mc.empirical_cov(x)
    assert np.array_equal(c, c.T)


def test_mvn_samples_identity_and_degenerate():
    s = mc.mvn_samples(np.eye(2), 100_000, 2)
    c = mc.empirical_cov(s)
    assert np.abs(c - np.eye(2)).max() < 4 / math.sqrt(100_000) * 3
    s = mc.mvn_samples(np.array([[1.0, 1.0], [1.0, 1.0]]), 500, 3)
    assert np.allclose(s[:, 0], s[:, 1])
    assert np.allclose(mc.mvn_samples(np.zeros((2, 2)), 50, 4), 0.0)


def test_mvn_samples_rejects_non_psd():
    bad = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(ValueError):
        mc.mvn_samples(bad, 10, 0)
    with pytest.raises(ValueError):
        mc.psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError, match="square"):
        mc.psd_sqrt(np.ones((2, 3)))


def test_psd_sqrt_squares_back():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    root = mc.psd_sqrt(cov)
    assert np.allclose(root @ root, cov)


def test_smooth_discrepancy_identical_zero():
    w = mc.mvn_samples(np.eye(2), 2000, 5)
    rep = mc.smooth_discrepancy(w, w)
    assert rep.estimate == 0.0
    assert "logistic" in rep.family


def test_smooth_family_size_and_scale():
    fam = mc.smooth_family(2)
    assert len(fam) == (4 + 2) * 3
    assert all(np.max(np.abs(a)) <= 1.0 for a, _ in fam)


def test_smooth_discrepancy_detects_shift():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    w = rng.standard_normal((50_000, 1)) + 0.2
    z = rng.standard_normal((50_000, 1))
    rep = mc.smooth_discrepancy(w, z)
    assert rep.estimate > 10 * rep.stderr


def test_convex_discrepancy_identical_zero_and_detects():
    w = mc.mvn_samples(np.eye(1), 20_000, 8)
    assert mc.convex_discrepancy(w, w).estimate == 0.0
    z = mc.mvn_samples(np.eye(1) * 4.0, 20_000, 9)
    rep = mc.convex_discrepancy(w, z)
    assert rep.estimate > 0.1


def test_convex_family_contains_full_space():
    # the (lo=-inf, hi=+inf) rectangle is part of the family: identical
    # frequencies there, so the max is taken over genuinely informative sets
    w = mc.mvn_samples(np.eye(2), 5000, 10)
    fam = mc.convex_family(w, w, seed=0)
    rects = 1
    for g in fam.grid:
        m = len(g) + 2
        rects *= m * (m - 1) // 2
    assert rects == 55 ** 2
    assert len(fam.halfspaces) == 16 * 9


def _convex_reference(w, z, seed=0):
    """The scalar convex estimator: every grid rectangle's probability summed
    corner by corner, then every halfspace, keeping the first maximum."""
    w, z = (np.asarray(s, dtype=float).reshape(len(s), -1) for s in (w, z))
    family = mc.convex_family(w, z, seed=seed)
    cw = mc._rect_probs(w, family.grid)
    cz = mc._rect_probs(z, family.grid)
    best = (-1.0, 0.0)

    def consider(pw, pz):
        nonlocal best
        est = abs(pw - pz)
        if est > best[0]:
            best = (est, math.sqrt(pw * (1.0 - pw) / len(w) + pz * (1.0 - pz) / len(z)))

    ranges = [list(itertools.combinations(range(len(g) + 2), 2)) for g in family.grid]
    for rect in itertools.product(*ranges):
        pw = pz = 0.0
        for corner in itertools.product(*[(lo, hi) for lo, hi in rect]):
            sign = (-1) ** sum(c == rect[i][0] for i, c in enumerate(corner))
            pw += sign * cw[corner]
            pz += sign * cz[corner]
        consider(pw, pz)
    for u, c in family.halfspaces:
        consider(float(np.mean(w @ u <= c)), float(np.mean(z @ u <= c)))
    return best


def _convex_cases():
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    for d in (1, 2, 3):
        w = rng.standard_normal((1500, d))
        z = 1.2 * rng.standard_normal((1200, d)) + 0.1
        yield pytest.param(w, z, 0, id="d=%d" % d)
        # rounding to a 0.5 grid ties samples with each other and the cuts
        yield pytest.param(np.round(2 * w) / 2, np.round(2 * z) / 2, 3, id="d=%d-ties" % d)
        # few tied rows: many sets share the largest gap, with different
        # stderrs, so the pick among equal gaps shows
        yield pytest.param(np.round(2 * w[:16]) / 2, np.round(2 * z[:16]) / 2, 1,
                           id="d=%d-16-rows-ties" % d)
    x = rng.standard_normal((1000, 1))
    yield pytest.param(np.hstack([x, x]), rng.standard_normal((1000, 2)), 7,
                       id="duplicated-column")
    yield pytest.param(rng.standard_normal(800), rng.standard_normal(900), 0, id="1-D")


@pytest.mark.parametrize("w, z, seed", list(_convex_cases()))
def test_convex_discrepancy_matches_scalar_reference(w, z, seed):
    rep = mc.convex_discrepancy(w, z, seed=seed)
    assert (rep.estimate, rep.stderr) == _convex_reference(w, z, seed)


def _workload_cases():
    # the analysis workload's shape: 20,000 rows per set, correlation 0.3
    for d in (1, 2, 3):
        cov = np.full((d, d), 0.3) + 0.7 * np.eye(d)
        yield pytest.param(mc.mvn_samples(cov, 20_000, 20 + d),
                           mc.mvn_samples(cov, 20_000, 30 + d), d, id="d=%d-20000-rows" % d)
    # W on a 0.2 lattice, as a standardized link count at rates' link d = 1
    # spec: its cuts are lattice points, on which many rows of W fall
    yield pytest.param(np.round(5 * mc.mvn_samples(np.eye(1), 20_000, 24)) / 5,
                       mc.mvn_samples(np.eye(1), 20_000, 34), 5, id="d=1-20000-rows-lattice")


@pytest.mark.parametrize("w, z, seed", list(_convex_cases()) + list(_workload_cases()))
def test_convex_discrepancy_matches_earlier_estimator(w, z, seed):
    # against the estimator as it was, with np.quantile cuts, np.ix_ corner
    # gathers, an (N, 1) matmul at d = 1 and np.add.at: == throughout, as a
    # zero cut's sign may differ between sorted and unsorted quantile input
    rep = mc.convex_discrepancy(w, z, seed=seed)
    want = reference.convex_discrepancy(w, z, seed=seed)
    assert (rep.estimate, rep.stderr, rep.family) == (want.estimate, want.stderr, want.family)
    w, z = mc._columns(w, z)
    fam, ref_fam = mc.convex_family(w, z, seed), reference.convex_family(w, z, seed)
    assert len(fam.grid) == len(ref_fam.grid)
    assert all(np.array_equal(g, h) for g, h in zip(fam.grid, ref_fam.grid))
    assert [c for _, c in fam.halfspaces] == [c for _, c in ref_fam.halfspaces]
    assert all(np.array_equal(u, v) for (u, _), (v, _) in zip(fam.halfspaces, ref_fam.halfspaces))


def _pooled_count_cases():
    rng = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    for d in (1, 2, 3):
        yield pytest.param(rng.standard_normal((1501, d)), rng.standard_normal((1199, d)) - 0.1,
                           2, id="d=%d-1501-1199-rows" % d)
        yield pytest.param(rng.standard_normal((2, d)), rng.standard_normal((3, d)), 5,
                           id="d=%d-2-3-rows" % d)
        # a third of the rows all zeros of either sign, so the middle cuts
        # are zeros and the zero rows' projections fall on them
        signs = np.where(rng.random((900, d)) < 0.5, 0.0, -0.0)
        zeros = np.where(np.arange(900)[:, None] % 3 == 0, signs, rng.standard_normal((900, d)))
        yield pytest.param(zeros[:500], zeros[500:], 6, id="d=%d-signed-zeros" % d)
        # 30 distinct rows, each repeated: every cut is the projection of some rows
        rows = np.round(4 * rng.standard_normal((30, d))) / 4
        yield pytest.param(rows[rng.integers(0, 30, 1001)], rows[rng.integers(0, 20, 801)], 8,
                           id="d=%d-rows-on-cuts" % d)


@pytest.mark.parametrize("w, z, seed", list(_pooled_count_cases()))
def test_convex_pooled_counts_match_earlier_estimator(w, z, seed):
    # the halfspace counts come from one pooled projection, Z's as the pooled
    # count less W's; the earlier estimator projected W and Z apart
    rep = mc.convex_discrepancy(w, z, seed=seed)
    want = reference.convex_discrepancy(w, z, seed=seed)
    assert (rep.estimate, rep.stderr, rep.family) == (want.estimate, want.stderr, want.family)


@pytest.mark.parametrize("w, z, seed", list(_pooled_count_cases()) + list(_convex_cases()))
def test_halfspace_probs_are_each_sets_mean_below_the_cut(w, z, seed):
    w, z = mc._columns(w, z)
    family, (pw, pz) = mc._halfspace_probs(w, z, seed)
    fam = mc.convex_family(w, z, seed)
    assert all(np.array_equal(g, h) for g, h in zip(family.grid, fam.grid))
    assert [c for _, c in family.halfspaces] == [c for _, c in fam.halfspaces]
    assert pw.tolist() == [float(np.mean(w @ u <= c)) for u, c in fam.halfspaces]
    assert pz.tolist() == [float(np.mean(z @ u <= c)) for u, c in fam.halfspaces]
    if len(w) > 100:  # a cut with W rows on both sides of it, so the check is not vacuous
        assert 0.0 < pw.min() < pw.max() < 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 10, 11, 1300, 40_000])
@pytest.mark.parametrize("ties", [False, True])
def test_sorted_quantiles_match_np_quantile(n, ties):
    rng = np.random.Generator(np.random.Philox(key=np.array([n, ties], dtype=np.uint64)))
    x = rng.standard_normal(n) * 3
    if ties:
        x = np.round(2 * x) / 2
    x.sort()
    qs = np.linspace(0.0, 1.0, mc.QUANTILE_CUTS + 2)[1:-1]
    assert np.array_equal(mc._sorted_quantiles(x), np.quantile(x, qs))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_convex_discrepancy_memory_is_bounded(d):
    # one block per first-axis interval at d = 3 and one projection at a
    # time: a whole-family array at d = 3 peaked at 7.0 MB
    cov = np.full((d, d), 0.3) + 0.7 * np.eye(d)
    w, z = mc.mvn_samples(cov, 20_000, 5), mc.mvn_samples(cov, 20_000, 6)
    tracemalloc.start()
    try:
        mc.convex_discrepancy(w, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6, peak


def test_convex_discrepancy_refuses_d5_before_a_gather():
    # at d = 5 the corner gathers of both sample sets would take 25.8 GB, each
    # one small enough to be granted: refused on d alone
    w, z = mc.mvn_samples(np.eye(5), 200, 1), mc.mvn_samples(np.eye(5), 200, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"d=5: its rectangle corners need 25\.8 GB"):
            mc.convex_discrepancy(w, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak
    mc.check_rect_gathers(4)  # 234 MB, within the budget


def _logistic_reference(u):
    """The masked logistic: 1/(1+exp(-u)) where u >= 0 and exp(u)/(1+exp(u))
    elsewhere, each half gathered and scattered through a boolean mask."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _smooth_reference(w, z):
    """The smooth estimator function by function: each ridge's projection
    computed afresh, keeping the first maximum and its pooled stderr."""
    w, z = (np.asarray(s, dtype=float).reshape(len(s), -1) for s in (w, z))
    best = (-1.0, 0.0)
    for a, c in mc.smooth_family(w.shape[1]):
        hw = _logistic_reference(w @ a + c)
        hz = _logistic_reference(z @ a + c)
        est = abs(float(hw.mean() - hz.mean()))
        if est > best[0]:
            best = (est, math.sqrt(float(hw.var(ddof=1)) / len(hw)
                                   + float(hz.var(ddof=1)) / len(hz)))
    return best


def _smooth_cases():
    yield from _convex_cases()
    rng = np.random.Generator(np.random.Philox(key=np.array([13, 0], dtype=np.uint64)))
    # ridge arguments out to about +-800, where exp(-|u|) underflows to 0
    yield pytest.param(230 * rng.standard_normal((2000, 2)),
                       180 * rng.standard_normal((1500, 2)), 0, id="wide-u")


@pytest.mark.parametrize("w, z, seed", list(_smooth_cases()))
def test_smooth_discrepancy_matches_function_by_function_reference(w, z, seed):
    rep = mc.smooth_discrepancy(w, z)
    assert (rep.estimate, rep.stderr) == _smooth_reference(w, z)


def test_logistic_matches_masked_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([14, 0], dtype=np.uint64)))
    # the smallest subnormal, values whose exp(-|u|) is below the rounding
    # of 1 + e, and either side of exp's overflow at 709.78
    special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300,
               5e-324, -5e-324, 1e-17, -1e-17, 708.4, -708.4, 709.8, -709.8,
               np.inf, -np.inf, np.nan]
    u = np.concatenate([special, 40 * rng.standard_normal(2000), special])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mc._logistic(u)
    want = _logistic_reference(u)
    nan = np.isnan(want)
    assert nan.sum() == 2
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _cell_cases():
    rng = np.random.Generator(np.random.Philox(key=np.array([16, 0], dtype=np.uint64)))
    for d in (1, 2, 3, 4):
        for rows in (2, 3, 500):
            x = np.round(2 * rng.standard_normal((rows, d))) / 2
            # the pooled quantile grid of tied rows, and a hand-made grid
            # with repeated cuts and every other row set to one of them
            yield pytest.param(x, mc.convex_family(x, x[::-1]).grid, id="d=%d-%d-rows" % (d, rows))
            repeated = np.sort(np.concatenate([[-1.0, -1.0, 0.0, 0.0, 0.0], x[:, 0]]))[:9]
            with_cuts = np.where(np.arange(rows)[:, None] % 2 == 0, repeated[rows % 9], x)
            yield pytest.param(with_cuts, [repeated] * d, id="d=%d-%d-rows-repeated" % (d, rows))
        const = np.full((40, d), 0.5)
        yield pytest.param(const, mc.convex_family(const, const).grid, id="d=%d-constant" % d)


@pytest.mark.parametrize("samples, grid", list(_cell_cases()))
def test_rect_probs_cells_match_searchsorted(samples, grid):
    # each value's cell index, its count of cuts <= it, is the right-side
    # searchsorted index: the cumulative histograms agree bit for bit
    assert all(np.all(g[:-1] <= g[1:]) for g in grid)
    assert np.array_equal(mc._rect_probs(samples, grid), reference.rect_probs(samples, grid))


@pytest.mark.parametrize("d", [2, 3])
def test_convex_stderr_of_a_rounded_negative_probability(d):
    # inclusion-exclusion rounds one rectangle of these samples to -1.1e-16,
    # and it becomes the argmax: its p(1 - p) counts as 0, not as a negative
    # variance that math.sqrt refuses
    w, z = np.zeros((3 if d == 2 else 2, d)), np.random.default_rng(3).standard_normal((5, d))
    rep = mc.convex_discrepancy(w, z, seed=0)
    want = reference.convex_discrepancy(w, z, seed=0)
    assert math.isfinite(rep.stderr) and rep.stderr >= 0.0
    # the argmax rectangle's gap rounds to 1.0000000000000002: reported as 1
    assert rep.estimate <= 1.0
    assert (rep.estimate, rep.stderr, rep.family) == (want.estimate, want.stderr, want.family)


@pytest.mark.parametrize("ties", [False, True])
def test_convex_family_layout_and_quantiles(ties):
    rng = np.random.Generator(np.random.Philox(key=np.array([15, 0], dtype=np.uint64)))
    w = rng.standard_normal((700, 3))
    z = 1.3 * rng.standard_normal((600, 3)) - 0.2
    if ties:
        w, z = np.round(2 * w) / 2, np.round(2 * z) / 2
    fam = mc.convex_family(w, z, seed=4)
    pooled = np.vstack([w, z])
    qs = np.linspace(0.0, 1.0, mc.QUANTILE_CUTS + 2)[1:-1]
    assert len(fam.grid) == 3
    for i, g in enumerate(fam.grid):
        assert np.array_equal(g, np.quantile(pooled[:, i], qs))
    # runs of QUANTILE_CUTS consecutive pairs share one direction object,
    # one run per direction
    cuts = mc.QUANTILE_CUTS
    assert len(fam.halfspaces) == mc.HALFSPACE_DIRECTIONS * cuts
    assert len({id(u) for u, _ in fam.halfspaces}) == mc.HALFSPACE_DIRECTIONS
    for k in range(0, len(fam.halfspaces), cuts):
        run = fam.halfspaces[k:k + cuts]
        u = run[0][0]
        assert all(v is u for v, _ in run)
        assert [c for _, c in run] == np.quantile(pooled @ u, qs).tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_smooth_family_lists_each_directions_offsets_consecutively(d):
    fam = mc.smooth_family(d)
    assert len({id(a) for a, _ in fam}) == len(fam) // 3
    for k in range(0, len(fam), 3):
        run = fam[k:k + 3]
        assert all(a is run[0][0] for a, _ in run)
        assert [c for _, c in run] == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("estimator", [mc.smooth_discrepancy, mc.convex_discrepancy])
def test_discrepancy_rejects_bad_shapes(estimator):
    with pytest.raises(ValueError):
        estimator(np.zeros((5, 0)), np.zeros((5, 0)))
    with pytest.raises(ValueError):
        estimator(np.zeros((5, 2)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        estimator(np.zeros((0, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        estimator(np.zeros((1, 2)), np.zeros((1, 2)))


@pytest.mark.parametrize("estimator", [mc.smooth_discrepancy, mc.convex_discrepancy])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_discrepancy_rejects_non_finite_samples(estimator, bad):
    # a NaN fails every comparison with the running maximum: unchecked, the
    # smooth estimate stays at its -1.0 start, which bound_check reads as PASS
    good = np.array([[0.0], [1.0], [2.0]])
    one_bad = good.copy()
    one_bad[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, z in ((one_bad, good), (good, one_bad), (one_bad[:, 0], good[:, 0]),
                     (np.full((3, 2), bad), np.zeros((3, 2)))):
            with pytest.raises(ValueError, match="finite"):
                estimator(w, z)


def test_bound_check_verdicts():
    rep = mc.DiscrepancyReport(0.01, 0.001, "f")
    assert mc.bound_check(rep, bd.BoundReport("b", 0.5)) == "PASS"
    rep = mc.DiscrepancyReport(0.3, 0.001, "f")
    assert mc.bound_check(rep, bd.BoundReport("b", 12.0)) == "VACUOUS-PASS"
    rep = mc.DiscrepancyReport(0.5, 0.01, "f")
    assert mc.bound_check(rep, bd.BoundReport("b", 0.1)) == "FAIL"


def test_analytic_zero_variance_rejected():
    with pytest.raises(ValueError):
        mc.simulate_vectors(mc.MCConfig("clique", 10, 1.0, 2, 10, 0))


def test_simulate_raw_two_workers_bit_identical():
    cfg = mc.MCConfig("critical", 12, 0.5, 2, 400, 77)
    assert np.array_equal(mc.simulate_raw(cfg, threads=2), mc.simulate_raw(cfg))


def test_parallel_map_starts_no_more_workers_than_jobs_or_cpus(monkeypatch, fake_pool, cpus):
    # the items are cut into min(threads, items, CPUs) contiguous parts, in
    # order and of sizes that differ by at most one, with a worker per part
    cpus(8)
    items = list(range(20))
    for threads, parts in ((100000, 8), (3, 3), (8, 8)):
        got = mc.parallel_map(lambda part: part, items, threads)
        assert fake_pool.pop() == (parts, got)
        assert [i for part in got for i in part] == items
        assert {len(part) for part in got} <= {20 // parts, -(-20 // parts)}
    # a range is cut into ranges; fn's results come back in part order
    assert mc.parallel_map(len, range(10 ** 20, 10 ** 20 + 5), 100000) == [1] * 5
    assert fake_pool.pop()[1] == [range(10 ** 20 + i, 10 ** 20 + i + 1) for i in range(5)]
    # one thread, one item or one CPU maps the whole sequence in-process
    assert mc.parallel_map(lambda part: part, items, 1) == [items]
    assert mc.parallel_map(lambda part: part, items[:1], 4) == [items[:1]]
    assert mc.parallel_map(lambda part: part, [], 4) == []
    assert not fake_pool
    # without sched_getaffinity, os.cpu_count() caps the parts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert mc.parallel_map(sum, items, 100000) == [sum(items[:10]), sum(items[10:])]
    assert fake_pool.pop()[0] == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert mc.parallel_map(sum, items, 100000) == [sum(items)]
    assert not fake_pool


@pytest.mark.parametrize("cfg", [
    # the golden run whose last replicate reads stream 2^64 - 1, and a run
    # whose parts start mid-block: the table route; critical n = 12: the
    # per-replicate route
    mc.MCConfig("clique", 6, 0.5, 2, 500, 2 ** 64 - 1, replicate_offset=2 ** 64 - 500),
    mc.MCConfig("clique", 6, 0.3, 2, mc.TABLE_BLOCK + 37, 8, replicate_offset=5),
    mc.MCConfig("critical", 12, 0.5, 2, 60, 77),
], ids=["clique-golden", "clique-blocks", "critical"])
def test_simulate_raw_cuts_the_streams_by_workers(cfg, fake_pool, cpus):
    serial = mc.simulate_raw(cfg).tobytes()
    streams = list(range(cfg.replicate_offset, cfg.replicate_offset + cfg.replicates))
    for k in (2, 8):
        cpus(k)
        for threads in (2, 3, 2000):
            assert mc.simulate_raw(cfg, threads=threads).tobytes() == serial, (k, threads)
            size, parts = fake_pool.pop()
            assert size == len(parts) == mc.pool_workers(threads, cfg.replicates) == min(threads, k)
            assert [s for part in parts for s in part] == streams
    assert not fake_pool


def test_check_report_honors_empirical_standardization():
    cfg = mc.MCConfig("clique", 8, 0.5, 2, 2000, 3, standardization="empirical")
    report = vf.matched_normal_report(cfg)
    cov = np.array(mo.statistic_cov_matrix("clique", 8, 2, 0.5).cov)
    sd = np.sqrt(np.diag(cov))
    z = mc.mvn_samples(cov / np.outer(sd, sd), 2000, 4)
    want = mc.smooth_discrepancy(mc.simulate_vectors(cfg), z)
    assert report["discrepancies"]["smooth"]["estimate"] == want.estimate
    analytic = vf.matched_normal_report(mc.MCConfig("clique", 8, 0.5, 2, 2000, 3))
    assert analytic["discrepancies"]["smooth"]["estimate"] != want.estimate


def test_critical_check_computes_each_variance_once():
    # the analytic sd, crit_bound's sigmas and the moment report all ask for
    # crit_variance(10, k, 0.5), k = 1, 2: the cache computes each once
    mo.crit_variance.cache_clear()
    vf.matched_normal_report(mc.MCConfig("critical", 10, 0.5, 2, 500, 5))
    info = mo.crit_variance.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits >= 2


def test_check_report_prints_raw_covariance_off_diagonal():
    # critical has no closed-form cross covariance: the report's off-diagonal
    # is the raw rows' sample covariance, on the scale of its diagonal
    cfg = mc.MCConfig("critical", 10, 0.5, 2, 500, 5)
    moments = vf.matched_normal_report(cfg)["moments"]
    cov = moments["cov"]
    want = mc.empirical_cov(mc.simulate_raw(cfg))
    assert cov[0][1] == cov[1][0] == want[0, 1]
    assert cov[0][0] == mo.crit_variance(10, 1, 0.5)
    assert moments["provenance"] == "empirical"
    # clique and link have one: the whole report is the closed form's, so no
    # empirical off-diagonal reaches it
    for cfg in (mc.MCConfig("clique", 10, 0.5, 2, 500, 5),
                mc.MCConfig("link", 10, 0.5, 2, 500, 5, t=(1, 2))):
        moments = vf.matched_normal_report(cfg)["moments"]
        rep = mo.statistic_cov_matrix(cfg.kind, cfg.n, cfg.d, cfg.p, len(cfg.t))
        assert moments == rep.as_dict()
        assert moments["provenance"] == "analytic"
