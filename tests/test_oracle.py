import functools
import math

import numpy as np
import pytest

from cliquestats import kinds
from cliquestats import moments as mo
from cliquestats import montecarlo as mc
from cliquestats import oracle
from cliquestats import verify as vf
from cliquestats.oracle import ExactDistribution, exact_distribution, exact_moments
from cliquestats.graphs import EnumerationCapError
from cliquestats.kinds import STATS, _small_graph_counts
from reference import GRAPH_COUNTS, all_graphs, law_moments

TABLE_KINDS = [("critical", ()), ("clique", ()), ("link", (2,)), ("link", (1, 3))]
LINK_TS = [(1,), (2, 4), (2, 3), (1, 2, 3)]
MOMENT_KINDS = [("critical", ()), ("clique", ()),
                ("link", (1,)), ("link", (2,)), ("link", (1, 3)), ("link", (2, 4))]


def _pmf(dist):
    """The law as {count tuple: mass}."""
    return dict(zip(map(tuple, dist.points.tolist()), dist.weights.tolist()))


def test_distribution_critical_n3():
    dist = exact_distribution("critical", 3, 0.5, 1)
    pmf = _pmf(dist)
    assert set(pmf) == {(0,), (1,)}
    assert math.isclose(pmf[(1,)], 1.0 / 8.0, rel_tol=1e-12)
    assert math.isclose(dist.expect(np.ones_like)[0], 1.0, abs_tol=1e-12)


def test_distribution_clique_point_mass():
    dist = exact_distribution("clique", 3, 1.0, 2)
    assert dist.points.tolist() == [[3, 1]]
    assert dist.weights.tolist() == [1.0]


def test_distribution_link_binomial():
    pmf = _pmf(exact_distribution("link", 3, 0.5, 1, t=(1,)))
    for m in range(3):
        assert math.isclose(pmf[(m,)], math.comb(2, m) * 0.5 ** 2, rel_tol=1e-12)


def test_moments_zero_at_p0():
    em = exact_moments("clique", 4, 0.0, 2)
    assert em.mean == [0.0, 0.0]
    assert all(all(v == 0.0 for v in row) for row in em.cov)


def test_moments_against_analytic_spotchecks():
    em = exact_moments("critical", 3, 0.5, 1)
    assert math.isclose(em.mean[0], 0.125, rel_tol=1e-12)
    assert math.isclose(em.cov[0][0], 0.109375, rel_tol=1e-12)
    em = exact_moments("clique", 3, 0.5, 2)
    assert math.isclose(em.cov[0][1], 3 * 0.5 ** 3 * 0.5, rel_tol=1e-12)
    em = exact_moments("link", 5, 0.3, 2, t=(2,))
    for i in range(2):
        assert math.isclose(em.mean[i], mo.link_mean(5, 1, i, 0.3), rel_tol=1e-10)
        for j in range(2):
            assert math.isclose(em.cov[i][j], mo.link_cov(5, 1, i, j, 0.3),
                                rel_tol=1e-10)


def test_cap_and_param_errors():
    with pytest.raises(EnumerationCapError):
        exact_distribution("clique", 7, 0.5, 2)
    with pytest.raises(ValueError):
        exact_distribution("link", 4, 0.5, 1)  # missing t
    with pytest.raises(ValueError, match="takes no fixed subset"):
        exact_distribution("clique", 4, 0.5, 2, t=(1,))
    with pytest.raises(ValueError):
        exact_distribution("nope", 4, 0.5, 1)


def test_serialization_sorted_support():
    dist = exact_distribution("clique", 4, 0.5, 2)
    assert dist.points.tolist() == sorted(dist.points.tolist())
    assert dist.weights.shape == (len(dist.points),)


def test_oracle_gate_fails_an_infinite_closed_form(monkeypatch):
    # an infinite covariance is not relatively close to the finite oracle one
    monkeypatch.setattr(kinds, "clique_cov", lambda *a: math.inf)
    rows = vf.suite_oracle(n_max=3, ps=(0.5,))
    clique = [r for r in rows if r.name.startswith("oracle clique ")]
    assert clique and all(r.status == "FAIL" for r in clique)
    assert all(r.ok for r in rows if r not in clique)


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
def test_oracle_rejects_p_outside_unit_interval(p, monkeypatch):
    monkeypatch.setattr(oracle, "_small_graph_counts", lambda *a: pytest.fail("counted"))
    for fn in (exact_distribution, exact_moments):
        with pytest.raises(ValueError, match=r"p must lie in \[0,1\]"):
            fn("clique", 4, p, 2)


def _last_d(kind, n, t):
    """The room left for d, and for clique and link two past it: the link
    route reads clique tables past the room, whose columns must be 0."""
    top = n - len(t) + 1 - STATS[kind].first_size
    return top if kind == "critical" else top + 2


@functools.lru_cache(maxsize=None)
def _graph_counts(kind, n, t):
    """(edge count, count vector at _last_d) of every graph on n vertices,
    from the kind's per-graph walk; a smaller d is a prefix."""
    last = _last_d(kind, n, t)
    return [(g.edge_count, GRAPH_COUNTS[kind](g, last, t)) for g in all_graphs(n)]


@pytest.mark.parametrize("kind,t", TABLE_KINDS + [("link", t) for t in LINK_TS])
def test_count_table_matches_count_kernel(kind, t):
    """Every mask, n <= 6 and d up to _last_d, against the per-graph walk."""
    for n in range(max((2, *t)), 7):
        want = np.array([v for _, v in _graph_counts(kind, n, t)], dtype=np.int16)
        for d in range(1, _last_d(kind, n, t) + 1):
            table = _small_graph_counts(kind, n, d, t)
            assert table.shape == (2 ** math.comb(n, 2), d)
            assert table.dtype == np.int16
            assert not table.flags.writeable  # shared through the cache
            assert np.array_equal(table, want[:, :d]), (n, d)


def _per_graph_distribution(kind, n, p, d, t=None):
    """The oracle as it was before the count table: run the kind's count kernel
    on every graph and add each graph's weight to its count vector's mass, in
    edge-mask order, in a dict."""
    stat = kinds.statistic(kind)
    if t is not None:
        t = tuple(sorted(t))
    stat.check(n, d, t)
    m = math.comb(n, 2)
    wtable = [p ** e * (1.0 - p) ** (m - e) for e in range(m + 1)]
    masses = {}
    for e, v in _graph_counts(kind, n, t or ()):
        w = wtable[e]
        if w == 0.0:
            continue
        masses[v[:d]] = masses.get(v[:d], 0.0) + w
    support = sorted(masses)
    params = {"n": n, "p": p, "d": d}
    if t is not None:
        params["t"] = list(t)
    return ExactDistribution(kind, params, np.array(support, dtype=np.int64),
                             np.array([masses[v] for v in support]))


def _specs(kind, t):
    """(n, d) of every oracle spec of the kind at this t."""
    return [(n, d) for n in range(max((2, *t)), 7)
            for d in range(1, n - len(t) + 2 - STATS[kind].first_size)]


@pytest.mark.parametrize("kind,t", TABLE_KINDS)
def test_exact_distribution_matches_per_graph_reference(kind, t):
    _small_graph_counts.cache_clear()
    ps = (0.0, 1e-300, 0.2, 0.5, 1 - 1e-16, 1.0)  # the table built at p = 0 serves the rest
    specs = _specs(kind, t)
    for n, d in specs:
        for p in ps:
            got = exact_distribution(kind, n, p, d, t or None)
            want = _per_graph_distribution(kind, n, p, d, t or None)
            assert (got.kind, repr(got.params)) == (want.kind, repr(want.params))
            # dtypes tell ints from floats, and the weights' bits +0 from -0
            assert (got.points.dtype, got.weights.dtype) == (np.int64, np.float64)
            assert (got.points.shape, got.weights.shape) == (want.points.shape, want.weights.shape)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))
    info = _small_graph_counts.cache_info()
    assert (info.misses, info.hits) == (len(specs), len(specs) * (len(ps) - 1))


@pytest.mark.parametrize("kind,t", MOMENT_KINDS)
def test_moments_match_the_summation_reference(kind, t):
    """The law's mean and covariance, and exact_moments', equal the atom-by-atom fsums
    bit for bit, at every spec and at p where powers of p underflow or round to 1."""
    for n, d in _specs(kind, t):
        for p in (0.0, 1e-300, 0.2, 0.37, 0.5, 0.8, 1 - 1e-16, 1.0):
            want = repr(law_moments(exact_distribution(kind, n, p, d, t or None)))
            em = exact_moments(kind, n, p, d, t or None)
            assert repr((em.mean, em.cov)) == want, (n, d, p)


def test_t_is_echoed_only_for_a_kind_that_takes_it():
    for kind in ("critical", "clique"):
        for t in ((), None):
            assert exact_distribution(kind, 4, 0.5, 2, t=t).params == {"n": 4, "p": 0.5, "d": 2}
            assert "t" not in exact_moments(kind, 4, 0.5, 2, t=t).params
    assert exact_distribution("link", 5, 0.5, 2, t=(3, 1)).params["t"] == [1, 3]
    assert exact_moments("link", 5, 0.5, 2, t=(3, 1)).params["t"] == [1, 3]


def test_count_table_is_the_montecarlo_cache_hook():
    # perfbench empties the table cache through montecarlo before warming up
    assert mc._small_graph_counts is kinds._small_graph_counts
    assert callable(mc._small_graph_counts.cache_clear)
    assert callable(mc._small_graph_counts.cache_info)
