import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquestats import bounds as bd
from cliquestats import moments as mo
from cliquestats import montecarlo as mc
from cliquestats import oracle as orc
from cliquestats.graphs import GnpParams, Graph
from reference import crit_mean_bounds, graph_probability, link_cov_lower


def test_comb0_conventions():
    assert mo.comb0(-1, 2) == 0
    assert mo.comb0(3, -1) == 0
    assert mo.comb0(2, 5) == 0
    assert mo.comb0(5, 2) == 10
    assert 0.0 ** 0 == 1.0


def test_eta_at_one():
    assert mo.eta(1, 3, 0.37) == 0.0


def test_crit_mean_examples():
    # oracle-frozen: exhaustive enumeration over the 8 graphs on 3 vertices
    assert math.isclose(mo.crit_mean(3, 1, 0.5), 0.125, rel_tol=1e-14)
    assert mo.crit_mean(10, 2, 1.0) == 0.0
    lo, hi = crit_mean_bounds(10, 2, 0.5)
    assert lo <= mo.crit_mean(10, 2, 0.5) <= hi


def test_crit_mean_bounds_values():
    lo, hi = crit_mean_bounds(3, 1, 0.5)
    assert math.isclose(lo, 0.125) and math.isclose(hi, 2.0)
    assert crit_mean_bounds(7, 2, 1.0) == (0.0, 0.0)
    # k = 1 at p = 0 puts p to a negative power in the upper bound
    assert crit_mean_bounds(5, 1, 0.0) == (0.0, math.inf)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_crit_mean_sandwich(k, p):
    for n in (k + 2, 10, 25, 60):
        lo, hi = crit_mean_bounds(n, k, p)
        assert lo - 1e-12 <= mo.crit_mean(n, k, p) <= hi + 1e-12


def test_crit_variance_examples():
    # oracle-frozen: the single critical-edge indicator at n=3 is Bernoulli(1/8)
    assert math.isclose(mo.crit_variance(3, 1, 0.5), 7.0 / 64.0, rel_tol=1e-12)
    # oracle-frozen: exhaustive enumeration over the 64 graphs on 4 vertices
    assert math.isclose(mo.crit_variance(4, 1, 0.5), 0.3349609375, rel_tol=1e-12)
    assert mo.crit_variance(6, 1, 1e-9) < 1e-6


def test_crit_variance_matches_oracle_spread():
    for (n, k, p) in [(5, 1, 0.3), (5, 2, 0.5), (6, 2, 0.3), (6, 3, 0.4)]:
        em = orc.exact_moments("critical", n, p, k)
        assert math.isclose(mo.crit_variance(n, k, p), em.cov[k - 1][k - 1],
                            rel_tol=1e-10)
        assert math.isclose(mo.crit_mean(n, k, p), em.mean[k - 1], rel_tol=1e-10)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_crit_variance_nonnegative_grid(p):
    for n in (3, 6, 12, 25):
        for k in range(1, min(3, n - 1) + 1):
            assert mo.crit_variance(n, k, p) >= 0.0


def test_crit_variance_domain():
    with pytest.raises(ValueError):
        mo.crit_variance(5, 5, 0.5)
    with pytest.raises(ValueError):
        mo.crit_variance(5, 1, -0.1)
    # degenerate endpoints: the count is a.s. zero
    assert mo.crit_variance(5, 1, 0.0) == 0.0
    assert mo.crit_variance(5, 1, 1.0) == 0.0
    # the cache is typed: a float n is not the int's entry, and fails as the
    # uncached call does
    mo.crit_variance(5, 1, 0.5)
    with pytest.raises(TypeError):
        mo.crit_variance(5.0, 1, 0.5)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_crit_variance_cache_returns_the_computed_value(p):
    for k in (1, 2, 3):
        want = mo.crit_variance.__wrapped__(12, k, p).hex()
        assert [mo.crit_variance(12, k, p).hex() for _ in range(2)] == [want, want]


def test_crit_variance_lower_dominated_and_clamped():
    assert mo.crit_variance_lower(10, 1, 0.5) == 0.0  # clamped vacuous case
    for n in (100, 200, 400):
        assert mo.crit_variance_lower(n, 1, 0.5) <= mo.crit_variance(n, 1, 0.5)
    # k >= 2 is where the m >= 2 same-minimum remainder sum is not empty
    for k in (2, 3):
        for n in (k + 2, 10, 30, 100):
            for p in (0.2, 0.5, 0.8):
                assert 0.0 <= mo.crit_variance_lower(n, k, p) <= mo.crit_variance(n, k, p)


def test_crit_variance_lower_eventually_positive():
    n_star = mo.smallest_positive_lower_bound_n(1, 0.5)
    assert n_star is not None
    assert mo.crit_variance_lower(n_star, 1, 0.5) > 0.0
    assert mo.crit_variance_lower(n_star - 1, 1, 0.5) == 0.0
    assert mo.smallest_positive_lower_bound_n(1, 0.5, n_max=1000) is None
    # the doubling is capped at n_max, and n_max itself is tested
    for n_max, want in ((19313, None), (19314, 19314), (20000, 19314)):
        assert mo.smallest_positive_lower_bound_n(1, 0.5, n_max=n_max) == want, n_max


def test_crit_tail_bound_values():
    got = mo.crit_tail_bound(50, 1, 0.5, 49)
    assert math.isclose(got, 2.0 * 50 * 0.75 ** 49, rel_tol=1e-12)
    got = mo.crit_tail_bound(30, 1, 0.5, 1)
    assert math.isclose(got, 2.0 * 30 * 0.75, rel_tol=1e-12)
    with pytest.raises(ValueError):
        mo.crit_tail_bound(30, 1, 0.5, 30)


def test_link_mean_examples():
    p = 0.37
    assert math.isclose(mo.link_mean(4, 1, 0, p), 3 * p, rel_tol=1e-14)
    assert math.isclose(mo.link_mean(5, 2, 1, 0.5), 3 * 2.0 ** -5, rel_tol=1e-14)
    assert mo.link_mean(6, 1, 2, 1.0) == math.comb(5, 3)
    with pytest.raises(ValueError):
        mo.link_mean(2, 3, 0, 0.5)
    for call in (lambda: mo.link_mean(5, 0, 0, 0.5), lambda: mo.link_cov(5, 0, 0, 0, 0.5)):
        with pytest.raises(ValueError, match="t_size must be >= 1"):
            call()
    for call in (lambda: mo.link_mean(5, 1, -1, 0.5), lambda: mo.link_cov(5, 1, 1, -1, 0.5)):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            call()


def test_link_cov_binomial_reduction():
    p = 0.41
    assert math.isclose(mo.link_cov(4, 1, 0, 0, p), 3 * p * (1 - p), rel_tol=1e-12)
    assert mo.link_cov(5, 1, 1, 1, 1.0) == 0.0
    # degenerate case where the single-overlap lower bound is attained exactly
    assert math.isclose(link_cov_lower(4, 1, 0, 0, p), 3 * p * (1 - p),
                        rel_tol=1e-12)
    assert link_cov_lower(6, 1, 1, 0, 0.0) == link_cov_lower(6, 1, 1, 0, 1.0) == 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_link_cov_dominates_lower_bound(p):
    for (n, ts) in [(6, 1), (8, 2), (12, 1)]:
        for k in range(0, 3):
            for l in range(0, k + 1):
                if k + 1 > n - ts:
                    continue
                assert mo.link_cov(n, ts, k, l, p) >= \
                    link_cov_lower(n, ts, k, l, p) - 1e-12


def test_link_cov_symmetric_in_dims():
    assert mo.link_cov(8, 2, 2, 1, 0.4) == mo.link_cov(8, 2, 1, 2, 0.4)
    for n, ts in [(6, 1), (8, 2), (12, 1)]:
        for k, l in [(0, 1), (0, 2), (1, 2)]:
            assert link_cov_lower(n, ts, k, l, 0.4) == link_cov_lower(n, ts, l, k, 0.4)


def test_clique_moments():
    assert math.isclose(mo.clique_mean(4, 3, 0.5), 0.5, rel_tol=1e-14)
    p = 0.63
    assert math.isclose(mo.clique_cov(3, 1, 1, p), 3 * p * (1 - p), rel_tol=1e-12)
    # oracle-frozen: E(T2 T3) over the 8 graphs minus product of means
    assert math.isclose(mo.clique_cov(3, 1, 2, p), 3 * p ** 3 * (1 - p), rel_tol=1e-12)
    assert mo.clique_cov(5, 1, 2, 1.0) == 0.0
    for k in (1, 5):
        with pytest.raises(ValueError, match="need 2 <= size <= n"):
            mo.clique_mean(4, k, 0.5)
    for i, j in ((0, 1), (1, 4)):
        with pytest.raises(ValueError, match=r"sizes must lie in \[2, n\]"):
            mo.clique_cov(4, i, j, 0.5)


def test_statistic_cov_matrix_clique():
    rep = mo.statistic_cov_matrix("clique", 3, 2, 0.5)
    assert rep.provenance == "analytic"
    assert rep.mean == [1.5, 0.125]
    assert math.isclose(rep.cov[0][0], 0.75)
    assert math.isclose(rep.cov[1][1], 7.0 / 64.0)
    assert math.isclose(rep.cov[0][1], 3 * 0.5 ** 3 * 0.5)


def test_statistic_cov_matrix_critical():
    rep = mo.statistic_cov_matrix("critical", 3, 1, 0.5)
    assert rep.provenance == "analytic"
    assert rep.mean == [0.125]
    assert math.isclose(rep.cov[0][0], 0.109375)
    em = orc.exact_moments("critical", 5, 0.4, 2)
    rep2 = mo.statistic_cov_matrix("critical", 5, 2, 0.4,
                                   oracle_offdiag=(em.cov, "exact-oracle"))
    assert rep2.provenance == "exact-oracle"
    assert math.isclose(rep2.cov[0][1], em.cov[0][1], rel_tol=1e-12)
    with pytest.raises(ValueError):
        mo.statistic_cov_matrix("critical", 5, 2, 0.4)


def test_statistic_cov_matrix_link():
    rep = mo.statistic_cov_matrix("link", 4, 1, 0.5, t_size=1)
    assert rep.mean == [1.5] and math.isclose(rep.cov[0][0], 0.75)


@pytest.mark.parametrize("kind,kwargs", [
    ("clique", {"n": 6, "d": 3}),
    ("link", {"n": 7, "d": 3, "t_size": 2}),
])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_cov_matrices_psd(kind, kwargs, p):
    rep = mo.statistic_cov_matrix(kind, p=p, **kwargs)
    c = np.array(rep.cov)
    assert np.allclose(c, c.T)
    evs = np.linalg.eigvalsh(c)
    assert evs.min() >= -1e-9 * max(np.trace(c), 1.0)


@given(st.integers(5, 20), st.integers(1, 3),
       st.floats(0.05, 0.95), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_link_cov_cauchy_schwarz(n, t_size, p, k, l):
    if max(k, l) + 1 > n - t_size:
        return
    c = mo.link_cov(n, t_size, k, l, p)
    v1 = mo.link_cov(n, t_size, k, k, p)
    v2 = mo.link_cov(n, t_size, l, l, p)
    assert c * c <= v1 * v2 * (1.0 + 1e-9)
    assert v1 >= 0.0 and v2 >= 0.0


@given(st.integers(4, 16), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_clique_cov_cauchy_schwarz(n, i, j, p):
    if max(i, j) + 1 > n:
        return
    c = mo.clique_cov(n, i, j, p)
    assert c >= 0.0
    assert c * c <= mo.clique_cov(n, i, i, p) * mo.clique_cov(n, j, j, p) * (1.0 + 1e-9)


def test_moment_report_json():
    rep = mo.statistic_cov_matrix("clique", 3, 1, 0.5)
    payload = rep.as_dict()
    assert set(payload) == {"kind", "params", "mean", "cov", "provenance"}
    with pytest.raises(ValueError, match="d must be >= 1"):
        mo.statistic_cov_matrix("clique", 3, 0, 0.5)


@pytest.mark.parametrize("call", [
    lambda p: GnpParams(3, p),
    lambda p: graph_probability(Graph.empty(3), p),
    lambda p: mc.MCConfig("clique", 5, p, 1, 10, 0),
    lambda p: orc.exact_distribution("clique", 3, p, 1),
    lambda p: mo.crit_mean(5, 1, p),
    lambda p: crit_mean_bounds(5, 1, p),
    lambda p: mo.crit_variance(5, 1, p),
    lambda p: mo.link_mean(5, 1, 1, p),
    lambda p: mo.link_cov(5, 1, 1, 1, p),
    lambda p: mo.clique_mean(5, 2, p),
    lambda p: mo.clique_cov(5, 1, 1, p),
    lambda p: link_cov_lower(10, 1, 1, 1, p),
])
@pytest.mark.parametrize("p", [-0.5, 1.5, math.nan])
def test_p_outside_unit_interval_rejected_with_one_message(call, p):
    with pytest.raises(ValueError, match=r"^p must lie in \[0,1\]$"):
        call(p)
    call(0.5)


@pytest.mark.parametrize("call", [
    lambda p: bd.crit_bound(5, 1, p),
    lambda p: bd.link_bound(5, 1, 1, p),
    lambda p: bd.clique_bound(5, 1, p),
])
@pytest.mark.parametrize("p", [0.0, 1.0, math.nan])
def test_bounds_need_p_strictly_inside(call, p):
    with pytest.raises(ValueError, match=r"^p must lie in \(0,1\)$"):
        call(p)
