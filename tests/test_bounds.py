import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cliquestats import bounds as bd
from cliquestats import moments as mo
from cliquestats.graphs import all_graphs, check_p, graph_probability


def test_moment_bound_examples():
    assert math.isclose(bd.moment_bound(0.5, 0.5, 1, 1, 1), 0.25, rel_tol=1e-14)
    assert bd.moment_bound(0.0, 0.5, 1, 1, 1) == 0.0
    one = bd.moment_bound(0.3, 0.6, 1.0, 2.0, 3.0)
    assert math.isclose(bd.moment_bound(0.3, 0.6, 2.0, 2.0, 3.0), 2 * one)
    with pytest.raises(ValueError):
        bd.moment_bound(1.2, 0.5, 1, 1, 1)
    with pytest.raises(ValueError):
        bd.moment_bound(0.5, 0.5, 0.0, 1, 1)


def test_convex_bound():
    assert bd.convex_bound(3, 0.0).value == 0.0
    want = 2.0 ** 3.5 * 3.0 ** -0.75
    assert math.isclose(bd.convex_bound(1, 1.0).value, want, rel_tol=1e-14)
    assert bd.convex_bound(2, 1.0).value > bd.convex_bound(1, 1.0).value
    assert bd.convex_bound(1, 2.0).value > bd.convex_bound(1, 1.0).value


def one_summand_instance(moment=1.0):
    idx = ("s", 1)
    return bd.DissociatedInstance(
        1, [[idx]], lambda s, j: [idx], lambda s, t, u: (moment, moment))


def test_generic_bound_single_fair_sign():
    # one +-1 summand, its own neighbourhood: (1/3)(0.5*1 + 1*1) = 0.5
    assert math.isclose(bd.generic_bound(one_summand_instance()).value, 0.5)


def test_generic_bound_empty():
    inst = bd.DissociatedInstance(1, [[]], lambda s, j: [], lambda s, t, u: (0, 0))
    assert bd.generic_bound(inst).value == 0.0


def test_generic_bound_iid_scaling():
    # N independent standardized summands, each its own neighbourhood,
    # scaled by N^(-1/2): B = N * (1/3) * (3/2) * N^(-3/2) = 0.5 / sqrt(N)
    def make(N):
        ids = [(i, 1) for i in range(N)]
        c = N ** -0.5
        return bd.DissociatedInstance(
            1, [ids], lambda s, j: [s], lambda s, t, u: (c ** 3, c ** 3))
    b100 = bd.generic_bound(make(100)).value
    b400 = bd.generic_bound(make(400)).value
    assert math.isclose(b100, 0.05, rel_tol=1e-12)
    assert math.isclose(b400 / b100, 0.5, rel_tol=1e-12)


def test_generic_bound_budget():
    with pytest.raises(bd.BudgetExceededError):
        bd.generic_bound(one_summand_instance(), term_budget=1)


def test_uniform_bound_examples():
    rep = bd.uniform_bound(1, [7], [[2.0]], [[[0.3]]])
    assert math.isclose(rep.value, (1 / 3) * 7 * 2.0 * (1.5 * 2.0 + 2 * 2.0) * 0.3)
    assert bd.uniform_bound(2, [3, 4], [[1, 1], [1, 1]],
                            [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]).value == 0.0
    with pytest.raises(ValueError):
        bd.uniform_bound(2, [3], [[1]], [[[1]]])


def test_uniform_majorizes_generic_on_enumerated_instance():
    for kind, n, d in [("clique", 5, 2), ("critical", 5, 1), ("link", 5, 1)]:
        t = (2,) if kind == "link" else ()
        inst = bd.subset_instance(n, d, 0.5, kind, t=t)
        gb = bd.generic_bound(inst)
        sizes = [len(x) for x in inst.index_sets]
        alpha = [[max((len(inst.neighborhood(s, j + 1)) for s in inst.index_sets[i]),
                      default=0) for j in range(d)] for i in range(d)]
        beta = [[[max(max(inst.abs_moment(s, t_, u))
                      for s in inst.index_sets[i]
                      for t_ in inst.index_sets[j]
                      for u in inst.index_sets[k])
                  for k in range(d)] for j in range(d)] for i in range(d)]
        ub = bd.uniform_bound(d, sizes, alpha, beta)
        assert ub.value >= gb.value - 1e-12, kind


def exact_abs_moments_instance(n, d, p):
    """Critical-count instance with moments from exhaustive enumeration."""
    inst = bd.subset_instance(n, d, p, "critical")
    idx = [s for comp in inst.index_sets for s in comp]
    sigma = [math.sqrt(mo.crit_variance(n, k, p)) for k in range(1, d + 1)]
    graphs = list(all_graphs(n))
    weights = [graph_probability(g, p) for g in graphs]
    cols = {}
    for s in idx:
        phi, i = s
        mu = sum(w for g, w in zip(graphs, weights)
                 if _crit_ind(g, phi))
        cols[s] = [((1 if _crit_ind(g, phi) else 0) - mu) / sigma[i - 1]
                   for g in graphs]

    def abs_moment(s, t, u):
        xs, xt, xu = cols[s], cols[t], cols[u]
        triple = sum(w * abs(a * b * c) for w, a, b, c in zip(weights, xs, xt, xu))
        st = sum(w * abs(a * b) for w, a, b in zip(weights, xs, xt))
        eu = sum(w * abs(c) for w, c in zip(weights, xu))
        return triple, st * eu

    return bd.DissociatedInstance(d, inst.index_sets, inst.neighborhood, abs_moment)


def _crit_ind(g, phi):
    """1 iff phi is a clique of g left unmatched by the lexicographical
    matching, built one size beyond phi so an upward match is seen."""
    if any(not g.has_edge(a, b) for a, b in itertools.combinations(phi, 2)):
        return 0
    return int(phi not in _matched(g, min(len(phi) + 1, g.n)))


@functools.lru_cache(maxsize=None)
def _matched(g, max_size):
    from cliquestats.morse import lex_matching
    return lex_matching(g, max_size).simplices()


def test_crit_bound_dominates_generic():
    n, d, p = 5, 1, 0.5
    cb = bd.crit_bound(n, d, p).smooth
    capped_inst = bd.subset_instance(n, d, p, "critical")
    gb_capped = bd.generic_bound(capped_inst).value
    gb_exact = bd.generic_bound(exact_abs_moments_instance(n, d, p)).value
    # exact moments <= Bernoulli moment caps <= grouped evaluation,
    # and the grouping slack stays moderate
    assert gb_exact <= gb_capped + 1e-9
    assert gb_capped <= cb.value + 1e-9
    assert cb.value <= 10 * gb_capped


def test_crit_bound_basic():
    pair = bd.crit_bound(12, 2, 0.5)
    assert pair.smooth.value >= 0.0 and math.isfinite(pair.smooth.value)
    assert math.isclose(pair.convex.value,
                        bd.convex_bound(2, pair.smooth.value).value, rel_tol=1e-12)
    with pytest.raises(ValueError):
        bd.crit_bound(5, 5, 0.5)
    with pytest.raises(ValueError):
        bd.crit_bound(5, 1, 1.0)


def test_link_bound_values():
    pair = bd.link_bound(50, 1, 1, 0.5)
    want = (7.0 / 6.0) * 3 ** 13.5 * 2 ** 6
    assert math.isclose(pair.smooth.params["constant"], want, rel_tol=1e-12)
    assert math.isclose(pair.smooth.value, want / math.sqrt(49), rel_tol=1e-12)
    # halves when n - |t| quadruples
    v1 = bd.link_bound(101, 1, 1, 0.5).smooth.value
    v2 = bd.link_bound(401, 1, 1, 0.5).smooth.value
    assert math.isclose(v2 / v1, 0.5, rel_tol=1e-12)
    # (p^-|t| - 1)^(-3/2) divergence as p -> 1
    assert bd.link_bound(50, 1, 1, 0.999).smooth.value > 100 * pair.smooth.value
    with pytest.raises(ValueError):
        bd.link_bound(1, 1, 1, 0.5)


def test_clique_bound_values():
    assert math.isclose(bd.clique_bound(1, 1, 0.5).smooth.params["constant"],
                        32.0 / 3.0, rel_tol=1e-14)
    d2 = bd.clique_bound(1, 2, 0.5).smooth.params["constant"]
    assert math.isclose(d2, (16.0 / 3.0) * 2 ** 9 * 2 ** 8 * (7.0 / 8.0), rel_tol=1e-12)
    v_n = bd.clique_bound(100, 2, 0.5).smooth.value
    v_2n = bd.clique_bound(200, 2, 0.5).smooth.value
    assert math.isclose(v_2n, v_n / 2, rel_tol=1e-12)


def test_ustat_bounds():
    a, b = 0.4, 1.7
    rep = bd.ustat_bound([1], [a], b)
    assert math.isclose(rep.value, 4 * b / (3 * a ** 1.5), rel_tol=1e-12)
    assert bd.ustat_bound([2, 3], [1.0, 1.0], 0.0).value == 0.0
    assert math.isclose(bd.ustat_no_x_bound([1], [a], b).value, 8 * rep.value,
                        rel_tol=1e-12)
    assert rep.rate_exponent == -0.5
    assert bd.ustat_no_x_bound([1], [a], b).rate_exponent == -1.0
    with pytest.raises(ValueError):
        bd.ustat_bound([0], [1.0], 1.0)
    with pytest.raises(ValueError):
        bd.ustat_bound([1], [0.0], 1.0)


def test_convex_member_is_exact_transfer_of_smooth():
    for pair in (bd.clique_bound(50, 2, 0.5), bd.link_bound(50, 1, 2, 0.5),
                 bd.crit_bound(10, 2, 0.5)):
        assert pair.smooth.value >= 0.0
        assert math.isclose(pair.convex.value,
                            bd.convex_bound(pair.smooth.params["d"],
                                            pair.smooth.value).value,
                            rel_tol=1e-14)


def test_vacuous_flag():
    assert not bd.BoundReport("x", 1.9).vacuous
    assert bd.BoundReport("x", 2.0).vacuous
    with pytest.raises(ValueError):
        bd.BoundReport("x", -0.1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_bound_report_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="not finite and nonnegative"):
        bd.BoundReport("x", value)


def test_instance_independence_factorization():
    # disjoint supports under the applicable overlap rule mean the joint
    # indicator expectation factorizes (checked by enumeration)
    n, p = 5, 0.45
    graphs = list(all_graphs(n))
    weights = [graph_probability(g, p) for g in graphs]

    def clique_ind(g, phi):
        return 1 if all(g.has_edge(a, b) for a, b in itertools.combinations(phi, 2)) else 0

    # clique kind, share >= 2 rule: psi sharing <= 1 vertex with phi
    phi, psi = (1, 2, 3), (3, 4, 5)
    e_joint = sum(w * clique_ind(g, phi) * clique_ind(g, psi)
                  for g, w in zip(graphs, weights))
    e_prod = (sum(w * clique_ind(g, phi) for g, w in zip(graphs, weights))
              * sum(w * clique_ind(g, psi) for g, w in zip(graphs, weights)))
    assert math.isclose(e_joint, e_prod, abs_tol=1e-12)

    # critical kind, share >= 1 rule: disjoint phi, psi
    phi, psi = (2, 3), (4, 5)
    e_joint = sum(w * _crit_ind(g, phi) * _crit_ind(g, psi)
                  for g, w in zip(graphs, weights))
    e_prod = (sum(w * _crit_ind(g, phi) for g, w in zip(graphs, weights))
              * sum(w * _crit_ind(g, psi) for g, w in zip(graphs, weights)))
    assert math.isclose(e_joint, e_prod, abs_tol=1e-12)


def test_subset_instance_neighborhood_rules():
    inst = bd.subset_instance(5, 2, 0.5, "clique")
    s = ((1, 2), 1)
    hood = inst.neighborhood(s, 1)
    assert s in hood  # self always dependent
    assert all(len(set(phi) & {1, 2}) >= 2 for phi, _ in hood)
    inst = bd.subset_instance(5, 1, 0.5, "critical")
    hood = inst.neighborhood(((1, 2), 1), 1)
    assert all(len(set(phi) & {1, 2}) >= 1 for phi, _ in hood)


# ---------------------------------------------------------------------------
# closed-form pair counts against enumeration, and crit_bound and
# crit_variance against the scalar loops they replaced


def _subsets_with_min(n, size, a):
    return [(a,) + rest for rest in itertools.combinations(range(a + 1, n + 1), size - 1)]


def test_pairs_with_minima_matches_enumeration():
    for n in range(2, 10):
        for i in range(1, 4):
            for j in range(1, 4):
                table = None  # no table without a minimum for both sizes
                if max(i, j) < n:
                    rows = bd._pairs_with_minima(n, i, j)
                    table = rows(0, n - i)
                    assert table.shape == (n - i, n - j)
                    half = (n - i) // 2
                    assert (np.concatenate([rows(0, half), rows(half, n - i)]) == table).all()
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        want = sum(1 for phi in _subsets_with_min(n, i + 1, a)
                                   for psi in _subsets_with_min(n, j + 1, b)
                                   if set(phi) & set(psi))
                        got = table[a - 1, b - 1] if a <= n - i and b <= n - j else 0
                        assert got == want, (n, i, a, j, b)


def test_neighborhood_count_matches_enumeration():
    # crit_bound's dmax: size-(k+1) subsets of [n] meeting a fixed size-(l+1) one
    for n in range(2, 10):
        for l in range(1, 4):
            for k in range(1, 4):
                if l + 1 > n:
                    continue
                fixed = set(range(1, l + 2))
                want = sum(1 for s in itertools.combinations(range(1, n + 1), k + 1)
                           if fixed.intersection(s))
                assert math.comb(n, k + 1) - math.comb(n - l - 1, k + 1) == want


def _reference_pairs_with_minima(n, i, a, j, b):
    total = mo.comb0(n - a, i) * mo.comb0(n - b, j)
    if a == b:
        return total
    if a > b:
        a, b, i, j = b, a, j, i
    disj = sum(mo.comb0(b - a - 1, i - f) * mo.comb0(n - b, f) * mo.comb0(n - b - f, j)
               for f in range(0, min(i, n - b) + 1))
    return total - disj


def _reference_crit_variance(n, k, p):
    """The scalar loop crit_variance evaluates in numpy blocks, term for term
    and in the same order."""
    mo._check_crit_args(n, k)
    check_p(p)
    if p in (0.0, 1.0):
        return 0.0  # the count is a.s. 0 at both endpoints
    C = mo.comb0
    ck1 = math.comb(k + 1, 2)
    pk = p ** k
    pk1 = p ** (k + 1)
    e = [0.0] * (n - k + 1)
    for a in range(1, n - k + 1):
        e[a] = mo.eta(a, k, p)

    v12 = v3 = 0.0
    for m in range(1, k + 1):
        pm = p ** (-math.comb(m, 2))
        # joint-factor bases, indexed by which of the four products is taken
        pp = 1.0 - 2.0 * pk1 + p ** (2 * k + 2 - m)
        mm_in = 1.0 - 2.0 * pk + p ** (2 * k + 1 - m)
        mm_out = 1.0 - 2.0 * pk + p ** (2 * k - m)
        cross_lo = 1.0 - pk1 - pk + p ** (2 * k + 1 - m)
        cross_hi = 1.0 - pk1 - pk + p ** (2 * k + 2 - m)
        q1_in = 1.0 - p ** (k + 1 - m)
        q0_out = 1.0 - p ** (k - m)
        for i in range(1, n - k):
            b1 = pp ** (i - 1) - cross_lo ** (i - 1)
            bp0 = mm_in ** (i - 1) - cross_hi ** (i - 1)
            bm0 = mm_out ** (i - 1) - cross_lo ** (i - 1)
            ei = e[i]
            for j in range(i + 1, n - k + 1):
                ee = ei * e[j]
                for q in range(1, min(k + 1, j - i) + 1):
                    base = (C(n - j, 2 * k + 1 - m - q) * C(2 * k + 1 - m - q, k)
                            * C(j - i - 1, q - 1))
                    if not base:
                        continue
                    qin = q1_in ** q
                    # family with min(t) in s: both brackets share base q1_in
                    a_plus = pm * qin * ((1.0 - pk1) ** (j - i - q) * b1
                                         + (1.0 - pk) ** (j - i - q) * bp0)
                    # family with min(t) not in s
                    a_minus = pm * ((1.0 - pk1) ** (j - i - q) * qin * b1
                                    + (1.0 - pk) ** (j - i - q) * q0_out ** q * bm0)
                    v12 += base * (C(k, m - 1) * (a_plus - ee)
                                   + C(k, m) * (a_minus - ee))
        # same-minimum pairs; this sum's cross base rounds apart from cross_hi
        cross = 1.0 - pk - pk1 + p ** (2 * k + 2 - m)
        cnt = C(k, m - 1)
        for i in range(1, n - k + 1):
            v3 += (C(n - i, 2 * k + 1 - m) * C(2 * k + 1 - m, k) * cnt
                   * (pm * (pp ** (i - 1) + mm_in ** (i - 1) - 2.0 * cross ** (i - 1))
                      - e[i] ** 2))

    v4 = math.fsum(C(n - i, k) * (e[i] - p ** ck1 * e[i] ** 2)
                   for i in range(1, n - k + 1))

    p2c = p ** (2 * ck1)
    return 2.0 * p2c * v12 + p2c * v3 + p ** ck1 * v4


@functools.lru_cache(maxsize=None)
def _cached_reference_crit_variance(n, k, p):
    return _reference_crit_variance(n, k, p)


@functools.lru_cache(maxsize=16)
def _reference_pair_table(n, i, j):
    """_reference_pairs_with_minima(n, i, a, j, b) at [a - 1][b - 1]."""
    return [[_reference_pairs_with_minima(n, i, a, j, b) for b in range(1, n - j + 1)]
            for a in range(1, n - i + 1)]


def _reference_crit_bound(n, d, p):
    """The scalar loops crit_bound replaced: the f-sum pair count, the
    subset-neighbourhood sum, and the (a, b) double loop over the minima,
    once per component pair (i, j)."""
    sigmas = mo.sigma([_cached_reference_crit_variance(n, k, p) for k in range(1, d + 1)])
    dmax = [[sum(mo.comb0(l + 1, m) * mo.comb0(n - l - 1, k + 1 - m)
                 for m in range(1, min(l + 1, k + 1) + 1))
             for k in range(1, d + 1)] for l in range(1, d + 1)]
    mu = [[0.0] * (n + 1) for _ in range(d + 1)]
    for i in range(1, d + 1):
        for a in range(1, n - i + 1):
            mu[i][a] = mo.crit_mu(i, a, p)
    total = 0.0
    total_same_min = 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            pairs = _reference_pair_table(n, i, j)
            acc = diag = 0.0
            for a in range(1, n - i + 1):
                mia = mu[i][a]
                if mia == 0.0:
                    continue
                fa = math.sqrt(mia * (1.0 - mia))
                for b in range(1, n - j + 1):
                    mjb = mu[j][b]
                    if mjb == 0.0:
                        continue
                    term = pairs[a - 1][b - 1] * fa * math.sqrt(mjb * (1.0 - mjb))
                    acc += term
                    if a == b:
                        diag += term
            for k in range(1, d + 1):
                inv_sigma = 1.0 / (sigmas[i - 1] * sigmas[j - 1] * sigmas[k - 1])
                weight = 1.5 * dmax[i - 1][k - 1] + 2.0 * dmax[j - 1][k - 1]
                total += inv_sigma * weight * acc
                total_same_min += inv_sigma * weight * diag
    value = total / 3.0
    params = {"n": n, "d": d, "p": p,
              "same_min_share": total_same_min / total if total else 0.0}
    smooth = bd.BoundReport("critical-count-smooth", value, bd.SMOOTH, -1.0, params)
    cvx = bd.BoundReport("critical-count-convex", bd.convex_bound(d, value).value,
                         bd.CONVEX, -0.25, params)
    return smooth, cvx


@pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 16, 23, 31, 100, 321])
def test_crit_bound_matches_scalar_reference(n):
    for d in range(1, min(4 if n < 300 else 2, n - 1) + 1):
        for p in (0.05, 0.3, 0.5, 0.61, 0.9):
            try:
                want = _reference_crit_bound(n, d, p)
            except ValueError:  # a zero variance
                with pytest.raises(ValueError):
                    bd.crit_bound(n, d, p)
                continue
            pair = bd.crit_bound(n, d, p)
            assert pair.smooth.to_json() == want[0].to_json(), (n, d, p)
            assert pair.convex.to_json() == want[1].to_json(), (n, d, p)
    _reference_pair_table.cache_clear()


# crit_variance(n, k, p).hex() before its two m loops became one
CRIT_VARIANCE_HEX = {
    0.3: {7: ("0x1.2c1b0f894cda4p+0", "0x1.05f4dd836a22ap-4", "0x1.38d52f2c6a3a8p-12"),
          30: ("0x1.dccbab2df5ca1p+4", "0x1.292321c15fdfep+6", "0x1.04a30a3a227d6p+2"),
          100: ("0x1.043d8dfec9391p+9", "0x1.738027026e66ap+12", "0x1.872e514c0b430p+13")},
    0.5: {7: ("0x1.b30d9c0000000p+0", "0x1.35b0827800000p-1", "0x1.97294cbc00000p-6"),
          30: ("0x1.06c4997208db2p+6", "0x1.a84db7c4c4142p+8", "0x1.7d1266a8f9a51p+9"),
          100: ("0x1.b87effafe4b50p+9", "0x1.42d221d7da6e9p+16", "0x1.e10f7bf5b1a84p+19")},
    0.7: {7: ("0x1.378a1d1129b2ap+1", "0x1.18bf1dd4ee6cep+1", "0x1.b894a8ec8f3fcp-2"),
          30: ("0x1.4891f58ee794dp+6", "0x1.46f9ae73d24c3p+11", "0x1.1c4fa813bbb2dp+14"),
          100: ("0x1.fe9c0814338bbp+9", "0x1.ae692274ff5e6p+18", "0x1.43b6f785a99f9p+25")},
}


@pytest.mark.parametrize("p", sorted(CRIT_VARIANCE_HEX))
def test_crit_variance_bits_pinned(p):
    for n, hexes in CRIT_VARIANCE_HEX[p].items():
        assert [mo.crit_variance(n, k, p).hex() for k in (1, 2, 3)] == list(hexes), n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12, 30, 65, 100, 101, 160, 321])
def test_crit_variance_matches_scalar_reference(n):
    for k in range(1, min(3, n - 1) + 1):
        for p in (0.05, 0.123, 0.3, 0.5, 0.61, 0.9):
            want = _cached_reference_crit_variance(n, k, p)
            assert mo.crit_variance(n, k, p).hex() == want.hex(), (k, p)


# _reference_crit_bound(212, 5, 0.5), pinned because it takes about 6 s:
# smooth value, same_min_share and convex value
CRIT_BOUND_212_5_HEX = ("0x1.3209ba6a8aa57p+40", "0x1.96012f5c62671p-4", "0x1.c124a2d1c03d2p+12")


def test_overflow_past_int64_stays_exact():
    # the m = 1, q = 1 term at i = 1, j = 2 has base C(128, 12) C(12, 6)
    assert math.comb(128, 12) * math.comb(12, 6) > 2 ** 63
    assert mo.crit_variance(130, 6, 0.5).hex() == _reference_crit_variance(130, 6, 0.5).hex()
    # the count of pairs of 6-subsets with both minima 2 at n = 212
    assert math.comb(210, 5) ** 2 > 2 ** 63
    pair = bd.crit_bound(212, 5, 0.5)
    got = (pair.smooth.value, pair.smooth.params["same_min_share"], pair.convex.value)
    assert tuple(x.hex() for x in got) == CRIT_BOUND_212_5_HEX


def test_tiny_p_overflow_error_kept():
    for f in (mo.crit_variance, _reference_crit_variance):
        with pytest.raises(OverflowError):
            f(12, 3, 1e-120)


def test_block_memory_does_not_grow_with_n():
    mo.crit_variance(10, 2, 0.5)  # imports and first-call caches outside the trace
    bd.crit_bound(10, 2, 0.5)
    for f, args in ((mo.crit_variance, (320, 2, 0.5)), (mo.crit_variance, (1000, 1, 0.5)),
                    (bd.crit_bound, (320, 2, 0.5))):
        tracemalloc.start()
        try:
            f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20, (f.__name__, args, peak)
