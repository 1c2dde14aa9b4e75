import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from cliquestats import bounds as bd
from cliquestats import moments as mo
from cliquestats.graphs import check_p
from cliquestats.kinds import KINDS, statistic
from reference import (SUMMANDS, BudgetExceededError, DissociatedInstance, generic_bound,
                       moment_bound, subset_instance, uniform_bound)


def test_moment_bound_examples():
    assert math.isclose(moment_bound(0.5, 0.5, 1, 1, 1), 0.25, rel_tol=1e-14)
    assert moment_bound(0.0, 0.5, 1, 1, 1) == 0.0
    one = moment_bound(0.3, 0.6, 1.0, 2.0, 3.0)
    assert math.isclose(moment_bound(0.3, 0.6, 2.0, 2.0, 3.0), 2 * one)
    with pytest.raises(ValueError):
        moment_bound(1.2, 0.5, 1, 1, 1)
    with pytest.raises(ValueError):
        moment_bound(0.5, 0.5, 0.0, 1, 1)


def test_convex_bound():
    assert bd.convex_bound(3, 0.0).value == 0.0
    want = 2.0 ** 3.5 * 3.0 ** -0.75
    assert math.isclose(bd.convex_bound(1, 1.0).value, want, rel_tol=1e-14)
    assert bd.convex_bound(2, 1.0).value > bd.convex_bound(1, 1.0).value
    assert bd.convex_bound(1, 2.0).value > bd.convex_bound(1, 1.0).value
    with pytest.raises(ValueError, match="d must be >= 1"):
        bd.convex_bound(0, 1.0)


def iid_instance(N, moment):
    """N summands, each its own neighbourhood, every moment bound equal."""
    block = np.full((1, N), moment)
    return DissociatedInstance([[(i, 1) for i in range(N)]], np.eye(N, dtype=bool),
                               lambda a: (block, block))


def test_generic_bound_single_fair_sign():
    # one +-1 summand, its own neighbourhood: (1/3)(0.5*1 + 1*1) = 0.5
    assert math.isclose(generic_bound(iid_instance(1, 1.0)).value, 0.5)


def test_generic_bound_empty():
    inst = DissociatedInstance([[]], np.zeros((0, 0), dtype=bool), None)
    assert generic_bound(inst).value == 0.0


def test_generic_bound_iid_scaling():
    # N independent standardized summands scaled by N^(-1/2):
    # B = N * (1/3) * (3/2) * N^(-3/2) = 0.5 / sqrt(N)
    b100 = generic_bound(iid_instance(100, 100 ** -1.5)).value
    b400 = generic_bound(iid_instance(400, 400 ** -1.5)).value
    assert math.isclose(b100, 0.05, rel_tol=1e-12)
    assert math.isclose(b400 / b100, 0.5, rel_tol=1e-12)


def test_generic_bound_budget():
    # one summand: 1^2 terms in b1 and 1 in b2's count
    assert generic_bound(iid_instance(1, 1.0), term_budget=2).params == {"terms": 2}
    with pytest.raises(BudgetExceededError):
        generic_bound(iid_instance(1, 1.0), term_budget=1)


def test_uniform_bound_examples():
    rep = uniform_bound(1, [7], [[2.0]], [[[0.3]]])
    assert math.isclose(rep.value, (1 / 3) * 7 * 2.0 * (1.5 * 2.0 + 2 * 2.0) * 0.3)
    assert uniform_bound(2, [3, 4], [[1, 1], [1, 1]],
                         [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]).value == 0.0
    with pytest.raises(ValueError):
        uniform_bound(2, [3], [[1]], [[[1]]])
    with pytest.raises(ValueError, match="alpha must be d x d"):
        uniform_bound(2, [3, 4], [[1, 1], [1]], [[[0, 0], [0, 0]]] * 2)
    with pytest.raises(ValueError, match="beta must be d x d x d"):
        uniform_bound(2, [3, 4], [[1, 1], [1, 1]], [[[0, 0], [0]], [[0, 0], [0, 0]]])


def _components(inst):
    """Each index's component number 0..d-1."""
    return np.repeat(np.arange(len(inst.index_sets)), [len(x) for x in inst.index_sets])


def test_uniform_majorizes_generic_on_enumerated_instance():
    for kind, n, d in [("clique", 5, 2), ("critical", 5, 1), ("link", 5, 1)]:
        t = (2,) if kind == "link" else ()
        inst = subset_instance(n, d, 0.5, kind, t=t)
        gb = generic_bound(inst)
        comp = _components(inst)
        sizes = [len(x) for x in inst.index_sets]
        alpha = [[int(inst.nbr[comp == i][:, comp == j].sum(axis=1).max()) for j in range(d)]
                 for i in range(d)]
        beta = np.zeros((d, d, d))
        for a, i in enumerate(comp):
            caps = np.maximum(*inst.blocks(a))  # rows b in D_a
            for j, k in itertools.product(range(d), repeat=2):
                sel = caps[np.ix_(comp[inst.nbr[a]] == j, comp == k)]
                beta[i, j, k] = max(beta[i, j, k], sel.max(initial=0.0))
        ub = uniform_bound(d, sizes, alpha, beta.tolist())
        assert ub.value >= gb.value - 1e-12, kind


def _mask_weights(n, p):
    """Every edge mask on n vertices and its probability p^e (1-p)^(m-e)."""
    m = math.comb(n, 2)
    masks = np.arange(1 << m)
    e = np.bitwise_count(masks)
    return masks, p ** e * (1.0 - p) ** (m - e)


def exact_instance(n, d, p, kind, t=()):
    """subset_instance with its Bernoulli caps replaced by the exact absolute
    moments of the standardized summands Y = (X - E X) / sigma over every
    graph: with A = |Y| and weights w, E|Ya Yb Yc| is (A^T diag(w A_a) A)[b, c]
    and E|Ya Yb| E|Yc| is (A^T diag(w) A)[a, b] (w^T A)[c], for b in D_a."""
    stat = statistic(kind)
    inst = subset_instance(n, d, p, kind, t)
    flat = [s for comp in inst.index_sets for s in comp]
    masks, w = _mask_weights(n, p)
    x = np.column_stack([stat.count(masks, n, phi, t) for phi, _ in flat]).astype(float)
    sd = np.array(mo.sigma(stat.variances(n, d, p, len(t))))[_components(inst)]
    abs_y = np.abs((x - w @ x) / sd)
    pair = abs_y.T @ (w[:, None] * abs_y)
    single = w @ abs_y

    def blocks(a):
        hood = abs_y[:, inst.nbr[a]]
        triple = hood.T @ ((w * abs_y[:, a])[:, None] * abs_y)
        return triple, np.multiply.outer(pair[a, inst.nbr[a]], single)

    return DissociatedInstance(inst.index_sets, inst.nbr, blocks)


def _reference_generic_bound(n, d, p, kind, t=()):
    """generic_bound(subset_instance(...)) as the per-triple loop over
    neighbourhood lists with a moment callback evaluated it: (value, terms)."""
    stat = statistic(kind)
    min_overlap, summand_mu = SUMMANDS[kind]
    ts = len(t)
    ground = [v for v in range(1, n + 1) if v not in t]
    index_sets = [[(phi, i) for phi in itertools.combinations(ground, size)]
                  for i, size in enumerate(stat.sizes(d), start=1)]
    sd = mo.sigma(stat.variances(n, d, p, ts))

    def neighborhood(s):
        return [u for comp in index_sets for u in comp
                if len(set(s[0]).intersection(u[0])) >= min_overlap]

    def abs_moment(s, t_, u):
        m1 = summand_mu(s[0], s[1], p, ts)
        m2 = summand_mu(t_[0], t_[1], p, ts)
        val = (math.sqrt(m1 * m2 * (1.0 - m1) * (1.0 - m2))
               / (sd[s[1] - 1] * sd[t_[1] - 1] * sd[u[1] - 1]))
        return val, val

    hoods = {s: neighborhood(s) for comp in index_sets for s in comp}
    n_terms = sum(len(D) ** 2 for D in hoods.values())
    n_terms += sum(len(hoods[t_]) for s, D in hoods.items() for t_ in D)
    b1 = 0.0
    b2 = 0.0
    for s, D in hoods.items():
        for t_ in D:
            for u in D:
                triple, split = abs_moment(s, t_, u)
                b1 += 0.5 * triple + split
            ds = set(D)
            for v in hoods[t_]:
                if v in ds:
                    continue
                triple, split = abs_moment(s, t_, v)
                b2 += triple + split
    return (b1 + b2) / 3.0, n_terms


def _t(kind):
    return (2,) if statistic(kind).needs_t else ()


def test_generic_bound_matches_triple_loop_reference():
    # every d <= 3 fits in n = 4..6, with t = (2,) for link
    terms_of = {}
    for kind, n, d, p in itertools.product(KINDS, (4, 5, 6), (1, 2, 3), (0.2, 0.5, 0.8)):
        if (kind, n, d) == ("critical", 4, 3):  # the size-4 count is 0 on 4 vertices
            for f in (subset_instance, _reference_generic_bound):
                with pytest.raises(ValueError, match="zero variance"):
                    f(n, d, p, kind, _t(kind))
            continue
        want, terms = _reference_generic_bound(n, d, p, kind, _t(kind))
        got = generic_bound(subset_instance(n, d, p, kind, _t(kind)))
        assert math.isclose(got.value, want, rel_tol=1e-12), (kind, n, d, p)
        assert got.params == {"terms": terms}, (kind, n, d, p)
        terms_of[kind, n, d, p] = terms
    assert len(terms_of) == 78
    # the budget is the reference loop's term count, and binds exactly there
    inst = subset_instance(6, 3, 0.5, "critical")
    terms = terms_of["critical", 6, 3, 0.5]
    assert generic_bound(inst, term_budget=terms).params["terms"] == terms
    with pytest.raises(BudgetExceededError, match="needs ~%d terms" % terms):
        generic_bound(inst, term_budget=terms - 1)


def test_crit_bound_dominates_generic():
    # exact moments <= Bernoulli moment caps <= printed or grouped bound, for
    # every kind; the critical grouping slack stays moderate
    zero_variance = []
    for kind in KINDS:
        t, printed = _t(kind), statistic(kind).bound
        for n, p in itertools.product((4, 5), (0.2, 0.5, 0.8)):
            for d in range(1, n):  # every d that fits, with t = (2,) for link
                try:
                    capped = generic_bound(subset_instance(n, d, p, kind, t)).value
                except ValueError as err:
                    assert "zero variance" in str(err)
                    with pytest.raises(ValueError, match="zero variance"):
                        printed(n, d, p, len(t))
                    zero_variance.append((kind, n, d, p))
                    continue
                exact = generic_bound(exact_instance(n, d, p, kind, t)).value
                cb = printed(n, d, p, len(t)).smooth.value
                assert 0.0 < exact <= capped * (1 + 1e-12), (kind, n, d, p)
                assert capped <= cb * (1 + 1e-12), (kind, n, d, p)
                if kind == "critical":
                    assert cb <= 10 * capped, (n, d, p)
    # the top critical size, {1..n}, is never critical: where it is a clique,
    # {2..n} is matched up to it
    assert zero_variance == [("critical", n, n - 1, p) for n in (4, 5)
                             for p in (0.2, 0.5, 0.8)]


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
    for n, d, what in ((0, 1, "n"), (5, 0, "d")):
        with pytest.raises(ValueError, match="%s must be >= 1" % what):
            bd.clique_bound(n, d, 0.5)
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
    with pytest.raises(ValueError, match="equal length"):
        bd.ustat_bound([1, 2], [1.0], 1.0)
    with pytest.raises(ValueError, match="moment cap must be >= 0"):
        bd.ustat_bound([1], [1.0], -0.5)


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
    # indicator expectation factorizes (checked over every graph)
    n, p = 5, 0.45
    masks, w = _mask_weights(n, p)

    def expect(kind, *phis):
        count = statistic(kind).count
        return w @ np.prod([count(masks, n, phi, ()) for phi in phis], axis=0)

    # clique kind, share >= 2 rule: psi sharing <= 1 vertex with phi;
    # critical kind, share >= 1 rule: disjoint phi, psi
    for kind, phi, psi in (("clique", (1, 2, 3), (3, 4, 5)), ("critical", (2, 3), (4, 5))):
        assert math.isclose(expect(kind, phi, psi), expect(kind, phi) * expect(kind, psi),
                            abs_tol=1e-12), kind
    # a shared edge does not factorize
    assert expect("clique", (1, 2, 3), (2, 3, 4)) > 1.1 * expect("clique", (1, 2, 3)) ** 2


def test_subset_instance_neighborhood_rules():
    # nbr[a, b] iff the index sets share min_overlap vertices: >= 2 for
    # clique, >= 1 for critical and link; so every index is its own neighbour
    for kind, rule in (("clique", 2), ("critical", 1), ("link", 1)):
        inst = subset_instance(6, 2, 0.5, kind, _t(kind))
        flat = [phi for comp in inst.index_sets for phi, _ in comp]
        want = [[len(set(a) & set(b)) >= rule for b in flat] for a in flat]
        assert inst.nbr.dtype == bool and inst.nbr.tolist() == want, kind
        assert inst.index_sets == [[(phi, i) for phi in itertools.combinations(
            [v for v in range(1, 7) if v not in _t(kind)], size)]
            for i, size in enumerate(statistic(kind).sizes(2), start=1)]


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
            assert json.dumps(pair.smooth.as_dict()) == json.dumps(want[0].as_dict()), (n, d, p)
            assert json.dumps(pair.convex.as_dict()) == json.dumps(want[1].as_dict()), (n, d, p)
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
        mo.crit_variance.cache_clear()  # so no call below is a cache hit
        tracemalloc.start()
        try:
            f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20, (f.__name__, args, peak)
