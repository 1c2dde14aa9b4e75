"""Explicit error bounds for the multivariate normal approximation of
dissociated sums, and their instantiations for the three count vectors.

Every bound value is for the smooth test-function class (third partials
bounded by 1) unless tagged as a convex-set bound, which is always obtained
from a smooth value through the quarter-power transfer rule.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .moments import (_check_p_open, _exact_ints, _row_blocks, _running_sum, comb0, crit_mu,
                      crit_variance, sigma)

VACUOUS_AT = 2.0

SMOOTH = "smooth |h|_3 <= 1"
CONVEX = "convex sets"


class BudgetExceededError(RuntimeError):
    """Triple-sum evaluation would exceed the configured term budget."""


@dataclass
class BoundReport:
    name: str
    value: float
    smoothness_class: str = SMOOTH
    rate_exponent: float | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.value < math.inf:  # NaN and inf too
            raise ValueError("bound value %r is not finite and nonnegative" % self.value)

    @property
    def vacuous(self) -> bool:
        return self.value >= VACUOUS_AT

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name, "value": self.value,
            "smoothness_class": self.smoothness_class,
            "rate_exponent": self.rate_exponent,
            "vacuous": self.vacuous, "params": self.params}, indent=2)


@dataclass
class BoundPair:
    """Smooth-class bound and its convex-set transfer for one application."""

    smooth: BoundReport
    convex: BoundReport


def moment_bound(mu1: float, mu2: float, c1: float, c2: float, c3: float) -> float:
    """Upper bound on E|X1 X2 X3| and on E|X1 X2| E|X3| for centered scaled
    Bernoulli variables X_i = c_i (xi_i - mu_i); the third variable only
    contributes its scale."""
    if not (0.0 <= mu1 <= 1.0 and 0.0 <= mu2 <= 1.0):
        raise ValueError("means must lie in [0,1]")
    if min(c1, c2, c3) <= 0.0:
        raise ValueError("scales must be positive")
    return c1 * c2 * c3 * math.sqrt(mu1 * mu2 * (1.0 - mu1) * (1.0 - mu2))


def convex_bound(d: int, smooth_b: float) -> BoundReport:
    """Transfer a smooth-class bound to the convex-set class."""
    if not smooth_b >= 0:  # NaN too
        raise ValueError("smooth bound must be nonnegative")
    if d < 1:
        raise ValueError("d must be >= 1")
    value = 2.0 ** 3.5 * 3.0 ** -0.75 * d ** (3.0 / 16.0) * smooth_b ** 0.25
    return BoundReport("convex-set-transfer", value, CONVEX,
                       params={"d": d, "smooth_b": smooth_b})


@dataclass
class DissociatedInstance:
    """A vector of dissociated sums, explicitly indexed.

    index_sets[i] lists the indices of component i+1; ``neighborhood(s, j)``
    returns the component-j dependency neighbourhood of index s; and
    ``abs_moment(s, t, u)`` returns a pair bounding E|Xs Xt Xu| and
    E|Xs Xt| E|Xu|.
    """

    d: int
    index_sets: list
    neighborhood: object
    abs_moment: object

    def all_indices(self):
        return itertools.chain.from_iterable(self.index_sets)

    def full_neighborhood(self, s):
        out = []
        for j in range(1, self.d + 1):
            out.extend(self.neighborhood(s, j))
        return out


def generic_bound(inst: DissociatedInstance, term_budget: float = 1e8) -> BoundReport:
    """Evaluate the two-part dissociated-sum bound by direct triple summation.

    Intended for oracle-scale cross-validation; the neighbourhood products
    explode combinatorially, so the evaluation is guarded by a term budget.
    """
    hoods = {s: inst.full_neighborhood(s) for s in inst.all_indices()}
    n_terms = sum(len(D) ** 2 for D in hoods.values())
    n_terms += sum(len(hoods[t]) for s, D in hoods.items() for t in D)
    if n_terms > term_budget:
        raise BudgetExceededError(
            "triple sum needs ~%d terms (budget %d)" % (n_terms, int(term_budget)))
    b1 = 0.0
    b2 = 0.0
    for s, D in hoods.items():
        for t in D:
            for u in D:
                triple, split = inst.abs_moment(s, t, u)
                b1 += 0.5 * triple + split
            ds = set(D)
            for v in hoods[t]:
                if v in ds:
                    continue
                triple, split = inst.abs_moment(s, t, v)
                b2 += triple + split
    value = (b1 + b2) / 3.0
    return BoundReport("dissociated-sum-smooth", value,
                       params={"terms": n_terms})


def uniform_bound(d: int, sizes, alpha, beta) -> BoundReport:
    """The uniform simplification: (1/3) sum_ijk |I_i| a_ij (3a_ik/2 + 2a_jk) b_ijk."""
    if len(sizes) != d or len(alpha) != d or len(beta) != d:
        raise ValueError("dimension mismatch")
    for row in alpha:
        if len(row) != d:
            raise ValueError("alpha must be d x d")
    for plane in beta:
        if len(plane) != d or any(len(r) != d for r in plane):
            raise ValueError("beta must be d x d x d")
    total = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total += (sizes[i] * alpha[i][j]
                          * (1.5 * alpha[i][k] + 2.0 * alpha[j][k])
                          * beta[i][j][k])
    return BoundReport("uniform-neighborhood-smooth", total / 3.0,
                       params={"d": d, "sizes": list(sizes)})


# ---------------------------------------------------------------------------
# built-in instances over vertex subsets


def subset_instance(n: int, d: int, p: float, kind: str, t=()) -> DissociatedInstance:
    """Fully enumerated dissociated-sum instance for one of the three count
    vectors, with Bernoulli moment bounds.  Indices are (phi, i) pairs.

    Neighbourhood rule: cliques share >= 2 vertices (edge-driven summands),
    critical and link share >= 1 (summands also read edges incident to the
    rest of the graph / to t).
    """
    from .kinds import statistic  # the registry is built on this module
    stat = statistic(kind)
    t = tuple(sorted(t))
    ts = len(t)
    ground = [v for v in range(1, n + 1) if v not in t]
    index_sets = []
    for i, size in enumerate(stat.sizes(d), start=1):
        index_sets.append([(phi, i) for phi in itertools.combinations(ground, size)])
    sd = sigma(stat.variances(n, d, p, ts))

    def neighborhood(s, j):
        ps = set(s[0])
        return [u for u in index_sets[j - 1] if len(ps.intersection(u[0])) >= stat.min_overlap]

    def abs_moment(s, t_, u):
        m1 = stat.mu(s[0], s[1], p, ts)
        m2 = stat.mu(t_[0], t_[1], p, ts)
        val = (math.sqrt(m1 * m2 * (1.0 - m1) * (1.0 - m2))
               / (sd[s[1] - 1] * sd[t_[1] - 1] * sd[u[1] - 1]))
        return val, val

    return DissociatedInstance(d, index_sets, neighborhood, abs_moment)


# ---------------------------------------------------------------------------
# application bounds


def _pairs_with_minima(n: int, i: int, j: int):
    """Numbers of pairs (phi, psi), |phi| = i+1 with min a, |psi| = j+1 with
    min b, that share at least one vertex, as rows(lo, hi): an exact integer
    table of the counts for a = lo+1..hi (rows) against b = 1..n-j.

    For a < b, phi misses psi iff its i vertices above a avoid the j+1
    vertices of psi, which all lie above a, so C(n-b, j) (C(n-a, i) -
    C(n-a-1-j, i)) pairs meet; a > b is the mirror image, and a = b gives
    C(n-a, i) C(n-b, j).
    """
    u = [comb0(n - a, i) for a in range(1, n - i + 1)]
    v = [comb0(n - b, j) for b in range(1, n - j + 1)]
    largest = u[0] * v[0]  # C(n-1, i) C(n-1, j) pairs in all
    u_miss = _exact_ints([x - comb0(n - a - 1 - j, i) for a, x in enumerate(u, 1)], largest)
    v_miss = _exact_ints([y - comb0(n - b - 1 - i, j) for b, y in enumerate(v, 1)], largest)
    u, v = _exact_ints(u, largest), _exact_ints(v, largest)
    b = np.arange(len(v))

    def rows(lo: int, hi: int) -> np.ndarray:
        table = np.where(b > np.arange(lo, hi)[:, None],
                         np.multiply.outer(u_miss[lo:hi], v), np.multiply.outer(u[lo:hi], v_miss))
        same = np.arange(lo, min(hi, len(v)))
        table[same - lo, same] = u[same] * v[same]
        return table

    return rows


def _minima_pair_sums(n: int, i: int, j: int, fa, fb) -> tuple[float, float]:
    """Sum over the minima a, b of (pairs meeting) * fa[a-1] * fb[b-1], and
    the part of it with a == b.  Each term is formed and added as a double
    loop over a then b would form and add it; a zero fa or fb gives a +0.0
    term, which leaves the sum as skipping it would."""
    rows, cols = n - i, n - j
    counts = _pairs_with_minima(n, i, j)
    fa, fb = np.array(fa), np.array(fb)
    acc = 0.0
    same = []
    for lo, hi in _row_blocks(rows, lambda lo: cols):
        terms = counts(lo, hi).astype(np.float64) * fa[lo:hi, None] * fb
        acc = _running_sum(acc, terms)
        a = np.arange(lo, min(hi, cols))
        same.append(terms[a - lo, a])
    return acc, _running_sum(0.0, np.concatenate(same))


def _count_bound_pair(name: str, value: float, rate: float, d: int, params: dict) -> BoundPair:
    """A count vector's smooth bound and its convex transfer, whose rate is a
    quarter of the smooth one."""
    smooth = BoundReport(name + "-smooth", value, SMOOTH, rate, params)
    cvx = convex_bound(d, value)
    return BoundPair(smooth, BoundReport(name + "-convex", cvx.value, CONVEX, rate / 4, params))


def crit_bound(n: int, d: int, p: float) -> BoundPair:
    """Grouped evaluation of the dissociated-sum bound for the critical-count
    vector: sum over component triples and the two minima, with exact pair
    counts, exact neighbourhood sizes, Bernoulli moment bounds, and exact
    variances.  A valid upper bound for the direct triple sum, sharper than
    an order-only estimate but still a grouping relaxation of it.

    The sum over the minima (a, b) of each component pair runs in numpy
    blocks (_minima_pair_sums) that form every term as the scalar double loop
    did and add the terms in its order, so the bound's bits do not depend on
    the block size (see the moments module docstring).
    """
    if d + 1 > n:
        raise ValueError("need d+1 <= n")
    _check_p_open(p)
    sigmas = sigma([crit_variance(n, k, p) for k in range(1, d + 1)])
    # size-(k+1) subsets meeting a fixed size-(l+1) subset
    dmax = [[comb(n, k + 1) - comb(n - l - 1, k + 1)
             for k in range(1, d + 1)] for l in range(1, d + 1)]
    # sqrt(mu (1 - mu)) of a size-(i+1) subset with minimum a, at [i - 1][a - 1]
    spread = [[math.sqrt(m * (1.0 - m))
               for m in (crit_mu(i, a, p) for a in range(1, n - i + 1))]
              for i in range(1, d + 1)]
    total = 0.0
    total_same_min = 0.0
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            acc, diag = _minima_pair_sums(n, i, j, spread[i - 1], spread[j - 1])
            for k in range(1, d + 1):
                inv_sigma = 1.0 / (sigmas[i - 1] * sigmas[j - 1] * sigmas[k - 1])
                weight = 1.5 * dmax[i - 1][k - 1] + 2.0 * dmax[j - 1][k - 1]
                total += inv_sigma * weight * acc
                total_same_min += inv_sigma * weight * diag
    value = total / 3.0
    # index pairs sharing their minimum vertex dominate asymptotically and
    # keep the bound from decaying; exposed so rate checks can see it
    params = {"n": n, "d": d, "p": p,
              "same_min_share": total_same_min / total if total else 0.0}
    return _count_bound_pair("critical-count", value, -1.0, d, params)


def link_bound(n: int, t_size: int, d: int, p: float) -> BoundPair:
    """Printed constant for the link-count vector, with the (n-|t|) rates
    folded in."""
    if not n > t_size >= 1:
        raise ValueError("need n > t_size >= 1")
    _check_p_open(p)
    b = (7.0 / 6.0 * (2 * d + 1) ** (5 * d + 8.5)
         * (p ** (-t_size) - 1.0) ** -1.5
         * p ** (-(d + 1) * (d + 2 * t_size)))
    r = n - t_size
    params = {"n": n, "t_size": t_size, "d": d, "p": p, "constant": b}
    return _count_bound_pair("link-count", b * r ** -0.5, -0.5, d, params)


def clique_bound(n: int, d: int, p: float) -> BoundPair:
    """Printed constant for the clique-count vector, with the n rates folded in."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_p_open(p)
    c = comb(d + 1, 2)
    b = (16.0 / 3.0 * d ** (2 * d + 5) * p ** (-3 * c + 1)
         * (1.0 - p ** c) * (p ** -1 - 1.0) ** -1.5)
    params = {"n": n, "d": d, "p": p, "constant": b}
    return _count_bound_pair("clique-count", b / n, -1.0, d, params)


def _ustat_sum(k_vec, alpha_vec, beta) -> float:
    d = len(k_vec)
    if len(alpha_vec) != d:
        raise ValueError("k_vec and alpha_vec must have equal length")
    if any(k < 1 for k in k_vec):
        raise ValueError("subset sizes must be >= 1")
    if any(a <= 0 for a in alpha_vec):
        raise ValueError("variance floors must be positive")
    if beta < 0:
        raise ValueError("moment cap must be >= 0")
    K = [(2 * k * k - k) ** (-k / 2.0 + 0.5) for k in k_vec]
    total = 0.0
    for i in range(d):
        for j in range(d):
            for l in range(d):
                ki, kj, kl = k_vec[i], k_vec[j], k_vec[l]
                total += (ki ** (min(ki, kj) + 1)
                          / (math.factorial(ki) * math.sqrt(alpha_vec[i] * alpha_vec[j] * alpha_vec[l]))
                          * (ki ** (min(ki, kl) + 1) + kj ** (min(kj, kl) + 1))
                          * K[i] * K[j] * K[l])
    return beta * total


def ustat_bound(k_vec, alpha_vec, beta) -> BoundReport:
    """Generalised U-statistic bound (vertex labels allowed); smooth rate
    n^(-1/2), convex transfer rate n^(-1/8)."""
    value = 2.0 / 3.0 * _ustat_sum(k_vec, alpha_vec, beta)
    return BoundReport("ustat-smooth", value, SMOOTH, -0.5,
                       {"k_vec": list(k_vec), "alpha_vec": list(alpha_vec), "beta": beta})


def ustat_no_x_bound(k_vec, alpha_vec, beta) -> BoundReport:
    """Edge-variables-only U-statistic bound (overlap >= 2 neighbourhoods);
    smooth rate n^(-1), convex transfer rate n^(-1/4)."""
    value = 16.0 / 3.0 * _ustat_sum(k_vec, alpha_vec, beta)
    return BoundReport("ustat-edge-only-smooth", value, SMOOTH, -1.0,
                       {"k_vec": list(k_vec), "alpha_vec": list(alpha_vec), "beta": beta})
