"""Closed-form moments for the three counting statistics.

Critical counts: exact mean (the full alternating sum), a two-sided mean
bracket, the four-part variance decomposition, the clamped variance lower
bound, and the Markov tail bound for truncation.  Link counts: mean and the
exact overlap-sum covariance plus its single-overlap lower bound.  Clique
counts: mean and exact covariance.  All binomial coefficients with
out-of-range arguments are 0, and 0^0 evaluates to 1.

The variance decomposition follows the two-family overlap derivation (pairs
whose minima coincide or differ, the latter split by whether min(t) lies in
s).  Three factors there differ from a naive transcription and were pinned
against exhaustive enumeration over all graphs with n <= 6:

  * both brackets of the different-minima family with min(t) in s carry the
    q-exponent base (1 - p^(k+1-m));
  * the subtracted mixed terms of the family with min(t) not in s carry the
    joint exponent 2k+1-m;
  * the pair-count factor for the vertices of s strictly between the two
    minima is C(j-i-1, q-1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .graphs import check_p


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the zero convention for out-of-range args."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_p_open(p: float):
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")


def _check_crit_args(n: int, k: int):
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1 (got n=%d, k=%d)" % (n, k))


def eta(a: int, k: int, p: float) -> float:
    return (1.0 - p ** (k + 1)) ** (a - 1) - (1.0 - p ** k) ** (a - 1)


def crit_mu(k: int, a: int, p: float) -> float:
    """Probability that a given size-(k+1) subset with minimum vertex a is a
    critical k-simplex."""
    return p ** math.comb(k + 1, 2) * eta(a, k, p)


def sigma(variances) -> list[float]:
    """Standard deviations of the given variances.  A zero one leaves its
    component impossible to standardize, so it is an error."""
    sd = [math.sqrt(v) for v in variances]
    if 0.0 in sd:
        raise ValueError("a component has zero variance; cannot standardize")
    return sd


def crit_mean(n: int, k: int, p: float) -> float:
    """Exact expected number of critical k-simplices (size k+1)."""
    _check_crit_args(n, k)
    check_p(p)
    s = math.fsum(
        comb0(n - l - 1, k) * ((1.0 - p ** (k + 1)) ** l - (1.0 - p ** k) ** l)
        for l in range(0, n - k))
    return p ** math.comb(k + 1, 2) * s


def crit_mean_bounds(n: int, k: int, p: float) -> tuple[float, float]:
    """Two-sided bracket for the critical mean."""
    _check_crit_args(n, k)
    check_p(p)
    c = math.comb(k + 1, 2)
    lo = p ** (c + k) * comb0(n - 2, k) * (1.0 - p)
    hi_exp = c - k - 1
    if p == 0.0 and hi_exp < 0:
        hi = math.inf
    else:
        hi = p ** hi_exp * comb0(n - 1, k) * (1.0 - p)
    return lo, hi


def crit_variance(n: int, k: int, p: float) -> float:
    """Var of the critical count at size k+1, exact."""
    _check_crit_args(n, k)
    check_p(p)
    if p in (0.0, 1.0):
        return 0.0  # the count is a.s. 0 at both endpoints
    C = comb0
    ck1 = math.comb(k + 1, 2)
    pk = p ** k
    pk1 = p ** (k + 1)
    e = [0.0] * (n - k + 1)
    for a in range(1, n - k + 1):
        e[a] = eta(a, k, p)

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


def crit_variance_lower(n: int, k: int, p: float) -> float:
    """Clamped explicit lower bound on the critical-count variance.

    Uses the geometric-series closed forms for the two cross-minima remainder
    terms, the (empty for k=1) m>=2 same-minimum remainder sum, and only the
    i=2 term of the positive part.  Becomes positive only for very large n;
    see smallest_positive_lower_bound_n.
    """
    _check_crit_args(n, k)
    _check_p_open(p)
    x = 1.0 - p ** (k + 1)
    lead = n ** (2 * k - 1) * (2 * k - 1) ** k * (k + 1) ** (k + 1) / math.factorial(k - 1)
    r1 = lead * x / ((2.0 - p ** (k + 1)) * p ** (2 * k + 2))
    r2 = lead * p ** (-math.comb(k, 2)) * x / p ** (2 * k + 2)
    r3 = 0.0
    if k >= 2:
        for i in range(1, n - k + 1):
            for m in range(2, k + 1):
                r3 += (comb0(n - i, 2 * k + 1 - m) * comb0(2 * k + 1 - m, k)
                       * comb0(k, m - 1)
                       * (2.0 * p ** (-math.comb(m, 2))
                          * (1.0 - p ** k - p ** (k + 1) + p ** (2 * k + 2 - m)) ** (i - 1)
                          + 2.0 * x ** (2 * i - 2)))
    if n - 2 >= 2 * k:
        r4 = ((n - 2) / (2 * k)) ** (2 * k) * math.comb(2 * k, k) * p ** (2 * k + 1) * (1.0 - p)
    else:
        r4 = 0.0
    return max(0.0, p ** (2 * math.comb(k + 1, 2)) * (r4 - 8.0 * r1 - 8.0 * r2 - r3))


def smallest_positive_lower_bound_n(k: int, p: float, n_max: int = 1 << 20) -> int | None:
    """Smallest n at which crit_variance_lower becomes positive (doubling then
    bisecting), or None if it stays clamped up to n_max."""
    _check_p_open(p)
    lo = k + 1
    hi = lo + 1
    while hi <= n_max and crit_variance_lower(hi, k, p) <= 0.0:
        lo, hi = hi, hi * 2
    if hi > n_max:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if crit_variance_lower(mid, k, p) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def crit_tail_bound(n: int, k: int, p: float, K: int) -> float:
    """Markov bound on P(full count minus min-truncated count >= 1)."""
    _check_crit_args(n, k)
    _check_p_open(p)
    if not 1 <= K <= n - k:
        raise ValueError("need 1 <= K <= n-k")
    return (p ** (math.comb(k + 1, 2) - k - 1) * n ** k / math.factorial(k)
            * (1.0 - p ** (k + 1)) ** K)


def link_mu(t_size: int, k: int, p: float) -> float:
    """Per-subset probability that a size-(k+1) set lies in the link of t."""
    return p ** (math.comb(k + 1, 2) + t_size * (k + 1))


def _check_link_args(n: int, t_size: int, k: int):
    if t_size < 1:
        raise ValueError("t_size must be >= 1")
    if k < 0:
        raise ValueError("dimension must be >= 0")
    if k + 1 > n - t_size:
        raise ValueError("no room for a size-%d subset disjoint from t" % (k + 1))


def link_mean(n: int, t_size: int, k: int, p: float) -> float:
    """E of the count of k-simplices (size k+1 subsets) in the link of t."""
    _check_link_args(n, t_size, k)
    check_p(p)
    return comb0(n - t_size, k + 1) * link_mu(t_size, k, p)


def link_cov(n: int, t_size: int, k: int, l: int, p: float) -> float:
    """Exact covariance of the link counts at dimensions k and l."""
    _check_link_args(n, t_size, max(k, l))
    if min(k, l) < 0:
        raise ValueError("dimension must be >= 0")
    check_p(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    if k < l:
        k, l = l, k
    mu_k = link_mu(t_size, k, p)
    mu_l = link_mu(t_size, l, p)
    return math.fsum(
        comb0(n - t_size, k + 1) * comb0(k + 1, m) * comb0(n - t_size - k - 1, l + 1 - m)
        * mu_k * mu_l * (p ** (-math.comb(m, 2) - t_size * m) - 1.0)
        for m in range(1, l + 2))


def link_cov_lower(n: int, t_size: int, k: int, l: int, p: float) -> float:
    """Single-overlap lower bound on the link covariance."""
    _check_link_args(n, t_size, max(k, l))
    check_p(p)
    if not 0.0 < p < 1.0:
        return 0.0
    if k < l:
        k, l = l, k
    return ((k + 1) * comb0(n - t_size, l + k + 1) * comb0(l + k + 1, l)
            * link_mu(t_size, k, p) * link_mu(t_size, l, p) * (p ** (-t_size) - 1.0))


def clique_mean(n: int, k: int, p: float) -> float:
    """Expected number of k-cliques (size k, not dimension)."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= size <= n")
    check_p(p)
    return comb0(n, k) * p ** math.comb(k, 2)


def clique_cov(n: int, i: int, j: int, p: float) -> float:
    """Exact covariance of clique counts at dimensions i and j (sizes i+1, j+1)."""
    si, sj = i + 1, j + 1
    if not (2 <= si <= n and 2 <= sj <= n):
        raise ValueError("sizes must lie in [2, n]")
    check_p(p)
    if si < sj:
        si, sj = sj, si
    tot = math.comb(si, 2) + math.comb(sj, 2)
    return math.fsum(
        comb0(n, si) * comb0(si, m) * comb0(n - si, sj - m)
        * (p ** (tot - math.comb(m, 2)) - p ** tot)
        for m in range(2, sj + 1))


@dataclass
class MomentReport:
    """Mean vector and covariance matrix of one statistic family."""

    kind: str
    params: dict
    mean: list
    cov: list
    provenance: str  # analytic | exact-oracle | empirical

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "params": self.params, "mean": self.mean,
            "cov": self.cov, "provenance": self.provenance}, indent=2)


def statistic_cov_matrix(kind: str, n: int, d: int, p: float, t_size: int = 1,
                         oracle_offdiag=None) -> MomentReport:
    """Assemble the mean vector and covariance matrix for one statistic.

    Critical counts have no closed-form cross-dimension covariance; for d > 1
    the off-diagonal entries must be supplied (exact-oracle or empirical) via
    ``oracle_offdiag``, a tuple (matrix, provenance).
    """
    from .kinds import statistic  # the registry is built on this module
    return statistic(kind).moment_report(n, d, p, t_size, oracle_offdiag)
