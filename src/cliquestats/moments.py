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

The different-minima sum (over m, the minima i < j and the overlap q) and
bounds.crit_bound's sum over pairs of minima are evaluated in numpy blocks of
about BLOCK_TERMS terms.  Each term keeps the operands and the operation order
of the scalar double loop it replaces: powers come from Python's ``**``,
binomial products are exact integers (int64 where a bound on the largest
product fits, Python ints otherwise) converted to float once, as int * float
converts them, and a term the loop skipped is 0.0.  Each block is added to
the running sum in the loop's order by ``np.add.accumulate``, one addition at
a time; ``np.sum`` adds pairwise, which rounds differently.  So the sums are
bit-identical to the scalar loops, which the pinned outputs (golden files,
verify bytes, benchmark pins) depend on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graphs import check_p

_INT64_MAX = int(np.iinfo(np.int64).max)
# Terms per numpy block of the order-keeping sums of crit_variance and
# crit_bound, so that a block's arrays do not grow with n.  Blocks of 2048 to
# 16384 terms ran crit_variance(320, 2, 0.5) and crit_bound(320, 2, 0.5) in
# about the same time (one BLAS thread); at 4096 their tracemalloc peak is
# about 0.4 MB, and it doubles with the block.
BLOCK_TERMS = 4096


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the zero convention for out-of-range args."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _row_blocks(rows: int, row_terms):
    """Row ranges [lo, hi) of a blocked sum, each of about BLOCK_TERMS terms
    (at least one row), where row_terms(lo) counts the terms of row lo, the
    widest row of its block."""
    lo = 0
    while lo < rows:
        hi = min(rows, lo + max(1, BLOCK_TERMS // row_terms(lo)))
        yield lo, hi
        lo = hi


def _exact_ints(table, largest: int) -> np.ndarray:
    """An integer table whose products stay at most `largest`: int64 where
    that fits, exact Python ints (object) otherwise."""
    return np.array(table, dtype=np.int64 if largest <= _INT64_MAX else object)


def _running_sum(total: float, terms: np.ndarray) -> float:
    """total + t0 + t1 + ... over terms in C order, one addition at a time
    as a scalar loop adds them (np.sum adds pairwise, which rounds apart)."""
    acc = np.empty(terms.size + 1)
    acc[0] = total
    acc[1:] = terms.ravel()
    return float(np.add.accumulate(acc, out=acc)[-1])


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
    top = n - k  # the largest minimum
    e = [0.0] * (top + 1)
    for a in range(1, top + 1):
        e[a] = eta(a, k, p)
    # The distinct-minima sum v12 runs over rows i = 1..top-1, then
    # delta = j - i, then the overlap q; the (delta, q) tables below reach
    # q = k, the last that C(2k+1-m-q, k) leaves nonzero.
    rows = top - 1
    e_i = np.array(e[1:top])[:, None]
    e_j = np.array(e[2:] + [0.0] * rows)  # e[j] at [j - 2], zero past top
    d_q = np.arange(1, rows + 1)[:, None] - np.arange(1, k + 1)
    live = d_q >= 0
    d_q[~live] = 0
    # (1 - p^(k+1))^(j-i-q) and (1 - p^k)^(j-i-q), 0.0 where q > j - i
    pow_k1 = np.where(live, np.array([(1.0 - pk1) ** t for t in range(rows)])[d_q], 0.0)
    pow_k = np.where(live, np.array([(1.0 - pk) ** t for t in range(rows)])[d_q], 0.0)

    def bracket(x: float, y: float) -> np.ndarray:
        """x^(i-1) - y^(i-1) for the rows i = 1..top-1."""
        return np.array([x ** (i - 1) - y ** (i - 1) for i in range(1, top)])[:, None, None]

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
        qs = range(1, k + 2 - m)
        r = [2 * k + 1 - m - q for q in qs]
        nq = len(r)
        # base = C(n-j, r_q) C(r_q, k) C(j-i-1, q-1), an exact integer: its
        # factor in j at [j - 2] (zero past top), its factor in delta at
        # [delta - 1]; each factor's largest value bounds the factor (when the
        # other is 0) and their product bounds every base
        largest = max(max(C(n - 2, rq), 1) * max(C(rq, k) * C(rows - 1, q - 1), 1)
                      for q, rq in zip(qs, r))
        f_j = _exact_ints([[C(n - j, rq) for rq in r] for j in range(2, top + 1)]
                          + [[0] * nq] * rows, largest)
        f_d = _exact_ints([[C(rq, k) * C(dl - 1, q - 1) for q, rq in zip(qs, r)]
                           for dl in range(1, top)], largest)
        qin = np.array([q1_in ** q for q in qs])
        pm_qin = pm * qin
        p1, p0 = pow_k1[:, :nq], pow_k[:, :nq]
        p1_qin = p1 * qin
        p0_q0 = p0 * np.array([q0_out ** q for q in qs])
        w_in, w_out = float(C(k, m - 1)), float(C(k, m))
        b1 = bracket(pp, cross_lo)
        bp0 = bracket(mm_in, cross_hi)
        bm0 = bracket(mm_out, cross_lo)
        for lo, hi in _row_blocks(rows, lambda lo: (rows - lo) * nq):
            # i = lo+1..hi, then delta = 1..rows-lo, then q: the scalar loop's order
            w = rows - lo
            j = np.arange(lo, hi)[:, None] + np.arange(w)  # j - 2
            base = f_j[j] * f_d[:w]
            ee = (e_i[lo:hi] * e_j[j])[:, :, None]
            with np.errstate(over="ignore", invalid="ignore"):
                # family with min(t) in s: both brackets share base q1_in
                a_plus = pm_qin * (p1[:w] * b1[lo:hi] + p0[:w] * bp0[lo:hi])
                # family with min(t) not in s
                a_minus = pm * (p1_qin[:w] * b1[lo:hi] + p0_q0[:w] * bm0[lo:hi])
                terms = base.astype(np.float64) * (w_in * (a_plus - ee) + w_out * (a_minus - ee))
            terms[base == 0] = 0.0  # the scalar loop skipped these
            v12 = _running_sum(v12, terms)
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
