"""Ground truth by exhaustive enumeration: exact distributions and moments of
the three count vectors over all 2^C(n,2) graphs, n <= 6, from the count tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .graphs import check_p
from .kinds import _small_graph_counts, statistic
from .moments import MomentReport


@dataclass
class ExactDistribution:
    """Finite support distribution of an integer count vector."""

    kind: str
    params: dict
    support: list
    probabilities: list


def exact_distribution(kind: str, n: int, p: float, d: int, t=None) -> ExactDistribution:
    """The exact pmf of the count vector over all graphs on n vertices, from
    the kind's count table: a row's key is its flat C-order index, which sorts
    as the count tuples do, and np.bincount adds each mask's weight p^e
    (1-p)^(m-e), read by its edge count e, in mask order.  A vector whose
    graphs all weigh 0.0 is not in the support."""
    check_p(p)
    t = tuple(sorted(t or ()))
    stat = statistic(kind)
    stat.check(n, d, t)
    table = _small_graph_counts(kind, n, d, t)  # check refuses a stray t
    m = comb(n, 2)
    wtable = np.array([p ** e * (1.0 - p) ** (m - e) for e in range(m + 1)])
    dims = tuple(int(v) + 1 for v in table.max(axis=0))
    masses = np.bincount(np.ravel_multi_index(table.T, dims),
                         weights=wtable[np.bitwise_count(np.arange(len(table)))])
    keys = np.flatnonzero(masses)
    support = list(zip(*(c.tolist() for c in np.unravel_index(keys, dims))))
    params = {"n": n, "p": p, "d": d}
    if stat.needs_t:
        params["t"] = list(t)
    return ExactDistribution(kind, params, support, masses[keys].tolist())


def exact_moments(kind: str, n: int, p: float, d: int, t=None) -> MomentReport:
    """Mean vector and full covariance matrix from the exact distribution."""
    dist = exact_distribution(kind, n, p, d, t)
    mean = [math.fsum(w * v[a] for v, w in zip(dist.support, dist.probabilities))
            for a in range(d)]
    cov = [[math.fsum(w * (v[a] - mean[a]) * (v[b] - mean[b])
                      for v, w in zip(dist.support, dist.probabilities))
            for b in range(d)] for a in range(d)]
    return MomentReport(kind, dist.params, mean, cov, "exact-oracle")
