"""Ground truth by exhaustive enumeration: exact distributions and moments of
the three count vectors over all 2^C(n,2) graphs, n <= 6, from the count tables."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import comb

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

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "params": self.params,
            "support": [list(v) for v in self.support],
            "probabilities": self.probabilities}, indent=2)


def exact_distribution(kind: str, n: int, p: float, d: int, t=None) -> ExactDistribution:
    """Accumulate the exact pmf of the count vector over all graphs on n
    vertices in edge-mask order.  Per-graph weights come from a table p^e
    (1-p)^(m-e) indexed by edge count, exact in double precision here."""
    check_p(p)
    stat = statistic(kind)
    if t is not None:
        t = tuple(sorted(t))
    stat.check(n, d, t)
    m = comb(n, 2)
    wtable = [p ** e * (1.0 - p) ** (m - e) for e in range(m + 1)]
    masses: dict = {}
    for mask, v in enumerate(_small_graph_counts(kind, n, d, t if stat.needs_t else ())):
        w = wtable[mask.bit_count()]
        if w == 0.0:
            continue
        masses[v] = masses.get(v, 0.0) + w
    support = sorted(masses)
    params = {"n": n, "p": p, "d": d}
    if t is not None:
        params["t"] = list(t)
    return ExactDistribution(kind, params, support, [masses[v] for v in support])


def exact_moments(kind: str, n: int, p: float, d: int, t=None) -> MomentReport:
    """Mean vector and full covariance matrix from the exact distribution."""
    dist = exact_distribution(kind, n, p, d, t)
    mean = [math.fsum(w * v[a] for v, w in zip(dist.support, dist.probabilities))
            for a in range(d)]
    cov = [[math.fsum(w * (v[a] - mean[a]) * (v[b] - mean[b])
                      for v, w in zip(dist.support, dist.probabilities))
            for b in range(d)] for a in range(d)]
    return MomentReport(kind, dist.params, mean, cov, "exact-oracle")
