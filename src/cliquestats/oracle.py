"""Ground truth by exhaustive enumeration: exact distributions and moments of
the three count vectors over all 2^C(n,2) graphs, n <= 6, from the count tables."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import check_p
from .kinds import _small_graph_counts, statistic
from .moments import MomentReport


@dataclass
class ExactDistribution:
    """A finite law: float64 weights on the rows of an int64 (atoms, d) array of points."""

    kind: str
    params: dict
    points: np.ndarray
    weights: np.ndarray

    def expect(self, f) -> list:
        """E f(X), the fsum of weight * f(points) down each column of f's (atoms, k) array."""
        return [math.fsum(col) for col in self.weights * f(self.points).T]

    def moments(self) -> tuple[list, list]:
        """The mean, and the covariance as fsums of (w (x_a - m_a)) (x_b - m_b) in that order."""
        mean = self.expect(lambda x: x)
        dev = (self.points - mean).T
        return mean, [[math.fsum(col) for col in self.weights * row * dev] for row in dev]


def exact_distribution(kind: str, n: int, p: float, d: int, t=None) -> ExactDistribution:
    """The exact pmf of the count vector over all graphs on n vertices: np.bincount adds
    each mask's weight p^e (1-p)^(m-e), by its edge count e, in mask order, at its count
    row's flat C-order index, which sorts as count tuples do.  Weight 0.0 makes no atom."""
    check_p(p)
    t = tuple(sorted(t or ()))
    stat = statistic(kind)
    stat.check(n, d, t)
    table = _small_graph_counts(kind, n, d, t)  # check refuses a stray t
    m = math.comb(n, 2)
    wtable = np.array([p ** e * (1.0 - p) ** (m - e) for e in range(m + 1)])
    dims = tuple(int(v) + 1 for v in table.max(axis=0))
    masses = np.bincount(np.ravel_multi_index(table.T, dims),
                         weights=wtable[np.bitwise_count(np.arange(len(table)))])
    keys = np.flatnonzero(masses)
    params = {"n": n, "p": p, "d": d, **({"t": list(t)} if stat.needs_t else {})}
    points = np.column_stack(np.unravel_index(keys, dims))
    return ExactDistribution(kind, params, points, masses[keys])


def exact_moments(kind: str, n: int, p: float, d: int, t=None) -> MomentReport:
    """Mean vector and full covariance matrix from the exact distribution."""
    dist = exact_distribution(kind, n, p, d, t)
    return MomentReport(kind, dist.params, *dist.moments(), "exact-oracle")
