"""Per-graph references for the tests: every graph on n vertices, one Graph
at a time, each statistic's count vector from a walk on one Graph (the
reference that kinds._small_graph_counts' tables must equal), the walk's
critical minima, and a hypothesis strategy for small graphs.  Also the
convex discrepancy estimator as it was before its cuts, blocks and
histogram were computed in fewer passes: the reference that
montecarlo.convex_discrepancy must equal bit for bit."""

import itertools
import math
from math import comb

import numpy as np
from hypothesis import strategies as st

from cliquestats.graphs import (MAX_ENUM_VERTICES, EnumerationCapError, Graph, check_p,
                                clique_walk, gnp_generator)
from cliquestats.montecarlo import (HALFSPACE_DIRECTIONS, QUANTILE_CUTS, ConvexFamily,
                                    DiscrepancyReport, _columns, _runs)
from cliquestats.morse import _below_mask, critical_counts_formula


def all_graphs(n: int):
    """Yield every labeled graph on n vertices once, in edge-bitmask order.

    Hard-capped at n=6 (32768 graphs), as the count tables are.
    """
    if n > MAX_ENUM_VERTICES:
        raise EnumerationCapError(
            "exhaustive enumeration capped at n=%d (got n=%d)" % (MAX_ENUM_VERTICES, n))
    for mask in range(1 << comb(n, 2)):
        yield Graph(n, mask)


@st.composite
def graphs_on_at_most_9(draw):
    n = draw(st.integers(1, 9))
    return Graph(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


def graph_probability(g: Graph, p: float) -> float:
    """P(G(n,p) = g) = p^edges * (1-p)^missing."""
    check_p(p)
    m = comb(g.n, 2)
    e = g.edge_count
    return p ** e * (1.0 - p) ** (m - e)


def link_candidates(g: Graph, t) -> int:
    """Mask of the vertices outside t adjacent to every vertex of t."""
    cand = g.vertex_mask
    for v in t:
        cand &= g.adj[v] & ~(1 << v)
    return cand


# kind -> (Graph, d, t) -> the d counts of the kind's sizes on that graph
GRAPH_COUNTS = {
    "critical": lambda g, d, t: critical_counts_formula(g, d).counts,
    "link": lambda g, d, t: tuple(clique_walk(g.adj, link_candidates(g, t), d)[1:]),
    "clique": lambda g, d, t: tuple(clique_walk(g.adj, g.vertex_mask, d + 1)[2:]),
}


def critical_minima(g: Graph, k: int) -> list[int]:
    """min(s) of every critical size-k simplex s, in ascending order, from
    clique_walk on g: the walk reference that clique_levels' minima are
    tested against."""
    if not 2 <= k <= g.n:
        raise ValueError("k must lie in [2, n]")
    minima = [[] for _ in range(k + 1)]
    clique_walk(g.adj, g.vertex_mask, k, minima)
    return sorted(minima[k])


def truncated_critical_count(g: Graph, k: int, K: int) -> int:
    """The size-k critical-count sum restricted to simplices with min(s) <= K."""
    if not 1 <= K <= g.n - k + 1:
        raise ValueError("K must lie in [1, n-k+1]")
    return sum(m <= K for m in critical_minima(g, k))


def is_vertex_critical(g: Graph, v: int) -> bool:
    """A vertex is critical iff it has no neighbour with a smaller label;
    vertex 1 always is."""
    return not g.adj[v] & _below_mask(v)


def convex_family(w: np.ndarray, z: np.ndarray, seed: int = 0) -> ConvexFamily:
    """montecarlo.convex_family with one np.quantile call per pooled column
    and per projection."""
    pooled = np.vstack([w, z])
    qs = np.linspace(0.0, 1.0, QUANTILE_CUTS + 2)[1:-1]
    grid = [np.quantile(np.sort(col), qs) for col in pooled.T]
    rng = gnp_generator(seed, 2 ** 32)
    halfspaces = []
    for _ in range(HALFSPACE_DIRECTIONS):
        u = rng.standard_normal(pooled.shape[1])
        u /= np.linalg.norm(u)
        for c in np.quantile(np.sort(pooled @ u), qs):
            halfspaces.append((u, float(c)))
    return ConvexFamily([np.asarray(g) for g in grid], halfspaces)


def rect_probs(samples: np.ndarray, grid) -> np.ndarray:
    """montecarlo._rect_probs with the histogram filled by np.add.at."""
    d = samples.shape[1]
    shape = tuple(len(g) + 1 for g in grid)
    idx = tuple(np.searchsorted(grid[i], samples[:, i], side="right")
                for i in range(d))
    hist = np.zeros(shape)
    np.add.at(hist, idx, 1.0)
    hist /= len(samples)
    cum = hist
    for axis in range(d):
        cum = np.cumsum(cum, axis=axis)
    pad = np.zeros(tuple(s + 1 for s in shape))
    pad[tuple(slice(1, None) for _ in range(d))] = cum
    return pad


def rect_blocks(cum: np.ndarray):
    """montecarlo._rect_blocks with 2^d np.ix_ gathers per first-axis
    interval, each corner added as sign * value from 0.0."""
    ends = [np.triu_indices(s, 1) for s in cum.shape]
    terms = [((-1) ** corner.count(0), corner[0],
              np.ix_(*(e[b] for e, b in zip(ends[1:], corner[1:]))))
             for corner in itertools.product((0, 1), repeat=cum.ndim)]
    for first in zip(*ends[0]):
        block = 0.0
        for sign, b, rest in terms:
            block = block + sign * cum[first[b]][rest]
        yield np.ravel(block)


def convex_discrepancy(w_samples, z_samples, bound=None, seed: int = 0) -> DiscrepancyReport:
    """montecarlo.convex_discrepancy on the functions above, with every
    projection a matmul."""
    w, z = _columns(w_samples, z_samples)
    family = convex_family(w, z, seed=seed)
    rects = zip(rect_blocks(rect_probs(w, family.grid)),
                rect_blocks(rect_probs(z, family.grid)))
    halfspaces = tuple(np.concatenate([
        np.count_nonzero((s @ u)[None, :] <= np.array(cuts)[:, None], axis=1) / len(s)
        for u, cuts in _runs(family.halfspaces)]) for s in (w, z))
    best = (-1.0, 0.0)
    for pw, pz in itertools.chain(rects, [halfspaces]):
        est = np.abs(pw - pz)
        i = int(np.argmax(est))
        if est[i] > best[0]:
            best = (float(est[i]), math.sqrt(pw[i] * (1.0 - pw[i]) / len(w)
                                             + pz[i] * (1.0 - pz[i]) / len(z)))
    return DiscrepancyReport(best[0], best[1], family.description, bound)
