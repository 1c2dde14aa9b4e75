"""Per-graph references for the tests: every graph on n vertices, one Graph
at a time, each statistic's count vector from a walk on one Graph (the
reference that kinds._small_graph_counts' tables must equal), the walk's
critical minima, and a hypothesis strategy for small graphs."""

from math import comb

from hypothesis import strategies as st

from cliquestats.graphs import (MAX_ENUM_VERTICES, EnumerationCapError, Graph, check_p,
                                clique_walk)
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
