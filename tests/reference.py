"""Per-graph references for the tests: every graph on n vertices, one Graph
at a time, and each statistic's count vector from a walk on one Graph, the
reference that kinds._small_graph_counts' tables must equal."""

from math import comb

from cliquestats.graphs import MAX_ENUM_VERTICES, EnumerationCapError, Graph, clique_walk
from cliquestats.morse import critical_counts_formula


def all_graphs(n: int):
    """Yield every labeled graph on n vertices once, in edge-bitmask order.

    Hard-capped at n=6 (32768 graphs), as the count tables are.
    """
    if n > MAX_ENUM_VERTICES:
        raise EnumerationCapError(
            "exhaustive enumeration capped at n=%d (got n=%d)" % (MAX_ENUM_VERTICES, n))
    for mask in range(1 << comb(n, 2)):
        yield Graph(n, mask)


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
