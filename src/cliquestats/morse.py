"""Lexicographical acyclic matching on clique complexes and critical-simplex
counting, by direct matching construction and by the product-indicator sum.

Vertices of a simplex are kept as sorted tuples.  For a clique s, the set
I(s) = {j < min(s) : s+{j} is a clique} decides the upward match: s pairs
with s+{min I(s)} whenever I(s) is nonempty.  Criticality for sizes >= 2 is
what the counting formula covers, read off one clique walk (clique_walk);
vertex criticality is a separate helper (vertex v is critical iff it has no
smaller-labelled neighbour), outside the CLT-statistics scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, clique_walk, cliques


@dataclass(frozen=True)
class Matching:
    """Partial matching: set of (face, coface) pairs with |coface|-|face|=1."""

    pairs: frozenset

    def __post_init__(self):
        seen = set()
        for face, coface in self.pairs:
            if len(coface) - len(face) != 1 or not set(face) < set(coface):
                raise ValueError("invalid pair %r -> %r" % (face, coface))
            for s in (face, coface):
                if s in seen:
                    raise ValueError("simplex %r appears in two pairs" % (s,))
                seen.add(s)

    def simplices(self) -> frozenset:
        out = set()
        for face, coface in self.pairs:
            out.add(face)
            out.add(coface)
        return frozenset(out)

    def __len__(self):
        return len(self.pairs)

    def dump(self) -> str:
        """One line per pair, 'face -> coface', sizes ascending then lexicographic."""
        items = sorted(self.pairs, key=lambda fc: (len(fc[0]), fc[0]))
        return "\n".join(
            "%s -> %s" % (",".join(map(str, f)), ",".join(map(str, c)))
            for f, c in items)


@dataclass(frozen=True)
class CriticalVector:
    """Critical-simplex counts for sizes 2..d+1 (dimensions 1..d)."""

    counts: tuple

    @property
    def d(self) -> int:
        return len(self.counts)

    def by_size(self, size: int) -> int:
        if not 2 <= size <= self.d + 1:
            raise ValueError("size %d outside 2..%d" % (size, self.d + 1))
        return self.counts[size - 2]


def _below_mask(v: int) -> int:
    # bits 1..v-1
    return (1 << v) - 2


def lex_matching(g: Graph, max_size: int) -> Matching:
    """Pairs (s, s + {min I(s)}) over all cliques s of size <= max_size with
    I(s) nonempty."""
    if max_size > g.n:
        raise ValueError("max_size exceeds vertex count")
    pairs = []
    # a size-n clique has empty I(s), so capping at n-1 loses nothing
    for size in range(1, min(max_size, g.n - 1) + 1):
        for s in cliques(g, size):
            common = (1 << (g.n + 1)) - 1
            for v in s:
                common &= g.adj[v]
            i_set = common & _below_mask(s[0])
            if i_set:
                j = (i_set & -i_set).bit_length() - 1
                pairs.append((s, tuple(sorted(s + (j,)))))
    return Matching(frozenset(pairs))


def _crit_sizes(d: int, n: int):
    if d + 1 > n:
        raise ValueError("need d+1 <= n")
    return range(2, d + 2)


def critical_counts_direct(g: Graph, d: int) -> CriticalVector:
    """Count cliques of each size 2..d+1 unmatched by the lexicographical
    matching (built one size beyond d+1 so upward matches at the top size
    are seen)."""
    matched = lex_matching(g, min(d + 2, g.n)).simplices()
    counts = tuple(
        sum(1 for s in cliques(g, size) if s not in matched)
        for size in _crit_sizes(d, g.n))
    return CriticalVector(counts)


def critical_counts_formula(g: Graph, d: int) -> CriticalVector:
    """The product-indicator sum for each size 2..d+1.  Subsets that are not
    cliques contribute 0, so the sum runs over the cliques of one walk."""
    sizes = _crit_sizes(d, g.n)
    minima = [[] for _ in range(d + 2)]
    clique_walk(g.adj, g.vertex_mask, d + 1, minima)
    return CriticalVector(tuple(len(minima[size]) for size in sizes))


def critical_minima(g: Graph, k: int) -> list[int]:
    """min(s) of every critical size-k simplex s, in ascending order."""
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


def verify_acyclic(m: Matching, g: Graph) -> bool:
    """True iff no directed cycle exists in the graph whose arcs follow
    matched pairs upward and unmatched codimension-1 faces downward."""
    top = max((len(c) for _, c in m.pairs), default=0)
    nodes = []
    for size in range(1, top + 1):
        nodes.extend(cliques(g, size))
    up = dict(m.pairs)
    succ = {}
    for s in nodes:
        arcs = []
        if s in up:
            arcs.append(up[s])
        if len(s) >= 2:
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                if up.get(face) != s:
                    arcs.append(face)
        succ[s] = arcs

    WHITE, GREY, BLACK = 0, 1, 2
    color = {s: WHITE for s in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, BLACK)
                if c == GREY:
                    return False
                if c == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return True
