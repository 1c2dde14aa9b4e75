"""Lexicographical acyclic matching on clique complexes and critical-simplex
counting, by direct matching construction and by the product-indicator sum.

A Matching keeps each simplex as a vertex bitmask, bit v for vertex v >= 1,
and shows its pairs as sorted vertex tuples only in its pairs view.  For a
clique s, the set I(s) = {j < min(s) : s+{j} is a clique} decides the upward
match: s pairs with s+{min I(s)} whenever I(s) is nonempty.  The matching
and the direct counts are read off graphs' one ascending walk on vertex
bitmasks (clique_masks), which carries I(s) = C(s) & below(min s) down from
each clique's prefix.  Its pairs are checked once, on the masks (_matched),
and Matching._of_walk keeps those masks as they are: a Matching is a plain
value, and its constructor checks nothing.
Criticality for sizes >= 2 is what the counting formula covers, evaluated by
the kernels a replicate runs (kinds.critical_counts): the count table at
n <= 6 and clique_levels' critical mode above it.  Vertex criticality (vertex v is
critical iff it has no smaller-labelled neighbour) is outside the
CLT-statistics scope; tests/reference.py keeps it for the weak Morse checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graphs import Graph, clique_masks, mask_tuple
from .kinds import critical_counts


_NOT_INCREASING = "a simplex is not a strictly increasing tuple of vertices >= 1"


@dataclass(frozen=True)
class Matching:
    """Partial matching: the set masks of (face, coface) vertex bitmasks,
    each coface its face plus one vertex >= 1, no simplex in two pairs.  The
    constructor checks none of this; _of_walk builds it from pairs _matched
    has checked."""

    masks: frozenset

    @classmethod
    def _of_walk(cls, levels) -> tuple:
        """_matched(levels)'s masks and the Matching of its pairs, each
        (t less its lowest bit, t) for a coface t."""
        matched, cofaces = _matched(levels)
        return matched, cls(frozenset([(t & t - 1, t) for t in cofaces]))

    @property
    def pairs(self) -> frozenset:
        """The pairs as (face, coface) vertex tuples."""
        return frozenset([(mask_tuple(s), mask_tuple(t)) for s, t in self.masks])

    def simplices(self) -> frozenset:
        return frozenset(chain.from_iterable(self.pairs))

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


def _matched(levels) -> tuple:
    """The set of masks in the pairs (s, s | the lowest bit of I(s)) over
    the cliques s of clique_masks' levels with I(s) nonempty, and the list
    of their cofaces in walk order, once a matching's rule passes in mask
    form: no mask has bit 0 (vertex 0), each coface is its face plus one bit
    below the face's lowest bit, and no mask is in two pairs.  Else
    ValueError names the first fault, its simplices as vertex tuples:
    _NOT_INCREASING, "invalid pair (face) -> (coface)" or "simplex (s)
    appears in two pairs"."""
    faces, cofaces = [], []
    for level in levels:
        for s, _, i in level:
            if i:
                low = i & -i
                if not 1 < low < s & -s:
                    if (s | low) & 1:
                        raise ValueError(_NOT_INCREASING)
                    raise ValueError("invalid pair %r -> %r"
                                     % (mask_tuple(s), mask_tuple(s | low)))
                faces.append(s)
                cofaces.append(s | low)
    matched = {*faces, *cofaces}
    if len(matched) != 2 * len(faces):  # name the first repeat in walk order
        seen = set()
        for m in chain.from_iterable(zip(faces, cofaces)):
            if m in seen:
                raise ValueError("simplex %r appears in two pairs" % (mask_tuple(m),))
            seen.add(m)
    return matched, cofaces


def lex_matching(g: Graph, max_size: int) -> Matching:
    """Pairs (s, s + {min I(s)}) over all cliques s of size <= max_size with
    I(s) nonempty."""
    if max_size > g.n:
        raise ValueError("max_size exceeds vertex count")
    # a size-n clique has empty I(s), so capping at n-1 loses nothing
    return Matching._of_walk(clique_masks(g, min(max_size, g.n - 1)))[1]


def _crit_sizes(d: int, n: int):
    if d + 1 > n:
        raise ValueError("need d+1 <= n")
    return range(2, d + 2)


def _unmatched(levels, matched, d: int) -> CriticalVector:
    """The cliques of each size 2..d+1 in levels whose masks are not in matched."""
    return CriticalVector(tuple(sum([s not in matched for s, _, _ in levels[size - 1]])
                                for size in range(2, d + 2)))


def critical_counts_direct(g: Graph, d: int) -> CriticalVector:
    """Count cliques of each size 2..d+1 unmatched by the lexicographical
    matching, both read off one ascending walk to depth d+1: the matching's
    pairs from faces of size <= d+1 reach size d+2, so upward matches at the
    top size are seen, and larger faces match no clique of size <= d+1."""
    _crit_sizes(d, g.n)
    levels = clique_masks(g, d + 1)
    return _unmatched(levels, _matched(levels)[0], d)


def critical_counts_formula(g: Graph, d: int) -> CriticalVector:
    """The product-indicator sum for each size 2..d+1, as a replicate drawing
    g's edges counts it."""
    _crit_sizes(d, g.n)
    return CriticalVector(tuple(critical_counts(g.n, g.edge_mask, d)))


def verify_acyclic(m: Matching, g: Graph) -> bool:
    """True iff no directed cycle exists in the graph on g's cliques whose arcs
    follow matched pairs upward and unmatched codimension-1 faces downward.

    Such a cycle alternates between two adjacent sizes.  A simplex lies in at
    most one pair, so the head of an up arc has none, no two up arcs are
    consecutive, and a cycle, with as many up arcs as down arcs, goes up
    through a pair (s, t), down to a face f != s of t, up through (f, up[f]),
    and so on: it is a closed V-path (Forman, Adv. Math. 1998).  So the
    check runs on the pairs alone: one node per pair whose coface t is a
    clique of g (an up arc into any other simplex is a dead end), and an arc
    (s, t) -> (f, up[f]) for each face f != s of t matched upward.  A node is
    keyed by its face's mask, and the faces of t are its mask with one
    vertex bit cleared.  A finite digraph is acyclic iff repeatedly deleting
    its nodes of in-degree 0 deletes every node (Kahn, CACM 1962), so the
    nodes are peeled in that way."""
    adj, n = g.adj, g.n
    node, arcs = {}, []
    for s, t in m.masks:
        if t >> n + 1:  # a vertex above n
            continue
        common, rest = -1, t
        while rest:
            low = rest & -rest
            rest ^= low
            common &= adj[low.bit_length() - 1] | low
        if t & ~common:  # some vertex of t is not adjacent to the rest
            continue
        node[s] = len(arcs)
        arcs.append((s, t))
    succ, indeg = [], [0] * len(arcs)
    for s, t in arcs:
        out, rest = [], t
        while rest:
            low = rest & -rest
            rest ^= low
            f = t ^ low
            if f != s and f in node:
                out.append(node[f])
                indeg[node[f]] += 1
        succ.append(out)
    sources = [i for i, k in enumerate(indeg) if not k]
    for i in sources:  # grows while the loop runs, as nodes lose their last in-arc
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                sources.append(j)
    return len(sources) == len(succ)
