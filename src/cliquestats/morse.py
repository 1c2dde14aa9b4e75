"""Lexicographical acyclic matching on clique complexes and critical-simplex
counting, by direct matching construction and by the product-indicator sum.

A Matching keeps each simplex as a sorted tuple of vertices.  For a clique
s, the set I(s) = {j < min(s) : s+{j} is a clique} decides the upward match:
s pairs with s+{min I(s)} whenever I(s) is nonempty.  The matching and the
direct counts are read off graphs' one ascending walk on vertex bitmasks
(clique_masks), which carries I(s) = C(s) & below(min s) down from each
clique's prefix; tuples are built only for the pairs of a Matching.
Criticality for sizes >= 2 is what the counting formula covers, evaluated by
the kernels a replicate runs (kinds.critical_counts): the count table at
n <= 6 and clique_levels' critical mode above it.  Vertex criticality (vertex v is
critical iff it has no smaller-labelled neighbour) is outside the
CLT-statistics scope; tests/reference.py keeps it for the weak Morse checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import lt

from .graphs import Graph, clique_masks, mask_tuple
from .kinds import critical_counts


_NOT_INCREASING = "a simplex is not a strictly increasing tuple of vertices >= 1"


def _check_pairs(pairs):
    """Pair by pair, in iteration order: each simplex strictly increasing,
    each coface its face plus one vertex, no simplex in two pairs."""
    seen = set()
    for face, coface in pairs:
        fs, cs = set(face), set(coface)
        if list(face) != sorted(fs) or list(coface) != sorted(cs):
            raise ValueError("pair %r -> %r: %s" % (face, coface, _NOT_INCREASING))
        if len(coface) - len(face) != 1 or not fs < cs:
            raise ValueError("invalid pair %r -> %r" % (face, coface))
        for s in (face, coface):
            if s in seen:
                raise ValueError("simplex %r appears in two pairs" % (s,))
            seen.add(s)


def _lexicographic(pairs):
    """The simplices of pairs when each pair is (face, (j,) + face), two tuples
    of int vertices with 1 <= j < face[0] and face strictly increasing, and
    no simplex is in two pairs; else None.  _matched checks the same rule on
    bitmasks."""
    try:
        for face, coface in pairs:
            if not (type(face) is tuple is type(coface) and face and coface[1:] == face
                    and 0 < coface[0] < face[0]
                    and (len(face) == 1 or all(map(lt, face, face[1:])))):
                return None
    except (TypeError, ValueError):  # not two simplices, or vertices that do not compare
        return None
    matched = set(chain.from_iterable(pairs))
    if len(matched) == 2 * len(pairs) and {*map(type, chain.from_iterable(matched))} <= {int}:
        return matched
    return None


def _validated(pairs) -> set:
    """The simplices of pairs, once Matching's checks pass.  Lexicographic
    pairs are valid as they stand, so when every pair is one, a set size
    finds repeats; else every simplex must be a tuple of int vertices >= 1,
    then _check_pairs runs, and the first fault raises."""
    matched = _lexicographic(pairs)
    if matched is None:
        simplices = [s for pair in pairs for s in pair]
        if not ({*map(type, simplices)} <= {tuple}
                and {*map(type, chain.from_iterable(simplices))} <= {int}
                and min(chain.from_iterable(simplices), default=1) >= 1):
            raise ValueError(_NOT_INCREASING)
        _check_pairs(pairs)
        matched = set(simplices)
    return matched


@dataclass(frozen=True)
class Matching:
    """Partial matching: set of (face, coface) pairs with |coface|-|face|=1,
    each simplex a strictly increasing tuple of vertices >= 1."""

    pairs: frozenset

    def __post_init__(self):
        _validated(self.pairs)

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


@lru_cache(maxsize=1 << 12)
def _pair(t: int) -> tuple:
    """The lexicographic pair whose coface is the mask t: the pair (s, s |
    the lowest bit of I(s)) of a clique s of clique_masks has t = that, and
    its face s is t less its lowest bit, since I(s) lies below min s.  No
    simplex is in two pairs of one Matching, so the cache serves the coface
    masks that recur from graph to graph: all 64 subsets of {1..6} fit in it,
    and so do all 4096 of {1..12}.  Over a perfbench small-graphs run
    (seed 1) 99.97% of calls hit, and 96% over the 1000 G(12, 1/2) graphs
    of verify --suite morse-equivalence; at G(20, 1/2) the cache is full
    and 70% hit."""
    return mask_tuple(t & t - 1), mask_tuple(t)


def _pairs(levels) -> frozenset:
    """The lexicographic pairs of clique_masks' levels as (face, coface)
    tuples."""
    return frozenset(_pair(s | i & -i) for level in levels for s, _, i in level if i)


def _matched(levels) -> set:
    """The masks in the pairs (s, s | the lowest bit of I(s)) over the
    cliques s of clique_masks' levels with I(s) nonempty, once the checks of
    _lexicographic, its tuple twin, pass in mask form: each coface is its
    face plus one bit below the face's lowest bit, and no mask is in two
    pairs, else ValueError."""
    matched = set()
    add = matched.add
    pairs = 0
    for level in levels:
        for s, _, i in level:
            if i:
                low = i & -i
                if low >= s & -s:
                    raise ValueError("invalid pair %r -> %r"
                                     % (mask_tuple(s), mask_tuple(s | low)))
                add(s)
                add(s | low)
                pairs += 1
    if len(matched) != 2 * pairs:  # name the first repeat, as _check_pairs does
        seen = set()
        for level in levels:
            for s, _, i in level:
                for m in (s, s | i & -i) if i else ():
                    if m in seen:
                        raise ValueError("simplex %r appears in two pairs"
                                         % (mask_tuple(m),))
                    seen.add(m)
    return matched


def lex_matching(g: Graph, max_size: int) -> Matching:
    """Pairs (s, s + {min I(s)}) over all cliques s of size <= max_size with
    I(s) nonempty."""
    if max_size > g.n:
        raise ValueError("max_size exceeds vertex count")
    # a size-n clique has empty I(s), so capping at n-1 loses nothing
    return Matching(_pairs(clique_masks(g, min(max_size, g.n - 1))))


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
    return _unmatched(levels, _matched(levels), d)


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
    (s, t) -> (f, up[f]) for each face f != s of t matched upward.  Simplices
    are bitmasks here: a node is keyed by its face's mask, and the faces of
    t are its mask with one vertex bit cleared.  A finite digraph is acyclic
    iff repeatedly deleting its nodes of in-degree 0 deletes every node
    (Kahn, CACM 1962), so the nodes are peeled in that way."""
    adj, n = g.adj, g.n
    node, cofaces = {}, []
    for s, t in m.pairs:
        if t[-1] > n:
            continue
        tm, common = 0, -1
        for v in t:
            tm |= 1 << v
            common &= adj[v] | 1 << v
        if tm & ~common:  # some vertex of t is not adjacent to the rest
            continue
        sm = 0
        for v in s:
            sm |= 1 << v
        node[sm] = len(cofaces)
        cofaces.append((sm, tm, t))
    succ, indeg = [], [0] * len(cofaces)
    for sm, tm, t in cofaces:
        out = []
        for v in t:
            f = tm ^ 1 << v
            if f != sm and f in node:
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
