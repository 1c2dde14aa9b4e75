"""Graphs on vertex set {1..n}: G(n,p) sampling, clique indicators over arrays
of edge masks, clique listing by one ascending walk, and the descending clique
walk, on bitmask rows (counts) or level by level (counts and critical counts).

Edges are stored one bit per unordered pair, in lexicographic pair order
((1,2), (1,3), ..., (1,n), (2,3), ...).  Adjacency rows are n-bit masks
(bit v set on row u means u~v), so clique extension is a mask intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

MAX_ENUM_VERTICES = 6

LEVEL_BLOCK = 256  # rows per clique_levels product: a block's float32 rows and product take
# 8 LEVEL_BLOCK (n + 1) bytes, and its children's boolean rows up to LEVEL_BLOCK (n + 1)^2


class EnumerationCapError(ValueError):
    """Raised when exhaustive graph enumeration is requested beyond the cap."""


def _pair_bit(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    # pairs (1,*) occupy bits 0..n-2, pairs (2,*) the next n-2 bits, etc.
    return (i - 1) * n - (i - 1) * i // 2 + (j - i - 1)


def spans_clique(masks, n: int, s, skip=()) -> np.ndarray:
    """Per edge mask in masks, whether every pair of the vertices s with an end
    outside skip is an edge: masks & E == E, E the bits of those pairs."""
    e = sum(1 << _pair_bit(n, i, j) for i, j in combinations(s, 2) if not {i, j} <= set(skip))
    return (masks & e) == e


class Graph:
    """Immutable undirected graph on vertices 1..n.

    ``edge_mask`` packs edge presence in lexicographic pair order; ``adj[v]``
    is the neighbour bitmask of vertex v (bit u set iff u~v, 1-indexed bits)
    and ``vertex_mask`` has bits 1..n set.
    """

    __slots__ = ("n", "edge_mask", "adj", "vertex_mask")

    def __init__(self, n: int, edge_mask: int = 0):
        if n < 1:
            raise ValueError("need at least one vertex")
        m = comb(n, 2)
        if edge_mask < 0 or edge_mask >> m:
            raise ValueError("edge mask out of range for n=%d" % n)
        self.n = n
        self.edge_mask = edge_mask
        self.vertex_mask = (1 << (n + 1)) - 2
        adj = [0] * (n + 1)
        for i in range(1, n):  # the pairs (i, i+1..n) are the next n - i bits
            run = edge_mask & ((1 << (n - i)) - 1)
            edge_mask >>= n - i
            adj[i] |= run << (i + 1)
            bit = 1 << i
            while run:  # the mirrored half: i joins the row of each upper neighbour
                k = run.bit_length()  # the neighbour i + k
                run ^= 1 << (k - 1)
                adj[i + k] |= bit
        self.adj = tuple(adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        mask = 0
        for i, j in edges:
            if i == j:
                raise ValueError("self-loop (%d,%d)" % (i, j))
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("vertex out of range in edge (%d,%d)" % (i, j))
            mask |= 1 << _pair_bit(n, i, j)
        return cls(n, mask)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, (1 << comb(n, 2)) - 1)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, 0)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n) for j in range(i + 1, self.n + 1)
                if self.adj[i] >> j & 1]

    @property
    def edge_count(self) -> int:
        return self.edge_mask.bit_count()

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edge_mask == other.edge_mask

    def __hash__(self):
        return hash((self.n, self.edge_mask))

    def __repr__(self):
        return "Graph(n=%d, edges=%d)" % (self.n, self.edge_count)

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse n, then one 'i j' line per edge; a malformed line is named by its number."""
        rows = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1)
                if ln.strip()]
        if not rows:
            raise ValueError("empty graph file")
        values = []
        for k, (no, fields) in enumerate(rows):
            try:
                ints = tuple(int(f) for f in fields)
            except ValueError:
                ints = ()
            if len(ints) != (2 if k else 1):
                raise ValueError("graph file line %d: expected %s, got %r" % (
                    no, "two vertex numbers" if k else "a vertex count", " ".join(fields)))
            values.append(ints)
        return cls.from_edges(values[0][0], values[1:])


@dataclass(frozen=True)
class GnpParams:
    """Parameters of the G(n,p) model plus a 64-bit reproducibility seed."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_p(self.p)
        check_seed(self.seed)


def check_p(p: float) -> None:
    """An edge probability must lie in [0,1]; NaN does not."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")


def check_seed(seed: int) -> None:
    """Philox keys are two 64-bit words, so a seed must fit in one."""
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must be an unsigned 64-bit integer")


def check_streams(first: int, count: int) -> None:
    """Streams first..first + count - 1 are Philox key words, so they must lie
    in 0..2^64 - 1."""
    if count < 0 or not 0 <= first <= 2 ** 64 - count:
        raise ValueError("streams %d..%d are outside the Philox key range 0..2^64 - 1"
                         % (first, first + count - 1))


def gnp_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Philox4x64 keyed directly with the two words, so the mapping from
    (seed, stream) to the bit stream is the documented Philox algorithm and
    reproducible across platforms and numpy versions.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gnp_streams(seed: int, first_stream: int, count: int):
    """Yield the generators gnp_generator(seed, first_stream + r), r < count, as
    one Generator whose Philox state is reset to a fresh one's (counter 0, no
    buffered word or half-word) under each key in turn; a fresh generator
    costs about four times as much.  Each is valid until the next is yielded."""
    check_seed(seed)
    check_streams(first_stream, count)
    bitgen = np.random.Philox(key=np.array([seed, first_stream], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # a copy, taken before any draw
    for stream in range(first_stream, first_stream + count):
        state["state"]["key"] = np.array([seed, stream], dtype=np.uint64)
        bitgen.state = state
        yield rng


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11) as numpy implements it: round multipliers and key-schedule (Weyl)
# increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products m * x, from 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & _LOW32, x >> _32
    p01, p10 = m0 * x1, m1 * x0
    mid = (m0 * x0 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    return m1 * x1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32), x * np.uint64(m)


def gnp_uniforms(seed: int, first_stream: int, count: int, m: int) -> np.ndarray:
    """A (count, m) float64 array whose row r is gnp_generator(seed,
    first_stream + r).random(m) bit for bit: Philox4x64-10 run across the
    keys at once.  Word w of a stream is word w % 4 of the block at counter
    w // 4 + 1 (numpy bumps the counter before each block), and a variate
    is (word >> 11) * 2^-53."""
    check_seed(seed)
    check_streams(first_stream, count)
    blocks = -(-m // 4)
    k0 = np.full((count, 1), seed, dtype=np.uint64)
    k1 = np.arange(first_stream, first_stream + count, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    c1 = c2 = c3 = np.zeros((count, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(count, 4 * blocks)[:, :m]
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _edges(u, p: float):
    """The edge rule: a pair is an edge iff its uniform variate is < p."""
    return u < p


def gnp_pairs(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """One G(n,p) draw as a boolean vector over the pairs in lexicographic
    order: one uniform variate per pair, pair b an edge iff its variate is < p."""
    return _edges(rng.random(comb(n, 2)), p)


def gnp_masks(u: np.ndarray, p: float) -> np.ndarray:
    """Int64 edge masks of the draws whose pair variates are the rows of u
    (at most 63 pairs): gnp_pairs' rule, pair b at bit b, as gnp_mask packs."""
    return _edges(u, p) @ (1 << np.arange(u.shape[1], dtype=np.int64))


def gnp_mask(rng: np.random.Generator, n: int, p: float) -> int:
    """Edge mask of one G(n,p) draw: gnp_pairs packed, pair b at bit b."""
    return int.from_bytes(np.packbits(gnp_pairs(rng, n, p), bitorder="little").tobytes(),
                          "little")


@lru_cache(maxsize=64)
def _upper(n: int) -> np.ndarray:
    """Read-only mask of the cells [u, v], 1 <= u < v <= n; in row-major order
    they are the pairs in lexicographic order."""
    upper = ~np.tri(n + 1, dtype=bool)
    upper[0] = False  # row and column 0 are unused
    upper.flags.writeable = False  # shared through the cache
    return upper


def pair_matrix(n: int, pairs) -> np.ndarray:
    """The boolean (n+1) x (n+1) upper-triangle matrix of a pair vector (as from
    gnp_pairs): cell [u, v] is set iff u < v and the pair (u, v) is an edge."""
    a = np.zeros((n + 1, n + 1), dtype=bool)
    a[_upper(n)] = pairs
    return a


def mask_pairs(n: int, mask: int) -> np.ndarray:
    """gnp_mask unpacked: the boolean pair vector, pair b an edge iff bit b is set."""
    m = comb(n, 2)
    return np.unpackbits(np.frombuffer(mask.to_bytes(m // 8 + 1, "little"), dtype=np.uint8),
                         count=m, bitorder="little").view(bool)


def sample_gnp(params: GnpParams, stream: int = 0) -> Graph:
    """Draw one graph from G(n,p): each pair present independently with
    probability p."""
    rng = gnp_generator(int(params.seed), stream)
    return Graph(params.n, gnp_mask(rng, params.n, params.p))


def clique_lists(g: Graph, top: int) -> list:
    """levels[k], k = 0..top: the k-cliques s of g in lexicographic order, each as
    (s, C(s)) with C(s) the AND of adj[v] over s, its common neighbours
    (levels[0] holds the empty clique and every vertex).  One ascending walk:
    s grows by each v in C(s) & above(max s), so each clique is built once,
    from its prefix, and its C(s) with one AND."""
    adj = g.adj
    levels = [[((), g.vertex_mask)]]
    for _ in range(top):
        level = []
        for s, c in levels[-1]:
            mask = c & -(2 << s[-1]) if s else c  # C(s) & above(max s)
            while mask:
                low = mask & -mask
                mask ^= low
                v = low.bit_length() - 1
                level.append((s + (v,), c & adj[v]))
        levels.append(level)
    return levels


def cliques(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques of g as sorted vertex tuples, in lexicographic order."""
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in [1, n]")
    return [s for s, _ in clique_lists(g, k)[k]]


def clique_walk(adj, cand, top: int) -> list[int]:
    """Counts of the cliques of every size 0..top inside mask cand, from one
    walk: s = P + {v} grows by C(s) = C(P) & adj[v] & below(v), the vertices
    of cand below min(s) adjacent to all of s.  Size top is C(P).bit_count()
    alone."""
    counts = [1] + [0] * top

    def grow(c, size):  # c = C(P) for a clique P of this size
        counts[size + 1] += c.bit_count()
        mask = c if size + 1 < top else 0
        while mask:
            low = mask & -mask
            mask ^= low
            child = c & adj[low.bit_length() - 1] & (low - 1)
            if child:
                grow(child, size + 1)

    if top > 0:
        grow(cand, 0)
    return counts


def clique_levels(a, top: int, critical: bool = False, minima=None) -> list[int]:
    """Clique or critical counts of sizes 0..top of pair_matrix a, a level at a time:
    row s of a boolean x is C(s), the vertices below min(s) adjacent to all of s, x @ a
    (low = a^T, low[u] = u's neighbours below u) is |C(s + u)| for each child s + u, and
    x[s] & low[u] is its row.  From size 2 on, s + u is critical (matched neither up nor
    down) iff C(s + u) is empty and C(s) & below(u) is not.  With minima (top + 1 lists),
    critical mode appends min(s + u) = u to minima[|s| + 1] for each critical child.

    The product is float32: each entry, and each partial sum in any BLAS order, is an
    integer <= n < 2^24, so it is exact whatever order the BLAS adds in.  A block's
    clique total can pass 2^24 (n >= about 363), so it is summed in float64.  In
    critical mode, u = min C(s) has x[s, u] set and (x @ a)[s, u] = |C(s) & low[u]| = 0,
    since low[u] lies below u; it is the one u <= min C(s) in C(s).  So the critical
    children of s are the entries of row s of x & (x @ a == 0) after its first, and
    they number that array's entries less the non-empty rows of x."""
    n = len(a) - 1
    low = np.ascontiguousarray(a.T)  # C({u}) = low[u]
    lowt = a.astype(np.float32)
    out = [0] * (top + 2) if critical else [1, n, int(np.count_nonzero(low))] + [0] * top
    last = top - 1 if critical else top - 2  # the deepest level that takes a product

    def level(x, size):  # x: C(s) of the cliques s of this size
        for i in range(0, len(x), LEVEL_BLOCK):
            xb = x[i:i + LEVEL_BLOCK]
            xf = xb.astype(np.float32)
            prod = xf @ lowt  # exact: every entry and partial sum is an integer <= n
            if critical:  # s + u with C(s + u) empty and min C(s) < u
                zero = xb & (prod == 0)  # the critical children and each row's min C(s)
                out[size + 1] += int(np.count_nonzero(zero)) - int(np.count_nonzero(xb.any(axis=1)))
                if minima is not None:  # row-major, so each row's min C(s) comes first
                    s, u = np.nonzero(zero)
                    minima[size + 1] += u[1:][s[1:] == s[:-1]].tolist()
            else:
                out[size + 2] += int((xf * prod).sum(dtype=np.float64))
            if size < last:
                s, u = np.nonzero(xb & (prod > 0))
                level(xb[s] & low[u], size + 1)

    if last >= 1:
        level(low, 1)
    return out[:top + 1]


def clique_count(g: Graph, k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return clique_walk(g.adj, g.vertex_mask, k)[k]


def link_count(g: Graph, t, k: int) -> int:
    """Number of size-k subsets s disjoint from t such that s is a clique and
    every cross pair (i in s, j in t) is an edge.

    Evaluated literally, so t itself need not be a clique.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(not 1 <= v <= g.n for v in t):
        raise ValueError("t has vertices outside 1..n")
    cand = g.vertex_mask
    for v in t:
        cand &= g.adj[v] & ~(1 << v)
    return clique_walk(g.adj, cand, k)[k]
