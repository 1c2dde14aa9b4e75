"""Per-graph references for the tests: every graph on n vertices, one Graph
at a time, edge lookup and the edge list by adjacency row, each statistic's
count vector from a walk on one Graph (the reference that
kinds._small_graph_counts' tables must equal), the critical walk and its
minima (the scalar reference for clique_levels' critical mode and the
critical count table), the lexicographic matching's walk on vertex tuples
(the reference for graphs' bitmask walk), and a hypothesis strategy for
small graphs.  Also the convex discrepancy estimator as it was before its
cuts, blocks and histogram were computed in fewer passes: the reference that
montecarlo.convex_discrepancy must equal bit for bit.  The oracle law's
moments summed atom by atom over Python tuples and floats, which
ExactDistribution.moments must equal bit for bit.  A morse.Matching built
from tuple pairs through the checks that the walk's pairs pass in mask form,
for the tests that build cyclic, partial or malformed matchings.  Two paper
statements no command prints: the two-sided bracket of the critical mean and
the single-overlap lower bound on the link covariance.  And the paper's
general dissociated-sum bound on a fully enumerated instance, which the
printed bounds of bounds.py must dominate at n <= 6."""

import itertools
import math
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from cliquestats.bounds import BoundReport
from cliquestats.graphs import (MAX_ENUM_VERTICES, EnumerationCapError, Graph, check_p,
                                clique_walk, gnp_generator)
from cliquestats.montecarlo import (HALFSPACE_DIRECTIONS, QUANTILE_CUTS, ConvexFamily,
                                    DiscrepancyReport, _columns, _runs)
from cliquestats.kinds import statistic
from cliquestats.moments import _check_crit_args, _check_link_args, comb0, crit_mu, link_mu, sigma
from cliquestats.morse import Matching


def below_mask(v: int) -> int:
    # bits 1..v-1
    return (1 << v) - 2


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
    e = g.edge_mask.bit_count()
    return p ** e * (1.0 - p) ** (m - e)


def has_edge(g: Graph, i: int, j: int) -> bool:
    """Whether i~j in g: bit j of i's adjacency row."""
    return bool(g.adj[i] >> j & 1)


def edges(g: Graph) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of g in lexicographic pair order."""
    return [(i, j) for i in range(1, g.n) for j in range(i + 1, g.n + 1) if has_edge(g, i, j)]


def link_candidates(g: Graph, t) -> int:
    """Mask of the vertices outside t adjacent to every vertex of t."""
    cand = g.vertex_mask
    for v in t:
        cand &= g.adj[v] & ~(1 << v)
    return cand


def critical_walk(g: Graph, top: int) -> list[list[int]]:
    """minima[k], k = 0..top: min(s) of each critical k-clique s of g, from one
    descending walk.  s = P + {v} grows by C(s) = C(P) & adj[v] & below(v), the
    vertices below min(s) adjacent to all of s, and s is critical iff |s| >= 2,
    C(s) is empty and C(P) & below(v) is not: the matching pairs s neither up
    nor down."""
    adj, minima = g.adj, [[] for _ in range(top + 1)]

    def grow(c, size):  # c = C(P) for a clique P of this size
        mask = c
        while mask:
            low = mask & -mask
            mask ^= low
            child = c & adj[low.bit_length() - 1] & (low - 1)
            if child and size + 1 < top:
                grow(child, size + 1)
            elif not child and size and c & (low - 1):
                minima[size + 1].append(low.bit_length() - 1)

    if top > 0:
        grow(g.vertex_mask, 0)
    return minima


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


def lex_walk(g: Graph, top: int):
    """The levels of clique_lists to depth top, and the lexicographic pairs
    (s, (min I(s),) + s) over the cliques s of those levels with I(s) =
    C(s) & below(min s) nonempty: the walk on vertex tuples that graphs'
    bitmask walk replaced, the reference that graphs.clique_masks,
    critical_counts_direct and lex_matching must agree with."""
    levels = clique_lists(g, top)
    pairs = []
    for level in levels[1:]:
        for s, c in level:
            i_set = c & below_mask(s[0])
            if i_set:
                pairs.append((s, ((i_set & -i_set).bit_length() - 1,) + s))
    return levels, pairs


def matching(pairs) -> Matching:
    """The Matching of tuple pairs (face, coface), once they pass the checks
    below: the type and range of every vertex first, then pair by pair in
    iteration order; the first fault raises ValueError."""
    simplices = [s for pair in pairs for s in pair]
    if not ({*map(type, simplices)} <= {tuple}
            and {*map(type, itertools.chain.from_iterable(simplices))} <= {int}
            and min(itertools.chain.from_iterable(simplices), default=1) >= 1):
        raise ValueError("a simplex is not a strictly increasing tuple of vertices >= 1")
    seen = set()
    for face, coface in pairs:
        fs, cs = set(face), set(coface)
        if list(face) != sorted(fs) or list(coface) != sorted(cs):
            raise ValueError("pair %r -> %r: a simplex is not a strictly increasing "
                             "tuple of vertices >= 1" % (face, coface))
        if len(coface) - len(face) != 1 or not fs < cs:
            raise ValueError("invalid pair %r -> %r" % (face, coface))
        for s in (face, coface):
            if s in seen:
                raise ValueError("simplex %r appears in two pairs" % (s,))
            seen.add(s)
    return Matching(frozenset(tuple(sum(1 << v for v in s) for s in pair) for pair in pairs))


# kind -> (Graph, d, t) -> the d counts of the kind's sizes on that graph
GRAPH_COUNTS = {
    "critical": lambda g, d, t: tuple(map(len, critical_walk(g, d + 1)[2:])),
    "link": lambda g, d, t: tuple(clique_walk(g.adj, link_candidates(g, t), d)[1:]),
    "clique": lambda g, d, t: tuple(clique_walk(g.adj, g.vertex_mask, d + 1)[2:]),
}


def critical_minima(g: Graph, k: int) -> list[int]:
    """min(s) of every critical size-k simplex s, in ascending order, from
    critical_walk on g: the walk reference that clique_levels' minima are
    tested against."""
    if not 2 <= k <= g.n:
        raise ValueError("k must lie in [2, n]")
    return sorted(critical_walk(g, k)[k])


def truncated_critical_count(g: Graph, k: int, K: int) -> int:
    """The size-k critical-count sum restricted to simplices with min(s) <= K."""
    if not 1 <= K <= g.n - k + 1:
        raise ValueError("K must lie in [1, n-k+1]")
    return sum(m <= K for m in critical_minima(g, k))


def is_vertex_critical(g: Graph, v: int) -> bool:
    """A vertex is critical iff it has no neighbour with a smaller label;
    vertex 1 always is."""
    return not g.adj[v] & below_mask(v)


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
    """montecarlo._rect_probs with right-side searchsorted cell indices and
    the histogram filled by np.add.at."""
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
            best = (float(est[i]), math.sqrt(max(pw[i] * (1.0 - pw[i]), 0.0) / len(w)
                                             + max(pz[i] * (1.0 - pz[i]), 0.0) / len(z)))
    return DiscrepancyReport(min(best[0], 1.0), best[1], family.description, bound)


def law_moments(dist):
    """The mean and covariance of an oracle law as exact_moments summed them
    before the law owned its moments: math.fsum over the atoms as tuples of
    ints and floats, each covariance term w * (v[a] - mean[a]) * (v[b] - mean[b])."""
    support = [tuple(v) for v in dist.points.tolist()]
    probabilities = dist.weights.tolist()
    d = dist.points.shape[1]
    mean = [math.fsum(w * v[a] for v, w in zip(support, probabilities))
            for a in range(d)]
    cov = [[math.fsum(w * (v[a] - mean[a]) * (v[b] - mean[b])
                      for v, w in zip(support, probabilities))
            for b in range(d)] for a in range(d)]
    return mean, cov


# ---------------------------------------------------------------------------
# paper statements that no command prints


def crit_mean_bounds(n: int, k: int, p: float) -> tuple[float, float]:
    """Two-sided bracket for the critical mean."""
    _check_crit_args(n, k)
    check_p(p)
    c = math.comb(k + 1, 2)
    lo = p ** (c + k) * comb0(n - 2, k) * (1.0 - p)
    hi_exp = c - k - 1
    if p == 0.0 and hi_exp < 0:
        hi = math.inf
    else:
        hi = p ** hi_exp * comb0(n - 1, k) * (1.0 - p)
    return lo, hi


def link_cov_lower(n: int, t_size: int, k: int, l: int, p: float) -> float:
    """Single-overlap lower bound on the link covariance."""
    _check_link_args(n, t_size, max(k, l))
    check_p(p)
    if not 0.0 < p < 1.0:
        return 0.0
    if k < l:
        k, l = l, k
    return ((k + 1) * comb0(n - t_size, l + k + 1) * comb0(l + k + 1, l)
            * link_mu(t_size, k, p) * link_mu(t_size, l, p) * (p ** (-t_size) - 1.0))


# ---------------------------------------------------------------------------
# the general dissociated-sum bound on enumerated instances


# kind -> (min_overlap: summands sharing fewer vertices are independent,
#          mu: (phi, component index i, p, t_size) -> P(summand phi is 1))
SUMMANDS = {
    "critical": (1, lambda phi, i, p, ts: crit_mu(i, min(phi), p)),
    "link": (1, lambda phi, i, p, ts: link_mu(ts, len(phi) - 1, p)),
    "clique": (2, lambda phi, i, p, ts: p ** comb(len(phi), 2)),
}


class BudgetExceededError(RuntimeError):
    """Triple-sum evaluation would exceed the configured term budget."""


def moment_bound(mu1: float, mu2: float, c1: float, c2: float, c3: float) -> float:
    """Upper bound on E|X1 X2 X3| and on E|X1 X2| E|X3| for centered scaled
    Bernoulli variables X_i = c_i (xi_i - mu_i); the third variable only
    contributes its scale."""
    if not (0.0 <= mu1 <= 1.0 and 0.0 <= mu2 <= 1.0):
        raise ValueError("means must lie in [0,1]")
    if min(c1, c2, c3) <= 0.0:
        raise ValueError("scales must be positive")
    return c1 * c2 * c3 * math.sqrt(mu1 * mu2 * (1.0 - mu1) * (1.0 - mu2))


@dataclass
class DissociatedInstance:
    """A vector of dissociated sums on arrays.

    index_sets[i] lists the indices of component i+1, and the indices are
    numbered 0..I-1 in that order, component by component.  nbr is a boolean
    (I, I) matrix: nbr[a, b] says index b lies in a's dependency
    neighbourhood D_a.  blocks(a) returns two (|D_a|, I) arrays over (b, c),
    b in D_a in index order, the bounds on E|Xa Xb Xc| and on E|Xa Xb| E|Xc|.
    """

    index_sets: list
    nbr: np.ndarray
    blocks: Callable


def generic_bound(inst: DissociatedInstance, term_budget: float = 1e8) -> BoundReport:
    """Evaluate the two-part dissociated-sum bound, one moment block per index:
    b1 sums (T/2 + S) over b, c in D_a and b2 sums (T + S) over b in D_a and
    c in D_b \\ D_a, for the triple and split bounds T and S of blocks(a).

    Intended for oracle-scale cross-validation: each block is dense over c,
    so an index costs O(|D_a| I), and the triple sum needs
    sum_a |D_a|^2 + sum_a sum_{b in D_a} |D_b| terms, which is guarded by a
    term budget.
    """
    nbr = inst.nbr
    size = nbr.sum(axis=1)
    n_terms = int(size @ size + size @ nbr.sum(axis=0))
    if n_terms > term_budget:
        raise BudgetExceededError(
            "triple sum needs ~%d terms (budget %d)" % (n_terms, int(term_budget)))
    b1 = 0.0
    b2 = 0.0
    for a, hood in enumerate(nbr):
        triple, split = inst.blocks(a)
        b1 += np.sum((0.5 * triple + split)[:, hood])
        b2 += np.sum((triple + split)[nbr[hood] & ~hood])
    value = float(b1 + b2) / 3.0
    return BoundReport("dissociated-sum-smooth", value,
                       params={"terms": n_terms})


def uniform_bound(d: int, sizes, alpha, beta) -> BoundReport:
    """The uniform simplification: (1/3) sum_ijk |I_i| a_ij (3a_ik/2 + 2a_jk) b_ijk."""
    if len(sizes) != d or len(alpha) != d or len(beta) != d:
        raise ValueError("dimension mismatch")
    for row in alpha:
        if len(row) != d:
            raise ValueError("alpha must be d x d")
    for plane in beta:
        if len(plane) != d or any(len(r) != d for r in plane):
            raise ValueError("beta must be d x d x d")
    total = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total += (sizes[i] * alpha[i][j]
                          * (1.5 * alpha[i][k] + 2.0 * alpha[j][k])
                          * beta[i][j][k])
    return BoundReport("uniform-neighborhood-smooth", total / 3.0,
                       params={"d": d, "sizes": list(sizes)})


def subset_instance(n: int, d: int, p: float, kind: str, t=()) -> DissociatedInstance:
    """Fully enumerated dissociated-sum instance for one of the three count
    vectors, with Bernoulli moment bounds.  Indices are (phi, i) pairs.

    Neighbourhood rule: cliques share >= 2 vertices (edge-driven summands),
    critical and link share >= 1 (summands also read edges incident to the
    rest of the graph / to t), read off the index-by-vertex incidence matrix.
    Both moment bounds of (a, b, c) are the cap c_a c_b / sigma_c, with
    c = sqrt(mu (1 - mu)) / sigma for each index's component sd sigma.
    """
    stat = statistic(kind)
    min_overlap, summand_mu = SUMMANDS[kind]
    t = tuple(sorted(t))
    ground = [v for v in range(1, n + 1) if v not in t]
    index_sets = [[(phi, i) for phi in itertools.combinations(ground, size)]
                  for i, size in enumerate(stat.sizes(d), start=1)]
    flat = [s for comp in index_sets for s in comp]
    inc = np.zeros((len(flat), n + 1), dtype=np.int64)
    for a, (phi, _) in enumerate(flat):
        inc[a, list(phi)] = 1
    sd = np.array(sigma(stat.variances(n, d, p, len(t))))[[i - 1 for _, i in flat]]
    mu = np.array([summand_mu(phi, i, p, len(t)) for phi, i in flat])
    c = np.sqrt(mu * (1.0 - mu)) / sd
    pair_caps = np.multiply.outer(c, 1.0 / sd)

    nbr = inc @ inc.T >= min_overlap

    def blocks(a):
        cap = c[a] * pair_caps[nbr[a]]
        return cap, cap

    return DissociatedInstance(index_sets, nbr, blocks)
