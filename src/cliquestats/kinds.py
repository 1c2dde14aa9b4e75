"""The statistic registry: one entry per count vector with its component sizes
and argument checks, its summand indicator (on an array of edge masks), count
table (the indicators summed, one int16 row per graph on n <= 6 vertices),
replicate kernel (one draw through clique_levels) and count-table rows for a block
of draws, its closed-form moments and its bound pair.
The rest of the library looks kinds up here instead of branching on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

import numpy as np

from .bounds import clique_bound, crit_bound, link_bound
from .graphs import (MAX_ENUM_VERTICES, EnumerationCapError, clique_levels, gnp_masks,
                     gnp_pairs, mask_pairs, pair_matrix, spans_clique)
from .moments import clique_cov, clique_mean, crit_mean, crit_variance, link_cov, link_mean


@dataclass(frozen=True)
class Statistic:
    """One count vector.  Component c = 0..d-1 counts subsets of size
    first_size + c, of dimension k = first_size + c - 1."""

    name: str
    first_size: int
    needs_t: bool  # counts inside the link of a fixed vertex subset t
    count: Callable  # (edge masks, n, index set s, t) -> per mask, whether s counts
    replicate: Callable  # (MCConfig, generator) -> list of d numbers
    table_words: Callable  # MCConfig -> variates per replicate, None: not all from count tables
    table_rows: Callable  # (MCConfig, variates (R, table_words)) -> R replicate rows
    mean: Callable  # (n, t_size, k, p) -> float
    var: Callable  # (n, t_size, k, p) -> float
    cov: Callable | None  # (n, t_size, k, l, p) -> float, None: no closed form
    bound: Callable  # (n, d, p, t_size) -> BoundPair

    def sizes(self, d: int) -> list[int]:
        return list(range(self.first_size, self.first_size + d))

    def dims(self, d: int) -> list[int]:
        return [s - 1 for s in self.sizes(d)]

    def check(self, n: int, d: int, t) -> None:
        """Reject d or t that does not fit in n, and a t the kind does not take."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if d < 1:
            raise ValueError("d must be >= 1")
        if self.needs_t:
            if not t:
                raise ValueError("kind=%s needs a nonempty fixed subset t" % self.name)
            if len(set(t)) != len(t) or not all(1 <= v <= n for v in t):
                raise ValueError("t must be distinct vertices in 1..n")
            if d > n - len(t):
                raise ValueError("d exceeds the room left by t")
        elif t:
            raise ValueError("kind=%s takes no fixed subset t" % self.name)
        elif d + 1 > n:
            raise ValueError("need d+1 <= n")

    def means(self, n: int, d: int, p: float, t_size: int) -> list[float]:
        return [self.mean(n, t_size, k, p) for k in self.dims(d)]

    def variances(self, n: int, d: int, p: float, t_size: int) -> list[float]:
        return [self.var(n, t_size, k, p) for k in self.dims(d)]


@lru_cache(maxsize=64)  # 64 tables take at most 64 x 2^15 masks x 5 x 2 bytes, about 21 MB
def _small_graph_counts(kind: str, n: int, d: int, t: tuple) -> np.ndarray:
    """Count vectors of every graph on n vertices, a read-only (cached) int16 row per
    mask; column c sums the indicator over index sets of size sizes(d)[c] avoiding t."""
    if n > MAX_ENUM_VERTICES:
        raise EnumerationCapError(
            "exhaustive enumeration capped at n=%d (got n=%d)" % (MAX_ENUM_VERTICES, n))
    stat, masks = STATS[kind], np.arange(1 << comb(n, 2))
    table = np.zeros((len(masks), d), dtype=np.int16)  # a size above the room stays 0
    for c, size in enumerate(stat.sizes(d)):
        for s in combinations([v for v in range(1, n + 1) if v not in t], size):
            table[:, c] += stat.count(masks, n, s, t)
    table.flags.writeable = False
    return table


def _is_critical(masks, n: int, s: tuple, t) -> np.ndarray:
    """The matching's rule: s spans a clique, no j < min s makes s + {j} one (s is
    not matched up) and some makes s - {min s} + {j} one (s is not matched down)."""
    up, down = ([spans_clique(masks, n, (j,) + f) for j in range(1, s[0])] for f in (s, s[1:]))
    return spans_clique(masks, n, s) & ~np.any(up, axis=0) & np.any(down, axis=0)


def _graph_table_words(cfg):
    return comb(cfg.n, 2) if cfg.n <= MAX_ENUM_VERTICES else None


def _graph_table_rows(cfg, u) -> np.ndarray:
    return _small_graph_counts(cfg.kind, cfg.n, cfg.d, ())[gnp_masks(u, cfg.p)]


def critical_counts(n: int, edge_mask: int, d: int) -> list:
    """The critical counts of sizes 2..d+1 that a replicate drawing this edge mask
    gets: its row of the count table at n <= 6, else clique_levels' critical mode."""
    if n <= MAX_ENUM_VERTICES and d > 0:  # below d = 1 no size is counted
        return _small_graph_counts("critical", n, d, ())[edge_mask].tolist()
    return clique_levels(pair_matrix(n, mask_pairs(n, edge_mask)), d + 1, True)[2:]


def _draw_counts(rng, n: int, p: float, d: int, critical: bool = False) -> list:
    """One G(n,p) draw's clique or critical counts of sizes 2..d+1, from clique_levels."""
    pairs = gnp_pairs(rng, n, p)
    if d == 1 and not critical:  # the edge count needs no matrix
        return [int(np.count_nonzero(pairs))]
    return clique_levels(pair_matrix(n, pairs), d + 1, critical)[2:]


def _link_replicate(cfg, rng) -> list:
    # Vertex u outside t is a common neighbour iff all |t| cross edges are
    # present, an event of probability p^|t| independent across u; the count
    # formula reads no other edge outside the m common neighbours, so counting
    # a collapsed draw (m, then a G(m, p) clique replicate for sizes 2..d) is
    # distribution-identical to evaluating the formula on a full G(n,p) draw.
    ts = len(cfg.t)
    m = int(np.count_nonzero(rng.random(cfg.n - ts) < cfg.p ** ts))
    if cfg.d == 1:
        return [m]
    return [m] + _draw_counts(rng, m, cfg.p, cfg.d - 1)


def _link_table_words(cfg):
    room = cfg.n - len(cfg.t)
    return room + comb(room, 2) if room <= MAX_ENUM_VERTICES else None


def _link_table_rows(cfg, u) -> np.ndarray:
    # _link_replicate on each row of u: the first n - |t| variates give m, and
    # the inner graph reads the next C(m, 2), as its next random() call would
    room = cfg.n - len(cfg.t)
    m = np.count_nonzero(u[:, :room] < cfg.p ** len(cfg.t), axis=1)
    rows = np.zeros((len(u), cfg.d))
    rows[:, 0] = m
    if cfg.d > 1:  # below 2 common neighbours, every clique count is 0
        for k in range(2, room + 1):
            inner = m == k
            rows[inner, 1:] = _small_graph_counts("clique", k, cfg.d - 1, ())[
                gnp_masks(u[inner, room:room + comb(k, 2)], cfg.p)]
    return rows


STATS = {s.name: s for s in (
    Statistic(
        "critical", first_size=2, needs_t=False,
        count=_is_critical,
        replicate=lambda cfg, rng: _draw_counts(rng, cfg.n, cfg.p, cfg.d, True),
        table_words=_graph_table_words, table_rows=_graph_table_rows,
        mean=lambda n, ts, k, p: crit_mean(n, k, p),
        var=lambda n, ts, k, p: crit_variance(n, k, p),
        cov=None,
        bound=lambda n, d, p, ts: crit_bound(n, d, p)),
    Statistic(
        "link", first_size=1, needs_t=True,
        count=lambda masks, n, s, t: spans_clique(masks, n, s + t, skip=t),
        replicate=_link_replicate,
        table_words=_link_table_words, table_rows=_link_table_rows,
        mean=lambda n, ts, k, p: link_mean(n, ts, k, p),
        var=lambda n, ts, k, p: link_cov(n, ts, k, k, p),
        cov=lambda n, ts, k, l, p: link_cov(n, ts, k, l, p),
        bound=lambda n, d, p, ts: link_bound(n, ts, d, p)),
    Statistic(
        "clique", first_size=2, needs_t=False,
        count=lambda masks, n, s, t: spans_clique(masks, n, s),
        replicate=lambda cfg, rng: _draw_counts(rng, cfg.n, cfg.p, cfg.d),
        table_words=_graph_table_words, table_rows=_graph_table_rows,
        mean=lambda n, ts, k, p: clique_mean(n, k + 1, p),
        var=lambda n, ts, k, p: clique_cov(n, k, k, p),
        cov=lambda n, ts, k, l, p: clique_cov(n, k, l, p),
        bound=lambda n, d, p, ts: clique_bound(n, d, p)),
)}
KINDS = tuple(STATS)


def statistic(kind: str) -> Statistic:
    if kind not in STATS:
        raise ValueError("kind must be one of %s (got %r)" % (KINDS, kind))
    return STATS[kind]
