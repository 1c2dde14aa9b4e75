import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquestats.graphs import (EnumerationCapError, GnpParams, Graph, clique_count,
                                clique_levels, clique_walk, cliques, gnp_generator, gnp_mask,
                                gnp_masks, gnp_pairs, gnp_streams, gnp_uniforms, link_count,
                                mask_pairs, pair_matrix, sample_gnp)
from reference import (all_graphs, critical_walk, graph_probability, graphs_on_at_most_9,
                       has_edge, link_candidates)

FIG2 = Graph.from_edges(5, [(1, 2), (2, 3), (1, 4), (3, 4), (3, 5), (4, 5)])


def brute_cliques(g, k):
    out = []
    for s in itertools.combinations(range(1, g.n + 1), k):
        if all(has_edge(g, a, b) for a, b in itertools.combinations(s, 2)):
            out.append(s)
    return out


def test_sample_gnp_extremes():
    assert sample_gnp(GnpParams(5, 0.0, 31)).edge_count == 0
    assert sample_gnp(GnpParams(5, 1.0, 31)).edge_mask == Graph.complete(5).edge_mask


def test_sample_gnp_deterministic():
    a = sample_gnp(GnpParams(20, 0.5, 7))
    b = sample_gnp(GnpParams(20, 0.5, 7))
    assert a.edge_mask == b.edge_mask
    assert a.edge_mask != sample_gnp(GnpParams(20, 0.5, 8)).edge_mask


def test_sample_gnp_known_stream():
    # frozen draws from the documented Philox keying; a platform or library
    # change that alters the stream must be caught here
    g = sample_gnp(GnpParams(6, 0.5, 12345))
    assert g.edge_mask == 9368
    assert sorted(g.edges()) == [(1, 5), (1, 6), (2, 5), (3, 5), (4, 6)]
    assert sample_gnp(GnpParams(4, 0.3, 99), stream=2).edge_mask == 9


def test_all_graphs_counts_and_cap():
    assert sum(1 for _ in all_graphs(2)) == 2
    assert sum(1 for _ in all_graphs(3)) == 8
    with pytest.raises(EnumerationCapError):
        list(all_graphs(7))


def test_all_graphs_distinct_masks():
    masks = [g.edge_mask for g in all_graphs(4)]
    assert masks == sorted(set(masks))


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probability_sums_to_one(n, p):
    assert math.isclose(sum(graph_probability(g, p) for g in all_graphs(n)), 1.0,
                        abs_tol=1e-12)


def test_graph_probability_examples():
    assert graph_probability(Graph.empty(3), 0.5) == 0.125
    g2 = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert math.isclose(graph_probability(g2, 0.3), 0.3 ** 2 * 0.7)
    for g in all_graphs(3):
        assert graph_probability(g, 0.5) == 0.125


def test_cliques_on_k4_and_figure2():
    k4 = Graph.complete(4)
    assert cliques(k4, 3) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert clique_count(k4, 3) == 4
    assert cliques(FIG2, 3) == [(3, 4, 5)]
    assert clique_count(FIG2, 2) == 6
    assert clique_count(FIG2, 4) == 0
    assert cliques(Graph.empty(4), 2) == []
    with pytest.raises(ValueError, match=r"k must lie in \[1, n\]"):
        cliques(k4, 0)


def test_clique_count_matches_listing_and_brute_force():
    for g in all_graphs(4):
        for k in range(1, 5):
            cs = cliques(g, k)
            assert cs == brute_cliques(g, k)
            assert clique_count(g, k) == len(cs)


@pytest.mark.parametrize("n,k", [(6, 2), (10, 3), (12, 4)])
def test_clique_count_complete_and_empty(n, k):
    assert clique_count(Graph.complete(n), k) == math.comb(n, k)
    assert clique_count(Graph.empty(n), k) == 0


def _walk_corpus():
    yield from all_graphs(5)
    for n, p in ((12, 0.5), (12, 0.8), (40, 0.5)):
        for stream in range(10):
            yield sample_gnp(GnpParams(n, p, 31), stream=stream)


def test_clique_walk_counts_match_listings():
    # one walk gives every size at once: each must equal the length of the
    # cliques() listing and clique_count, and on a link mask the literal count
    for g in _walk_corpus():
        top = min(g.n, 6)
        want = [1] + [len(cliques(g, k)) for k in range(1, top + 1)]
        assert clique_walk(g.adj, g.vertex_mask, top) == want
        assert [clique_count(g, k) for k in range(1, top + 1)] == want[1:]
        links = clique_walk(g.adj, link_candidates(g, (1, 3)), 3)
        assert links[1:] == [link_count(g, (1, 3), k) for k in (1, 2, 3)]
        assert links[1:] == [brute_link(g, (1, 3), k) for k in (1, 2, 3)]


def test_clique_count_rejects_k_below_1():
    for g, k in ((Graph.complete(4), 0), (Graph.complete(4), -1), (Graph.empty(3), 0)):
        with pytest.raises(ValueError, match="k must be >= 1"):
            clique_count(g, k)


def test_link_count_examples():
    assert link_count(FIG2, (3,), 1) == 3
    assert link_count(FIG2, (3,), 2) == 1
    assert link_count(Graph.empty(4), (1, 3), 1) == 0
    with pytest.raises(ValueError, match="outside 1..n"):
        link_count(FIG2, (6,), 1)
    with pytest.raises(ValueError, match="k must be >= 1"):
        link_count(FIG2, (3,), 0)


def brute_link(g, t, k):
    ts = set(t)
    cnt = 0
    for s in itertools.combinations([v for v in range(1, g.n + 1) if v not in ts], k):
        if all(has_edge(g, a, b) for a, b in itertools.combinations(s, 2)) and \
           all(has_edge(g, a, b) for a in s for b in t):
            cnt += 1
    return cnt


def test_link_count_formula_even_for_nonclique_t():
    g = Graph.from_edges(5, [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)])
    t = (1, 2)  # 1-2 is not an edge; the formula must count anyway
    assert not has_edge(g, 1, 2)
    assert link_count(g, t, 1) == brute_link(g, t, 1) == 2
    assert link_count(g, t, 2) == brute_link(g, t, 2) == 1


def test_link_equals_link_subcomplex_for_clique_t():
    # when t is a clique, the count equals clique counting inside the
    # common-neighbour induced subgraph (exhaustive n<=5, random n<=12)
    for g in all_graphs(5):
        for t in [(1,), (2,), (1, 2), (2, 4)]:
            if not all(has_edge(g, a, b) for a, b in itertools.combinations(t, 2)):
                continue
            for k in (1, 2):
                assert link_count(g, t, k) == brute_link(g, t, k)
    for seed in range(25):
        g = sample_gnp(GnpParams(12, 0.4, 99), stream=seed)
        for t in [(1,), (3, 7), (2, 5, 9)]:
            if not all(has_edge(g, a, b) for a, b in itertools.combinations(t, 2)):
                continue
            for k in (1, 2, 3):
                assert link_count(g, t, k) == brute_link(g, t, k)


def test_text_round_trip():
    text = "5\n1 2\n1 4\n2 3\n3 4\n3 5\n4 5\n"
    assert Graph.from_text(text).edge_mask == FIG2.edge_mask


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 2)])
    with pytest.raises(ValueError):
        GnpParams(3, 1.5, 0)
    with pytest.raises(ValueError):
        GnpParams(0, 0.5, 0)
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph(0)
    for mask in (-1, 1 << 3):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, mask)


@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_adjacency_symmetric_and_loopless(n, seed):
    g = sample_gnp(GnpParams(n, 0.5, seed))
    for i in range(1, n + 1):
        assert not has_edge(g, i, i)
        for j in range(1, n + 1):
            if i != j:
                assert has_edge(g, i, j) == has_edge(g, j, i)
    assert clique_count(g, 2) == g.edge_count


@given(graphs_on_at_most_9(), st.data())
@settings(max_examples=40, deadline=None)
def test_clique_counts_invariant_under_relabelling(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    h = Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges()])
    sizes = range(1, g.n + 1)
    assert [clique_count(h, k) for k in sizes] == [clique_count(g, k) for k in sizes]


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_gnp_mask_matches_bitwise_packing(n):
    # reference: one shift per present pair, from the same draws
    for stream in range(5):
        u = gnp_generator(7, stream).random(math.comb(n, 2))
        want = 0
        for b in range(len(u)):
            if u[b] < 0.3:
                want |= 1 << b
        assert gnp_mask(gnp_generator(7, stream), n, 0.3) == want
        assert gnp_pairs(gnp_generator(7, stream), n, 0.3).tolist() == [x < 0.3 for x in u]


# (seed, first stream, streams): the smallest key, the largest, and streams
# that carry into the upper 32 bits of the key word
KEY_RANGES = [(0, 0, 3), (2 ** 64 - 1, 2 ** 64 - 1, 1), (2 ** 64 - 1, 2 ** 64 - 3, 3),
              (5, 2 ** 32 - 2, 4), (2 ** 32, 2 ** 33 - 1, 2)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 10, 15, 21])
def test_gnp_uniforms_match_generators(m):
    for seed, first, count in KEY_RANGES:
        u = gnp_uniforms(seed, first, count, m)
        assert u.shape == (count, m) and u.dtype == np.float64
        for r in range(count):
            assert u[r].tobytes() == gnp_generator(seed, first + r).random(m).tobytes()


def _mixed_draws(g):
    """Draws that leave g mid-block (5 and 3 words) and mid-word (three
    32-bit halves)."""
    return [g.random(5).tobytes(), g.integers(0, 2 ** 32, size=3, dtype=np.uint32).tobytes(),
            g.random(3).tobytes()]


def test_gnp_streams_match_generators_after_partial_draws():
    # the reset to the next key must carry over no buffered word or half-word
    for seed, first, count in KEY_RANGES:
        for r, rng in enumerate(gnp_streams(seed, first, count)):
            assert _mixed_draws(rng) == _mixed_draws(gnp_generator(seed, first + r))
            state = rng.bit_generator.state
            assert state["buffer_pos"] != 4 and state["has_uint32"] == 1


@pytest.mark.parametrize("fn", [lambda s, f, c: gnp_uniforms(s, f, c, 3),
                                lambda s, f, c: list(gnp_streams(s, f, c))])
def test_stream_ranges_must_be_key_words(fn):
    assert len(fn(1, 2 ** 64 - 2, 2)) == 2
    for first, count in ((2 ** 64 - 1, 2), (2 ** 64, 1), (-1, 1)):
        with pytest.raises(ValueError, match=r"0\.\.2\^64 - 1"):
            fn(1, first, count)
    with pytest.raises(ValueError):
        fn(2 ** 64, 0, 1)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 11])
def test_gnp_masks_match_bitwise_packing(n):
    u = gnp_uniforms(4, 100, 50, math.comb(n, 2))
    for p in (0.0, 0.3, 1.0, float(u[7, -1])):  # a variate equal to p is no edge
        want = [sum(1 << b for b in range(u.shape[1]) if u[r, b] < p) for r in range(50)]
        assert gnp_masks(u, p).tolist() == want
        assert want == [gnp_mask(gnp_generator(4, 100 + r), n, p) for r in range(50)]


def pair_order(n):
    """All unordered pairs of {1..n} in lexicographic order: the reference for
    Graph.edges()."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _mask_pairs(n, edge_mask):
    """The pair vector of an edge mask, bit by bit."""
    return [bool(edge_mask >> b & 1) for b in range(math.comb(n, 2))]


def _pair_loop_adj(n, edge_mask):
    """The per-pair loop, kept here as the reference for Graph rows and
    pair_matrix."""
    adj = [0] * (n + 1)
    bit = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (edge_mask >> bit) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit += 1
    return tuple(adj)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 12, 15, 16, 30, 40, 100])
def test_adjacency_rows_and_matrix_match_pair_loop(n):
    if n <= 6:  # every mask
        masks = range(1 << math.comb(n, 2))
    else:
        masks = [0, (1 << math.comb(n, 2)) - 1]
        masks += [gnp_mask(gnp_generator(3, stream), n, p)
                  for p in (0.1, 0.5, 0.9) for stream in range(4)]
    for mask in masks:
        want = _pair_loop_adj(n, mask)
        g = Graph(n, mask)
        assert g.adj == want
        assert g.edges() == [e for b, e in enumerate(pair_order(n)) if mask >> b & 1]
        pairs = mask_pairs(n, mask)
        assert pairs.dtype == bool and pairs.tolist() == _mask_pairs(n, mask)
        a = pair_matrix(n, pairs)
        assert a.dtype == bool and a.shape == (n + 1, n + 1) and not np.tril(a).any()
        assert [[bool(want[u] >> v & 1) for v in range(n + 1)] for u in range(n + 1)] \
            == (a | a.T).tolist()


def _assert_levels_match_walk(g, tops):
    a = pair_matrix(g.n, _mask_pairs(g.n, g.edge_mask))
    for top in tops:
        assert clique_levels(a, top) == clique_walk(g.adj, g.vertex_mask, top)
        assert clique_levels(a, top, critical=True) == list(map(len, critical_walk(g, top)))


def test_clique_levels_match_walk_exhaustive():
    # every top on up to 5 vertices; full depth, every level, on 6
    for n in range(1, 7):
        for g in all_graphs(n):
            _assert_levels_match_walk(g, range(n + 1) if n < 6 else [n])


@pytest.mark.parametrize("n,top", [(7, 7), (12, 5), (16, 4), (40, 3), (40, 4), (100, 2)])
def test_clique_levels_match_walk_random(n, top):
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        for stream in range(3):
            _assert_levels_match_walk(sample_gnp(GnpParams(n, p, 29), stream=stream),
                                      range(top + 1))


def test_clique_levels_exact_on_complete_graphs():
    # Exactness must not rest on how the BLAS adds up: on K_1000 three blocks'
    # triangle totals (1.9e7, 5.3e7, 9.1e7) pass 2^24, beyond which float32
    # does not hold every integer, so only a float64 total is sure to be exact.
    n = 1000
    a = pair_matrix(n, np.ones(math.comb(n, 2), dtype=bool))
    assert clique_levels(a, 3) == [1, n, math.comb(n, 2), math.comb(n, 3)]
    # K_300's complex is a full simplex: vertex 1 is its only critical cell.
    n = 300
    a = pair_matrix(n, np.ones(math.comb(n, 2), dtype=bool))
    minima = [[] for _ in range(3)]
    assert clique_levels(a, 2, critical=True, minima=minima) == [0, 0, 0]
    assert minima == [[], [], []]
