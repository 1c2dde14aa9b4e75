import itertools
import random
import re
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquestats.graphs import (GnpParams, Graph, clique_count, clique_levels, clique_masks,
                                cliques, gnp_mask, gnp_streams, mask_tuple, pair_matrix,
                                sample_gnp, spans_clique)
from cliquestats.kinds import STATS, _small_graph_counts
from cliquestats.morse import (CriticalVector, Matching, _crit_sizes, _matched, _validated,
                               critical_counts_direct,
                               critical_counts_formula, lex_matching, verify_acyclic)
from reference import (all_graphs, below_mask, critical_minima, graphs_on_at_most_9,
                       is_vertex_critical, lex_walk, truncated_critical_count)

FIG2 = Graph.from_edges(5, [(1, 2), (2, 3), (1, 4), (3, 4), (3, 5), (4, 5)])
FIG2_PAIRS = frozenset({
    ((2,), (1, 2)), ((3,), (2, 3)), ((4,), (1, 4)), ((5,), (3, 5)),
    ((4, 5), (3, 4, 5))})


def test_figure2_matching_exact():
    assert lex_matching(FIG2, 3).pairs == FIG2_PAIRS


def test_figure2_critical():
    assert critical_counts_direct(FIG2, 2).counts == (1, 0)
    assert critical_counts_formula(FIG2, 2).counts == (1, 0)
    # the unmatched simplices are exactly {1} and {3,4}
    matched = lex_matching(FIG2, 3).simplices()
    every = [s for size in (1, 2, 3) for s in cliques(FIG2, size)]
    assert sorted(s for s in every if s not in matched) == [(1,), (3, 4)]


def test_k3_matching_and_critical():
    k3 = Graph.complete(3)
    assert lex_matching(k3, 3).pairs == frozenset(
        {((2,), (1, 2)), ((3,), (1, 3)), ((2, 3), (1, 2, 3))})
    assert critical_counts_direct(k3, 2).counts == (0, 0)
    assert critical_counts_formula(k3, 1).counts == (0,)


def test_single_vertex_and_edgeless():
    assert lex_matching(Graph.empty(1), 1).pairs == frozenset()
    assert critical_counts_direct(Graph.empty(4), 2).counts == (0, 0)


def test_formula_example_two_edges():
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert critical_counts_formula(g, 1).counts == (1,)
    assert critical_counts_direct(g, 1).counts == (1,)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(frozenset({((1,), (1, 2)), ((1,), (1, 3))}))
    with pytest.raises(ValueError):
        Matching(frozenset({((1,), (2, 3))}))


@pytest.mark.parametrize("pairs", [
    # the cycle of test_acyclic_counterexample with its cofaces unsorted
    {((1,), (2, 1)), ((2,), (3, 2)), ((3,), (3, 1))},
    {((1,), (2, 1))}, {((2, 1), (3, 2, 1))}, {((1, 1), (1, 1, 2))},
    {((0,), (0, 1))}, {((1,), (0, 1))}, {((0, 1), (0, 1, 2))},
    {((1.0,), (1, 2))}, {((True,), (1, 2))}, {(("a",), ("a", "b"))},
])
def test_matching_rejects_simplices_not_increasing_tuples_of_vertices(pairs):
    with pytest.raises(ValueError, match="strictly increasing tuple"):
        Matching(frozenset(pairs))


def _matching_validation_reference(pairs):
    """The scalar reference for Matching's checks: the type and range of
    every vertex first, then pair by pair in iteration order."""
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


def _outcome(check, pairs):
    try:
        check(pairs)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


# one fault on one pair (face, coface) of a lexicographic matching: each
# returns the pairs that replace it
_FAULTS = {
    "unsorted coface": lambda f, c: [(f, c[::-1])],
    "unsorted face": lambda f, c: [(f[::-1], c[:1] + f[::-1])],
    "repeated vertex": lambda f, c: [(f, f[:1] + f)],
    "vertex 0": lambda f, c: [(f, (0,) + f)],
    "bool vertex": lambda f, c: [(f, (True,) + f)],
    "float face vertex": lambda f, c: [(f, c[:1] + (float(f[0]),) + f[1:])],
    "str vertices": lambda f, c: [(tuple(map(str, f)), tuple(map(str, c)))],
    "int simplex": lambda f, c: [(f, c[0])],
    "size gap of 2": lambda f, c: [(f, c + (c[-1] + 1,))],
    "face not inside": lambda f, c: [(f, c[:-1] + (c[-1] + 1,))],
    "face in two pairs": lambda f, c: [(f, c), (f, tuple(sorted(f + (c[-1] + 1,))))],
    "face in two lexicographic pairs": lambda f, c: [(f, c), (f, (c[0] % (f[0] - 1) + 1,) + f)],
    "coface also a face": lambda f, c: [(f, c), (c, c + (c[-1] + 1,))],
    "coface also a lexicographic face": lambda f, c: [(f, c), (c, (c[0] - 1,) + c)],
    "empty face": lambda f, c: [(f, c), ((), (1,))],
    "three simplices": lambda f, c: [(f, c, c)],
}


def _malformed_corpus(rng):
    """Seeded pair sets: lexicographic matchings with one fault each, and
    the bare faults."""
    yield frozenset({((), (1,))})
    graphs = [sample_gnp(GnpParams(n, 0.6, 31), stream=s) for n in (3, 5, 6) for s in range(40)]
    for g in graphs:
        pairs = sorted(lex_matching(g, g.n).pairs)
        if not pairs:
            continue
        for fault in _FAULTS.values():
            k = rng.randrange(len(pairs))
            yield frozenset(pairs[:k] + fault(*pairs[k]) + pairs[k + 1:])
            yield frozenset(fault(*pairs[k]))


def test_matching_validation_matches_reference():
    # the same inputs pass, and the same ValueError messages name the same
    # faults, whatever the order in which the set lists its pairs
    lex = [lex_matching(g, g.n).pairs for n in range(1, 6) for g in all_graphs(n)]
    general = [random_partial_matching(g, random.Random(s), beyond=True).pairs
               for s, g in enumerate(all_graphs(4))]
    for pairs in lex + general:
        assert _outcome(_matching_validation_reference, pairs) is None
        assert _validated(pairs) == {s for pair in pairs for s in pair}
        assert Matching(pairs).pairs is pairs
    messages = []
    for pairs in _malformed_corpus(random.Random(2026)):
        want = _outcome(_matching_validation_reference, pairs)
        assert _outcome(_validated, pairs) == want, pairs
        assert _outcome(Matching, pairs) == want, pairs
        messages.append(want and want[1])
    # the corpus reaches every check, and some faulty-looking sets are valid
    for start in ("a simplex is not", "pair (", "invalid pair", "simplex (", "too many values"):
        assert sum(bool(m) and m.startswith(start) for m in messages) > 50, start
    assert messages.count(None) > 50


def test_matching_pairs_add_smaller_vertex():
    for seed in range(10):
        g = sample_gnp(GnpParams(9, 0.5, 4), stream=seed)
        for face, coface in lex_matching(g, 4).pairs:
            added = (set(coface) - set(face)).pop()
            assert added < face[0]


def test_equivalence_exhaustive_small():
    for n in (2, 3, 4, 5):
        d = min(3, n - 1)
        for g in all_graphs(n):
            assert critical_counts_direct(g, d).counts == \
                critical_counts_formula(g, d).counts


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_equivalence_random_n12(p):
    for seed in range(20):
        g = sample_gnp(GnpParams(12, p, 21), stream=seed)
        assert critical_counts_direct(g, 3).counts == \
            critical_counts_formula(g, 3).counts


def test_critical_minima_match_unmatched_simplices():
    for seed in range(20):
        g = sample_gnp(GnpParams(9, 0.5, 5), stream=seed)
        matched = lex_matching(g, 5).simplices()
        for k in (2, 3, 4):
            want = [s[0] for s in cliques(g, k) if s not in matched]
            assert critical_minima(g, k) == want


def _crit_indicator_reference(g, s):
    """The per-clique product indicator the clique walk replaced: 1 iff no
    j < min(s) completes s to a larger clique but some j < min(s) completes
    s minus its minimum."""
    below = (1 << s[0]) - 2
    a_full = below
    for v in s:
        a_full &= g.adj[v]
    if a_full:
        return 0
    a_minus = below
    for v in s[1:]:
        a_minus &= g.adj[v]
    return 1 if a_minus else 0


def _assert_walk_matches_reference(g, d_max):
    minima = {k: [s[0] for s in cliques(g, k) if _crit_indicator_reference(g, s)]
              for k in range(2, d_max + 2)}
    for d in range(1, d_max + 1):
        want = tuple(len(minima[k]) for k in range(2, d + 2))
        assert critical_counts_formula(g, d).counts == want
    for k, want in minima.items():
        assert critical_minima(g, k) == want


def test_critical_walk_matches_indicator_reference_exhaustive():
    for n in range(2, 7):
        for g in all_graphs(n):
            _assert_walk_matches_reference(g, n - 1)


@pytest.mark.parametrize("n,d_max,graphs", [(12, 3, 40), (40, 3, 10), (100, 1, 5)])
def test_critical_walk_matches_indicator_reference_random(n, d_max, graphs):
    for p in (0.3, 0.5, 0.8):
        for stream in range(graphs):
            _assert_walk_matches_reference(sample_gnp(GnpParams(n, p, 17), stream=stream), d_max)


def _pair_matrix(g):
    return pair_matrix(g.n, [bool(g.edge_mask >> b & 1) for b in range(comb(g.n, 2))])


def _levels_critical(g, a, top):
    """clique_levels' critical counts on pair_matrix a of g, after checking that
    passing minima leaves them unchanged and that the minima of each size k,
    sorted, are the walk's critical_minima(g, k)."""
    minima = [[] for _ in range(top + 1)]
    counts = clique_levels(a, top, critical=True, minima=minima)
    assert counts == clique_levels(a, top, critical=True)
    for k in range(2, top + 1):
        assert sorted(minima[k]) == critical_minima(g, k)
    return counts


def _assert_dense_edges_match(g):
    want = critical_counts_formula(g, 1).counts
    assert critical_counts_direct(g, 1).counts == want
    assert tuple(_levels_critical(g, _pair_matrix(g), 2)[2:]) == want


def test_critical_edges_dense_matches_scalar_exhaustive():
    for n in range(2, 7):
        for g in all_graphs(n):
            _assert_dense_edges_match(g)


@pytest.mark.parametrize("n,graphs", [(7, 30), (12, 30), (16, 20), (40, 5), (100, 2)])
def test_critical_edges_dense_matches_scalar_random(n, graphs):
    for p in (0.1, 0.5, 0.9):
        for stream in range(graphs):
            _assert_dense_edges_match(sample_gnp(GnpParams(n, p, 23), stream=stream))


@pytest.mark.parametrize("n", [7, 12, 16])
def test_clique_levels_critical_matches_direct(n):
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        for stream in range(4):
            g = sample_gnp(GnpParams(n, p, 31), stream=stream)
            a = _pair_matrix(g)
            for d in (2, 3):
                want = critical_counts_direct(g, d).counts
                assert tuple(_levels_critical(g, a, d + 1)[2:]) == want


def test_critical_minima_and_truncation_reject_k_below_2():
    g = Graph.empty(3)
    # size-1 criticality is is_vertex_critical's, which marks all of 1..3 here
    assert [v for v in range(1, 4) if is_vertex_critical(g, v)] == [1, 2, 3]
    for k in (1, 0, -1):
        with pytest.raises(ValueError, match=r"k must lie in \[2, n\]"):
            critical_minima(g, k)
    with pytest.raises(ValueError, match=r"k must lie in \[2, n\]"):
        truncated_critical_count(g, 1, 3)
    with pytest.raises(ValueError):
        critical_minima(g, 4)
    with pytest.raises(ValueError, match="max_size exceeds vertex count"):
        lex_matching(g, 4)
    for count in (critical_counts_direct, critical_counts_formula):
        with pytest.raises(ValueError, match=r"need d\+1 <= n"):
            count(g, 3)


def test_truncated_counts():
    g = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert truncated_critical_count(g, 2, 1) == 0
    assert truncated_critical_count(g, 2, 2) == 1
    assert truncated_critical_count(Graph.empty(5), 3, 2) == 0
    with pytest.raises(ValueError):
        truncated_critical_count(g, 2, 0)


@given(st.integers(2, 10), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_truncated_monotone_and_total(n, seed):
    g = sample_gnp(GnpParams(n, 0.5, seed))
    for k in (2, 3):
        if k > n:
            continue
        vals = [truncated_critical_count(g, k, K) for K in range(1, n - k + 2)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == critical_counts_formula(g, k - 1).counts[-1]


def test_vertex_criticality():
    assert is_vertex_critical(FIG2, 1)
    assert [v for v in range(1, 6) if is_vertex_critical(FIG2, v)] == [1]
    g = Graph.empty(4)
    assert all(is_vertex_critical(g, v) for v in range(1, 5))


def test_acyclic_on_lex_matchings():
    for g in all_graphs(4):
        assert verify_acyclic(lex_matching(g, 4), g)
    for seed in range(10):
        g = sample_gnp(GnpParams(10, 0.5, 77), stream=seed)
        assert verify_acyclic(lex_matching(g, 4), g)


def test_acyclic_counterexample():
    k3 = Graph.complete(3)
    bad = Matching(frozenset({((1,), (1, 2)), ((2,), (2, 3)), ((3,), (1, 3))}))
    assert not verify_acyclic(bad, k3)
    assert verify_acyclic(Matching(frozenset()), k3)


def brute_force_has_closed_path(m, g):
    """Literal alternating-path search: s1 <= t1 >= s2 <= t2 ... with each
    (s_i, t_i) matched, all simplices distinct, |t_i| - |s_{i+1}| = 1;
    closed iff s1 is a face of the last t."""
    up = dict(m.pairs)

    def faces(t):
        return [t[:i] + t[i + 1:] for i in range(len(t))]

    def extend(first, seq_simplices, t):
        for s_next in faces(t):
            if s_next == first and len(seq_simplices) > 2:
                return True
            if s_next in seq_simplices or s_next not in up:
                continue
            t_next = up[s_next]
            if t_next in seq_simplices:
                continue
            if extend(first, seq_simplices | {s_next, t_next}, t_next):
                return True
        return False

    for s1, t1 in m.pairs:
        if extend(s1, {s1, t1}, t1):
            return True
    return False


def random_partial_matching(g, rng, beyond=False):
    """A random partial matching on the cliques of g of sizes 1..4; with beyond,
    on every subset of 1..n+1 of those sizes, so that some cofaces are not
    cliques of g or hold a vertex outside 1..n."""
    candidates = []
    for size in (1, 2, 3):
        if size + 1 > g.n:
            break
        cofaces = (itertools.combinations(range(1, g.n + 2), size + 1) if beyond
                   else cliques(g, size + 1))
        for coface in cofaces:
            for i in range(len(coface)):
                candidates.append((coface[:i] + coface[i + 1:], coface))
    rng.shuffle(candidates)
    used = set()
    pairs = []
    for face, coface in candidates:
        if face in used or coface in used:
            continue
        if rng.random() < 0.7:
            pairs.append((face, coface))
            used.add(face)
            used.add(coface)
    return Matching(frozenset(pairs))


def test_verify_acyclic_against_path_enumeration():
    rng = random.Random(2024)
    graphs = list(all_graphs(4)) + [sample_gnp(GnpParams(6, 0.6, 55), stream=s)
                                    for s in range(40)]
    disagreements = 0
    cyclic_seen = acyclic_seen = 0
    for g in graphs:
        for _ in range(3):
            m = random_partial_matching(g, rng)
            got = verify_acyclic(m, g)
            want = not brute_force_has_closed_path(m, g)
            assert _verify_acyclic_reference(m, g) == want
            if got != want:
                disagreements += 1
            if want:
                acyclic_seen += 1
            else:
                cyclic_seen += 1
    assert disagreements == 0
    # the fuzz corpus must exercise both outcomes to mean anything
    assert cyclic_seen > 20 and acyclic_seen > 20


def test_verify_acyclic_with_cofaces_outside_the_complex():
    # the reference and the V-path check agree on matchings with pairs whose
    # coface is not a clique of g or holds a vertex above n; on the pairs whose
    # coface is a clique, both agree with the literal path search
    rng = random.Random(2025)
    graphs = [g for n in (4, 5) for g in all_graphs(n)]
    graphs += [sample_gnp(GnpParams(7, 0.6, 9), stream=s) for s in range(300)]
    cyclic_seen = acyclic_seen = 0
    for g in graphs:
        m = random_partial_matching(g, rng, beyond=True)
        got = verify_acyclic(m, g)
        assert got == _verify_acyclic_reference(m, g)
        in_complex = frozenset((s, t) for s, t in m.pairs if t in _cliques_reference(g, len(t)))
        assert got == (not brute_force_has_closed_path(Matching(in_complex), g))
        cyclic_seen += not got
        acyclic_seen += got
    assert cyclic_seen > 20 and acyclic_seen > 20


def _extend_cliques_reference(adj, prefix, cand_mask, depth, out):
    # extend only by vertices larger than max(prefix): cand_mask is already
    # restricted to > max(prefix) and to common neighbours.
    if depth == 0:
        out.append(tuple(prefix))
        return
    mask = cand_mask
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        prefix.append(v)
        _extend_cliques_reference(adj, prefix, cand_mask & adj[v] & ~((1 << (v + 1)) - 1),
                                  depth - 1, out)
        prefix.pop()


def _cliques_reference(g, k):
    """The scalar reference for cliques: one depth-first ordered extension
    per clique size."""
    if not 1 <= k <= g.n:
        raise ValueError("k must lie in [1, n]")
    out = []
    full = ((1 << (g.n + 1)) - 1) & ~1
    _extend_cliques_reference(g.adj, [], full, k, out)
    return out


def _lex_matching_reference(g, max_size):
    """The scalar reference for lex_matching: every size enumerated on its
    own, and I(s) from an AND over the vertices of s."""
    if max_size > g.n:
        raise ValueError("max_size exceeds vertex count")
    pairs = []
    # a size-n clique has empty I(s), so capping at n-1 loses nothing
    for size in range(1, min(max_size, g.n - 1) + 1):
        for s in _cliques_reference(g, size):
            common = (1 << (g.n + 1)) - 1
            for v in s:
                common &= g.adj[v]
            i_set = common & below_mask(s[0])
            if i_set:
                j = (i_set & -i_set).bit_length() - 1
                pairs.append((s, tuple(sorted(s + (j,)))))
    return Matching(frozenset(pairs))


def _critical_counts_direct_reference(g, d):
    """Count cliques of each size 2..d+1 unmatched by the lexicographical
    matching (built one size beyond d+1 so upward matches at the top size
    are seen)."""
    matched = _lex_matching_reference(g, min(d + 2, g.n)).simplices()
    counts = tuple(
        sum(1 for s in _cliques_reference(g, size) if s not in matched)
        for size in _crit_sizes(d, g.n))
    return CriticalVector(counts)


def _verify_acyclic_reference(m, g):
    """The scalar reference for verify_acyclic: a DFS over every clique up to
    the top coface size, keyed by tuples."""
    top = max((len(c) for _, c in m.pairs), default=0)
    nodes = []
    for size in range(1, top + 1):
        nodes.extend(_cliques_reference(g, size))
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


def _assert_gates_match_reference(g, max_sizes, ds, ks):
    for k in ks:
        assert cliques(g, k) == _cliques_reference(g, k)
    for max_size in max_sizes:
        m = lex_matching(g, max_size)
        want = _lex_matching_reference(g, max_size)
        assert m.pairs == want.pairs
        assert verify_acyclic(m, g) is _verify_acyclic_reference(want, g) is True
    for d in ds:
        assert critical_counts_direct(g, d) == _critical_counts_direct_reference(g, d)


def test_morse_gates_match_reference_exhaustive():
    for n in range(1, 6):
        for g in all_graphs(n):
            _assert_gates_match_reference(g, range(n + 1), range(n), range(1, n + 1))


def test_morse_gates_match_reference_n6_stride():
    graphs = all_graphs(6)
    for g in itertools.islice(graphs, 0, None, 17):
        _assert_gates_match_reference(g, (2, 5), (1, 3), range(1, 7))


def test_morse_gates_match_reference_random_n12():
    for stream in range(50):
        g = sample_gnp(GnpParams(12, 0.5, 41), stream=stream)
        _assert_gates_match_reference(g, (3, 5), (1, 3), range(1, 6))


def _assert_walk_matches_tuple_reference(g):
    """graphs' bitmask walk against the tuple walk it replaced, both to full
    depth: the same cliques in the same order, with E(s) and I(s) the parts
    of C(s) above max s and below min s.  Then critical_counts_direct for
    every d and lex_matching for every max_size against the pairs of that
    one reference walk: a clique of size k is matched only through faces of
    size k - 1 or k, so a walk to any depth >= d + 1 gives the counts of
    sizes 2..d+1, and a walk to max_size the pairs whose face has at most
    max_size vertices."""
    ref_levels, ref_pairs = lex_walk(g, g.n)
    assert [[(mask_tuple(s), e, i) for s, e, i in level] for level in clique_masks(g, g.n)] \
        == [[(s, c & -(2 << s[-1]), c & below_mask(s[0])) for s, c in level]
            for level in ref_levels[1:]]
    matched = {s for pair in ref_pairs for s in pair}
    unmatched = [sum(s not in matched for s, _ in level) for level in ref_levels]
    for d in range(g.n):
        assert critical_counts_direct(g, d).counts == tuple(unmatched[2:d + 2])
    for max_size in range(g.n + 1):
        assert lex_matching(g, max_size).pairs == {p for p in ref_pairs if len(p[0]) <= max_size}


def test_bitmask_walk_matches_tuple_walk_every_graph_n6():
    for g in all_graphs(6):
        _assert_walk_matches_tuple_reference(g)


def test_bitmask_walk_matches_tuple_walk_random_n12():
    # the random corpus of verify --suite morse-equivalence
    for rng in gnp_streams(1, 0, 1000):
        _assert_walk_matches_tuple_reference(Graph(12, gnp_mask(rng, 12, 0.5)))


def _mutated_walk(monkeypatch, mutate):
    """Patch graphs' bitmask walk, as critical_counts_direct, lex_matching and
    verify's gate call it, to return mutate(levels) for the true walk's levels."""
    from cliquestats import morse, verify
    for module in (morse, verify):
        monkeypatch.setattr(module, "clique_masks", lambda g, top: mutate(clique_masks(g, top)))


def test_morse_gate_fails_a_walk_that_takes_the_highest_bit_of_i(monkeypatch):
    # keeping only the highest bit of I(s) makes it the one the pair takes:
    # on K3, {3} pairs with {2, 3}, which also pairs up with {1, 2, 3}
    from cliquestats import verify
    _mutated_walk(monkeypatch, lambda levels: [
        [(s, e, i and 1 << i.bit_length() - 1) for s, e, i in level] for level in levels])
    with pytest.raises(ValueError, match=r"simplex \(2, 3\) appears in two pairs"):
        critical_counts_direct(Graph.complete(3), 1)
    with pytest.raises(ValueError, match=r"simplex \(2, 3\) appears in two pairs"):
        lex_matching(Graph.complete(3), 3)
    with pytest.raises(ValueError, match=r"simplex \(2, 3\) appears in two pairs"):
        verify._equiv_on_graph(Graph.complete(3), 1)
    rows = verify.suite_morse_equivalence(random_graphs=20, enum_ns=(5,))
    assert {r.status for r in rows} == {"FAIL"}
    # each row names the fault, after its mismatch count on the equivalence rows
    for r, prefix in zip(rows, [r"\d+ mismatches; ", "", r"\d+ mismatches; ", ""]):
        assert re.fullmatch(prefix + r"\d+ graphs' pairs are no matching, "
                            r"e\.g\. simplex \([\d, ]+\) appears in two pairs", r.detail), r.detail


def test_direct_check_refuses_a_repeated_simplex(monkeypatch):
    # the first vertex that pairs up is listed twice, so it is in two pairs
    def repeat_first_face(levels):
        first = next(r for r in levels[0] if r[2])
        return [[first] + levels[0]] + levels[1:]
    _mutated_walk(monkeypatch, repeat_first_face)
    for g in (FIG2, Graph.complete(4), sample_gnp(GnpParams(9, 0.5, 2))):
        with pytest.raises(ValueError, match=r"simplex \(\d,\) appears in two pairs"):
            critical_counts_direct(g, 2)
    # in masks: {3} -> {2, 3} and {2, 3} -> {1, 2, 3}; {2} -> {1, 2} twice
    assert _matched([[(0b1000, 0, 0b100)]]) == {0b1000, 0b1100}
    for levels, repeat in (([[(0b1000, 0, 0b100)], [(0b1100, 0, 0b10)]], r"\(2, 3\)"),
                           ([[(0b100, 0, 0b10), (0b100, 0, 0b10)]], r"\(2,\)")):
        with pytest.raises(ValueError, match="simplex %s appears in two pairs" % repeat):
            _matched(levels)


@pytest.mark.parametrize("bad_i", [
    lambda s, e: s & -s,  # the face's own lowest vertex: the coface is the face
    lambda s, e: e,  # a vertex above the face
])
def test_direct_check_refuses_a_coface_not_its_face_plus_a_lower_vertex(bad_i, monkeypatch):
    # the top vertex of each size-2 clique gets an I(s) whose lowest bit is no
    # vertex below min s
    def corrupt(levels):
        return [levels[0]] + [[(s, e, bad_i(s, e) or i) for s, e, i in levels[1]]] + levels[2:]
    _mutated_walk(monkeypatch, corrupt)
    for g in (Graph.complete(4), Graph.complete(6)):
        with pytest.raises(ValueError, match="invalid pair"):
            critical_counts_direct(g, 2)


def test_critical_vector_accessors():
    v = CriticalVector((4, 2, 1))
    assert v.d == 3


def test_matching_dump_order():
    out = lex_matching(FIG2, 3).dump().splitlines()
    assert out == ["2 -> 1,2", "3 -> 2,3", "4 -> 1,4", "5 -> 3,5", "4,5 -> 3,4,5"]


def _euler(counts):
    return sum((-1) ** k * c for k, c in enumerate(counts))


@given(graphs_on_at_most_9())
@settings(max_examples=40, deadline=None)
def test_weak_morse_equality_on_full_complex(g):
    # sum_k (-1)^k critical k-simplices = sum_k (-1)^k k-simplices
    critical = [sum(is_vertex_critical(g, v) for v in range(1, g.n + 1))]
    critical += critical_counts_direct(g, g.n - 1).counts
    assert _euler(critical) == _euler(clique_count(g, size) for size in range(1, g.n + 1))


@pytest.mark.parametrize("n,ps", [(7, (0.1, 0.5, 0.9, 1.0)), (12, (0.1, 0.5, 0.9)),
                                  (16, (0.1, 0.5, 0.8)), (40, (0.1, 0.5))])
def test_clique_levels_weak_morse_equality(n, ps):
    # the kernel's two modes at full depth, vertex criticals added
    for p in ps:
        for stream in range(3):
            g = sample_gnp(GnpParams(n, p, 37), stream=stream)
            a = _pair_matrix(g)
            critical = [sum(is_vertex_critical(g, v) for v in range(1, n + 1))]
            critical += clique_levels(a, n, critical=True)[2:]
            assert _euler(critical) == _euler(clique_levels(a, n)[1:])


def test_morse_equivalence_suite_two_workers_match_serial(monkeypatch):
    from cliquestats import verify
    kwargs = dict(random_graphs=21, random_n=8, seed=3, enum_ns=(5,))
    serial = verify.suite_morse_equivalence(**kwargs)
    assert verify.suite_morse_equivalence(threads=2, **kwargs) == serial
    assert [r.name for r in serial[2:]] == ["morse equivalence 21 random graphs n=8",
                                            "acyclicity 21 random graphs n=8"]
    # flag every graph with an odd edge count: both corpora are tallied over
    # all their chunks (the forked workers see the patch)
    monkeypatch.setattr(verify, "_equiv_on_graph", lambda g, d: (g.edge_count % 2 == 0, True))
    odd = sum(sample_gnp(GnpParams(8, 0.5, 3), r).edge_count % 2 for r in range(21))
    for threads in (1, 2):
        rows = verify.suite_morse_equivalence(threads=threads, **kwargs)
        assert [r.detail for r in rows] == ["512 mismatches", "", "%d mismatches" % odd, ""]


def test_morse_equivalence_suite_splits_by_workers_not_threads(monkeypatch, fake_pool, cpus):
    # the three corpora go to parallel_map as one item list, cut into a part
    # per worker; each graph is checked once, in corpus order
    from cliquestats import verify
    kwargs = dict(random_graphs=21, random_n=8, seed=3, enum_ns=(4, 5))
    serial = verify.suite_morse_equivalence(**kwargs)
    random_masks = [sample_gnp(GnpParams(8, 0.5, 3), r).edge_mask for r in range(21)]
    want = ([(0, 4, 3, m) for m in range(64)] + [(1, 5, 3, m) for m in range(1024)]
            + [(2, 8, 3, m) for m in random_masks])
    for k, threads, workers in ((2, 2000, 2), (2, 3, 2), (8, 3, 3), (8, 2000, 8)):
        cpus(k)
        assert verify.suite_morse_equivalence(threads=threads, **kwargs) == serial
        size, parts = fake_pool.pop()
        assert size == len(parts) == workers, (k, threads)
        assert [item for part in parts for item in part] == want
    # each corpus's failures are summed over the parts it is spread across
    monkeypatch.setattr(verify, "_equiv_on_graph",
                        lambda g, d: (g.edge_count % 2 == 0, g.edge_count % 3 != 0))
    flagged = verify.suite_morse_equivalence(**kwargs)
    assert verify.suite_morse_equivalence(threads=8, **kwargs) == flagged != serial
    assert len(fake_pool.pop()[1]) == 8
    assert not fake_pool


def test_equiv_on_graph_reads_the_public_gates_off_one_walk(monkeypatch):
    # with the formula side replaced by critical_counts_direct, the counts
    # read off the one walk agree for every d, d + 1 = n included; the
    # acyclicity gate gets lex_matching(g, min(d + 2, n))
    from cliquestats import verify
    checked = []
    monkeypatch.setattr(verify, "critical_counts_formula", critical_counts_direct)
    monkeypatch.setattr(verify, "verify_acyclic", lambda m, g: checked.append(m) or True)
    graphs = [g for n in range(2, 6) for g in all_graphs(n)]
    graphs += itertools.islice(all_graphs(6), 0, None, 29)
    graphs += [sample_gnp(GnpParams(12, 0.5, 8), stream=s) for s in range(20)]
    for g in graphs:
        for d in range(1, min(g.n, 5)):
            assert verify._equiv_on_graph(g, d) == (True, True)
            assert checked.pop() == lex_matching(g, min(d + 2, g.n))

    def top_off_by_one(g, d):
        counts = critical_counts_direct(g, d).counts
        return CriticalVector(counts[:-1] + (counts[-1] + 1,))
    monkeypatch.setattr(verify, "critical_counts_formula", top_off_by_one)
    assert verify._equiv_on_graph(Graph.complete(5), 3) == (False, True)


@pytest.fixture
def fresh_tables():
    """An empty count-table cache, emptied again after the test, so no table a
    patched rule built outlives it."""
    _small_graph_counts.cache_clear()
    yield
    _small_graph_counts.cache_clear()


def _status(rows):
    return {r.name: r.status for r in rows}


def test_morse_gate_reads_the_critical_count_table(monkeypatch, fresh_tables):
    # an up range that stops one short of min(s) breaks the tables the
    # replicates of n <= 6 read, and the gate sees it on both exhaustive corpora
    from cliquestats import verify

    def up_off_by_one(masks, n, s, t):
        up = [spans_clique(masks, n, (j,) + s) for j in range(1, s[0] - 1)]
        down = [spans_clique(masks, n, (j,) + s[1:]) for j in range(1, s[0])]
        return spans_clique(masks, n, s) & ~np.any(up, axis=0) & np.any(down, axis=0)

    monkeypatch.setitem(STATS, "critical", replace(STATS["critical"], count=up_off_by_one))
    status = _status(verify.suite_morse_equivalence(random_graphs=20))
    assert status == {"morse equivalence all 1024 graphs n=5": "FAIL",
                      "acyclicity all graphs n=5": "PASS",
                      "morse equivalence all 32768 graphs n=6": "FAIL",
                      "acyclicity all graphs n=6": "PASS",
                      "morse equivalence 20 random graphs n=12": "PASS",
                      "acyclicity 20 random graphs n=12": "PASS"}


def test_morse_gate_reads_clique_levels_critical_mode(monkeypatch):
    # clique counts in place of critical ones: above n = 6 the gate reads
    # clique_levels as the replicates do, so the random corpus fails
    from cliquestats import kinds, verify
    monkeypatch.setattr(kinds, "clique_levels", lambda a, top, critical=False: clique_levels(a, top))
    status = _status(verify.suite_morse_equivalence(random_graphs=20, enum_ns=(5,)))
    assert status == {"morse equivalence all 1024 graphs n=5": "PASS",
                      "acyclicity all graphs n=5": "PASS",
                      "morse equivalence 20 random graphs n=12": "FAIL",
                      "acyclicity 20 random graphs n=12": "PASS"}


def test_formula_matches_direct_below_d_1():
    # no sizes, no counts: the table route reads no table with d < 1 columns
    for g in (Graph.empty(1), FIG2, Graph.complete(6), sample_gnp(GnpParams(9, 0.5, 2))):
        for d in (0, -1):
            assert critical_counts_formula(g, d) == critical_counts_direct(g, d) \
                == CriticalVector(())
