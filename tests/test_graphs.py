from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import (
    cayley_setup,
    graph_fw,
    heap_dijkstra_tree,
    reference_random_regular,
    scalar_fisher_yates,
)
from zeroext import extension, graphs, instance
from zeroext.graphs import (
    Graph,
    GraphError,
    build_cayley,
    expansion_estimate,
    girth,
    random_regular,
    shortest_path_metric,
    single_source_shortest_paths,
    uniform_lengths,
)


# -- Cayley construction -------------------------------------------------------


def test_cayley_z6_is_cycle():
    g = build_cayley([6], [(1,)])
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert np.all(g.degrees() == 2)
    assert girth(g) == 6


def test_cayley_z5_two_generators_is_k5():
    g = build_cayley([5], [(1,), (2,)])
    # Oracle: enumerate all 10 vertex pairs and check each is an edge once.
    pairs = set(g.edges)
    assert len(g.edges) == 10
    for u, v in itertools.combinations(range(5), 2):
        assert (u, v) in pairs


def test_cayley_cube_matches_direct_hypercube():
    g = build_cayley([2, 2, 2], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # Oracle: direct 3-cube construction by single-bit flips.
    def vid(bits):
        return bits[0] * 4 + bits[1] * 2 + bits[2]

    want = set()
    for bits in itertools.product((0, 1), repeat=3):
        for axis in range(3):
            other = list(bits)
            other[axis] ^= 1
            a, b = vid(bits), vid(tuple(other))
            want.add((min(a, b), max(a, b)))
    assert set(g.edges) == want
    assert girth(g) == 4


def test_cayley_rejects_identity_and_duplicates():
    with pytest.raises(GraphError):
        build_cayley([5], [(0,)])
    with pytest.raises(GraphError, match="duplicate"):
        build_cayley([5], [(1,), (6,)])  # 6 mod 5 == 1


def test_cayley_label_invariants():
    g = build_cayley([5], [(1,), (2,)])
    for eid, (u, v) in enumerate(g.edges):
        cu, cv = g.labels[(u, eid)], g.labels[(v, eid)]
        assert g.generator_inverse[cu] == cv
    for v in range(g.vertex_count):
        incident = [g.labels[(v, eid)] for eid, (a, b) in enumerate(g.edges) if v in (a, b)]
        assert len(incident) == len(set(incident)) == 4


def test_cayley_cycle_girth_property():
    for m in range(3, 10):
        assert girth(build_cayley([m], [(1,)])) == m


# -- random regular -----------------------------------------------------------


def test_random_regular_k4():
    g = random_regular(4, 3, seed=123)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_random_regular_degree_histogram():
    g = random_regular(10, 3, seed=7)
    assert np.all(g.degrees() == 3)
    assert g.edge_count == 15


def test_random_regular_odd_product_rejected():
    with pytest.raises(GraphError, match="even"):
        random_regular(5, 3, seed=0)


def test_random_regular_reproducible():
    a = random_regular(16, 4, seed=99)
    b = random_regular(16, 4, seed=99)
    assert (a.vertex_count, a.edges, a.labels) == (b.vertex_count, b.edges, b.labels)
    assert a.edges != random_regular(16, 4, seed=100).edges


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 256])
def test_fisher_yates_matches_scalar_oracle(n):
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = graphs._fisher_yates(rng, n)
        want = scalar_fisher_yates(ref, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (n, seed)
        assert rng.bit_generator.state == ref.bit_generator.state, (n, seed)


@pytest.mark.parametrize(
    "m,d,seeds",
    [
        (2, 1, range(5)),
        (5, 0, range(2)),
        (4, 3, range(10)),
        (10, 3, range(10)),
        (16, 4, range(10)),
        (32, 4, range(10)),
        (12, 5, range(3)),
    ],
)
def test_random_regular_matches_full_shuffle_oracle(m, d, seeds):
    # The d=4 and d=5 seeds include runs of 50 to over 1000 rejected pairings.
    for seed in seeds:
        edges, _ = reference_random_regular(m, d, seed)
        assert random_regular(m, d, seed).edges == edges, (m, d, seed)


def test_random_regular_exhausted_tries_match_oracle():
    edges, used = reference_random_regular(32, 4, 9)
    assert used > 50
    with pytest.raises(GraphError) as want:
        reference_random_regular(32, 4, 9, tries=used - 1)
    with pytest.raises(GraphError) as got:
        random_regular(32, 4, 9, tries=used - 1)
    assert str(got.value) == str(want.value)
    assert random_regular(32, 4, 9, tries=used).edges == edges


# -- girth ---------------------------------------------------------------------


def test_girth_examples():
    assert girth(build_cayley([5], [(1,)])) == 5
    assert girth(random_regular(4, 3, seed=1)) == 3  # K4
    tree = Graph(vertex_count=5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)])
    assert girth(tree) == math.inf


def test_girth_multigraph_cases():
    assert girth(Graph(vertex_count=2, edges=[(0, 0), (0, 1)], multigraph=True)) == 1
    assert girth(Graph(vertex_count=2, edges=[(0, 1), (0, 1)], multigraph=True)) == 2


# -- shortest paths -------------------------------------------------------------


def test_triangle_unit_metric():
    g = Graph(vertex_count=3, edges=[(0, 1), (0, 2), (1, 2)])
    dist = shortest_path_metric(g, uniform_lengths(g, 1.0))
    assert np.allclose(dist, np.ones((3, 3)) - np.eye(3))


def test_path_lengths_add():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    dist = shortest_path_metric(g, np.array([2.0, 3.0]))
    assert dist[0, 2] == 5.0


def test_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(4)
    g = Graph(
        vertex_count=10,
        edges=sorted(
            {tuple(sorted(rng.integers(0, 10, 2))) for _ in range(25) if True}
            - {(i, i) for i in range(10)}
        ),
    )
    lengths = rng.integers(1, 9, size=g.edge_count).astype(float)
    dist = shortest_path_metric(g, lengths)
    oracle = graph_fw(g, lengths)
    # Integer lengths make both routes exact.
    assert np.array_equal(dist, oracle)


def test_metric_properties_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(4, 15))
        edges = sorted(
            {tuple(sorted(rng.integers(0, n, 2))) for _ in range(3 * n)}
            - {(i, i) for i in range(n)}
        )
        if not edges:
            continue
        g = Graph(vertex_count=n, edges=edges)
        lengths = rng.random(g.edge_count) + 0.1
        d = shortest_path_metric(g, lengths)
        finite = np.isfinite(d)
        assert np.allclose(d, d.T)
        assert np.all(np.diagonal(d) == 0)
        for w in range(n):
            lhs = d
            rhs = d[:, w][:, None] + d[w, :][None, :]
            mask = finite & np.isfinite(rhs)
            assert np.all(lhs[mask] <= rhs[mask] + 1e-9 * np.maximum(1, np.abs(lhs[mask])))


def test_rows_are_the_metric_rows_of_their_sources():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(4, 15))
        edges = sorted(
            {tuple(sorted(rng.integers(0, n, 2))) for _ in range(2 * n)}
            - {(i, i) for i in range(n)}
        )
        g = Graph(vertex_count=n, edges=edges)
        sources = rng.choice(n, size=int(rng.integers(1, n + 1)))  # unsorted, repeats
        whole = rng.integers(1, 9, size=g.edge_count).astype(float)
        rows = graphs.shortest_path_rows(g, whole, sources)
        assert rows.shape == (sources.size, n)
        assert np.array_equal(rows, graph_fw(g, whole)[sources])
        real = rng.random(g.edge_count) + 0.1
        rows = graphs.shortest_path_rows(g, real, sources)
        assert np.array_equal(rows, shortest_path_metric(g, real)[sources])


def test_disconnected_pairs_are_infinite():
    g = Graph(vertex_count=4, edges=[(0, 1), (2, 3)])
    d = shortest_path_metric(g, uniform_lengths(g, 1.0))
    assert math.isinf(d[0, 2])


def test_canonical_predecessor_tie_breaking():
    # Two equal routes 0-1-3 and 0-2-3; the smaller middle vertex wins.
    g = Graph(vertex_count=4, edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
    lengths = uniform_lengths(g, 1.0)
    tree = single_source_shortest_paths(g, lengths, 0, shortest_path_metric(g, lengths)[0])
    assert tree.path_vertices(3) == [0, 1, 3]
    assert tree.path_edges(3) == [0, 2]


def _assert_trees_match_oracle(g, lengths, dist):
    for s in range(g.vertex_count):
        tree = single_source_shortest_paths(g, lengths, s, dist[s])
        want = heap_dijkstra_tree(g, lengths, s)
        assert np.array_equal(tree.dist, want.dist), s
        assert np.array_equal(tree.pred_vertex, want.pred_vertex), s
        assert np.array_equal(tree.pred_edge, want.pred_edge), s


def test_single_source_matches_metric():
    rng = np.random.default_rng(21)
    g = Graph(
        vertex_count=8,
        edges=sorted(
            {tuple(sorted(rng.integers(0, 8, 2))) for _ in range(18)}
            - {(i, i) for i in range(8)}
        ),
    )
    lengths = rng.random(g.edge_count) + 0.5
    dist = shortest_path_metric(g, lengths)
    _assert_trees_match_oracle(g, lengths, dist)
    for s in range(g.vertex_count):
        tree = single_source_shortest_paths(g, lengths, s, dist[s])
        for t in range(g.vertex_count):
            if math.isfinite(dist[s, t]):
                path = tree.path_vertices(t)
                total = sum(
                    lengths[tree.pred_edge[v]] for v in path[1:]
                )
                assert abs(total - dist[s, t]) <= 1e-9 * max(1, dist[s, t])


@pytest.mark.parametrize("n", [8, 16, 24])
def test_trees_from_extension_metric_match_heap_oracle(n):
    for seed in range(3):
        x = instance.default_gap_instance(n, 4, seed).extension
        flat = extension.flatten(x)
        _assert_trees_match_oracle(flat.graph, flat.lengths, extension.extension_metric(x))


def test_trees_from_extension_metric_match_heap_oracle_cayley():
    for seed in range(3):
        x, _ = cayley_setup(seed)
        flat = extension.flatten(x)
        _assert_trees_match_oracle(flat.graph, flat.lengths, extension.extension_metric(x))


def test_single_source_rejects_a_row_of_another_source():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    lengths = uniform_lengths(g, 1.0)
    dist = shortest_path_metric(g, lengths)
    with pytest.raises(GraphError, match="not the row of source 1"):
        single_source_shortest_paths(g, lengths, 1, dist[0])
    with pytest.raises(GraphError, match="shape"):
        single_source_shortest_paths(g, lengths, 0, dist[0, :2])


def test_parallel_edges_collapse_to_the_shortest():
    g = Graph(vertex_count=3, edges=[(0, 1), (0, 1), (1, 1), (1, 2)], multigraph=True)
    lengths = np.array([1.0, 1.0, 0.5, 1.5])
    assert np.array_equal(shortest_path_metric(g, lengths), graph_fw(g, lengths))


# -- expansion estimate -----------------------------------------------------------


def test_expansion_k4():
    g = random_regular(4, 3, seed=1)
    est = expansion_estimate(g, iterations=2000, seed=0)
    assert abs(est.value - (-1.0 / 3.0)) < 1e-6
    assert abs(abs(est.value) - 1.0 / 3.0) < 1e-6
    assert est.iterations == 2000


def test_expansion_even_cycle():
    n = 8
    g = build_cayley([2 * n], [(1,)])
    est = expansion_estimate(g, iterations=20000, seed=3)
    assert abs(est.value - math.cos(math.pi / n)) < 1e-6


def test_expansion_errors():
    disconnected = Graph(vertex_count=4, edges=[(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="connected"):
        expansion_estimate(disconnected, 10, 0)
    irregular = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="regular"):
        expansion_estimate(irregular, 10, 0)


# -- serialization -----------------------------------------------------------------


def test_validation_errors():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(vertex_count=2, edges=[(0, 0)])
    with pytest.raises(GraphError, match="parallel"):
        Graph(vertex_count=2, edges=[(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(vertex_count=2, edges=[(0, 5)])
