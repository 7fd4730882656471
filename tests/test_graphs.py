from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cayley_setup,
    dense_second_eigenvalue,
    graph_fw,
    heap_dijkstra_tree,
    reference_girth,
    reference_graph_edges,
    reference_random_regular,
    scalar_fisher_yates,
)
from zeroext import extension, graphs, instance
from zeroext.extension import sample_extension
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


def test_cayley_edge_lists_are_pinned():
    # Vertex numbering and edge order fix every extension sampled over a
    # Cayley graph (one matching per edge id), so both are pinned.
    torus = build_cayley([3, 3], [(1, 0), (0, 1)])
    assert torus.vertex_count == 9
    assert torus.edges == [
        (0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 7), (2, 5), (2, 8),
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 7), (5, 8), (6, 7), (6, 8), (7, 8),
    ]
    circulant = build_cayley([8], [(1,), (3,)])
    assert circulant.vertex_count == 8
    assert circulant.edges == [
        (0, 1), (0, 7), (0, 3), (0, 5), (1, 2), (1, 4), (1, 6), (2, 3),
        (2, 5), (2, 7), (3, 4), (3, 6), (4, 5), (4, 7), (5, 6), (6, 7),
    ]


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
    assert (a.vertex_count, a.edges) == (b.vertex_count, b.edges)
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


MULTIGRAPHS = [
    [(0, 0), (0, 1)],
    [(0, 1), (0, 1)],
    [(0, 1), (1, 2), (1, 2), (2, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 0), (2, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 4)],
]


def test_girth_multigraph_cases():
    assert girth(Graph(vertex_count=2, edges=[(0, 0), (0, 1)], multigraph=True)) == 1
    assert girth(Graph(vertex_count=2, edges=[(0, 1), (0, 1)], multigraph=True)) == 2
    for edges in MULTIGRAPHS:
        g = Graph(vertex_count=5, edges=edges, multigraph=True)
        assert girth(g) == reference_girth(g), edges


def test_girth_matches_full_bfs_on_random_graphs():
    # The BFS stops once no deeper cycle can beat the best; the result stays exact.
    for m, d in ((8, 3), (12, 3), (16, 4), (32, 4), (20, 5), (64, 3)):
        for seed in range(8):
            g = random_regular(m, d, seed)
            assert girth(g) == reference_girth(g), (m, d, seed)
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        edges = [tuple(int(a) for a in rng.integers(0, n, 2)) for _ in range(int(rng.integers(0, 2 * n)))]
        g = Graph(vertex_count=n, edges=[e for e in edges if e[0] != e[1]], multigraph=True)
        assert girth(g) == reference_girth(g), g.edges


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
        for t, (verts, eids) in want.all_paths().items():
            assert tree.path_vertices(t) == verts, (s, t)
            assert tree.path_edges(t) == eids, (s, t)


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
                assert len(tree.path_edges(t)) == len(path) - 1
                total = sum(lengths[e] for e in tree.path_edges(t))
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


def test_tree_finds_predecessors_only_along_asked_paths():
    # A path 0-1-...-9: asking for vertex 3 walks back through 3, 2 and 1 only.
    g = Graph(vertex_count=10, edges=[(v, v + 1) for v in range(9)])
    lengths = uniform_lengths(g, 1.0)
    tree = single_source_shortest_paths(g, lengths, 0, shortest_path_metric(g, lengths)[0])
    assert tree.path_vertices(3) == [0, 1, 2, 3]
    assert sorted(tree._pred) == [1, 2, 3]
    assert tree.path_edges(5) == [0, 1, 2, 3, 4]
    assert sorted(tree._pred) == [1, 2, 3, 4, 5]
    assert tree.path_vertices(0) == [0] and tree.path_edges(0) == []


def test_single_source_rejects_a_row_of_another_source():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    lengths = uniform_lengths(g, 1.0)
    dist = shortest_path_metric(g, lengths)
    with pytest.raises(GraphError, match="not the row of source 1"):
        single_source_shortest_paths(g, lengths, 1, dist[0])
    with pytest.raises(GraphError, match="shape"):
        single_source_shortest_paths(g, lengths, 0, dist[0, :2])


def test_rows_take_zero_lengths_and_reject_negative_or_nan():
    # Zero-length edges stay edges: 0 and 2 are at distance 0, not apart.
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    zero = np.array([0.0, 0.0, 1.0, 3.0])
    rows = graphs.shortest_path_rows(g, zero, [0, 3])
    assert rows[0, 2] == 0.0
    assert np.array_equal(rows, graph_fw(g, zero)[[0, 3]])
    for bad in (np.array([1.0, -1.0, 1.0, 1.0]), np.array([1.0, np.nan, 1.0, 1.0])):
        with pytest.raises(GraphError, match="edge 1 has length (-1.0|nan), expected >= 0"):
            graphs.shortest_path_rows(g, bad, [0])
        with pytest.raises(GraphError, match="edge 1 has length (-1.0|nan), expected > 0"):
            graphs.validate_lengths(g, bad)
    with pytest.raises(GraphError, match="edge 0 has length 0.0, expected > 0"):
        graphs.validate_lengths(g, zero)


def test_endpoints_are_one_read_only_array_of_the_edges():
    g = Graph(vertex_count=3, edges=[(1, 0), (1, 1), (1, 2)], multigraph=True)
    ends = g.endpoints()
    assert ends.dtype == np.int64 and ends.tolist() == [[0, 1], [1, 1], [1, 2]]
    assert g.endpoints() is ends
    with pytest.raises(ValueError, match="read-only"):
        ends[0, 0] = 2
    assert Graph(vertex_count=1, edges=[]).endpoints().shape == (0, 2)


def test_search_builds_its_adjacency_once_for_every_chunk(monkeypatch):
    g = Graph(vertex_count=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    lengths = np.array([1.0, 2.0, 0.0, 1.5, 4.0])
    builds = []
    csr = graphs._csr
    monkeypatch.setattr(graphs, "_csr", lambda *args: builds.append(1) or csr(*args))
    search = graphs.shortest_path_search(g, lengths)
    chunks = [search([0, 1]), search([2]), search([3, 4])]
    assert len(builds) == 1
    assert np.array_equal(np.vstack(chunks), graph_fw(g, lengths))


def test_level_search_builds_its_neighbour_tables_once_for_every_chunk(monkeypatch):
    g = Graph(vertex_count=5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    lengths = np.array([1.0, 2.0, 0.0, 1.0, 2.0])  # three length classes
    tables = []
    table = graphs._neighbour_table
    monkeypatch.setattr(graphs, "_neighbour_table", lambda *args: tables.append(1) or table(*args))
    search = graphs.shortest_path_search(g, lengths, targets=[4, 0])
    chunks = [search([0, 1]), search([2]), search([3, 4])]
    assert len(tables) == 3
    assert np.array_equal(np.vstack(chunks), graph_fw(g, lengths)[:, [4, 0]])


def test_parallel_edges_collapse_to_the_shortest():
    g = Graph(vertex_count=3, edges=[(0, 1), (0, 1), (1, 1), (1, 2)], multigraph=True)
    lengths = np.array([1.0, 1.0, 0.5, 1.5])
    assert np.array_equal(shortest_path_metric(g, lengths), graph_fw(g, lengths))


def test_search_rejects_sources_and_targets_outside_the_graph():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    lengths = uniform_lengths(g, 1.0)
    with pytest.raises(GraphError, match=r"source -1 outside \[0, 3\)"):
        graphs.shortest_path_rows(g, lengths, [0, -1])
    with pytest.raises(GraphError, match=r"target 3 outside \[0, 3\)"):
        graphs.shortest_path_search(g, lengths, targets=[3])


# -- the engine rule, and the level search reproduces Dijkstra's floats -------------


def spy_on_engines(monkeypatch) -> list[str]:
    """The engine each shortest-path search takes, in call order."""
    calls = []
    for name in ("_level_search", "_dijkstra_search"):
        def spy(*args, _engine=getattr(graphs, name), _name=name):
            calls.append(_name)
            return _engine(*args)

        monkeypatch.setattr(graphs, name, spy)
    return calls


def by_engine(engine: str, g, lengths, sources=None) -> np.ndarray:
    """The search's distances with the rule forced to one engine."""
    sources = np.arange(g.vertex_count) if sources is None else sources
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "LEVEL_SEARCH_LENGTHS", math.inf if engine == "level" else -1)
        return graphs.shortest_path_search(g, lengths)(sources)


def scipy_rows(g, lengths, sources, targets) -> np.ndarray:
    """scipy's Dijkstra rows of the sources, read at the targets."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(graphs._csr(g, lengths), directed=True, indices=sources)[:, targets]


def test_engine_rule_counts_the_distinct_lengths_off_the_self_loops(monkeypatch):
    calls = spy_on_engines(monkeypatch)
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3), (3, 3), (0, 3)], multigraph=True)
    shortest_path_metric(g, np.array([1.0, 2.0, 3.0, 9.0, 1.0]))  # three lengths and a loop
    shortest_path_metric(g, np.array([1.0, 2.0, 3.0, 9.0, 4.0]))
    assert calls == ["_level_search", "_dijkstra_search"]


def test_loaded_instance_with_uneven_base_lengths_takes_dijkstra(tmp_path, monkeypatch):
    # Four distinct lengths on the extension: D_X comes from Dijkstra, and
    # the level search gives the same bytes.  Two lengths take the level search.
    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, np.array([1.0, 2.0, 3.0]), c3, uniform_lengths(c3, 0.5), seed=4)
    path = tmp_path / "uneven.json"
    instance.save_instance(instance.build_gap_instance(x, big_l=1.5), path)
    calls = spy_on_engines(monkeypatch)
    back = instance.load_instance(path)
    assert calls == ["_dijkstra_search"]
    even = sample_extension(c3, uniform_lengths(c3, 2.0), c3, uniform_lengths(c3, 0.5), seed=4)
    instance.build_gap_instance(even, 1.5)
    assert calls == ["_dijkstra_search", "_level_search"]
    flat = extension.flatten(back.origin.extension)
    assert back.origin.dx.tobytes() == by_engine("level", flat.graph, flat.lengths).tobytes()


def _assert_same_bytes(g, lengths):
    want = by_engine("dijkstra", g, lengths)
    got = by_engine("level", g, lengths)
    assert got.flags.c_contiguous
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# k = 400 and 576 span two and three decode blocks; 400 ends in a partial word.
@pytest.mark.parametrize("n, d", [(5, 4), (6, 3), (8, 4), (10, 3), (12, 5), (16, 4), (20, 3), (24, 4)])
def test_level_search_matches_dijkstra_bytes_on_gap_extensions(n, d):
    for seed in range(3):
        x = instance.default_gap_instance(n, d, seed, girth_floor=3).extension
        flat = extension.flatten(x)
        _assert_same_bytes(flat.graph, flat.lengths)
        assert extension.extension_metric(x).tobytes() == by_engine("level", flat.graph, flat.lengths).tobytes()


@pytest.mark.parametrize("n, d", [(4, 3), (8, 4), (16, 4)])
def test_search_from_terminals_to_terminals_matches_dijkstra_bytes_on_gap_instances(n, d):
    # The pendant edges add the third length L; this is is_feasible's search.
    inst = instance.default_gap_instance(n, d, 0).instance
    lengths = inst.origin.edge_lengths
    terms = inst.terminals
    got = graphs.shortest_path_search(inst.graph, lengths, targets=terms)(terms)
    assert np.unique(lengths).size == 3
    assert got.tobytes() == scipy_rows(inst.graph, lengths, terms, terms).tobytes()


def test_level_search_matches_dijkstra_bytes_on_cayley_extensions():
    for seed in range(3):
        x, _ = cayley_setup(seed)
        flat = extension.flatten(x)
        _assert_same_bytes(flat.graph, flat.lengths)


def test_level_search_rows_are_rows_of_their_source_on_an_asymmetric_metric():
    # Float sums make this D_X differ from its transpose in the last bits, so
    # decoding the bits of source s into column s instead of row s fails here.
    x = instance.default_gap_instance(10, 3, 0, girth_floor=3).extension
    flat = extension.flatten(x)
    dx = by_engine("level", flat.graph, flat.lengths)
    assert not np.array_equal(dx, dx.T)
    for s in range(0, x.vertex_count, 7):
        row = by_engine("dijkstra", flat.graph, flat.lengths, [s])[0]
        assert dx[s].tobytes() == row.tobytes(), s


def test_level_search_sizes_the_level_index_to_the_level_count():
    # A path with random lengths has about n^2 / 2 distinct distances, more
    # than a one-byte level index can name.
    g = Graph(vertex_count=40, edges=[(v, v + 1) for v in range(39)])
    lengths = np.random.default_rng(2).random(g.edge_count) + 0.5
    assert np.unique(shortest_path_metric(g, lengths)).size > 256
    _assert_same_bytes(g, lengths)


@st.composite
def small_graphs_with_lengths(draw):
    """A small multigraph (loops, parallel edges, often disconnected) with
    lengths from two values, from {1, 1e-17, 0} (where fl(F + l) == F), or
    arbitrary floats >= 0."""
    kind = draw(st.sampled_from(["two", "tiny", "floats"]))
    n = draw(st.integers(1, 10 if kind == "floats" else 80))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    if kind == "floats":
        length = st.floats(0.0, 10.0, allow_nan=False)
    elif kind == "tiny":
        length = st.sampled_from([1.0, 1e-17, 0.0])
    else:
        length = st.sampled_from(draw(st.sampled_from([(0.7, 1.3), (1.5, 2.25), (1.0, 1e-17)])))
    lengths = draw(st.lists(length, min_size=len(edges), max_size=len(edges)))
    return Graph(vertex_count=n, edges=edges, multigraph=True), np.array(lengths, dtype=float)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs_with_lengths())
@example((Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3)]), np.array([1.0, 1e-17, 1.0])))
def test_level_search_matches_dijkstra_bytes_on_small_graphs(case):
    _assert_same_bytes(*case)


@st.composite
def searches_over_few_lengths(draw):
    """A multigraph (loops, parallel edges, often disconnected) whose lengths
    take one to three values, zero among the choices; sources unsorted and
    repeated, sometimes more than one 256-source block; a target subset."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.3, 2.25, 1e-17]), min_size=1, max_size=3))
    lengths = draw(st.lists(st.sampled_from(values), min_size=len(edges), max_size=len(edges)))
    sources = draw(st.lists(vertex, min_size=1, max_size=draw(st.sampled_from([8, 300]))))
    targets = draw(st.lists(vertex, max_size=n))
    return (Graph(vertex_count=n, edges=edges, multigraph=True), np.array(lengths, dtype=float),
            np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(searches_over_few_lengths())
@example((Graph(vertex_count=2, edges=[(0, 1)]), np.array([1.0]), np.array([1, 1, 0]), np.array([1, 1])))
def test_search_over_few_lengths_matches_scipy_dijkstra_bytes(case):
    g, lengths, sources, targets = case
    got = graphs.shortest_path_search(g, lengths, targets)(sources)
    want = scipy_rows(g, lengths, sources, targets)
    assert got.shape == want.shape == (sources.size, targets.size)
    assert got.tobytes() == want.tobytes()


# -- expansion estimate -----------------------------------------------------------


def test_expansion_k4():
    g = random_regular(4, 3, seed=1)
    assert abs(expansion_estimate(g) - (-1.0 / 3.0)) < 1e-12


def test_expansion_even_cycle():
    n = 8
    g = build_cayley([2 * n], [(1,)])
    assert abs(expansion_estimate(g) - math.cos(math.pi / n)) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_expansion_matches_dense_eigensolver(n, d):
    for seed in (1, 2, 3):
        g = random_regular(n, d, seed=seed)
        assert abs(expansion_estimate(g) - dense_second_eigenvalue(g)) < 1e-12


def test_expansion_of_a_multigraph_matches_dense_eigensolver():
    # A loop at every vertex of an 8-cycle, and a matching that doubles four
    # of its edges: 5-regular with loops and parallel pairs.
    cycle = [(v, (v + 1) % 8) for v in range(8)]
    edges = cycle + [(v, v) for v in range(8)] + [(v, v + 1) for v in range(0, 8, 2)]
    g = Graph(vertex_count=8, edges=edges, multigraph=True)
    assert set(g.degrees().tolist()) == {5}
    assert abs(expansion_estimate(g) - dense_second_eigenvalue(g)) < 1e-12


def test_expansion_of_a_single_edge_is_minus_one():
    assert expansion_estimate(Graph(vertex_count=2, edges=[(0, 1)])) == -1.0


def test_expansion_errors():
    disconnected = Graph(vertex_count=4, edges=[(0, 1), (2, 3)])
    with pytest.raises(GraphError, match="connected"):
        expansion_estimate(disconnected)
    irregular = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    with pytest.raises(GraphError, match="regular"):
        expansion_estimate(irregular)
    with pytest.raises(GraphError, match="at least 2 vertices"):
        expansion_estimate(Graph(vertex_count=1, edges=[(0, 0)], multigraph=True))


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_expansion_starts_no_thread_in_a_forked_child():
    # `gap` workers are forked; a BLAS helper thread started there competes
    # with the other worker for the cores.
    g = random_regular(64, 4, seed=0)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report the thread count, never return into pytest
        try:
            expansion_estimate(g)
            os.write(write, str(len(os.listdir("/proc/self/task"))).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        threads = fh.read()
    os.waitpid(pid, 0)
    assert threads == "1"


# -- serialization -----------------------------------------------------------------


def test_validation_errors():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(vertex_count=2, edges=[(0, 0)])
    with pytest.raises(GraphError, match="parallel"):
        Graph(vertex_count=2, edges=[(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(vertex_count=2, edges=[(0, 5)])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    vertex_count=st.integers(0, 6),
    edges=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=10),
    multigraph=st.booleans(),
    as_array=st.booleans(),
)
@example(vertex_count=0, edges=[], multigraph=False, as_array=True)
@example(vertex_count=3, edges=[(2, 1), (1, 2)], multigraph=False, as_array=False)
@example(vertex_count=3, edges=[(1, 1), (0, 9)], multigraph=False, as_array=False)
@example(vertex_count=3, edges=[(0, 9), (1, 1)], multigraph=False, as_array=True)
@example(vertex_count=3, edges=[(2, 2), (2, 2), (1, 0)], multigraph=True, as_array=True)
def test_graph_matches_per_edge_oracle(vertex_count, edges, multigraph, as_array):
    """The array constructor keeps the per-edge loop's edges, or its message
    for the first bad edge (range, then loop, then parallel)."""
    try:
        want = reference_graph_edges(vertex_count, edges, multigraph)
    except GraphError as exc:
        want = str(exc)
    given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else list(edges)
    before = np.array(given_edges).tobytes()
    try:
        g = Graph(vertex_count=vertex_count, edges=given_edges, multigraph=multigraph)
    except GraphError as exc:
        assert str(exc) == want
        return
    assert g.edges == want
    assert all(type(u) is int and type(v) is int for u, v in g.edges)
    assert g.endpoints().tobytes() == np.array(want, dtype=np.int64).reshape(-1, 2).tobytes()
    assert not g.endpoints().flags.writeable
    assert np.array(given_edges).tobytes() == before  # the caller's edges are left alone


@pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, 1, 2)], [(0,)], [[], []], np.zeros((2, 2), dtype=bool)])
def test_graph_rejects_edges_that_are_not_integer_pairs(edges):
    with pytest.raises(GraphError, match="edges must be"):
        Graph(vertex_count=3, edges=edges)
