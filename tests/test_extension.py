from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import build_cayley, reference_flatten
from zeroext import extension, graphs, instance
from zeroext.extension import (
    ExtensionError,
    edge_label,
    flatten,
    project,
    project_path,
    sample_extension,
    traverse_inter,
    vertex_id,
)
from zeroext.graphs import Graph, uniform_lengths


def edgeless(n):
    return Graph(vertex_count=n, edges=[])


def single_edge():
    return Graph(vertex_count=2, edges=[(0, 1)])


def c3():
    return build_cayley([3], [(1,)])


def test_matching_special_case():
    x = sample_extension(single_edge(), np.array([1.0]), edgeless(3), np.zeros(0), seed=5)
    g, lengths = flatten(x).graph, flatten(x).lengths
    assert g.vertex_count == 6
    assert g.edge_count == 3
    assert np.all(g.degrees() == 1)  # a perfect matching between the clouds
    assert np.all(lengths == 1.0)


def test_single_vertex_base_copies_fiber():
    fiber = build_cayley([4], [(1,)])
    base = Graph(vertex_count=1, edges=[])
    x = sample_extension(base, np.zeros(0), fiber, uniform_lengths(fiber, 2.0), seed=0)
    g, lengths = flatten(x).graph, flatten(x).lengths
    assert g.vertex_count == 4
    assert g.edges == fiber.edges
    assert np.all(lengths == 2.0)


def test_c3_by_c3_degrees_and_determinism():
    x1 = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=42)
    x2 = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=42)
    g1 = flatten(x1).graph
    assert np.all(g1.degrees() == 4)  # deg_H + deg_G = 2 + 2
    assert x1.seed == x2.seed
    assert len(x1.matchings) == len(x2.matchings)
    assert all(np.array_equal(a, b) for a, b in zip(x1.matchings, x2.matchings))
    x3 = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=43)
    assert any(not np.array_equal(a, b) for a, b in zip(x1.matchings, x3.matchings))


def test_edge_counts():
    lift = sample_extension(c3(), uniform_lengths(c3(), 1.0), edgeless(4), np.zeros(0), seed=1)
    gl = flatten(lift).graph
    assert gl.edge_count == 3 * 4  # |E_G| * |V_H|
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=1)
    gx = flatten(x).graph
    assert gx.edge_count == 3 * 3 + 3 * 3  # intra + inter


def test_degree_identity_over_samples():
    base = graphs.random_regular(6, 3, seed=2).graph
    fiber = graphs.random_regular(8, 3, seed=3).graph
    for seed in range(5):
        x = sample_extension(
            base, uniform_lengths(base, 1.0), fiber, uniform_lengths(fiber, 1.0), seed=seed
        )
        g = flatten(x).graph
        deg = g.degrees()
        for v in range(g.vertex_count):
            assert deg[v] == 3 + 3


def test_projection_of_edges_and_paths():
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=42)
    flat = flatten(x)
    # An intra edge projects to a vertex, no base edge.
    intra = next(e for e in range(flat.graph.edge_count) if flat.edge_kind[e] == 0)
    u, v = flat.graph.edges[intra]
    bverts, bedges = project_path(x, [u, v])
    assert bedges == []
    assert bverts == [project(x, u)]
    # An inter edge projects to its base edge.
    inter = next(e for e in range(flat.graph.edge_count) if flat.edge_kind[e] == 1)
    u, v = flat.graph.edges[inter]
    bverts, bedges = project_path(x, [u, v])
    assert bedges == [int(flat.edge_origin[inter])]
    assert bverts == [project(x, u), project(x, v)]


def test_mixed_path_projection_hand_trace():
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=7)
    # Build a 4-step walk by hand: intra step in cloud 0, cross base edge
    # (0,1), intra step in cloud 1, cross base edge (1,2).
    e01 = x.base.edge_lookup()[(0, 1)]
    e12 = x.base.edge_lookup()[(1, 2)]
    start = vertex_id(x, 0, 0)
    step1 = vertex_id(x, 0, 1)  # fiber edge (0,1) inside cloud 0
    step2 = traverse_inter(x, e01, step1)
    h2 = step2 % 3
    step3 = vertex_id(x, 1, (h2 + 1) % 3)
    step4 = traverse_inter(x, e12, step3)
    bverts, bedges = project_path(x, [start, step1, step2, step3, step4])
    assert bedges == [e01, e12]
    assert bverts == [0, 1, 2]


def test_lift_covering_property():
    base = build_cayley([5], [(1,), (2,)])
    fiber = edgeless(3)
    for seed in range(5):
        x = sample_extension(base, uniform_lengths(base, 1.0), fiber, np.zeros(0), seed=seed)
        flat = flatten(x)
        star = {g: set() for g in range(base.vertex_count)}
        for eid, (u, v) in enumerate(base.edges):
            star[u].add(eid)
            star[v].add(eid)
        incident = {v: [] for v in range(flat.graph.vertex_count)}
        for eid, (u, v) in enumerate(flat.graph.edges):
            incident[u].append(eid)
            incident[v].append(eid)
        for v in range(flat.graph.vertex_count):
            base_edges = [int(flat.edge_origin[e]) for e in incident[v]]
            assert sorted(base_edges) == sorted(star[project(x, v)])


def test_edge_label_round_trip_directions():
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=9)
    flat = flatten(x)
    for eid in range(flat.graph.edge_count):
        u, v = flat.graph.edges[eid]
        lab_u = edge_label(x, eid, u)
        lab_v = edge_label(x, eid, v)
        assert (lab_u.kind, lab_u.value) == (lab_v.kind, lab_v.value)
        assert (lab_u.direction, lab_v.direction) == (1, -1)
        # The label names the fiber or base edge the step runs along, smaller
        # endpoint first in direction +1.
        if lab_u.kind == "intra":
            assert lab_u.value == flat.edge_origin[eid]
            assert x.fiber.edges[lab_u.value] == (u % 3, v % 3)
        else:
            assert x.base.edges[lab_u.value] == (project(x, u), project(x, v))
            assert traverse_inter(x, lab_u.value, u) == v


def test_sample_extension_rejects_zero_lengths():
    c3 = build_cayley([3], [(1,)])
    zero = np.zeros(c3.edge_count)
    with pytest.raises(graphs.GraphError, match="length 0.0, expected > 0"):
        sample_extension(c3, zero, c3, uniform_lengths(c3, 1.0), seed=0)
    with pytest.raises(graphs.GraphError, match="length 0.0, expected > 0"):
        sample_extension(c3, uniform_lengths(c3, 1.0), c3, zero, seed=0)


@pytest.mark.parametrize("base_lengths", [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
def test_cached_extension_metric_is_read_only(base_lengths):
    # Shared by the instance, split and certificate code; none may write to it.
    x = sample_extension(c3(), np.array(base_lengths), c3(), uniform_lengths(c3(), 1.0), seed=3)
    dx = extension.extension_metric(x)
    assert extension.extension_metric(x) is dx
    with pytest.raises(ValueError, match="read-only"):
        dx.codes[0, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        dx.tables[0][0] = 1.0


@st.composite
def extensions_with_sources(draw):
    """A gap extension on n in {4..16} clouds, with its two lengths (the level
    search) or four distinct base lengths (Dijkstra), and sources unsorted
    and repeated."""
    n = draw(st.integers(4, 16))
    seed = draw(st.integers(0, 99))
    x = instance.default_gap_instance(n, 3 if n % 2 == 0 else 4, seed, girth_floor=3).extension
    if draw(st.booleans()):
        lengths = np.resize([1.0, 1.5, 2.0, 2.5], x.base.edge_count)
        x = sample_extension(x.base, lengths, x.fiber, x.fiber_lengths, x.seed)
    sources = draw(st.lists(st.integers(0, x.vertex_count - 1), max_size=40))
    return x, sources


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(extensions_with_sources())
def test_extension_rows_are_rows_of_the_extension_metric_byte_for_byte(case):
    x, sources = case
    before = extension.extension_rows(x, sources)
    assert x._metric is None  # searched from the sources, with no k x k pairs
    dx = extension.extension_metric(x)
    after = extension.extension_rows(x, sources)
    for rows in (before, after):
        assert sorted(rows) == sorted(set(sources))
        for s in sources:
            want = dx.rows(np.array([s]))[0]
            assert rows[s].dtype == want.dtype and rows[s].shape == (x.vertex_count,)
            assert rows[s].tobytes() == want.tobytes()


def test_traverse_inter_errors():
    x = sample_extension(single_edge(), np.array([1.0]), edgeless(3), np.zeros(0), seed=2)
    with pytest.raises(ExtensionError):
        traverse_inter(x, 0, 99)


def test_matching_uniformity_quick():
    counts: dict[tuple, int] = {}
    h3 = edgeless(3)
    for seed in range(1200):
        x = sample_extension(single_edge(), np.array([1.0]), h3, np.zeros(0), seed=seed)
        key = tuple(int(i) for i in x.matchings[0])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    _, p = stats.chisquare(list(counts.values()))
    assert p >= 0.001


@st.composite
def simple_graphs(draw, max_vertices: int):
    """A simple graph on 1..max_vertices vertices with its pairs in a drawn
    order, either orientation, and one positive length per edge."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    lengths = draw(st.lists(st.floats(0.01, 100.0), min_size=len(edges), max_size=len(edges)))
    return Graph(vertex_count=n, edges=edges), np.array(lengths)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=simple_graphs(5), fiber=simple_graphs(4), seed=st.integers(0, 2**16))
@example(base=(c3(), np.array([1.0, 2.0, 3.0])), fiber=(edgeless(3), np.zeros(0)), seed=7)
@example(base=(single_edge(), np.array([2.5])), fiber=(edgeless(1), np.zeros(0)), seed=0)
@example(base=(edgeless(2), np.zeros(0)), fiber=(c3(), np.array([0.5, 0.25, 4.0])), seed=1)
def test_flatten_matches_per_edge_oracle(base, fiber, seed):
    """Edgeless fibers (lifts), one-vertex fibers and uneven lengths included."""
    x = sample_extension(*base, *fiber, seed=seed)
    edges, lengths, kinds, origins = reference_flatten(x)
    flat = flatten(x)
    assert flat.graph.vertex_count == x.vertex_count
    assert flat.graph.edges == edges
    assert flat.lengths.dtype == lengths.dtype and flat.lengths.tobytes() == lengths.tobytes()
    for got, want in ((flat.edge_kind, kinds), (flat.edge_origin, origins)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
