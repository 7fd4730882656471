from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_cayley,
    floyd_warshall,
    heap_dijkstra_dist,
    random_generic_instance,
    random_labeling,
    reference_is_feasible,
)
from zeroext import extension, graphs, instance, relaxation, solvers
from zeroext.graphs import Graph, shortest_path_rows
from zeroext.instance import build_generic_instance, default_gap_instance
from zeroext.relaxation import (
    RelaxationError,
    canonical_fractional,
    fractional_cost,
    induced_semimetric,
    is_feasible,
    per_edge_contribution,
)


def star_instance():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    return build_generic_instance(
        g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def lp_optimum(inst) -> float:
    """Independent route: assemble the relaxation directly with linprog."""
    n = inst.vertex_count
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = {p: i for i, p in enumerate(pairs)}
    c = np.zeros(len(pairs))
    for eid, (u, v) in enumerate(inst.graph.edges):
        if u != v:
            c[idx[(min(u, v), max(u, v))]] += inst.weights[eid]
    rows, rhs = [], []
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(n):
                if w in (u, v):
                    continue
                row = np.zeros(len(pairs))
                row[idx[(u, v)]] = 1.0
                row[idx[(min(u, w), max(u, w))]] -= 1.0
                row[idx[(min(v, w), max(v, w))]] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    eq_rows, eq_rhs = [], []
    for i in range(inst.k):
        for j in range(i + 1, inst.k):
            row = np.zeros(len(pairs))
            ti, tj = int(inst.terminals[i]), int(inst.terminals[j])
            row[idx[(min(ti, tj), max(ti, tj))]] = 1.0
            eq_rows.append(row)
            eq_rhs.append(float(inst.metric.pair_values(i, j)))
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=[(0, None)] * len(pairs),
        method="highs",
    )
    assert res.success
    return float(res.fun)


# -- canonical fractional solution --------------------------------------------


def test_canonical_cost_equals_edge_count(small_gap):
    inst = small_gap.instance
    lengths, cost = canonical_fractional(inst)
    assert lengths is inst.origin.edge_lengths and not lengths.flags.writeable
    m = inst.graph.edge_count
    assert abs(cost - m) <= 1e-9 * m
    contributions = per_edge_contribution(lengths, inst)
    assert np.all(np.abs(contributions - 1.0) <= 1e-9)


def test_canonical_is_feasible(small_gap):
    lengths, _ = canonical_fractional(small_gap.instance)
    assert is_feasible(lengths, small_gap.instance) == []


def test_canonical_terminal_equality(small_gap):
    inst = small_gap.instance
    lengths, _ = canonical_fractional(inst)
    rows, cols = np.arange(0, inst.k, 7), np.arange(0, inst.k, 11)
    got = shortest_path_rows(inst.graph, lengths, inst.terminals[rows])[:, inst.terminals[cols]]
    want = inst.metric.pair_values(rows[:, None], cols[None, :])
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, want))


def test_canonical_requires_gap_instance():
    with pytest.raises(RelaxationError, match="needs a gap instance with length origin"):
        canonical_fractional(star_instance())


def test_canonical_cost_small_example():
    # C3 extended by C3 with unit lengths: 18 extension edges + 9 pendants.
    from zeroext.extension import sample_extension
    from zeroext.graphs import uniform_lengths

    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c3, uniform_lengths(c3, 1.0), seed=2)
    inst = instance.build_gap_instance(x, big_l=1.0)
    _, cost = canonical_fractional(inst)
    assert abs(cost - 27.0) <= 1e-9 * 27


# -- feasibility checking -------------------------------------------------------


def test_terminal_violation_reported():
    inst = star_instance()
    violations = is_feasible(np.array([0.25, 0.25]), inst)  # d(0, 2) = 0.5 < 1
    assert [(v.vertices, v.magnitude) for v in violations] == [((0, 2), 0.5)]
    assert str(violations[0]) == "terminal pair (0,2) short of D by 5.000e-01"


def test_all_zero_delta_lists_terminal_pairs():
    # Zero-length edges are edges: d(0, 2) = 0, so the pair falls short by D.
    violations = is_feasible(np.zeros(2), star_instance())
    assert [(v.vertices, v.magnitude) for v in violations] == [((0, 2), 1.0)]


def test_longer_terminal_distances_are_feasible():
    assert is_feasible(np.array([3.0, 0.0]), star_instance()) == []
    assert is_feasible(np.array([1.0, 0.0]), star_instance()) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda lengths, inst: is_feasible(lengths, inst),
        lambda lengths, inst: fractional_cost(lengths, inst),
        lambda lengths, inst: per_edge_contribution(lengths, inst),
        lambda lengths, inst: solvers.ckr_round(inst, lengths, 0),
    ],
    ids=["is_feasible", "fractional_cost", "per_edge_contribution", "ckr_round"],
)
def test_length_vectors_checked_at_the_boundary(call):
    inst = star_instance()
    for bad, message in (
        (np.ones(3), "shape"),
        (np.array([1.0, -0.5]), "edge 1 has length -0.5, expected >= 0"),
        (np.array([np.nan, 1.0]), "edge 0 has length nan, expected >= 0"),
    ):
        with pytest.raises(RelaxationError, match=message):
            call(bad, inst)


LENGTH_VALUES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])


@st.composite
def tiny_instances_with_lengths(draw):
    """Generic multigraph instances (self-loops, parallel edges) with dyadic
    lengths, some zero, so every distance is exact on both routes; D may put
    two terminals at distance 0."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    g = Graph(vertex_count=n, edges=edges, multigraph=True)
    k = draw(st.integers(2, min(n, 4)))
    terminals = sorted(draw(st.permutations(range(n)))[:k])
    clique = [
        (i, j, float(draw(st.integers(0, 6)))) for i in range(k) for j in range(i + 1, k)
    ]
    metric = floyd_warshall(k, clique)
    weights = np.ones(g.edge_count)
    lengths = np.array(draw(st.lists(LENGTH_VALUES, min_size=g.edge_count, max_size=g.edge_count)))
    return build_generic_instance(g, weights, terminals, metric), lengths


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tiny_instances_with_lengths())
def test_feasibility_is_exact_against_floyd_warshall(case):
    inst, lengths = case
    fw = floyd_warshall(
        inst.vertex_count,
        [(u, v, float(lengths[e])) for e, (u, v) in enumerate(inst.graph.edges)],
    )
    rtol = relaxation.FEAS_RTOL
    want = set()
    for i in range(inst.k):
        for j in range(i + 1, inst.k):
            ti, tj = int(inst.terminals[i]), int(inst.terminals[j])
            if fw[ti, tj] < inst.metric.pair_values(i, j) * (1 - rtol):
                want.add((ti, tj))
    got = [v.vertices for v in is_feasible(lengths, inst)]
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("rows", [graphs.ROW_BLOCK, 7])
def test_halved_extension_edge_is_caught_at_n16(monkeypatch, rows):
    # k = 256 terminals: one block decoded at once, or 37 chunks with a short last one.
    monkeypatch.setattr(relaxation, "DECODE_ROWS", rows)
    inst = default_gap_instance(16, 4, 0).instance
    lengths = inst.origin.edge_lengths.copy()
    u, v = inst.graph.edges[0]
    assert inst.term_index[u] < 0 and inst.term_index[v] < 0  # an extension edge
    lengths[0] /= 2
    violations = is_feasible(lengths, inst)
    assert violations
    pairs = {v.vertices for v in violations}
    assert (int(inst.terminals[u]), int(inst.terminals[v])) in pairs
    # The oracle's heap Dijkstra from every terminal flags the same pairs.
    want = set()
    for i, ti in enumerate(inst.terminals.tolist()):
        dist = heap_dijkstra_dist(inst.graph, lengths, ti)
        d_row = inst.metric.pair_values(i, np.arange(inst.k))
        for j in range(i + 1, inst.k):
            d_ij = d_row[j]
            if d_ij - dist[inst.terminals[j]] > relaxation.FEAS_RTOL * d_ij:
                want.add((ti, int(inst.terminals[j])))
    assert pairs == want


def test_feasibility_searches_one_adjacency_for_every_chunk(monkeypatch):
    # k = 16 terminals in six chunks of at most 3 rows.  Four lengths take
    # Dijkstra, whose adjacency is the one built per search.
    inst = default_gap_instance(4, 3, 0).instance
    lengths = inst.origin.edge_lengths.copy()
    lengths[:4] /= 3
    assert np.unique(lengths).size > graphs.LEVEL_SEARCH_LENGTHS
    want = [(v.vertices, v.magnitude) for v in is_feasible(lengths, inst)]
    assert want
    monkeypatch.setattr(relaxation, "DECODE_ROWS", 3)
    builds = []
    make_csr = graphs._csr
    monkeypatch.setattr(graphs, "_csr", lambda g, *args: builds.append(g.vertex_count) or make_csr(g, *args))
    assert [(v.vertices, v.magnitude) for v in is_feasible(lengths, inst)] == want
    assert builds.count(inst.vertex_count) == 1  # D_X's stream takes the level search, with no CSR


def _feasibility_lengths(inst, kind: str) -> np.ndarray:
    """The canonical lengths; or a few extension edges shortened, to a
    fourth length (the Dijkstra engine) or to the fiber length (three
    lengths, the level search), which both leave violations."""
    lengths = inst.origin.edge_lengths.copy()
    fiber = lengths[0]  # the flattening lists the fiber edges first
    if kind == "dijkstra":
        lengths[:8] /= 3
    elif kind == "level":
        base = np.flatnonzero(lengths[: -inst.k] > fiber)
        lengths[base[:: max(1, base.size // 8)]] = fiber
    return lengths


@pytest.mark.parametrize("built", [False, True], ids=["streamed", "cached"])
@pytest.mark.parametrize("kind", ["canonical", "dijkstra", "level"])
@pytest.mark.parametrize("n, d", [(4, 3), (8, 4), (16, 4), (24, 4)])
def test_streamed_feasibility_equals_the_dense_check_bit_for_bit(n, d, kind, built):
    # k = 576 at n = 24: three row blocks, the last one partial.
    inst = default_gap_instance(n, d, 0).instance
    lengths = _feasibility_lengths(inst, kind)
    if built:
        extension.extension_metric(inst.origin.extension)
    got = is_feasible(lengths, inst)
    assert (inst.origin.dx is None) is not built
    want = reference_is_feasible(lengths, inst)
    assert (kind == "canonical") is (want == [])
    assert [(v.vertices, v.magnitude.hex()) for v in got] == [(v.vertices, v.magnitude.hex()) for v in want]


def test_streamed_feasibility_equals_the_dense_check_on_a_generic_instance():
    rng = np.random.default_rng(22)
    violated = 0
    for _ in range(20):
        inst = random_generic_instance(rng)
        lengths = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=inst.graph.edge_count)
        got = [(v.vertices, v.magnitude.hex()) for v in is_feasible(lengths, inst)]
        assert got == [(v.vertices, v.magnitude.hex()) for v in reference_is_feasible(lengths, inst)]
        violated += bool(got)
    assert 0 < violated < 20


# -- costs ------------------------------------------------------------------------


def test_fractional_cost_zero_delta():
    inst = star_instance()
    assert fractional_cost(np.zeros(2), inst) == 0.0


def test_induced_semimetric_examples():
    inst = star_instance()
    f = np.array([0, 0, 2])  # middle vertex joins terminal 0
    ind = induced_semimetric(f, inst)
    assert ind.tolist() == [0.0, 1.0]  # D(t0, t0) on edge (0, 1), D(t0, t2) on (1, 2)
    assert fractional_cost(ind, inst) == solvers.integral_cost(f, inst)
    for bad in (np.array([0, 1, 2]), np.array([0, 3, 2]), np.array([0, 2])):
        with pytest.raises(RelaxationError, match="to a terminal"):
            induced_semimetric(bad, inst)


def test_induced_semimetric_never_densifies():
    # 5000 vertices were refused as a dense 5000 x 5000 matrix; the
    # pull-back is one length per edge.
    n = 5000
    g = Graph(vertex_count=n, edges=[(v, v + 1) for v in range(n - 1)])
    inst = build_generic_instance(g, np.ones(n - 1), np.array([0, n - 1]), 3.0 * (1 - np.eye(2)))
    f = np.zeros(n, dtype=np.int64)
    f[n // 2 :] = n - 1
    lengths = induced_semimetric(f, inst)
    assert lengths.shape == (n - 1,) and lengths.sum() == 3.0
    assert is_feasible(lengths, inst) == []


def test_induced_equals_integral_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        inst = random_generic_instance(rng)
        f = random_labeling(rng, inst)
        ind = induced_semimetric(f, inst)
        a = fractional_cost(ind, inst)
        b = solvers.integral_cost(f, inst)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
        assert is_feasible(ind, inst) == []


# -- the LP optimum --------------------------------------------------------------


def test_star_lp_optimum_is_one():
    # Hand LP solution: d(v,t0) + d(v,t2) >= d(t0,t2) = 1 is forced.
    inst = star_instance()
    assert abs(lp_optimum(inst) - 1.0) <= 1e-8


def test_lp_sandwich_property():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = random_generic_instance(rng, max_nonterms=3, max_terms=3)
        opt = lp_optimum(inst)
        for _ in range(5):
            f = random_labeling(rng, inst)
            cost = fractional_cost(induced_semimetric(f, inst), inst)
            assert opt <= cost + 1e-7 * max(1.0, abs(cost))


def test_lp_sandwich_on_gap_instance():
    from zeroext.extension import sample_extension
    from zeroext.graphs import uniform_lengths

    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c3, uniform_lengths(c3, 1.0), seed=6)
    inst = instance.build_gap_instance(x, big_l=1.0)
    opt = lp_optimum(inst)
    _, canonical = canonical_fractional(inst)
    assert opt <= canonical + 1e-7 * canonical
    f = solvers.nearest_terminal(inst)
    assert opt <= solvers.integral_cost(f, inst) + 1e-7


