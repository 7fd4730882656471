from __future__ import annotations

import numpy as np

from oracles import Gf2Matrix, incidence_matrix, kernel_dim, rank
from zeroext import gf2
from zeroext.gf2 import betti1, cycle_basis
from zeroext.graphs import Graph


def cycle_graph(n):
    return Graph(vertex_count=n, edges=[(i, (i + 1) % n) for i in range(n)])


def test_incidence_single_edge():
    g = Graph(vertex_count=2, edges=[(0, 1)])
    m = incidence_matrix(g)
    assert m.bits.tolist() == [[1], [1]]


def test_incidence_triangle_columns():
    m = incidence_matrix(cycle_graph(3))
    assert np.all(m.bits.sum(axis=0) == 2)


def test_incidence_kills_cycle_indicator():
    g = Graph(vertex_count=5, edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    m = incidence_matrix(g)
    indicator = np.zeros(g.edge_count, dtype=np.uint8)
    for eid in (0, 1, 2):  # the 0-1-2 triangle
        indicator[eid] = 1
    assert np.all(m.apply(indicator) == 0)


def test_kernel_dim_basics():
    assert kernel_dim(Gf2Matrix.from_dense(np.eye(3))) == 0
    assert kernel_dim(Gf2Matrix.from_dense(np.zeros((3, 3)))) == 3


def test_k4_incidence_kernel():
    k4 = Graph(vertex_count=4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    # Euler cross-check: 6 - 4 + 1.
    assert kernel_dim(incidence_matrix(k4)) == 3
    assert betti1(k4) == 3


def test_betti_examples():
    tree = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (1, 3)])
    assert betti1(tree) == 0
    assert betti1(cycle_graph(7)) == 1
    two_triangles = Graph(
        vertex_count=6,
        edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
    )
    assert betti1(two_triangles) == 2  # 6 - 6 + 2


def test_cycle_basis_examples():
    tree = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (1, 3)])
    assert cycle_basis(tree) == []
    ring = cycle_graph(6)
    basis = cycle_basis(ring)
    assert len(basis) == 1
    assert basis[0].sum() == 6
    k4 = Graph(vertex_count=4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    basis = cycle_basis(k4)
    assert len(basis) == 3
    stacked = Gf2Matrix.from_dense(np.stack(basis))
    assert rank(stacked) == 3


def _random_graph(rng, multi: bool):
    n = int(rng.integers(2, 51))
    m = int(rng.integers(0, 60))
    edges = []
    for _ in range(m):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if not multi and (u == v or (min(u, v), max(u, v)) in edges):
            continue
        edges.append((min(u, v), max(u, v)))
    return Graph(vertex_count=n, edges=edges, multigraph=multi)


def _is_simple_cycle(g: Graph, vec) -> bool:
    eids = np.flatnonzero(vec)
    deg: dict[int, int] = {}
    for eid in eids:
        u, v = g.edges[eid]
        if u == v:
            return len(eids) == 1  # self-loop alone is a 1-cycle
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if not deg:
        return False
    if any(d != 2 for d in deg.values()):
        return False
    # Connectivity of the support.
    sub = Graph(
        vertex_count=g.vertex_count,
        edges=[g.edges[e] for e in eids],
        multigraph=True,
    )
    comps = [c for c in sub.connected_components() if len(c) > 1 or c[0] in deg]
    touched = [c for c in comps if any(v in deg for v in c)]
    return len(touched) == 1


def test_gf2_invariants_random_corpus():
    rng = np.random.default_rng(42)
    for i in range(60):
        g = _random_graph(rng, multi=(i % 2 == 0))
        inc = incidence_matrix(g)
        b = betti1(g)
        assert b == kernel_dim(inc)
        basis = cycle_basis(g)
        assert len(basis) == b
        for vec in basis:
            assert np.all(inc.apply(vec) == 0)
            assert _is_simple_cycle(g, vec)
        if basis:
            assert rank(Gf2Matrix.from_dense(np.stack(basis))) == b


def test_self_loop_conventions():
    g = Graph(vertex_count=2, edges=[(0, 0), (0, 1)], multigraph=True)
    inc = incidence_matrix(g)
    assert inc.bits[:, 0].tolist() == [0, 0]  # loop column vanishes
    assert betti1(g) == 1
    basis = cycle_basis(g)
    assert len(basis) == 1
    assert np.flatnonzero(basis[0]).tolist() == [0]


def test_gf2_matrix_apply_and_rank():
    m = Gf2Matrix.from_dense([[1, 1, 0], [0, 1, 1]])
    assert rank(m) == 2
    assert m.apply([1, 1, 1]).tolist() == [0, 0]
