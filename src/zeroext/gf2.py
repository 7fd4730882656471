"""The GF(2) cycle space of a graph: first Betti number and cycle bases.

Edge sets are uint8 parity vectors indexed by a host graph's edge ids.
Everything here is a pure function of immutable inputs.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .graphs import Graph

# An EdgeSet is a uint8 vector of length |E| with entries in {0, 1}.
EdgeSet = np.ndarray


def betti1(g: Graph) -> int:
    """First GF(2) Betti number |E| - |V| + #components; self-loops count 1 each."""
    return g.edge_count - g.vertex_count + len(g.connected_components())


def cycle_basis(g: Graph) -> list[EdgeSet]:
    """Fundamental cycles of a BFS spanning forest.

    Returns exactly betti1(g) independent parity vectors; every one is a
    simple cycle (tree path plus the closing non-tree edge; a self-loop is a
    1-cycle on its own).
    """
    adj = g.adjacency()
    parent_edge = np.full(g.vertex_count, -1, dtype=np.int64)
    parent_vertex = np.full(g.vertex_count, -1, dtype=np.int64)
    depth = np.full(g.vertex_count, -1, dtype=np.int64)
    tree_edges: set[int] = set()
    for root in range(g.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for w, eid in adj[u]:
                if depth[w] == -1:
                    depth[w] = depth[u] + 1
                    parent_vertex[w] = u
                    parent_edge[w] = eid
                    tree_edges.add(eid)
                    q.append(w)

    basis: list[EdgeSet] = []
    for eid, (u, v) in enumerate(g.edges):
        if eid in tree_edges:
            continue
        vec = np.zeros(g.edge_count, dtype=np.uint8)
        vec[eid] ^= 1
        if u != v:
            # XOR the tree paths from u and v up to their common ancestor.
            a, b = u, v
            while depth[a] > depth[b]:
                vec[parent_edge[a]] ^= 1
                a = parent_vertex[a]
            while depth[b] > depth[a]:
                vec[parent_edge[b]] ^= 1
                b = parent_vertex[b]
            while a != b:
                vec[parent_edge[a]] ^= 1
                vec[parent_edge[b]] ^= 1
                a = parent_vertex[a]
                b = parent_vertex[b]
        basis.append(vec)
    return basis
