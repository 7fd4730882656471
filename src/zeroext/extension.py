"""Randomized extension of a base graph by a fiber graph.

Every base vertex is inflated into a copy of the fiber ("cloud"); clouds of
adjacent base vertices are joined by a uniformly random perfect matching, one
independent matching per base edge.  The edgeless-fiber special case is a
random lift / covering graph of the base.

RNG scheme (record this in provenance): numpy PCG64 seeded with the pair
(seed, base_edge_id), one independent substream per base edge, permutations
drawn by an explicit Fisher-Yates whose swap indices come from one
rng.integers call on that substream (the same values as one draw per step).
Samples are therefore stable under changes of edge iteration order.  Tag:
"pcg64-fisheryates-v1".
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Graph, _fisher_yates, shortest_path_metric, validate_lengths

RNG_SCHEME = "pcg64-fisheryates-v1"


class ExtensionError(ValueError):
    pass


class EdgeLabel(NamedTuple):
    """Directed label of a flattened-extension edge, as read from its tail.

    kind: 'intra' (fiber step inside a cloud) or 'inter' (matching step).
    scheme: 'gen' when the relevant graph is a labeled Cayley graph (value is
    the signed generator code), else 'edge' (value is the fiber/base edge id
    and direction is +1 when traversed tail->head of the stored edge).
    """

    kind: str
    scheme: str
    value: int
    direction: int


@dataclass
class FlatExtension:
    """Flattened view: vertex (g, h) -> g * |V_H| + h."""

    graph: Graph
    lengths: np.ndarray
    edge_kind: np.ndarray    # 0 = intra-cloud, 1 = inter-cloud, per flat edge
    edge_origin: np.ndarray  # fiber edge id (intra) or base edge id (inter)
    labels_present: bool


@dataclass
class ExtendedGraph:
    base: Graph
    base_lengths: np.ndarray
    fiber: Graph
    fiber_lengths: np.ndarray
    matchings: list[np.ndarray]  # per base edge id; fiber perm, tail = smaller cloud
    seed: int
    _flat: FlatExtension | None = field(default=None, repr=False, compare=False)
    _metric: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def cloud_count(self) -> int:
        return self.base.vertex_count

    @property
    def fiber_size(self) -> int:
        return self.fiber.vertex_count

    @property
    def vertex_count(self) -> int:
        return self.base.vertex_count * self.fiber.vertex_count


def sample_extension(base: Graph, base_lengths, fiber: Graph, fiber_lengths, seed: int) -> ExtendedGraph:
    """Draw one extension: an independent uniform matching per base edge."""
    base_lengths = validate_lengths(base, base_lengths)
    fiber_lengths = validate_lengths(fiber, fiber_lengths)
    if base.multigraph or fiber.multigraph:
        raise ExtensionError("extensions are defined over simple base/fiber graphs")
    nH = fiber.vertex_count
    if nH == 0:
        raise ExtensionError("fiber graph must have at least one vertex")
    matchings = []
    for eid in range(base.edge_count):
        rng = np.random.default_rng((int(seed), eid))
        matchings.append(_fisher_yates(rng, nH))
    return ExtendedGraph(
        base=base,
        base_lengths=base_lengths,
        fiber=fiber,
        fiber_lengths=fiber_lengths,
        matchings=matchings,
        seed=int(seed),
    )


def vertex_id(x: ExtendedGraph, cloud: int, fiber_vertex: int) -> int:
    return cloud * x.fiber_size + fiber_vertex


def project(x: ExtendedGraph, vertex: int) -> int:
    """Cloud id of a flattened vertex."""
    if not 0 <= vertex < x.vertex_count:
        raise ExtensionError(f"vertex {vertex} out of range")
    return vertex // x.fiber_size


def fiber_of(x: ExtendedGraph, vertex: int) -> int:
    if not 0 <= vertex < x.vertex_count:
        raise ExtensionError(f"vertex {vertex} out of range")
    return vertex % x.fiber_size


def as_graph(x: ExtendedGraph) -> tuple[Graph, np.ndarray]:
    """Flattened Graph and per-edge lengths.

    Edge order: all intra-cloud edges (cloud-major, fiber edge order), then
    all inter-cloud edges (base-edge-major, fiber vertex order).  Intra edges
    carry the fiber length of their fiber edge, inter edges the base length
    of their base edge.  Generator labels are attached when both base and
    fiber are labeled (fiber codes as-is, base codes shifted past them);
    otherwise labels are omitted and the flattening is flagged.
    """
    return (_flat(x).graph, _flat(x).lengths)


def flatten(x: ExtendedGraph) -> FlatExtension:
    return _flat(x)


def _flat(x: ExtendedGraph) -> FlatExtension:
    if x._flat is not None:
        return x._flat
    nG, nH = x.cloud_count, x.fiber_size
    labeled = x.base.labels is not None and x.fiber.labels is not None
    offset = 0
    if labeled:
        offset = max(abs(c) for c in x.fiber.generator_codes) if x.fiber.generator_codes else 0

    edges: list[tuple[int, int]] = []
    lengths: list[float] = []
    kinds: list[int] = []
    origins: list[int] = []
    labels: dict[tuple[int, int], int] = {} if labeled else None

    for g in range(nG):
        for f_eid, (h1, h2) in enumerate(x.fiber.edges):
            u, v = vertex_id(x, g, h1), vertex_id(x, g, h2)
            eid = len(edges)
            edges.append((u, v))
            lengths.append(float(x.fiber_lengths[f_eid]))
            kinds.append(0)
            origins.append(f_eid)
            if labeled:
                labels[(u, eid)] = x.fiber.labels[(h1, f_eid)]
                labels[(v, eid)] = x.fiber.labels[(h2, f_eid)]
    for b_eid, (g1, g2) in enumerate(x.base.edges):
        perm = x.matchings[b_eid]
        for h in range(nH):
            u, v = vertex_id(x, g1, h), vertex_id(x, g2, int(perm[h]))
            eid = len(edges)
            edges.append((u, v))
            lengths.append(float(x.base_lengths[b_eid]))
            kinds.append(1)
            origins.append(b_eid)
            if labeled:
                c1 = x.base.labels[(g1, b_eid)]
                c2 = x.base.labels[(g2, b_eid)]
                labels[(u, eid)] = _shift(c1, offset)
                labels[(v, eid)] = _shift(c2, offset)

    graph = Graph(vertex_count=nG * nH, edges=edges, labels=labels)
    flat = FlatExtension(
        graph=graph,
        lengths=np.array(lengths),
        edge_kind=np.array(kinds, dtype=np.int8),
        edge_origin=np.array(origins, dtype=np.int64),
        labels_present=labeled,
    )
    x._flat = flat
    return flat


def extension_metric(x: ExtendedGraph) -> np.ndarray:
    """D_X: the dense all-pairs shortest-path metric of the flattened extension.

    Computed once per extension and cached on it; every distance and
    shortest-path tree over the extension is read from this one array.
    """
    if x._metric is None:
        flat = _flat(x)
        x._metric = shortest_path_metric(flat.graph, flat.lengths)
    return x._metric


def _shift(code: int, offset: int) -> int:
    return code + offset if code > 0 else code - offset


def edge_label(x: ExtendedGraph, flat_edge: int, tail: int) -> EdgeLabel:
    """Structured directed label of a flat edge as traversed from `tail`.

    Uses Cayley generator codes when the relevant component graph has them,
    edge id + direction otherwise.  Either form determines the step fully.
    """
    flat = _flat(x)
    u, v = flat.graph.edges[flat_edge]
    if tail not in (u, v):
        raise ExtensionError(f"vertex {tail} is not an endpoint of flat edge {flat_edge}")
    origin = int(flat.edge_origin[flat_edge])
    if flat.edge_kind[flat_edge] == 0:
        if x.fiber.labels is not None:
            h_tail = fiber_of(x, tail)
            return EdgeLabel("intra", "gen", x.fiber.labels[(h_tail, origin)], 0)
        return EdgeLabel("intra", "edge", origin, 1 if tail == u else -1)
    if x.base.labels is not None:
        g_tail = project(x, tail)
        return EdgeLabel("inter", "gen", x.base.labels[(g_tail, origin)], 0)
    return EdgeLabel("inter", "edge", origin, 1 if tail == u else -1)


def traverse_inter(x: ExtendedGraph, base_edge: int, from_vertex: int) -> int:
    """Follow the matching of a base edge from one cloud-side vertex."""
    g1, g2 = x.base.edges[base_edge]
    g = project(x, from_vertex)
    h = fiber_of(x, from_vertex)
    perm = x.matchings[base_edge]
    if g == g1:
        return vertex_id(x, g2, int(perm[h]))
    if g == g2:
        mate = int(np.argwhere(perm == h)[0, 0])
        return vertex_id(x, g1, mate)
    raise ExtensionError(
        f"vertex {from_vertex} lies in cloud {g}, not on base edge {base_edge}={x.base.edges[base_edge]}"
    )


def project_path(x: ExtendedGraph, path: Sequence[int]) -> tuple[list[int], list[int]]:
    """Project a flat walk to the base: (base vertex walk, base edge id list).

    Intra-cloud steps collapse onto a single base vertex; inter-cloud steps
    map to their base edges.
    """
    if len(path) == 0:
        raise ExtensionError("cannot project an empty walk")
    flat = _flat(x)
    lookup = flat.graph.edge_lookup()
    base_vertices = [project(x, path[0])]
    base_edges: list[int] = []
    for a, b in zip(path, path[1:]):
        eid = lookup.get((min(a, b), max(a, b)))
        if eid is None:
            raise ExtensionError(f"walk step ({a}, {b}) is not an edge of the extension")
        if flat.edge_kind[eid] == 1:
            base_edges.append(int(flat.edge_origin[eid]))
            base_vertices.append(project(x, b))
    return base_vertices, base_edges
