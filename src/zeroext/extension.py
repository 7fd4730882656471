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
"pcg64-fisheryates-v2" (v2: base and fiber graphs come from one pairing and
double-edge switchings, see `graphs.random_regular`).

D_X, the shortest-path metric of the flattened extension, is cached on the
extension as level codes (`extension_metric`): per block of 256 rows an
ascending table of the exact distances and one code per pair, one byte
while a block has at most 256 distinct distances and two beyond.  No k x k
float array is built; readers decode the rows they need.  A reader that
takes every row once streams them instead (`extension_blocks`), and one
that needs a few rows searches just those (`extension_rows`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import (
    Graph,
    LevelCodes,
    _fisher_yates,
    shortest_path_blocks,
    shortest_path_rows,
    validate_lengths,
)

RNG_SCHEME = "pcg64-fisheryates-v2"
DENSE_METRIC_CAP = 4096  # largest k whose D_X is built: all k x k pairs (n <= 64)


class ExtensionError(ValueError):
    pass


class EdgeLabel(NamedTuple):
    """Directed label of a flattened-extension edge, as read from its tail.

    kind: 'intra' (fiber step inside a cloud) or 'inter' (matching step).
    value: the fiber edge id (intra) or base edge id (inter).
    direction: +1 when traversed from the smaller endpoint of the stored edge
    to the larger, -1 the other way.  The label names the step for any base
    and fiber graph.
    """

    kind: str
    value: int
    direction: int


@dataclass
class FlatExtension:
    """Flattened view: vertex (g, h) -> g * |V_H| + h."""

    graph: Graph
    lengths: np.ndarray
    edge_kind: np.ndarray    # 0 = intra-cloud, 1 = inter-cloud, per flat edge
    edge_origin: np.ndarray  # fiber edge id (intra) or base edge id (inter)
    _length_list: list[float] | None = field(default=None, repr=False, compare=False)

    def length_list(self) -> list[float]:
        """`lengths` as Python floats, built once: the list that every
        shortest-path tree over this flattening shares."""
        if self._length_list is None:
            self._length_list = self.lengths.tolist()
        return self._length_list


@dataclass
class ExtendedGraph:
    base: Graph
    base_lengths: np.ndarray
    fiber: Graph
    fiber_lengths: np.ndarray
    matchings: list[np.ndarray]  # per base edge id; fiber perm, tail = smaller cloud
    seed: int
    _flat: FlatExtension | None = field(default=None, repr=False, compare=False)
    _metric: LevelCodes | None = field(default=None, repr=False, compare=False)

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


def project(x: ExtendedGraph, vertex: int) -> int:
    """Cloud id of a flattened vertex."""
    if not 0 <= vertex < x.vertex_count:
        raise ExtensionError(f"vertex {vertex} out of range")
    return vertex // x.fiber_size


def flatten(x: ExtendedGraph) -> FlatExtension:
    """The flattened graph and its per-edge lengths, built once and cached.

    Edge order: all intra-cloud edges (cloud-major, fiber edge order), then
    all inter-cloud edges (base-edge-major, fiber vertex order).  Intra edges
    carry the fiber length of their fiber edge, inter edges the base length
    of their base edge.
    """
    return _flat(x)


def _flat(x: ExtendedGraph) -> FlatExtension:
    if x._flat is not None:
        return x._flat
    nG, nH = x.cloud_count, x.fiber_size
    nF, nB = x.fiber.edge_count, x.base.edge_count
    clouds = np.arange(nG, dtype=np.int64)[:, None, None] * nH
    intra = (clouds + x.fiber.endpoints()).reshape(-1, 2)
    perms = np.asarray(x.matchings, dtype=np.int64).reshape(nB, nH)
    tails, heads = (x.base.endpoints() * nH).T
    inter = np.stack([tails[:, None] + np.arange(nH), heads[:, None] + perms], axis=2)
    flat = FlatExtension(
        graph=Graph(vertex_count=nG * nH, edges=np.concatenate([intra, inter.reshape(-1, 2)])),
        lengths=np.concatenate([
            np.tile(np.asarray(x.fiber_lengths, dtype=float), nG),
            np.repeat(np.asarray(x.base_lengths, dtype=float), nH),
        ]),
        edge_kind=np.repeat(np.array([0, 1], dtype=np.int8), [nG * nF, nB * nH]),
        edge_origin=np.concatenate([
            np.tile(np.arange(nF, dtype=np.int64), nG),
            np.repeat(np.arange(nB, dtype=np.int64), nH),
        ]),
    )
    x._flat = flat
    return flat


def extension_metric(x: ExtendedGraph) -> LevelCodes:
    """D_X: the all-pairs shortest-path metric of the flattened extension,
    as level codes (`graphs.LevelCodes`): per block of 256 rows, an
    ascending table of the exact distances and one code per pair, one byte
    while a block has at most 256 distinct distances and two beyond.

    Computed once per extension, on first call, from the row blocks of
    `extension_blocks`, and cached on it, read-only; this is the one builder
    of all k x k pairs, for the readers that return to rows at random, and
    it builds no k x k float array.  A reader that takes every row once
    takes `extension_blocks`, and readers of a few rows take
    `extension_rows`.  The gap construction's two lengths take the level
    search, whose level indices are the codes (see
    `graphs.LEVEL_SEARCH_LENGTHS`); a hand-edited file's other lengths may
    take Dijkstra, whose floats are coded per block, with the same values.
    Over `DENSE_METRIC_CAP` points it refuses before any search.
    """
    if x._metric is None:
        k = x.vertex_count
        check_dense_ceiling(k, f"extension has k={k} points")
        x._metric = LevelCodes.from_blocks((k, k), extension_blocks(x))
    return x._metric


def check_dense_ceiling(k: int, what: str) -> None:
    """Raise ExtensionError, opening with `what`, if a D_X over k points would
    pass DENSE_METRIC_CAP; `gap` and `solve` also check each n before sampling,
    and `solve --instance` the file's k once it is loaded."""
    if k > DENSE_METRIC_CAP:
        raise ExtensionError(f"{what}, above the dense metric ceiling k <= {DENSE_METRIC_CAP}")


def extension_blocks(x: ExtendedGraph):
    """D_X in row blocks, for a reader that takes every row once: per block
    of 256 rows, the (codes, table) pair of `LevelCodes`.  These are the
    cached codes' blocks once `extension_metric` has built them; otherwise
    the search over the cached flattening runs one block at a time as the
    reader takes it, and nothing is cached (see `graphs.shortest_path_blocks`).
    """
    if x._metric is not None:
        return x._metric.blocks()
    flat = _flat(x)
    return shortest_path_blocks(flat.graph, flat.lengths, np.arange(flat.graph.vertex_count))


def extension_rows(x: ExtendedGraph, sources) -> dict[int, np.ndarray]:
    """The D_X row of each distinct id in `sources`, as {source: row}, from
    one search from those sources over the cached flattening; no k x k pairs
    are searched, and no search runs when `sources` is empty.  Each row
    equals extension_metric(x).rows([source])[0] byte for byte.  Rows are not
    cached; a caller asks once for the rows it reads."""
    distinct = sorted(set(sources))
    if not distinct:
        return {}
    flat = _flat(x)
    return dict(zip(distinct, shortest_path_rows(flat.graph, flat.lengths, distinct)))


def edge_label(x: ExtendedGraph, flat_edge: int, tail: int) -> EdgeLabel:
    """Directed label of a flat edge as traversed from `tail`: its fiber or base
    edge id and the direction of the step along that edge."""
    flat = _flat(x)
    u, v = flat.graph.edges[flat_edge]
    if tail not in (u, v):
        raise ExtensionError(f"vertex {tail} is not an endpoint of flat edge {flat_edge}")
    kind = "intra" if flat.edge_kind[flat_edge] == 0 else "inter"
    return EdgeLabel(kind, int(flat.edge_origin[flat_edge]), 1 if tail == u else -1)


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
