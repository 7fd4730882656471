"""Undirected (multi)graphs with dense edge ids, deterministic generators, and metrics.

Graph values are treated as immutable after construction and are safe to share
across threads.  Generators are pure functions of their arguments, so the same
(parameters, seed) always rebuild an identical object, byte for byte when
serialized.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


# Relative tolerance used whenever two float distances are compared for equality.
DIST_RTOL = 1e-9


class GraphError(ValueError):
    pass


@dataclass
class Graph:
    """Undirected graph with dense edge ids 0..|E|-1.

    `edges` may be a list of (u, v) pairs or an (E, 2) integer array; it is
    stored as a list in which edges[i] is the endpoint pair of edge i,
    normalized u <= v.  Self-loops and parallel edges are rejected unless
    multigraph=True.  The first offending edge is reported, an out-of-range
    endpoint before a self-loop before a parallel pair.
    """

    vertex_count: int
    edges: list[tuple[int, int]]
    multigraph: bool = False
    _adj: list | None = field(default=None, repr=False, compare=False)
    _lookup: dict | None = field(default=None, repr=False, compare=False)
    _ends: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ends = np.array(self.edges)
        if ends.shape == (0,):
            ends = np.zeros((0, 2), dtype=np.int64)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs of integer vertex ids")
        ends = np.sort(ends.astype(np.int64), axis=1)
        u, v = ends[:, 0], ends[:, 1]
        out = (u < 0) | (v >= self.vertex_count)
        loop = (u == v) & (not self.multigraph)
        parallel = np.zeros_like(out)
        if not self.multigraph:  # every repeat of a pair after its first
            parallel[:] = True
            parallel[np.unique(u * self.vertex_count + v, return_index=True)[1]] = False
        bad = out | loop | parallel
        if bad.any():
            eid = int(np.argmax(bad))
            if out[eid]:
                raise GraphError(f"edge {eid} endpoint out of range: ({u[eid]}, {v[eid]})")
            if loop[eid]:
                raise GraphError(f"self-loop at vertex {u[eid]} requires multigraph mode")
            raise GraphError(f"parallel edge ({u[eid]}, {v[eid]}) requires multigraph mode")
        ends.setflags(write=False)
        self._ends = ends
        self.edges = list(zip(u.tolist(), v.tolist()))

    # -- basic accessors ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge_id); self-loops appear twice."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
            for eid, (u, v) in enumerate(self.edges):
                adj[u].append((v, eid))
                if u != v:
                    adj[v].append((u, eid))
                else:
                    adj[u].append((v, eid))
            self._adj = adj
        return self._adj

    def degrees(self) -> np.ndarray:
        """Edge ends at each vertex; a self-loop counts twice."""
        return np.bincount(self._ends.ravel(), minlength=self.vertex_count)

    def endpoints(self) -> np.ndarray:
        """The edges as a read-only (|E|, 2) int64 array, row i = edges[i]."""
        return self._ends

    def edge_lookup(self) -> dict[tuple[int, int], int]:
        """Map normalized endpoint pair -> edge id.  Only valid for simple graphs."""
        if self.multigraph:
            raise GraphError("edge_lookup is ambiguous on multigraphs")
        if self._lookup is None:
            self._lookup = {pair: eid for eid, pair in enumerate(self.edges)}
        return self._lookup

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.vertex_count
        comps = []
        adj = self.adjacency()
        for root in range(self.vertex_count):
            if seen[root]:
                continue
            stack, comp = [root], []
            seen[root] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for w, _ in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.vertex_count == 0 or len(self.connected_components()) == 1


def uniform_lengths(g: Graph, value: float) -> np.ndarray:
    if value <= 0:
        raise GraphError("edge lengths must be positive")
    return np.full(g.edge_count, float(value))


def validate_lengths(g: Graph, lengths: np.ndarray, *, allow_zero: bool = False) -> np.ndarray:
    """One float length per edge, each > 0 (>= 0 with allow_zero); NaN never passes."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (g.edge_count,):
        raise GraphError(
            f"length vector has shape {lengths.shape}, expected ({g.edge_count},)"
        )
    bad = ~(lengths >= 0) if allow_zero else ~(lengths > 0)
    if np.any(bad):
        eid = int(np.flatnonzero(bad)[0])
        bound = ">= 0" if allow_zero else "> 0"
        raise GraphError(f"edge {eid} has length {lengths[eid]}, expected {bound}")
    return lengths


# -- generators ---------------------------------------------------------


def build_cayley(moduli, generators) -> Graph:
    """Cayley graph of the product of cyclic groups Z_m1 x ... x Z_mr over the
    given generators (int tuples, reduced mod the moduli).

    The generator set is symmetrized (inverses added).  Vertex ids number the
    elements in lexicographic order.  Vertex x adds its edges to x + s in the
    order of the inverse pairs {s, -s} by their lex-smaller member, s before
    -s, skipping an edge already added.
    """
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 1 for m in moduli):
        raise GraphError("group moduli must be positive integers")

    def add(a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    def neg(a) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(a, moduli))

    gens: list[tuple[int, ...]] = []
    for raw in generators:
        if len(raw) != len(moduli):
            raise GraphError(f"element {raw!r} has wrong arity for moduli {moduli}")
        el = tuple(int(a) % m for a, m in zip(raw, moduli))
        if not any(el):
            raise GraphError("generator equal to the identity is not allowed")
        if el in gens:
            raise GraphError(f"duplicate generator {raw!r} after reduction mod {moduli}")
        gens.append(el)
    symmetric = sorted(set(gens) | {neg(el) for el in gens})
    steps = list(dict.fromkeys(s for el in symmetric for s in (el, neg(el))))

    index = {el: i for i, el in enumerate(itertools.product(*(range(m) for m in moduli)))}
    edges: dict[tuple[int, int], None] = {}
    for el, x in index.items():
        for s in steps:
            y = index[add(el, s)]
            edges.setdefault((min(x, y), max(x, y)))
    return Graph(vertex_count=len(index), edges=list(edges))


def random_regular(m: int, d: int, seed: int, *, tries: int = 3000) -> Graph:
    """Simple d-regular graph on m vertices via the configuration model.

    Each attempt shuffles the m*d stubs with its own stream seeded by
    (seed, attempt) and pairs consecutive positions.  A pairing is rejected at
    its first loop or repeated pair and the next attempt starts; since attempts
    share no stream, stopping early does not change the accepted graph.
    Deterministic in (m, d, seed).  Raises when the rejection cap is exhausted.
    """
    m, d = int(m), int(d)
    if (m * d) % 2 != 0:
        raise GraphError(f"m*d must be even, got m={m}, d={d}")
    if d >= m:
        raise GraphError(f"need d < m, got m={m}, d={d}")
    stubs = np.repeat(np.arange(m), d).tolist()
    for attempt in range(tries):
        rng = np.random.default_rng((int(seed), attempt))
        pairs = _simple_pairing(rng, stubs)
        if pairs is not None:
            return Graph(vertex_count=m, edges=sorted(pairs))
    raise GraphError(
        f"configuration model failed after {tries} tries for m={m}, d={d}; "
        "try a larger m or smaller d"
    )


def _simple_pairing(rng: np.random.Generator, stubs: list[int]) -> set[tuple[int, int]] | None:
    """Fisher-Yates shuffle of stubs paired as positions (2k, 2k+1).

    Step i fixes position i, so pair k is final after step 2k (pair 0 after
    step 1) and is checked right then.  Returns the pairs as (min, max)
    tuples, or None at the first loop or repeated pair.
    """
    s = list(stubs)
    n = len(s)
    pairs: set[tuple[int, int]] = set()
    for i, j in zip(range(n - 1, 0, -1), _fisher_yates_draws(rng, n)):
        s[i], s[j] = s[j], s[i]
        if i % 2 == 1 and i > 1:
            continue
        k = i - i % 2
        u, v = s[k], s[k + 1]
        if u > v:
            u, v = v, u
        if u == v or (u, v) in pairs:
            return None
        pairs.add((u, v))
    return pairs


def _fisher_yates_draws(rng: np.random.Generator, n: int) -> list[int]:
    """Swap targets for steps i = n-1, ..., 1, drawn in one call.

    Gives the same values, and leaves rng in the same state, as one
    rng.integers(0, i + 1) call per step.
    """
    return rng.integers(0, np.arange(n, 1, -1)).tolist()


def _fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    p = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), _fisher_yates_draws(rng, n)):
        p[i], p[j] = p[j], p[i]
    return np.array(p, dtype=np.int_)


# -- girth --------------------------------------------------------------


def girth(g: Graph):
    """Edge count of the shortest cycle; math.inf for forests.

    Self-loops count as 1-cycles and parallel pairs as 2-cycles.  Otherwise a
    BFS from every vertex finds the shortest cycle exactly.  A cycle closed
    from depth t has at least 2t + 1 edges, so a BFS stops at the first depth
    where that reaches the best cycle found so far.
    """
    best = math.inf
    counts: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        if u == v:
            return 1
        counts[(u, v)] = counts.get((u, v), 0) + 1
    if any(c > 1 for c in counts.values()):
        best = 2
    adj = g.adjacency()
    for root in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        via = [-1] * g.vertex_count
        dist[root] = 0
        q = [root]
        depth = 0
        while q and 2 * depth + 1 < best:
            depth += 1
            nxt = []
            for u in q:
                for w, eid in adj[u]:
                    if eid == via[u]:
                        continue
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        via[w] = eid
                        nxt.append(w)
                    else:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            q = nxt
    return best


# -- shortest paths ------------------------------------------------------


# The one engine rule: a search takes the level search when the edge lengths,
# self-loops excluded, take at most this many distinct values, and scipy's
# Dijkstra otherwise.  Both give the same floats; the level search's cost grows
# with the number of distinct distances, so it is the faster one over a few
# lengths, such as the gap construction's three (l_G, l_H and L).
LEVEL_SEARCH_LENGTHS = 3


def shortest_path_metric(g: Graph, lengths: np.ndarray) -> np.ndarray:
    """Exact all-pairs shortest-path distances as a dense (V, V) float matrix."""
    return shortest_path_search(g, lengths)(np.arange(g.vertex_count))


def shortest_path_rows(g: Graph, lengths: np.ndarray, sources) -> np.ndarray:
    """Exact distances from each of `sources` as a dense (len(sources), V)
    float matrix; disconnected pairs get math.inf.  Lengths may be zero.

    Searched by the engine that LEVEL_SEARCH_LENGTHS picks; agreement of both
    engines with a Floyd-Warshall oracle, and with each other byte for byte,
    is pinned in the test suite.
    """
    return shortest_path_search(g, lengths)(sources)


def shortest_path_search(g: Graph, lengths: np.ndarray, targets=None):
    """`search(sources)`: the (len(sources), len(targets)) distances from each
    source to each target (all vertices when targets is None), as
    `shortest_path_rows(g, lengths, sources)[:, targets]`.

    The engine and its neighbour tables or adjacency are built once, for
    every call: the search for callers that take their sources in chunks.
    Sources may be unsorted and repeated.
    """
    lengths = validate_lengths(g, lengths, allow_zero=True)
    n = g.vertex_count
    targets = None if targets is None else _vertex_ids(n, targets, "target")
    ends = g.endpoints()
    keep = ends[:, 0] != ends[:, 1]  # self-loops never shorten a path
    values, cls = np.unique(lengths[keep], return_inverse=True)
    if values.size <= LEVEL_SEARCH_LENGTHS:
        classes = [(float(value), ends[keep][cls == c]) for c, value in enumerate(values)]
        engine = _level_search(n, classes, targets)
    else:
        engine = _dijkstra_search(g, lengths, targets)
    return lambda sources: engine(_vertex_ids(n, sources, "source"))


def _vertex_ids(n: int, ids, role: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        bad = int(ids[(ids < 0) | (ids >= n)][0])
        raise GraphError(f"{role} {bad} outside [0, {n})")
    return ids


def _dijkstra_search(g: Graph, lengths: np.ndarray, targets):
    """scipy's Dijkstra over the CSR adjacency, read at the targets."""
    from scipy.sparse.csgraph import dijkstra

    if g.vertex_count == 0:
        return lambda sources: np.zeros((sources.size, 0))
    csr = _csr(g, lengths)
    cols = slice(None) if targets is None else targets
    return lambda sources: dijkstra(csr, directed=True, indices=sources)[:, cols]


def _csr(g: Graph, lengths: np.ndarray):
    """Symmetric CSR adjacency: each edge in both orientations, searched as
    a directed graph (scipy's undirected mode symmetrizes on every call).

    Self-loops never shorten a path and are dropped; parallel edges collapse
    to the shortest (a sparse sum would add their lengths).  A zero length
    stays an explicit entry, which scipy's Dijkstra treats as an edge; for
    that reason the matrix is not built as `m + m.T`, which drops explicit
    zeros.
    """
    from scipy.sparse import csr_matrix

    ends = g.endpoints()
    keep = ends[:, 0] != ends[:, 1]
    us = np.concatenate((ends[keep, 0], ends[keep, 1]))
    vs = np.concatenate((ends[keep, 1], ends[keep, 0]))
    ls = np.concatenate((lengths[keep], lengths[keep]))
    order = np.lexsort((ls, vs, us))  # by (u, v), shortest first
    us, vs, ls = us[order], vs[order], ls[order]
    first = np.ones(us.size, dtype=bool)
    first[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    n = g.vertex_count
    return csr_matrix((ls[first], (us[first], vs[first])), shape=(n, n))


# Bitsets over sources are little-endian words, so that a byte view unpacks
# (bitorder="little") to sources in ascending order.
_WORD = np.dtype("<u8")
# Sources per search, in words of 64: a block's bitsets stay in cache, and
# the memory held besides the result stays a few MiB.
_BLOCK_WORDS = 4


def _level_search(n: int, classes: list[tuple[float, np.ndarray]], targets):
    """Dijkstra's distances, byte for byte, from a search over many sources
    at once; `classes` holds each distinct length with its edges' endpoints.

    Dijkstra's float result is the least fixed point
    D[s, v] = min_u fl(D[s, u] + l(u, v)) with D[s, s] = 0.  Float addition is
    monotone, so settling candidate values in ascending order over all sources
    together gives the same floats.  Each vertex holds a bitset over sources;
    the pairs first reached at value F spread, one length class at a time, to
    the neighbours, queued at fl(F + l).  A pair's value is stored as the index
    of its level in bit-planes, whose target rows are decoded after the search
    into rows of a C-ordered matrix.  Sources are searched in blocks of
    64 * _BLOCK_WORDS.
    """
    steps = [(length, _neighbour_table(n, ends)) for length, ends in classes]
    rows = slice(0, n) if targets is None else targets

    def search(sources: np.ndarray) -> np.ndarray:
        out = np.empty((sources.size, n if targets is None else targets.size))
        for s0 in range(0, sources.size, 64 * _BLOCK_WORDS):
            block = sources[s0 : s0 + 64 * _BLOCK_WORDS]
            planes, values = _search_levels(n, steps, block)
            _decode_levels([plane[rows] for plane in planes], values, out[s0 : s0 + block.size])
        return out

    return search


def _search_levels(n: int, steps, sources: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Bit-planes of each (vertex, source) pair's level, and the level values.

    Bit j of a bitset row stands for sources[j]; bits past the last source
    are never reached and decode to nothing.  Every bitset has a zero row n,
    which the neighbour tables' padding points at.
    """
    bit = np.arange(sources.size)
    unreached = np.zeros((n + 1, -(-sources.size // 64)), dtype=_WORD)
    unreached[:n] = ~np.zeros(unreached.shape[1], dtype=_WORD)
    start = np.zeros_like(unreached)
    np.bitwise_or.at(start, (sources, bit // 64), np.uint64(1) << (bit % 64).astype(_WORD))
    queue = {0.0: start}
    heap = [0.0]
    values: list[float] = []
    planes: list[np.ndarray] = []
    while heap:
        f = heapq.heappop(heap)
        new = queue.pop(f)
        np.bitwise_and(new, unreached, out=new)
        if not new.any():
            continue
        unreached ^= new
        if not values or values[-1] != f:  # f comes back when fl(f + l) == f
            values.append(f)
        _add_level(planes, new, len(values) - 1)
        for length, table in steps:
            reach = _spread(new, table)
            target = f + length
            if target in queue:
                queue[target] |= reach
            else:
                queue[target] = reach
                heapq.heappush(heap, target)
    if unreached.any():
        values.append(math.inf)
        _add_level(planes, unreached, len(values) - 1)
    return planes, np.array(values)


def _neighbour_table(n: int, ends: np.ndarray) -> np.ndarray:
    """(n, max degree) neighbours of each vertex over the given edges, padded
    with n."""
    heads = np.concatenate((ends[:, 0], ends[:, 1]))
    tails = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    degree = np.bincount(heads, minlength=n)
    table = np.full((n, int(degree.max(initial=0))), n, dtype=np.int64)
    slot = np.arange(heads.size) - np.repeat(np.cumsum(degree) - degree, degree)
    table[heads, slot] = tails
    return table


def _spread(bits: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row v of the result ORs the rows of `bits` at v's neighbours in `table`."""
    out = np.zeros_like(bits)
    gathered = np.empty_like(bits[:-1])
    for column in table.T:
        np.take(bits, column, axis=0, out=gathered)
        out[:-1] |= gathered
    return out


def _add_level(planes: list[np.ndarray], bits: np.ndarray, level: int) -> None:
    """Record `level` for the pairs in `bits`: bit b of it goes to plane b."""
    while level >> len(planes):
        planes.append(np.zeros_like(bits))
    for b, plane in enumerate(planes):
        if level >> b & 1:
            plane |= bits


def _decode_levels(planes: list[np.ndarray], values: np.ndarray, out: np.ndarray) -> None:
    """out[j, t] = values[level of bit j in row t of the planes]."""
    sources, n = out.shape
    index = np.zeros((n, sources), dtype=np.min_scalar_type(values.size - 1))
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")
        index |= bits[:, :sources].astype(index.dtype) << b
    np.take(values, index.T, out=out, mode="clip")


@dataclass
class ShortestPathTree:
    """Single-source distances with the canonical predecessor structure.

    Among equal-length shortest paths (relative tolerance DIST_RTOL) the
    predecessor with the smallest vertex id wins, then the smallest edge id;
    this makes path reconstruction deterministic.  A vertex's predecessor
    depends only on its own neighbours, so it is found when a path first
    walks back through the vertex, and cached.
    """

    graph: Graph
    lengths: np.ndarray
    source: int
    dist: np.ndarray
    _pred: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)
    _floats: tuple[list, list] | None = field(default=None, repr=False)

    def predecessor(self, v: int) -> tuple[int, int]:
        """The (vertex, edge id) through which the canonical path reaches v."""
        if v not in self._pred:
            # Python floats hold the same values as the arrays and read faster.
            self._floats = self._floats or (self.dist.tolist(), self.lengths.tolist())
            dist, lengths = self._floats
            tol = DIST_RTOL * max(1.0, abs(dist[v]))
            tight = [
                (u, eid)
                for u, eid in self.graph.adjacency()[v]
                if u != v and abs(dist[u] + lengths[eid] - dist[v]) <= tol
            ]
            if not tight:  # float pathologies only; should not happen
                raise GraphError(f"no tight predecessor found for vertex {v}")
            self._pred[v] = min(tight)
        return self._pred[v]

    def _walk(self, target: int) -> tuple[list[int], list[int]]:
        """Vertices and edge ids of the canonical path from the source to target."""
        if not math.isfinite(self.dist[target]):
            raise GraphError(f"vertex {target} unreachable from {self.source}")
        verts, eids = [target], []
        v = target
        while v != self.source:
            v, eid = self._pred[v] if v in self._pred else self.predecessor(v)
            verts.append(v)
            eids.append(eid)
        return verts[::-1], eids[::-1]

    def path_vertices(self, target: int) -> list[int]:
        return self._walk(target)[0]

    def path_edges(self, target: int) -> list[int]:
        return self._walk(target)[1]


def single_source_shortest_paths(
    g: Graph, lengths: np.ndarray, source: int, dist: np.ndarray
) -> ShortestPathTree:
    """Canonical shortest-path tree of `source`, read from its distance row.

    `dist` must be the exact row `source` of shortest_path_metric(g, lengths);
    predecessors are found only along the paths that are asked for.
    """
    lengths = validate_lengths(g, lengths)
    n = g.vertex_count
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (n,):
        raise GraphError(f"distance row has shape {dist.shape}, expected ({n},)")
    if not (0 <= source < n and dist[source] == 0.0):
        raise GraphError(f"distance row is not the row of source {source}")
    return ShortestPathTree(graph=g, lengths=lengths, source=source, dist=dist)


# -- expansion diagnostic -------------------------------------------------


def expansion_estimate(g: Graph) -> float:
    """Second-largest eigenvalue of the normalized adjacency operator A/d.

    Exact to rounding: for a d-regular graph the unsigned incidence matrix B
    (a self-loop's entry is 2) has B B^T = dI + A, so the value is
    s_2^2 / d - 1 for the second-largest singular value s_2 of B.  Up to
    n = 64 this dense solve starts no BLAS helper thread, which a forked
    worker would pay for; a symmetric eigensolver on A/d does.  Requires a
    connected regular graph on at least 2 vertices.
    """
    deg = g.degrees()
    if g.vertex_count < 2 or not g.is_connected():
        raise GraphError("expansion estimate requires a connected graph on at least 2 vertices")
    d = int(deg[0])
    if np.any(deg != d):
        raise GraphError("expansion estimate requires a regular graph")
    ends = g.endpoints()
    eids = np.arange(g.edge_count)
    incidence = np.zeros((g.vertex_count, g.edge_count))
    incidence[ends[:, 0], eids] += 1.0
    incidence[ends[:, 1], eids] += 1.0
    # B has min(n, |E|) singular values; the rest of B B^T's spectrum is 0.
    sigma = np.append(np.linalg.svd(incidence, compute_uv=False), 0.0)
    return float(sigma[1] ** 2 / d - 1.0)
