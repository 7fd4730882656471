"""Undirected (multi)graphs with dense edge ids, deterministic generators, and metrics.

Graph values are treated as immutable after construction and are safe to share
across threads.  Generators are pure functions of their arguments, so the same
(parameters, seed) always rebuild an identical object, byte for byte when
serialized.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np


# Relative tolerance used whenever two float distances are compared for equality.
DIST_RTOL = 1e-9


class GraphError(ValueError):
    pass


class Graph:
    """Undirected graph with dense edge ids 0..|E|-1.

    `edges` may be a list of (u, v) pairs or an (E, 2) integer array; it is
    held as the read-only (E, 2) int64 array `endpoints()`, row i the
    endpoint pair of edge i normalized u <= v.  The `edges` list of (u, v)
    tuples is built from it the first time it is read, so a graph that is
    only searched through its array never makes one Python object per edge.
    Self-loops and parallel edges are rejected unless multigraph=True.  The
    first offending edge is reported, an out-of-range endpoint before a
    self-loop before a parallel pair.  Two graphs are equal when their
    vertex counts, edges and multigraph flags are.
    """

    def __init__(self, vertex_count: int, edges, multigraph: bool = False):
        self.vertex_count = vertex_count
        self.multigraph = multigraph
        self._edges: list[tuple[int, int]] | None = None
        self._adj: list | None = None
        self._lookup: dict | None = None
        ends = np.array(edges)
        if ends.shape == (0,):
            ends = np.zeros((0, 2), dtype=np.int64)
        if ends.dtype.kind not in "iu" or ends.ndim != 2 or ends.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs of integer vertex ids")
        ends = np.sort(ends.astype(np.int64), axis=1)
        u, v = ends[:, 0], ends[:, 1]
        out = (u < 0) | (v >= vertex_count)
        loop = (u == v) & (not multigraph)
        parallel = np.zeros_like(out)
        if not multigraph:  # every repeat of a pair after its first
            parallel[:] = True
            parallel[np.unique(u * vertex_count + v, return_index=True)[1]] = False
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self._ends, other._ends)
            and self.multigraph == other.multigraph
        )

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count!r}, edges={self.edges!r}, multigraph={self.multigraph!r})"

    # -- basic accessors ------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        """edges[i] is the (u, v) pair of edge i, u <= v, as Python ints;
        built from `endpoints()` on first read and kept."""
        if self._edges is None:
            self._edges = list(zip(*self._ends.T.tolist()))
        return self._edges

    @property
    def edge_count(self) -> int:
        return self._ends.shape[0]

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
        return [sorted(self._reach(root, seen)) for root in range(self.vertex_count) if not seen[root]]

    def is_connected(self) -> bool:
        """One search from vertex 0 reaches every vertex."""
        n = self.vertex_count
        return n == 0 or len(self._reach(0, [False] * n)) == n

    def _reach(self, root: int, seen: list[bool]) -> list[int]:
        """The vertices reachable from root, which `seen` does not mark yet; marks them."""
        stack, comp = [root], []
        seen[root] = True
        adj = self.adjacency()
        while stack:
            u = stack.pop()
            comp.append(u)
            for w, _ in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return comp


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


class GirthFloorError(GraphError):
    """No connected d-regular graph of the asked girth: the floor is above
    the Moore bound, or the sampler ran out of pairings."""


# Switch proposals per edge of a pairing before the sampler draws a fresh
# pairing, and the pairings it draws before it gives up.  Only graphs at the
# Moore bound restart often: over 200 seeds K4 and K5 drew at most 3
# pairings, the Petersen graph at floor 5 at most 41 and K_{4,4} at floor 4
# at most 128.
SWITCH_BUDGET_PER_EDGE = 8
PAIRING_CAP = 200


@dataclass(frozen=True)
class RegularSample:
    """A sampled graph with its exact girth and the sampler's counters."""

    graph: Graph
    girth: int
    pairings: int  # configuration-model pairings drawn: 1 unless one stalled
    switches: int  # kept double-edge switches, over every pairing drawn


def moore_bound(d: int, g: int) -> int:
    """Fewest vertices of a d-regular graph (d >= 2) of girth at least g >= 3.

    Within distance g // 2 - 1 of a vertex (g odd) or of an edge (g even)
    such a graph is a tree, whose vertices are counted here.
    """
    tree = sum((d - 1) ** i for i in range(g // 2))
    return 1 + d * tree if g % 2 else 2 * tree


def random_regular(m: int, d: int, seed: int, *, girth_floor: int = 3) -> RegularSample:
    """Connected simple d-regular graph on m vertices of girth at least
    g = max(3, girth_floor), by one configuration-model pairing and
    double-edge switchings (McKay-Wormald).

    One stream seeded by `seed` pairs the m*d stubs by Fisher-Yates and
    draws every switch.  While some edge lies on a cycle shorter than g (a
    self-loop is a 1-cycle, a parallel pair a 2-cycle), a random such edge
    {a, b} and a uniformly drawn edge {c, x}, in a random orientation, are
    switched to {a, c}, {b, x}.  The switch is kept only if neither new edge
    lies on a cycle shorter than g; it then creates no short cycle and
    breaks those through {a, b}, so every kept switch lowers their number.
    After SWITCH_BUDGET_PER_EDGE proposals per edge, or on a disconnected
    result, the stream draws a fresh pairing; after PAIRING_CAP pairings
    GirthFloorError reports the best girth reached.  The result is checked
    by `girth`, its degrees and `is_connected`.

    Deterministic in (m, d, seed, girth_floor).  The graphs are not exactly
    uniform over the connected simple d-regular graphs of girth >= g: the
    pairing is uniform, but a graph's weight also depends on how many short
    cycles the pairings that lead to it had.  A floor above the Moore bound
    raises GirthFloorError before any draw.
    """
    m, d = int(m), int(d)
    if (m * d) % 2 != 0:
        raise GraphError(f"m*d must be even, got m={m}, d={d}")
    if not 2 <= d < m:
        raise GraphError(f"need 2 <= d < m, got m={m}, d={d}")
    g = max(3, int(girth_floor))
    check_girth_floor(m, d, g)
    rng = np.random.default_rng(int(seed))
    stubs = np.repeat(np.arange(m), d)
    budget = SWITCH_BUDGET_PER_EDGE * (m * d // 2)
    best, switches = 0, 0
    for pairing in range(1, PAIRING_CAP + 1):
        work = _Switching(m, stubs[_fisher_yates(rng, stubs.size)].reshape(-1, 2).tolist(), g)
        done = work.switch_away(rng, budget)
        switches += work.kept
        graph = Graph(vertex_count=m, edges=sorted(map(sorted, work.ends)), multigraph=not done)
        found = int(girth(graph))
        if done and graph.is_connected():
            if found < g or np.any(graph.degrees() != d):
                raise GraphError(f"switching left a bad graph for m={m}, d={d}, girth floor {g}")
            return RegularSample(graph, found, pairing, switches)
        best = max(best, found)
    raise GirthFloorError(
        f"no connected {d}-regular graph on m={m} vertices with girth >= {g} after "
        f"{PAIRING_CAP} pairings (best girth {best}); lower the girth floor or change the seed"
    )


def check_girth_floor(m: int, d: int, g: int) -> None:
    """Raise GirthFloorError if m vertices are below the Moore bound of a
    d-regular graph of girth g."""
    bound = moore_bound(d, g)
    if m < bound:
        raise GirthFloorError(
            f"girth floor {g} is above the Moore bound for m={m}, d={d}: a {d}-regular "
            f"graph of girth >= {g} has at least {bound} vertices"
        )


class _Switching:
    """A pairing under double-edge switches.  ends[e] holds edge e's ends in
    the orientation a switch reads; adj[v] holds the ids of v's edges, a
    self-loop's twice."""

    def __init__(self, m: int, ends: list[list[int]], g: int):
        self.ends = ends
        self.adj: list[list[int]] = [[] for _ in range(m)]
        for e, (u, v) in enumerate(ends):
            self.adj[u].append(e)
            self.adj[v].append(e)
        self.depth = g - 2
        self.kept = 0

    def short(self, e: int) -> bool:
        """Whether edge e lies on a cycle shorter than g: a path of at most
        g - 2 other edges joins its ends."""
        u, v = self.ends[e]
        if u == v:
            return True
        ends, adj = self.ends, self.adj
        seen = {u}
        frontier = [u]
        for _ in range(self.depth):
            nxt = []
            for x in frontier:
                for f in adj[x]:
                    if f != e:
                        a, b = ends[f]
                        y = b if a == x else a
                        if y == v:
                            return True
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
            frontier = nxt
        return False

    def switch(self, e: int, f: int) -> None:
        """{a, b}, {c, x} -> {a, c}, {b, x}; a second call undoes it."""
        (a, b), (c, x) = self.ends[e], self.ends[f]
        self.ends[e], self.ends[f] = [a, c], [b, x]
        self.adj[b].remove(e)
        self.adj[b].append(f)
        self.adj[c].remove(f)
        self.adj[c].append(e)

    def try_switch(self, e: int, f: int, flip: int) -> bool:
        """Switch e with f, f reversed if flip; keep it only if neither new
        edge lies on a short cycle."""
        if e == f:
            return False
        if flip:
            self.ends[f].reverse()
        self.switch(e, f)
        if self.short(e) or self.short(f):
            self.switch(e, f)
            return False
        self.kept += 1
        return True

    def switch_away(self, rng: np.random.Generator, budget: int) -> bool:
        """Switch until no edge lies on a short cycle, within `budget`
        proposals; whether that was reached."""
        edges = len(self.ends)
        bad = [e for e in range(edges) if self.short(e)]
        proposals = 0
        while bad:  # only edges on bad's list can lie on a short cycle
            if proposals == budget:
                return False
            x, y = rng.random(2).tolist()
            i, pick = int(x * len(bad)), int(y * 2 * edges)
            e = bad[i]
            if self.short(e):
                proposals += 1
                if not self.try_switch(e, pick >> 1, pick & 1):
                    continue
            bad[i] = bad[-1]
            bad.pop()
        return True


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


def shortest_path_codes(g: Graph, lengths: np.ndarray) -> LevelCodes:
    """`shortest_path_metric(g, lengths)` held as level codes: the same
    floats, one or two bytes per pair, with no (V, V) float matrix built."""
    n = g.vertex_count
    return LevelCodes.from_blocks((n, n), shortest_path_blocks(g, lengths, np.arange(n)))


def shortest_path_blocks(g: Graph, lengths: np.ndarray, sources, targets=None):
    """The distances from `sources` to `targets` (all vertices when None) in
    row blocks: per ROW_BLOCK sources in order, the (codes, table) pair of
    one `LevelCodes` block, whose decoded rows are
    `shortest_path_search(g, lengths, targets)` of those sources.

    The engine and the ids are checked, and the engine built, on this call;
    each block is searched when the reader takes it, so a reader that
    reduces each block before taking the next holds one block at a time.
    """
    return _engines(g, lengths, targets)[0](sources)


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
    return _engines(g, lengths, targets)[1]


def _engines(g: Graph, lengths: np.ndarray, targets):
    """(blocks, search) over one engine, picked by LEVEL_SEARCH_LENGTHS.

    `blocks(sources)` yields, per ROW_BLOCK sources in order, the (codes,
    table) pair of `LevelCodes`; `search(sources)` returns the floats.  The
    level search yields its own level indices and decodes them for
    `search`; Dijkstra's float rows are coded by `_code_rows`.
    """
    lengths = validate_lengths(g, lengths, allow_zero=True)
    n = g.vertex_count
    targets = None if targets is None else _vertex_ids(n, targets, "target")
    ends = g.endpoints()
    keep = ends[:, 0] != ends[:, 1]  # self-loops never shorten a path
    values, cls = np.unique(lengths[keep], return_inverse=True)
    if values.size <= LEVEL_SEARCH_LENGTHS:
        classes = [(float(value), ends[keep][cls == c]) for c, value in enumerate(values)]
        level_blocks = _level_search(n, classes, targets)
        width = n if targets is None else targets.size

        def floats(sources):
            out = np.empty((sources.size, width))
            for s0, (codes, table) in zip(range(0, sources.size, ROW_BLOCK), level_blocks(sources)):
                np.take(table, codes, out=out[s0 : s0 + codes.shape[0]], mode="clip")
            return out

        coded = level_blocks
    else:
        floats = _dijkstra_search(g, lengths, targets)

        def coded(sources):
            for s0 in range(0, sources.size, ROW_BLOCK):
                yield _code_rows(floats(sources[s0 : s0 + ROW_BLOCK]))

    def check(engine):
        return lambda sources: engine(_vertex_ids(n, sources, "source"))

    return check(coded), check(floats)


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
# Rows per block of `LevelCodes`: the level search's sources per search.
ROW_BLOCK = 64 * _BLOCK_WORDS
# Rows that a reader of whole row blocks (`LevelCodes.rowsums`,
# `relaxation.is_feasible`) decodes at a time into a reused buffer; a divisor
# of ROW_BLOCK, so each chunk reads one table.
DECODE_ROWS = 64


def _level_search(n: int, classes: list[tuple[float, np.ndarray]], targets):
    """Dijkstra's distances, byte for byte, from a search over many sources
    at once; `classes` holds each distinct length with its edges' endpoints.

    Dijkstra's float result is the least fixed point
    D[s, v] = min_u fl(D[s, u] + l(u, v)) with D[s, s] = 0.  Float addition is
    monotone, so settling candidate values in ascending order over all sources
    together gives the same floats.  Each vertex holds a bitset over sources;
    the pairs first reached at value F spread, one length class at a time, to
    the neighbours, queued at fl(F + l).  A pair's value is stored as the index
    of its level in bit-planes.  Returns `blocks(sources)`, which searches
    ROW_BLOCK sources at a time and yields each block's (codes, levels): the
    (sources, targets) level indices, decoded from the planes' target rows,
    and the ascending level values.
    """
    steps = [(length, _neighbour_table(n, ends)) for length, ends in classes]
    rows = slice(0, n) if targets is None else targets
    width = n if targets is None else targets.size

    def blocks(sources: np.ndarray):
        for s0 in range(0, sources.size, ROW_BLOCK):
            block = sources[s0 : s0 + ROW_BLOCK]
            planes, values = _search_levels(n, steps, block)
            codes = _level_codes([plane[rows] for plane in planes], values.size, block.size, width)
            yield codes, values

    return blocks


def _search_levels(n: int, steps, sources: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Bit-planes of each (vertex, source) pair's level, and the level values.

    Bit j of a bitset row stands for sources[j]; bits past the last source
    are never set.  Every bitset has a zero row n, which the neighbour
    tables' padding points at.  The search stops once every pair is reached.
    """
    bit = np.arange(sources.size)
    words = -(-sources.size // 64)
    unreached = np.zeros((n + 1, words), dtype=_WORD)
    unreached[:n] = np.packbits(np.arange(64 * words) < sources.size, bitorder="little").view(_WORD)
    start = np.zeros_like(unreached)
    np.bitwise_or.at(start, (sources, bit // 64), np.uint64(1) << (bit % 64).astype(_WORD))
    queue = {0.0: start}
    heap = [0.0]
    values: list[float] = []
    planes: list[np.ndarray] = []
    gathered = np.empty((n, words), dtype=_WORD)
    spent: list[np.ndarray] = []  # popped bitsets, reused as queue entries
    while heap:
        f = heapq.heappop(heap)
        new = queue.pop(f)
        np.bitwise_and(new, unreached, out=new)
        if not new.any():
            spent.append(new)
            continue
        unreached ^= new
        if not values or values[-1] != f:  # f comes back when fl(f + l) == f
            values.append(f)
        _add_level(planes, new, len(values) - 1)
        if not unreached.any():
            break
        for length, table in steps:
            target = f + length
            queued = queue.get(target)
            if queued is None:
                queued = queue[target] = _empty_bitset(spent, new)
                heapq.heappush(heap, target)
            _spread(new, table, queued, gathered)
        spent.append(new)
    if unreached.any():
        values.append(math.inf)
        _add_level(planes, unreached, len(values) - 1)
    return planes, np.array(values)


def _empty_bitset(spent: list[np.ndarray], like: np.ndarray) -> np.ndarray:
    """An all-zero bitset shaped like `like`: a spent one cleared, else a new one."""
    if not spent:
        return np.zeros_like(like)
    bits = spent.pop()
    bits.fill(0)
    return bits


def _neighbour_table(n: int, ends: np.ndarray) -> np.ndarray:
    """(max degree, n) neighbours over the given edges: row c holds each
    vertex's c-th neighbour, or n past its degree.  Each row is contiguous,
    for `_spread`."""
    heads = np.concatenate((ends[:, 0], ends[:, 1]))
    tails = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    degree = np.bincount(heads, minlength=n)
    table = np.full((int(degree.max(initial=0)), n), n, dtype=np.int64)
    slot = np.arange(heads.size) - np.repeat(np.cumsum(degree) - degree, degree)
    table[slot, heads] = tails
    return table


def _spread(bits: np.ndarray, table: np.ndarray, out: np.ndarray, gathered: np.ndarray) -> None:
    """OR into row v of `out` the rows of `bits` at v's neighbours in
    `table`, through the (n, words) buffer `gathered`.  Every entry of the
    table is a row of `bits`, so the gather skips its bounds check."""
    for neighbours in table:
        bits.take(neighbours, axis=0, out=gathered, mode="clip")
        out[:-1] |= gathered


def _add_level(planes: list[np.ndarray], bits: np.ndarray, level: int) -> None:
    """Record `level` for the pairs in `bits`: bit b of it goes to plane b."""
    while level >> len(planes):
        planes.append(np.zeros_like(bits))
    for b, plane in enumerate(planes):
        if level >> b & 1:
            plane |= bits


def _level_codes(planes: list[np.ndarray], levels: int, sources: int, targets: int) -> np.ndarray:
    """The (sources, targets) level index of bit j in row t of the planes,
    C-contiguous, in the least unsigned type that names `levels`.

    Each byte of a plane holds the bits of 8 sources; a 256-entry table
    spreads it to 8 codes' lanes, shifted to the plane's bit and ORed in.
    Targets are coded ROW_BLOCK at a time in one set of scratch arrays, and
    each tile is transposed into its columns of the result.
    """
    dtype = np.dtype(f"<u{np.min_scalar_type(levels - 1).itemsize}")
    lanes = np.zeros((256, 8), dtype=dtype)  # lane i of row v: bit i of v
    lanes[:] = (np.arange(256)[:, None] >> np.arange(8)) & 1
    shifted = [lanes.view(_WORD) << b for b in range(len(planes))]
    width = 8 * -(-sources // 64)  # bytes per bitset row
    codes = np.empty((sources, targets), dtype=dtype)
    tile = min(ROW_BLOCK, targets)
    words = np.empty((tile, width, dtype.itemsize), dtype=_WORD)
    spread = np.empty_like(words)
    index = np.empty((tile, width), dtype=np.intp)
    for t0 in range(0, targets, ROW_BLOCK):
        t1 = min(t0 + ROW_BLOCK, targets)
        words_t, spread_t, index_t = words[: t1 - t0], spread[: t1 - t0], index[: t1 - t0]
        words_t.fill(0)
        for plane, lane in zip(planes, shifted):
            np.copyto(index_t, plane[t0:t1].view(np.uint8))
            np.take(lane, index_t, axis=0, out=spread_t, mode="clip")
            words_t |= spread_t
        codes[:, t0:t1] = words_t.view(dtype).reshape(t1 - t0, 8 * width)[:, :sources].T
    return codes


def _code_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table) of a float block: its distinct values ascending, and
    each entry's index among them in the least unsigned type that names them."""
    table, inverse = np.unique(rows, return_inverse=True)
    return inverse.reshape(rows.shape).astype(np.min_scalar_type(max(table.size - 1, 0))), table


class LevelCodes:
    """A float matrix as one code per entry into a table per row block.

    Rows come in blocks of ROW_BLOCK; block b holds an ascending table of
    exact float values, and entry (i, j) is tables[i // ROW_BLOCK][codes[i, j]].
    Codes are uint8 while no table has more than 256 values, else uint16
    (uint32 past 65,536).  The methods decode the same floats the dense
    matrix holds; `rowsums` equals its `sum(axis=1)` byte for byte.  Read-only.
    """

    def __init__(self, codes: np.ndarray, tables: list[np.ndarray]):
        codes.setflags(write=False)
        for table in tables:
            table.setflags(write=False)
        self.codes, self.tables = codes, tables
        self.shape = codes.shape
        # Every table end to end, and where each block's starts in it.
        self._flat = np.concatenate(tables) if tables else np.zeros(0)
        self._start = np.cumsum([0] + [table.size for table in tables[:-1]])

    @classmethod
    def from_blocks(cls, shape: tuple[int, int], blocks) -> LevelCodes:
        """From the (codes, table) pairs of the row blocks, in order."""
        codes = np.empty(shape, dtype=np.uint8)
        tables = []
        for s0, (block, table) in zip(range(0, shape[0], ROW_BLOCK), blocks):
            if block.dtype.itemsize > codes.dtype.itemsize:
                codes = codes.astype(block.dtype)
            codes[s0 : s0 + block.shape[0]] = block
            tables.append(table)
        return cls(codes, tables)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> LevelCodes:
        """Code a dense float matrix, block by block; -0.0 reads as 0.0."""
        mat = np.asarray(mat, dtype=float)
        blocks = (_code_rows(mat[s0 : s0 + ROW_BLOCK] + 0.0) for s0 in range(0, mat.shape[0], ROW_BLOCK))
        return cls.from_blocks(mat.shape, blocks)

    @property
    def nbytes(self) -> int:
        return self.codes.nbytes + sum(table.nbytes for table in self.tables)

    def pair_values(self, ii, jj) -> np.ndarray:
        """Entries (ii, jj), elementwise over index arrays that broadcast."""
        ii = np.asarray(ii)
        return self._flat[self._start[ii // ROW_BLOCK] + self.codes[ii, jj]]

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The rows at `positions`, one per entry, as a (len, columns) array."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        out = np.empty((positions.size, self.shape[1]))
        blocks = positions // ROW_BLOCK
        cuts = np.flatnonzero(np.diff(blocks, prepend=-1)).tolist() + [positions.size]
        for start, stop in zip(cuts, cuts[1:]):  # runs of positions in one row block
            table = self.tables[blocks[start]]
            table.take(self.codes[positions[start:stop]], out=out[start:stop], mode="clip")
        return out

    def matrix(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def blocks(self):
        """The (codes, table) pair of each row block, in order: views of the
        held codes, as `shortest_path_blocks` yields them."""
        starts = range(0, self.shape[0], ROW_BLOCK)
        return ((self.codes[s0 : s0 + ROW_BLOCK], table) for s0, table in zip(starts, self.tables))

    def rowsums(self) -> np.ndarray:
        """Each row's sum, decoding DECODE_ROWS rows at a time into one buffer."""
        out = np.empty(self.shape[0])
        buf = np.empty((min(DECODE_ROWS, self.shape[0]), self.shape[1]))
        for s0 in range(0, self.shape[0], DECODE_ROWS):
            s1 = min(s0 + DECODE_ROWS, self.shape[0])
            rows = buf[: s1 - s0]
            self.tables[s0 // ROW_BLOCK].take(self.codes[s0:s1], out=rows, mode="clip")
            rows.sum(axis=1, out=out[s0:s1])
        return out


@dataclass
class ShortestPathTree:
    """Single-source distances with the canonical predecessor structure.

    Among equal-length shortest paths (relative tolerance DIST_RTOL) the
    predecessor with the smallest vertex id wins, then the smallest edge id;
    this makes path reconstruction deterministic.  A vertex's predecessor
    depends only on its own neighbours, so it is found when a path first
    walks back through the vertex, and cached.  `length_list` holds the
    lengths as Python floats, which hold the same values as the array and
    read faster; trees over the same lengths may share one.
    """

    graph: Graph
    lengths: np.ndarray
    source: int
    dist: np.ndarray
    length_list: list[float] | None = field(default=None, repr=False)
    _pred: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)
    _dist: list[float] | None = field(default=None, repr=False)

    def predecessor(self, v: int) -> tuple[int, int]:
        """The (vertex, edge id) through which the canonical path reaches v."""
        if v not in self._pred:
            if self._dist is None:
                self._dist = self.dist.tolist()
                self.length_list = self.length_list or self.lengths.tolist()
            dist, lengths = self._dist, self.length_list
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
    g: Graph, lengths: np.ndarray, source: int, dist: np.ndarray, length_list: list[float] | None = None
) -> ShortestPathTree:
    """Canonical shortest-path tree of `source`, read from its distance row.

    `dist` must be the exact row `source` of shortest_path_metric(g, lengths);
    predecessors are found only along the paths that are asked for.
    `length_list`, if given, must be lengths.tolist(); trees built with the
    same list share it instead of each converting the lengths.
    """
    lengths = validate_lengths(g, lengths)
    n = g.vertex_count
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (n,):
        raise GraphError(f"distance row has shape {dist.shape}, expected ({n},)")
    if not (0 <= source < n and dist[source] == 0.0):
        raise GraphError(f"distance row is not the row of source {source}")
    return ShortestPathTree(graph=g, lengths=lengths, source=source, dist=dist, length_list=length_list)


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
