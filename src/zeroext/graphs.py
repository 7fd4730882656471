"""Undirected (multi)graphs with dense edge ids, deterministic generators, and metrics.

Graph values are treated as immutable after construction and are safe to share
across threads.  Generators are pure functions of their arguments, so the same
(parameters, seed) always rebuild an identical object, byte for byte when
serialized.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@functools.lru_cache(maxsize=64)
def _group_elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [tuple(t) for t in itertools.product(*(range(m) for m in moduli))]

# Relative tolerance used whenever two float distances are compared for equality.
DIST_RTOL = 1e-9


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class CyclicProductGroup:
    """Direct product of cyclic groups Z_m1 x ... x Z_mr; elements are int tuples."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli or any(int(m) < 1 for m in self.moduli):
            raise GraphError("group moduli must be positive integers")
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def canon(self, el) -> tuple[int, ...]:
        if len(el) != len(self.moduli):
            raise GraphError(f"element {el!r} has wrong arity for moduli {self.moduli}")
        return tuple(int(a) % m for a, m in zip(el, self.moduli))

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inv(self, a) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic order; this fixes vertex numbering."""
        return _group_elements(self.moduli)

    def index(self, el) -> int:
        idx = 0
        for a, m in zip(el, self.moduli):
            idx = idx * m + (int(a) % m)
        return idx


@dataclass
class Graph:
    """Undirected graph with dense edge ids 0..|E|-1.

    edges[i] is the (u, v) endpoint pair of edge i, normalized u <= v.
    labels, when present, map (vertex, edge_id) to a signed generator code;
    the codes at the two endpoints of an edge are inverse generators, and all
    codes incident to one vertex are distinct (Cayley property).

    Self-loops and parallel edges are rejected unless multigraph=True.
    """

    vertex_count: int
    edges: list[tuple[int, int]]
    labels: dict[tuple[int, int], int] | None = None
    multigraph: bool = False
    group: CyclicProductGroup | None = None
    generator_codes: dict[int, tuple[int, ...]] | None = None
    generator_inverse: dict[int, int] | None = None
    _adj: list | None = field(default=None, repr=False, compare=False)
    _lookup: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.edges = [(min(u, v), max(u, v)) for (u, v) in self.edges]
        seen = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v and not self.multigraph:
                raise GraphError(f"self-loop at vertex {u} requires multigraph mode")
            if (u, v) in seen and not self.multigraph:
                raise GraphError(f"parallel edge ({u}, {v}) requires multigraph mode")
            seen.add((u, v))
        if self.labels is not None:
            self._check_labels()

    def _check_labels(self):
        for eid, (u, v) in enumerate(self.edges):
            if (u, eid) not in self.labels or (v, eid) not in self.labels:
                raise GraphError(f"edge {eid} is missing a label at one endpoint")
        per_vertex: dict[int, set[int]] = {}
        for (v, _), code in self.labels.items():
            bucket = per_vertex.setdefault(v, set())
            if code in bucket:
                raise GraphError(f"vertex {v} carries duplicate incident label {code}")
            bucket.add(code)
        if self.generator_inverse is not None:
            for eid, (u, v) in enumerate(self.edges):
                cu = self.labels[(u, eid)]
                cv = self.labels[(v, eid)]
                if self.generator_inverse.get(cu) != cv:
                    raise GraphError(
                        f"edge {eid} labels {cu}/{cv} are not an inverse pair"
                    )

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
        deg = np.zeros(self.vertex_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def label(self, vertex: int, edge_id: int) -> int:
        if self.labels is None:
            raise GraphError("graph carries no generator labels")
        return self.labels[(vertex, edge_id)]

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


def validate_lengths(g: Graph, lengths: np.ndarray) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != (g.edge_count,):
        raise GraphError(
            f"length vector has shape {lengths.shape}, expected ({g.edge_count},)"
        )
    if np.any(lengths <= 0):
        bad = int(np.argmin(lengths))
        raise GraphError(f"edge {bad} has non-positive length {lengths[bad]}")
    return lengths


# -- generators ---------------------------------------------------------


def build_cayley(moduli, generators) -> Graph:
    """Cayley graph of a product of cyclic groups over the given generators.

    The generator set is symmetrized automatically (inverses added).  Each
    inverse pair {s, s^-1} gets a signed code +j/-j; involutions get +j which
    is its own inverse.  Vertex ids follow lexicographic element order.
    """
    group = CyclicProductGroup(tuple(moduli))
    gens = []
    seen = set()
    for raw in generators:
        el = group.canon(raw)
        if el == group.identity():
            raise GraphError("generator equal to the identity is not allowed")
        if el in seen:
            raise GraphError(f"duplicate generator {raw!r} after symmetrization")
        seen.add(el)
        gens.append(el)

    symmetric = set(gens)
    for el in gens:
        symmetric.add(group.inv(el))

    # Stable code assignment: inverse classes ordered by their lex-smaller member.
    classes = []
    done = set()
    for el in sorted(symmetric):
        if el in done:
            continue
        inv = group.inv(el)
        done.add(el)
        done.add(inv)
        classes.append((el, inv))

    generator_codes: dict[int, tuple[int, ...]] = {}
    generator_inverse: dict[int, int] = {}
    code_of: dict[tuple[int, ...], int] = {}
    for j, (el, inv) in enumerate(classes, start=1):
        generator_codes[j] = el
        code_of[el] = j
        if inv == el:
            generator_inverse[j] = j
        else:
            generator_codes[-j] = inv
            code_of[inv] = -j
            generator_inverse[j] = -j
            generator_inverse[-j] = j

    elements = group.elements()
    edges: list[tuple[int, int]] = []
    labels: dict[tuple[int, int], int] = {}
    added: set[tuple[int, int]] = set()
    for x_idx, x in enumerate(elements):
        for code in sorted(generator_codes, key=abs):
            s = generator_codes[code]
            y = group.mul(x, s)
            y_idx = group.index(y)
            pair = (min(x_idx, y_idx), max(x_idx, y_idx))
            if pair in added:
                continue
            added.add(pair)
            eid = len(edges)
            edges.append(pair)
            labels[(x_idx, eid)] = code
            labels[(y_idx, eid)] = generator_inverse[code]
    return Graph(
        vertex_count=group.size,
        edges=edges,
        labels=labels,
        group=group,
        generator_codes=generator_codes,
        generator_inverse=generator_inverse,
    )


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
    BFS from every vertex finds the shortest cycle exactly.
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
        while q:
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


def shortest_path_metric(g: Graph, lengths: np.ndarray) -> np.ndarray:
    """Exact all-pairs shortest-path distances as a dense (V, V) float matrix."""
    return shortest_path_rows(g, lengths, np.arange(g.vertex_count))


def shortest_path_rows(g: Graph, lengths: np.ndarray, sources) -> np.ndarray:
    """Exact distances from each of `sources` as a dense (len(sources), V)
    float matrix; disconnected pairs get math.inf.

    Backed by scipy's Dijkstra, the only shortest-path search in the package;
    agreement with a Floyd-Warshall oracle is pinned in the test suite.
    """
    from scipy.sparse.csgraph import dijkstra

    lengths = validate_lengths(g, lengths)
    if g.vertex_count == 0:
        return np.zeros((0, 0))
    return dijkstra(_csr(g, lengths), directed=False, indices=sources)


def _csr(g: Graph, lengths: np.ndarray):
    """Upper-triangular CSR adjacency for an undirected search.

    Self-loops never shorten a path and are dropped; parallel edges collapse
    to the shortest (a sparse sum would add their lengths).
    """
    from scipy.sparse import csr_matrix

    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    keep = ends[:, 0] != ends[:, 1]
    us, vs, ls = ends[keep, 0], ends[keep, 1], lengths[keep]
    order = np.lexsort((ls, vs, us))  # by (u, v), shortest first
    us, vs, ls = us[order], vs[order], ls[order]
    first = np.ones(us.size, dtype=bool)
    first[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    n = g.vertex_count
    return csr_matrix((ls[first], (us[first], vs[first])), shape=(n, n))


@dataclass
class ShortestPathTree:
    """Single-source distances with the canonical predecessor structure.

    Among equal-length shortest paths (relative tolerance DIST_RTOL) the
    predecessor with the smallest vertex id wins, then the smallest edge id;
    this makes path reconstruction deterministic.
    """

    source: int
    dist: np.ndarray
    pred_vertex: np.ndarray
    pred_edge: np.ndarray

    def path_vertices(self, target: int) -> list[int]:
        if not math.isfinite(self.dist[target]):
            raise GraphError(f"vertex {target} unreachable from {self.source}")
        out = [target]
        while out[-1] != self.source:
            out.append(int(self.pred_vertex[out[-1]]))
        out.reverse()
        return out

    def path_edges(self, target: int) -> list[int]:
        verts = self.path_vertices(target)
        return [int(self.pred_edge[v]) for v in verts[1:]]


def single_source_shortest_paths(
    g: Graph, lengths: np.ndarray, source: int, dist: np.ndarray
) -> ShortestPathTree:
    """Canonical shortest-path tree of `source`, read from its distance row.

    `dist` must be the exact row `source` of shortest_path_metric(g, lengths);
    only the predecessors are computed here.
    """
    lengths = validate_lengths(g, lengths)
    n = g.vertex_count
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (n,):
        raise GraphError(f"distance row has shape {dist.shape}, expected ({n},)")
    if not (0 <= source < n and dist[source] == 0.0):
        raise GraphError(f"distance row is not the row of source {source}")
    adj = g.adjacency()
    pred_vertex = np.full(n, -1, dtype=np.int64)
    pred_edge = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if v == source or not math.isfinite(dist[v]):
            continue
        best = None
        for u, eid in adj[v]:
            if u == v:
                continue
            slack = abs(dist[u] + lengths[eid] - dist[v])
            if slack <= DIST_RTOL * max(1.0, abs(dist[v])):
                cand = (u, eid)
                if best is None or cand < best:
                    best = cand
        if best is None:  # float pathologies only; should not happen
            raise GraphError(f"no tight predecessor found for vertex {v}")
        pred_vertex[v], pred_edge[v] = best
    return ShortestPathTree(source=source, dist=dist, pred_vertex=pred_vertex, pred_edge=pred_edge)


# -- expansion diagnostic -------------------------------------------------


@dataclass(frozen=True)
class EigenEstimate:
    value: float
    iterations: int


def expansion_estimate(g: Graph, iterations: int, seed: int) -> EigenEstimate:
    """Second eigenvalue of the normalized adjacency operator A/d.

    Power iteration on the half-lazy operator (I + A/d)/2 with the all-ones
    direction deflated each step; the shift makes the iteration converge to
    the second *largest* eigenvalue rather than the most negative one.
    Requires a connected regular graph.
    """
    deg = g.degrees()
    if g.vertex_count == 0 or not g.is_connected():
        raise GraphError("expansion estimate requires a connected graph")
    d = int(deg[0])
    if np.any(deg != d) or d == 0:
        raise GraphError("expansion estimate requires a regular graph")
    n = g.vertex_count
    us = np.array([u for u, _ in g.edges])
    vs = np.array([v for _, v in g.edges])
    rng = np.random.default_rng(int(seed))
    x = rng.standard_normal(n)
    x -= x.mean()
    x /= np.linalg.norm(x)
    for _ in range(int(iterations)):
        ax = np.zeros(n)
        np.add.at(ax, us, x[vs])
        np.add.at(ax, vs, x[us])
        x = 0.5 * (x + ax / d)
        x -= x.mean()
        norm = np.linalg.norm(x)
        if norm < 1e-300:  # eigenvector hit the deflated space; restart
            x = rng.standard_normal(n)
            x -= x.mean()
            norm = np.linalg.norm(x)
        x /= norm
    ax = np.zeros(n)
    np.add.at(ax, us, x[vs])
    np.add.at(ax, vs, x[us])
    mu = float(x @ (0.5 * (x + ax / d)))
    return EigenEstimate(value=2.0 * mu - 1.0, iterations=int(iterations))
