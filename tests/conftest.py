"""Shared corpus builders and independent oracles.

The oracles here deliberately avoid the library's own code paths: shortest
paths come from a plain Floyd-Warshall loop and single-source trees from a
heap Dijkstra with its own (numpy) predecessor pass, optima from itertools
enumeration, cycle verdicts from explicit simple-cycle enumeration,
shuffles from one scalar draw per Fisher-Yates step, girth from a BFS that
is never cut short, CKR labelings from one terminal column at a time,
feasibility from whole (256, k) float slabs, local-search moves from a
per-vertex loop that regathers every vertex's incident edges each round,
graph validation from a per-edge loop over a seen set and a dataclass
that stores the edge list it is given, flattened extensions from one
append per flat edge, and level codes from whole-plane lane tables read
through a transposed view.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from zeroext import extension, graphs, instance, solvers, split


# -- independent shortest-path oracle -----------------------------------------


def floyd_warshall(n: int, weighted_edges) -> np.ndarray:
    """Triply-nested Floyd-Warshall over (u, v, length) triples."""
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, length in weighted_edges:
        if u == v:
            continue
        if length < dist[u, v]:
            dist[u, v] = length
            dist[v, u] = length
    for w in range(n):
        for i in range(n):
            diw = dist[i, w]
            if not math.isfinite(diw):
                continue
            for j in range(n):
                cand = diw + dist[w, j]
                if cand < dist[i, j]:
                    dist[i, j] = cand
    return dist


def graph_fw(g: graphs.Graph, lengths) -> np.ndarray:
    return floyd_warshall(
        g.vertex_count,
        [(u, v, float(lengths[eid])) for eid, (u, v) in enumerate(g.edges)],
    )


def heap_dijkstra_dist(g: graphs.Graph, lengths, source: int) -> np.ndarray:
    """Textbook heap Dijkstra: the distance row of `source`."""
    lengths = np.asarray(lengths, dtype=float).tolist()
    dist = [math.inf] * g.vertex_count
    dist[source] = 0.0
    adj = g.adjacency()
    heap = [(0.0, source)]
    settled = [False] * g.vertex_count
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for w, eid in adj[u]:
            nd = du + lengths[eid]
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return np.array(dist)


@dataclass
class OracleTree:
    source: int
    dist: np.ndarray
    pred_vertex: np.ndarray
    pred_edge: np.ndarray

    def path_vertices(self, target: int) -> list[int]:
        out = [target]
        while out[-1] != self.source:
            out.append(int(self.pred_vertex[out[-1]]))
        return out[::-1]

    def all_paths(self) -> dict[int, tuple[list[int], list[int]]]:
        """(path_vertices, path_edges) of every reachable target, each built
        from its predecessor's in one pass over the vertices by distance."""
        paths = {self.source: ([self.source], [])}
        for v in np.argsort(self.dist, kind="stable").tolist():
            if v != self.source and math.isfinite(self.dist[v]):
                verts, eids = paths[int(self.pred_vertex[v])]
                paths[v] = (verts + [v], eids + [int(self.pred_edge[v])])
        return paths


def heap_dijkstra_tree(g: graphs.Graph, lengths, source: int) -> OracleTree:
    """Heap Dijkstra, then canonical predecessors of every vertex at once.

    Among tight predecessors (relative tolerance DIST_RTOL) the smallest
    vertex id wins, then the smallest edge id: every (vertex, neighbour,
    edge) triple is tested in one numpy pass and the lexicographically least
    tight one per vertex is kept.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = g.vertex_count
    dist = heap_dijkstra_dist(g, lengths, source)
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    eids = np.arange(ends.shape[0])
    loop = ends[:, 0] == ends[:, 1]
    vv = np.concatenate([ends[~loop, 0], ends[~loop, 1]])
    uu = np.concatenate([ends[~loop, 1], ends[~loop, 0]])
    ee = np.concatenate([eids[~loop], eids[~loop]])
    with np.errstate(invalid="ignore"):
        slack = np.abs(dist[uu] + lengths[ee] - dist[vv])
    tight = (
        np.isfinite(dist[vv])
        & (vv != source)
        & (slack <= graphs.DIST_RTOL * np.maximum(1.0, np.abs(dist[vv])))
    )
    vv, uu, ee = vv[tight], uu[tight], ee[tight]
    order = np.lexsort((ee, uu, vv))
    vv, uu, ee = vv[order], uu[order], ee[order]
    first = np.ones(vv.size, dtype=bool)
    first[1:] = vv[1:] != vv[:-1]
    pred_vertex = np.full(n, -1, dtype=np.int64)
    pred_edge = np.full(n, -1, dtype=np.int64)
    pred_vertex[vv[first]] = uu[first]
    pred_edge[vv[first]] = ee[first]
    reached = np.isfinite(dist)
    reached[source] = False
    assert np.all(pred_vertex[reached] >= 0)
    return OracleTree(source=source, dist=dist, pred_vertex=pred_vertex, pred_edge=pred_edge)


# -- per-edge construction oracles ----------------------------------------------


def reference_graph_edges(vertex_count: int, edges, multigraph: bool) -> list[tuple[int, int]]:
    """Normalized edge list of a graph, checked one edge at a time; raises
    graphs.GraphError with the library's message at the first bad edge."""
    edges = [(min(u, v), max(u, v)) for (u, v) in edges]
    seen = set()
    for eid, (u, v) in enumerate(edges):
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise graphs.GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
        if u == v and not multigraph:
            raise graphs.GraphError(f"self-loop at vertex {u} requires multigraph mode")
        if (u, v) in seen and not multigraph:
            raise graphs.GraphError(f"parallel edge ({u}, {v}) requires multigraph mode")
        seen.add((u, v))
    return edges


@dataclass
class EagerGraph:
    """A graph that stores its normalized edge list: the reference for
    `graphs.Graph`'s equality and repr, and for its per-edge readers."""

    vertex_count: int
    edges: list[tuple[int, int]]
    multigraph: bool = False

    def adjacency(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return adj

    def edge_lookup(self) -> dict[tuple[int, int], int]:
        return {pair: eid for eid, pair in enumerate(self.edges)}


def reference_flatten(x):
    """(edges, lengths, edge_kind, edge_origin) of the flattened extension,
    appended one flat edge at a time in the documented order."""
    nG, nH = x.cloud_count, x.fiber_size
    edges, lengths, kinds, origins = [], [], [], []
    for g in range(nG):
        for f_eid, (h1, h2) in enumerate(x.fiber.edges):
            edges.append((g * nH + h1, g * nH + h2))
            lengths.append(float(x.fiber_lengths[f_eid]))
            kinds.append(0)
            origins.append(f_eid)
    for b_eid, (g1, g2) in enumerate(x.base.edges):
        perm = x.matchings[b_eid]
        for h in range(nH):
            edges.append((g1 * nH + h, g2 * nH + int(perm[h])))
            lengths.append(float(x.base_lengths[b_eid]))
            kinds.append(1)
            origins.append(b_eid)
    return (
        edges,
        np.array(lengths),
        np.array(kinds, dtype=np.int8),
        np.array(origins, dtype=np.int64),
    )


def reference_level_codes(planes, levels: int, sources: int, targets: int) -> np.ndarray:
    """The (sources, targets) level index of bit j in row t of the planes, as
    a transposed view of whole-plane lane tables in the least unsigned type
    that names `levels`: every target at once, with no tiles."""
    dtype = np.dtype(f"<u{np.min_scalar_type(levels - 1).itemsize}")
    word = np.dtype("<u8")
    lanes = np.zeros((256, 8), dtype=dtype)
    lanes[:] = (np.arange(256)[:, None] >> np.arange(8)) & 1
    lanes = lanes.view(word)
    width = 8 * -(-sources // 64)
    words = np.zeros((targets, width, dtype.itemsize), dtype=word)
    spread = np.empty_like(words)
    index = np.empty((targets, width), dtype=np.intp)
    for b, plane in enumerate(planes):
        np.copyto(index, plane.view(np.uint8))
        np.take(lanes << b, index, axis=0, out=spread, mode="clip")
        words |= spread
    return words.view(dtype).reshape(targets, 8 * width)[:, :sources].T


# -- independent sampling oracles -----------------------------------------------


def scalar_fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Textbook Fisher-Yates: one rng.integers(0, i + 1) call per step."""
    p = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        p[i], p[j] = p[j], p[i]
    return p


def dense_second_eigenvalue(g: graphs.Graph) -> float:
    """Second-largest eigenvalue of A/d by a symmetric eigensolver on the dense
    adjacency matrix; a self-loop adds 2 to its diagonal entry."""
    n = g.vertex_count
    a = np.zeros((n, n))
    us, vs = g.endpoints().T
    np.add.at(a, (us, vs), 1.0)
    np.add.at(a, (vs, us), 1.0)
    return float(np.linalg.eigvalsh(a / g.degrees()[0])[-2])


def reference_girth(g: graphs.Graph):
    """Shortest cycle by a full BFS from every vertex, never cut short."""
    counts: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        if u == v:
            return 1
        counts[(u, v)] = counts.get((u, v), 0) + 1
    best = 2 if any(c > 1 for c in counts.values()) else math.inf
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
                        best = min(best, dist[u] + dist[w] + 1)
            q = nxt
    return best


# -- one-terminal-at-a-time CKR oracle ------------------------------------------


def reference_ckr_round(inst, lengths, seed: int) -> np.ndarray:
    """CKR rounding that tests one terminal column at a time.

    Same draws as the library (r first, then the permutation, here from the
    scalar Fisher-Yates); every still-unassigned vertex joins the first
    terminal in permutation order within r times its nearest-terminal
    distance.  Distances to the terminals are D_X + L for a gap instance's
    canonical lengths and Floyd-Warshall ones for any other lengths.
    """
    rng = np.random.default_rng(int(seed))
    r = 1.0 + float(rng.random())
    perm = scalar_fisher_yates(rng, inst.k)

    n = inst.vertex_count
    if inst.is_gap and np.array_equal(lengths, inst.origin.edge_lengths):
        to_term = np.zeros((n, inst.k))
        to_term[: inst.k] = extension.extension_metric(inst.origin.extension).matrix() + inst.origin.big_l
    else:
        to_term = graph_fw(inst.graph, lengths)[:, inst.terminals]
    bound = r * to_term.min(axis=1)

    f = np.full(n, -1, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    unassigned = inst.term_index < 0
    for tpos in perm:
        take = unassigned & (to_term[:, tpos] <= bound)
        f[take] = int(inst.terminals[tpos])
        unassigned &= ~take
    assert not unassigned.any()
    return f


# -- feasibility over whole row slabs -------------------------------------------


def reference_is_feasible(lengths, inst, rtol: float = 1e-9) -> list:
    """`relaxation.is_feasible` as a dense check: per 256 terminal positions,
    the float rows of the search from those terminals to every terminal
    against the float rows of D, with the pairs i < j masked in whole.
    Reading D's rows builds a gap instance's D_X."""
    from zeroext.relaxation import Violation

    terms = inst.terminals
    k = terms.size
    search = graphs.shortest_path_search(inst.graph, np.asarray(lengths, dtype=float), targets=terms)
    out = []
    for start in range(0, k, 256):
        pos = np.arange(start, min(start + 256, k))
        got = search(terms[pos])
        want = inst.metric.rows(pos)
        short = want - got
        bad = (short > rtol * want) & (pos[:, None] < np.arange(k)[None, :])
        for a, j in np.argwhere(bad):
            out.append(Violation((int(terms[pos[a]]), int(terms[j])), float(short[a, j])))
    return out


# -- per-vertex local search oracle ---------------------------------------------


def reference_local_search(inst, f, max_rounds: int = 100) -> np.ndarray:
    """Steepest single-vertex relabeling descent, one vertex at a time with
    its incident edges regathered every round.

    Each round evaluates every (vertex, terminal) move and applies the single
    best strictly-improving one; stops at a local optimum or after
    max_rounds.  The result never costs more than the input.
    """
    f = solvers.validate_labeling(f, inst).copy()
    nonterms = inst.nonterminals()
    if nonterms.size == 0 or max_rounds <= 0:
        return f
    # Per-vertex incident edge data.
    incident: dict[int, list[tuple[int, float]]] = {int(v): [] for v in nonterms}
    for eid, (u, v) in enumerate(inst.graph.edges):
        w = float(inst.weights[eid])
        if u == v:
            continue
        if int(inst.term_index[u]) < 0:
            incident[int(u)].append((int(v), w))
        if int(inst.term_index[v]) < 0:
            incident[int(v)].append((int(u), w))
    order = np.argsort(inst.terminals, kind="stable")
    terminals_by_id = inst.terminals[order]

    for _ in range(int(max_rounds)):
        fi = inst.term_index[f]
        best_gain = 0.0
        best_move = None
        for v in nonterms:
            pairs = incident[int(v)]
            if not pairs:
                continue
            others = np.fromiter((fi[o] for o, _ in pairs), dtype=np.int64, count=len(pairs))
            ws = np.fromiter((w for _, w in pairs), dtype=float, count=len(pairs))
            rows = inst.metric.rows(others)  # (deg, k)
            cand = ws @ rows
            cand = cand[order]
            cur = float(cand[np.flatnonzero(terminals_by_id == f[v])[0]])
            j = int(np.argmin(cand))
            gain = cur - float(cand[j])
            if gain > best_gain + 1e-12 * max(1.0, abs(cur)):
                best_gain = gain
                best_move = (int(v), int(terminals_by_id[j]))
        if best_move is None:
            break
        f[best_move[0]] = best_move[1]
    return f


# -- independent exhaustive labeling oracle ------------------------------------


def enumerate_optimum(inst) -> tuple[tuple, float]:
    """Plain itertools enumeration of every labeling; first optimum wins."""
    nonterms = [int(v) for v in inst.nonterminals()]
    terms = [int(t) for t in inst.terminals]
    D = inst.metric.matrix()
    pos = {t: i for i, t in enumerate(terms)}
    best = None
    best_cost = math.inf
    for combo in itertools.product(terms, repeat=len(nonterms)):
        label = dict(zip(nonterms, combo))
        for t in terms:
            label[t] = t
        cost = 0.0
        for eid, (u, v) in enumerate(inst.graph.edges):
            cost += float(inst.weights[eid]) * D[pos[label[u]], pos[label[v]]]
        if cost < best_cost:
            best_cost = cost
            best = combo
    return best, best_cost


# -- simple-cycle enumeration and exhaustive homeomorphism verdict ---------------


def all_simple_cycles(g: graphs.Graph) -> list[frozenset]:
    """Every simple cycle as a frozenset of edge ids (graphs without
    self-loops or parallel edges; cycles have length >= 3)."""
    adj = g.adjacency()
    lookup = g.edge_lookup()
    cycles = set()

    def extend(path, seen):
        head = path[-1]
        start = path[0]
        for w, _ in adj[head]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:  # one orientation per cycle
                    eids = frozenset(
                        lookup[(min(a, b), max(a, b))]
                        for a, b in zip(path, path[1:] + [start])
                    )
                    cycles.add(eids)
            elif w > start and w not in seen:
                extend(path + [w], seen | {w})

    for s in range(g.vertex_count):
        extend([s], {s})
    return sorted(cycles, key=sorted)


def exhaustive_homeomorphism_verdict(f_tilde, paths, base, sub_edge_ids) -> bool:
    """Check the odd-occurrence condition on every simple cycle directly."""
    lookup = base.edge_lookup()
    parity = {}
    for eid in sub_edge_ids:
        vec = np.zeros(base.edge_count, dtype=np.uint8)
        walk = paths[eid]
        for a, b in zip(walk, walk[1:]):
            vec[lookup[(min(a, b), max(a, b))]] ^= 1
        parity[eid] = vec
    sub = graphs.Graph(
        vertex_count=base.vertex_count, edges=[base.edges[e] for e in sub_edge_ids]
    )
    pos_to_eid = list(sub_edge_ids)
    for cyc in all_simple_cycles(sub):
        odd = np.zeros(base.edge_count, dtype=np.uint8)
        want = np.zeros(base.edge_count, dtype=np.uint8)
        for p in cyc:
            odd ^= parity[pos_to_eid[p]]
            want[pos_to_eid[p]] ^= 1
        if not np.array_equal(odd, want):
            return False
    return True


# -- Cayley graphs ----------------------------------------------------------------


def build_cayley(moduli, generators) -> graphs.Graph:
    """Cayley graph of the product of cyclic groups Z_m1 x ... x Z_mr over the
    given generators (int tuples, reduced mod the moduli).

    The generator set is symmetrized (inverses added).  Vertex ids number the
    elements in lexicographic order.  Vertex x adds its edges to x + s in the
    order of the inverse pairs {s, -s} by their lex-smaller member, s before
    -s, skipping an edge already added.
    """
    moduli = tuple(int(m) for m in moduli)
    if not moduli or any(m < 1 for m in moduli):
        raise graphs.GraphError("group moduli must be positive integers")

    def add(a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    def neg(a) -> tuple[int, ...]:
        return tuple(-x % m for x, m in zip(a, moduli))

    gens: list[tuple[int, ...]] = []
    for raw in generators:
        if len(raw) != len(moduli):
            raise graphs.GraphError(f"element {raw!r} has wrong arity for moduli {moduli}")
        el = tuple(int(a) % m for a, m in zip(raw, moduli))
        if not any(el):
            raise graphs.GraphError("generator equal to the identity is not allowed")
        if el in gens:
            raise graphs.GraphError(f"duplicate generator {raw!r} after reduction mod {moduli}")
        gens.append(el)
    symmetric = sorted(set(gens) | {neg(el) for el in gens})
    steps = list(dict.fromkeys(s for el in symmetric for s in (el, neg(el))))

    index = {el: i for i, el in enumerate(itertools.product(*(range(m) for m in moduli)))}
    edges: dict[tuple[int, int], None] = {}
    for el, x in index.items():
        for s in steps:
            y = index[add(el, s)]
            edges.setdefault((min(x, y), max(x, y)))
    return graphs.Graph(vertex_count=len(index), edges=list(edges))


# -- random corpora ----------------------------------------------------------------


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int) -> graphs.Graph:
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 200:
        tries += 1
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    return graphs.Graph(vertex_count=n, edges=sorted(edges))


def random_metric(rng: np.random.Generator, k: int) -> np.ndarray:
    """Shortest-path closure of random integer weights: a genuine metric."""
    raw = rng.integers(1, 10, size=(k, k)).astype(float)
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    dist = raw.copy()
    for w in range(k):
        for i in range(k):
            for j in range(k):
                if dist[i, w] + dist[w, j] < dist[i, j]:
                    dist[i, j] = dist[i, w] + dist[w, j]
    return dist


def random_generic_instance(rng: np.random.Generator, max_nonterms: int = 6, max_terms: int = 4):
    m = int(rng.integers(1, max_nonterms + 1))
    k = int(rng.integers(2, max_terms + 1))
    n = m + k
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
    weights = rng.integers(0, 5, size=g.edge_count).astype(float)
    weights[rng.random(g.edge_count) < 0.7] += 0.5
    # Zero weights are allowed off-tree, but a positive-weight spanning tree
    # keeps every vertex reachable for the path-based heuristics.
    seen = {0}
    adj = g.adjacency()
    stack = [0]
    while stack:
        u = stack.pop()
        for w, eid in adj[u]:
            if w not in seen:
                seen.add(w)
                weights[eid] = max(weights[eid], 0.5)
                stack.append(w)
    terminals = rng.choice(n, size=k, replace=False)
    metric = random_metric(rng, k)
    return instance.build_generic_instance(g, weights, np.sort(terminals), metric)


def random_labeling(rng: np.random.Generator, inst) -> np.ndarray:
    f = np.empty(inst.vertex_count, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    nonterms = inst.nonterminals()
    f[nonterms] = rng.choice(inst.terminals, size=nonterms.size)
    return f


# -- split/certificate corpus ---------------------------------------------------------


def direct_route_setup(seed: int, n: int = 8, d: int = 3, fiber_n: int = 6):
    """Extension whose inter-cloud edges dwarf the fiber diameter, so shortest
    paths between same-fiber representatives cross exactly one matching edge
    and project onto single base edges."""
    base = graphs.random_regular(n, d, seed=seed).graph
    fiber = graphs.random_regular(fiber_n, 3, seed=seed + 1).graph
    x = extension.sample_extension(
        base,
        graphs.uniform_lengths(base, 100.0),
        fiber,
        graphs.uniform_lengths(fiber, 1.0),
        seed=seed,
    )
    inst = instance.build_gap_instance(x, 2.0)
    return x, inst


def wandering_setup(seed: int, n: int = 8, d: int = 4):
    build = instance.default_gap_instance(n, d, seed)
    return build.extension, build.instance


def cayley_setup(seed: int):
    """Cayley base and fiber: the 3 x 3 torus over Z_3 x Z_3 and the circulant
    C_8(1, 3).  Their steps are labeled by edge id, as on any other graph."""
    base = build_cayley([3, 3], [(1, 0), (0, 1)])
    fiber = build_cayley([8], [(1,), (3,)])
    x = extension.sample_extension(
        base,
        graphs.uniform_lengths(base, 2.0),
        fiber,
        graphs.uniform_lengths(fiber, 1.0),
        seed=seed,
    )
    inst = instance.build_gap_instance(x, 2.0)
    return x, inst


def candidate_corpus(count: int, seed0: int = 0):
    """Seeded split candidates over random regular and Cayley graphs, with
    both tight and wandering path geometries."""
    out = []
    rng = np.random.default_rng(seed0)
    for i in range(count):
        kind = i % 3
        seed = seed0 + 17 * i
        if kind == 0:
            x, inst = direct_route_setup(seed)
            f = split.per_cloud_labeling(inst, x, int(rng.integers(0, x.fiber_size)))
            cand = split.build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
        elif kind == 1:
            x, inst = wandering_setup(seed % 7)
            f = split.per_cloud_labeling(inst, x, int(rng.integers(0, x.fiber_size)))
            cand = split.build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
        else:
            x, inst = cayley_setup(seed)
            targets = {
                g: g * x.fiber_size + int(rng.integers(0, x.fiber_size))
                for g in range(x.cloud_count)
            }
            f = split.per_cloud_labeling(inst, x, targets)
            cand = split.build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
        out.append((x, inst, cand))
    return out


@pytest.fixture(scope="session")
def small_gap():
    build = instance.default_gap_instance(8, 4, 0)
    return build
