"""Shared corpus builders and independent oracles.

The oracles here deliberately avoid the library's own code paths: shortest
paths come from a plain Floyd-Warshall loop and single-source trees from a
heap Dijkstra with its own predecessor pass, optima from itertools
enumeration, cycle verdicts from explicit simple-cycle enumeration,
shuffles from one scalar draw per Fisher-Yates step, and CKR labelings from
one terminal column at a time.
"""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
import pytest

from zeroext import extension, graphs, instance, split


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


def heap_dijkstra_tree(g: graphs.Graph, lengths, source: int) -> graphs.ShortestPathTree:
    """Textbook heap Dijkstra, then canonical predecessors in a separate pass.

    Among tight predecessors (relative tolerance DIST_RTOL) the smallest
    vertex id wins, then the smallest edge id.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = g.vertex_count
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    adj = g.adjacency()
    heap = [(0.0, source)]
    settled = np.zeros(n, dtype=bool)
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
    pred_vertex = np.full(n, -1, dtype=np.int64)
    pred_edge = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if v == source or not math.isfinite(dist[v]):
            continue
        tight = [
            (u, eid)
            for u, eid in adj[v]
            if u != v
            and abs(dist[u] + lengths[eid] - dist[v]) <= graphs.DIST_RTOL * max(1.0, abs(dist[v]))
        ]
        pred_vertex[v], pred_edge[v] = min(tight)
    return graphs.ShortestPathTree(
        source=source, dist=dist, pred_vertex=pred_vertex, pred_edge=pred_edge
    )


# -- independent sampling oracles -----------------------------------------------


def scalar_fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Textbook Fisher-Yates: one rng.integers(0, i + 1) call per step."""
    p = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        p[i], p[j] = p[j], p[i]
    return p


def reference_random_regular(m: int, d: int, seed: int, tries: int = 3000):
    """Configuration model that shuffles every stub before looking at a pair.

    Returns (sorted edge list, attempts used); raises graphs.GraphError with
    the library's message when no attempt in `tries` is simple.
    """
    stubs = np.repeat(np.arange(m), d)
    for attempt in range(tries):
        rng = np.random.default_rng((int(seed), attempt))
        pairs = stubs[scalar_fisher_yates(rng, stubs.size)].reshape(-1, 2)
        edges = sorted((min(a, b), max(a, b)) for a, b in pairs.tolist())
        if any(a == b for a, b in edges) or len(set(edges)) < len(edges):
            continue
        return edges, attempt + 1
    raise graphs.GraphError(
        f"configuration model failed after {tries} tries for m={m}, d={d}; "
        "try a larger m or smaller d"
    )


# -- one-terminal-at-a-time CKR oracle ------------------------------------------


def reference_ckr_round(inst, delta, seed: int) -> np.ndarray:
    """CKR rounding that tests one terminal column at a time.

    Same draws as the library (r first, then the permutation, here from the
    scalar Fisher-Yates); every still-unassigned vertex joins the first
    terminal in permutation order within r times its nearest-terminal
    distance, and leftovers go to the nearest terminal.
    """
    rng = np.random.default_rng(int(seed))
    r = 1.0 + float(rng.random())
    k = inst.k
    perm = scalar_fisher_yates(rng, k)

    n = inst.vertex_count
    all_v = np.arange(n, dtype=np.int64)
    if getattr(delta, "dx", None) is not None:
        a_min = np.concatenate([delta.dx.min(axis=1) + delta.big_l, np.zeros(delta.k)])
    else:
        a_min = np.full(n, np.inf)
        for t in inst.terminals:
            col = delta.pair_values(all_v, np.full(n, int(t), dtype=np.int64))
            np.minimum(a_min, col, out=a_min)

    f = np.full(n, -1, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    unassigned = inst.term_index < 0
    bound = r * a_min
    for tpos in perm:
        if not unassigned.any():
            break
        t_vertex = int(inst.terminals[tpos])
        col = delta.pair_values(all_v, np.full(n, t_vertex, dtype=np.int64))
        take = unassigned & (col <= bound)
        f[take] = t_vertex
        unassigned &= ~take
    if unassigned.any():
        for v in np.flatnonzero(unassigned):
            col = delta.pair_values(
                np.full(k, v, dtype=np.int64), inst.terminals.astype(np.int64)
            )
            f[v] = int(inst.terminals[int(np.argmin(col))])
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
    base = graphs.random_regular(n, d, seed=seed)
    fiber = graphs.random_regular(fiber_n, 3, seed=seed + 1)
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
    """Labeled base and fiber so certificates run in generator mode."""
    base = graphs.build_cayley([3, 3], [(1, 0), (0, 1)])
    fiber = graphs.build_cayley([8], [(1,), (3,)])
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
    """Seeded split candidates spanning labeled/unlabeled modes and both
    tight and wandering path geometries."""
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
