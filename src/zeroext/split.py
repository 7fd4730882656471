"""Representative extraction and verification of the split conditions.

A split candidate packages a base subgraph, a representative map from clouds
into the extension, and one canonical shortest path per kept base edge.  The
verifier re-checks the four conditions (size, cycle-homeomorphism, distance,
closeness) independently of how the candidate was built.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .extension import ExtendedGraph, extension_metric, flatten, project, project_path
from .graphs import Graph, single_source_shortest_paths
from .instance import ZeroExtInstance
from .solvers import validate_labeling


class SplitError(ValueError):
    pass


@dataclass
class SplitCandidate:
    base_vertex_count: int
    vertices: list[int]              # clouds kept in the subgraph
    edge_ids: list[int]              # base edge ids kept in the subgraph
    rep_map: dict[int, int]          # cloud -> representative (extension vertex)
    alpha: float
    epsilon: float
    threshold: float
    path_assignment: dict[int, list[int]] = field(default_factory=dict)
    # per kept base edge: canonical shortest path between representatives,
    # directed from the smaller-cloud endpoint; a single-vertex path when the
    # representatives coincide.


@dataclass
class ConditionVerdict:
    name: str
    passed: bool
    detail: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class SplitReport:
    conditions: dict[str, ConditionVerdict]

    @property
    def is_split(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_json(self) -> str:
        doc = {
            "is_split": self.is_split,
            "conditions": {
                name: {
                    "passed": c.passed,
                    "detail": c.detail,
                    "witnesses": c.witnesses[:20],
                    "witness_count": len(c.witnesses),
                }
                for name, c in self.conditions.items()
            },
        }
        return json.dumps(doc, indent=2)


# -- representative extraction -------------------------------------------------


def extract_representatives(
    inst: ZeroExtInstance, x: ExtendedGraph, f: np.ndarray, threshold: float
) -> tuple[set[int], dict[int, int]]:
    """Clouds where one terminal receives at least threshold * |V_H| vertices.

    The representative of such a cloud is the non-terminal twin of the winning
    terminal.  threshold must exceed 1/2 so the winner is unique.
    """
    if not threshold > 0.5:
        raise SplitError(f"threshold must exceed 1/2, got {threshold}")
    _check_pair(inst, x)
    f = validate_labeling(f, inst)
    k = x.vertex_count
    nH = x.fiber_size
    reps: dict[int, int] = {}
    clouds: set[int] = set()
    for g in range(x.cloud_count):
        block = f[g * nH : (g + 1) * nH]
        votes: dict[int, int] = {}
        for t in block:
            votes[int(t)] = votes.get(int(t), 0) + 1
        winner, count = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
        if count / nH >= threshold:
            clouds.add(g)
            reps[g] = winner - k  # terminal twin back in the extension
    return clouds, reps


def _check_pair(inst: ZeroExtInstance, x: ExtendedGraph):
    if not inst.is_gap or inst.k != x.vertex_count:
        raise SplitError("instance was not built from this extension")


def per_cloud_labeling(inst: ZeroExtInstance, x: ExtendedGraph, targets) -> np.ndarray:
    """Labeling that sends every cloud wholesale to one terminal.

    targets: either a single fiber vertex id used in every cloud (cloud g goes
    to the terminal twin of (g, targets)), or a dict cloud -> extension vertex.
    """
    _check_pair(inst, x)
    if not isinstance(targets, dict) and not 0 <= int(targets) < x.fiber_size:
        raise SplitError(f"fiber vertex {int(targets)} outside [0, {x.fiber_size})")
    k = x.vertex_count
    f = np.empty(inst.vertex_count, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    for g in range(x.cloud_count):
        if isinstance(targets, dict):
            target = int(targets[g])
        else:
            target = g * x.fiber_size + int(targets)
        f[g * x.fiber_size : (g + 1) * x.fiber_size] = k + target
    return f


# -- candidate construction ------------------------------------------------------


def hop_distances(base: Graph, source: int) -> np.ndarray:
    dist = np.full(base.vertex_count, -1, dtype=np.int64)
    dist[source] = 0
    q = deque([source])
    adj = base.adjacency()
    while q:
        u = q.popleft()
        for w, _ in adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def build_split_candidate(
    inst: ZeroExtInstance,
    x: ExtendedGraph,
    f: np.ndarray,
    alpha: float,
    epsilon: float,
    threshold: float,
) -> SplitCandidate:
    """Assemble the candidate: close representatives, filtered edges, canonical paths.

    Keeps clouds whose representative lies at most floor(epsilon * ln n) base
    hops away, and base edges whose representatives are strictly closer than
    alpha in the extension metric.
    """
    _check_pair(inst, x)
    clouds, reps = extract_representatives(inst, x, f, threshold)
    n = x.cloud_count
    hop_bound = math.floor(epsilon * math.log(n))
    kept_vertices = []
    for g in sorted(clouds):
        target = project(x, reps[g])
        hops = int(hop_distances(x.base, g)[target])
        if 0 <= hops <= hop_bound:
            kept_vertices.append(g)
    kept_set = set(kept_vertices)

    dx = extension_metric(x)
    flat = flatten(x)
    trees: dict[int, object] = {}

    def tree_for(source: int):
        if source not in trees:
            trees[source] = single_source_shortest_paths(
                flat.graph, flat.lengths, source, dx[source]
            )
        return trees[source]

    kept_edges = []
    paths: dict[int, list[int]] = {}
    for eid, (g1, g2) in enumerate(x.base.edges):
        if g1 not in kept_set or g2 not in kept_set:
            continue
        r1, r2 = reps[g1], reps[g2]
        if float(dx[r1, r2]) < alpha:
            kept_edges.append(eid)
            paths[eid] = [r1] if r1 == r2 else tree_for(r1).path_vertices(r2)
    return SplitCandidate(
        base_vertex_count=n,
        vertices=kept_vertices,
        edge_ids=kept_edges,
        rep_map={g: reps[g] for g in kept_vertices},
        alpha=float(alpha),
        epsilon=float(epsilon),
        threshold=float(threshold),
        path_assignment=paths,
    )


# -- cycle-homeomorphism ------------------------------------------------------------


def check_cycle_homeomorphism(
    f_tilde: dict[int, int],
    paths: dict[int, list[int]],
    base: Graph,
    sub_vertices,
    sub_edge_ids,
) -> tuple[bool, np.ndarray | None]:
    """Does the per-edge path assignment reproduce every simple cycle?

    paths[eid] is a base-vertex walk between f_tilde of the edge's endpoints
    (smaller endpoint first).  The verdict is computed on a fundamental cycle
    basis of the subgraph only; by GF(2) linearity of the odd-occurrence map
    this is equivalent to checking every simple cycle.  Returns the verdict
    and, on failure, one offending basis cycle as a base-edge parity vector.

    Walks may revisit edges; parity is counted per occurrence.  An endpoint
    mismatch between a walk and f_tilde is a structural error, not a verdict.
    """
    sub_vertices = set(int(v) for v in sub_vertices)
    sub_edge_ids = [int(e) for e in sub_edge_ids]
    lookup = base.edge_lookup()
    parity: dict[int, np.ndarray] = {}
    for eid in sub_edge_ids:
        u, v = base.edges[eid]
        if u not in sub_vertices or v not in sub_vertices:
            raise SplitError(f"subgraph edge {eid} leaves the subgraph vertex set")
        walk = paths[eid]
        if walk[0] != f_tilde[u] or walk[-1] != f_tilde[v]:
            raise SplitError(
                f"path for edge {eid} runs {walk[0]}..{walk[-1]}, expected "
                f"{f_tilde[u]}..{f_tilde[v]}"
            )
        vec = np.zeros(base.edge_count, dtype=np.uint8)
        for a, b in zip(walk, walk[1:]):
            step = lookup.get((min(a, b), max(a, b)))
            if step is None:
                raise SplitError(f"walk for edge {eid} uses non-edge ({a}, {b})")
            vec[step] ^= 1
        parity[eid] = vec

    sub = Graph(vertex_count=base.vertex_count, edges=[base.edges[e] for e in sub_edge_ids])
    for cyc in gf2.cycle_basis(sub):
        odd = np.zeros(base.edge_count, dtype=np.uint8)
        want = np.zeros(base.edge_count, dtype=np.uint8)
        for pos in np.flatnonzero(cyc):
            eid = sub_edge_ids[int(pos)]
            odd ^= parity[eid]
            want[eid] ^= 1
        if not np.array_equal(odd, want):
            return False, want
    return True, None


# -- verification ----------------------------------------------------------------


def verify_split(c: SplitCandidate, x: ExtendedGraph) -> SplitReport:
    """Evaluate all four split conditions, with witnesses for each failure."""
    conditions: dict[str, ConditionVerdict] = {}
    n_edges = x.base.edge_count

    need = (1.0 - c.epsilon) * n_edges
    size_ok = len(c.edge_ids) + 1e-12 >= need
    conditions["size"] = ConditionVerdict(
        name="size",
        passed=bool(size_ok),
        detail=f"kept {len(c.edge_ids)} of {n_edges} base edges, need >= {need:.6g}",
    )

    dx = extension_metric(x)
    distance_witnesses = []
    for eid in c.edge_ids:
        g1, g2 = x.base.edges[eid]
        d = float(dx[c.rep_map[g1], c.rep_map[g2]])
        if not d < c.alpha:
            distance_witnesses.append({"edge": eid, "distance": d})
    conditions["distance"] = ConditionVerdict(
        name="distance",
        passed=not distance_witnesses,
        detail=f"bound alpha = {c.alpha}",
        witnesses=distance_witnesses,
    )

    hop_bound = math.floor(c.epsilon * math.log(c.base_vertex_count))
    closeness_witnesses = []
    for g in c.vertices:
        target = project(x, c.rep_map[g])
        hops = int(hop_distances(x.base, g)[target])
        if hops < 0 or hops > hop_bound:
            closeness_witnesses.append({"cloud": g, "hops": hops})
    conditions["closeness"] = ConditionVerdict(
        name="closeness",
        passed=not closeness_witnesses,
        detail=f"hop bound = {hop_bound}",
        witnesses=closeness_witnesses,
    )

    f_tilde = {g: project(x, r) for g, r in c.rep_map.items()}
    projected = {
        eid: project_path(x, c.path_assignment[eid])[0] for eid in c.edge_ids
    }
    ok, witness = check_cycle_homeomorphism(
        f_tilde, projected, x.base, c.vertices, c.edge_ids
    )
    conditions["cycle_homeomorphism"] = ConditionVerdict(
        name="cycle_homeomorphism",
        passed=bool(ok),
        detail="checked on a fundamental cycle basis of the subgraph",
        witnesses=[] if witness is None else [np.flatnonzero(witness).tolist()],
    )
    return SplitReport(conditions=conditions)
