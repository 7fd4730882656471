"""Representative extraction and verification of the split conditions.

A split candidate is two maps plus three parameters: the representative of
each kept cloud, one canonical shortest path per kept base edge, and the
alpha, epsilon and threshold it was built with.  The kept subgraph is the
maps' keys.  The verifier re-checks the four conditions (size,
cycle-homeomorphism, distance, closeness) independently of how the candidate
was built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .extension import ExtendedGraph, extension_rows, flatten, project, project_path
from .graphs import Graph, shortest_path_rows, single_source_shortest_paths, uniform_lengths
from .instance import ZeroExtInstance
from .solvers import validate_labeling


class SplitError(ValueError):
    pass


@dataclass
class SplitCandidate:
    """A kept base subgraph as two maps, plus the parameters it was built with.

    rep_map sends each kept cloud to its representative, an extension vertex.
    path_assignment sends each kept base edge to the canonical shortest path
    between its endpoints' representatives, directed from the smaller cloud's;
    a single vertex when the representatives coincide.  The kept clouds and
    edges are the maps' keys, and n is the extension's cloud count.
    """

    rep_map: dict[int, int]
    path_assignment: dict[int, list[int]]
    alpha: float
    epsilon: float
    threshold: float

    @property
    def vertices(self) -> list[int]:
        """The kept clouds, ascending."""
        return sorted(self.rep_map)

    @property
    def edge_ids(self) -> list[int]:
        """The kept base edge ids, ascending."""
        return sorted(self.path_assignment)


@dataclass
class ConditionVerdict:
    passed: bool
    detail: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class SplitReport:
    conditions: dict[str, ConditionVerdict]

    @property
    def is_split(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def as_dict(self) -> dict:
        return {
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


# -- representative extraction -------------------------------------------------


def extract_representatives(
    inst: ZeroExtInstance, x: ExtendedGraph, f: np.ndarray, threshold: float
) -> dict[int, int]:
    """Cloud -> representative, over the clouds where one terminal receives
    at least threshold * |V_H| vertices.

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
    for g in range(x.cloud_count):
        block = f[g * nH : (g + 1) * nH]
        votes: dict[int, int] = {}
        for t in block:
            votes[int(t)] = votes.get(int(t), 0) + 1
        winner, count = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
        if count / nH >= threshold:
            reps[g] = winner - k  # terminal twin back in the extension
    return reps


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


def hop_rows(base: Graph, sources) -> np.ndarray:
    """Base hop counts from each of `sources`, one int row per source; -1
    where a vertex is unreachable."""
    rows = shortest_path_rows(base, uniform_lengths(base, 1.0), sources)
    return np.where(np.isfinite(rows), rows, -1).astype(np.int64)


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
    reps = extract_representatives(inst, x, f, threshold)
    hop_bound = math.floor(epsilon * math.log(x.cloud_count))
    ordered = sorted(reps)
    kept = {
        g: reps[g]
        for g, row in zip(ordered, hop_rows(x.base, ordered))
        if 0 <= row[project(x, reps[g])] <= hop_bound
    }

    pairs = [
        (eid, kept[g1], kept[g2])
        for eid, (g1, g2) in enumerate(x.base.edges)
        if g1 in kept and g2 in kept
    ]
    rows = extension_rows(x, [r1 for _, r1, _ in pairs])
    flat = flatten(x)
    trees: dict[int, object] = {}

    def tree_for(source: int):
        if source not in trees:
            trees[source] = single_source_shortest_paths(
                flat.graph, flat.lengths, source, rows[source], flat.length_list()
            )
        return trees[source]

    paths: dict[int, list[int]] = {}
    for eid, r1, r2 in pairs:
        if float(rows[r1][r2]) < alpha:
            paths[eid] = [r1] if r1 == r2 else tree_for(r1).path_vertices(r2)
    return SplitCandidate(
        rep_map=kept,
        path_assignment=paths,
        alpha=float(alpha),
        epsilon=float(epsilon),
        threshold=float(threshold),
    )


# -- cycle-homeomorphism ------------------------------------------------------------


def check_cycle_homeomorphism(
    f_tilde: dict[int, int], paths: dict[int, list[int]], base: Graph
) -> tuple[bool, np.ndarray | None]:
    """Does the per-edge path assignment reproduce every simple cycle?

    The subgraph has the keys of f_tilde as its vertices and the keys of
    paths as its base edge ids.  paths[eid] is a base-vertex walk between
    f_tilde of the edge's endpoints (smaller endpoint first).  The verdict is computed on a fundamental cycle
    basis of the subgraph only; by GF(2) linearity of the odd-occurrence map
    this is equivalent to checking every simple cycle.  Returns the verdict
    and, on failure, one offending basis cycle as a base-edge parity vector.

    Walks may revisit edges; parity is counted per occurrence.  An endpoint
    mismatch between a walk and f_tilde is a structural error, not a verdict.
    """
    sub_edge_ids = sorted(paths)
    lookup = base.edge_lookup()
    parity: dict[int, np.ndarray] = {}
    for eid in sub_edge_ids:
        u, v = base.edges[eid]
        if u not in f_tilde or v not in f_tilde:
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
    edge_ids = c.edge_ids

    need = (1.0 - c.epsilon) * n_edges
    size_ok = len(edge_ids) + 1e-12 >= need
    conditions["size"] = ConditionVerdict(
        passed=bool(size_ok),
        detail=f"kept {len(edge_ids)} of {n_edges} base edges, need >= {need:.6g}",
    )

    ends = [(c.rep_map[g1], c.rep_map[g2]) for g1, g2 in (x.base.edges[eid] for eid in edge_ids)]
    rows = extension_rows(x, [r1 for r1, _ in ends])
    distance_witnesses = []
    for eid, (r1, r2) in zip(edge_ids, ends):
        d = float(rows[r1][r2])
        if not d < c.alpha:
            distance_witnesses.append({"edge": eid, "distance": d})
    conditions["distance"] = ConditionVerdict(
        passed=not distance_witnesses,
        detail=f"bound alpha = {c.alpha}",
        witnesses=distance_witnesses,
    )

    hop_bound = math.floor(c.epsilon * math.log(x.cloud_count))
    closeness_witnesses = []
    vertices = c.vertices
    for g, row in zip(vertices, hop_rows(x.base, vertices)):
        hops = int(row[project(x, c.rep_map[g])])
        if hops < 0 or hops > hop_bound:
            closeness_witnesses.append({"cloud": g, "hops": hops})
    conditions["closeness"] = ConditionVerdict(
        passed=not closeness_witnesses,
        detail=f"hop bound = {hop_bound}",
        witnesses=closeness_witnesses,
    )

    f_tilde = {g: project(x, r) for g, r in c.rep_map.items()}
    projected = {
        eid: project_path(x, c.path_assignment[eid])[0] for eid in edge_ids
    }
    ok, witness = check_cycle_homeomorphism(f_tilde, projected, x.base)
    conditions["cycle_homeomorphism"] = ConditionVerdict(
        passed=bool(ok),
        detail="checked on a fundamental cycle basis of the subgraph",
        witnesses=[] if witness is None else [np.flatnonzero(witness).tolist()],
    )
    return SplitReport(conditions=conditions)
