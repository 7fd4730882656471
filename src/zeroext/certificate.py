"""Path anonymization, inner component graphs, certificates, and reconstruction.

Pipeline: the canonical shortest paths between representatives of adjacent
kept clouds are anonymized into index/label form (formal transformation);
their per-cloud intra components of degree >= 3, or containing a path
endpoint, become the vertices of the inner component graph R, whose edges are
the transit subpaths between them.  A certificate packages the kept subgraph,
per-component representations, the label skeleton of the transformed paths,
and the representative identities; R is reconstructible from the certificate
alone, without the sampled matchings.

Label modes: 'gen' when the relevant side is a labeled Cayley graph (relative
positions inside a cloud are start-independent group elements), 'edge'
otherwise (edge-id steps; each representation then anchors one true fiber
identity so relative positions can be evaluated in the public fiber graph).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from . import gf2
from .extension import EdgeLabel, ExtendedGraph, edge_label, extension_metric, flatten, project
from .graphs import Graph, single_source_shortest_paths
from .split import SplitCandidate, verify_split

Ind = tuple[int, int]  # (cloud, running index) as assigned by the transformation


class CertificateError(ValueError):
    pass


# -- label helpers -------------------------------------------------------------


def _invert_label(lab: EdgeLabel, base: Graph, fiber: Graph) -> EdgeLabel:
    if lab.scheme == "edge":
        return EdgeLabel(lab.kind, "edge", lab.value, -lab.direction)
    g = fiber if lab.kind == "intra" else base
    return EdgeLabel(lab.kind, "gen", g.generator_inverse[lab.value], 0)


def _label_ser(lab: EdgeLabel) -> tuple:
    return (lab.kind, lab.scheme, int(lab.value), int(lab.direction))


def _label_unser(t) -> EdgeLabel:
    return EdgeLabel(str(t[0]), str(t[1]), int(t[2]), int(t[3]))


def _apply_cloud(g_cur: int, lab: EdgeLabel, base: Graph) -> int:
    """Cloud reached by traversing an inter label from cloud g_cur."""
    if lab.kind != "inter":
        return g_cur
    if lab.scheme == "gen":
        el = base.group.elements()[g_cur]
        return base.group.index(base.group.mul(el, base.generator_codes[lab.value]))
    u, v = base.edges[lab.value]
    if lab.direction == 1 and g_cur == u:
        return v
    if lab.direction == -1 and g_cur == v:
        return u
    raise CertificateError(
        f"inter step (base edge {lab.value}={base.edges[lab.value]}, "
        f"dir {lab.direction}) does not apply in cloud {g_cur}"
    )


def _apply_fiber(h_cur: int, lab: EdgeLabel, fiber: Graph) -> int:
    """Fiber vertex reached by an intra label from fiber vertex h_cur."""
    if lab.scheme == "gen":
        el = fiber.group.elements()[h_cur]
        return fiber.group.index(fiber.group.mul(el, fiber.generator_codes[lab.value]))
    u, v = fiber.edges[lab.value]
    if lab.direction == 1 and h_cur == u:
        return v
    if lab.direction == -1 and h_cur == v:
        return u
    raise CertificateError(
        f"intra step (edge {lab.value}, dir {lab.direction}) does not apply at "
        f"fiber vertex {h_cur}"
    )


# -- formal transformation -------------------------------------------------------


@dataclass
class QPath:
    verts: list[Ind]
    labels: list[EdgeLabel]


@dataclass
class FormalTransformation:
    paths: list[QPath]
    ind: dict[int, Ind]          # extension vertex -> assigned index
    base: Graph
    fiber: Graph
    fiber_size: int

    def ind_inverse(self) -> dict[Ind, int]:
        return {v: k for k, v in self.ind.items()}

    def cloud_occupancy(self) -> dict[int, int]:
        occ: dict[int, int] = {}
        for g, _ in self.ind.values():
            occ[g] = occ.get(g, 0) + 1
        return occ

    def max_cloud_occupancy(self) -> int:
        occ = self.cloud_occupancy()
        return max(occ.values()) if occ else 0


def formal_transform(paths: list[list[int]], x: ExtendedGraph) -> FormalTransformation:
    """Anonymize walks: per-cloud first-exposure indices, directed edge labels.

    Indices are assigned sequentially within each cloud in the order vertices
    are first seen, scanning paths in order and each path front to back; a
    vertex shared by several paths keeps one index.
    """
    flat = flatten(x)
    lookup = flat.graph.edge_lookup()
    counters = [1] * x.cloud_count
    ind: dict[int, Ind] = {}

    def expose(v: int) -> Ind:
        got = ind.get(v)
        if got is None:
            g = project(x, v)
            got = (g, counters[g])
            counters[g] += 1
            ind[v] = got
        return got

    qpaths: list[QPath] = []
    for path in paths:
        if not path:
            raise CertificateError("paths must contain at least one vertex")
        verts = [expose(path[0])]
        labels: list[EdgeLabel] = []
        for a, b in zip(path, path[1:]):
            eid = lookup.get((min(a, b), max(a, b)))
            if eid is None:
                raise CertificateError(f"walk step ({a}, {b}) is not an extension edge")
            labels.append(edge_label(x, eid, a))
            verts.append(expose(b))
        qpaths.append(QPath(verts=verts, labels=labels))
    return FormalTransformation(
        paths=qpaths, ind=ind, base=x.base, fiber=x.fiber, fiber_size=x.fiber_size
    )


def reconstruct_paths(
    ft: FormalTransformation,
    x: ExtendedGraph,
    endpoint_identities: dict[int, tuple[str, int]],
) -> list[list[int]]:
    """Invert the transformation given one true endpoint identity per path.

    endpoint_identities maps path position -> ("start" | "end", extension
    vertex).  Walk labels plus the sampled matchings determine every
    successive identity; the first step whose claimed index contradicts an
    already-resolved identity raises, naming the path and step.
    """
    from .extension import traverse_inter, vertex_id

    base_lookup = x.base.edge_lookup()
    resolved: dict[Ind, int] = {}
    out: list[list[int]] = [None] * len(ft.paths)

    def bind(pidx: int, step: int, index: Ind, vertex: int):
        prev = resolved.get(index)
        if prev is not None and prev != vertex:
            raise CertificateError(
                f"path {pidx} step {step}: index {index} already resolved to "
                f"vertex {prev}, walk now demands {vertex}"
            )
        if index[0] != project(x, vertex):
            raise CertificateError(
                f"path {pidx} step {step}: index {index} names cloud {index[0]} "
                f"but the walk sits in cloud {project(x, vertex)}"
            )
        resolved[index] = vertex

    for pidx, qpath in enumerate(ft.paths):
        if pidx not in endpoint_identities:
            raise CertificateError(f"no endpoint identity given for path {pidx}")
        which, vertex = endpoint_identities[pidx]
        if which == "start":
            order = range(len(qpath.labels))
            verts = qpath.verts
            labels = qpath.labels
        elif which == "end":
            verts = qpath.verts[::-1]
            labels = [_invert_label(l, x.base, x.fiber) for l in qpath.labels[::-1]]
            order = range(len(labels))
        else:
            raise CertificateError(f"endpoint position must be start or end, got {which}")
        cur = int(vertex)
        walk = [cur]
        bind(pidx, 0, verts[0], cur)
        for j in order:
            lab = labels[j]
            try:
                if lab.kind == "intra":
                    g = project(x, cur)
                    h = _apply_fiber(cur % x.fiber_size, lab, x.fiber)
                    cur = vertex_id(x, g, h)
                else:
                    g2 = _apply_cloud(project(x, cur), lab, x.base)
                    if lab.scheme == "gen":
                        beid = base_lookup.get((min(project(x, cur), g2), max(project(x, cur), g2)))
                        if beid is None:
                            raise CertificateError("label names a non-existent base edge")
                    else:
                        beid = lab.value
                    cur = traverse_inter(x, beid, cur)
            except (KeyError, CertificateError) as exc:
                raise CertificateError(f"path {pidx} step {j}: {exc}") from None
            walk.append(cur)
            bind(pidx, j + 1, verts[j + 1], cur)
        out[pidx] = walk if which == "start" else walk[::-1]
    return out


# -- inner connected components ----------------------------------------------------


@dataclass
class InnerComponent:
    comp_id: int
    cloud: int
    members: list[Ind]           # all indices when built; distinguished only after
                                 # reconstruction (members_complete says which)
    distinguished: list[Ind]
    degree: int
    has_representative: bool


@dataclass
class Transit:
    comp_a: int
    comp_b: int
    end_inds: tuple[Ind, Ind]    # exit vertex in comp_a, entry vertex in comp_b
    labels: list[EdgeLabel]      # canonical (lex-min) direction
    last_base_edge: int          # base edge of the final inter step, canonical direction

    def signature(self) -> tuple:
        return (self.end_inds[0], tuple(_label_ser(l) for l in self.labels))


@dataclass
class ICCGraph:
    components: list[InnerComponent]        # R vertices, in component-id order
    r_graph: Graph                          # multigraph over component positions
    transits: list[Transit]                 # parallel to r_graph.edges
    surprising: set[tuple[Ind, Ind]]        # undirected index pairs of inter edges
    s_tot: int
    members_complete: bool
    non_inner: list[dict] = field(default_factory=list)  # diagnostics only

    def canonical_form(self) -> tuple:
        keys = {c.comp_id: tuple(sorted(c.distinguished)) for c in self.components}
        verts = tuple(sorted(keys.values()))
        edges = []
        for t in self.transits:
            a, b = keys[t.comp_a], keys[t.comp_b]
            lo, hi = min(a, b), max(a, b)
            edges.append((lo, hi, t.signature(), t.last_base_edge))
        return (verts, tuple(sorted(edges)))


def _canonical_transit(
    first: Ind, last: Ind, labels: list[EdgeLabel], base: Graph, fiber: Graph
) -> tuple[tuple[Ind, Ind], list[EdgeLabel]]:
    """Direction-normalize a transit: keep the lex-smaller directed serialization."""
    fwd = (first, tuple(_label_ser(l) for l in labels))
    rev_labels = [_invert_label(l, base, fiber) for l in labels[::-1]]
    bwd = (last, tuple(_label_ser(l) for l in rev_labels))
    if fwd <= bwd:
        return (first, last), list(labels)
    return (last, first), rev_labels


def _transit_last_base_edge(start_cloud: int, labels: list[EdgeLabel], base: Graph) -> int:
    g = start_cloud
    last = -1
    for lab in labels:
        if lab.kind == "inter":
            g_next = _apply_cloud(g, lab, base)
            if lab.scheme == "edge":
                last = lab.value
            else:
                last = base.edge_lookup()[(min(g, g_next), max(g, g_next))]
            g = g_next
    if last < 0:
        raise CertificateError("transit contains no inter-cloud step")
    return int(last)


def inner_components(ft: FormalTransformation) -> ICCGraph:
    """Per-cloud components of the intra edges, filtered to the inner ones,
    plus the transit multigraph R between them.

    A component is inner when its degree (count of distinct incident
    inter-cloud edges) is at least three or it contains a path endpoint.
    Transits are deduplicated by undirected content, so a subpath shared by
    several walks yields one R edge and s_tot = 2 |E_R| holds exactly.
    """
    intra_adj = _intra_adjacency(ft)
    inter_edges: dict[tuple[Ind, Ind], None] = {}
    all_inds: set[Ind] = set()
    endpoints: set[Ind] = set()
    for qpath in ft.paths:
        all_inds.update(qpath.verts)
        endpoints.add(qpath.verts[0])
        endpoints.add(qpath.verts[-1])
        for j, lab in enumerate(qpath.labels):
            if lab.kind != "intra":
                u, v = qpath.verts[j], qpath.verts[j + 1]
                inter_edges.setdefault((min(u, v), max(u, v)))

    comp_of: dict[Ind, int] = {}
    comp_members: list[list[Ind]] = []
    for start in sorted(all_inds):
        if start in comp_of:
            continue
        cid = len(comp_members)
        members = []
        q = deque([start])
        comp_of[start] = cid
        while q:
            u = q.popleft()
            members.append(u)
            for w in intra_adj.get(u, {}):
                if w not in comp_of:
                    comp_of[w] = cid
                    q.append(w)
        comp_members.append(sorted(members))

    degree = [0] * len(comp_members)
    for (u, v) in inter_edges:
        degree[comp_of[u]] += 1
        degree[comp_of[v]] += 1
    has_rep = [False] * len(comp_members)
    for e in endpoints:
        has_rep[comp_of[e]] = True
    inner_flag = [degree[c] >= 3 or has_rep[c] for c in range(len(comp_members))]

    # Transit scan: segments of each path between consecutive inner positions.
    inner_ids = [c for c in range(len(comp_members)) if inner_flag[c]]
    inner_pos_of = {c: i for i, c in enumerate(inner_ids)}
    transits: list[Transit] = []
    seen: dict[tuple, int] = {}
    surprising: set[tuple[Ind, Ind]] = set()
    for qpath in ft.paths:
        inner_positions = [
            p for p, v in enumerate(qpath.verts) if inner_flag[comp_of[v]]
        ]
        if not inner_positions or inner_positions[0] != 0 or inner_positions[-1] != len(qpath.verts) - 1:
            raise CertificateError("path endpoints must lie in inner components")
        for a, b in zip(inner_positions, inner_positions[1:]):
            if b == a + 1 and comp_of[qpath.verts[a]] == comp_of[qpath.verts[b]]:
                continue  # intra step inside one inner component
            seg_verts = qpath.verts[a : b + 1]
            seg_labels = qpath.labels[a:b]
            ends, canon = _canonical_transit(
                seg_verts[0], seg_verts[-1], seg_labels, ft.base, ft.fiber
            )
            key = (ends[0], tuple(_label_ser(l) for l in canon))
            first = (min(seg_verts[0], seg_verts[1]), max(seg_verts[0], seg_verts[1]))
            last = (min(seg_verts[-2], seg_verts[-1]), max(seg_verts[-2], seg_verts[-1]))
            surprising.add(first)
            surprising.add(last)
            if key in seen:
                continue
            seen[key] = len(transits)
            transits.append(
                Transit(
                    comp_a=inner_pos_of[comp_of[ends[0]]],
                    comp_b=inner_pos_of[comp_of[ends[1]]],
                    end_inds=ends,
                    labels=canon,
                    last_base_edge=_transit_last_base_edge(ends[0][0], canon, ft.base),
                )
            )

    s_tot = sum(degree[c] for c in inner_ids)
    if s_tot != 2 * len(transits):
        raise CertificateError(
            f"internal inconsistency: s_tot={s_tot} but R has {len(transits)} edges"
        )

    touched: dict[int, set[Ind]] = {c: set() for c in inner_ids}
    for (u, v) in surprising:
        for w in (u, v):
            c = comp_of[w]
            if inner_flag[c]:
                touched[c].add(w)
    components = []
    for pos, c in enumerate(inner_ids):
        distinguished = sorted(
            set(e for e in comp_members[c] if e in endpoints) | touched[c]
        )
        if not distinguished:
            raise CertificateError("inner component with no distinguished vertex")
        components.append(
            InnerComponent(
                comp_id=pos,
                cloud=comp_members[c][0][0],
                members=list(comp_members[c]),
                distinguished=distinguished,
                degree=degree[c],
                has_representative=has_rep[c],
            )
        )
    non_inner = [
        {
            "cloud": comp_members[c][0][0],
            "size": len(comp_members[c]),
            "degree": degree[c],
            "intra_edges": sum(
                1
                for u in comp_members[c]
                for w in intra_adj.get(u, {})
                if u < w
            ),
        }
        for c in range(len(comp_members))
        if not inner_flag[c]
    ]
    r_graph = Graph(
        vertex_count=len(inner_ids),
        edges=[(t.comp_a, t.comp_b) for t in transits],
        multigraph=True,
    )
    return ICCGraph(
        components=components,
        r_graph=r_graph,
        transits=transits,
        surprising=surprising,
        s_tot=s_tot,
        members_complete=True,
        non_inner=non_inner,
    )


# -- skeleton ------------------------------------------------------------------


@dataclass
class SkeletonPath:
    length: int                  # vertex count
    labels: list[EdgeLabel]
    kept: dict[int, Ind]         # position -> retained index


def skeleton(ft: FormalTransformation, icc: ICCGraph) -> list[SkeletonPath]:
    """Strip indices except path endpoints and first-occurrence entries into
    inner components (targets of surprising edges)."""
    inner_inds: set[Ind] = set()
    for comp in icc.components:
        inner_inds.update(comp.members)
    seen_edges: set[tuple[Ind, Ind]] = set()
    out = []
    for qpath in ft.paths:
        kept = {0: qpath.verts[0], len(qpath.verts) - 1: qpath.verts[-1]}
        for j in range(len(qpath.labels)):
            u, v = qpath.verts[j], qpath.verts[j + 1]
            key = (min(u, v), max(u, v))
            if (
                key in icc.surprising
                and v in inner_inds
                and key not in seen_edges
            ):
                kept[j + 1] = v
            seen_edges.add(key)
        out.append(SkeletonPath(length=len(qpath.verts), labels=list(qpath.labels), kept=kept))
    return out


# -- component representations ----------------------------------------------------


@dataclass
class ComponentRepresentation:
    cloud: int
    distinguished: list[Ind]
    diffs: dict[tuple[Ind, Ind], tuple]   # ordered pair -> group element ('gen'
                                          # fiber mode) or intra step sequence
    anchor_identity: int | None           # fiber vertex of distinguished[0],
                                          # present only in 'edge' fiber mode


def _intra_adjacency(ft: FormalTransformation) -> dict[Ind, dict[Ind, EdgeLabel]]:
    adj: dict[Ind, dict[Ind, EdgeLabel]] = {}
    for qpath in ft.paths:
        for j, lab in enumerate(qpath.labels):
            if lab.kind != "intra":
                continue
            u, v = qpath.verts[j], qpath.verts[j + 1]
            adj.setdefault(u, {}).setdefault(v, lab)
            adj.setdefault(v, {}).setdefault(u, _invert_label(lab, ft.base, ft.fiber))
    return adj


def _label_mode(g: Graph) -> str:
    return "gen" if g.labels is not None else "edge"


def representations(ft: FormalTransformation, icc: ICCGraph) -> list[ComponentRepresentation]:
    """Distinguished vertices of every inner component, plus their pairwise
    relative positions (all ordered pairs; redundant but faithful)."""
    adj = _intra_adjacency(ft)
    mode = _label_mode(ft.fiber)
    inv = ft.ind_inverse() if mode == "edge" else None
    out = []
    for comp in icc.components:
        diffs: dict[tuple[Ind, Ind], tuple] = {}
        for a in comp.distinguished:
            reached = _walk_diffs(a, adj, ft.fiber, mode)
            for b in comp.distinguished:
                if b == a:
                    continue
                if b not in reached:
                    raise CertificateError(
                        f"distinguished vertices {a} and {b} are not intra-connected"
                    )
                diffs[(a, b)] = reached[b]
        anchor = None
        if mode == "edge":
            anchor = inv[comp.distinguished[0]] % ft.fiber_size
        out.append(
            ComponentRepresentation(
                cloud=comp.cloud,
                distinguished=list(comp.distinguished),
                diffs=diffs,
                anchor_identity=anchor,
            )
        )
    return out


def _walk_diffs(start: Ind, adj, fiber: Graph, mode: str) -> dict[Ind, tuple]:
    """BFS accumulation of relative positions from `start` over intra edges."""
    if mode == "gen":
        acc0: tuple = fiber.group.identity()
    else:
        acc0 = ()
    reached = {start: acc0}
    q = deque([start])
    while q:
        u = q.popleft()
        for w, lab in sorted(adj.get(u, {}).items()):
            if w in reached:
                continue
            if mode == "gen":
                reached[w] = fiber.group.mul(reached[u], fiber.generator_codes[lab.value])
            else:
                reached[w] = reached[u] + ((int(lab.value), int(lab.direction)),)
            q.append(w)
    return reached


# -- certificates ------------------------------------------------------------------


@dataclass
class Certificate:
    """Quadruplet sufficient to rebuild R: kept subgraph, component
    representations, label skeleton, representative identities.

    base and fiber are the public input graphs; the sampled matchings are
    deliberately absent and cannot be recovered from a certificate.
    """

    base_mode: str
    fiber_mode: str
    subgraph_vertices: list[int]
    subgraph_edges: list[tuple[int, int, int]]   # (base edge id, g1, g2), ascending
    representations: list[ComponentRepresentation]
    skeleton_paths: list[SkeletonPath]
    representatives: dict[int, int]              # cloud -> extension vertex
    base: Graph
    fiber: Graph
    fiber_size: int
    version: int = 1


def shortest_rep_paths(x: ExtendedGraph, c: SplitCandidate) -> list[list[int]]:
    """One canonical shortest path per kept base edge, ascending edge id,
    directed from the representative of the smaller-cloud endpoint."""
    flat = flatten(x)
    dx = extension_metric(x)
    trees: dict[int, object] = {}
    paths = []
    for eid in sorted(c.edge_ids):
        g1, g2 = x.base.edges[eid]
        r1, r2 = c.rep_map[g1], c.rep_map[g2]
        pre = c.path_assignment.get(eid)
        if pre is not None:
            if pre[0] != r1 or pre[-1] != r2:
                raise CertificateError(f"stored path for edge {eid} has wrong endpoints")
            paths.append(list(pre))
            continue
        if r1 == r2:
            paths.append([r1])
            continue
        if not math.isfinite(dx[r1, r2]):
            raise CertificateError(f"representatives of edge {eid} are disconnected")
        if r1 not in trees:
            trees[r1] = single_source_shortest_paths(flat.graph, flat.lengths, r1, dx[r1])
        paths.append(trees[r1].path_vertices(r2))
    return paths


def transform_pipeline(
    x: ExtendedGraph, c: SplitCandidate
) -> tuple[list[list[int]], FormalTransformation, ICCGraph]:
    paths = shortest_rep_paths(x, c)
    ft = formal_transform(paths, x)
    icc = inner_components(ft)
    return paths, ft, icc


def build_certificate(x: ExtendedGraph, c: SplitCandidate, *, force: bool = False) -> Certificate:
    """Assemble the certificate of a split candidate.

    The candidate is re-verified first; pass force=True to build diagnostic
    certificates from candidates that fail some split condition.
    """
    if not force:
        report = verify_split(c, x)
        if not report.is_split:
            failed = [n for n, v in report.conditions.items() if not v.passed]
            raise CertificateError(
                f"candidate fails split conditions {failed}; use force=True for diagnostics"
            )
    _, ft, icc = transform_pipeline(x, c)
    skel = skeleton(ft, icc)
    reps = representations(ft, icc)
    sub_edges = [
        (eid, x.base.edges[eid][0], x.base.edges[eid][1]) for eid in sorted(c.edge_ids)
    ]
    return Certificate(
        base_mode=_label_mode(x.base),
        fiber_mode=_label_mode(x.fiber),
        subgraph_vertices=sorted(c.vertices),
        subgraph_edges=sub_edges,
        representations=reps,
        skeleton_paths=skel,
        representatives={g: int(c.rep_map[g]) for g in sorted(c.rep_map)},
        base=x.base,
        fiber=x.fiber,
        fiber_size=x.fiber_size,
    )


# -- reconstruction -----------------------------------------------------------------


def reconstruct_r(cert: Certificate) -> ICCGraph:
    """Rebuild the inner component graph from the certificate alone.

    Replays the skeleton scan: inside a component the accumulated relative
    position identifies the exit vertex among the distinguished ones; transit
    subpaths are recognized by their start index and first label (in either
    direction) so re-traversals do not duplicate R edges.  Any inconsistency
    raises CertificateError, naming the path and step.
    """
    base, fiber = cert.base, cert.fiber
    comps = cert.representations
    comp_of_ind: dict[Ind, int] = {}
    for cid, rep in enumerate(comps):
        for ind in rep.distinguished:
            if ind in comp_of_ind:
                raise CertificateError(f"index {ind} distinguished in two components")
            comp_of_ind[ind] = cid

    # True identities of distinguished vertices, available in 'edge' fiber mode.
    ids: list[dict[Ind, int] | None] = [None] * len(comps)
    if cert.fiber_mode == "edge":
        for cid, rep in enumerate(comps):
            anchor = rep.distinguished[0]
            table = {anchor: int(rep.anchor_identity)}
            for w in rep.distinguished[1:]:
                h = int(rep.anchor_identity)
                for (e, d) in rep.diffs[(anchor, w)]:
                    h = _apply_fiber(h, EdgeLabel("intra", "edge", e, d), fiber)
                table[w] = h
            ids[cid] = table

    def entry_state(cid: int, v0: Ind):
        if cert.fiber_mode == "gen":
            return fiber.group.identity()
        return ids[cid][v0]

    def advance(cid: int, acc, lab: EdgeLabel):
        if cert.fiber_mode == "gen":
            return fiber.group.mul(acc, fiber.generator_codes[lab.value])
        return _apply_fiber(acc, lab, fiber)

    def resolve(cid: int, v0: Ind, acc, where: str) -> Ind:
        rep = comps[cid]
        if cert.fiber_mode == "gen":
            if acc == fiber.group.identity():
                return v0
            for w in rep.distinguished:
                if w != v0 and rep.diffs.get((v0, w)) == acc:
                    return w
        else:
            for w, h in ids[cid].items():
                if h == acc:
                    return w
        raise CertificateError(
            f"{where}: accumulated position matches no distinguished vertex of "
            f"component {cid}"
        )

    if len(cert.skeleton_paths) != len(cert.subgraph_edges):
        raise CertificateError("skeleton path count does not match the kept subgraph")

    transit_seen: dict[tuple, dict] = {}
    transits: list[Transit] = []
    rep_comps: set[int] = set()

    for pidx, (skelpath, (eid, g1, g2)) in enumerate(
        zip(cert.skeleton_paths, cert.subgraph_edges)
    ):
        labels = skelpath.labels
        kept = skelpath.kept
        start_ind = kept.get(0)
        end_ind = kept.get(skelpath.length - 1)
        if start_ind is None or end_ind is None:
            raise CertificateError(f"path {pidx}: endpoints missing from skeleton")
        if start_ind not in comp_of_ind or end_ind not in comp_of_ind:
            raise CertificateError(f"path {pidx}: endpoint index not in any component")
        r_start = cert.representatives[g1]
        r_end = cert.representatives[g2]
        if start_ind[0] != r_start // cert.fiber_size:
            raise CertificateError(f"path {pidx}: start cloud disagrees with representative")
        if end_ind[0] != r_end // cert.fiber_size:
            raise CertificateError(f"path {pidx}: end cloud disagrees with representative")
        cid = comp_of_ind[start_ind]
        rep_comps.add(cid)
        rep_comps.add(comp_of_ind[end_ind])
        if cert.fiber_mode == "edge" and ids[cid][start_ind] != r_start % cert.fiber_size:
            raise CertificateError(f"path {pidx}: start identity disagrees with representative")

        v0 = start_ind
        acc = entry_state(cid, v0)
        pos = 0
        while pos < len(labels):
            lab = labels[pos]
            if lab.kind == "intra":
                try:
                    acc = advance(cid, acc, lab)
                except (KeyError, CertificateError) as exc:
                    raise CertificateError(f"path {pidx} step {pos}: {exc}") from None
                pos += 1
                continue
            exit_ind = resolve(cid, v0, acc, f"path {pidx} step {pos}")
            key = (exit_ind, _label_ser(lab))
            rec = transit_seen.get(key)
            if rec is not None:
                seg = [_label_ser(l) for l in labels[pos : pos + rec["length"]]]
                if seg != rec["labels_ser"]:
                    raise CertificateError(
                        f"path {pidx} step {pos}: transit replay diverges from "
                        "its first traversal"
                    )
                pos += rec["length"]
                cid = rec["far_comp"]
                v0 = rec["far_ind"]
                acc = entry_state(cid, v0)
                continue
            # New transit: walk until a kept index lands in a component.
            seg_labels: list[EdgeLabel] = []
            j = pos
            g_walk = exit_ind[0]
            entry_ind = None
            while True:
                lab_j = labels[j]
                seg_labels.append(lab_j)
                if lab_j.kind == "inter":
                    try:
                        g_walk = _apply_cloud(g_walk, lab_j, base)
                    except (KeyError, CertificateError) as exc:
                        raise CertificateError(f"path {pidx} step {j}: {exc}") from None
                j += 1
                head = kept.get(j)
                if head is not None and head in comp_of_ind:
                    entry_ind = head
                    break
                if j >= len(labels):
                    raise CertificateError(f"path {pidx}: path ends inside a transit")
            if entry_ind[0] != g_walk:
                raise CertificateError(
                    f"path {pidx} step {j}: transit entry cloud {g_walk} does not "
                    f"match kept index {entry_ind}"
                )
            c2 = comp_of_ind[entry_ind]
            rev = [_invert_label(l, base, fiber) for l in seg_labels[::-1]]
            transit_seen[(exit_ind, _label_ser(seg_labels[0]))] = {
                "length": len(seg_labels),
                "labels_ser": [_label_ser(l) for l in seg_labels],
                "far_comp": c2,
                "far_ind": entry_ind,
            }
            transit_seen[(entry_ind, _label_ser(rev[0]))] = {
                "length": len(rev),
                "labels_ser": [_label_ser(l) for l in rev],
                "far_comp": cid,
                "far_ind": exit_ind,
            }
            ends, canon = _canonical_transit(exit_ind, entry_ind, seg_labels, base, fiber)
            transits.append(
                Transit(
                    comp_a=comp_of_ind[ends[0]],
                    comp_b=comp_of_ind[ends[1]],
                    end_inds=ends,
                    labels=canon,
                    last_base_edge=_transit_last_base_edge(ends[0][0], canon, base),
                )
            )
            pos = j
            cid = c2
            v0 = entry_ind
            acc = entry_state(cid, v0)
        final = resolve(cid, v0, acc, f"path {pidx} end")
        if final != end_ind:
            raise CertificateError(
                f"path {pidx}: walk ends at {final}, skeleton claims {end_ind}"
            )

    components = []
    degree = [0] * len(comps)
    for t in transits:
        degree[t.comp_a] += 1
        degree[t.comp_b] += 1
    for cid, rep in enumerate(comps):
        components.append(
            InnerComponent(
                comp_id=cid,
                cloud=rep.cloud,
                members=list(rep.distinguished),
                distinguished=list(rep.distinguished),
                degree=degree[cid],
                has_representative=cid in rep_comps,
            )
        )
    r_graph = Graph(
        vertex_count=len(comps),
        edges=[(t.comp_a, t.comp_b) for t in transits],
        multigraph=True,
    )
    return ICCGraph(
        components=components,
        r_graph=r_graph,
        transits=transits,
        surprising=set(),
        s_tot=2 * len(transits),
        members_complete=False,
    )


# -- diagnostics ---------------------------------------------------------------------


def diagnostics(icc: ICCGraph, base: Graph, epsilon: float, d: int, *, slack_constant: float = 4.0) -> dict:
    """Structural report over an inner component graph.

    Checks the integer-exact degree-count bounds on the cycle rank, extracts
    the constraint edges (one per non-tree R edge under a deterministic DFS),
    verifies that their count equals the cycle rank, and reports the cycle
    rank floor and the per-certificate probability bound.  The floor is a
    large-n statement and is reported, not asserted, at desk scale.
    """
    r = icc.r_graph
    b1 = gf2.betti1(r)
    n = base.vertex_count
    s_tot = icc.s_tot

    adj: list[list[tuple[int, int]]] = [[] for _ in range(r.vertex_count)]
    for eid, (u, v) in enumerate(r.edges):
        adj[u].append((v, eid))
        if u != v:
            adj[v].append((u, eid))
    for lst in adj:
        lst.sort()
    visited = [False] * r.vertex_count
    tree: set[int] = set()
    for root in range(r.vertex_count):
        if visited[root]:
            continue
        visited[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w, eid in adj[u]:
                if not visited[w]:
                    visited[w] = True
                    tree.add(eid)
                    stack.append(w)
    constraint = [eid for eid in range(r.edge_count) if eid not in tree]
    beta: dict[int, int] = {}
    for eid in constraint:
        b_edge = icc.transits[eid].last_base_edge
        beta[b_edge] = beta.get(b_edge, 0) + 1
    beta_total = sum(beta.values())

    floor_val = (1.0 - slack_constant * epsilon) * (d / 2.0 - 1.0) * n
    log10_prob = b1 * (math.log10(2.0) - math.log10(n))
    return {
        "b1": int(b1),
        "s_tot": int(s_tot),
        "r_vertices": r.vertex_count,
        "r_edges": r.edge_count,
        "stot_lower_ok": bool(6 * b1 >= s_tot - 2 * n),
        "stot_upper_ok": bool(2 * b1 <= s_tot),
        "betti_floor": floor_val,
        "betti_floor_met": bool(b1 >= floor_val),
        "slack_constant": slack_constant,
        "constraint_edge_count": len(constraint),
        "beta_by_base_edge": {int(k): int(v) for k, v in sorted(beta.items())},
        "beta_total": int(beta_total),
        "beta_matches_b1": bool(beta_total == b1),
        "certificate_probability_log10": log10_prob,
        "certificate_probability": 10.0**log10_prob if log10_prob > -300 else 0.0,
    }


# -- serialization --------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """Four top-level sections mirroring the quadruplet, plus a mode header."""

    def ser_ind(ind: Ind):
        return [int(ind[0]), int(ind[1])]

    def ser_diff(diff: tuple):
        return [list(t) if isinstance(t, tuple) else t for t in diff]

    return {
        "format": "zeroext-certificate",
        "version": cert.version,
        "mode": {"base": cert.base_mode, "fiber": cert.fiber_mode},
        "fiber_size": cert.fiber_size,
        "subgraph": {
            "vertices": [int(v) for v in cert.subgraph_vertices],
            "edges": [[int(e), int(a), int(b)] for e, a, b in cert.subgraph_edges],
        },
        "representations": [
            {
                "cloud": rep.cloud,
                "distinguished": [ser_ind(i) for i in rep.distinguished],
                "diffs": [
                    [ser_ind(a), ser_ind(b), ser_diff(diff)]
                    for (a, b), diff in sorted(rep.diffs.items())
                ],
                "anchor_identity": rep.anchor_identity,
            }
            for rep in cert.representations
        ],
        "skeleton": [
            {
                "length": sp.length,
                "labels": [list(_label_ser(l)) for l in sp.labels],
                "kept": [[int(pos), ser_ind(ind)] for pos, ind in sorted(sp.kept.items())],
            }
            for sp in cert.skeleton_paths
        ],
        "representatives": [[int(g), int(v)] for g, v in sorted(cert.representatives.items())],
    }


def certificate_from_json(doc: dict, base: Graph, fiber: Graph) -> Certificate:
    if doc.get("format") != "zeroext-certificate":
        raise CertificateError("not a certificate document")
    fiber_mode = doc["mode"]["fiber"]

    def un_ind(t) -> Ind:
        return (int(t[0]), int(t[1]))

    def un_diff(raw) -> tuple:
        if fiber_mode == "gen":
            return tuple(int(v) for v in raw)
        return tuple((int(e), int(d)) for e, d in raw)

    reps = [
        ComponentRepresentation(
            cloud=int(r["cloud"]),
            distinguished=[un_ind(i) for i in r["distinguished"]],
            diffs={(un_ind(a), un_ind(b)): un_diff(diff) for a, b, diff in r["diffs"]},
            anchor_identity=None if r["anchor_identity"] is None else int(r["anchor_identity"]),
        )
        for r in doc["representations"]
    ]
    skel = [
        SkeletonPath(
            length=int(s["length"]),
            labels=[_label_unser(l) for l in s["labels"]],
            kept={int(pos): un_ind(ind) for pos, ind in s["kept"]},
        )
        for s in doc["skeleton"]
    ]
    return Certificate(
        base_mode=doc["mode"]["base"],
        fiber_mode=fiber_mode,
        subgraph_vertices=[int(v) for v in doc["subgraph"]["vertices"]],
        subgraph_edges=[(int(e), int(a), int(b)) for e, a, b in doc["subgraph"]["edges"]],
        representations=reps,
        skeleton_paths=skel,
        representatives={int(g): int(v) for g, v in doc["representatives"]},
        base=base,
        fiber=fiber,
        fiber_size=int(doc["fiber_size"]),
    )
