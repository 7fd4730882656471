"""Path anonymization, inner component graphs, certificates, and reconstruction.

Pipeline: the canonical shortest paths between representatives of adjacent
kept clouds are anonymized into index/label form (formal transformation);
their per-cloud intra components of degree >= 3, or containing a path
endpoint, become the vertices of the inner component graph R, whose edges are
the transit subpaths between them.  R is held as each vertex's distinguished
indices (path endpoints and ends of transits) plus the transits, in the same
form whether built from the paths or rebuilt from a certificate.  A
certificate packages the kept subgraph, per-component representations, the
label skeleton of the transformed paths, and the representative identities,
each fact once; R is reconstructible from the certificate alone, without the
sampled matchings.

Step labels are edge ids with a direction (see `EdgeLabel`), so they name a
step in any base and fiber graph.  A relative position inside a cloud is the
sequence of intra steps between two vertices; each representation anchors
one true fiber identity, from which the public fiber graph gives the
identity of every other distinguished vertex.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property

from . import gf2
from .extension import EdgeLabel, ExtendedGraph, edge_label, flatten, project
from .graphs import Graph
from .graphs import single_source_shortest_paths  # noqa: F401  (bench/test_bench.py asserts this binding)
from .instance import _integers
from .split import SplitCandidate, verify_split

Ind = tuple[int, int]  # (cloud, running index) as assigned by the transformation


class CertificateError(ValueError):
    pass


# -- label helpers -------------------------------------------------------------


CERTIFICATE_VERSION = 3


def _invert_label(lab: EdgeLabel) -> EdgeLabel:
    return EdgeLabel(lab.kind, lab.value, -lab.direction)


def _follow(g: Graph, at: int, lab: EdgeLabel) -> int:
    """The vertex of g (the base for an inter label, the fiber for an intra
    one) reached from vertex `at` along the edge and direction `lab` names."""
    if 0 <= lab.value < g.edge_count:
        u, v = g.edges[lab.value]
        if lab.direction == 1 and at == u:
            return v
        if lab.direction == -1 and at == v:
            return u
    side = "base" if lab.kind == "inter" else "fiber"
    raise CertificateError(
        f"{lab.kind} step ({side} edge {lab.value}, dir {lab.direction}) does not "
        f"apply at {side} vertex {at}"
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

    def max_cloud_occupancy(self) -> int:
        return max(Counter(g for g, _ in self.ind.values()).values(), default=0)


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
    return FormalTransformation(paths=qpaths, ind=ind, base=x.base, fiber=x.fiber)


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
            labels = [_invert_label(l) for l in qpath.labels[::-1]]
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
                    h = _follow(x.fiber, cur % x.fiber_size, lab)
                    cur = vertex_id(x, g, h)
                else:
                    _follow(x.base, project(x, cur), lab)  # checks the direction
                    cur = traverse_inter(x, lab.value, cur)
            except CertificateError as exc:
                raise CertificateError(f"path {pidx} step {j}: {exc}") from None
            walk.append(cur)
            bind(pidx, j + 1, verts[j + 1], cur)
        out[pidx] = walk if which == "start" else walk[::-1]
    return out


# -- inner connected components ----------------------------------------------------


@dataclass
class Transit:
    comp_a: int
    comp_b: int
    end_inds: tuple[Ind, Ind]    # exit vertex in comp_a, entry vertex in comp_b
    labels: list[EdgeLabel]      # canonical (lex-min) direction
    last_base_edge: int          # base edge of the final inter step, canonical direction


@dataclass
class ICCGraph:
    components: list[list[Ind]]             # per R vertex, its sorted distinguished indices
    transits: list[Transit]                 # the R edges
    # Undirected index pairs of each transit's first and last step; only
    # `skeleton` reads them, so `reconstruct_r` leaves them empty.
    surprising: set[tuple[Ind, Ind]] = field(default_factory=set)

    @cached_property
    def r_graph(self) -> Graph:
        """R as a multigraph over component positions, parallel to `transits`."""
        return Graph(
            vertex_count=len(self.components),
            edges=[(t.comp_a, t.comp_b) for t in self.transits],
            multigraph=True,
        )

    @property
    def s_tot(self) -> int:
        return 2 * len(self.transits)

    def canonical_form(self) -> tuple:
        keys = [tuple(c) for c in self.components]
        edges = []
        for t in self.transits:
            a, b = keys[t.comp_a], keys[t.comp_b]
            edges.append((min(a, b), max(a, b), t.end_inds[0], tuple(t.labels), t.last_base_edge))
        return (tuple(sorted(keys)), tuple(sorted(edges)))


def _transit(
    comp: dict[Ind, int], first: Ind, last: Ind, labels: list[EdgeLabel], base: Graph
) -> Transit:
    """The R edge of a transit from `first` to `last`, in its lex-smaller
    direction; `comp` maps an index to its R vertex."""
    rev = [_invert_label(l) for l in labels[::-1]]
    if (last, rev) < (first, labels):
        first, last, labels = last, first, rev
    g, last_edge = first[0], -1
    for lab in labels:
        if lab.kind == "inter":
            g = _follow(base, g, lab)
            last_edge = lab.value
    if last_edge < 0:
        raise CertificateError("transit contains no inter-cloud step")
    return Transit(comp[first], comp[last], (first, last), list(labels), int(last_edge))


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
        comp_members.append(members)

    degree = [0] * len(comp_members)
    for (u, v) in inter_edges:
        degree[comp_of[u]] += 1
        degree[comp_of[v]] += 1
    has_rep = {comp_of[e] for e in endpoints}
    inner_ids = [c for c in range(len(comp_members)) if degree[c] >= 3 or c in has_rep]
    r_vertex = {ind: pos for pos, c in enumerate(inner_ids) for ind in comp_members[c]}

    # Transit scan: segments of each path between consecutive inner positions.
    transits: list[Transit] = []
    seen: set[tuple] = set()
    surprising: set[tuple[Ind, Ind]] = set()
    for qpath in ft.paths:
        verts = qpath.verts
        inner_positions = [p for p, v in enumerate(verts) if v in r_vertex]
        if not inner_positions or inner_positions[0] != 0 or inner_positions[-1] != len(verts) - 1:
            raise CertificateError("path endpoints must lie in inner components")
        for a, b in zip(inner_positions, inner_positions[1:]):
            if b == a + 1 and r_vertex[verts[a]] == r_vertex[verts[b]]:
                continue  # intra step inside one inner component
            surprising.add((min(verts[a], verts[a + 1]), max(verts[a], verts[a + 1])))
            surprising.add((min(verts[b - 1], verts[b]), max(verts[b - 1], verts[b])))
            t = _transit(r_vertex, verts[a], verts[b], qpath.labels[a:b], ft.base)
            key = (t.end_inds[0], tuple(t.labels))
            if key not in seen:
                seen.add(key)
                transits.append(t)

    s_tot = sum(degree[c] for c in inner_ids)
    if s_tot != 2 * len(transits):
        raise CertificateError(
            f"internal inconsistency: s_tot={s_tot} but R has {len(transits)} edges"
        )

    distinguished: list[set[Ind]] = [set() for _ in inner_ids]
    for w in endpoints.union(*surprising):  # path ends and transit ends
        if w in r_vertex:
            distinguished[r_vertex[w]].add(w)
    if not all(distinguished):
        raise CertificateError("inner component with no distinguished vertex")
    return ICCGraph([sorted(d) for d in distinguished], transits, surprising)


# -- skeleton ------------------------------------------------------------------


@dataclass
class SkeletonPath:
    labels: list[EdgeLabel]      # one per step, so the path has len(labels) + 1 vertices
    kept: dict[int, Ind]         # position -> retained index


def skeleton(ft: FormalTransformation, icc: ICCGraph) -> list[SkeletonPath]:
    """Strip indices except path endpoints and first-occurrence entries into
    inner components (targets of surprising edges)."""
    # A surprising edge's end in an inner component is distinguished there.
    inner_inds = {ind for comp in icc.components for ind in comp}
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
        out.append(SkeletonPath(labels=list(qpath.labels), kept=kept))
    return out


# -- component representations ----------------------------------------------------


@dataclass
class ComponentRepresentation:
    distinguished: list[Ind]     # all in one cloud
    diffs: list[tuple]      # per distinguished[1:], the intra steps (edge, direction) from the anchor
    anchor_identity: int    # fiber vertex of distinguished[0], the anchor


def _intra_adjacency(ft: FormalTransformation) -> dict[Ind, dict[Ind, EdgeLabel]]:
    adj: dict[Ind, dict[Ind, EdgeLabel]] = {}
    for qpath in ft.paths:
        for j, lab in enumerate(qpath.labels):
            if lab.kind != "intra":
                continue
            u, v = qpath.verts[j], qpath.verts[j + 1]
            adj.setdefault(u, {}).setdefault(v, lab)
            adj.setdefault(v, {}).setdefault(u, _invert_label(lab))
    return adj


def representations(ft: FormalTransformation, icc: ICCGraph) -> list[ComponentRepresentation]:
    """Distinguished vertices of every inner component, the true fiber
    identity of the first (the anchor), and the relative position of each
    other one from the anchor; that is all `reconstruct_r` reads."""
    adj = _intra_adjacency(ft)
    inv = {i: v for v, i in ft.ind.items()}
    out = []
    for comp in icc.components:
        anchor, *others = comp
        reached = _walk_diffs(anchor, adj)
        for b in others:
            if b not in reached:
                raise CertificateError(
                    f"distinguished vertices {anchor} and {b} are not intra-connected"
                )
        out.append(
            ComponentRepresentation(
                distinguished=list(comp),
                diffs=[reached[b] for b in others],
                anchor_identity=inv[anchor] % ft.fiber.vertex_count,
            )
        )
    return out


def _walk_diffs(start: Ind, adj) -> dict[Ind, tuple]:
    """BFS accumulation of relative positions from `start` over intra edges."""
    reached: dict[Ind, tuple] = {start: ()}
    q = deque([start])
    while q:
        u = q.popleft()
        for w, lab in sorted(adj.get(u, {}).items()):
            if w in reached:
                continue
            reached[w] = reached[u] + ((int(lab.value), int(lab.direction)),)
            q.append(w)
    return reached


# -- certificates ------------------------------------------------------------------


@dataclass
class Certificate:
    """Quadruplet sufficient to rebuild R: kept subgraph, component
    representations, label skeleton, representative identities.

    Each fact is stored once: the kept clouds are the keys of
    `representatives`, a kept edge's endpoints are read from the base graph,
    a component's cloud from its distinguished indices and a path's length
    from its labels.  base and fiber are the public input graphs; the sampled
    matchings are deliberately absent and cannot be recovered from a
    certificate.
    """

    subgraph_edges: list[int]                    # kept base edge ids, ascending
    representations: list[ComponentRepresentation]
    skeleton_paths: list[SkeletonPath]
    representatives: dict[int, int]              # kept cloud -> extension vertex
    base: Graph
    fiber: Graph


def shortest_rep_paths(x: ExtendedGraph, c: SplitCandidate) -> list[list[int]]:
    """The candidate's stored path per kept base edge, ascending edge id,
    directed from the representative of the smaller-cloud endpoint."""
    paths = []
    for eid in sorted(c.edge_ids):
        g1, g2 = x.base.edges[eid]
        r1, r2 = c.rep_map[g1], c.rep_map[g2]
        pre = c.path_assignment.get(eid)
        if pre is None:
            raise CertificateError(f"candidate stores no path for edge {eid}")
        if pre[0] != r1 or pre[-1] != r2:
            raise CertificateError(f"stored path for edge {eid} has wrong endpoints")
        paths.append(list(pre))
    return paths


def transform_pipeline(
    x: ExtendedGraph, c: SplitCandidate
) -> tuple[list[list[int]], FormalTransformation, ICCGraph]:
    paths = shortest_rep_paths(x, c)
    ft = formal_transform(paths, x)
    icc = inner_components(ft)
    return paths, ft, icc


def require_split(x: ExtendedGraph, c: SplitCandidate) -> None:
    """Re-verify a candidate; raise CertificateError naming the failed conditions."""
    report = verify_split(c, x)
    if not report.is_split:
        failed = [n for n, v in report.conditions.items() if not v.passed]
        raise CertificateError(
            f"candidate fails split conditions {failed}; use force=True for diagnostics"
        )


def build_certificate(x: ExtendedGraph, c: SplitCandidate, *, force: bool = False) -> Certificate:
    """Assemble the certificate of a split candidate.

    The candidate is re-verified first; pass force=True to build diagnostic
    certificates from candidates that fail some split condition.
    """
    if not force:
        require_split(x, c)
    _, ft, icc = transform_pipeline(x, c)
    return assemble_certificate(x, c, ft, icc)


def assemble_certificate(
    x: ExtendedGraph, c: SplitCandidate, ft: FormalTransformation, icc: ICCGraph
) -> Certificate:
    """The certificate of a candidate from its transformation and inner
    component graph, as `transform_pipeline` returns them; no verification."""
    return Certificate(
        subgraph_edges=sorted(c.edge_ids),
        representations=representations(ft, icc),
        skeleton_paths=skeleton(ft, icc),
        representatives={g: int(c.rep_map[g]) for g in sorted(c.rep_map)},
        base=x.base,
        fiber=x.fiber,
    )


# -- reconstruction -----------------------------------------------------------------


def _check_label(lab: EdgeLabel, base: Graph, fiber: Graph, where: str) -> None:
    if lab.kind not in ("intra", "inter"):
        raise CertificateError(f"{where}: unknown label kind {lab.kind!r}")
    g = fiber if lab.kind == "intra" else base
    if not 0 <= lab.value < g.edge_count or lab.direction not in (1, -1):
        raise CertificateError(
            f"{where}: {lab.kind} label names edge {lab.value} (of {g.edge_count}) "
            f"with direction {lab.direction}"
        )


def _check_certificate(cert: Certificate) -> None:
    """Reject parts that do not fit the public graphs or each other, so the
    replay in `reconstruct_r` meets only well-formed input."""
    base, fiber = cert.base, cert.fiber
    outside = sorted(g for g in cert.representatives if not 0 <= g < base.vertex_count)
    if outside:
        raise CertificateError(f"representative clouds {outside} are outside the base graph")
    eids = cert.subgraph_edges
    if any(a >= b for a, b in zip(eids, eids[1:])):
        raise CertificateError("kept edge ids are not strictly ascending")
    for eid in eids:
        if not 0 <= eid < base.edge_count:
            raise CertificateError(f"kept edge {eid} is no edge of the base graph")
        if any(g not in cert.representatives for g in base.edges[eid]):
            raise CertificateError(f"kept edge {eid} joins a cloud without a representative")
    for cid, rep in enumerate(cert.representations):
        inds = rep.distinguished
        if not inds or not 0 <= inds[0][0] < base.vertex_count or any(i[0] != inds[0][0] for i in inds):
            raise CertificateError(f"component {cid}: no distinguished index, or one outside its cloud")
        anchor = rep.anchor_identity
        if type(anchor) is not int or not 0 <= anchor < fiber.vertex_count:
            raise CertificateError(f"component {cid}: anchor identity {anchor!r} is no fiber vertex")
        if len(rep.diffs) != len(inds) - 1:
            raise CertificateError(
                f"component {cid}: {len(rep.diffs)} relative positions for "
                f"{len(inds) - 1} distinguished vertices besides the anchor"
            )
        for diff in rep.diffs:
            for e, d in diff:
                _check_label(EdgeLabel("intra", e, d), base, fiber, f"component {cid}")
    for pidx, sp in enumerate(cert.skeleton_paths):
        for pos in sp.kept:
            if not 0 <= pos <= len(sp.labels):
                raise CertificateError(
                    f"path {pidx}: kept position {pos} outside [0, {len(sp.labels) + 1})"
                )
        for j, lab in enumerate(sp.labels):
            _check_label(lab, base, fiber, f"path {pidx} step {j}")


def reconstruct_r(cert: Certificate) -> ICCGraph:
    """Rebuild the inner component graph from the certificate alone.

    Replays the skeleton scan: inside a component the accumulated relative
    position identifies the exit vertex among the distinguished ones; transit
    subpaths are recognized by their start index and first label (in either
    direction) so re-traversals do not duplicate R edges.  Any inconsistency
    raises CertificateError, naming the path and step.
    """
    _check_certificate(cert)
    base, fiber = cert.base, cert.fiber
    fiber_size = fiber.vertex_count
    comps = cert.representations
    comp_of_ind: dict[Ind, int] = {}
    for cid, rep in enumerate(comps):
        for ind in rep.distinguished:
            if ind in comp_of_ind:
                raise CertificateError(f"index {ind} distinguished in two components")
            comp_of_ind[ind] = cid

    # True fiber identities of the distinguished vertices, from each anchor.
    ids: list[dict[Ind, int]] = []
    for rep in comps:
        table = {rep.distinguished[0]: rep.anchor_identity}
        for w, diff in zip(rep.distinguished[1:], rep.diffs):
            h = rep.anchor_identity
            for (e, d) in diff:
                h = _follow(fiber, h, EdgeLabel("intra", e, d))
            table[w] = h
        ids.append(table)

    def resolve(cid: int, h: int, where: str) -> Ind:
        """The distinguished vertex of component cid at fiber vertex h."""
        for w, h_w in ids[cid].items():
            if h_w == h:
                return w
        raise CertificateError(
            f"{where}: accumulated position matches no distinguished vertex of "
            f"component {cid}"
        )

    if len(cert.skeleton_paths) != len(cert.subgraph_edges):
        raise CertificateError("skeleton path count does not match the kept subgraph")

    # (first index, first label) -> (labels, far component, far index) of
    # every transit seen so far, in both directions.
    transit_seen: dict[tuple[Ind, EdgeLabel], tuple[list[EdgeLabel], int, Ind]] = {}
    transits: list[Transit] = []

    for pidx, (skelpath, eid) in enumerate(zip(cert.skeleton_paths, cert.subgraph_edges)):
        g1, g2 = base.edges[eid]
        labels = skelpath.labels
        kept = skelpath.kept
        start_ind = kept.get(0)
        end_ind = kept.get(len(labels))
        if start_ind is None or end_ind is None:
            raise CertificateError(f"path {pidx}: endpoints missing from skeleton")
        if start_ind not in comp_of_ind or end_ind not in comp_of_ind:
            raise CertificateError(f"path {pidx}: endpoint index not in any component")
        for end, ind, g in (("start", start_ind, g1), ("end", end_ind, g2)):
            r = cert.representatives[g]
            if ind[0] != r // fiber_size:
                raise CertificateError(f"path {pidx}: {end} cloud disagrees with representative")
            if ids[comp_of_ind[ind]][ind] != r % fiber_size:
                raise CertificateError(f"path {pidx}: {end} identity disagrees with representative")
        cid = comp_of_ind[start_ind]

        h = ids[cid][start_ind]  # fiber vertex of the walk inside component cid
        pos = 0
        while pos < len(labels):
            lab = labels[pos]
            if lab.kind == "intra":
                try:
                    h = _follow(fiber, h, lab)
                except CertificateError as exc:
                    raise CertificateError(f"path {pidx} step {pos}: {exc}") from None
                pos += 1
                continue
            exit_ind = resolve(cid, h, f"path {pidx} step {pos}")
            seen = transit_seen.get((exit_ind, lab))
            if seen is not None:
                seg, cid, far_ind = seen
                if labels[pos : pos + len(seg)] != seg:
                    raise CertificateError(
                        f"path {pidx} step {pos}: transit replay diverges from "
                        "its first traversal"
                    )
                pos += len(seg)
                h = ids[cid][far_ind]
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
                        g_walk = _follow(base, g_walk, lab_j)
                    except CertificateError as exc:
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
            rev = [_invert_label(l) for l in seg_labels[::-1]]
            transit_seen[(exit_ind, seg_labels[0])] = (seg_labels, c2, entry_ind)
            transit_seen[(entry_ind, rev[0])] = (rev, cid, exit_ind)
            transits.append(_transit(comp_of_ind, exit_ind, entry_ind, seg_labels, base))
            pos = j
            cid = c2
            h = ids[cid][entry_ind]
        final = resolve(cid, h, f"path {pidx} end")
        if final != end_ind:
            raise CertificateError(
                f"path {pidx}: walk ends at {final}, skeleton claims {end_ind}"
            )

    return ICCGraph([sorted(rep.distinguished) for rep in comps], transits)


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
        "per_certificate_probability_log10": log10_prob,
        "per_certificate_probability": 10.0**log10_prob if log10_prob > -300 else 0.0,
    }


# -- serialization --------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """Four sections mirroring the quadruplet: the kept base edge ids, the
    component representations, the label skeleton (each label
    [kind, edge id, direction]) and the representatives as [cloud, vertex]."""

    def ser_ind(ind: Ind):
        return [int(ind[0]), int(ind[1])]

    return {
        "format": "zeroext-certificate",
        "version": CERTIFICATE_VERSION,
        "subgraph": [int(e) for e in cert.subgraph_edges],
        "representations": [
            {
                "distinguished": [ser_ind(i) for i in rep.distinguished],
                "diffs": [[list(step) for step in diff] for diff in rep.diffs],
                "anchor_identity": rep.anchor_identity,
            }
            for rep in cert.representations
        ],
        "skeleton": [
            {
                "labels": [[l.kind, int(l.value), int(l.direction)] for l in sp.labels],
                "kept": [[int(pos), ser_ind(ind)] for pos, ind in sorted(sp.kept.items())],
            }
            for sp in cert.skeleton_paths
        ],
        "representatives": [[int(g), int(v)] for g, v in sorted(cert.representatives.items())],
    }


def certificate_from_json(doc: dict, base: Graph, fiber: Graph) -> Certificate:
    """Parse a certificate document; a missing part, an id, position or
    direction that is not a JSON integer, or a representative cloud or a
    path's kept position listed twice raises CertificateError.
    `reconstruct_r` checks the parts against the graphs."""
    if not isinstance(doc, dict) or doc.get("format") != "zeroext-certificate":
        raise CertificateError("not a certificate document")
    version = doc.get("version")
    if version in (1, 2):
        raise CertificateError(
            f"certificate version {version} is no longer read; `zeroext cert` "
            "rebuilds the certificate"
        )
    if version != CERTIFICATE_VERSION:
        raise CertificateError(f"unsupported certificate version {version!r}")
    try:
        return _certificate_from_doc(doc, base, fiber)
    except CertificateError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate document: {exc!r}") from None


def _certificate_from_doc(doc: dict, base: Graph, fiber: Graph) -> Certificate:
    # The anchor identity is type-checked with the rest of a representation
    # in `_check_certificate`; every other number goes through `_integers`.
    def pair(t) -> tuple[int, int]:
        a, b = _integers(t)
        return (a, b)

    def un_label(t) -> EdgeLabel:
        kind, *step = t
        return EdgeLabel(kind, *pair(step))

    def once(pairs, what: str) -> dict:
        out = {}
        for key, value in pairs:
            if key in out:
                raise CertificateError(f"{what} {key} is listed twice")
            out[key] = value
        return out

    reps = [
        ComponentRepresentation(
            distinguished=[pair(i) for i in r["distinguished"]],
            diffs=[tuple(map(pair, diff)) for diff in r["diffs"]],
            anchor_identity=r["anchor_identity"],
        )
        for r in doc["representations"]
    ]
    skel = [
        SkeletonPath(
            labels=[un_label(l) for l in s["labels"]],
            kept=once(((_integers([pos])[0], pair(ind)) for pos, ind in s["kept"]),
                      f"path {pidx}: kept position"),
        )
        for pidx, s in enumerate(doc["skeleton"])
    ]
    return Certificate(
        subgraph_edges=list(_integers(doc["subgraph"])),
        representations=reps,
        skeleton_paths=skel,
        representatives=once(map(pair, doc["representatives"]), "representative cloud"),
        base=base,
        fiber=fiber,
    )
