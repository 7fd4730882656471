from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_cayley,
    candidate_corpus,
    cayley_setup,
    direct_route_setup,
    graph_fw,
    heap_dijkstra_tree,
    wandering_setup,
)
from zeroext import certificate as cert_mod
from zeroext import split
from zeroext.certificate import (
    CertificateError,
    EdgeLabel,
    FormalTransformation,
    ICCGraph,
    QPath,
    Transit,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    diagnostics,
    formal_transform,
    inner_components,
    reconstruct_paths,
    reconstruct_r,
    representations,
    shortest_rep_paths,
    skeleton,
    transform_pipeline,
)
from zeroext.extension import flatten, sample_extension, vertex_id
from zeroext.graphs import Graph, uniform_lengths
from zeroext.split import build_split_candidate, per_cloud_labeling


# -- shortest representative paths ----------------------------------------------


def test_rep_paths_cover_trivial_and_adjacent_cases():
    x, inst = direct_route_setup(7)
    n = x.cloud_count
    # Coinciding representatives on one edge: that path is a single vertex.
    g1, g2 = x.base.edges[0]
    targets = {g: g * x.fiber_size for g in range(n)}
    shared = vertex_id(x, g1, 0)
    targets[g2] = shared
    f = per_cloud_labeling(inst, x, targets)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=5.0, threshold=0.9)
    paths = shortest_rep_paths(x, cand)
    order = sorted(cand.edge_ids)
    p0 = paths[order.index(0)]
    assert p0 == [shared]
    # Adjacent representatives: single-edge path.
    flat = flatten(x)
    some_inter = next(
        e for e in range(flat.graph.edge_count) if flat.edge_kind[e] == 1
    )
    u, v = flat.graph.edges[some_inter]
    targets2 = {g: g * x.fiber_size for g in range(n)}
    gu, gv = u // x.fiber_size, v // x.fiber_size
    targets2[gu], targets2[gv] = u, v
    f2 = per_cloud_labeling(inst, x, targets2)
    cand2 = build_split_candidate(inst, x, f2, alpha=1e9, epsilon=5.0, threshold=0.9)
    base_eid = int(flat.edge_origin[some_inter])
    paths2 = shortest_rep_paths(x, cand2)
    p = paths2[sorted(cand2.edge_ids).index(base_eid)]
    assert p in ([u, v], [v, u])


def test_rep_path_lengths_match_fw_oracle():
    x, inst = wandering_setup(5)
    f = per_cloud_labeling(inst, x, 1)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
    paths = shortest_rep_paths(x, cand)
    flat = flatten(x)
    oracle = graph_fw(flat.graph, flat.lengths)
    lookup = flat.graph.edge_lookup()
    for eid, path in zip(sorted(cand.edge_ids), paths):
        g1, g2 = x.base.edges[eid]
        total = sum(
            flat.lengths[lookup[(min(a, b), max(a, b))]] for a, b in zip(path, path[1:])
        )
        want = oracle[cand.rep_map[g1], cand.rep_map[g2]]
        assert abs(total - want) <= 1e-9 * max(1.0, want)
    # The stored paths are the canonical ones: those of the heap-Dijkstra oracle.
    for eid, path in zip(sorted(cand.edge_ids), paths):
        g1, g2 = x.base.edges[eid]
        r1, r2 = cand.rep_map[g1], cand.rep_map[g2]
        assert path == cand.path_assignment[eid]
        assert path == heap_dijkstra_tree(flat.graph, flat.lengths, r1).path_vertices(r2)


def test_rep_paths_need_a_stored_path_per_kept_edge():
    x, inst = wandering_setup(5)
    f = per_cloud_labeling(inst, x, 1)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
    eid = sorted(cand.edge_ids)[1]
    stored = {e: p for e, p in cand.path_assignment.items() if e != eid}
    with pytest.raises(CertificateError, match=rf"no path for edge {eid}$"):
        shortest_rep_paths(x, dataclasses.replace(cand, path_assignment=stored))
    stored[eid] = cand.path_assignment[eid][::-1]
    with pytest.raises(CertificateError, match=rf"path for edge {eid} has wrong endpoints"):
        shortest_rep_paths(x, dataclasses.replace(cand, path_assignment=stored))


# -- formal transformation ----------------------------------------------------------


def test_indices_assigned_in_exposure_order():
    c4 = build_cayley([4], [(1,)])
    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c4, uniform_lengths(c4, 1.0), seed=1)
    g = 2
    path = [vertex_id(x, g, 0), vertex_id(x, g, 1), vertex_id(x, g, 2)]
    ft = formal_transform([path], x)
    assert ft.paths[0].verts == [(g, 1), (g, 2), (g, 3)]


def test_shared_vertex_keeps_one_index():
    c4 = build_cayley([4], [(1,)])
    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c4, uniform_lengths(c4, 1.0), seed=1)
    g = 0
    p1 = [vertex_id(x, g, 0), vertex_id(x, g, 1), vertex_id(x, g, 2)]
    p2 = [vertex_id(x, g, 1), vertex_id(x, g, 2), vertex_id(x, g, 3)]
    ft = formal_transform([p1, p2], x)
    assert ft.paths[0].verts[1] == ft.paths[1].verts[0]
    assert ft.paths[0].verts[2] == ft.paths[1].verts[1]
    assert ft.max_cloud_occupancy() == 4


def test_cloud_occupancy_within_bound():
    # Desk-scale diagnostic: measured occupancy stays under n^(C*eps) with
    # the corpus-calibrated constant C = 6.
    for x, inst, cand in candidate_corpus(6, seed0=40):
        _, ft, _ = transform_pipeline(x, cand)
        n = x.cloud_count
        bound = n ** (6 * cand.epsilon)
        assert ft.max_cloud_occupancy() <= bound


# -- path reconstruction ----------------------------------------------------------------


def test_round_trip_identity_both_endpoints():
    for x, inst, cand in candidate_corpus(6, seed0=7):
        paths, ft, _ = transform_pipeline(x, cand)
        starts = {i: ("start", p[0]) for i, p in enumerate(paths)}
        assert reconstruct_paths(ft, x, starts) == paths
        ends = {i: ("end", p[-1]) for i, p in enumerate(paths)}
        assert reconstruct_paths(ft, x, ends) == paths


def test_empty_path_list():
    x, _ = direct_route_setup(8)
    ft = formal_transform([], x)
    assert reconstruct_paths(ft, x, {}) == []


def test_corrupted_label_raises_at_step():
    x, inst = cayley_setup(9)
    f = per_cloud_labeling(inst, x, 0)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
    paths, ft, _ = transform_pipeline(x, cand)
    target = next(i for i, q in enumerate(ft.paths) if q.labels)
    ft.paths[target].labels[0] = EdgeLabel("intra", 99, 1)  # no such fiber edge
    starts = {i: ("start", p[0]) for i, p in enumerate(paths)}
    with pytest.raises(CertificateError, match=rf"path {target} step 0"):
        reconstruct_paths(ft, x, starts)


def test_missing_endpoint_identity_raises():
    x, _ = direct_route_setup(8)
    flat = flatten(x)
    u, v = flat.graph.edges[0]
    ft = formal_transform([[u, v]], x)
    with pytest.raises(CertificateError, match="no endpoint identity"):
        reconstruct_paths(ft, x, {})


# -- inner components ------------------------------------------------------------------


def _synthetic_ft(base: Graph, fiber: Graph, paths: list[QPath], ind: dict) -> FormalTransformation:
    return FormalTransformation(paths=paths, ind=ind, base=base, fiber=fiber)


def test_straight_through_cloud_contributes_no_r_vertex():
    base = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    fiber = Graph(vertex_count=2, edges=[])
    q = QPath(
        verts=[(0, 1), (1, 1), (2, 1)],
        labels=[
            EdgeLabel("inter", 0, 1),
            EdgeLabel("inter", 1, 1),
        ],
    )
    ft = _synthetic_ft(base, fiber, [q], {0: (0, 1), 2: (1, 1), 4: (2, 1)})
    icc = inner_components(ft)
    assert icc.components == [[(0, 1)], [(2, 1)]]  # the endpoints only
    assert icc.r_graph.edge_count == 1
    assert len(icc.transits[0].labels) == 2
    assert icc.s_tot == 2
    # Endpoint components are R vertices even at degree 1.
    assert icc.r_graph.degrees().tolist() == [1, 1]
    assert [comp[0] for comp in icc.components] == [q.verts[0], q.verts[-1]]


def _steps(ft: FormalTransformation, kind: str) -> set[frozenset]:
    """The distinct undirected steps of one kind in the transformed paths."""
    return {
        frozenset(q.verts[j : j + 2])
        for q in ft.paths
        for j, lab in enumerate(q.labels)
        if lab.kind == kind
    }


def _path_ends(ft: FormalTransformation) -> set:
    return {v for q in ft.paths for v in (q.verts[0], q.verts[-1])}


def test_s_tot_is_twice_edge_count_on_corpus():
    # Every inter step at an inner component ends at one of its distinguished
    # indices, and is the end of exactly one transit.
    for x, inst, cand in candidate_corpus(8, seed0=3):
        _, ft, icc = transform_pipeline(x, cand)
        assert icc.s_tot == 2 * icc.r_graph.edge_count
        inter, ends = _steps(ft, "inter"), _path_ends(ft)
        for comp, degree in zip(icc.components, icc.r_graph.degrees()):
            assert degree == sum(len(step & set(comp)) for step in inter)
            assert degree >= 3 or ends & set(comp)


def test_non_inner_components_are_paths_on_split_inputs():
    # The intra components with no distinguished index have degree at most
    # 2, no path endpoint, and look like paths: intra edge count = size - 1.
    for seed in range(3):
        x, inst = direct_route_setup(20 + seed)
        f = per_cloud_labeling(inst, x, 0)
        cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
        _, ft, icc = transform_pipeline(x, cand)
        intra, inter, ends = _steps(ft, "intra"), _steps(ft, "inter"), _path_ends(ft)
        parent = {}

        def find(u):
            while parent.setdefault(u, u) != u:
                u = parent[u]
            return u

        for step in intra:
            a, b = step
            parent[find(a)] = find(b)
        members = {}
        for v in {v for q in ft.paths for v in q.verts}:
            members.setdefault(find(v), set()).add(v)
        distinguished = {ind for comp in icc.components for ind in comp}
        non_inner = [m for m in members.values() if not m & distinguished]
        assert len(non_inner) == len(members) - len(icc.components)
        for m in non_inner:
            assert sum(len(step & m) for step in inter) <= 2
            assert not m & ends
            assert sum(1 for step in intra if step <= m) == len(m) - 1


# -- skeleton ---------------------------------------------------------------------------


def test_intra_only_path_keeps_endpoints_only():
    base = Graph(vertex_count=1, edges=[])
    fiber = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    q = QPath(
        verts=[(0, 1), (0, 2), (0, 3)],
        labels=[EdgeLabel("intra", 0, 1), EdgeLabel("intra", 1, 1)],
    )
    ft = _synthetic_ft(base, fiber, [q], {0: (0, 1), 1: (0, 2), 2: (0, 3)})
    icc = inner_components(ft)
    skel = skeleton(ft, icc)
    assert skel[0].kept == {0: (0, 1), 2: (0, 3)}


def test_surprising_edge_kept_once_across_traversals():
    base = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    fiber = Graph(vertex_count=2, edges=[])
    fwd = QPath(
        verts=[(0, 1), (1, 1), (2, 1)],
        labels=[EdgeLabel("inter", 0, 1), EdgeLabel("inter", 1, 1)],
    )
    rev = QPath(
        verts=[(2, 1), (1, 1), (0, 1)],
        labels=[EdgeLabel("inter", 1, -1), EdgeLabel("inter", 0, -1)],
    )
    ft = _synthetic_ft(base, fiber, [fwd, rev], {0: (0, 1), 2: (1, 1), 4: (2, 1)})
    icc = inner_components(ft)
    assert icc.r_graph.edge_count == 1  # reversal re-traverses the same transit
    skel = skeleton(ft, icc)
    # First traversal keeps the entry into cloud 2; the reverse traversal
    # re-uses seen edges, so only its endpoints survive.
    assert skel[0].kept == {0: (0, 1), 2: (2, 1)}
    assert skel[1].kept == {0: (2, 1), 2: (0, 1)}


def _independent_kept_count(ft: FormalTransformation, icc: ICCGraph) -> int:
    # The end of a surprising edge in an inner component is distinguished there.
    inner = {ind for comp in icc.components for ind in comp}
    seen = set()
    total = 0
    for q in ft.paths:
        kept_positions = {0, len(q.verts) - 1}
        for j, lab in enumerate(q.labels):
            a, b = q.verts[j], q.verts[j + 1]
            key = frozenset((a, b))
            if (
                (min(a, b), max(a, b)) in icc.surprising
                and b in inner
                and key not in seen
            ):
                kept_positions.add(j + 1)
            seen.add(key)
        total += len(kept_positions)
    return total


def test_kept_index_recount_independent_scan():
    for x, inst, cand in candidate_corpus(6, seed0=9):
        _, ft, icc = transform_pipeline(x, cand)
        skel = skeleton(ft, icc)
        assert sum(len(sp.kept) for sp in skel) == _independent_kept_count(ft, icc)


# -- certificates and reconstruction ------------------------------------------------------


def test_certificate_round_trip_corpus():
    for x, inst, cand in candidate_corpus(9, seed0=0):
        cert = build_certificate(x, cand, force=True)
        _, ft, icc = transform_pipeline(x, cand)
        rebuilt = reconstruct_r(cert)
        assert rebuilt.canonical_form() == icc.canonical_form()
        assert rebuilt.components == icc.components
        assert rebuilt.s_tot == icc.s_tot


def test_certificate_round_trip_through_json():
    x, inst, cand = candidate_corpus(3, seed0=5)[2]
    cert = build_certificate(x, cand, force=True)
    doc = certificate_to_json(cert)
    import json

    back = certificate_from_json(json.loads(json.dumps(doc)), x.base, x.fiber)
    _, _, icc = transform_pipeline(x, cand)
    assert reconstruct_r(back).canonical_form() == icc.canonical_form()


def test_constant_representative_gives_single_vertex_r():
    x, inst = direct_route_setup(10)
    shared = 0
    targets = {g: shared for g in range(x.cloud_count)}
    f = per_cloud_labeling(inst, x, targets)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=5.0, threshold=0.9)
    assert len(cand.vertices) == x.cloud_count
    _, _, icc = transform_pipeline(x, cand)
    assert len(icc.components) == 1
    assert icc.r_graph.edge_count == 0
    assert icc.s_tot == 0
    cert = build_certificate(x, cand, force=True)
    assert reconstruct_r(cert).canonical_form() == icc.canonical_form()


def test_unverified_candidate_requires_force():
    # Seed 6 is a pinned wandering sample whose projected paths break the
    # cycle condition.
    x, inst = wandering_setup(6)
    f = per_cloud_labeling(inst, x, 0)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.5, threshold=0.9)
    report = split.verify_split(cand, x)
    assert not report.conditions["cycle_homeomorphism"].passed
    with pytest.raises(CertificateError, match="force"):
        build_certificate(x, cand)
    build_certificate(x, cand, force=True)


def test_tampered_skeleton_label_detected():
    for x, inst, cand in candidate_corpus(3, seed0=11):
        cert = build_certificate(x, cand, force=True)
        tampered = copy.deepcopy(cert)
        done = False
        for sp in tampered.skeleton_paths:
            if sp.labels:
                lab = sp.labels[-1]
                flipped = cert_mod._invert_label(lab)
                if flipped != lab:
                    sp.labels[-1] = flipped
                    done = True
                    break
        if not done:
            continue
        with pytest.raises(CertificateError):
            reconstruct_r(tampered)
        return
    pytest.skip("no invertible label found")


def test_representation_diffs_are_ordered_pairs():
    # Only the pairs that start at the anchor are stored, one per other
    # distinguished vertex, in order.
    x, inst, cand = candidate_corpus(3, seed0=2)[2]  # Cayley base and fiber
    _, ft, icc = transform_pipeline(x, cand)
    reps = representations(ft, icc)
    identity = {ind: v % x.fiber_size for v, ind in ft.ind.items()}
    for rep in reps:
        p = len(rep.distinguished)
        assert len(rep.diffs) == p - 1
        anchor = rep.distinguished[0]
        assert rep.anchor_identity == identity[anchor]
        for b, diff in zip(rep.distinguished[1:], rep.diffs):
            # The steps walk the fiber from the anchor's true identity to b's.
            h = identity[anchor]
            for e, d in diff:
                u, v = x.fiber.edges[e]
                assert h == (u if d == 1 else v)
                h = v if d == 1 else u
            assert h == identity[b]


# -- diagnostics ----------------------------------------------------------------------------


def _dummy_transits(edges):
    return [
        Transit(comp_a=u, comp_b=v, end_inds=((u, 1), (v, 1)), labels=[], last_base_edge=i % 3)
        for i, (u, v) in enumerate(edges)
    ]


def test_diagnostics_tree_r():
    edges = [(0, 1), (1, 2)]
    icc = ICCGraph(components=[[(v, 1)] for v in range(3)], transits=_dummy_transits(edges))
    assert icc.s_tot == 4
    diag = diagnostics(icc, Graph(vertex_count=50, edges=[]), epsilon=0.1, d=4)
    assert diag["b1"] == 0
    assert diag["constraint_edge_count"] == 0
    assert diag["per_certificate_probability"] == 1.0
    assert diag["beta_matches_b1"]


def test_diagnostics_single_cycle_probability():
    edges = [(0, 1), (1, 2), (0, 2)]
    icc = ICCGraph(components=[[(v, 1)] for v in range(3)], transits=_dummy_transits(edges))
    assert icc.s_tot == 6
    diag = diagnostics(icc, Graph(vertex_count=100, edges=[]), epsilon=0.1, d=4)
    assert diag["b1"] == 1
    assert abs(diag["per_certificate_probability"] - 0.02) < 1e-15
    assert diag["constraint_edge_count"] == 1


def test_structural_bounds_on_corpus():
    for x, inst, cand in candidate_corpus(8, seed0=1):
        _, _, icc = transform_pipeline(x, cand)
        diag = diagnostics(icc, x.base, cand.epsilon, 4)
        b1, s_tot = diag["b1"], diag["s_tot"]
        n = x.base.vertex_count
        assert 6 * b1 >= s_tot - 2 * n
        assert 2 * b1 <= s_tot
        assert diag["beta_total"] == b1
        assert diag["beta_matches_b1"]


def test_self_loop_r_edge_round_trip():
    # Engineer a transit that leaves an inner component, circles the base
    # triangle through two pass-through clouds, and re-enters the same
    # component: a self-loop edge of R.
    c3 = build_cayley([3], [(1,)])
    fiber = build_cayley([5], [(1,), (2,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), fiber, uniform_lengths(fiber, 1.0), seed=4)
    from zeroext.certificate import Certificate, representations as make_reps
    from zeroext.extension import traverse_inter
    from zeroext.extension import extension_metric
    from zeroext.graphs import single_source_shortest_paths

    lookup = c3.edge_lookup()
    v0 = vertex_id(x, 0, 0)
    v1 = traverse_inter(x, lookup[(0, 1)], v0)
    v2 = traverse_inter(x, lookup[(1, 2)], v1)
    v3 = traverse_inter(x, lookup[(0, 2)], v2)
    assert v3 // x.fiber_size == 0 and v3 != v0
    flat = flatten(x)
    tree = single_source_shortest_paths(flat.graph, flat.lengths, v3, extension_metric(x).rows([v3])[0])
    intra_walk = tree.path_vertices(v0)
    assert all(u // x.fiber_size == 0 for u in intra_walk)
    walks = [intra_walk, [v0, v1, v2, v3]]

    ft = formal_transform(walks, x)
    icc = inner_components(ft)
    assert len(icc.components) == 1
    assert icc.r_graph.edges == [(0, 0)]  # the self-loop
    assert icc.s_tot == 2

    cert = Certificate(
        subgraph_edges=[lookup[(0, 1)], lookup[(1, 2)]],
        representations=make_reps(ft, icc),
        skeleton_paths=skeleton(ft, icc),
        representatives={0: v3, 1: v0, 2: v3},
        base=c3,
        fiber=fiber,
    )
    rebuilt = reconstruct_r(cert)
    assert rebuilt.canonical_form() == icc.canonical_form()
    assert rebuilt.r_graph.edges == [(0, 0)]


def test_reverse_transit_replay_in_reconstruction():
    # A transit traversed forward by one path and backward by another must be
    # recognized as the same R edge during reconstruction.  Each path runs
    # from the smaller cloud of its kept base edge: 0 = (0, 2) and 1 = (2, 3).
    from zeroext.certificate import Certificate, representations as make_reps

    base = Graph(vertex_count=4, edges=[(0, 2), (2, 3), (0, 1), (1, 2), (0, 3)])
    fiber = Graph(vertex_count=2, edges=[])
    fwd = QPath(
        verts=[(0, 1), (1, 1), (2, 1)],
        labels=[EdgeLabel("inter", 2, 1), EdgeLabel("inter", 3, 1)],
    )
    rev = QPath(
        verts=[(2, 1), (1, 1), (0, 1), (3, 1)],
        labels=[
            EdgeLabel("inter", 3, -1),
            EdgeLabel("inter", 2, -1),
            EdgeLabel("inter", 4, 1),
        ],
    )
    ft = _synthetic_ft(base, fiber, [fwd, rev], {0: (0, 1), 2: (1, 1), 4: (2, 1), 6: (3, 1)})
    icc = inner_components(ft)
    assert icc.r_graph.edge_count == 2
    cert = Certificate(
        subgraph_edges=[0, 1],
        representations=make_reps(ft, icc),
        skeleton_paths=skeleton(ft, icc),
        representatives={0: 0, 2: 4, 3: 6},
        base=base,
        fiber=fiber,
    )
    rebuilt = reconstruct_r(cert)
    assert rebuilt.canonical_form() == icc.canonical_form()
    assert rebuilt.r_graph.edge_count == 2


# -- tampered certificate documents --------------------------------------------------


@pytest.fixture(scope="module")
def cert_docs():
    """JSON documents of a certificate over random regular graphs and of one
    over Cayley graphs, with the public graphs they are read against."""
    corpus = candidate_corpus(3, seed0=5)
    docs = {}
    for family, (x, _, cand) in (("regular", corpus[0]), ("cayley", corpus[2])):
        doc = certificate_to_json(build_certificate(x, cand, force=True))
        docs[family] = (json.dumps(doc), x.base, x.fiber)
    return docs


def test_certificate_document_stores_each_fact_once(cert_docs):
    """The document holds no field its reader only re-derives or cross-checks:
    no kept vertices, endpoints, path lengths, component clouds or label
    mode."""
    for text, _, _ in cert_docs.values():
        doc = json.loads(text)
        assert set(doc) == {
            "format", "version", "subgraph", "representations", "representatives", "skeleton"
        }
        assert all(type(eid) is int for eid in doc["subgraph"])
        for rep in doc["representations"]:
            assert set(rep) == {"distinguished", "diffs", "anchor_identity"}
        assert doc["skeleton"]
        for sp in doc["skeleton"]:
            assert set(sp) == {"labels", "kept"}
            assert all(len(label) == 3 for label in sp["labels"])


def test_candidate_vertices_are_the_representative_clouds():
    # The certificate stores the kept clouds only as the keys of its
    # representatives; that is faithful because they are the same set.
    for _, _, cand in candidate_corpus(9, seed0=0):
        assert cand.vertices == sorted(cand.rep_map)


def rebuild_from(docs, family, tamper):
    text, base, fiber = docs[family]
    doc = json.loads(text)
    tamper(doc)
    return reconstruct_r(certificate_from_json(doc, base, fiber))


def drop_representative(doc):
    # Path 0 starts at the representative of an endpoint of kept edge 0; in
    # this corpus every representative lies in its own cloud.
    g1 = doc["skeleton"][0]["kept"][0][1][0]
    doc["representatives"] = [pair for pair in doc["representatives"] if pair[0] != g1]


def drop_diff(doc):
    rep = next(r for r in doc["representations"] if len(r["distinguished"]) > 1)
    del rep["diffs"][0]


def far_label(doc):
    sp = next(sp for sp in doc["skeleton"] if sp["labels"])
    sp["labels"][0][1] = 10**6


def null_anchor(doc):
    doc["representations"][0]["anchor_identity"] = None


def move_end_representative(doc):
    # Cloud 6 only ends kept paths (base edges (1, 6), (2, 6) and (3, 6));
    # its representative moves from vertex 40 to 41 of the same cloud.
    doc["representatives"][6] = [6, 41]


def kept_beyond_path(doc):
    sp = doc["skeleton"][0]
    sp["kept"].append([999, sp["kept"][-1][1]])


def representative_twice(doc):
    # A second pair for the first cloud, ahead of its own: [0, 5] before [0, 4].
    g, v = doc["representatives"][0]
    doc["representatives"].insert(0, [g, v + 1])


def kept_position_twice(doc):
    sp = doc["skeleton"][0]
    sp["kept"].append(list(sp["kept"][0]))


TAMPERED = {
    "dropped-representative": ("regular", drop_representative, "joins a cloud without a representative"),
    "dropped-diff": ("regular", drop_diff, r"component \d+: \d+ relative positions for \d+ distinguished vertices besides"),
    "label-edge-1e6": ("regular", far_label, "label names edge 1000000"),
    "label-edge-1e6-cayley": ("cayley", far_label, "label names edge 1000000"),
    "null-anchor": ("regular", null_anchor, "anchor identity None is no fiber vertex"),
    "end-representative-moved": ("regular", move_end_representative,
                                 "end identity disagrees with representative"),
    "kept-position-999": ("regular", kept_beyond_path, r"kept position 999 outside \[0, \d+\)"),
    "representative-cloud-twice": ("regular", representative_twice, "representative cloud 0 is listed twice"),
    "kept-position-twice": ("regular", kept_position_twice, "path 0: kept position 0 is listed twice"),
    "version": ("cayley", lambda doc: doc.__setitem__("version", 4), "unsupported certificate version 4"),
    "version-1": ("regular", lambda doc: doc.__setitem__("version", 1), "certificate version 1 is no longer read"),
    "version-2": ("cayley", lambda doc: doc.__setitem__("version", 2), "certificate version 2 is no longer read"),
    "kept-edge-id-1e6": ("regular", lambda doc: doc["subgraph"].__setitem__(-1, 10**6),
                         "kept edge 1000000 is no edge of the base graph"),
    "kept-edges-descending": ("regular", lambda doc: doc["subgraph"].reverse(),
                              "kept edge ids are not strictly ascending"),
    "kept-edge-twice": ("cayley", lambda doc: doc["subgraph"].insert(0, doc["subgraph"][0]),
                        "kept edge ids are not strictly ascending"),
    "kept-vertex-1e6": ("cayley", lambda doc: doc["representatives"].append([10**6, 0]),
                        r"representative clouds \[1000000\] are outside the base graph"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_certificate_raises_certificate_error(cert_docs, case):
    family, tamper, message = TAMPERED[case]
    with pytest.raises(CertificateError, match=message):
        rebuild_from(cert_docs, family, tamper)


def test_certificate_numbers_must_be_json_integers(cert_docs):
    """A float, bool or string where an id, position or direction belongs is
    rejected, not truncated or cast."""
    def first_label(doc, direction):
        return next(
            lab for sp in doc["skeleton"] for lab in sp["labels"] if lab[2] == direction
        )

    def set_anchor(value):
        def tamper(doc):
            rep = doc["representations"][0]
            rep["anchor_identity"] = value(rep["anchor_identity"])
        return tamper

    cases = {
        "representative vertex": (
            lambda doc: doc["representatives"][0].__setitem__(1, doc["representatives"][0][1] + 0.5),
            r"malformed certificate document: ValueError\('\d+\.5 is not an integer'\)",
        ),
        "fractional anchor": (set_anchor(lambda h: h + 0.9), r"anchor identity \d+\.9 is no fiber vertex"),
        "string anchor": (set_anchor(str), r"anchor identity '\d+' is no fiber vertex"),
        "boolean direction": (
            lambda doc: first_label(doc, 1).__setitem__(2, True),
            r"ValueError\('True is not an integer'\)",
        ),
        "float kept position": (
            lambda doc: doc["skeleton"][0]["kept"][0].__setitem__(0, 0.0),
            r"ValueError\('0\.0 is not an integer'\)",
        ),
        "string kept edge id": (
            lambda doc: doc["subgraph"].__setitem__(0, str(doc["subgraph"][0])),
            r"ValueError\(\"'\d+' is not an integer\"\)",
        ),
    }
    assert rebuild_from(cert_docs, "regular", lambda doc: None).r_graph.edge_count > 0
    for tamper, message in cases.values():
        with pytest.raises(CertificateError, match=message):
            rebuild_from(cert_docs, "regular", tamper)


def _parts(node):
    """(container, key) of every entry of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _parts(value)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(["regular", "cayley"]),
    truncate=st.booleans(),
    replacement=st.one_of(st.integers(-3, 12), st.just(10**6), st.none(), st.just("bogus")),
    data=st.data(),
)
def test_truncated_or_perturbed_certificates_raise_only_certificate_error(
    cert_docs, family, truncate, replacement, data
):
    """Drop one key or list tail, or overwrite one scalar; reconstruction then
    either succeeds or raises CertificateError, never another exception."""
    def tamper(doc):
        parts = list(_parts(doc))
        if not truncate:
            parts = [(c, k) for c, k in parts if not isinstance(c[k], (dict, list))]
        container, key = data.draw(st.sampled_from(parts))
        if not truncate:
            container[key] = replacement
        elif isinstance(container, dict):
            del container[key]
        else:
            del container[key:]

    try:
        rebuild_from(cert_docs, family, tamper)
    except CertificateError:
        pass
