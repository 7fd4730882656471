from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from conftest import (
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
from zeroext.graphs import Graph, build_cayley, uniform_lengths
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
    # Without stored paths the certificate builds its own trees from D_X rows:
    # the same canonical paths as the heap-Dijkstra oracle.
    rebuilt = shortest_rep_paths(x, dataclasses.replace(cand, path_assignment={}))
    assert rebuilt == paths
    for eid, path in zip(sorted(cand.edge_ids), rebuilt):
        g1, g2 = x.base.edges[eid]
        r1, r2 = cand.rep_map[g1], cand.rep_map[g2]
        assert path == heap_dijkstra_tree(flat.graph, flat.lengths, r1).path_vertices(r2)


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
    ft.paths[target].labels[0] = EdgeLabel("intra", "gen", 99, 0)  # no such generator
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
    return FormalTransformation(
        paths=paths, ind=ind, base=base, fiber=fiber, fiber_size=fiber.vertex_count
    )


def test_straight_through_cloud_contributes_no_r_vertex():
    base = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    fiber = Graph(vertex_count=2, edges=[])
    q = QPath(
        verts=[(0, 1), (1, 1), (2, 1)],
        labels=[
            EdgeLabel("inter", "edge", 0, 1),
            EdgeLabel("inter", "edge", 1, 1),
        ],
    )
    ft = _synthetic_ft(base, fiber, [q], {0: (0, 1), 2: (1, 1), 4: (2, 1)})
    icc = inner_components(ft)
    assert len(icc.components) == 2  # the endpoints only
    assert sorted(c.cloud for c in icc.components) == [0, 2]
    assert icc.r_graph.edge_count == 1
    assert len(icc.transits[0].labels) == 2
    assert icc.s_tot == 2
    # Endpoint components are R vertices even at degree 1.
    assert all(c.degree == 1 and c.has_representative for c in icc.components)


def test_s_tot_is_twice_edge_count_on_corpus():
    for x, inst, cand in candidate_corpus(8, seed0=3):
        _, _, icc = transform_pipeline(x, cand)
        assert icc.s_tot == 2 * icc.r_graph.edge_count
        for comp in icc.components:
            assert comp.degree >= 3 or comp.has_representative


def test_non_inner_components_are_paths_on_split_inputs():
    # Degree-2 components without representatives must look like paths:
    # intra edge count = size - 1.
    for seed in range(3):
        x, inst = direct_route_setup(20 + seed)
        f = per_cloud_labeling(inst, x, 0)
        cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
        _, _, icc = transform_pipeline(x, cand)
        for rec in icc.non_inner:
            assert rec["degree"] <= 2
            assert rec["intra_edges"] == rec["size"] - 1


# -- skeleton ---------------------------------------------------------------------------


def test_intra_only_path_keeps_endpoints_only():
    base = Graph(vertex_count=1, edges=[])
    fiber = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    q = QPath(
        verts=[(0, 1), (0, 2), (0, 3)],
        labels=[EdgeLabel("intra", "edge", 0, 1), EdgeLabel("intra", "edge", 1, 1)],
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
        labels=[EdgeLabel("inter", "edge", 0, 1), EdgeLabel("inter", "edge", 1, 1)],
    )
    rev = QPath(
        verts=[(2, 1), (1, 1), (0, 1)],
        labels=[EdgeLabel("inter", "edge", 1, -1), EdgeLabel("inter", "edge", 0, -1)],
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
    inner = set()
    for comp in icc.components:
        inner.update(comp.members)
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
    # Seed 2 is a pinned wandering sample whose projected paths break the
    # cycle condition.
    x, inst = wandering_setup(2)
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
                flipped = cert_mod._invert_label(lab, x.base, x.fiber)
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
    x, inst, cand = candidate_corpus(3, seed0=2)[2]  # Cayley mode
    _, ft, icc = transform_pipeline(x, cand)
    reps = representations(ft, icc)
    for rep in reps:
        p = len(rep.distinguished)
        assert len(rep.diffs) == p * (p - 1)
        for (a, b), diff in rep.diffs.items():
            inv = rep.diffs[(b, a)]
            assert x.fiber.group.mul(diff, inv) == x.fiber.group.identity()


# -- diagnostics ----------------------------------------------------------------------------


def _dummy_transits(edges):
    return [
        Transit(comp_a=u, comp_b=v, end_inds=((u, 1), (v, 1)), labels=[], last_base_edge=i % 3)
        for i, (u, v) in enumerate(edges)
    ]


def test_diagnostics_tree_r():
    edges = [(0, 1), (1, 2)]
    icc = ICCGraph(
        components=[],
        r_graph=Graph(vertex_count=3, edges=edges, multigraph=True),
        transits=_dummy_transits(edges),
        surprising=set(),
        s_tot=4,
        members_complete=False,
    )
    diag = diagnostics(icc, Graph(vertex_count=50, edges=[]), epsilon=0.1, d=4)
    assert diag["b1"] == 0
    assert diag["constraint_edge_count"] == 0
    assert diag["certificate_probability"] == 1.0
    assert diag["beta_matches_b1"]


def test_diagnostics_single_cycle_probability():
    edges = [(0, 1), (1, 2), (0, 2)]
    icc = ICCGraph(
        components=[],
        r_graph=Graph(vertex_count=3, edges=edges, multigraph=True),
        transits=_dummy_transits(edges),
        surprising=set(),
        s_tot=6,
        members_complete=False,
    )
    diag = diagnostics(icc, Graph(vertex_count=100, edges=[]), epsilon=0.1, d=4)
    assert diag["b1"] == 1
    assert abs(diag["certificate_probability"] - 0.02) < 1e-15
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
    tree = single_source_shortest_paths(flat.graph, flat.lengths, v3, extension_metric(x)[v3])
    intra_walk = tree.path_vertices(v0)
    assert all(u // x.fiber_size == 0 for u in intra_walk)
    walks = [intra_walk, [v0, v1, v2, v3]]

    ft = formal_transform(walks, x)
    icc = inner_components(ft)
    assert len(icc.components) == 1
    assert icc.r_graph.edges == [(0, 0)]  # the self-loop
    assert icc.s_tot == 2

    cert = Certificate(
        base_mode="gen",
        fiber_mode="gen",
        subgraph_vertices=[0, 1, 2],
        subgraph_edges=[(lookup[(0, 1)], 0, 1), (lookup[(1, 2)], 1, 2)],
        representations=make_reps(ft, icc),
        skeleton_paths=skeleton(ft, icc),
        representatives={0: v3, 1: v0, 2: v3},
        base=c3,
        fiber=fiber,
        fiber_size=x.fiber_size,
    )
    rebuilt = reconstruct_r(cert)
    assert rebuilt.canonical_form() == icc.canonical_form()
    assert rebuilt.r_graph.edges == [(0, 0)]


def test_reverse_transit_replay_in_reconstruction():
    # A transit traversed forward by one path and backward by another must be
    # recognized as the same R edge during reconstruction.
    from zeroext.certificate import Certificate, representations as make_reps

    base = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    fiber = Graph(vertex_count=2, edges=[])
    fwd = QPath(
        verts=[(0, 1), (1, 1), (2, 1)],
        labels=[EdgeLabel("inter", "edge", 0, 1), EdgeLabel("inter", "edge", 1, 1)],
    )
    rev = QPath(
        verts=[(2, 1), (1, 1), (0, 1)],
        labels=[EdgeLabel("inter", "edge", 1, -1), EdgeLabel("inter", "edge", 0, -1)],
    )
    ft = _synthetic_ft(base, fiber, [fwd, rev], {0: (0, 1), 2: (1, 1), 4: (2, 1)})
    icc = inner_components(ft)
    assert icc.r_graph.edge_count == 1
    cert = Certificate(
        base_mode="edge",
        fiber_mode="edge",
        subgraph_vertices=[0, 1, 2],
        subgraph_edges=[(0, 0, 2), (1, 2, 0)],
        representations=make_reps(ft, icc),
        skeleton_paths=skeleton(ft, icc),
        representatives={0: 0, 2: 4},
        base=base,
        fiber=fiber,
        fiber_size=2,
    )
    rebuilt = reconstruct_r(cert)
    assert rebuilt.canonical_form() == icc.canonical_form()
    assert rebuilt.r_graph.edge_count == 1
