from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import (
    build_cayley,
    candidate_corpus,
    direct_route_setup,
    exhaustive_homeomorphism_verdict,
    graph_fw,
    heap_dijkstra_tree,
    random_connected_graph,
    wandering_setup,
)
from zeroext import extension, graphs, instance, split
from zeroext.extension import flatten, sample_extension
from zeroext.graphs import Graph, uniform_lengths
from zeroext.split import (
    SplitCandidate,
    SplitError,
    build_split_candidate,
    check_cycle_homeomorphism,
    extract_representatives,
    per_cloud_labeling,
    verify_split,
)


# -- representative extraction ---------------------------------------------------


def test_whole_cloud_labeling_gives_total_map():
    x, inst = wandering_setup(0)
    f = per_cloud_labeling(inst, x, 0)
    reps = extract_representatives(inst, x, f, threshold=0.9)
    assert sorted(reps) == list(range(x.cloud_count))
    for g in reps:
        assert reps[g] == g * x.fiber_size


def test_half_split_cloud_excluded():
    x, inst = wandering_setup(1)
    f = per_cloud_labeling(inst, x, 0)
    half = x.fiber_size // 2
    k = x.vertex_count
    f[:half] = k + 1  # half of cloud 0 to one terminal,
    f[half : x.fiber_size] = k + 2  # half to another
    reps = extract_representatives(inst, x, f, threshold=0.9)
    assert 0 not in reps
    assert set(range(1, x.cloud_count)) <= set(reps)


def test_threshold_boundary_inclusive():
    base = Graph(vertex_count=2, edges=[(0, 1)])
    fiber = graphs.random_regular(10, 3, seed=0).graph
    x = sample_extension(base, np.array([1.0]), fiber, uniform_lengths(fiber, 1.0), seed=0)
    inst = instance.build_gap_instance(x, big_l=1.0)
    k = x.vertex_count
    f = per_cloud_labeling(inst, x, 0)
    f[9] = k + 9  # 9 of 10 vertices still vote for fiber vertex 0
    reps = extract_representatives(inst, x, f, threshold=0.9)
    assert reps[0] == 0


def test_threshold_at_half_rejected():
    x, inst = wandering_setup(2)
    f = per_cloud_labeling(inst, x, 0)
    with pytest.raises(SplitError, match="exceed 1/2"):
        extract_representatives(inst, x, f, threshold=0.5)


# -- candidate construction --------------------------------------------------------


def test_same_cloud_representatives_all_kept():
    x, inst = wandering_setup(3)
    f = per_cloud_labeling(inst, x, 2)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.01, threshold=0.9)
    # hop distance 0 passes any non-negative bound
    assert cand.vertices == list(range(x.cloud_count))
    assert len(cand.edge_ids) == x.base.edge_count


def test_far_representative_cloud_excluded():
    x, inst = wandering_setup(4)
    n = x.cloud_count
    hop_bound = math.floor(0.2 * math.log(n))
    hops = split.hop_rows(x.base, [0])[0]
    assert hops.tolist() == graph_fw(x.base, uniform_lengths(x.base, 1.0))[0].tolist()
    far = int(np.argmax(hops))
    assert hops[far] > hop_bound
    targets = {g: g * x.fiber_size for g in range(n)}
    targets[0] = far * x.fiber_size  # cloud 0's representative lives far away
    f = per_cloud_labeling(inst, x, targets)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.2, threshold=0.9)
    assert 0 not in cand.vertices
    assert far in cand.vertices


def test_unreachable_representative_cloud_excluded():
    # A disconnected base gives no instance (its terminal metric would hold
    # infinities), so the labeling is checked against the instance of a path
    # base of the same size; only the analysed extension is disconnected.
    fiber = build_cayley([3], [(1,)])
    path = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3)])
    two = Graph(vertex_count=4, edges=[(0, 1), (2, 3)])
    assert split.hop_rows(two, [0, 3]).tolist() == [[0, 1, -1, -1], [-1, -1, 1, 0]]

    def extend(base):
        unit = uniform_lengths(base, 1.0)
        return sample_extension(base, unit, fiber, uniform_lengths(fiber, 1.0), seed=0)

    inst, x = instance.build_gap_instance(extend(path), big_l=1.0), extend(two)
    targets = {g: g * 3 for g in range(4)}
    targets[0] = 2 * 3  # cloud 0's representative lies in the other component
    targets[1] = 0  # cloud 1's lies one hop away
    f = per_cloud_labeling(inst, x, targets)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.9, threshold=0.9)
    assert math.floor(0.9 * math.log(4)) == 1
    assert cand.vertices == [1, 2, 3]
    assert cand.edge_ids == [1]
    forced = dataclasses.replace(cand, rep_map={**cand.rep_map, 0: 6})
    assert forced.vertices == [0, 1, 2, 3]
    closeness = verify_split(forced, x).conditions["closeness"]
    assert closeness.witnesses == [{"cloud": 0, "hops": -1}]


def test_candidate_edges_match_hand_filter():
    # Seed-fixed C5-by-C4 sample; the kept edge list is re-derived by hand
    # with an independent Floyd-Warshall metric.
    c5 = build_cayley([5], [(1,)])
    c4 = build_cayley([4], [(1,)])
    x = sample_extension(c5, uniform_lengths(c5, 1.0), c4, uniform_lengths(c4, 1.0), seed=12)
    inst = instance.build_gap_instance(x, big_l=1.0)
    f = per_cloud_labeling(inst, x, 1)
    alpha = 2.5
    cand = build_split_candidate(inst, x, f, alpha=alpha, epsilon=0.5, threshold=0.9)
    flat = flatten(x)
    oracle = graph_fw(flat.graph, flat.lengths)
    want = [
        eid
        for eid, (g1, g2) in enumerate(x.base.edges)
        if oracle[g1 * 4 + 1, g2 * 4 + 1] < alpha
    ]
    assert cand.edge_ids == want
    for eid in cand.edge_ids:
        path = cand.path_assignment[eid]
        total = sum(
            flat.lengths[flat.graph.edge_lookup()[(min(a, b), max(a, b))]]
            for a, b in zip(path, path[1:])
        )
        g1, g2 = x.base.edges[eid]
        assert abs(total - oracle[g1 * 4 + 1, g2 * 4 + 1]) < 1e-9


# -- cycle-homeomorphism ---------------------------------------------------------------


def square():
    return Graph(vertex_count=4, edges=[(0, 1), (0, 3), (1, 2), (2, 3)])


def test_identity_with_single_edge_paths_is_homeomorphism():
    g = square()
    f_tilde = {v: v for v in range(4)}
    paths = {eid: [u, v] for eid, (u, v) in enumerate(g.edges)}
    ok, witness = check_cycle_homeomorphism(f_tilde, paths, g)
    assert ok and witness is None


def test_complementary_path_breaks_parity():
    g = square()
    f_tilde = {v: v for v in range(4)}
    paths = {eid: [u, v] for eid, (u, v) in enumerate(g.edges)}
    paths[0] = [0, 3, 2, 1]  # replace edge (0,1) by the long way round
    ok, witness = check_cycle_homeomorphism(f_tilde, paths, g)
    assert not ok
    assert witness is not None and witness.sum() == 4  # the 4-cycle witnesses


def test_constant_map_with_empty_paths_fails_on_cycles():
    g = square()
    f_tilde = {v: 0 for v in range(4)}
    paths = {eid: [0] for eid in range(4)}
    ok, _ = check_cycle_homeomorphism(f_tilde, paths, g)
    assert not ok
    # ... but passes vacuously when the subgraph is a forest.
    ok2, _ = check_cycle_homeomorphism(f_tilde, {0: [0], 1: [0]}, g)
    assert ok2


def test_path_of_an_edge_leaving_the_mapped_vertices_is_structural_error():
    g = square()
    f_tilde = {0: 0, 1: 1, 2: 2}
    paths = {0: [0, 1], 2: [1, 2], 3: [2, 3]}  # edge 3 = (2, 3), and 3 is unmapped
    with pytest.raises(SplitError, match="edge 3 leaves the subgraph vertex set"):
        check_cycle_homeomorphism(f_tilde, paths, g)


def test_endpoint_mismatch_is_structural_error():
    g = square()
    f_tilde = {v: v for v in range(4)}
    paths = {eid: [u, v] for eid, (u, v) in enumerate(g.edges)}
    paths[2] = [2, 1]  # wrong direction for edge (1,2)
    with pytest.raises(SplitError, match="expected"):
        check_cycle_homeomorphism(f_tilde, paths, g)


def test_basis_check_equals_exhaustive_on_small_corpus():
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(30):
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, 5)))
        f_tilde = {v: int(rng.integers(0, n)) for v in range(n)}
        if rng.random() < 0.4:
            f_tilde = {v: v for v in range(n)}
        paths = {}
        fw_paths = _bfs_paths(g)
        for eid, (u, v) in enumerate(g.edges):
            paths[eid] = fw_paths[(f_tilde[u], f_tilde[v])]
        ok_basis, _ = check_cycle_homeomorphism(f_tilde, paths, g)
        ok_full = exhaustive_homeomorphism_verdict(f_tilde, paths, g, range(g.edge_count))
        assert ok_basis == ok_full
        agree += 1
    assert agree == 30


def _bfs_paths(g: Graph):
    out = {}
    adj = g.adjacency()
    for s in range(g.vertex_count):
        prev = {s: None}
        order = [s]
        for u in order:
            for w, _ in adj[u]:
                if w not in prev:
                    prev[w] = u
                    order.append(w)
        for t in prev:
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            out[(s, t)] = path[::-1]
    return out


# -- verification ------------------------------------------------------------------------


def test_pass_case_all_conditions():
    x, inst = direct_route_setup(3)
    f = per_cloud_labeling(inst, x, 0)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
    report = verify_split(cand, x)
    assert report.is_split
    assert len(cand.edge_ids) == x.base.edge_count


def test_alpha_zero_fails_distance():
    for x, inst in (direct_route_setup(4), wandering_setup(1)):
        f = per_cloud_labeling(inst, x, 0)
        cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
        cand.alpha = 0.0
        report = verify_split(cand, x)
        assert not report.conditions["distance"].passed
        witnesses = report.conditions["distance"].witnesses
        assert len(witnesses) == len(cand.edge_ids)
        # Every witness distance is the oracle's single-source distance, bit for bit.
        flat = flatten(x)
        for w in witnesses:
            g1, g2 = x.base.edges[w["edge"]]
            oracle = heap_dijkstra_tree(flat.graph, flat.lengths, cand.rep_map[g1])
            assert w["distance"] == float(oracle.dist[cand.rep_map[g2]])


def test_epsilon_zero_fails_size_for_proper_subgraph():
    x, inst = direct_route_setup(5)
    f = per_cloud_labeling(inst, x, 0)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
    cand.epsilon = 0.0
    assert verify_split(cand, x).conditions["size"].passed
    del cand.path_assignment[cand.edge_ids[-1]]
    report = verify_split(cand, x)
    assert not report.conditions["size"].passed
    assert report.conditions["size"].detail.startswith(f"kept {x.base.edge_count - 1} of")


def test_candidate_rebuilt_from_its_two_maps_verifies_identically():
    # The maps are rebuilt with their keys in descending order: the kept
    # clouds and edges are read as sorted views, so key order cannot matter.
    for x, inst, cand in candidate_corpus(6, seed0=3):
        rebuilt = SplitCandidate(
            rep_map={g: cand.rep_map[g] for g in reversed(cand.vertices)},
            path_assignment={e: list(cand.path_assignment[e]) for e in reversed(cand.edge_ids)},
            alpha=cand.alpha,
            epsilon=cand.epsilon,
            threshold=cand.threshold,
        )
        assert (rebuilt.vertices, rebuilt.edge_ids) == (cand.vertices, cand.edge_ids)
        want = json.dumps(verify_split(cand, x).as_dict(), indent=2)
        assert json.dumps(verify_split(rebuilt, x).as_dict(), indent=2) == want


def test_verify_deterministic_and_serializable():
    x, inst = direct_route_setup(6)
    f = per_cloud_labeling(inst, x, 1)
    cand = build_split_candidate(inst, x, f, alpha=1e9, epsilon=0.3, threshold=0.9)
    r1 = json.dumps(verify_split(cand, x).as_dict(), indent=2)
    r2 = json.dumps(verify_split(cand, x).as_dict(), indent=2)
    assert r1 == r2
    doc = json.loads(r1)
    assert set(doc["conditions"]) == {"size", "distance", "closeness", "cycle_homeomorphism"}
