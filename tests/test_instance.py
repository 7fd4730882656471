from __future__ import annotations

import numpy as np
import pytest

from conftest import graph_fw
from zeroext import extension, graphs, instance
from zeroext.extension import flatten, sample_extension
from zeroext.graphs import Graph, build_cayley, uniform_lengths
from zeroext.instance import (
    GapParams,
    InstanceError,
    build_gap_instance,
    build_generic_instance,
    default_gap_instance,
    load_instance,
    save_instance,
    validate_semimetric,
)


def c3():
    return build_cayley([3], [(1,)])


def single_inter_edge(length=5.0, seed=0):
    base = Graph(vertex_count=2, edges=[(0, 1)])
    fiber = Graph(vertex_count=1, edges=[])
    return sample_extension(base, np.array([length]), fiber, np.zeros(0), seed=seed)


def test_gap_metric_single_edge():
    inst = build_gap_instance(single_inter_edge(5.0), big_l=7.0)
    assert inst.metric.value(0, 1) == 5.0 + 14.0
    assert inst.metric.value(1, 0) == 19.0
    assert inst.metric.value(0, 0) == 0.0
    # weight 1/5 on the extension edge, 1/7 on both pendants
    assert inst.weights.tolist() == [1 / 5, 1 / 7, 1 / 7]


def test_gap_metric_matches_fw_oracle():
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=4)
    inst = build_gap_instance(x, big_l=1.0)
    flat = flatten(x)
    oracle = graph_fw(flat.graph, flat.lengths)
    want = oracle + 2.0
    np.fill_diagonal(want, 0.0)
    got = inst.metric.matrix()
    assert np.allclose(got, want, rtol=1e-9, atol=0)


def test_default_params_derived_quantities():
    p = GapParams(n=16, d=4)
    # Frozen from a 50-digit decimal oracle (Newton cube root of ln 16).
    assert abs(p.big_l - 2.7725887222397812) < 1e-12
    assert abs(p.ell_h - 1.4048452394288693) < 1e-12
    assert abs(p.ell_g - 1.9735901467459570) < 1e-12
    # Internal identities tie the three scales together.
    assert abs(p.ell_g - p.ell_h**2) < 1e-12
    assert abs(p.big_l - p.ell_h**3) < 1e-12


def test_default_gap_instance_shape():
    build = default_gap_instance(8, 4, 0)
    inst = build.instance
    assert inst.k == 64
    assert inst.vertex_count == 128
    assert build.provenance["girth"] >= build.provenance["girth_floor"]
    assert inst.graph.edge_count == 8 * 16 + 16 * 8 + 64


def test_default_gap_instance_deterministic(tmp_path):
    a = default_gap_instance(6, 4, 11).instance
    b = default_gap_instance(6, 4, 11).instance
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(a, pa)
    save_instance(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_terminal_metric_is_shortest_path_metric_of_instance_graph():
    # With lengths (extension lengths on X-edges, L on pendants), distances in
    # the full instance graph between terminals reproduce D.
    build = default_gap_instance(5, 4, 2)
    inst = build.instance
    assert inst.k <= 50
    lengths = inst.origin.edge_lengths
    oracle = graph_fw(inst.graph, lengths)
    for i in range(inst.k):
        ti = int(inst.terminals[i])
        for j in range(inst.k):
            tj = int(inst.terminals[j])
            want = inst.metric.value(i, j)
            assert abs(oracle[ti, tj] - want) <= 1e-9 * max(1.0, want)


def test_generic_star_and_uniform_metric():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    inst = build_generic_instance(g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert inst.k == 2
    uniform = np.ones((3, 3)) - np.eye(3)
    g2 = Graph(vertex_count=5, edges=[(0, 3), (3, 4), (4, 1), (3, 2)])
    inst2 = build_generic_instance(g2, np.ones(4), np.array([0, 1, 2]), uniform)
    assert inst2.k == 3


def test_triangle_violation_rejected_with_triple():
    bad = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    with pytest.raises(InstanceError, match=r"triangle.*D\(0,2\).*D\(0,1\).*D\(1,2\)"):
        validate_semimetric(bad)
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InstanceError, match="triangle"):
        build_generic_instance(g, np.ones(3), np.array([0, 1, 3]), bad)


def test_semimetric_validation_other_errors():
    with pytest.raises(InstanceError, match="diagonal"):
        validate_semimetric(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InstanceError, match="negative"):
        validate_semimetric(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InstanceError, match="asymmetry"):
        validate_semimetric(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_disconnected_extension_rejected():
    base = Graph(vertex_count=2, edges=[(0, 1)])
    fiber = Graph(vertex_count=2, edges=[])
    x = sample_extension(base, np.array([1.0]), fiber, np.zeros(0), seed=0)
    with pytest.raises(InstanceError, match="disconnected"):
        build_gap_instance(x, big_l=1.0)


def test_instance_json_round_trip(tmp_path):
    build = default_gap_instance(4, 3, 5)
    path = tmp_path / "inst.json"
    save_instance(build.instance, path)
    back = load_instance(path)
    assert back.graph.edges == build.instance.graph.edges
    assert np.array_equal(back.weights, build.instance.weights)
    assert np.array_equal(back.terminals, build.instance.terminals)
    assert np.allclose(back.metric.matrix(), build.instance.metric.matrix(), rtol=0, atol=0)
    save_instance(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for inst in (build.instance, back):
        assert inst.origin.dx is extension.extension_metric(inst.origin.extension)
        assert inst.metric.dx is inst.origin.dx

    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    generic = build_generic_instance(g, np.array([1.0, 2.0]), np.array([0, 2]), np.array([[0.0, 3.0], [3.0, 0.0]]))
    p2 = tmp_path / "generic.json"
    save_instance(generic, p2)
    back2 = load_instance(p2)
    assert not back2.is_gap
    assert back2.metric.value(0, 1) == 3.0


def test_gap_params_validation():
    with pytest.raises(InstanceError):
        GapParams(n=2, d=4)
    with pytest.raises(InstanceError):
        GapParams(n=8, d=2)
    assert GapParams(n=64, d=4).terminal_count == instance.DENSE_METRIC_CAP
    with pytest.raises(InstanceError, match=r"k=n\^2=4225 .*ceiling k <= 4096"):
        GapParams(n=65, d=4)


def test_default_gap_instance_checks_ceiling_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph for an instance over the ceiling")

    monkeypatch.setattr(instance, "random_regular", no_sampling)
    with pytest.raises(InstanceError, match="ceiling"):
        default_gap_instance(65, 4, 0)


def test_build_and_load_enforce_the_dense_ceiling(tmp_path, monkeypatch):
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=8)
    path = tmp_path / "inst.json"
    save_instance(build_gap_instance(x, big_l=1.5), path)

    def no_apsp(*args, **kwargs):
        raise AssertionError("computed D_X for an instance over the ceiling")

    monkeypatch.setattr(instance, "DENSE_METRIC_CAP", 8)  # k = 9
    monkeypatch.setattr(extension, "shortest_path_metric", no_apsp)
    with pytest.raises(InstanceError, match="k=9 points, above the dense metric ceiling k <= 8"):
        build_gap_instance(x, big_l=1.5)
    with pytest.raises(InstanceError, match="ceiling k <= 8"):
        load_instance(path)


def test_girth_floor_failure_reports_best():
    with pytest.raises(InstanceError, match="best girth"):
        default_gap_instance(12, 4, 0, girth_floor=30, retry_cap=5)
