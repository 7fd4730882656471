from __future__ import annotations

import functools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_cayley, dense_second_eigenvalue, graph_fw
from zeroext import extension, graphs, instance
from zeroext.extension import flatten, sample_extension
from zeroext.graphs import Graph, uniform_lengths
from zeroext.instance import (
    GapSpec,
    InstanceError,
    build_gap_instance,
    build_generic_instance,
    default_gap_instance,
    load_instance,
    save_instance,
    validate_semimetric,
)
from zeroext.relaxation import is_feasible


def c3():
    return build_cayley([3], [(1,)])


def single_inter_edge(length=5.0, seed=0):
    base = Graph(vertex_count=2, edges=[(0, 1)])
    fiber = Graph(vertex_count=1, edges=[])
    return sample_extension(base, np.array([length]), fiber, np.zeros(0), seed=seed)


def test_gap_metric_single_edge():
    inst = build_gap_instance(single_inter_edge(5.0), big_l=7.0)
    assert inst.metric.pair_values(0, 1) == 5.0 + 14.0
    assert inst.metric.pair_values(1, 0) == 19.0
    assert inst.metric.pair_values(0, 0) == 0.0
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


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_metric_methods_return(metric, want):
    """Every method of the terminal metric reads `want` bit for bit."""
    k = want.shape[0]
    ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    positions = np.array([k - 1, 0, k - 1, k // 2])
    assert_same_bits(metric.matrix(), want)
    assert_same_bits(metric.pair_values(ii, jj), want)
    assert_same_bits(metric.pair_values(ii[:, :1], np.arange(k)[None, :]), want)  # broadcast
    assert_same_bits(metric.rows(positions), want[positions])


def test_gap_terminal_metric_is_dx_plus_2l_off_a_zero_diagonal(small_gap):
    inst = small_gap.instance
    dx, big_l = extension.extension_metric(inst.origin.extension), inst.origin.big_l
    want = dx.matrix() + 2.0 * big_l
    np.fill_diagonal(want, 0.0)
    assert inst.k == 64 and inst.metric.base is dx and inst.metric.shift == 2.0 * big_l
    assert_metric_methods_return(inst.metric, want)
    rowsums = inst.metric.rowsums()
    assert_same_bits(rowsums, dx.matrix().sum(axis=1) + 2.0 * big_l * (inst.k - 1))
    assert np.allclose(rowsums, want.sum(axis=1), rtol=1e-12, atol=0)


def test_generic_terminal_metric_returns_its_matrix_with_negative_zeros_as_zeros():
    # Terminals 3, 0, 2 (out of id order); a diagonal entry of 1e-12 and a
    # -0.0 entry, both of which validate_semimetric accepts.
    mat = np.array([[1e-12, 2.0, -0.0], [2.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (1, 3)])
    inst = build_generic_instance(g, np.ones(3), np.array([3, 0, 2]), mat)
    want = mat.copy()
    want[0, 2] = 0.0
    assert np.signbit(mat[0, 2]) and not np.signbit(want).any()
    assert inst.metric.shift == 0.0 and inst.metric.base is not mat
    assert_same_bits(inst.metric.base.matrix(), want)
    assert_metric_methods_return(inst.metric, want)
    assert inst.metric.pair_values(0, 0) == 1e-12
    assert_same_bits(inst.metric.rowsums(), want.sum(axis=1))


def test_default_params_derived_quantities():
    p = GapSpec(16, 4)
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


@pytest.mark.parametrize("n, seed", [(8, 0), (16, 1), (64, 0)])
def test_default_gap_instance_records_exact_second_eigenvalues(n, seed):
    build = default_gap_instance(n, 4, seed, girth_floor=3)
    prov, x = build.provenance, build.extension
    assert "expansion_iterations" not in prov
    assert abs(prov["lambda2_base"] - dense_second_eigenvalue(x.base)) < 1e-12
    assert abs(prov["lambda2_fiber"] - dense_second_eigenvalue(x.fiber)) < 1e-12


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
            want = inst.metric.pair_values(i, j)
            assert abs(oracle[ti, tj] - want) <= 1e-9 * max(1.0, want)


def test_generic_star_and_uniform_metric():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    inst = build_generic_instance(g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert inst.k == 2
    uniform = np.ones((3, 3)) - np.eye(3)
    g2 = Graph(vertex_count=5, edges=[(0, 3), (3, 4), (4, 1), (3, 2)])
    inst2 = build_generic_instance(g2, np.ones(4), np.array([0, 1, 2]), uniform)
    assert inst2.k == 3


def test_term_index_matches_a_loop_and_names_the_first_terminal_out_of_range():
    inst = default_gap_instance(5, 4, 0).instance
    want = np.full(inst.vertex_count, -1, dtype=np.int64)
    for pos, t in enumerate(inst.terminals.tolist()):
        want[t] = pos
    assert inst.term_index.dtype == want.dtype and np.array_equal(inst.term_index, want)
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3)])
    for terminals, first in (([0, 5, -2, 9], 5), ([3, -2, 4], -2)):
        with pytest.raises(InstanceError, match=rf"^terminal {first} out of range$"):
            instance.ZeroExtInstance(g, np.ones(3), terminals, instance.TerminalMetric(np.zeros((len(terminals),) * 2)))


def test_zero_terminals_are_refused_when_built_and_when_loaded(tmp_path):
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    with pytest.raises(InstanceError, match="^an instance needs at least one terminal$"):
        build_generic_instance(g, np.ones(2), np.zeros(0, dtype=np.int64), np.zeros((0, 0)))
    # A gap instance over an empty base, as a hand-edited file's origin gives.
    empty = sample_extension(Graph(vertex_count=0, edges=[]), np.zeros(0), c3(), uniform_lengths(c3(), 1.0), seed=0)
    with pytest.raises(InstanceError, match="^an instance needs at least one terminal$"):
        build_gap_instance(empty, big_l=1.0)
    # The dense file such an instance would save as: its empty matrix reads
    # back with shape (0,), but the missing terminal is the error reported.
    path = tmp_path / "no-terminals.json"
    path.write_text(json.dumps({
        "format": "zeroext-instance",
        "version": instance.INSTANCE_VERSION,
        "graph": {"vertex_count": 3, "edges": [[0, 1], [1, 2]]},
        "weights": [1.0, 1.0],
        "terminals": [],
        "metric": {"mode": "dense", "matrix": []},
    }))
    with pytest.raises(InstanceError, match=f"^{re.escape(str(path))}: an instance needs at least one terminal$"):
        load_instance(path)


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
    with pytest.raises(InstanceError, match=r"disconnected \(2 components of sizes 2, 2\)"):
        build_gap_instance(x, big_l=1.0)
    # Cloud 2 has no base edge: its two points are components of their own.
    base = Graph(vertex_count=3, edges=[(0, 1)])
    x = sample_extension(base, np.array([1.0]), fiber, np.zeros(0), seed=0)
    with pytest.raises(InstanceError, match=r"disconnected \(4 components of sizes 2, 2, 1, 1\)"):
        build_gap_instance(x, big_l=1.0)


def test_connected_extension_is_built_without_a_component_search(monkeypatch):
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=3)
    calls = []
    search = Graph.connected_components

    def spy(self):
        calls.append(self.vertex_count)
        return search(self)

    monkeypatch.setattr(Graph, "connected_components", spy)
    inst = build_gap_instance(x, big_l=1.5)
    assert calls == []
    assert np.isfinite(extension.extension_metric(inst.origin.extension).matrix()).all()


def test_gap_origin_dx_is_none_until_the_terminal_metric_is_read():
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=5)
    inst = build_gap_instance(x, big_l=1.5)
    assert inst.metric.size == inst.k == 9
    assert inst.origin.dx is None
    base = inst.metric.base
    assert inst.origin.dx is base and extension.extension_metric(x) is base


@pytest.mark.parametrize("seed, parts", [(1, None), (0, "2 components of sizes 3, 3")])
def test_a_lift_with_an_edgeless_fiber_is_searched_whole(seed, parts):
    # A 2-lift of the triangle: the fiber is disconnected, so the flattened
    # graph is searched; it is a 6-cycle at seed 1 and two triangles at seed 0.
    fiber = Graph(vertex_count=2, edges=[])
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), fiber, np.zeros(0), seed=seed)
    if parts is None:
        inst = build_gap_instance(x, big_l=1.0)
        assert inst.k == 6 and extension.extension_metric(x).matrix().max() == 3.0
    else:
        with pytest.raises(InstanceError, match=re.escape(f"disconnected ({parts}); ")):
            build_gap_instance(x, big_l=1.0)


def test_instance_json_round_trip(tmp_path):
    build = default_gap_instance(4, 3, 5)
    path = tmp_path / "inst.json"
    save_instance(build.instance, path)
    assert list(json.loads(path.read_text())) == ["format", "version", "provenance", "metric", "origin"]
    back = load_instance(path)
    assert back.graph.edges == build.instance.graph.edges
    assert np.array_equal(back.weights, build.instance.weights)
    assert np.array_equal(back.terminals, build.instance.terminals)
    assert np.allclose(back.metric.matrix(), build.instance.metric.matrix(), rtol=0, atol=0)
    save_instance(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for inst in (build.instance, back):
        assert inst.origin.dx is extension.extension_metric(inst.origin.extension)
        assert inst.metric.base is inst.origin.dx

    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    generic = build_generic_instance(g, np.array([1.0, 2.0]), np.array([0, 2]), np.array([[0.0, 3.0], [3.0, 0.0]]))
    p2 = tmp_path / "generic.json"
    save_instance(generic, p2)
    back2 = load_instance(p2)
    assert not back2.is_gap
    assert back2.metric.pair_values(0, 1) == 3.0


def test_gap_spec_validation():
    with pytest.raises(InstanceError):
        GapSpec(2, 4)
    with pytest.raises(InstanceError):
        GapSpec(8, 2)
    assert GapSpec(64, 4).girth_floor == 4 and GapSpec(64, 4, 6).girth_floor == 6
    assert GapSpec(128, 4).big_l == math.log(128)  # n = 128 is buildable
    with pytest.raises(InstanceError, match=r"n=129 gives k=n\^2=16641 .*streamed ceiling n <= 128"):
        GapSpec(129, 4)
    with pytest.raises(graphs.GirthFloorError, match="girth floor 30 is above the Moore bound"):
        GapSpec(8, 4, 30)


def test_default_gap_instance_checks_ceiling_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(instance, "random_regular", no_sampling)
    with pytest.raises(InstanceError, match="streamed ceiling"):
        default_gap_instance(129, 4, 0)
    # Over the dense ceiling, sampling goes ahead: only D_X is refused.
    with pytest.raises(AssertionError, match="sampled a graph"):
        default_gap_instance(65, 4, 0)


def test_extension_metric_enforces_the_dense_ceiling(tmp_path, monkeypatch):
    x = sample_extension(c3(), uniform_lengths(c3(), 1.0), c3(), uniform_lengths(c3(), 1.0), seed=8)
    path = tmp_path / "inst.json"
    save_instance(build_gap_instance(x, big_l=1.5), path)
    monkeypatch.setattr(extension, "DENSE_METRIC_CAP", 8)  # k = 9
    loaded = load_instance(path)  # building and loading read no D_X
    assert is_feasible(loaded.origin.edge_lengths, loaded) == []  # streamed

    def no_apsp(*args, **kwargs):
        raise AssertionError("computed D_X for an instance over the ceiling")

    monkeypatch.setattr(graphs, "_level_search", no_apsp)
    monkeypatch.setattr(graphs, "_dijkstra_search", no_apsp)
    with pytest.raises(extension.ExtensionError, match="k=9 points, above the dense metric ceiling k <= 8"):
        loaded.metric.base
    assert loaded.origin.dx is None


def test_default_gap_instance_checks_the_moore_bound_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph for a floor above the Moore bound")

    monkeypatch.setattr(instance, "random_regular", no_sampling)
    with pytest.raises(graphs.GirthFloorError, match=r"girth floor 30 is above the Moore bound .* at least \d+ vertices"):
        default_gap_instance(64, 4, 0, girth_floor=30)


def test_girth_floor_failure_reports_best(monkeypatch):
    monkeypatch.setattr(graphs, "PAIRING_CAP", 3)
    monkeypatch.setattr(graphs, "SWITCH_BUDGET_PER_EDGE", 0)
    with pytest.raises(graphs.GirthFloorError, match=r"after 3 pairings \(best girth \d\)"):
        default_gap_instance(12, 4, 0, girth_floor=4)


def test_default_gap_instance_records_its_sampling():
    prov = default_gap_instance(32, 4, 0).provenance
    assert prov["rng"] == "pcg64-fisheryates-v2"
    assert prov["girth"] >= prov["girth_floor"] == 4
    assert prov["girth_attempts"] >= 1
    assert prov["base_switches"] >= 0 and prov["fiber_switches"] >= 0


# -- instance files fail at the boundary --------------------------------------------


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Text of a saved n=4, d=3 gap instance and of a small generic one, plus a
    scratch path to write damaged copies to."""
    root = tmp_path_factory.mktemp("saved")
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    instances = {
        "gap": default_gap_instance(4, 3, 0).instance,
        "generic": build_generic_instance(g, [1.0, 2.0], [0, 2], [[0.0, 3.0], [3.0, 0.0]]),
    }
    texts = {}
    for kind, inst in instances.items():
        save_instance(inst, root / f"{kind}.json")
        texts[kind] = (root / f"{kind}.json").read_text()
    return texts, root / "damaged.json"


DROP = object()


def load_edited(saved, where: tuple, value, kind="gap"):
    """Load a copy of a saved file with doc[where] set to value (or dropped,
    or, for a function, to its value at the old one)."""
    texts, path = saved
    doc = json.loads(texts[kind])
    node = doc
    for key in where[:-1]:
        node = node[key]
    if value is DROP:
        del node[where[-1]]
    elif callable(value):
        node[where[-1]] = value(node[where[-1]])
    else:
        node[where[-1]] = value
    path.write_text(json.dumps(doc))
    return load_instance(path)


MALFORMED_GAP_FILES = {
    "no-metric": (("metric",), DROP, "bad or missing 'metric.mode'"),
    "no-matchings": (("origin", "matchings"), DROP, "bad or missing 'origin.matchings'"),
    "short-matching": (("origin", "matchings", 2), [0, 1, 2], r"'origin.matchings'\[2\] is not a permutation of range\(4\)"),
    "matching-left-out": (("origin", "matchings", 5), DROP, "'origin.matchings' has 5 matchings for 6 base edges"),
    "repeated-vertex": (("origin", "matchings", 0), [0, 0, 0, 0], r"'origin.matchings'\[0\] is not a permutation"),
    "fractional-vertex": (("origin", "matchings", 0), [0, 1, 2, 3.5], r"'origin.matchings'\[0\] is not a permutation"),
    # A gap file holds no graph, weights or terminals: they are built from the origin.
    "edited-graph": (("graph",), {"vertex_count": 32, "edges": [[0, 31]]}, "gap instance key 'graph' is not one of"),
    "edited-weight": (("weights",), [2.0], "gap instance key 'weights' is not one of"),
    "edited-terminals": (("terminals",), [17], "gap instance key 'terminals' is not one of"),
    "unknown-key": (("notes",), "", "gap instance key 'notes' is not one of"),
    "short-lengths": (("origin", "base_lengths", 5), DROP, "bad or missing 'origin.base_lengths'"),
    "negative-length": (("origin", "fiber_lengths", 1), -1.0, "'origin.fiber_lengths': edge 1 has length -1.0"),
    "zero-L": (("metric", "L"), 0.0, "L must be positive and finite"),
    "unknown-mode": (("metric", "mode"), "lazy", "unknown 'metric.mode' 'lazy'"),
    "version": (("version",), 3, "unsupported 'version' 3"),
    "version-1": (("version",), 1, re.escape("version 1 instance files are no longer read; "
                                             "`zeroext generate --n 4 --d 3 --seed 0` rebuilds the file from its seed")),
    "base-labels": (("origin", "base", "labels"), [[0, 0, 1], [1, 0, -1]],
                    "bad or missing 'origin.base': graph key 'labels'"),
    "fiber-group": (("origin", "fiber", "group_moduli"), [4], "bad or missing 'origin.fiber': graph key 'group_moduli'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GAP_FILES))
def test_malformed_gap_file_raises_instance_error_naming_file_and_key(saved, case):
    where, value, message = MALFORMED_GAP_FILES[case]
    with pytest.raises(InstanceError, match=re.escape(str(saved[1])) + ".*" + message):
        load_edited(saved, where, value)


def test_malformed_generic_file_raises_instance_error(saved):
    with pytest.raises(InstanceError, match="bad or missing 'metric.matrix'"):
        load_edited(saved, ("metric", "matrix"), DROP, "generic")
    with pytest.raises(InstanceError, match=r"metric shape \(1, 2\) does not match 2 terminals"):
        load_edited(saved, ("metric", "matrix", 1), DROP, "generic")
    with pytest.raises(InstanceError, match=re.escape("no longer read; `zeroext generate` rebuilds")):
        load_edited(saved, ("version",), 1, "generic")


NON_INTEGER_IDS = {
    "float-edge": ("generic", ("graph", "edges", 0), [0, 1.5], "'graph'"),
    "bool-edge": ("generic", ("graph", "edges", 0), [0, True], "'graph'"),
    "string-edge": ("generic", ("graph", "edges", 0), [0, "1"], "'graph'"),
    "float-terminal": ("generic", ("terminals", 1), 2.7, "'terminals'"),
    "float-vertex-count": ("generic", ("graph", "vertex_count"), 3.9, "'graph'"),
    "bool-vertex-count": ("generic", ("graph", "vertex_count"), True, "'graph'"),
    "float-base-edge": ("gap", ("origin", "base", "edges", 0), [0, 1.0], "'origin.base'"),
    "float-fiber-vertex-count": ("gap", ("origin", "fiber", "vertex_count"), 4.0, "'origin.fiber'"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_IDS))
def test_non_integer_ids_raise_instance_error_naming_file_and_key(saved, case):
    # A float, bool or string id is rejected, never truncated or cast.
    kind, where, value, key = NON_INTEGER_IDS[case]
    with pytest.raises(InstanceError, match=re.escape(f"{saved[1]}: bad or missing {key}: ") + ".* is not an integer"):
        load_edited(saved, where, value, kind)


def _one_as_true(ids: list) -> list:
    """ids with their first 1 (at any depth) replaced by true, which equals 1 in Python."""
    out = json.loads(json.dumps(ids))
    for i, value in enumerate(out):
        if isinstance(value, list):
            if 1 in value:
                value[value.index(1)] = True
                return out
        elif value == 1:
            out[i] = True
            return out
    raise AssertionError("no id 1 to replace")


def _floats(ids):
    return [float(v) for v in ids] if isinstance(ids, list) else float(ids)


# Values that equal the stored ones in Python (4.0 == 4, true == 1) or that
# numpy or float() would cast; each names its key.  A gap instance's graph,
# terminals and weights are built from the origin's edges, vertex counts and
# lengths, so the gap cases named after them damage those.
UNTYPED_VALUES = {
    "gap-float-graph-edge": ("gap", ("origin", "fiber", "edges", 0), _floats, "'origin.fiber': .* is not an integer"),
    "gap-bool-graph-edge": ("gap", ("origin", "base", "edges"), _one_as_true, "'origin.base': True is not an integer"),
    "gap-float-vertex-count": ("gap", ("origin", "base", "vertex_count"), _floats,
                               "'origin.base': 4.0 is not an integer"),
    "gap-float-terminal": ("gap", ("origin", "fiber", "vertex_count"), _floats,
                           "'origin.fiber': 4.0 is not an integer"),
    "gap-bool-weight": ("gap", ("origin", "base_lengths", 0), True, "'origin.base_lengths': True is not a number"),
    "gap-string-multigraph": ("gap", ("origin", "base", "multigraph"), "false",
                              "'origin.base': multigraph 'false' is not true or false"),
    "gap-bool-matching": ("gap", ("origin", "matchings", 0), _one_as_true,
                          r"'origin.matchings'\[0\] is not a permutation"),
    "gap-float-seed": ("gap", ("origin", "seed"), _floats, "'origin.seed': .* is not an integer"),
    "gap-bool-length": ("gap", ("origin", "fiber_lengths", 0), True, "'origin.fiber_lengths': True is not a number"),
    "gap-string-L": ("gap", ("metric", "L"), str, "'metric.L': '.*' is not a number"),
    "dense-string-multigraph": ("generic", ("graph", "multigraph"), "false",
                                "'graph': multigraph 'false' is not true or false"),
    "dense-bool-weight": ("generic", ("weights",), [1, True], "'weights': True is not a number"),
    "dense-first-bad-weight": ("generic", ("weights",), [1, "2", True], "'weights': '2' is not a number"),
    "dense-string-weight": ("generic", ("weights", 0), "1.0", "'weights': '1.0' is not a number"),
    "dense-bool-distance": ("generic", ("metric", "matrix", 0), [0, True], "'metric.matrix': True is not a number"),
}


# JSON's NaN and Infinity, which Python's json module reads as floats.
NON_FINITE_VALUES = {
    "dense-weights": ("generic", ("weights",), [math.nan, math.inf], "non-finite weight nan on edge 0"),
    "dense-infinite-weight": ("generic", ("weights", 1), math.inf, "non-finite weight inf on edge 1"),
    "dense-nan-distance": ("generic", ("metric", "matrix"), [[0.0, math.nan], [math.nan, 0.0]],
                           r"non-finite distance D\(0,1\) = nan"),
    "dense-infinite-distance": ("generic", ("metric", "matrix"), [[0.0, math.inf], [math.inf, 0.0]],
                                r"non-finite distance D\(0,1\) = inf"),
    "gap-infinite-length": ("gap", ("origin", "fiber_lengths", 2), math.inf,
                            "non-finite fiber length inf on edge 2"),
    "gap-infinite-L": ("gap", ("metric", "L"), math.inf, "L must be positive and finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_VALUES))
def test_non_finite_values_raise_instance_error_naming_file(saved, case):
    kind, where, value, message = NON_FINITE_VALUES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(InstanceError, match=re.escape(f"{saved[1]}: ") + message):
            load_edited(saved, where, value, kind)


@pytest.mark.parametrize("case", sorted(UNTYPED_VALUES))
def test_untyped_values_raise_instance_error_naming_file_and_key(saved, case):
    kind, where, value, message = UNTYPED_VALUES[case]
    with pytest.raises(InstanceError, match=re.escape(f"{saved[1]}: ") + ".*" + message):
        load_edited(saved, where, value, kind)


@pytest.mark.parametrize("key", ["labels", "group_moduli"])
def test_generic_graph_with_generator_labels_raises_instance_error(saved, key):
    # Graph documents carry no generator labels; an older file with them is rejected.
    with pytest.raises(InstanceError, match=re.escape(str(saved[1])) + f".*'graph': graph key '{key}'"):
        load_edited(saved, ("graph", key), [[0, 0, 1]], "generic")


def _containers(node, where=()):
    """Every dict and non-empty list of a JSON document, with its key path."""
    if isinstance(node, dict):
        yield where, node
        for key, value in node.items():
            yield from _containers(value, where + (key,))
    elif isinstance(node, list) and node:
        yield where, node
        for i, value in enumerate(node):
            yield from _containers(value, where + (i,))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["gap", "generic"]), cut_text=st.booleans(), data=st.data())
def test_every_truncation_of_a_saved_file_raises_instance_error(saved, kind, cut_text, data):
    """Cut the text anywhere before its closing brace, or drop one key or the
    tail of one list anywhere outside the free-form provenance record."""
    texts, path = saved
    text = texts[kind]
    if cut_text:
        damaged = text[: data.draw(st.integers(0, len(text.rstrip()) - 1))]
    else:
        doc = json.loads(text)
        spots = [node for where, node in _containers(doc) if where[:1] != ("provenance",)]
        node = data.draw(st.sampled_from(spots))
        if isinstance(node, dict):
            del node[data.draw(st.sampled_from(sorted(k for k in node if k != "provenance")))]
        else:
            del node[data.draw(st.integers(0, len(node) - 1)) :]
        damaged = json.dumps(doc)
    path.write_text(damaged)
    with pytest.raises(InstanceError, match=re.escape(str(path))):
        load_instance(path)
