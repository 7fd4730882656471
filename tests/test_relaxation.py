from __future__ import annotations

import io

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_generic_instance, random_labeling
from zeroext import instance, relaxation, solvers
from zeroext.graphs import Graph
from zeroext.instance import build_generic_instance, default_gap_instance
from zeroext.relaxation import (
    DenseSemiMetric,
    RelaxationError,
    canonical_fractional,
    export_lp,
    fractional_cost,
    induced_semimetric,
    is_feasible,
    per_edge_contribution,
)


def star_instance():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    return build_generic_instance(
        g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


def lp_optimum(inst) -> float:
    """Independent route: assemble the relaxation directly with linprog."""
    n = inst.vertex_count
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = {p: i for i, p in enumerate(pairs)}
    c = np.zeros(len(pairs))
    for eid, (u, v) in enumerate(inst.graph.edges):
        if u != v:
            c[idx[(min(u, v), max(u, v))]] += inst.weights[eid]
    rows, rhs = [], []
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(n):
                if w in (u, v):
                    continue
                row = np.zeros(len(pairs))
                row[idx[(u, v)]] = 1.0
                row[idx[(min(u, w), max(u, w))]] -= 1.0
                row[idx[(min(v, w), max(v, w))]] -= 1.0
                rows.append(row)
                rhs.append(0.0)
    eq_rows, eq_rhs = [], []
    for i in range(inst.k):
        for j in range(i + 1, inst.k):
            row = np.zeros(len(pairs))
            ti, tj = int(inst.terminals[i]), int(inst.terminals[j])
            row[idx[(min(ti, tj), max(ti, tj))]] = 1.0
            eq_rows.append(row)
            eq_rhs.append(inst.metric.value(i, j))
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=[(0, None)] * len(pairs),
        method="highs",
    )
    assert res.success
    return float(res.fun)


# -- canonical fractional solution --------------------------------------------


def test_canonical_cost_equals_edge_count(small_gap):
    inst = small_gap.instance
    delta, cost = canonical_fractional(inst)
    m = inst.graph.edge_count
    assert abs(cost - m) <= 1e-9 * m
    contributions = per_edge_contribution(delta, inst)
    assert np.all(np.abs(contributions - 1.0) <= 1e-9)


def test_canonical_is_feasible(small_gap):
    delta, _ = canonical_fractional(small_gap.instance)
    assert is_feasible(delta, small_gap.instance) == []


def test_canonical_terminal_equality(small_gap):
    inst = small_gap.instance
    delta, _ = canonical_fractional(inst)
    for i in range(0, inst.k, 7):
        for j in range(0, inst.k, 11):
            ti, tj = int(inst.terminals[i]), int(inst.terminals[j])
            assert abs(delta.value(ti, tj) - inst.metric.value(i, j)) <= 1e-9 * max(
                1.0, inst.metric.value(i, j)
            )


def test_canonical_requires_gap_instance():
    with pytest.raises(RelaxationError, match="export"):
        canonical_fractional(star_instance())


def test_canonical_cost_small_example():
    # C3 extended by C3 with unit lengths: 18 extension edges + 9 pendants.
    from zeroext.extension import sample_extension
    from zeroext.graphs import build_cayley, uniform_lengths

    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c3, uniform_lengths(c3, 1.0), seed=2)
    inst = instance.build_gap_instance(x, big_l=1.0)
    _, cost = canonical_fractional(inst)
    assert abs(cost - 27.0) <= 1e-9 * 27


# -- feasibility checking -------------------------------------------------------


def test_terminal_violation_reported():
    inst = star_instance()
    mat = np.array(
        [[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]
    )  # terminals 0 and 2 at distance 0 != 1
    violations = is_feasible(DenseSemiMetric(mat), inst)
    kinds = {v.kind for v in violations}
    assert "terminal" in kinds
    terminal_viol = [v for v in violations if v.kind == "terminal"]
    assert terminal_viol[0].vertices == (0, 2)


def test_all_zero_delta_lists_terminal_pairs():
    inst = star_instance()
    violations = is_feasible(DenseSemiMetric(np.zeros((3, 3))), inst)
    assert [v for v in violations if v.kind == "terminal"]


def test_triangle_violation_reported():
    inst = star_instance()
    mat = np.array([[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]])
    violations = is_feasible(DenseSemiMetric(mat), inst)
    tri = [v for v in violations if v.kind == "triangle"]
    assert tri and tri[0].vertices[2] == 1


# -- costs ------------------------------------------------------------------------


def test_fractional_cost_zero_delta():
    inst = star_instance()
    assert fractional_cost(DenseSemiMetric(np.zeros((3, 3))), inst) == 0.0


def test_induced_semimetric_examples():
    inst = star_instance()
    f = np.array([0, 0, 2])  # middle vertex joins terminal 0
    ind = induced_semimetric(f, inst)
    assert ind.value(1, 2) == 1.0  # D(t0, t2)
    assert ind.value(0, 1) == 0.0
    assert fractional_cost(ind, inst) == solvers.integral_cost(f, inst)


def test_induced_equals_integral_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        inst = random_generic_instance(rng)
        f = random_labeling(rng, inst)
        ind = induced_semimetric(f, inst)
        a = fractional_cost(ind, inst)
        b = solvers.integral_cost(f, inst)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
        assert is_feasible(ind, inst) == []


# -- LP export ---------------------------------------------------------------------


def test_export_lp_hand_counts():
    inst = star_instance()
    sink = io.StringIO()
    export_lp(inst, sink)
    text = sink.getvalue()
    assert text.count("tri_") == 3  # three rotations of the single triple
    assert text.count("term_") == 1
    assert "d_0_1" in text and "d_0_2" in text and "d_1_2" in text
    assert text.strip().endswith("End")


def test_export_lp_deterministic(tmp_path):
    inst = star_instance()
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    export_lp(inst, p1)
    export_lp(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_lp_cap():
    build = default_gap_instance(8, 4, 0)
    with pytest.raises(RelaxationError, match="triangle constraints"):
        export_lp(build.instance, io.StringIO(), max_vertices=100)


def test_star_lp_optimum_is_one():
    # Hand LP solution: d(v,t0) + d(v,t2) >= d(t0,t2) = 1 is forced.
    inst = star_instance()
    assert abs(lp_optimum(inst) - 1.0) <= 1e-8


def test_lp_sandwich_property():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = random_generic_instance(rng, max_nonterms=3, max_terms=3)
        opt = lp_optimum(inst)
        for _ in range(5):
            f = random_labeling(rng, inst)
            cost = fractional_cost(induced_semimetric(f, inst), inst)
            assert opt <= cost + 1e-7 * max(1.0, abs(cost))


def test_lp_sandwich_on_gap_instance():
    from zeroext.extension import sample_extension
    from zeroext.graphs import build_cayley, uniform_lengths

    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c3, uniform_lengths(c3, 1.0), seed=6)
    inst = instance.build_gap_instance(x, big_l=1.0)
    opt = lp_optimum(inst)
    _, canonical = canonical_fractional(inst)
    assert opt <= canonical + 1e-7 * canonical
    f = solvers.nearest_terminal(inst)
    assert opt <= solvers.integral_cost(f, inst) + 1e-7


