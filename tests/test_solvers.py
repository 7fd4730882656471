from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    enumerate_optimum,
    graph_fw,
    random_generic_instance,
    random_labeling,
    reference_ckr_round,
)
from zeroext import relaxation, solvers
from zeroext.graphs import Graph, shortest_path_metric
from zeroext.instance import build_generic_instance, default_gap_instance
from zeroext.relaxation import DenseSemiMetric, canonical_fractional
from zeroext.solvers import (
    SolverError,
    TooLargeError,
    all_to_one,
    brute_force,
    ckr_round,
    integral_cost,
    load_labeling,
    local_search,
    nearest_terminal,
    save_labeling,
    validate_labeling,
)


def star_instance():
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    return build_generic_instance(
        g, np.array([1.0, 1.0]), np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


# -- integral cost ---------------------------------------------------------------


def test_star_cost():
    inst = star_instance()
    f = np.array([0, 0, 2])
    assert integral_cost(f, inst) == 1.0  # edge (1,2) pays w * D(t0,t2)


def test_all_to_one_cost_formula_on_gap(small_gap):
    inst = small_gap.instance
    f = all_to_one(inst)
    t_star = int(f[0])
    pos = int(inst.term_index[t_star])
    big_l = inst.origin.big_l
    want = sum(
        (1.0 / big_l) * inst.metric.value(pos, v) for v in range(inst.k)
    )
    got = integral_cost(f, inst)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_nearest_terminal_cost_formula_on_gap(small_gap):
    inst = small_gap.instance
    f = nearest_terminal(inst)
    # Identity assignment: pendants free, each extension edge (u,v) pays
    # (D_X(u,v) + 2L) / length(u,v).
    assert np.array_equal(f[: inst.k], inst.terminals)
    dx = inst.origin.dx
    lengths = inst.origin.edge_lengths
    want = 0.0
    for eid in range(inst.graph.edge_count - inst.k):
        u, v = inst.graph.edges[eid]
        want += (dx[u, v] + 2 * inst.origin.big_l) / lengths[eid]
    got = integral_cost(f, inst)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_labeling_validation():
    inst = star_instance()
    with pytest.raises(SolverError, match="not fixed"):
        validate_labeling(np.array([2, 0, 2]), inst)
    with pytest.raises(SolverError, match="non-terminal"):
        validate_labeling(np.array([0, 1, 2]), inst)


def test_labeling_validation_rejects_out_of_range_labels(small_gap):
    inst = small_gap.instance
    f = nearest_terminal(inst)
    low = f.copy()
    low[0] = -1  # would wrap around to the last terminal
    with pytest.raises(SolverError, match="outside"):
        validate_labeling(low, inst)
    high = f.copy()
    high[0] = inst.vertex_count + 5
    with pytest.raises(SolverError, match="outside"):
        validate_labeling(high, inst)
    with pytest.raises(SolverError, match="outside"):
        integral_cost(low, inst)


# -- brute force -------------------------------------------------------------------


def test_brute_force_star_lexicographic():
    inst = star_instance()
    f, cost = brute_force(inst)
    assert cost == 1.0
    assert f.tolist() == [0, 0, 2]  # v joins t0, the lex-smaller optimum


def test_brute_force_zero_weights():
    g = Graph(vertex_count=4, edges=[(0, 1), (1, 2), (2, 3)])
    inst = build_generic_instance(
        g, np.zeros(3), np.array([0, 3]), np.array([[0.0, 5.0], [5.0, 0.0]])
    )
    _, cost = brute_force(inst)
    assert cost == 0.0


def test_brute_force_three_terminal_path():
    # path t0 - a - b - t1 with a side edge a - t2, uniform metric.
    g = Graph(vertex_count=5, edges=[(0, 1), (1, 2), (2, 3), (1, 4)])
    uniform = np.ones((3, 3)) - np.eye(3)
    inst = build_generic_instance(g, np.ones(4), np.array([0, 3, 4]), uniform)
    f, cost = brute_force(inst)
    oracle_f, oracle_cost = enumerate_optimum(inst)
    assert cost == oracle_cost
    nonterms = inst.nonterminals()
    assert tuple(f[nonterms]) == oracle_f


def test_brute_force_matches_enumeration_oracle():
    rng = np.random.default_rng(13)
    for _ in range(12):
        inst = random_generic_instance(rng, max_nonterms=5, max_terms=3)
        _, cost = brute_force(inst)
        _, oracle_cost = enumerate_optimum(inst)
        assert abs(cost - oracle_cost) <= 1e-9 * max(1.0, abs(oracle_cost))


def test_brute_force_cap():
    rng = np.random.default_rng(1)
    inst = random_generic_instance(rng, max_nonterms=6, max_terms=4)
    with pytest.raises(TooLargeError):
        brute_force(inst, cap=1)


# -- CKR rounding -------------------------------------------------------------------


def test_ckr_zero_distance_always_assigned():
    inst = star_instance()
    mat = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    delta = DenseSemiMetric(mat)  # vertex 1 sits on terminal 0
    for seed in range(50):
        f = ckr_round(inst, delta, seed)
        assert f[1] == 0


def test_ckr_equidistant_splits_evenly():
    inst = star_instance()
    delta = DenseSemiMetric(
        np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
    )
    hits = 0
    n_trials = 10_000
    for seed in range(n_trials):
        f = ckr_round(inst, delta, seed)
        hits += f[1] == 0
    assert abs(hits / n_trials - 0.5) < 0.05


def test_ckr_valid_and_reproducible(small_gap):
    inst = small_gap.instance
    delta, _ = canonical_fractional(inst)
    f1 = ckr_round(inst, delta, 9)
    f2 = ckr_round(inst, delta, 9)
    assert np.array_equal(f1, f2)
    validate_labeling(f1, inst)
    assert np.isfinite(integral_cost(f1, inst))
    labelings = {tuple(ckr_round(inst, delta, seed).tolist()) for seed in range(20)}
    assert len(labelings) >= 2  # the draws reach more than one labeling


def _assert_ckr_matches_reference(inst, delta, seeds):
    for seed in seeds:
        got = ckr_round(inst, delta, seed)
        assert np.array_equal(got, reference_ckr_round(inst, delta, seed)), seed


@pytest.mark.parametrize("n,d", [(4, 3), (6, 4), (8, 4), (16, 4)])
def test_ckr_matches_one_terminal_at_a_time_on_gap(n, d):
    for build_seed in range(3):
        inst = default_gap_instance(n, d, build_seed).instance
        delta, _ = canonical_fractional(inst)
        draws = [int(np.random.SeedSequence((build_seed, 777, i)).generate_state(1)[0]) for i in range(3)]
        _assert_ckr_matches_reference(inst, delta, draws)


def test_ckr_matches_one_terminal_at_a_time_on_generic():
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_generic_instance(rng, max_nonterms=6, max_terms=4)
        induced = relaxation.induced_semimetric(random_labeling(rng, inst), inst)
        _assert_ckr_matches_reference(inst, induced, range(8))


def test_ckr_bound_is_inclusive_and_exact():
    # Terminal 2 sits exactly at r * A_v and terminal 3 one ulp beyond it.
    g = Graph(vertex_count=4, edges=[(0, 1), (0, 2), (0, 3)])
    inst = build_generic_instance(g, np.ones(3), np.array([1, 2, 3]), 2.0 * (1 - np.eye(3)))
    a = 0.7
    chosen = set()
    for seed in range(30):
        r = 1.0 + float(np.random.default_rng(seed).random())
        mat = np.full((4, 4), 2.0)
        mat[0, 1:] = mat[1:, 0] = [a, r * a, np.nextafter(r * a, np.inf)]
        np.fill_diagonal(mat, 0.0)
        delta = DenseSemiMetric(mat)
        f = ckr_round(inst, delta, seed)
        assert np.array_equal(f, reference_ckr_round(inst, delta, seed))
        chosen.add(int(f[0]))
    assert chosen == {1, 2}


@pytest.mark.parametrize("slab", [1, 36, 100, 36 * 36 - 1, 36 * 36])
def test_ckr_block_edges_match_reference(monkeypatch, slab):
    # k = 36 terminals and 36 non-terminals: single-row blocks (slab <= k),
    # a slab k does not divide, a final one-row block, and one block.
    inst = default_gap_instance(6, 4, 1).instance
    delta, _ = canonical_fractional(inst)
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    _assert_ckr_matches_reference(inst, delta, range(5))


# -- baselines ----------------------------------------------------------------------


def test_baselines_star_tie_breaking():
    inst = star_instance()
    assert nearest_terminal(inst)[1] == 0  # tie broken to the smaller id


def test_nearest_terminal_takes_the_shorter_of_parallel_edges():
    # Vertex 1 reaches terminal 0 over either of two length-1 edges and
    # terminal 2 over one length-1.5 edge; summing the parallel pair would
    # make terminal 0 look 2 away.
    g = Graph(vertex_count=3, edges=[(0, 1), (0, 1), (1, 2)], multigraph=True)
    weights = np.array([1.0, 1.0, 1.0 / 1.5])
    inst = build_generic_instance(g, weights, np.array([0, 2]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    fw = graph_fw(g, 1.0 / weights)
    want = inst.terminals[np.argmin(fw[inst.terminals], axis=0)]
    assert np.array_equal(nearest_terminal(inst), want)
    assert nearest_terminal(inst)[1] == 0


def test_nearest_terminal_searches_from_the_terminals_only(monkeypatch):
    # k rows, not the V x V metric: generic instances have no size cap.
    shapes = []
    real = solvers.shortest_path_rows

    def spy(g, lengths, sources):
        out = real(g, lengths, sources)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(solvers, "shortest_path_rows", spy)
    rng = np.random.default_rng(5)
    for _ in range(20):
        inst = random_generic_instance(rng)
        keep = inst.weights > 0
        g = Graph(
            vertex_count=inst.vertex_count,
            edges=[e for e, kept in zip(inst.graph.edges, keep) if kept],
            multigraph=True,
        )
        dist = shortest_path_metric(g, 1.0 / inst.weights[keep])[inst.terminals]
        want = inst.terminals[np.argmin(dist, axis=0)]
        want[inst.terminals] = inst.terminals
        assert np.array_equal(nearest_terminal(inst), want)
        assert shapes[-1] == (inst.k, inst.vertex_count)


def test_nearest_terminal_gap_is_identity(small_gap):
    inst = small_gap.instance
    f = nearest_terminal(inst)
    assert np.array_equal(f[: inst.k], inst.terminals)


def test_all_to_one_scans_exhaustively():
    # all_to_one must pick the global argmin over terminals.
    from zeroext.extension import sample_extension
    from zeroext.graphs import build_cayley, uniform_lengths
    from zeroext.instance import build_gap_instance

    c3 = build_cayley([3], [(1,)])
    x = sample_extension(c3, uniform_lengths(c3, 1.0), c3, uniform_lengths(c3, 1.0), seed=3)
    inst = build_gap_instance(x, big_l=1.0)
    f = all_to_one(inst)
    best = integral_cost(f, inst)
    for t in inst.terminals:
        g = np.full(inst.vertex_count, int(t), dtype=np.int64)
        g[inst.terminals] = inst.terminals
        assert best <= integral_cost(g, inst) + 1e-12


# -- local search -------------------------------------------------------------------


def test_local_search_fixed_point_at_optimum():
    inst = star_instance()
    f, _ = brute_force(inst)
    out = local_search(inst, f, max_rounds=10)
    assert np.array_equal(out, f)


def test_local_search_monotone_and_bounded_below():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst = random_generic_instance(rng, max_nonterms=5, max_terms=3)
        f0 = random_labeling(rng, inst)
        c0 = integral_cost(f0, inst)
        f1 = local_search(inst, f0, max_rounds=30)
        c1 = integral_cost(f1, inst)
        assert c1 <= c0 + 1e-12
        _, opt = brute_force(inst)
        assert c1 >= opt - 1e-9 * max(1.0, abs(opt))


def test_every_solver_at_least_brute_force():
    rng = np.random.default_rng(29)
    inst = random_generic_instance(rng, max_nonterms=4, max_terms=3)
    _, opt = brute_force(inst)
    delta = relaxation.induced_semimetric(nearest_terminal(inst), inst)
    candidates = [
        all_to_one(inst),
        nearest_terminal(inst),
        ckr_round(inst, delta, 0),
        local_search(inst, random_labeling(rng, inst), 20),
    ]
    for f in candidates:
        assert integral_cost(f, inst) >= opt - 1e-9 * max(1.0, abs(opt))


# -- labeling files -------------------------------------------------------------------


def test_labeling_file_round_trip(tmp_path):
    inst = star_instance()
    f = np.array([0, 2, 2])
    path = tmp_path / "f.labeling"
    save_labeling(f, path)
    assert np.array_equal(load_labeling(path, inst), f)


@pytest.mark.parametrize(
    "text,match",
    [
        ("0 0\n1 0\n2 2\n3 0\n", "vertex 3 outside"),
        ("0 0\n1 0 7\n2 2\n", "expected 'vertex label'"),
        ("0 0\n1 zero\n2 2\n", "expected 'vertex label'"),
        ("0 0\n1 0\n1 2\n2 2\n", "labeled twice"),
        ("0 0\n2 2\n", "vertex 1 has no label"),
        ("0 0\n1 -1\n2 2\n", "label -1 outside"),
        ("0 0\n1 99999999999999999999\n2 2\n", "label 99999999999999999999 outside"),
    ],
    ids=["vertex-range", "three-fields", "non-integer", "duplicate", "missing", "negative", "huge"],
)
def test_labeling_file_rejects_bad_lines(tmp_path, text, match):
    path = tmp_path / "bad.labeling"
    path.write_text(text)
    with pytest.raises(SolverError, match=match):
        load_labeling(path, star_instance())
