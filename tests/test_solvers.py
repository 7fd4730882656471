from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_cayley,
    enumerate_optimum,
    graph_fw,
    random_connected_graph,
    random_generic_instance,
    random_labeling,
    reference_ckr_round,
    reference_local_search,
)
from oracles import TooLargeError, brute_force
from zeroext import graphs, relaxation, solvers
from zeroext.extension import extension_metric, sample_extension
from zeroext.graphs import Graph, shortest_path_metric, uniform_lengths
from zeroext.instance import (
    TerminalMetric,
    ZeroExtInstance,
    build_gap_instance,
    build_generic_instance,
    default_gap_instance,
)
from zeroext.relaxation import canonical_fractional
from zeroext.solvers import (
    SolverError,
    all_to_one,
    ckr_round,
    ckr_rounds,
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
        (1.0 / big_l) * inst.metric.pair_values(pos, v) for v in range(inst.k)
    )
    got = integral_cost(f, inst)
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_nearest_terminal_cost_formula_on_gap(small_gap):
    inst = small_gap.instance
    f = nearest_terminal(inst)
    # Identity assignment: pendants free, each extension edge (u,v) pays
    # (D_X(u,v) + 2L) / length(u,v).
    assert np.array_equal(f[: inst.k], inst.terminals)
    dx = extension_metric(inst.origin.extension).matrix()
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
    lengths = np.array([0.0, 1.0])  # vertex 1 sits on terminal 0
    for seed in range(50):
        f = ckr_round(inst, lengths, seed)
        assert f[1] == 0


def test_ckr_equidistant_splits_evenly():
    inst = star_instance()
    lengths = np.array([0.5, 0.5])
    n_trials = 10_000
    hits = sum(f[1] == 0 for f in ckr_rounds(inst, lengths, range(n_trials)))
    assert abs(hits / n_trials - 0.5) < 0.05


def test_ckr_valid_and_reproducible(small_gap):
    inst = small_gap.instance
    lengths, _ = canonical_fractional(inst)
    f1 = ckr_round(inst, lengths, 9)
    f2 = ckr_round(inst, lengths, 9)
    assert np.array_equal(f1, f2)
    validate_labeling(f1, inst)
    assert np.isfinite(integral_cost(f1, inst))
    labelings = {tuple(ckr_round(inst, lengths, seed).tolist()) for seed in range(20)}
    assert len(labelings) >= 2  # the draws reach more than one labeling


def _assert_ckr_matches_reference(inst, lengths, seeds):
    seeds = list(seeds)
    want = [reference_ckr_round(inst, lengths, seed) for seed in seeds]
    for seed, f in zip(seeds, want):
        assert np.array_equal(ckr_round(inst, lengths, seed), f), seed
    shared = ckr_rounds(inst, lengths, seeds)  # every draw from one pass
    assert len(shared) == len(seeds)
    for seed, f, g in zip(seeds, want, shared):
        assert np.array_equal(g, f), seed


@pytest.mark.parametrize("n,d", [(4, 3), (6, 4), (8, 4), (16, 4)])
def test_ckr_matches_one_terminal_at_a_time_on_gap(n, d):
    for build_seed in range(3):
        inst = default_gap_instance(n, d, build_seed).instance
        lengths, _ = canonical_fractional(inst)
        draws = [int(np.random.SeedSequence((build_seed, 777, i)).generate_state(1)[0]) for i in range(3)]
        _assert_ckr_matches_reference(inst, lengths, draws)


def test_ckr_matches_one_terminal_at_a_time_on_generic():
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_generic_instance(rng, max_nonterms=6, max_terms=4)
        induced = relaxation.induced_semimetric(random_labeling(rng, inst), inst)
        _assert_ckr_matches_reference(inst, induced, range(8))


@pytest.mark.parametrize("slab", [solvers.CKR_SLAB_PAIRS, 100])
def test_ckr_on_other_lengths_of_a_gap_instance_matches_reference(monkeypatch, slab):
    # Integer lengths, zeros included, keep Dijkstra and Floyd-Warshall exact;
    # they differ from the canonical lengths, so CKR searches the graph from
    # its 16 terminals, and compares the distances in one slab or (slab 100
    # over 16 non-terminals) in slabs of 6 terminals.
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    inst = default_gap_instance(4, 3, 0).instance
    rng = np.random.default_rng(8)
    for _ in range(4):
        lengths = rng.integers(0, 4, size=inst.graph.edge_count).astype(float)
        _assert_ckr_matches_reference(inst, lengths, range(6))


@pytest.mark.parametrize("slab", [solvers.CKR_SLAB_PAIRS, 100])
def test_ckr_on_canonical_lengths_matches_the_search_path(monkeypatch, slab):
    # On a gap instance's canonical lengths CKR reads D_X + L and takes
    # A_x = L; with the origin dropped it searches the same lengths from the
    # terminals.  Integer lengths make both distances exact, so every draw
    # must give the same labeling.
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    base = graphs.random_regular(8, 3, seed=4).graph
    fiber = graphs.random_regular(6, 3, seed=5).graph
    x = sample_extension(base, uniform_lengths(base, 2.0), fiber, uniform_lengths(fiber, 1.0), seed=6)
    inst = build_gap_instance(x, 3.0)
    searched = dataclasses.replace(inst, origin=None)
    assert inst.is_gap and not searched.is_gap
    lengths, _ = canonical_fractional(inst)
    seeds = range(64)
    for f, g in zip(ckr_rounds(inst, lengths, seeds), ckr_rounds(searched, lengths, seeds)):
        assert np.array_equal(f, g)


def test_ckr_bound_is_inclusive_and_exact():
    # Terminal 2 sits exactly at r * A_v and terminal 3 one ulp beyond it.
    g = Graph(vertex_count=4, edges=[(0, 1), (0, 2), (0, 3)])
    inst = build_generic_instance(g, np.ones(3), np.array([1, 2, 3]), 2.0 * (1 - np.eye(3)))
    a = 0.7
    chosen = set()
    for seed in range(30):
        r = 1.0 + float(np.random.default_rng(seed).random())
        lengths = np.array([a, r * a, np.nextafter(r * a, np.inf)])
        f = ckr_round(inst, lengths, seed)
        assert np.array_equal(f, reference_ckr_round(inst, lengths, seed))
        chosen.add(int(f[0]))
    assert chosen == {1, 2}


@pytest.mark.parametrize("slab", [1, 36, 100, 36 * 36 - 1, 36 * 36])
def test_ckr_block_edges_match_reference(monkeypatch, slab):
    # k = 36 terminals and 36 non-terminals: single-row blocks (slab <= k),
    # a slab k does not divide, a final one-row block, and one block.
    inst = default_gap_instance(6, 4, 1).instance
    lengths, _ = canonical_fractional(inst)
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    rs = {1.0 + float(np.random.default_rng(seed).random()) for seed in range(5)}
    assert len(rs) == 5  # the shared pass serves draws of different r
    _assert_ckr_matches_reference(inst, lengths, range(5))
    assert ckr_rounds(inst, lengths, []) == []


@pytest.mark.parametrize("slab", [solvers.CKR_SLAB_PAIRS, 576 * 100])
def test_ckr_code_thresholds_match_reference_across_row_blocks(monkeypatch, slab):
    # k = 576: the D_X codes span three row blocks, each with its own table,
    # and slab rows of 100 straddle their edges.  The same floats held in
    # two-byte codes give the same draws.
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    inst = default_gap_instance(24, 4, 0).instance
    lengths, _ = canonical_fractional(inst)
    x = inst.origin.extension
    dx = extension_metric(x)
    assert len(dx.tables) == 3 and dx.codes.dtype == np.uint8
    _assert_ckr_matches_reference(inst, lengths, range(6))
    x._metric = graphs.LevelCodes(dx.codes.astype(np.uint16), list(dx.tables))
    _assert_ckr_matches_reference(inst, lengths, range(6))


@pytest.mark.parametrize("slab", [solvers.CKR_SLAB_PAIRS, 100])
@pytest.mark.parametrize("draws", [1, 3, 8])
def test_ckr_rounds_search_from_the_terminals_only(monkeypatch, slab, draws):
    # Other lengths search from at most 2k sources, however many draws
    # share the call, never from the V - k non-terminals, and build the
    # engine they search once per call.
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    sources = []
    builds = []
    search = solvers.shortest_path_rows

    def counting(g, lengths, srcs, **kwargs):
        builds.append(1)
        sources.extend(np.atleast_1d(srcs).tolist())
        return search(g, lengths, srcs, **kwargs)

    monkeypatch.setattr(solvers, "shortest_path_rows", counting)
    inst = default_gap_instance(4, 3, 0).instance
    lengths = np.random.default_rng(2).integers(1, 4, size=inst.graph.edge_count).astype(float)
    ckr_rounds(inst, lengths, range(draws))
    assert len(builds) == 1
    assert 0 < len(sources) <= 2 * inst.k
    assert set(sources) <= set(inst.terminals.tolist())


def test_first_hits_bound_is_inclusive_per_draw():
    # One row, three columns: at fl(r1 * a), one ulp above it, and one ulp
    # above fl(r2 * a).  Ranks favour the later columns, so a wrongly taken
    # entry would show.
    a, r1, r2 = 0.7, 1.3, 1.55
    at = r1 * a
    block = np.array([[at, np.nextafter(at, np.inf), np.nextafter(r2 * a, np.inf)]])
    ranks = np.array([[2, 1, 0], [2, 1, 0]])
    first = np.full((2, 1), 3)
    solvers._first_hits(block, np.multiply.outer([r1, r2], [a]), np.arange(3), ranks, first)
    assert first[:, 0].tolist() == [2, 1]  # r1 takes only column 0; r2 also column 1


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
    r1=st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
    r2=st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
)
def test_first_hits_max_r_filter_keeps_every_smaller_r_hit(a, r1, r2):
    # The entry sits exactly on the smaller draw's bound; the shared filter
    # at max(r1, r2) must let it through to that draw.
    lo, hi = sorted((r1, r2))
    block = np.array([[lo * a]])
    first = np.full((2, 1), 1)
    limits = np.multiply.outer([hi, lo], [a])
    solvers._first_hits(block, limits, np.arange(1), np.zeros((2, 1), dtype=np.int64), first)
    assert first[:, 0].tolist() == [0, 0]


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
    from zeroext.graphs import uniform_lengths
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


@pytest.mark.parametrize("n", [6, 8, 16])
def test_local_search_matches_per_vertex_oracle_on_gap(n):
    inst = default_gap_instance(n, 4, 0).instance
    lengths, _ = canonical_fractional(inst)
    moved = 0
    for seed in range(2):
        start = ckr_round(inst, lengths, seed)
        got = local_search(inst, start, max_rounds=20)
        assert np.array_equal(got, reference_local_search(inst, start, max_rounds=20))
        moved += int(np.count_nonzero(got != start))
    # At n=6 both starts are already local optima; from n=8 on the descent moves.
    assert moved > 0 or n == 6


def test_local_search_matches_per_vertex_oracle_on_generic():
    rng = np.random.default_rng(37)
    shuffled = 0
    for case in range(15):
        inst = random_generic_instance(rng, max_nonterms=6, max_terms=4)
        if case % 2:  # the same instance with its terminals listed out of id order
            p = rng.permutation(inst.k)
            while np.all(np.diff(inst.terminals[p]) > 0):
                p = rng.permutation(inst.k)
            inst = build_generic_instance(
                inst.graph, inst.weights, inst.terminals[p], inst.metric.matrix()[np.ix_(p, p)]
            )
            shuffled += 1
        f0 = random_labeling(rng, inst)
        assert np.array_equal(local_search(inst, f0, 30), reference_local_search(inst, f0, 30))
    assert shuffled == 7


@pytest.mark.parametrize("slab", [1, 5 * 36 + 7, 36 * 36 - 1])
def test_local_search_screen_blocks_match_per_vertex_oracle(monkeypatch, slab):
    # k = 36: screen blocks of 1, 5 (which does not divide the 36
    # non-terminals) and 35 vertices, from CKR and random starts.
    monkeypatch.setattr(solvers, "CKR_SLAB_PAIRS", slab)
    inst = default_gap_instance(6, 4, 1).instance
    lengths, _ = canonical_fractional(inst)
    rng = np.random.default_rng(slab)
    moved = 0
    for start in [*ckr_rounds(inst, lengths, range(2)), random_labeling(rng, inst)]:
        got = local_search(inst, start, max_rounds=40)
        assert np.array_equal(got, reference_local_search(inst, start, max_rounds=40))
        moved += int(np.count_nonzero(got != start))
    assert moved > 0


def test_local_search_matches_per_vertex_oracle_from_a_random_start_at_n16():
    inst = default_gap_instance(16, 4, 0).instance
    start = random_labeling(np.random.default_rng(16), inst)
    got = local_search(inst, start, max_rounds=200)
    assert np.array_equal(got, reference_local_search(inst, start, max_rounds=200))
    assert np.count_nonzero(got != start) > 100


def tie_heavy_instance(rng):
    """Integer weights and a metric of ones and twos, so many moves tie;
    the terminals are listed out of id order."""
    m, k = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    g = random_connected_graph(rng, m + k, extra_edges=int(rng.integers(0, m + k)))
    weights = rng.integers(1, 3, size=g.edge_count).astype(float)
    terminals = rng.choice(m + k, size=k, replace=False)
    while np.all(np.diff(terminals) > 0):
        terminals = rng.permutation(terminals)
    upper = np.triu(rng.integers(1, 3, size=(k, k)), 1).astype(float)
    return build_generic_instance(g, weights, terminals, upper + upper.T)


def test_local_search_matches_per_vertex_oracle_on_tie_heavy_instances():
    rng = np.random.default_rng(41)
    for _ in range(40):
        inst = tie_heavy_instance(rng)
        f0 = random_labeling(rng, inst)
        assert np.array_equal(local_search(inst, f0, 30), reference_local_search(inst, f0, 30))


def test_local_search_leaves_a_vertex_with_only_self_loops():
    # Vertex 3 has only self-loops, so no move changes the cost; vertex 1
    # has a self-loop besides its edges, which is skipped.
    g = Graph(vertex_count=5, edges=[(0, 1), (1, 1), (1, 2), (3, 3), (1, 4), (3, 3)], multigraph=True)
    inst = build_generic_instance(
        g, np.array([1.0, 5.0, 2.0, 7.0, 1.5, 1.0]), np.array([4, 0, 2]),
        np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 2.0], [1.0, 2.0, 0.0]]),
    )
    f0 = np.array([0, 4, 2, 4, 4])
    got = local_search(inst, f0, 10)
    assert np.array_equal(got, reference_local_search(inst, f0, 10))
    assert got[3] == 4 and got[1] == 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 30))
def test_local_search_equals_per_vertex_oracle_on_tiny_generic_instances(seed, rounds):
    rng = np.random.default_rng(seed)
    inst = random_generic_instance(rng, max_nonterms=5, max_terms=4)
    f0 = random_labeling(rng, inst)
    assert np.array_equal(local_search(inst, f0, rounds), reference_local_search(inst, f0, rounds))


def exact_gains(inst, f) -> dict[int, tuple[float, float]]:
    """Each non-terminal's gain and tolerance, priced over every terminal in
    the floats local_search's docstring defines."""
    fi = inst.term_index[f]
    out = {}
    for v in inst.nonterminals().tolist():
        eids = [e for e, (a, b) in enumerate(inst.graph.edges) if v in (a, b) and a != b]
        others = [b if a == v else a for a, b in (inst.graph.edges[e] for e in eids)]
        cand = inst.weights[eids] @ inst.metric.rows(fi[others])
        cur = float(cand[fi[v]])
        out[v] = (cur - float(cand.min()), 1e-12 * max(1.0, abs(cur)))
    return out


def spy_on_pricing(monkeypatch, inst) -> list[np.ndarray]:
    """The neighbour label positions of every vertex local_search prices
    exactly: one inst.metric.rows call each."""
    calls = []
    rows = inst.metric.rows

    def spy(positions):
        calls.append(np.array(positions))
        return rows(positions)

    monkeypatch.setattr(inst.metric, "rows", spy)
    return calls


@pytest.mark.parametrize("n", [8, 16])
def test_local_search_screen_prices_no_vertex_at_the_all_to_one_start(monkeypatch, n):
    inst = default_gap_instance(n, 4, 0).instance
    start = all_to_one(inst)
    calls = spy_on_pricing(monkeypatch, inst)
    assert np.array_equal(local_search(inst, start), start)
    assert calls == []


@pytest.mark.parametrize("start_kind", ["ckr", "random"])
def test_local_search_screen_keeps_every_vertex_that_can_move(monkeypatch, start_kind):
    # The first round prices every vertex whose exact gain passes the
    # tolerance; the screen may drop only the others.
    inst = default_gap_instance(8, 4, 0).instance
    if start_kind == "ckr":
        start = ckr_round(inst, canonical_fractional(inst)[0], 0)
    else:
        start = random_labeling(np.random.default_rng(4), inst)
    can_move = {v for v, (gain, tol) in exact_gains(inst, start).items() if gain > tol}
    calls = spy_on_pricing(monkeypatch, inst)
    local_search(inst, start, max_rounds=1)
    priced = {int(p[-1]) for p in calls}  # the last label is the pendant's, at position v
    assert can_move and can_move <= priced


def clustered_labeling(rng, inst) -> np.ndarray:
    """Every non-terminal to one of at most three terminals, so that many
    vertices see one label on their extension edges."""
    f = inst.terminals[inst.term_index].copy()  # terminals fixed to themselves
    f[inst.term_index < 0] = rng.choice(rng.choice(inst.terminals, size=int(rng.integers(1, 4))),
                                        size=int(np.count_nonzero(inst.term_index < 0)))
    return f


def test_screen_product_over_the_label_rows_equals_the_dense_product_byte_for_byte():
    # The pricing screen's A @ B decodes only the rows of D_X at the labels
    # present; renumbering A's columns in order keeps every sum's terms and
    # their order, so the floats match the product with the dense D_X.
    from scipy.sparse import csr_matrix

    dx = extension_metric(default_gap_instance(24, 4, 0).extension)
    dense = dx.matrix()
    rng = np.random.default_rng(12)
    for rows, spread in ((1, 576), (7, 40), (64, 576)):
        entries = int(rng.integers(1, 6 * rows))
        ij = (rng.integers(0, rows, entries), rng.integers(0, spread, entries) * (576 // spread))
        a = csr_matrix((rng.random(entries) * 3.0, ij), shape=(rows, 576))
        a.sum_duplicates()
        assert solvers._times_label_rows(a, dx).tobytes() == (a @ dense).tobytes()


def test_label_screen_drops_only_vertices_that_cannot_gain():
    rng = np.random.default_rng(44)
    dropped = kept = 0
    for seed in range(6):
        inst = default_gap_instance(4, 3, seed).instance
        lo, nbr, wt = solvers._incidence(inst)
        vs = inst.nonterminals()
        starts = [all_to_one(inst)] + [clustered_labeling(rng, inst) for _ in range(20)]
        starts += [random_labeling(rng, inst) for _ in range(5)]
        for f in starts:
            drops = solvers._label_screen(inst, lo, nbr, wt, inst.term_index[f], vs)
            gains = exact_gains(inst, f)
            for v, drop in zip(vs.tolist(), drops.tolist()):
                gain, tol = gains[v]
                assert not drop or gain <= tol, (seed, v, gain)
                dropped += drop
                kept += not drop
            if f is starts[0]:
                assert drops.all()  # the all_to_one start
    assert dropped > 500 and kept > 500


@pytest.mark.parametrize("delta", [-1e-9, -(2.0**-52), 0.0, 2.0**-52, 1e-11, 1e-9])
def test_label_screen_is_sound_at_near_ties_of_a_uniform_metric(delta):
    # D = 0 + 1 off the diagonal (multiway cut) makes the bound s (W - M)
    # tight: vertex 1, labeled 0 between terminals 0 (weight 1) and 2
    # (weight 1 + delta), gains exactly max(delta, 0).
    g = Graph(vertex_count=3, edges=[(0, 1), (1, 2)])
    inst = ZeroExtInstance(graph=g, weights=[1.0, 1.0 + delta], terminals=[0, 2],
                           metric=TerminalMetric(np.zeros((2, 2)), 1.0))
    f = np.array([0, 0, 2])
    lo, nbr, wt = solvers._incidence(inst)
    (drop,) = solvers._label_screen(inst, lo, nbr, wt, inst.term_index[f], np.array([1]))
    gain, tol = exact_gains(inst, f)[1]
    assert not drop or gain <= tol
    assert drop == (delta == -1e-9)
    assert (gain > tol) == (delta > 2.0**-52)


@pytest.mark.parametrize("n", [8, 16])
def test_label_screen_drops_every_vertex_at_the_all_to_one_start(n):
    inst = default_gap_instance(n, 4, 0).instance
    lo, nbr, wt = solvers._incidence(inst)
    fi = inst.term_index[all_to_one(inst)]
    assert solvers._label_screen(inst, lo, nbr, wt, fi, inst.nonterminals()).all()


def test_local_search_prices_only_the_moved_vertex_and_its_neighbours_again(monkeypatch):
    inst = default_gap_instance(8, 4, 0).instance
    start = random_labeling(np.random.default_rng(3), inst)
    calls = spy_on_pricing(monkeypatch, inst)
    once = local_search(inst, start, max_rounds=1)
    first = len(calls)
    (v,) = np.flatnonzero(once != start)
    twice = local_search(inst, start, max_rounds=2)
    # A gap vertex's last neighbour is its own pendant terminal, at position
    # u, so the last label position of a priced row names the vertex.
    again = [int(p[-1]) for p in calls[2 * first :]]
    assert np.array_equal(twice, reference_local_search(inst, start, max_rounds=2))
    ends = inst.graph.endpoints()
    nbrs = np.concatenate((ends[ends[:, 0] == v, 1], ends[ends[:, 1] == v, 0]))
    allowed = {int(v), *(int(u) for u in nbrs if inst.term_index[u] < 0)}
    assert 0 < len(again) == len(set(again)) and set(again) <= allowed
    assert first > len(allowed)  # the first round priced more than a move touches


def test_every_solver_at_least_brute_force():
    rng = np.random.default_rng(29)
    inst = random_generic_instance(rng, max_nonterms=4, max_terms=3)
    _, opt = brute_force(inst)
    lengths = relaxation.induced_semimetric(nearest_terminal(inst), inst)
    candidates = [
        all_to_one(inst),
        nearest_terminal(inst),
        ckr_round(inst, lengths, 0),
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


@pytest.fixture(scope="module")
def saved_labeling(small_gap, tmp_path_factory):
    inst = small_gap.instance
    path = tmp_path_factory.mktemp("labeling") / "f.labeling"
    save_labeling(nearest_terminal(inst), path)
    return inst, path, path.read_bytes()


def _damaged_labeling(data, inst, text: bytes) -> bytes:
    """The text of a valid labeling file with one fault that makes it invalid."""
    n, terms = inst.vertex_count, inst.terminals.tolist()
    lines = text.splitlines(keepends=True)
    kind = data.draw(st.sampled_from([
        "truncated", "not-utf8", "vertex-twice", "vertex-outside", "label-outside",
        "label-non-terminal", "terminal-moved", "not-two-integers",
    ]))
    if kind == "truncated":  # at least the last line is lost
        return text[: data.draw(st.integers(0, len(text) - len(lines[-1]) - 1))]
    if kind == "not-utf8":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + bytes([data.draw(st.integers(0x80, 0xBF))]) + text[at:]
    outside = st.one_of(st.integers(max_value=-1), st.integers(min_value=n))
    if kind == "terminal-moved":
        i = data.draw(st.sampled_from(terms))
        v, t = i, data.draw(st.sampled_from([u for u in terms if u != i]))
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        v, t = (int(tok) for tok in lines[i].split())
    if kind == "vertex-twice":
        v = data.draw(st.sampled_from([u for u in range(n) if u != v]))
    elif kind == "vertex-outside":
        v = data.draw(outside)
    elif kind == "label-outside":
        t = data.draw(outside)
    elif kind == "label-non-terminal":
        t = data.draw(st.sampled_from(sorted(set(range(n)) - set(terms))))
    fields = [str(v), str(t)]
    if kind == "not-two-integers":  # a field replaced by, or followed by, a non-integer
        j, replace = data.draw(st.integers(0, 2)), data.draw(st.booleans())
        bad = data.draw(st.sampled_from(["x", "1.5", "0x1f", "--1", "1e3"]))
        fields = fields[:j] + [bad] + fields[j + replace:]
    line = " ".join(fields)
    return b"".join(lines[:i]) + line.encode() + b"\n" + b"".join(lines[i + 1:])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_or_corrupted_labeling_files_raise_solver_error(saved_labeling, data):
    inst, path, text = saved_labeling
    path.write_bytes(_damaged_labeling(data, inst, text))
    with pytest.raises(SolverError, match=re.escape(str(path))):
        load_labeling(path, inst)
