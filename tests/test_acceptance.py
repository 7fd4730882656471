"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime cap is pinned here.
"""
from __future__ import annotations

import csv
import math
import statistics
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    candidate_corpus,
    enumerate_optimum,
    exhaustive_homeomorphism_verdict,
    random_connected_graph,
    random_generic_instance,
    random_labeling,
)
from zeroext import cli, gf2
from zeroext.certificate import (
    build_certificate,
    diagnostics,
    formal_transform,
    reconstruct_paths,
    reconstruct_r,
    transform_pipeline,
)
from zeroext.extension import flatten, project, sample_extension
from zeroext.graphs import Graph, uniform_lengths
from zeroext.instance import default_gap_instance
from zeroext.relaxation import canonical_fractional, induced_semimetric, is_feasible, fractional_cost
from zeroext.solvers import (
    all_to_one,
    brute_force,
    ckr_round,
    integral_cost,
    local_search,
    nearest_terminal,
)
from zeroext.split import check_cycle_homeomorphism


def _report(num: int, name: str, started: float):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def corpus50():
    return candidate_corpus(50, seed0=0)


def test_criterion_01_canonical_fractional_value():
    started = time.perf_counter()
    d = 4
    for n in (8, 16, 32):
        expected_edges = n * (n * d // 2) + (n * d // 2) * n + n * n
        for seed in range(20):
            build = default_gap_instance(n, d, seed)
            inst = build.instance
            assert inst.graph.edge_count == expected_edges
            delta, cost = canonical_fractional(inst)
            assert abs(cost - expected_edges) <= 1e-9 * expected_edges
            assert is_feasible(delta, inst) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, cap is 60s"
    _report(1, "canonical fractional value", started)


def test_criterion_02_euler_vs_kernel():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(0, 121))
        multi = case % 2 == 0
        edges = []
        for _ in range(m):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if not multi and (u == v or (min(u, v), max(u, v)) in edges):
                continue
            edges.append((min(u, v), max(u, v)))
        g = Graph(vertex_count=n, edges=edges, multigraph=multi)
        assert gf2.betti1(g) == gf2.kernel_dim(gf2.incidence_matrix(g))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s, cap is 10s"
    _report(2, "Euler formula vs GF(2) kernel", started)


def test_criterion_03_lift_covering_property():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for seed in range(50):
        nb = int(rng.integers(3, 8))
        base = random_connected_graph(rng, nb, extra_edges=int(rng.integers(1, 2 * nb)))
        fiber = Graph(vertex_count=int(rng.integers(2, 6)), edges=[])
        x = sample_extension(
            base, uniform_lengths(base, 1.0), fiber, np.zeros(0), seed=seed
        )
        flat = flatten(x)
        star = {g: [] for g in range(base.vertex_count)}
        for eid, (u, v) in enumerate(base.edges):
            star[u].append(eid)
            star[v].append(eid)
        incident: dict[int, list[int]] = {v: [] for v in range(flat.graph.vertex_count)}
        for eid, (u, v) in enumerate(flat.graph.edges):
            incident[u].append(eid)
            incident[v].append(eid)
        for v in range(flat.graph.vertex_count):
            got = sorted(int(flat.edge_origin[e]) for e in incident[v])
            assert got == sorted(star[project(x, v)])
    _report(3, "lift covering property", started)


def test_criterion_04_labeling_metric_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    pairs = 0
    instances = [random_generic_instance(rng) for _ in range(40)]
    instances.append(default_gap_instance(5, 4, 0).instance)
    instances.append(default_gap_instance(6, 4, 1).instance)
    while pairs < 200:
        inst = instances[pairs % len(instances)]
        f = random_labeling(rng, inst)
        ind = induced_semimetric(f, inst)
        a = fractional_cost(ind, inst)
        b = integral_cost(f, inst)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
        assert is_feasible(ind, inst) == []
        pairs += 1
    _report(4, "labeling / metric identity", started)


def test_criterion_05_brute_force_oracle_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    sizes = set()
    for case in range(50):
        if case < 2:
            # Pin the extreme size: 8 non-terminals, 4 terminals.
            while True:
                inst = random_generic_instance(rng, max_nonterms=8, max_terms=4)
                if inst.nonterminals().size == 8 and inst.k == 4:
                    break
        else:
            inst = random_generic_instance(rng, max_nonterms=6, max_terms=4)
        sizes.add((inst.nonterminals().size, inst.k))
        f, cost = brute_force(inst)
        oracle_f, oracle_cost = enumerate_optimum(inst)
        assert abs(cost - oracle_cost) <= 1e-12 * max(1.0, abs(oracle_cost))
        assert tuple(f[inst.nonterminals()]) == oracle_f
        delta = induced_semimetric(nearest_terminal(inst), inst)
        heuristics = [
            all_to_one(inst),
            nearest_terminal(inst),
            ckr_round(inst, delta, case),
            local_search(inst, random_labeling(rng, inst), 15),
        ]
        for h in heuristics:
            assert integral_cost(h, inst) >= cost - 1e-9 * max(1.0, abs(cost))
    assert (8, 4) in sizes
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s, cap is 120s"
    _report(5, "brute-force oracle agreement", started)


def _random_simple_walks(rng, x, count):
    flat = flatten(x)
    adj = flat.graph.adjacency()
    walks = []
    for _ in range(count):
        v = int(rng.integers(0, flat.graph.vertex_count))
        walk = [v]
        seen = {v}
        for _ in range(int(rng.integers(1, 9))):
            options = [w for w, _ in adj[walk[-1]] if w not in seen]
            if not options:
                break
            nxt = options[int(rng.integers(0, len(options)))]
            walk.append(nxt)
            seen.add(nxt)
        if len(walk) > 1:
            walks.append(walk)
    return walks or [[0, adj[0][0][0]]]


def test_criterion_06_transform_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    from zeroext.graphs import random_regular

    collections = 0
    while collections < 100:
        seed = collections
        base = random_regular(6, 3, seed=seed).graph
        fiber = random_regular(6 if seed % 2 else 8, 3, seed=seed + 1).graph
        x = sample_extension(
            base, uniform_lengths(base, 2.0), fiber, uniform_lengths(fiber, 1.0), seed=seed
        )
        walks = _random_simple_walks(rng, x, count=int(rng.integers(2, 6)))
        ft = formal_transform(walks, x)
        starts = {i: ("start", w[0]) for i, w in enumerate(walks)}
        assert reconstruct_paths(ft, x, starts) == walks
        collections += 1
    _report(6, "transformation round trip", started)


def test_criterion_07_certificate_round_trip(corpus50):
    started = time.perf_counter()
    for x, inst, cand in corpus50:
        cert = build_certificate(x, cand, force=True)
        _, _, icc = transform_pipeline(x, cand)
        assert reconstruct_r(cert).canonical_form() == icc.canonical_form()
    _report(7, "certificate round trip", started)


def test_criterion_08_homeomorphism_basis_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    cases = 0
    verdicts = {True: 0, False: 0}
    while cases < 200:
        n = int(rng.integers(4, 13))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, 6)))
        if rng.random() < 0.35:
            f_tilde = {v: v for v in range(n)}
        else:
            f_tilde = {v: int(rng.integers(0, n)) for v in range(n)}
        # BFS walks between images.
        adj = g.adjacency()
        prev_maps = {}

        def bfs_path(s, t):
            if s not in prev_maps:
                prev = {s: None}
                order = [s]
                for u in order:
                    for w, _ in adj[u]:
                        if w not in prev:
                            prev[w] = u
                            order.append(w)
                prev_maps[s] = prev
            prev = prev_maps[s]
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            return path[::-1]

        paths = {eid: bfs_path(f_tilde[u], f_tilde[v]) for eid, (u, v) in enumerate(g.edges)}
        ok_basis, _ = check_cycle_homeomorphism(
            f_tilde, paths, g, range(n), range(g.edge_count)
        )
        ok_full = exhaustive_homeomorphism_verdict(
            f_tilde, paths, g, range(g.edge_count)
        )
        assert ok_basis == ok_full
        verdicts[ok_basis] += 1
        cases += 1
    assert verdicts[True] > 0 and verdicts[False] > 0  # corpus exercises both
    _report(8, "cycle-homeomorphism basis soundness", started)


def test_criterion_09_structural_bounds(corpus50):
    started = time.perf_counter()
    for x, inst, cand in corpus50:
        _, _, icc = transform_pipeline(x, cand)
        diag = diagnostics(icc, x.base, cand.epsilon, 4)
        b1, s_tot = diag["b1"], diag["s_tot"]
        n = x.base.vertex_count
        assert 6 * b1 >= s_tot - 2 * n, f"lower bound fails: b1={b1} s_tot={s_tot} n={n}"
        assert 2 * b1 <= s_tot, f"upper bound fails: b1={b1} s_tot={s_tot}"
        assert diag["beta_total"] == b1
        assert diag["constraint_edge_count"] == b1
    _report(9, "structural bounds on R", started)


def test_criterion_10_gap_harness(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "gap_run"
    rc = cli.main(
        [
            "gap",
            "--n", "8,16,32,64",
            "--d", "4",
            "--seeds", "0..9",
            "--jobs", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "gap.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 40
    ratios = [float(r["ratio"]) for r in rows]
    assert all(math.isfinite(r) and r >= 0 for r in ratios)
    med = statistics.median(ratios)
    assert math.isfinite(med) and med >= 0
    for n in ("8", "16", "32", "64"):
        assert sum(1 for r in rows if r["n"] == n) == 10
    import json

    prov = json.loads((out / "gap.provenance.json").read_text())
    assert "upper-bound the true integrality gap" in prov["caveat"]
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 10 took {elapsed:.1f}s, cap is 600s"
    _report(10, "gap harness end to end", started)


def test_criterion_11_matching_uniformity():
    started = time.perf_counter()
    base = Graph(vertex_count=2, edges=[(0, 1)])
    fiber = Graph(vertex_count=3, edges=[])
    counts: dict[tuple, int] = {}
    for seed in range(6000):
        x = sample_extension(base, np.array([1.0]), fiber, np.zeros(0), seed=seed)
        key = tuple(int(i) for i in x.matchings[0])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    _, p = stats.chisquare(list(counts.values()))
    assert p >= 0.001, f"chi-square rejects uniformity: p = {p}"
    _report(11, "matching uniformity", started)
