"""Integral solutions: exact brute force, randomized rounding, baselines, local search.

A labeling is an int64 vector over all instance vertices whose entries are
terminal vertex ids, with every terminal fixed to itself.  All solvers are
pure in (instance, seed) and may be run concurrently on independent seeds;
costs are accumulated in edge-id order so reported values are bit-stable.
"""
from __future__ import annotations

import numpy as np

from .graphs import Graph, _fisher_yates, shortest_path_rows
from .instance import DENSE_METRIC_CAP, SemiMetric, ZeroExtInstance

# Largest (vertex, terminal) slab ckr_round evaluates at once: 2 MiB of floats.
CKR_SLAB_PAIRS = 1 << 18


class SolverError(ValueError):
    pass


class TooLargeError(SolverError):
    pass


def validate_labeling(f: np.ndarray, inst: ZeroExtInstance) -> np.ndarray:
    f = np.asarray(f, dtype=np.int64)
    if f.shape != (inst.vertex_count,):
        raise SolverError(f"labeling has shape {f.shape}, expected ({inst.vertex_count},)")
    outside = (f < 0) | (f >= inst.vertex_count)
    if np.any(outside):
        bad = int(np.flatnonzero(outside)[0])
        raise SolverError(
            f"vertex {bad} is labeled {f[bad]}, outside [0, {inst.vertex_count})"
        )
    if np.any(inst.term_index[f] < 0):
        bad = int(np.flatnonzero(inst.term_index[f] < 0)[0])
        raise SolverError(f"vertex {bad} is labeled with non-terminal {f[bad]}")
    terms = inst.terminals
    if np.any(f[terms] != terms):
        bad = int(terms[np.flatnonzero(f[terms] != terms)[0]])
        raise SolverError(f"terminal {bad} is not fixed to itself")
    return f


def integral_cost(f: np.ndarray, inst: ZeroExtInstance) -> float:
    """Sum over edges of weight times terminal distance between the labels."""
    f = validate_labeling(f, inst)
    fi = inst.term_index[f]
    m = inst.graph.edge_count
    uu = np.fromiter((u for u, _ in inst.graph.edges), dtype=np.int64, count=m)
    vv = np.fromiter((v for _, v in inst.graph.edges), dtype=np.int64, count=m)
    return float(np.sum(inst.weights * inst.metric.pair_values(fi[uu], fi[vv])))


# -- exact oracle -------------------------------------------------------------


def brute_force(inst: ZeroExtInstance, cap: int = 10_000_000) -> tuple[np.ndarray, float]:
    """Global optimum by exhaustive enumeration of k^m labelings.

    Ties break to the lexicographically smallest labeling (in terminal-index
    digits over non-terminals in vertex order).  Refuses above `cap`.
    """
    nonterms = inst.nonterminals()
    m = nonterms.size
    k = inst.k
    total = k**m
    if total > cap:
        raise TooLargeError(f"{k}^{m} = {total} labelings exceed cap {cap}")
    D = inst.metric.matrix()
    pos_of = {int(v): i for i, v in enumerate(nonterms)}

    # Split edges by how many endpoints are free.
    const_cost = 0.0
    one_free: list[tuple[int, int, float]] = []   # (free position, terminal pos, w)
    two_free: list[tuple[int, int, float]] = []   # (free position u, free position v, w)
    for eid, (u, v) in enumerate(inst.graph.edges):
        w = float(inst.weights[eid])
        iu, iv = int(inst.term_index[u]), int(inst.term_index[v])
        if iu >= 0 and iv >= 0:
            const_cost += w * D[iu, iv]
        elif iu >= 0:
            one_free.append((pos_of[v], iu, w))
        elif iv >= 0:
            one_free.append((pos_of[u], iv, w))
        else:
            two_free.append((pos_of[u], pos_of[v], w))

    best_cost = np.inf
    best_digits = None
    chunk = 1 << 14
    powers = k ** np.arange(m - 1, -1, -1, dtype=np.int64) if m else np.zeros(0, dtype=np.int64)
    for start in range(0, max(total, 1), chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % k if m else np.zeros((idx.size, 0), dtype=np.int64)
        costs = np.full(idx.size, const_cost)
        for pos, tpos, w in one_free:
            costs += w * D[digits[:, pos], tpos]
        for pu, pv, w in two_free:
            costs += w * D[digits[:, pu], digits[:, pv]]
        j = int(np.argmin(costs))
        if costs[j] < best_cost:  # strict: keeps the first (lex-least) optimum
            best_cost = float(costs[j])
            best_digits = digits[j].copy()
    f = np.zeros(inst.vertex_count, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    if m:
        f[nonterms] = inst.terminals[best_digits]
    return f, best_cost


# -- randomized rounding -------------------------------------------------------


def ckr_round(inst: ZeroExtInstance, delta: SemiMetric, seed: int) -> np.ndarray:
    """Ball-growing rounding of a feasible fractional solution.

    Draw r uniform in [1, 2) and a uniform random terminal permutation;
    every non-terminal u joins the first terminal t in permutation order with
    delta(u, t) <= r * A_u, where A_u is u's distance to its closest
    terminal.  Any leftover vertex (impossible in exact arithmetic, kept as a
    float guard) goes to its nearest terminal.  Deterministic given the seed;
    terminals stay fixed.

    Non-terminals are tested in row blocks: one `pair_values` call gives a
    block's distances to all terminals in permutation order, and each row
    takes its first column within the bound.  That is the same comparison on
    the same values as processing the terminals one at a time, so the
    labeling is identical to it; memory stays at CKR_SLAB_PAIRS pairs.
    """
    rng = np.random.default_rng(int(seed))
    r = 1.0 + float(rng.random())
    k = inst.k
    order = inst.terminals[_fisher_yates(rng, k)]

    f = np.full(inst.vertex_count, -1, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    nonterms = inst.nonterminals()
    rows = max(1, CKR_SLAB_PAIRS // max(1, k))
    leftover = []
    for start in range(0, nonterms.size, rows):
        blk = nonterms[start : start + rows]
        slab = delta.pair_values(blk[:, None], order[None, :])
        bound = r * slab.min(axis=1)
        within = slab <= bound[:, None]
        first = within.argmax(axis=1)
        hit = within[np.arange(blk.size), first]
        f[blk[hit]] = order[first[hit]]
        leftover.extend(blk[~hit].tolist())
    for v in leftover:
        col = delta.pair_values(
            np.full(k, v, dtype=np.int64), inst.terminals.astype(np.int64)
        )
        f[v] = int(inst.terminals[int(np.argmin(col))])
    return f


# -- deterministic baselines ----------------------------------------------------


def all_to_one(inst: ZeroExtInstance) -> np.ndarray:
    """Every non-terminal to the one terminal of least total cost, found by
    scanning all k terminals; ties to the smallest terminal id."""
    k = inst.k
    if k > DENSE_METRIC_CAP:
        raise TooLargeError(f"all_to_one scan is capped at k={DENSE_METRIC_CAP}, got {k}")
    if inst.is_gap:
        # Only pendant edges can cross; they share weight 1/L.
        cost_vec = inst.weights[-1] * inst.metric.rowsums()
    else:
        D = inst.metric.matrix()
        cost_vec = np.zeros(k)
        for eid, (u, v) in enumerate(inst.graph.edges):
            iu, iv = int(inst.term_index[u]), int(inst.term_index[v])
            w = float(inst.weights[eid])
            if iu >= 0 and iv >= 0:
                cost_vec += w * D[iu, iv]
            elif iu >= 0:
                cost_vec += w * D[:, iu]
            elif iv >= 0:
                cost_vec += w * D[:, iv]
    # Tie-break on terminal id, not position.
    order = np.argsort(inst.terminals, kind="stable")
    best = order[int(np.argmin(cost_vec[order]))]
    t_star = int(inst.terminals[best])
    f = np.full(inst.vertex_count, t_star, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    return f


def nearest_terminal(inst: ZeroExtInstance) -> np.ndarray:
    """Every vertex to its closest terminal under edge lengths 1/w, ties to
    the smallest terminal id; zero-weight edges are not traversed."""
    f = np.full(inst.vertex_count, -1, dtype=np.int64)
    f[inst.terminals] = inst.terminals
    if inst.is_gap:
        # Lengths are positive, so the pendant v -> v_T is the unique nearest choice.
        f[: inst.k] = inst.terminals
        return f
    keep = inst.weights > 0
    edges = [e for e, kept in zip(inst.graph.edges, keep) if kept]
    g = Graph(vertex_count=inst.vertex_count, edges=edges, multigraph=True)
    order = np.argsort(inst.terminals, kind="stable")
    dist = shortest_path_rows(g, 1.0 / inst.weights[keep], inst.terminals[order])
    if np.any(np.isinf(dist.min(axis=0))):
        bad = int(np.flatnonzero(np.isinf(dist.min(axis=0)))[0])
        raise SolverError(f"vertex {bad} cannot reach any terminal")
    choice = np.argmin(dist, axis=0)  # first occurrence = smallest terminal id
    f = inst.terminals[order][choice]
    f[inst.terminals] = inst.terminals
    return f.astype(np.int64)


# -- local search ----------------------------------------------------------------


def local_search(inst: ZeroExtInstance, f: np.ndarray, max_rounds: int = 100) -> np.ndarray:
    """Steepest single-vertex relabeling descent.

    Each round evaluates every (vertex, terminal) move and applies the single
    best strictly-improving one; stops at a local optimum or after
    max_rounds.  The result never costs more than the input.
    """
    f = validate_labeling(f, inst).copy()
    nonterms = inst.nonterminals()
    if nonterms.size == 0 or max_rounds <= 0:
        return f
    # Per-vertex incident edge data.
    incident: dict[int, list[tuple[int, float]]] = {int(v): [] for v in nonterms}
    for eid, (u, v) in enumerate(inst.graph.edges):
        w = float(inst.weights[eid])
        if u == v:
            continue
        if int(inst.term_index[u]) < 0:
            incident[int(u)].append((int(v), w))
        if int(inst.term_index[v]) < 0:
            incident[int(v)].append((int(u), w))
    order = np.argsort(inst.terminals, kind="stable")
    terminals_by_id = inst.terminals[order]

    for _ in range(int(max_rounds)):
        fi = inst.term_index[f]
        best_gain = 0.0
        best_move = None
        for v in nonterms:
            pairs = incident[int(v)]
            if not pairs:
                continue
            others = np.fromiter((fi[o] for o, _ in pairs), dtype=np.int64, count=len(pairs))
            ws = np.fromiter((w for _, w in pairs), dtype=float, count=len(pairs))
            rows = inst.metric.rows(others)  # (deg, k)
            cand = ws @ rows
            cand = cand[order]
            cur = float(cand[np.flatnonzero(terminals_by_id == f[v])[0]])
            j = int(np.argmin(cand))
            gain = cur - float(cand[j])
            if gain > best_gain + 1e-12 * max(1.0, abs(cur)):
                best_gain = gain
                best_move = (int(v), int(terminals_by_id[j]))
        if best_move is None:
            break
        f[best_move[0]] = best_move[1]
    return f


# -- labeling files ---------------------------------------------------------------


def save_labeling(f: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for v, t in enumerate(np.asarray(f, dtype=np.int64)):
            fh.write(f"{v} {int(t)}\n")


def load_labeling(path, inst: ZeroExtInstance) -> np.ndarray:
    """Read `vertex label` lines; every vertex must appear exactly once."""
    n = inst.vertex_count
    f: list[int | None] = [None] * n
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                v, t = map(int, parts)  # ValueError on a non-integer or a wrong count
            except ValueError:
                raise SolverError(
                    f"{path}:{lineno}: expected 'vertex label', got {line.strip()!r}"
                ) from None
            if not 0 <= v < n:
                raise SolverError(f"{path}:{lineno}: vertex {v} outside [0, {n})")
            if not 0 <= t < n:
                raise SolverError(f"{path}:{lineno}: label {t} outside [0, {n})")
            if f[v] is not None:
                raise SolverError(f"{path}:{lineno}: vertex {v} is labeled twice")
            f[v] = t
    if None in f:
        raise SolverError(f"{path}: vertex {f.index(None)} has no label")
    return validate_labeling(np.array(f, dtype=np.int64), inst)
