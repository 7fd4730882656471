"""Integral solutions: exact brute force, randomized rounding, baselines, local search.

A labeling is an int64 vector over all instance vertices whose entries are
terminal vertex ids, with every terminal fixed to itself.  All solvers are
pure in (instance, seed) and may be run concurrently on independent seeds;
costs are accumulated in edge-id order so reported values are bit-stable.
"""
from __future__ import annotations

import numpy as np

from .extension import extension_metric
from .graphs import (
    ROW_BLOCK,
    Graph,
    LevelCodes,
    _fisher_yates,
    shortest_path_rows,
    shortest_path_search,
)
from .instance import ZeroExtInstance
from .relaxation import check_lengths, fractional_cost, induced_semimetric

# Largest block of distances ckr_rounds holds at once: 2 MiB of floats.
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
    """Sum over edges of weight times terminal distance between the labels:
    the fractional cost of the labeling's pull-back."""
    return fractional_cost(induced_semimetric(validate_labeling(f, inst), inst), inst)


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


def ckr_round(inst: ZeroExtInstance, lengths: np.ndarray, seed: int) -> np.ndarray:
    """Ball-growing rounding of a feasible fractional solution (edge lengths).

    Draw r uniform in [1, 2) and a uniform random terminal permutation;
    every non-terminal u joins the first terminal t in permutation order with
    d(u, t) <= r * A_u, where d is the shortest-path distance under `lengths`
    and A_u is u's distance to its closest terminal.  Since r >= 1 and float
    rounding is monotone, the closest terminal always passes.  Deterministic
    given the seed; terminals stay fixed.

    This is the one-draw case of `ckr_rounds`, whose shared pass over the
    distances serves any number of draws.
    """
    return ckr_rounds(inst, lengths, [seed])[0]


def ckr_rounds(inst: ZeroExtInstance, lengths: np.ndarray, seeds) -> list[np.ndarray]:
    """`ckr_round` for each seed, from one pass over the distances.

    Each seed draws its r and then its permutation exactly as `ckr_round`
    does.  The distances are read in blocks of at most CKR_SLAB_PAIRS
    entries and every block serves all draws (see `_first_hits`).  For a gap
    instance's canonical lengths, d(x, t_j) = fl(D_X[x, j] + L) and
    A_x = L exactly: D_X[x, x] = 0, fl(0 + L) = L, and every other entry is
    at least L.  So x hits t_j when fl(D_X[x, j] + L) <= fl(r L).  As
    fl(v + L) rises with v, the values of a row block's D_X table (see
    `graphs.LevelCodes`) that pass form a prefix, which holds the block's
    0.0 at least; the hits are the codes below its length, compared in
    contiguous row blocks with no float formed.  Other lengths search the
    graph from the terminals, in chunks over one adjacency,
    twice: once for every A_u and once for the hits, so at most 2k sources
    whatever the number of draws (k when one chunk holds every terminal,
    searched once).
    """
    lengths = check_lengths(lengths, inst)
    k = inst.k
    rs, perms = [], []
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        rs.append(1.0 + float(rng.random()))
        perms.append(_fisher_yates(rng, k))
    if not perms:
        return []
    ranks = np.empty((len(perms), k), dtype=np.int64)  # inverse permutations
    for d, perm in enumerate(perms):
        ranks[d, perm] = np.arange(k)
    nonterms = inst.nonterminals()
    first = np.full((len(perms), nonterms.size), k, dtype=np.int64)  # k: no hit yet

    if inst.is_gap and np.array_equal(lengths, inst.origin.edge_lengths):
        # Non-terminals are the extension points 0..k-1 and terminal
        # position j is column j of D_X.
        dx, big_l = extension_metric(inst.origin.extension), inst.origin.big_l
        passed = [[np.count_nonzero(table + big_l <= r * big_l) for table in dx.tables] for r in rs]
        last = (np.array(passed) - 1).astype(dx.codes.dtype)  # per draw and row block
        rows = max(1, CKR_SLAB_PAIRS // k)
        keep_buf = np.empty((min(rows, k), k), dtype=bool)
        cols = np.arange(k)
        for start in range(0, k, rows):
            stop = min(start + rows, k)
            limits = last[:, np.arange(start, stop) // ROW_BLOCK]
            _first_hits(dx.codes[start:stop], limits, cols, ranks, first[:, start:stop],
                        keep=keep_buf[: stop - start])
    else:
        chunk = max(1, CKR_SLAB_PAIRS // max(1, inst.vertex_count))
        search = shortest_path_search(inst.graph, lengths)

        def from_terminals():  # (first terminal position, distances to the non-terminals)
            for start in range(0, k, chunk):
                yield start, search(inst.terminals[start : start + chunk])[:, nonterms]

        one_chunk = list(from_terminals()) if k <= chunk else None  # searched once, read twice
        a = np.full(nonterms.size, np.inf)
        for _, dist in one_chunk or from_terminals():
            np.minimum(a, dist.min(axis=0), out=a)
        limits = np.multiply.outer(rs, a)
        for start, dist in one_chunk or from_terminals():
            _first_hits(dist.T, limits, np.arange(start, start + dist.shape[0]), ranks, first)

    out = []
    for perm, hit in zip(perms, first):
        f = np.empty(inst.vertex_count, dtype=np.int64)
        f[inst.terminals] = inst.terminals
        f[nonterms] = inst.terminals[perm[hit]]
        out.append(f)
    return out


def _first_hits(block, limits, cols, ranks, first, keep=None) -> None:
    """Lower first[d, u] to the least ranks[d, cols[j]] over the entries
    block[u, j] <= limits[d, u]: each draw's first hit in its permutation
    order, for every draw d from one comparison of the block.

    That comparison, against the largest limit of each row, keeps a
    superset of every draw's hits; each draw then applies its own
    comparison to the survivors only.  `keep`, if given, is a boolean
    buffer shaped like the block.
    """
    keep = np.less_equal(block, limits.max(axis=0)[:, None], out=keep)
    u, j = np.divmod(np.flatnonzero(keep), block.shape[1])
    vals = block[u, j]
    for d, limit in enumerate(limits):
        hit = vals <= limit[u]
        np.minimum.at(first[d], u[hit], ranks[d, cols[j[hit]]])


# -- deterministic baselines ----------------------------------------------------


def all_to_one(inst: ZeroExtInstance) -> np.ndarray:
    """Every non-terminal to the one terminal of least total cost, found by
    scanning all k terminals; ties to the smallest terminal id."""
    if inst.is_gap:
        # Only pendant edges can cross; they share weight 1/L.
        cost_vec = inst.weights[-1] * inst.metric.rowsums()
    else:
        D = inst.metric.matrix()
        cost_vec = np.zeros(inst.k)
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

    Each round applies the single best strictly-improving (vertex, terminal)
    move; stops at a local optimum or after max_rounds.  The result never
    costs more than the input.  Vertex v, whose incident edges (edge-id
    order, self-loops skipped) have weights ws and neighbours labeled l,
    prices the terminals at cand = ws @ D[l]; its gain is
    g_v = cur_v - min(cand), with cur_v = cand[f(v)] and ties to the
    smallest terminal id.  In vertex order, v replaces the best move so far
    when g_v > best_gain + 1e-12 max(1, cur_v), from best_gain = 0, so no
    vertex with g_v <= 1e-12 max(1, cur_v) is ever chosen.

    Such vertices are skipped, but only with proof, by two screens.  Write
    n_v for v's incident edges, u = 2^-53, s for the shift and A_v(l) for the
    weight on v's neighbours labeled l (repeated labels summed), with row sum
    W_v.  The screens assume base >= 0, as every instance's metric has.

    The label screen reads D only at the labels of v's neighbours, in
    O(n_v).  Every terminal j != f(v) has cand_j >= s (W_v - M_v), with
    M_v = max over l != f(v) of A_v(l): each term whose label is not j
    carries s, and the rest are >= 0.  The screen sums cur~_v (the terms
    D[l, f(v)] as `price` reads them), W~_v and M~_v, in any order; each
    sum is within gamma_{n_v} of its exact value, and the fl(base + s) >= s
    that `price` reads cannot fall below s, so for normal floats

        lambda_v = 8u (n_v + 2) (cur~_v + s W~_v)

    is at least twice a bound on the error of cur~_v as an estimate of
    `price`'s cur_v plus that of s (W~_v - M~_v) as a lower bound on its
    cand_j; the other half covers the rounding of the test.  A vertex with
    cur~_v + lambda_v <= s (W~_v - M~_v) therefore has every cand_j >= cur_v
    in `price`'s floats, so gain 0, and is dropped.  At the `all_to_one`
    start of a gap instance, cur_v is at most 2 + diam(D_X) / L against a
    bound of 2L times v's extension weight (below 6 against 33.5 at
    n = 64), so every vertex is dropped.

    Survivors meet a screen that prices vertices in blocks of at most
    CKR_SLAB_PAIRS (vertex, terminal) entries from A and W, without forming
    the k x k D = B + s off the diagonal (see `TerminalMetric`):
    c~ = (A @ B + s W) - s A, where A @ B reads only the rows of B at the
    labels present in the block.  All terms are nonnegative, so every sum
    carries the usual gamma_m relative bound; only the last subtraction can
    cancel, and it is exact when the neighbours carry r_v = 1 label.  So

        beta_v = 10u (n_v + 4) (c~_v[f(v)] + [r_v > 1] s W_v)

    is twice a bound on the error of g~_v = c~_v[f(v)] - min(c~_v) as an
    estimate of g_v, and of c~_v[f(v)] as one of cur_v; the other half
    covers the rounding of the test itself.  So a vertex with
    g~_v + beta_v <= 1e-12 max(1, c~_v[f(v)] - beta_v) has
    g_v <= 1e-12 max(1, cur_v) and is dropped.  Survivors are priced
    exactly as above, and the scan runs in vertex order over those whose
    gain passes, so it chooses the move a scan of every vertex would.  A
    move at v changes only the prices of v and of its non-terminal
    neighbours, and only they are screened and priced again.
    """
    f = validate_labeling(f, inst).copy()
    if max_rounds <= 0:
        return f
    k = inst.k
    lo, nbr, wt = _incidence(inst)
    order = np.argsort(inst.terminals, kind="stable")
    in_id_order = bool(np.all(order == np.arange(k)))
    terminals_by_id = inst.terminals[order]
    shift = inst.metric.shift
    fi = inst.term_index[f]

    def price(v: int) -> tuple[float, float, int]:
        """Exact gain, tolerance and best terminal id of vertex v."""
        ws, nbrs = wt[lo[v] : lo[v + 1]], nbr[lo[v] : lo[v + 1]]
        cand = ws @ inst.metric.rows(fi[nbrs])  # by terminal position
        cur = float(cand[fi[v]])
        if not in_id_order:
            cand = cand[order]
        j = int(np.argmin(cand))  # ties to the smallest terminal id
        return cur - float(cand[j]), 1e-12 * max(1.0, abs(cur)), int(terminals_by_id[j])

    def may_move(vs: np.ndarray) -> np.ndarray:
        """The pricing screen over vertices vs: False only where the vertex cannot be chosen."""
        from scipy.sparse import csr_matrix

        deg, at, row = _entries(lo, vs)
        a = csr_matrix((wt[at], (row, fi[nbr[at]])), shape=(vs.size, k))
        a.sum_duplicates()  # A: one entry per (vertex, label)
        labels = np.diff(a.indptr)
        w = np.add.reduceat(a.data, a.indptr[:-1])
        approx = _times_label_rows(a, inst.metric.base)
        approx += (shift * w)[:, None]
        approx[np.repeat(np.arange(vs.size), labels), a.indices] -= shift * a.data
        cur = approx[np.arange(vs.size), fi[vs]]
        gain = cur - approx.min(axis=1)
        beta = 10 * 2.0**-53 * (deg + 4) * (cur + (labels > 1) * shift * w)
        return ~(gain + beta <= 1e-12 * np.maximum(1.0, cur - beta))  # NaN stays

    rows = max(1, CKR_SLAB_PAIRS // k)  # vertices per screen block
    movable: dict[int, tuple[float, float, int]] = {}  # vertices whose gain passes
    stale = np.flatnonzero(np.diff(lo))  # every non-terminal with an incident edge
    for _ in range(int(max_rounds)):
        for v in stale.tolist():
            movable.pop(v, None)
        survivors = stale[~_label_screen(inst, lo, nbr, wt, fi, stale)]
        for start in range(0, survivors.size, rows):
            block = survivors[start : start + rows]
            for v, keep in zip(block.tolist(), may_move(block).tolist()):
                if keep:
                    gain, tol, t = price(v)
                    if gain > tol:  # the scan's first comparison, at best_gain = 0
                        movable[v] = (gain, tol, t)
        best_gain = 0.0
        best_move = None
        for v in sorted(movable):
            gain, tol, t = movable[v]
            if gain > best_gain + tol:
                best_gain = gain
                best_move = (v, t)
        if best_move is None:
            break
        v, t = best_move
        f[v] = t
        fi[v] = inst.term_index[t]
        touched = nbr[lo[v] : lo[v + 1]]
        stale = np.union1d(touched[inst.term_index[touched] < 0], [v])
    return f


def _times_label_rows(a, base: LevelCodes) -> np.ndarray:
    """The dense product a @ base of a CSR matrix and the decoded codes,
    reading only the rows of base at the columns a uses.  Those columns are
    renumbered in order, so each row adds the same terms in the same order."""
    from scipy.sparse import csr_matrix

    present, column = np.unique(a.indices, return_inverse=True)
    return csr_matrix((a.data, column, a.indptr), shape=(a.shape[0], present.size)) @ base.rows(present)


def _incidence(inst: ZeroExtInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Incident (neighbour, weight) entries of the non-terminals, by vertex and
    then edge id, self-loops skipped: vertex v owns entries lo[v]:lo[v + 1]
    of nbr and wt.  Returns (lo, nbr, wt)."""
    ends = inst.graph.endpoints()
    eids = np.flatnonzero(ends[:, 0] != ends[:, 1])
    own = np.concatenate((ends[eids, 0], ends[eids, 1]))
    nbr = np.concatenate((ends[eids, 1], ends[eids, 0]))
    eids = np.concatenate((eids, eids))
    free = inst.term_index[own] < 0
    own, nbr, eids = own[free], nbr[free], eids[free]
    by_vertex = np.lexsort((eids, own))
    lo = np.zeros(inst.vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(own, minlength=inst.vertex_count), out=lo[1:])
    return lo, nbr[by_vertex], inst.weights[eids[by_vertex]]


def _entries(lo: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry count of each of vs, and their entries, each with its
    vertex's row in vs."""
    deg = lo[vs + 1] - lo[vs]
    at = np.repeat(lo[vs] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
    return deg, at, np.repeat(np.arange(vs.size), deg)


def _label_screen(inst, lo, nbr, wt, fi, vs: np.ndarray) -> np.ndarray:
    """`local_search`'s label screen over vertices vs, labeled at terminal
    positions fi, on `_incidence`'s entries: True where the vertex is dropped."""
    deg, at, row = _entries(lo, vs)
    w, label, own_label = wt[at], fi[nbr[at]], fi[vs][row]
    cur = np.bincount(row, w * inst.metric.pair_values(label, own_label), minlength=vs.size)
    total = np.bincount(row, w, minlength=vs.size)
    other = label != own_label  # A_v(l) for l != f(v), one sum per (row, label)
    keys, group = np.unique(row[other] * inst.k + label[other], return_inverse=True)
    most = np.zeros(vs.size)
    np.maximum.at(most, keys // inst.k, np.bincount(group, w[other]))
    shift = inst.metric.shift
    bound = shift * (total - most)
    lam = 8 * 2.0**-53 * (deg + 2) * (cur + shift * total)
    return (cur + lam <= bound) & (bound < np.inf)  # NaN is never dropped


# -- labeling files ---------------------------------------------------------------


def save_labeling(f: np.ndarray, path) -> None:
    text = "".join(f"{v} {t}\n" for v, t in enumerate(np.asarray(f, dtype=np.int64).tolist()))
    with open(path, "w") as fh:
        fh.write(text)


def load_labeling(path, inst: ZeroExtInstance) -> np.ndarray:
    """Read `vertex label` lines of UTF-8 text; every vertex must appear exactly
    once.  Every fault raises SolverError naming the file."""
    n = inst.vertex_count
    f: list[int | None] = [None] * n
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise SolverError(f"{path}: not UTF-8 text") from None
    for lineno, line in enumerate(lines, 1):
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
    try:
        return validate_labeling(np.array(f, dtype=np.int64), inst)
    except SolverError as exc:
        raise SolverError(f"{path}: {exc}") from None
