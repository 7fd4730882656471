"""Reference implementations that the tests compare the package against.

The package calls none of these; each is an independent or exhaustive way
to compute something the package computes another way.

- `brute_force` (with `TooLargeError`): the exact optimum by enumeration.
  Criterion 5 compares it with `conftest.enumerate_optimum` and bounds every
  heuristic by it; `test_solvers` checks solvers and local search against it.
- `reconstruct_paths` (with `vertex_id`, `fiber_of` and `traverse_inter`):
  inverts the formal transformation through the sampled matchings, which a
  certificate never holds.  Criterion 6 round-trips random walks through it;
  `test_certificate` and `test_extension` use it and its helpers.
- `Gf2Matrix`, `rank`, `kernel_dim` and `incidence_matrix`: GF(2) linear
  algebra by row elimination.  Criterion 2 compares `gf2.betti1` with the
  kernel dimension of the incidence matrix; `test_gf2` checks
  `gf2.cycle_basis` with `rank`.
- `path_edges`: the edge ids of a `ShortestPathTree` path, which
  `test_graphs` compares with the heap-Dijkstra tree in `conftest`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zeroext.certificate import CertificateError, FormalTransformation, Ind, _follow, _invert_label
from zeroext.extension import ExtendedGraph, ExtensionError, project
from zeroext.graphs import Graph, ShortestPathTree
from zeroext.instance import ZeroExtInstance
from zeroext.solvers import SolverError

# -- exact 0-extension optimum ---------------------------------------------------


class TooLargeError(SolverError):
    pass


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


# -- path reconstruction through the sampled matchings ------------------------------


def vertex_id(x: ExtendedGraph, cloud: int, fiber_vertex: int) -> int:
    return cloud * x.fiber_size + fiber_vertex


def fiber_of(x: ExtendedGraph, vertex: int) -> int:
    if not 0 <= vertex < x.vertex_count:
        raise ExtensionError(f"vertex {vertex} out of range")
    return vertex % x.fiber_size


def traverse_inter(x: ExtendedGraph, base_edge: int, from_vertex: int) -> int:
    """Follow the matching of a base edge from one cloud-side vertex."""
    g1, g2 = x.base.edges[base_edge]
    g = project(x, from_vertex)
    h = fiber_of(x, from_vertex)
    perm = x.matchings[base_edge]
    if g == g1:
        return vertex_id(x, g2, int(perm[h]))
    if g == g2:
        mate = int(np.argwhere(perm == h)[0, 0])
        return vertex_id(x, g1, mate)
    raise ExtensionError(
        f"vertex {from_vertex} lies in cloud {g}, not on base edge {base_edge}={x.base.edges[base_edge]}"
    )


def reconstruct_paths(
    ft: FormalTransformation,
    x: ExtendedGraph,
    endpoint_identities: dict[int, tuple[str, int]],
) -> list[list[int]]:
    """Invert the transformation given one true endpoint identity per path.

    endpoint_identities maps path position -> ("start" | "end", extension
    vertex).  Walk labels plus the sampled matchings determine every
    successive identity; the first step whose claimed index contradicts an
    already-resolved identity raises, naming the path and step.
    """
    resolved: dict[Ind, int] = {}
    out: list[list[int]] = [None] * len(ft.paths)

    def bind(pidx: int, step: int, index: Ind, vertex: int):
        prev = resolved.get(index)
        if prev is not None and prev != vertex:
            raise CertificateError(
                f"path {pidx} step {step}: index {index} already resolved to "
                f"vertex {prev}, walk now demands {vertex}"
            )
        if index[0] != project(x, vertex):
            raise CertificateError(
                f"path {pidx} step {step}: index {index} names cloud {index[0]} "
                f"but the walk sits in cloud {project(x, vertex)}"
            )
        resolved[index] = vertex

    for pidx, qpath in enumerate(ft.paths):
        if pidx not in endpoint_identities:
            raise CertificateError(f"no endpoint identity given for path {pidx}")
        which, vertex = endpoint_identities[pidx]
        if which == "start":
            order = range(len(qpath.labels))
            verts = qpath.verts
            labels = qpath.labels
        elif which == "end":
            verts = qpath.verts[::-1]
            labels = [_invert_label(l) for l in qpath.labels[::-1]]
            order = range(len(labels))
        else:
            raise CertificateError(f"endpoint position must be start or end, got {which}")
        cur = int(vertex)
        walk = [cur]
        bind(pidx, 0, verts[0], cur)
        for j in order:
            lab = labels[j]
            try:
                if lab.kind == "intra":
                    g = project(x, cur)
                    h = _follow(x.fiber, cur % x.fiber_size, lab)
                    cur = vertex_id(x, g, h)
                else:
                    _follow(x.base, project(x, cur), lab)  # checks the direction
                    cur = traverse_inter(x, lab.value, cur)
            except CertificateError as exc:
                raise CertificateError(f"path {pidx} step {j}: {exc}") from None
            walk.append(cur)
            bind(pidx, j + 1, verts[j + 1], cur)
        out[pidx] = walk if which == "start" else walk[::-1]
    return out


# -- GF(2) linear algebra -------------------------------------------------------------


@dataclass
class Gf2Matrix:
    rows: int
    cols: int
    bits: np.ndarray  # shape (rows, cols), dtype uint8, values in {0, 1}

    def __post_init__(self):
        self.bits = (np.asarray(self.bits, dtype=np.uint8) % 2).reshape(self.rows, self.cols)

    @classmethod
    def from_dense(cls, arr) -> "Gf2Matrix":
        arr = np.asarray(arr, dtype=np.uint8) % 2
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(rows=arr.shape[0], cols=arr.shape[1], bits=arr)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product over GF(2)."""
        x = np.asarray(x, dtype=np.uint8) % 2
        return (self.bits @ x.astype(np.int64)) % 2


def rank(m: Gf2Matrix) -> int:
    """GF(2) rank by Gaussian elimination with XOR row operations."""
    work = m.bits.copy()
    nrows, ncols = work.shape
    r = 0
    for col in range(ncols):
        pivot = -1
        for row in range(r, nrows):
            if work[row, col]:
                pivot = row
                break
        if pivot == -1:
            continue
        if pivot != r:
            work[[r, pivot]] = work[[pivot, r]]
        mask = work[r + 1 :, col].astype(bool)
        work[r + 1 :][mask] ^= work[r]
        r += 1
        if r == nrows:
            break
    return r


def kernel_dim(m: Gf2Matrix) -> int:
    return m.cols - rank(m)


def incidence_matrix(g: Graph) -> Gf2Matrix:
    """|V| x |E| vertex-edge incidence over GF(2); a self-loop column is zero."""
    bits = np.zeros((g.vertex_count, g.edge_count), dtype=np.uint8)
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            bits[u, eid] = 1
            bits[v, eid] = 1
    return Gf2Matrix(rows=g.vertex_count, cols=g.edge_count, bits=bits)


# -- shortest-path trees ------------------------------------------------------------


def path_edges(tree: ShortestPathTree, target: int) -> list[int]:
    """Edge ids of the tree's canonical path from its source to target."""
    return [tree.predecessor(v)[1] for v in tree.path_vertices(target)[1:]]
