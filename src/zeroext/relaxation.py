"""The metric relaxation: fractional solutions, exact feasibility, costs.

A fractional solution is a length vector l >= 0 over the instance edges.  It
stands for the shortest-path metric d_l of the instance graph joined with the
terminal clique weighted by D, costs sum_e w_e l_e, and is feasible exactly
when d_l(t_i, t_j) >= D(i, j) for every terminal pair (the path form of the
relaxation).  The canonical solution of a gap instance is its own edge
lengths; a labeling's pull-back l_e = D(f(u), f(v)) costs exactly the
labeling's integral cost.

Feasibility is checked exactly by one shortest-path search from the
terminals to the terminals, read in row blocks against D (see
`graphs.shortest_path_blocks`).  No LP solver is embedded.  The gap
argument only ever needs one explicit feasible fractional solution (the
shortest-path extension of the terminal metric).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DECODE_ROWS, ROW_BLOCK, GraphError, shortest_path_blocks, validate_lengths
from .instance import ZeroExtInstance

FEAS_RTOL = 1e-9


class RelaxationError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    """A terminal pair whose distance under the lengths falls short of D."""

    vertices: tuple[int, int]
    magnitude: float  # D(i, j) - d_l(t_i, t_j)

    def __str__(self):
        u, v = self.vertices
        return f"terminal pair ({u},{v}) short of D by {self.magnitude:.3e}"


# -- operations ---------------------------------------------------------------


def check_lengths(lengths: np.ndarray, inst: ZeroExtInstance) -> np.ndarray:
    """The fractional solution as floats: one length >= 0 per instance edge."""
    try:
        return validate_lengths(inst.graph, lengths, allow_zero=True)
    except GraphError as exc:
        raise RelaxationError(f"fractional solution: {exc}") from None


def canonical_fractional(inst: ZeroExtInstance) -> tuple[np.ndarray, float]:
    """The shortest-path fractional solution of a gap instance and its cost.

    The solution is the instance's own edge lengths; every edge contributes
    weight * length = 1, so the cost equals the edge count exactly (up to
    float roundoff).
    """
    if not inst.is_gap:
        raise RelaxationError(
            "canonical fractional solution needs a gap instance with length origin"
        )
    lengths = inst.origin.edge_lengths
    return lengths, fractional_cost(lengths, inst)


def fractional_cost(lengths: np.ndarray, inst: ZeroExtInstance) -> float:
    """Weighted sum of the lengths, in deterministic edge order."""
    return float(np.sum(per_edge_contribution(lengths, inst)))


def per_edge_contribution(lengths: np.ndarray, inst: ZeroExtInstance) -> np.ndarray:
    return inst.weights * check_lengths(lengths, inst)


def is_feasible(
    lengths: np.ndarray, inst: ZeroExtInstance, *, rtol: float = FEAS_RTOL
) -> list[Violation]:
    """Every terminal pair (i < j) with d_l(t_i, t_j) < D(i, j) * (1 - rtol),
    in order of i then j; an empty list means feasible.

    Exact: one shortest-path search from the terminals to the terminals,
    built once, taken in row blocks of `graphs.ROW_BLOCK` terminals together
    with the same blocks of D (`TerminalMetric.blocks`).  Each pair of blocks
    is decoded DECODE_ROWS rows at a time, from column i + 1 on, into reused
    buffers and compared there, and a gap instance's D_X is streamed, not
    built.  The canonical lengths take three values, so the search is the
    level search (see `graphs.LEVEL_SEARCH_LENGTHS`), and no k x k array and
    no (ROW_BLOCK, k) block of floats is held; Dijkstra, for more lengths,
    codes its float rows one block at a time.  A longer distance is no
    violation, since the clique joined in keeps d(t_i, t_j) = D(i, j).
    """
    terms = inst.terminals
    k = terms.size
    searched = shortest_path_blocks(inst.graph, check_lengths(lengths, inst), terms, targets=terms)
    bufs = np.empty((2, min(DECODE_ROWS, k) * k))
    out: list[Violation] = []
    blocks = zip(range(0, k, ROW_BLOCK), searched, inst.metric.blocks())
    for start, (codes, table), (d_codes, d_table) in blocks:
        for r0 in range(0, codes.shape[0], DECODE_ROWS):
            i0 = start + r0
            part = np.s_[r0 : r0 + DECODE_ROWS, i0 + 1 :]  # pairs (i, j) with i >= i0 and j > i0
            got = _decoded(table, codes[part], bufs[0])
            want = _decoded(d_table, d_codes[part], bufs[1])
            want += inst.metric.shift
            short = np.subtract(want, got, out=got)  # D(i, j) - d_l(t_i, t_j)
            want *= rtol
            rows, cols = np.nonzero(short > want)
            for a, c in zip(rows.tolist(), cols.tolist()):
                if c >= a:  # j = i0 + 1 + c > i = i0 + a
                    out.append(Violation((int(terms[i0 + a]), int(terms[i0 + 1 + c])), float(short[a, c])))
    return out


def _decoded(table: np.ndarray, codes: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """table[codes], written to the front of the flat buffer `buf`."""
    out = buf[: codes.size].reshape(codes.shape)
    table.take(codes, out=out, mode="clip")
    return out


def induced_semimetric(f: np.ndarray, inst: ZeroExtInstance) -> np.ndarray:
    """Pull back the terminal metric through a labeling: l_e = D(f(u), f(v)).

    O(|E|).  Always feasible (a path from t_i to t_j costs at least D(i, j)
    by the triangle inequality), and its fractional cost equals the
    labeling's integral cost; used to witness LP_opt <= integral_opt.
    """
    f = np.asarray(f, dtype=np.int64)
    n = inst.vertex_count
    if f.shape != (n,) or not np.all((f >= 0) & (f < n)) or np.any(inst.term_index[f] < 0):
        raise RelaxationError(f"labeling must map each of the {n} vertices to a terminal")
    fi = inst.term_index[f]
    ends = inst.graph.endpoints()
    return inst.metric.pair_values(fi[ends[:, 0]], fi[ends[:, 1]])

