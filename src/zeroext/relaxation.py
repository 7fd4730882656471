"""The metric relaxation: feasible solutions, feasibility checking, costs, LP export.

No LP solver is embedded.  The gap argument only ever needs one explicit
feasible fractional solution (the shortest-path extension of the terminal
metric); exact optima can be obtained externally from the exported LP file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DenseSemiMetric, SemiMetric, ZeroExtInstance

FEAS_RTOL = 1e-9
EXHAUSTIVE_VERTEX_CAP = 300      # full O(V^3) triangle check up to here
SAMPLED_TRIPLE_COUNT = 200_000   # seeded triple sample above the cap
LP_VERTEX_CAP = 200


class RelaxationError(ValueError):
    pass


# -- semi-metrics over the instance vertex set -------------------------------


class GapSemiMetric(SemiMetric):
    """Shortest-path metric of a gap instance graph, in compact form.

    Vertices 0..k-1 are extension points, k..2k-1 their pendant terminals.
    All distances derive from the dense extension metric dx:
        d(x, y)       = dx[x, y]
        d(x, y_T)     = dx[x, y] + L
        d(x_T, y_T)   = dx[x, y] + 2L   (0 when x == y)
    Kept compact because the dense 2k x 2k matrix is memory-prohibitive at
    the largest desk scales; behaves exactly like the materialized matrix.
    """

    def __init__(self, dx: np.ndarray, big_l: float):
        self.dx = np.asarray(dx, dtype=float)
        self.k = self.dx.shape[0]
        self.big_l = float(big_l)
        self.size = 2 * self.k

    def _split(self, w):
        w = np.asarray(w)
        return np.where(w >= self.k, w - self.k, w), (w >= self.k).astype(float)

    def value(self, u, v):
        return float(self.pair_values(np.array([u]), np.array([v]))[0])

    def pair_values(self, uu, vv):
        xu, tu = self._split(uu)
        xv, tv = self._split(vv)
        out = self.dx[xu, xv] + self.big_l * (tu + tv)
        same = np.asarray(uu) == np.asarray(vv)
        if np.ndim(out) == 0:
            return np.where(same, 0.0, out)
        out = np.asarray(out)
        out[same] = 0.0
        return out

    def matrix(self):
        if self.size > 2 * 2048:
            raise RelaxationError(
                f"refusing to materialize a {self.size}x{self.size} semi-metric; "
                "use pair_values/value access"
            )
        dx = self.dx
        out = np.empty((self.size, self.size))
        out[: self.k, : self.k] = dx
        out[: self.k, self.k :] = dx + self.big_l
        out[self.k :, : self.k] = dx + self.big_l
        out[self.k :, self.k :] = dx + 2 * self.big_l
        np.fill_diagonal(out, 0.0)
        return out


@dataclass(frozen=True)
class Violation:
    kind: str                 # "triangle" or "terminal"
    vertices: tuple[int, ...]
    magnitude: float

    def __str__(self):
        if self.kind == "triangle":
            u, v, w = self.vertices
            return f"triangle d({u},{v}) > d({u},{w}) + d({w},{v}) by {self.magnitude:.3e}"
        u, v = self.vertices
        return f"terminal pair ({u},{v}) off D by {self.magnitude:.3e}"


# -- operations ---------------------------------------------------------------


def canonical_fractional(inst: ZeroExtInstance) -> tuple[SemiMetric, float]:
    """The shortest-path fractional solution of a gap instance and its cost.

    Every edge of the instance graph contributes weight * distance = 1, so
    the returned cost equals the edge count exactly (up to float roundoff).
    """
    if not inst.is_gap:
        raise RelaxationError(
            "canonical fractional solution needs a gap instance with length "
            "origin; for generic instances export the LP and solve externally"
        )
    delta = GapSemiMetric(inst.origin.dx, inst.origin.big_l)
    return delta, fractional_cost(delta, inst)


def fractional_cost(delta: SemiMetric, inst: ZeroExtInstance) -> float:
    """Weighted sum of delta over instance edges, in deterministic edge order."""
    return float(np.sum(per_edge_contribution(delta, inst)))


def per_edge_contribution(delta: SemiMetric, inst: ZeroExtInstance) -> np.ndarray:
    uu = np.fromiter((u for u, _ in inst.graph.edges), dtype=np.int64, count=inst.graph.edge_count)
    vv = np.fromiter((v for _, v in inst.graph.edges), dtype=np.int64, count=inst.graph.edge_count)
    return inst.weights * delta.pair_values(uu, vv)


def is_feasible(
    delta: SemiMetric,
    inst: ZeroExtInstance,
    *,
    rtol: float = FEAS_RTOL,
    sample_seed: int = 0,
    sample_count: int = SAMPLED_TRIPLE_COUNT,
) -> list[Violation]:
    """All detected constraint violations; an empty list means feasible.

    Terminal equalities are always checked for every pair.  Triangle
    inequalities are checked exhaustively for |V| <= 300 and on
    `sample_count` seeded random triples above that (the count is part of
    this contract and is recorded here rather than tuned silently).
    """
    if delta.size != inst.vertex_count:
        raise RelaxationError(
            f"semi-metric is over {delta.size} vertices, instance has {inst.vertex_count}"
        )
    out: list[Violation] = []

    terms = inst.terminals
    k = terms.size
    ti, tj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    upper = ti < tj
    dvals = delta.pair_values(terms[ti[upper]], terms[tj[upper]])
    dwant = inst.metric.pair_values(ti[upper], tj[upper])
    gap = np.abs(dvals - dwant)
    tol = rtol * np.maximum(1.0, np.abs(dwant))
    bad = np.flatnonzero(gap > tol)
    for b in bad:
        i = int(ti[upper][b])
        j = int(tj[upper][b])
        out.append(Violation("terminal", (int(terms[i]), int(terms[j])), float(gap[b])))

    n = inst.vertex_count
    if n <= EXHAUSTIVE_VERTEX_CAP:
        mat = delta.matrix()
        for w in range(n):
            bound = mat[:, w][:, None] + mat[w, :][None, :]
            slack = mat - bound
            tolm = rtol * np.maximum(1.0, np.abs(mat))
            viol = np.argwhere(slack > tolm)
            for u, v in viol:
                if u < v:
                    out.append(
                        Violation("triangle", (int(u), int(v), int(w)), float(slack[u, v]))
                    )
    else:
        rng = np.random.default_rng(sample_seed)
        uu = rng.integers(0, n, size=sample_count)
        vv = rng.integers(0, n, size=sample_count)
        ww = rng.integers(0, n, size=sample_count)
        duv = delta.pair_values(uu, vv)
        duw = delta.pair_values(uu, ww)
        dwv = delta.pair_values(ww, vv)
        slack = duv - (duw + dwv)
        tolv = rtol * np.maximum(1.0, np.abs(duv))
        for b in np.flatnonzero(slack > tolv):
            out.append(
                Violation("triangle", (int(uu[b]), int(vv[b]), int(ww[b])), float(slack[b]))
            )
    return out


def induced_semimetric(f: np.ndarray, inst: ZeroExtInstance) -> DenseSemiMetric:
    """Pull back the terminal metric through a labeling: d(u,v) = D(f(u), f(v)).

    Always feasible for the relaxation, and its fractional cost equals the
    labeling's integral cost; used to witness LP_opt <= integral_opt.
    """
    n = inst.vertex_count
    if n > 4096:
        raise RelaxationError("induced semi-metric would densify a large instance")
    f = np.asarray(f, dtype=np.int64)
    fi = inst.term_index[f]
    if np.any(fi < 0):
        raise RelaxationError("labeling maps some vertex to a non-terminal")
    return DenseSemiMetric(inst.metric.matrix()[np.ix_(fi, fi)])


def export_lp(inst: ZeroExtInstance, sink, *, max_vertices: int = LP_VERTEX_CAP) -> None:
    """Write the relaxation as an LP-format text file.

    One variable d_u_v per unordered vertex pair (deterministic lex order),
    triangle constraints in all three rotations per unordered triple, and
    terminal pairs pinned to D.  Caller solves externally.
    """
    n = inst.vertex_count
    if n > max_vertices:
        est = n * (n - 1) * (n - 2) // 2
        raise RelaxationError(
            f"instance has {n} > {max_vertices} vertices "
            f"(~{est} triangle constraints); raise max_vertices explicitly to force"
        )
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    fh = open(sink, "w") if own else sink

    def var(u, v):
        return f"d_{min(u, v)}_{max(u, v)}"

    try:
        fh.write("\\ zeroext metric relaxation export\n")
        fh.write("Minimize\n obj:")
        terms = []
        for eid, (u, v) in enumerate(inst.graph.edges):
            if u == v:
                continue
            terms.append(f" + {float(inst.weights[eid])!r} {var(u, v)}")
        fh.write("".join(terms) if terms else " 0 d_0_1")
        fh.write("\nSubject To\n")
        cid = 0
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    for (a, b), c in (((u, v), w), ((u, w), v), ((v, w), u)):
                        fh.write(
                            f" tri_{cid}: {var(a, b)} - {var(a, c)} - {var(c, b)} <= 0\n"
                        )
                        cid += 1
        eqid = 0
        for i in range(inst.k):
            for j in range(i + 1, inst.k):
                ti, tj = int(inst.terminals[i]), int(inst.terminals[j])
                fh.write(f" term_{eqid}: {var(ti, tj)} = {inst.metric.value(i, j)!r}\n")
                eqid += 1
        fh.write("Bounds\n")
        for u in range(n):
            for v in range(u + 1, n):
                fh.write(f" {var(u, v)} >= 0\n")
        fh.write("End\n")
    finally:
        if own:
            fh.close()
