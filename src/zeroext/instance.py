"""0-Extension instances: the gap construction over a sampled extension, plus
small generic instances for oracle testing.

A gap instance doubles the extension's vertex set: every point v gets a
pendant terminal v_T attached by an edge of weight 1/L, every extension edge
keeps weight 1/length, and the terminal metric is the extension's shortest
path metric plus 2L off the diagonal.  D_X is held as one dense k x k
matrix, so k is capped at DENSE_METRIC_CAP = 4096 (n <= 64) before any
sampling or shortest-path work.  Natural logarithm throughout.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .extension import RNG_SCHEME, ExtendedGraph, extension_metric, flatten, sample_extension
from .graphs import (
    Graph,
    expansion_estimate,
    girth,
    random_regular,
    uniform_lengths,
)

DENSE_METRIC_CAP = 4096  # largest k of a gap instance: D_X is a dense k x k matrix
METRIC_RTOL = 1e-9


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class GapParams:
    """Derived construction parameters for per-factor size n and degree d."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 3:
            raise InstanceError(f"need n >= 3, got {self.n}")
        if self.d < 3:
            raise InstanceError(f"need degree d >= 3, got {self.d}")
        if self.terminal_count > DENSE_METRIC_CAP:
            raise InstanceError(
                f"n={self.n} gives k=n^2={self.terminal_count} terminals, above the "
                f"dense metric ceiling k <= {DENSE_METRIC_CAP}"
            )

    @property
    def ell_g(self) -> float:
        return math.log(self.n) ** (2.0 / 3.0)

    @property
    def ell_h(self) -> float:
        return math.log(self.n) ** (1.0 / 3.0)

    @property
    def big_l(self) -> float:
        return math.log(self.n)

    @property
    def terminal_count(self) -> int:
        return self.n * self.n

    def default_girth_floor(self) -> int:
        return math.ceil(math.log(self.n) / math.log(self.d - 1))


# -- metrics ----------------------------------------------------------------


class SemiMetric:
    """Symmetric non-negative distance over indices 0..size-1.

    A terminal metric is indexed by terminal position; a fractional solution
    (see `relaxation`) by instance vertex.
    """

    size: int

    def value(self, i: int, j: int) -> float:
        raise NotImplementedError

    def pair_values(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Distances d(ii, jj), elementwise over the two index arrays.

        The index arrays broadcast against each other like numpy operands,
        so `pair_values(rows[:, None], cols[None, :])` is a rows x cols slab.
        """
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        raise NotImplementedError


class DenseSemiMetric(SemiMetric):
    """A semi-metric stored as a square matrix."""

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InstanceError("semi-metric must be a square matrix")
        self.mat = mat
        self.size = mat.shape[0]

    def value(self, i, j):
        return float(self.mat[i, j])

    def pair_values(self, ii, jj):
        return self.mat[np.asarray(ii), np.asarray(jj)]

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The rows at `positions`, one per entry, as a (len, size) array."""
        return self.mat[positions]

    def matrix(self):
        return self.mat


class GapTerminalMetric(SemiMetric):
    """D = D_X + 2L off the diagonal, backed by the dense D_X of the extension."""

    def __init__(self, dx: np.ndarray, two_l: float):
        self.dx = np.asarray(dx, dtype=float)
        self.two_l = float(two_l)
        self.size = self.dx.shape[0]

    def value(self, i, j):
        return 0.0 if i == j else float(self.dx[i, j] + self.two_l)

    def pair_values(self, ii, jj):
        ii = np.asarray(ii)
        jj = np.asarray(jj)
        return (self.dx[ii, jj] + self.two_l) * (ii != jj)

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The rows at `positions`, one per entry, as a (len, size) array."""
        rows = self.dx[positions] + self.two_l
        rows[np.arange(positions.size), positions] = 0.0
        return rows

    def matrix(self):
        out = self.dx + self.two_l
        np.fill_diagonal(out, 0.0)
        return out

    def rowsums(self):
        return self.dx.sum(axis=1) + self.two_l * (self.size - 1)


def validate_semimetric(mat: np.ndarray, rtol: float = METRIC_RTOL) -> None:
    """Raise with the offending pair/triple if mat is not a semi-metric."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if np.any(mat < 0):
        i, j = np.unravel_index(int(np.argmin(mat)), mat.shape)
        raise InstanceError(f"negative distance D({i},{j}) = {mat[i, j]}")
    if np.any(np.abs(np.diagonal(mat)) > rtol):
        i = int(np.argmax(np.abs(np.diagonal(mat))))
        raise InstanceError(f"nonzero diagonal D({i},{i}) = {mat[i, i]}")
    if not np.allclose(mat, mat.T, rtol=rtol, atol=0):
        diff = np.abs(mat - mat.T)
        i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
        raise InstanceError(f"asymmetry at D({i},{j}) vs D({j},{i})")
    for w in range(k):
        bound = mat[:, w][:, None] + mat[w, :][None, :]
        slack = mat - bound
        tol = rtol * np.maximum(1.0, np.abs(mat))
        if np.any(slack > tol):
            i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
            raise InstanceError(
                f"triangle inequality violated: D({i},{j}) > D({i},{w}) + D({w},{j}) "
                f"by {slack[i, j]:.3e}"
            )


# -- instances --------------------------------------------------------------


@dataclass
class GapOrigin:
    extension: ExtendedGraph
    big_l: float
    edge_lengths: np.ndarray  # per instance-graph edge: extension lengths then L
    dx: np.ndarray            # extension_metric(extension), the cached k x k D_X


@dataclass
class ZeroExtInstance:
    graph: Graph
    weights: np.ndarray
    terminals: np.ndarray          # terminal vertex ids
    metric: SemiMetric             # indexed by terminal position
    origin: GapOrigin | None = None
    provenance: dict | None = None
    term_index: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.graph.edge_count,):
            raise InstanceError("weight vector does not match the edge count")
        if np.any(self.weights < 0):
            raise InstanceError("negative edge weight")
        self.terminals = np.asarray(self.terminals, dtype=np.int64)
        if len(set(self.terminals.tolist())) != self.terminals.size:
            raise InstanceError("duplicate terminal")
        if self.metric.size != self.terminals.size:
            raise InstanceError("metric size does not match the terminal count")
        idx = np.full(self.graph.vertex_count, -1, dtype=np.int64)
        for pos, t in enumerate(self.terminals):
            if not 0 <= t < self.graph.vertex_count:
                raise InstanceError(f"terminal {t} out of range")
            idx[t] = pos
        self.term_index = idx

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def k(self) -> int:
        return self.terminals.size

    @property
    def is_gap(self) -> bool:
        return self.origin is not None

    def nonterminals(self) -> np.ndarray:
        return np.flatnonzero(self.term_index < 0)


def build_gap_instance(x: ExtendedGraph, big_l: float) -> ZeroExtInstance:
    """Instance over a sampled extension: pendant terminals, D = D_X + 2L."""
    if big_l <= 0:
        raise InstanceError("L must be positive")
    if x.vertex_count > DENSE_METRIC_CAP:
        raise InstanceError(
            f"extension has k={x.vertex_count} points, above the dense metric "
            f"ceiling k <= {DENSE_METRIC_CAP}"
        )
    flat = flatten(x)
    comps = flat.graph.connected_components()
    if len(comps) > 1:
        sizes = ", ".join(str(len(c)) for c in comps)
        raise InstanceError(
            f"extension is disconnected ({len(comps)} components of sizes {sizes}); "
            "the terminal metric would contain infinities"
        )
    k = flat.graph.vertex_count
    edges = list(flat.graph.edges) + [(v, k + v) for v in range(k)]
    graph = Graph(vertex_count=2 * k, edges=edges)
    lengths = np.concatenate([flat.lengths, np.full(k, float(big_l))])
    weights = 1.0 / lengths
    dx = extension_metric(x)
    metric = GapTerminalMetric(dx, 2.0 * big_l)
    origin = GapOrigin(extension=x, big_l=float(big_l), edge_lengths=lengths, dx=dx)
    return ZeroExtInstance(
        graph=graph,
        weights=weights,
        terminals=np.arange(k, 2 * k, dtype=np.int64),
        metric=metric,
        origin=origin,
    )


@dataclass
class GapInstanceBuild:
    extension: ExtendedGraph
    instance: ZeroExtInstance
    provenance: dict


def _subseed(seed: int, tag: int, attempt: int = 0) -> int:
    return int(np.random.SeedSequence((int(seed), tag, attempt)).generate_state(1)[0])


def default_gap_instance(
    n: int,
    d: int,
    seed: int,
    *,
    girth_floor: int | None = None,
    retry_cap: int = 2000,
    expansion_iterations: int = 300,
) -> GapInstanceBuild:
    """Sample base and fiber graphs, extend, and build the gap instance.

    The base graph is resampled until its girth reaches girth_floor (default
    ceil(log_{d-1} n), a Moore-style desk proxy); the attempt count, girth and
    second-eigenvalue estimates land in the provenance record.
    """
    params = GapParams(n=n, d=d)
    floor = params.default_girth_floor() if girth_floor is None else int(girth_floor)
    base = None
    base_girth = None
    best_girth = -1
    attempts = 0
    for attempt in range(retry_cap):
        attempts = attempt + 1
        cand = random_regular(n, d, _subseed(seed, 1, attempt))
        cand_girth = girth(cand)
        if cand_girth > best_girth:
            best_girth = cand_girth if cand_girth != math.inf else n + 1
        if cand_girth >= floor and cand.is_connected():
            base = cand
            base_girth = cand_girth
            break
    if base is None:
        raise InstanceError(
            f"no connected d-regular graph with girth >= {floor} found in "
            f"{retry_cap} attempts (best girth {best_girth}); lower girth_floor "
            "or change the seed"
        )
    fiber = random_regular(n, d, _subseed(seed, 2))
    if not fiber.is_connected():
        for attempt in range(1, retry_cap):
            fiber = random_regular(n, d, _subseed(seed, 2, attempt))
            if fiber.is_connected():
                break
        else:
            raise InstanceError("no connected fiber graph found")
    lam_g = expansion_estimate(base, expansion_iterations, _subseed(seed, 4))
    lam_h = expansion_estimate(fiber, expansion_iterations, _subseed(seed, 5))
    x = sample_extension(
        base,
        uniform_lengths(base, params.ell_g),
        fiber,
        uniform_lengths(fiber, params.ell_h),
        _subseed(seed, 3),
    )
    inst = build_gap_instance(x, params.big_l)
    provenance = {
        "tool": "zeroext",
        "version": __version__,
        "rng": RNG_SCHEME,
        "n": int(n),
        "d": int(d),
        "seed": int(seed),
        "girth": int(base_girth),
        "girth_floor": floor,
        "girth_attempts": attempts,
        "lambda2_base": lam_g.value,
        "lambda2_fiber": lam_h.value,
        "expansion_iterations": expansion_iterations,
        "ell_g": params.ell_g,
        "ell_h": params.ell_h,
        "L": params.big_l,
        "k": params.terminal_count,
    }
    inst.provenance = provenance
    return GapInstanceBuild(extension=x, instance=inst, provenance=provenance)


def build_generic_instance(graph: Graph, weights, terminals, metric) -> ZeroExtInstance:
    """Validated instance from arbitrary parts; terminals need not be pendant.

    `metric` is a dense k x k semi-metric over the terminal list order; a
    triangle violation is rejected with the offending triple named.
    """
    weights = np.asarray(weights, dtype=float)
    mat = np.asarray(metric, dtype=float)
    terminals = np.asarray(terminals, dtype=np.int64)
    if mat.shape != (terminals.size, terminals.size):
        raise InstanceError(
            f"metric shape {mat.shape} does not match {terminals.size} terminals"
        )
    validate_semimetric(mat)
    return ZeroExtInstance(
        graph=graph,
        weights=weights,
        terminals=terminals,
        metric=DenseSemiMetric(mat),
    )


# -- serialization -----------------------------------------------------------


def _graph_to_json(g: Graph) -> dict:
    out = {"vertex_count": g.vertex_count, "edges": [[int(u), int(v)] for u, v in g.edges]}
    if g.multigraph:
        out["multigraph"] = True
    if g.labels is not None:
        out["labels"] = [[int(v), int(e), int(c)] for (v, e), c in sorted(g.labels.items())]
        if g.group is not None:
            out["group_moduli"] = list(g.group.moduli)
            out["generator_codes"] = {str(c): list(el) for c, el in g.generator_codes.items()}
            out["generator_inverse"] = {str(c): int(i) for c, i in g.generator_inverse.items()}
    return out


def _graph_from_json(doc: dict) -> Graph:
    labels = None
    if "labels" in doc:
        labels = {(int(v), int(e)): int(c) for v, e, c in doc["labels"]}
    group = None
    generator_codes = None
    generator_inverse = None
    if "group_moduli" in doc:
        from .graphs import CyclicProductGroup

        group = CyclicProductGroup(tuple(doc["group_moduli"]))
        generator_codes = {int(c): tuple(el) for c, el in doc["generator_codes"].items()}
        generator_inverse = {int(c): int(i) for c, i in doc["generator_inverse"].items()}
    return Graph(
        vertex_count=int(doc["vertex_count"]),
        edges=[(int(u), int(v)) for u, v in doc["edges"]],
        labels=labels,
        multigraph=bool(doc.get("multigraph", False)),
        group=group,
        generator_codes=generator_codes,
        generator_inverse=generator_inverse,
    )


def save_instance(inst: ZeroExtInstance, path) -> None:
    """JSON document with graph / weights / terminals / metric sections.

    Gap instances embed their origin (base, fiber, matchings, L) and are
    rebuilt through the same code path on load, so a load/save round trip is
    bit-identical.  Dense generic metrics are stored inline.
    """
    doc: dict = {
        "format": "zeroext-instance",
        "version": 1,
        "graph": _graph_to_json(inst.graph),
        "weights": inst.weights.tolist(),
        "terminals": inst.terminals.tolist(),
    }
    if inst.provenance is not None:
        doc["provenance"] = inst.provenance
    if inst.is_gap:
        x = inst.origin.extension
        doc["metric"] = {"mode": "gap", "L": inst.origin.big_l}
        doc["origin"] = {
            "base": _graph_to_json(x.base),
            "base_lengths": x.base_lengths.tolist(),
            "fiber": _graph_to_json(x.fiber),
            "fiber_lengths": x.fiber_lengths.tolist(),
            "matchings": [m.tolist() for m in x.matchings],
            "seed": x.seed,
        }
    else:
        doc["metric"] = {"mode": "dense", "matrix": inst.metric.matrix().tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_instance(path) -> ZeroExtInstance:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "zeroext-instance":
        raise InstanceError(f"{path} is not an instance file")
    if doc["metric"]["mode"] == "gap":
        origin = doc["origin"]
        x = ExtendedGraph(
            base=_graph_from_json(origin["base"]),
            base_lengths=np.array(origin["base_lengths"], dtype=float),
            fiber=_graph_from_json(origin["fiber"]),
            fiber_lengths=np.array(origin["fiber_lengths"], dtype=float),
            matchings=[np.array(m, dtype=np.int64) for m in origin["matchings"]],
            seed=int(origin["seed"]),
        )
        inst = build_gap_instance(x, float(doc["metric"]["L"]))
        inst.provenance = doc.get("provenance")
        return inst
    inst = build_generic_instance(
        graph=_graph_from_json(doc["graph"]),
        weights=np.array(doc["weights"], dtype=float),
        terminals=np.array(doc["terminals"], dtype=np.int64),
        metric=np.array(doc["metric"]["matrix"], dtype=float),
    )
    inst.provenance = doc.get("provenance")
    return inst
