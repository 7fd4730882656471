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
    validate_lengths,
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


class TerminalMetric:
    """The terminal metric D(i, j) = base[i, j] + shift for i != j, and
    base[i, i] on the diagonal, indexed by terminal position.  A gap instance
    has base = D_X (zero diagonal) and shift = 2L; a generic instance has its
    validated matrix and shift = 0.  Fractional solutions are edge lengths
    instead (see `relaxation`)."""

    def __init__(self, base: np.ndarray, shift: float = 0.0):
        self.base = np.asarray(base, dtype=float)
        self.shift = float(shift)
        self.size = self.base.shape[0]

    def value(self, i, j):
        return float(self.base[i, j] + (self.shift if i != j else 0.0))

    def pair_values(self, ii, jj):
        """Distances D(ii, jj), elementwise over index arrays that broadcast
        like numpy operands."""
        ii = np.asarray(ii)
        jj = np.asarray(jj)
        return self.base[ii, jj] + self.shift * (ii != jj)

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The rows at `positions`, one per entry, as a (len, size) array."""
        rows = self.base[positions]
        rows += self.shift
        rows[np.arange(positions.size), positions] = self.base[positions, positions]
        return rows

    def matrix(self):
        return self.rows(np.arange(self.size))

    def rowsums(self):
        return self.base.sum(axis=1) + self.shift * (self.size - 1)


def validate_semimetric(mat: np.ndarray, rtol: float = METRIC_RTOL) -> None:
    """Raise with the offending pair/triple if mat is not a semi-metric."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise InstanceError(f"non-finite distance D({i},{j}) = {mat[i, j]}")
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


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise naming the first NaN or infinite entry of a per-edge array."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InstanceError(f"non-finite {what} {values[bad[0]]} on edge {bad[0]}")


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
    metric: TerminalMetric         # indexed by terminal position
    origin: GapOrigin | None = None
    provenance: dict | None = None
    term_index: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.graph.edge_count,):
            raise InstanceError("weight vector does not match the edge count")
        _require_finite(self.weights, "weight")
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
    if not 0 < big_l < math.inf:
        raise InstanceError(f"L must be positive and finite, got {big_l}")
    _require_finite(x.base_lengths, "base length")
    _require_finite(x.fiber_lengths, "fiber length")
    if x.vertex_count > DENSE_METRIC_CAP:
        raise InstanceError(
            f"extension has k={x.vertex_count} points, above the dense metric "
            f"ceiling k <= {DENSE_METRIC_CAP}"
        )
    flat = flatten(x)
    dx = extension_metric(x)
    if not np.isfinite(dx[:1]).all():  # the extension is connected iff row 0 is finite
        comps = flat.graph.connected_components()
        sizes = ", ".join(str(len(c)) for c in comps)
        raise InstanceError(
            f"extension is disconnected ({len(comps)} components of sizes {sizes}); "
            "the terminal metric would contain infinities"
        )
    k = flat.graph.vertex_count
    pendants = np.arange(k, dtype=np.int64)[:, None] + [0, k]  # (v, k + v)
    graph = Graph(vertex_count=2 * k, edges=np.concatenate([flat.graph.endpoints(), pendants]))
    lengths = np.concatenate([flat.lengths, np.full(k, float(big_l))])
    lengths.setflags(write=False)  # handed out as the canonical fractional solution
    weights = 1.0 / lengths
    metric = TerminalMetric(dx, 2.0 * big_l)
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
) -> GapInstanceBuild:
    """Sample base and fiber graphs, extend, and build the gap instance.

    The base graph is resampled until its girth reaches girth_floor (default
    ceil(log_{d-1} n), a Moore-style desk proxy).  The provenance record holds
    the attempt count, the girth and, as lambda2_base and lambda2_fiber, the
    exact second-largest eigenvalue of A/d of each graph, computed from the
    sampled graphs alone, so they draw nothing from the seed.
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
        "lambda2_base": expansion_estimate(base),
        "lambda2_fiber": expansion_estimate(fiber),
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
    triangle violation is rejected with the offending triple named.  The
    instance holds a copy in which every -0.0 entry reads 0.0, so that each
    TerminalMetric method, which adds the shift 0.0, returns it bit for bit.
    """
    weights = np.asarray(weights, dtype=float)
    mat = np.asarray(metric, dtype=float) + 0.0
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
        metric=TerminalMetric(mat),
    )


# -- serialization -----------------------------------------------------------


_GRAPH_KEYS = ("vertex_count", "edges", "multigraph")


def _graph_to_json(g: Graph) -> dict:
    out = {"vertex_count": g.vertex_count, "edges": g.endpoints().tolist()}
    if g.multigraph:
        out["multigraph"] = True
    return out


def _integers(values: list) -> list:
    """values, if each is a JSON integer; a float, bool or string id raises
    rather than being truncated or cast."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{value!r} is not an integer")
    return values


def _numbers(values: list) -> list:
    """values, if each is a JSON number; a bool or string raises rather than
    being cast to a float."""
    for value in values:
        if type(value) not in (int, float):
            raise ValueError(f"{value!r} is not a number")
    return values


def _graph_doc(doc: dict) -> dict:
    """doc, if it is a graph document: any key besides _GRAPH_KEYS (such as
    the generator labels of older files) is rejected, and so is any id that
    is not a JSON integer or a `multigraph` that is not a JSON boolean."""
    extra = sorted(key for key in doc if key not in _GRAPH_KEYS)
    if extra:
        raise ValueError(f"graph key {extra[0]!r} is not one of {_GRAPH_KEYS}")
    _integers([doc["vertex_count"]] + [v for e in doc["edges"] for v in e])
    if type(doc.get("multigraph", False)) is not bool:
        raise ValueError(f"multigraph {doc['multigraph']!r} is not true or false")
    return doc


def _graph_from_json(doc: dict) -> Graph:
    doc = _graph_doc(doc)
    return Graph(
        vertex_count=doc["vertex_count"],
        edges=doc["edges"],
        multigraph=doc.get("multigraph", False),
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


def _read(path, doc: dict, key: str, parse=lambda value: value):
    """parse(doc[a][b]) for the key "a.b"; a missing or malformed value raises
    InstanceError naming the file and the key."""
    try:
        node = doc
        for part in key.split("."):
            node = node[part]
        return parse(node)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise InstanceError(f"{path}: bad or missing {key!r}: {exc}") from None


def _read_gap_origin(path, doc: dict) -> tuple[ExtendedGraph, float]:
    base = _read(path, doc, "origin.base", _graph_from_json)
    fiber = _read(path, doc, "origin.fiber", _graph_from_json)
    matchings = _read(path, doc, "origin.matchings", lambda ms: [list(m) for m in ms])
    if len(matchings) != base.edge_count:
        raise InstanceError(
            f"{path}: 'origin.matchings' has {len(matchings)} matchings for "
            f"{base.edge_count} base edges"
        )
    identity = list(range(fiber.vertex_count))
    for eid, m in enumerate(matchings):
        if any(type(v) is not int for v in m) or sorted(m) != identity:
            raise InstanceError(
                f"{path}: 'origin.matchings'[{eid}] is not a permutation of "
                f"range({fiber.vertex_count})"
            )
    x = ExtendedGraph(
        base=base,
        base_lengths=_read(path, doc, "origin.base_lengths", lambda v: validate_lengths(base, _numbers(v))),
        fiber=fiber,
        fiber_lengths=_read(path, doc, "origin.fiber_lengths", lambda v: validate_lengths(fiber, _numbers(v))),
        matchings=[np.array(m, dtype=np.int64) for m in matchings],
        seed=_read(path, doc, "origin.seed", lambda v: _integers([v])[0]),
    )
    return x, _read(path, doc, "metric.L", lambda v: float(_numbers([v])[0]))


def _built(path, build, *parts) -> ZeroExtInstance:
    """build(*parts); parts that do not fit together are reported against the file."""
    try:
        return build(*parts)
    except (IndexError, TypeError, ValueError) as exc:
        raise InstanceError(f"{path}: {exc}") from None


def load_instance(path) -> ZeroExtInstance:
    """Read an instance file.  Every malformed part raises InstanceError naming
    the file: a missing or ill-typed key (an id that is not a JSON integer, a
    number that is a bool or a string), a matching that is not a permutation
    of the fiber, or a gap instance whose stored graph, weights or terminals
    differ from the ones rebuilt from its origin."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise InstanceError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != "zeroext-instance":
        raise InstanceError(f"{path} is not an instance file")
    if doc.get("version") != 1:
        raise InstanceError(f"{path}: unsupported 'version' {doc.get('version')!r}")
    mode = _read(path, doc, "metric.mode")
    if mode == "gap":
        inst = _built(path, build_gap_instance, *_read_gap_origin(path, doc))
        for key, parse, rebuilt in (
            ("graph", _graph_doc, _graph_to_json(inst.graph)),
            ("weights", _numbers, inst.weights.tolist()),
            ("terminals", _integers, inst.terminals.tolist()),
        ):
            _read(path, doc, key, parse)  # so that 4.0 or true cannot stand for 4
            if doc[key] != rebuilt:
                raise InstanceError(f"{path}: {key!r} differs from the instance rebuilt from 'origin'")
    elif mode == "dense":
        inst = _built(
            path,
            build_generic_instance,
            _read(path, doc, "graph", _graph_from_json),
            _read(path, doc, "weights", lambda v: np.array(_numbers(v), dtype=float)),
            _read(path, doc, "terminals", lambda v: np.array(_integers(v), dtype=np.int64)),
            _read(path, doc, "metric.matrix", lambda v: np.array([_numbers(r) for r in v], dtype=float)),
        )
    else:
        raise InstanceError(f"{path}: unknown 'metric.mode' {mode!r}")
    inst.provenance = doc.get("provenance")
    return inst
