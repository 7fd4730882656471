"""0-Extension instances: the gap construction over a sampled extension, plus
small generic instances for oracle testing.

A gap instance doubles the extension's vertex set: every point v gets a
pendant terminal v_T attached by an edge of weight 1/L, every extension edge
keeps weight 1/length, and the terminal metric is the extension's shortest
path metric plus 2L off the diagonal.  D_X is held as level codes
(`graphs.LevelCodes`): per block of 256 rows an ascending table of the
exact distances, and one code per pair, one byte while a block has at most
256 distinct distances and two beyond (16 MiB at n = 64, against 128 MiB
of floats).  It is built on first access to the terminal metric's `base` by
`extension_metric`, so only a command whose readers return to rows at
random builds it (`gap`, `solve`; they stop at n = 64 before sampling, see
`extension.check_dense_ceiling`).  `frac`'s feasibility check streams every
row once (`TerminalMetric.blocks`), `generate` reads none, and `split` and
`cert` search the representatives' rows (`extension.extension_rows`), so
they run to n = STREAMED_N_CAP = 128.  Natural logarithm throughout.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .extension import (
    RNG_SCHEME,
    ExtendedGraph,
    extension_blocks,
    extension_metric,
    flatten,
    sample_extension,
)
from .graphs import (
    Graph,
    LevelCodes,
    RegularSample,
    check_girth_floor,
    expansion_estimate,
    random_regular,
    uniform_lengths,
    validate_lengths,
)

STREAMED_N_CAP = 128  # largest n of a gap instance (k <= 16384): D_X is streamed
METRIC_RTOL = 1e-9


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class GapSpec:
    """One gap construction: per-factor size n, degree d and base girth floor
    (default ceil(log_{d-1} n), a Moore-style desk proxy), checked against
    STREAMED_N_CAP and the Moore bound; they fix the lengths ell_g, ell_h, L."""

    n: int
    d: int
    girth_floor: int | None = None

    def __post_init__(self):
        if self.n < 3 or self.d < 3:
            raise InstanceError(f"need n >= 3 and degree d >= 3, got n={self.n}, d={self.d}")
        if self.n > STREAMED_N_CAP:
            raise InstanceError(
                f"n={self.n} gives k=n^2={self.n * self.n} terminals, above the "
                f"streamed ceiling n <= {STREAMED_N_CAP}"
            )
        floor = self.girth_floor
        floor = math.ceil(math.log(self.n) / math.log(self.d - 1)) if floor is None else int(floor)
        object.__setattr__(self, "girth_floor", floor)
        check_girth_floor(self.n, self.d, max(3, self.girth_floor))

    @property
    def ell_g(self) -> float:
        return math.log(self.n) ** (2.0 / 3.0)

    @property
    def ell_h(self) -> float:
        return math.log(self.n) ** (1.0 / 3.0)

    @property
    def big_l(self) -> float:
        return math.log(self.n)

    def provenance(self, seed: int, base: RegularSample, fiber: RegularSample) -> dict:
        """The provenance of the instance sampled at `seed`: the spec, the base
        girth, the base's pairings as girth_attempts, each graph's kept switches
        and, as lambda2_base and lambda2_fiber, each sampled graph's exact
        second-largest eigenvalue of A/d, which draws nothing from the seed."""
        return {
            "tool": "zeroext",
            "version": __version__,
            "rng": RNG_SCHEME,
            "n": int(self.n),
            "d": int(self.d),
            "seed": int(seed),
            "girth": base.girth,
            "girth_floor": self.girth_floor,
            "girth_attempts": base.pairings,
            "base_switches": base.switches,
            "fiber_switches": fiber.switches,
            "lambda2_base": expansion_estimate(base.graph),
            "lambda2_fiber": expansion_estimate(fiber.graph),
            "ell_g": self.ell_g,
            "ell_h": self.ell_h,
            "L": self.big_l,
            "k": self.n * self.n,
        }


# -- metrics ----------------------------------------------------------------


class TerminalMetric:
    """The terminal metric D(i, j) = base[i, j] + shift for i != j, and
    base[i, i] on the diagonal, indexed by terminal position.  A gap instance
    has base = D_X (zero diagonal) and shift = 2L; a generic instance has its
    validated matrix and shift = 0.  Fractional solutions are edge lengths
    instead (see `relaxation`).

    `base` is held as `graphs.LevelCodes`, which decode the same floats as
    the dense matrix.  It is given as a size x size array, coded here, or as
    the extension whose D_X it is; then `base` is `extension_metric` of that
    extension, built on first access and cached on the extension.  `blocks`
    gives base in row blocks to a reader that takes every row once, and on
    a gap instance whose D_X is not built it streams them without building
    it (`extension.extension_blocks`).
    """

    def __init__(self, base, shift: float = 0.0):
        if isinstance(base, ExtendedGraph):
            self._extension, self._base, self.size = base, None, base.vertex_count
        else:
            self._extension, self._base = None, LevelCodes.from_matrix(base)
            self.size = self._base.shape[0]
        self.shift = float(shift)

    @property
    def base(self) -> LevelCodes:
        return self._base if self._extension is None else extension_metric(self._extension)

    def blocks(self):
        """base in row blocks of `graphs.ROW_BLOCK`: per block, in order, the
        (codes, table) pair of `LevelCodes`.  D is base + shift off the
        diagonal, which the reader adds."""
        if self._extension is None:
            return self._base.blocks()
        return extension_blocks(self._extension)

    def pair_values(self, ii, jj):
        """Distances D(ii, jj), elementwise over index arrays that broadcast
        like numpy operands."""
        ii = np.asarray(ii)
        jj = np.asarray(jj)
        return self.base.pair_values(ii, jj) + self.shift * (ii != jj)

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """The rows at `positions`, one per entry, as a (len, size) array."""
        rows = self.base.rows(positions)
        at = np.arange(positions.size), positions
        diagonal = rows[at]
        rows += self.shift
        rows[at] = diagonal
        return rows

    def matrix(self):
        return self.rows(np.arange(self.size))

    def rowsums(self):
        return self.base.rowsums() + self.shift * (self.size - 1)


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
    """What a gap instance was built from: the extension, L and the per-edge
    lengths of the canonical solution.  D_X is cached on the extension when
    a reader builds it, not here; `dx` reads that cache."""

    extension: ExtendedGraph
    big_l: float
    edge_lengths: np.ndarray  # per instance-graph edge: extension lengths then L

    @property
    def dx(self) -> LevelCodes | None:
        """The cached D_X codes once a reader has built them, else None:
        reading it builds nothing.  `extension_metric(self.extension)` builds
        them; their `nbytes` is what D_X holds."""
        return self.extension._metric


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
        n = self.graph.vertex_count
        outside = (self.terminals < 0) | (self.terminals >= n)
        if outside.any():
            raise InstanceError(f"terminal {self.terminals[outside][0]} out of range")
        self.term_index = np.full(n, -1, dtype=np.int64)
        self.term_index[self.terminals] = np.arange(self.terminals.size)

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
    """Instance over a sampled extension: pendant terminals, D = D_X + 2L.
    D_X itself is not built here (see `TerminalMetric`)."""
    if not 0 < big_l < math.inf:
        raise InstanceError(f"L must be positive and finite, got {big_l}")
    _require_finite(x.base_lengths, "base length")
    _require_finite(x.fiber_lengths, "fiber length")
    flat = flatten(x)
    # Every cloud is a copy of the fiber and each base edge's perfect matching
    # joins its two clouds, so a connected base and fiber give a connected
    # extension; only otherwise is the flattened graph searched.
    connected = (x.base.is_connected() and x.fiber.is_connected()) or flat.graph.is_connected()
    if not connected:
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
    metric = TerminalMetric(x, 2.0 * big_l)
    origin = GapOrigin(extension=x, big_l=float(big_l), edge_lengths=lengths)
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


def _subseed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((int(seed), tag)).generate_state(1)[0])


def default_gap_instance(n: int, d: int, seed: int, *, girth_floor: int | None = None) -> GapInstanceBuild:
    """Sample base and fiber graphs, extend, and build the gap instance of
    `GapSpec(n, d, girth_floor)`, which is checked before any draw.  The base
    graph has girth at least the spec's floor, the fiber girth 3; both are
    connected (see `random_regular`).  Provenance: `GapSpec.provenance`."""
    spec = GapSpec(n, d, girth_floor)
    base = random_regular(n, d, _subseed(seed, 1), girth_floor=spec.girth_floor)
    fiber = random_regular(n, d, _subseed(seed, 2))
    x = sample_extension(
        base.graph,
        uniform_lengths(base.graph, spec.ell_g),
        fiber.graph,
        uniform_lengths(fiber.graph, spec.ell_h),
        _subseed(seed, 3),
    )
    inst = build_gap_instance(x, spec.big_l)
    inst.provenance = provenance = spec.provenance(seed, base, fiber)
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


INSTANCE_VERSION = 2
_GRAPH_KEYS = ("vertex_count", "edges", "multigraph")
_GAP_KEYS = ("format", "version", "provenance", "metric", "origin")


def _graph_to_json(g: Graph) -> dict:
    out = {"vertex_count": g.vertex_count, "edges": g.endpoints().tolist()}
    if g.multigraph:
        out["multigraph"] = True
    return out


def _integers(values: list) -> list:
    """values, if each is a JSON integer; a float, bool or string id raises
    rather than being truncated or cast.  The types are tested at C speed;
    only a failing list is walked, to name its first offending value."""
    if not set(map(type, values)) <= {int}:
        bad = next(value for value in values if type(value) is not int)
        raise ValueError(f"{bad!r} is not an integer")
    return values


def _numbers(values: list) -> list:
    """values, if each is a JSON number; a bool or string raises rather than
    being cast to a float.  Tested as in `_integers`."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(value for value in values if type(value) not in (int, float))
        raise ValueError(f"{bad!r} is not a number")
    return values


def _graph_from_json(doc: dict) -> Graph:
    """The graph of a graph document: any key besides _GRAPH_KEYS (such as
    the generator labels of older files) is rejected, and so is any id that
    is not a JSON integer or a `multigraph` that is not a JSON boolean."""
    extra = sorted(key for key in doc if key not in _GRAPH_KEYS)
    if extra:
        raise ValueError(f"graph key {extra[0]!r} is not one of {_GRAPH_KEYS}")
    _integers([doc["vertex_count"], *itertools.chain.from_iterable(doc["edges"])])
    if type(doc.get("multigraph", False)) is not bool:
        raise ValueError(f"multigraph {doc['multigraph']!r} is not true or false")
    return Graph(
        vertex_count=doc["vertex_count"],
        edges=doc["edges"],
        multigraph=doc.get("multigraph", False),
    )


def save_instance(inst: ZeroExtInstance, path) -> None:
    """JSON document of the parts an instance is built from.

    A gap instance stores only its origin (base, fiber, their edge lengths,
    the matchings and the seed) and `metric.L`; `load_instance` rebuilds the
    graph, weights and terminals through the same code path, so a load/save
    round trip is bit-identical.  A dense generic instance stores its graph,
    weights, terminals and metric matrix inline.
    """
    doc: dict = {"format": "zeroext-instance", "version": INSTANCE_VERSION}
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
        doc["graph"] = _graph_to_json(inst.graph)
        doc["weights"] = inst.weights.tolist()
        doc["terminals"] = inst.terminals.tolist()
        doc["metric"] = {"mode": "dense", "matrix": inst.metric.matrix().tolist()}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


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
    all_int = set(map(type, itertools.chain.from_iterable(matchings))) <= {int}
    for eid, m in enumerate(matchings):
        if not (all_int or set(map(type, m)) <= {int}) or sorted(m) != identity:
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


def _version_1_error(path, doc: dict) -> InstanceError:
    """The error for a version-1 file, with the command that rebuilds it."""
    prov = doc.get("provenance")
    flags = ""
    if isinstance(prov, dict) and all(type(prov.get(key)) is int for key in ("n", "d", "seed")):
        flags = f" --n {prov['n']} --d {prov['d']} --seed {prov['seed']}"
    return InstanceError(
        f"{path}: version 1 instance files are no longer read; "
        f"`zeroext generate{flags}` rebuilds the file from its seed"
    )


def load_instance(path) -> ZeroExtInstance:
    """Read an instance file.  Every malformed part raises InstanceError naming
    the file: a version-1 file, a missing or ill-typed key (an id that is not
    a JSON integer, a number that is a bool or a string), a gap file key
    besides _GAP_KEYS, or a matching that is not a permutation of the fiber.
    A gap instance is built from its origin alone."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise InstanceError(f"{path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != "zeroext-instance":
        raise InstanceError(f"{path} is not an instance file")
    if doc.get("version") == 1:
        raise _version_1_error(path, doc)
    if doc.get("version") != INSTANCE_VERSION:
        raise InstanceError(f"{path}: unsupported 'version' {doc.get('version')!r}")
    mode = _read(path, doc, "metric.mode")
    if mode == "gap":
        extra = sorted(key for key in doc if key not in _GAP_KEYS)
        if extra:
            raise InstanceError(f"{path}: gap instance key {extra[0]!r} is not one of {_GAP_KEYS}")
        inst = _built(path, build_gap_instance, *_read_gap_origin(path, doc))
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
