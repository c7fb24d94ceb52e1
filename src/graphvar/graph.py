"""Weighted-graph data model: finite vertex set with a positive measure mu,
symmetric positive edge weights, validation, integration, and the built-in
fixture generators (3x3 grid, square-lattice ball).

Vertex identifiers are opaque strings.  All iteration is in lexicographic
id order so that every downstream computation is reproducible bit for bit.
Graphs are immutable after construction.
"""

from __future__ import annotations

import json
import math
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    BadParam,
    DanglingEdge,
    DomainMismatch,
    DuplicateEdge,
    NonPositiveMeasure,
    NonPositiveWeight,
    SelfLoop,
    UnknownVertex,
)


class WeightedGraph:
    """Finite graph with vertex measure mu(x) > 0 and edge weights w_xy > 0.

    Edges are unordered pairs stored once, as index pairs (a, b) with a < b
    in the lexicographic vertex order; symmetry is structural.
    """

    __slots__ = ("vertices", "mu", "edge_index", "edge_weight", "_pos", "_deg", "_hash",
                 "_plan")

    def __init__(self, vertices: Iterable[str], mu: Mapping[str, float],
                 edges: Iterable[tuple[str, str, float]]):
        ids = sorted(str(v) for v in vertices)
        if len(set(ids)) != len(ids):
            raise BadParam("duplicate vertex ids")
        pos = {v: i for i, v in enumerate(ids)}

        mu_arr = np.empty(len(ids), dtype=float)
        for v in ids:
            if v not in mu:
                raise BadParam(f"vertex {v!r} has no measure")
            m = float(mu[v])
            if not math.isfinite(m) or m <= 0.0:
                raise NonPositiveMeasure(f"mu({v!r}) = {m} must be positive")
            mu_arr[pos[v]] = m

        pairs: list[tuple[int, int]] = []
        weights: list[float] = []
        seen: set[tuple[int, int]] = set()
        for a, b, w in edges:
            a, b = str(a), str(b)
            if a not in pos or b not in pos:
                raise DanglingEdge(f"edge ({a!r}, {b!r}) references an undeclared vertex")
            if a == b:
                raise SelfLoop(f"edge ({a!r}, {b!r}) is a self-loop")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise NonPositiveWeight(f"edge ({a!r}, {b!r}) has weight {w}, must be positive")
            i, j = pos[a], pos[b]
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise DuplicateEdge(f"edge ({a!r}, {b!r}) listed more than once")
            seen.add((i, j))
            pairs.append((i, j))
            weights.append(w)

        order = sorted(range(len(pairs)), key=lambda k: pairs[k])
        self.vertices: tuple[str, ...] = tuple(ids)
        self.mu: np.ndarray = mu_arr
        self.edge_index: np.ndarray = (
            np.array([pairs[k] for k in order], dtype=np.intp).reshape(-1, 2))
        self.edge_weight: np.ndarray = np.array([weights[k] for k in order], dtype=float)
        self._pos = pos

        deg = np.zeros(len(ids), dtype=float)
        np.add.at(deg, self.edge_index[:, 0], self.edge_weight)
        np.add.at(deg, self.edge_index[:, 1], self.edge_weight)
        self._deg = deg
        self.mu.setflags(write=False)
        self.edge_index.setflags(write=False)
        self.edge_weight.setflags(write=False)
        self._deg.setflags(write=False)
        self._hash = hash((self.vertices, self.mu.tobytes(), self.edge_index.tobytes(),
                           self.edge_weight.tobytes()))
        self._plan = None

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_weight)

    def index(self, x: str) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise UnknownVertex(f"vertex {x!r} is not in the graph") from None

    def degree(self, x: str) -> float:
        """Sum of incident edge weights; 0 for an isolated vertex."""
        return float(self._deg[self.index(x)])

    def degrees(self) -> np.ndarray:
        return self._deg

    def neighbors(self, x: str) -> list[str]:
        i = self.index(x)
        out = [self.vertices[b] for a, b in self.edge_index if a == i]
        out += [self.vertices[a] for a, b in self.edge_index if b == i]
        return sorted(out)

    def _scatter_keys(self, k: int) -> np.ndarray:
        """The plan of the batched scatter: a (2, K, n_edges) array, K >= k,
        whose entry (side, j, e) is the bincount key j * n_vertices +
        edge_index[e, side] of edge e in column j.  Built on first batched
        use and rebuilt at the width of a wider batch; a cache, so not part
        of == or hash."""
        plan = self._plan
        if plan is None or plan.shape[1] < k:
            plan = np.arange(k)[:, None] * self.n_vertices + self.edge_index.T[:, None, :]
            plan.setflags(write=False)
            self._plan = plan
        return plan

    def total_measure(self) -> float:
        """|V| in the measure sense: the sum of mu over all vertices."""
        return float(np.sum(self.mu))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.vertices == other.vertices
                and np.array_equal(self.mu, other.mu)
                and np.array_equal(self.edge_index, other.edge_index)
                and np.array_equal(self.edge_weight, other.edge_weight))

    def __hash__(self) -> int:  # of the content __eq__ compares
        return self._hash

    def __repr__(self) -> str:
        return f"WeightedGraph({self.n_vertices} vertices, {self.n_edges} edges)"


class VertexFunction:
    """A real value per vertex, the discrete u : V -> R.

    Values are stored as a read-only float copy aligned with the graph's
    vertex order and must all be finite; the caller's array is left as it is.
    """

    __slots__ = ("graph", "values")

    def __init__(self, graph: WeightedGraph, values: np.ndarray):
        values = np.array(values, dtype=float)
        if values.shape != (graph.n_vertices,):
            raise DomainMismatch(
                f"expected {graph.n_vertices} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise BadParam("vertex function contains non-finite values")
        self.graph = graph
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def from_dict(cls, graph: WeightedGraph, values: Mapping[str, float]) -> "VertexFunction":
        if set(values) != set(graph.vertices):
            missing = set(graph.vertices) - set(values)
            extra = set(values) - set(graph.vertices)
            raise DomainMismatch(
                f"value domain differs from vertex set (missing {sorted(missing)!r}, "
                f"extra {sorted(extra)!r})")
        arr = np.array([float(values[v]) for v in graph.vertices], dtype=float)
        return cls(graph, arr)

    @classmethod
    def constant(cls, graph: WeightedGraph, c: float) -> "VertexFunction":
        return cls(graph, np.full(graph.n_vertices, float(c)))

    @classmethod
    def zeros(cls, graph: WeightedGraph) -> "VertexFunction":
        return cls(graph, np.zeros(graph.n_vertices))

    @classmethod
    def indicator(cls, graph: WeightedGraph, x: str) -> "VertexFunction":
        arr = np.zeros(graph.n_vertices)
        arr[graph.index(x)] = 1.0
        return cls(graph, arr)

    def value(self, x: str) -> float:
        return float(self.values[self.graph.index(x)])

    def as_dict(self) -> dict[str, float]:
        return {v: float(self.values[i]) for i, v in enumerate(self.graph.vertices)}

    def __repr__(self) -> str:
        return f"VertexFunction({self.as_dict()!r})"


def check_domain(graph: WeightedGraph, *funcs: VertexFunction) -> None:
    """Raise DomainMismatch unless every function lives on `graph`."""
    for f in funcs:
        if f.graph is not graph and f.graph != graph:
            raise DomainMismatch("vertex function defined on a different graph")


def integrate(graph: WeightedGraph, u: VertexFunction) -> float:
    """Integral of u against the vertex measure: sum of mu(x) u(x)."""
    check_domain(graph, u)
    return float(np.dot(graph.mu, u.values))


# ---------------------------------------------------------------------------
# document (de)serialization
# ---------------------------------------------------------------------------

def doc_number(value, what: str) -> float:
    """A number read from a document, as a float.  Only JSON numbers (int
    or float) pass: a string or a boolean raises BadParam instead of being
    converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadParam(f"{what} must be a number, got {value!r}")
    return float(value)


def _doc_id(value, what: str) -> str:
    """A vertex id read from a document: only a JSON string passes."""
    if not isinstance(value, str):
        raise BadParam(f"{what} must be a string, got {value!r}")
    return value


def build_graph(desc: Mapping) -> WeightedGraph:
    """Build and validate a graph from its description document.

    The document layout is ``{"vertices": [{"id", "mu"}], "edges":
    [{"a", "b", "w"}]}`` with each unordered edge listed once.
    """
    try:
        vertices = [_doc_id(item["id"], "id of a vertex") for item in desc["vertices"]]
        mu = {v: doc_number(item["mu"], "mu of a vertex")
              for v, item in zip(vertices, desc["vertices"])}
        edges = [(_doc_id(e["a"], "a of an edge"), _doc_id(e["b"], "b of an edge"),
                  doc_number(e["w"], "w of an edge"))
                 for e in desc.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParam(f"malformed graph document: {exc}") from exc
    return WeightedGraph(vertices, mu, edges)


def serialize(graph: WeightedGraph) -> dict:
    return {
        "vertices": [{"id": v, "mu": float(graph.mu[i])}
                     for i, v in enumerate(graph.vertices)],
        "edges": [{"a": graph.vertices[a], "b": graph.vertices[b], "w": float(w)}
                  for (a, b), w in zip(graph.edge_index, graph.edge_weight)],
    }


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return build_graph(json.load(fh))


def save_graph(graph: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(graph), fh, indent=2, sort_keys=True)
        fh.write("\n")


def function_to_doc(u: VertexFunction) -> dict:
    return {"values": u.as_dict()}


def function_from_doc(graph: WeightedGraph, doc: Mapping) -> VertexFunction:
    try:
        values = {str(k): doc_number(v, "a vertex value") for k, v in doc["values"].items()}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise BadParam(f"malformed vertex-function document: {exc}") from exc
    return VertexFunction.from_dict(graph, values)


# ---------------------------------------------------------------------------
# built-in generators
# ---------------------------------------------------------------------------

def grid3x3() -> WeightedGraph:
    """3x3 grid, mu == 1, w == 1: the canonical 9-vertex finite fixture."""
    ids = [f"v{r}{c}" for r in range(3) for c in range(3)]
    edges = []
    for r in range(3):
        for c in range(3):
            if c < 2:
                edges.append((f"v{r}{c}", f"v{r}{c + 1}", 1.0))
            if r < 2:
                edges.append((f"v{r}{c}", f"v{r + 1}{c}", 1.0))
    return WeightedGraph(ids, {v: 1.0 for v in ids}, edges)


def _lattice_id(i: int, j: int, radius: int) -> str:
    return f"v{i + radius:02d}_{j + radius:02d}"


def positive_integer(value, what: str) -> int:
    """An integral number >= 1 (an int, an integral float or a NumPy
    integer, not a bool) as an int: a lattice-ball radius or a Sobolev
    order."""
    if not (isinstance(value, Real) and not isinstance(value, bool)
            and float(value).is_integer() and value >= 1):
        raise BadParam(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def lattice_ball(radius: int) -> WeightedGraph:
    """Square-lattice sup-norm ball of the given radius around a center.

    All Z^2 points with max(|i|, |j|) <= radius, nearest-neighbor edges of
    weight 2, mu == 1.  The center has exactly 4 neighbors.  This is the
    Dirichlet truncation used for locally finite problems.
    """
    radius = positive_integer(radius, "lattice_ball radius")
    span = range(-radius, radius + 1)
    ids = [_lattice_id(i, j, radius) for i in span for j in span]
    edges = []
    for i in span:
        for j in span:
            if j < radius:
                edges.append((_lattice_id(i, j, radius), _lattice_id(i, j + 1, radius), 2.0))
            if i < radius:
                edges.append((_lattice_id(i, j, radius), _lattice_id(i + 1, j, radius), 2.0))
    return WeightedGraph(ids, {v: 1.0 for v in ids}, edges)


def lattice_ball_center(radius: int) -> str:
    """Vertex id of the center of lattice_ball(radius)."""
    return _lattice_id(0, 0, positive_integer(radius, "lattice_ball radius"))


def generate_builtin(name: str, **params) -> WeightedGraph:
    """Dispatch for the named builtin generators: grid3x3 | lattice_ball."""
    if name == "grid3x3":
        if params:
            raise BadParam("grid3x3 takes no parameters")
        return grid3x3()
    if name == "lattice_ball":
        try:
            radius = params.pop("radius")
        except KeyError:
            raise BadParam("lattice_ball requires a radius") from None
        if params:
            raise BadParam(f"unknown lattice_ball parameters: {sorted(params)}")
        return lattice_ball(radius)
    raise BadParam(f"unknown builtin graph {name!r}")
