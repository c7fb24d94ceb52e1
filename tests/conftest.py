"""Shared fixtures: small graphs, random-graph generators and a hypothesis
strategy for them, brute-force reference implementations of the operators
(dict-and-loop style, independent of the vectorized library code), and a
smooth synthetic nonlinearity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from graphvar import (
    NonlinearityModel,
    VertexFunction,
    WeightedGraph,
    build_graph,
    grid3x3,
)


@pytest.fixture
def p2():
    """Two vertices, mu == 1, one edge of weight 2."""
    return build_graph({
        "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
        "edges": [{"a": "a", "b": "b", "w": 2.0}],
    })


@pytest.fixture
def grid():
    return grid3x3()


def random_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 8,
                 extra_edge_prob: float = 0.35) -> WeightedGraph:
    """Connected random graph: a random spanning tree plus extra edges,
    measures and weights in [0.5, 2.5]."""
    n = int(rng.integers(n_min, n_max + 1))
    ids = [f"v{i}" for i in range(n)]
    mu = {v: float(rng.uniform(0.5, 2.5)) for v in ids}
    edges = []
    present = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((ids[j], ids[i], float(rng.uniform(0.5, 2.5))))
        present.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.uniform() < extra_edge_prob:
                edges.append((ids[i], ids[j], float(rng.uniform(0.5, 2.5))))
                present.add((i, j))
    return WeightedGraph(ids, mu, edges)


# hypothesis strategies: operator orders, exponents, weights and measures,
# and connected weighted graphs
ORDERS = st.sampled_from([1, 2, 3])
EXPONENTS = st.sampled_from([2.0, 2.5, 3.0])
POSITIVE = st.floats(0.5, 2.5)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def weighted_graphs(draw, n_max: int = 9):
    """Connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(2, n_max))
    ids = [f"v{i}" for i in range(n)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=n))
    edges = [(ids[a], ids[b], draw(POSITIVE)) for a, b in sorted(pairs)]
    mu = {v: draw(POSITIVE) for v in ids}
    return WeightedGraph(ids, mu, edges)


def random_vf(rng: np.random.Generator, g: WeightedGraph, scale: float = 1.0) -> VertexFunction:
    return VertexFunction(g, rng.uniform(-scale, scale, g.n_vertices))


# ---------------------------------------------------------------------------
# brute-force reference operators (plain dicts and loops)
# ---------------------------------------------------------------------------

def neighbors_of(g: WeightedGraph, x: str) -> list[tuple[str, float]]:
    out = []
    for (a, b), w in zip(g.edge_index, g.edge_weight):
        if g.vertices[a] == x:
            out.append((g.vertices[b], float(w)))
        elif g.vertices[b] == x:
            out.append((g.vertices[a], float(w)))
    return out


def oracle_integrate(g: WeightedGraph, u: dict[str, float]) -> float:
    return sum(g.mu[g.index(x)] * u[x] for x in g.vertices)


def oracle_gamma(g: WeightedGraph, u: dict, v: dict) -> dict[str, float]:
    out = {}
    for x in g.vertices:
        acc = 0.0
        for y, w in neighbors_of(g, x):
            acc += w * (u[y] - u[x]) * (v[y] - v[x])
        out[x] = acc / (2.0 * g.mu[g.index(x)])
    return out


def oracle_laplacian(g: WeightedGraph, u: dict) -> dict[str, float]:
    out = {}
    for x in g.vertices:
        acc = 0.0
        for y, w in neighbors_of(g, x):
            acc += w * (u[y] - u[x])
        out[x] = acc / g.mu[g.index(x)]
    return out


def oracle_grad_norm(g: WeightedGraph, u: dict) -> dict[str, float]:
    gam = oracle_gamma(g, u, u)
    return {x: math.sqrt(max(gam[x], 0.0)) for x in g.vertices}


def oracle_p_laplacian(g: WeightedGraph, u: dict, p: float) -> dict[str, float]:
    gn = oracle_grad_norm(g, u)
    out = {}
    for x in g.vertices:
        acc = 0.0
        for y, w in neighbors_of(g, x):
            acc += (gn[y] ** (p - 2.0) + gn[x] ** (p - 2.0)) * w * (u[y] - u[x])
        out[x] = acc / (2.0 * g.mu[g.index(x)])
    return out


def as_dict(u: VertexFunction) -> dict[str, float]:
    return u.as_dict()


# ---------------------------------------------------------------------------
# smooth synthetic nonlinearity for derivative checks
# ---------------------------------------------------------------------------

def smooth_model() -> NonlinearityModel:
    return NonlinearityModel(
        name="smooth-test",
        F=lambda s, t: np.sin(s) * np.cos(t) + 0.25 * s ** 2 + 0.1 * s * t ** 2,
        Fs=lambda s, t: np.cos(s) * np.cos(t) + 0.5 * s + 0.1 * t ** 2,
        Ft=lambda s, t: -np.sin(s) * np.sin(t) + 0.2 * s * t,
        s_scale=2.0,
        t_scale=2.0,
    )


def linear_model() -> NonlinearityModel:
    """F(x, s, t) = s: the linear oracle nonlinearity."""
    return NonlinearityModel(
        name="linear-test",
        F=lambda s, t: s + 0.0 * t,
        Fs=lambda s, t: np.ones_like(np.asarray(s, dtype=float) + 0.0 * t),
        Ft=lambda s, t: np.zeros_like(np.asarray(s, dtype=float) + 0.0 * t),
        s_scale=1.0,
        t_scale=1.0,
    )


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
