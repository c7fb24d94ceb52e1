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
    solver,
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


@st.composite
def mirrored_graphs(draw, half_max: int = 5):
    """A connected graph glued to its mirror image along its fixed vertices:
    fixed vertices f0, f1, ... and vertices a0, a1, ... whose mirror images
    are b0, b1, ...; every edge, measure and weight of the half is repeated
    in the mirror, and an edge a_i - b_j comes with a_j - b_i.  Returns the
    graph, the map of each vertex of the half to its mirror image, and the
    values of a potential per vertex, mirrored like mu."""
    fixed = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    moved = [f"a{i}" for i in range(draw(st.integers(1, half_max)))]
    half = fixed + moved
    mirror = {v: v if v in fixed else "b" + v[1:] for v in half}
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, len(half))}
    pairs |= draw(st.sets(st.tuples(st.integers(0, len(half) - 1),
                                    st.integers(0, len(half) - 1))
                          .filter(lambda e: e[0] < e[1]), max_size=len(half)))
    edges = {}
    for a, b in sorted(pairs):
        w = draw(POSITIVE)
        for x, y in ((half[a], half[b]), (mirror[half[a]], mirror[half[b]])):
            edges[min(x, y), max(x, y)] = w
    for i, j in draw(st.sets(st.tuples(st.integers(0, len(moved) - 1),
                                       st.integers(0, len(moved) - 1)), max_size=3)):
        w = draw(POSITIVE)
        for x, y in ((moved[i], mirror[moved[j]]), (moved[j], mirror[moved[i]])):
            edges[min(x, y), max(x, y)] = w
    mu = {v: draw(POSITIVE) for v in half}
    h = {v: draw(POSITIVE) for v in half}
    ids = half + [mirror[v] for v in moved]
    g = WeightedGraph(ids, {v: mu[v] for v in half} | {mirror[v]: mu[v] for v in moved},
                      [(x, y, w) for (x, y), w in edges.items()])
    return g, mirror, {v: h[v] for v in half} | {mirror[v]: h[v] for v in moved}


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


def full_space_solve(prob, lam: float, cfg, radius: float):
    """find_three's multistart and deflation on `prob` itself, never on its
    quotient: the full-space search that solver tests on the symmetric
    builtins keep as their subject."""
    accepted, outcomes = [], []
    solver._search(prob, lam, cfg, radius, accepted, outcomes)
    return solver._solution_set(prob, lam, cfg, accepted, outcomes)
