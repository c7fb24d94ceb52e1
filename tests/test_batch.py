"""Batched evaluation: column j of every call on an (n, k) batch equals the
1-D call on column j bit for bit, signed zeros included.  The solver's
lockstep multistart and one-call Jacobians rely on this to reproduce the
serial solve exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphvar as gv
from graphvar.calculus import gamma_arr, laplacian_arr, p_laplacian_arr, poly_lap_apply_arr
from graphvar.functionals import _integrate

from conftest import ORDERS, SEEDS, random_graph, weighted_graphs


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def same_columns(batched, column_calls) -> bool:
    """Whether each column of `batched` (or each entry, for per-column
    scalars) has the bits of the matching 1-D result."""
    batched = np.asarray(batched, dtype=float)
    singles = [np.asarray(c, dtype=float) for c in column_calls]
    if batched.ndim == 1:
        return np.array_equal(bits(batched), bits(np.array(singles)))
    return all(np.array_equal(bits(batched[:, j]), bits(c)) for j, c in enumerate(singles))


def batch_of(rng: np.random.Generator, n: int) -> np.ndarray:
    """An (n, 8) batch: an all-zero column, a constant one, and two random
    columns at each of the scales 1, 10 and 1e3, one with a negative zero."""
    cols = [np.zeros(n), np.full(n, rng.uniform(-2.0, 2.0))]
    cols += [rng.uniform(-scale, scale, n) for scale in (1.0, 10.0, 1e3) for _ in range(2)]
    cols[-1][0] = -0.0
    return np.stack(cols, axis=1)


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(), SEEDS, ORDERS, st.sampled_from([2.0, 3.0]))
def test_kernels_batch_equals_columns(g, seed, m, p):
    rng = np.random.default_rng(seed)
    u = batch_of(rng, g.n_vertices)
    v = batch_of(rng, g.n_vertices)[:, ::-1].copy()
    cols = range(u.shape[1])
    assert same_columns(laplacian_arr(g, u), [laplacian_arr(g, u[:, j].copy()) for j in cols])
    assert same_columns(gamma_arr(g, u, v),
                        [gamma_arr(g, u[:, j].copy(), v[:, j].copy()) for j in cols])
    assert same_columns(poly_lap_apply_arr(g, u, m, p),
                        [poly_lap_apply_arr(g, u[:, j].copy(), m, p) for j in cols])
    assert same_columns(p_laplacian_arr(g, u, p),
                        [p_laplacian_arr(g, u[:, j].copy(), p) for j in cols])


def builtin_models(g, rng):
    """Example 6.1's coupled model (k = 2) and example 6.2's model supported
    at one vertex (k = 1), with orders and exponents of the solver's range.
    Tail exponents off the integers make the models' powers fractional,
    where NumPy's array ** and Python's float ** can differ in the last bit."""
    h = [gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices)) for _ in range(2)]
    m1, m2 = (int(x) for x in rng.integers(1, 4, 2))
    model = gv.builtin_example_6_1(0.9, 1.1, r1=rng.uniform(1.1, 2.0),
                                   r2=rng.uniform(1.1, 3.0))
    coupled = gv.ProblemSpec(graph=g, m1=m1, m2=m2, p=2.0, q=3.0, h1=h[0], h2=h[1],
                             nonlinearity=model)
    support = g.vertices[int(rng.integers(g.n_vertices))]
    model = gv.builtin_example_6_2(1.6, r=rng.uniform(3.1, 5.0), support=support)
    scalar = gv.ScalarProblem(graph=g, m=m1, p=3.0, h=h[0], nonlinearity=model)
    return coupled, scalar


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(), SEEDS, st.sampled_from([0.0, 0.3, 1.0]))
def test_problem_batch_equals_columns(g, seed, lam):
    rng = np.random.default_rng(seed)
    for prob in builtin_models(g, rng):
        z = np.concatenate([batch_of(rng, g.n_vertices)
                            for _ in prob.components])
        cols = [z[:, j].copy() for j in range(z.shape[1])]
        for method in (prob.residual_vec, prob.gradient_vec, prob.action_vec):
            assert same_columns(method(lam, z), [method(lam, c) for c in cols])
        assert same_columns(prob.wnorm_vec(z), [prob.wnorm_vec(c) for c in cols])


def test_one_vertex_batch_keeps_signed_zeros():
    # on one vertex np.dot is a product and keeps -0.0; a sum started at +0.0
    # would not
    g = gv.WeightedGraph(["a"], {"a": 1.3}, [])
    vals = np.array([[-0.0, 0.0, -2.5, np.inf, -np.inf, np.nan, -1e-300]])
    assert same_columns(_integrate(g, vals), [_integrate(g, c) for c in vals.T.copy()])
    h = gv.VertexFunction(g, [2.0])
    models = (gv.builtin_example_6_1(0.9, 1.1, r1=1.5, r2=2.5),
              gv.builtin_example_6_2(1.6, r=3.5, support="a"))
    probs = (gv.ProblemSpec(graph=g, m1=1, m2=2, p=2.0, q=3.0, h1=h, h2=h,
                            nonlinearity=models[0]),
             gv.ScalarProblem(graph=g, m=1, p=3.0, h=h, nonlinearity=models[1]))
    signed = [-0.0, 0.0, -1e-300, 1e-300, -0.5, 2.0]
    for prob in probs:
        z = np.array([signed, signed[::-1]][:len(prob.components)])
        cols = [z[:, j].copy() for j in range(z.shape[1])]
        for lam in (0.0, 0.3):
            assert same_columns(prob.action_vec(lam, z), [prob.action_vec(lam, c) for c in cols])
        assert same_columns(prob.wnorm_vec(z), [prob.wnorm_vec(c) for c in cols])


def test_scatter_plan_grows_and_keeps_the_column_bits():
    # widths across the plan's growth, and a narrower batch after it, on two
    # graphs in turn: the plan is per graph and sized to the widest batch
    rng = np.random.default_rng(13)
    graphs = (gv.grid3x3(), random_graph(rng, 6, 9))
    widest = dict.fromkeys(graphs, 0)
    for width in (1, 7, 64, 65, 130, 7):
        for g in graphs:
            u = np.concatenate([batch_of(rng, g.n_vertices)] * 17, axis=1)[:, :width]
            v = rng.uniform(-1.0, 1.0, u.shape)
            cols = range(width)
            assert same_columns(laplacian_arr(g, u), [laplacian_arr(g, u[:, j].copy())
                                                      for j in cols])
            assert same_columns(gamma_arr(g, u, v),
                                [gamma_arr(g, u[:, j].copy(), v[:, j].copy()) for j in cols])
            assert same_columns(gamma_arr(g, u, u), gamma_arr(g, u, u.copy()).T)
            assert same_columns(p_laplacian_arr(g, u, 3.0),
                                [p_laplacian_arr(g, u[:, j].copy(), 3.0) for j in cols])
            widest[g] = max(widest[g], width)
            assert g._plan.shape == (2, widest[g], g.n_edges)
    for g in graphs:  # the plan is a cache: not part of == or hash
        fresh = gv.build_graph(gv.serialize(g))
        assert fresh._plan is None and g._plan is not None
        assert fresh == g and hash(fresh) == hash(g)
