import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

import graphvar as gv
from graphvar.errors import BadParam
from graphvar.functionals import monotonicity_modulus
from graphvar.problems import builtin_problem

from conftest import (
    EXPONENTS,
    ORDERS,
    SEEDS,
    linear_model,
    random_graph,
    random_vf,
    rel_close,
    smooth_model,
    weighted_graphs,
)


@pytest.fixture(scope="module")
def prep61():
    return builtin_problem("example-6.1")


@pytest.fixture(scope="module")
def prep62():
    return builtin_problem("example-6.2")


def pair(g, u_vals, v_vals):
    return gv.StatePair(gv.VertexFunction(g, np.asarray(u_vals, dtype=float)),
                        gv.VertexFunction(g, np.asarray(v_vals, dtype=float)))


def const_pair(g, d1, d2):
    return gv.StatePair(gv.VertexFunction.constant(g, d1),
                        gv.VertexFunction.constant(g, d2))


def random_problem(rng, m1=1, m2=1, p=2.0, q=2.0, model=None, g=None):
    g = random_graph(rng) if g is None else g
    h1 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
    h2 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
    return gv.ProblemSpec(graph=g, m1=m1, m2=m2, p=p, q=q, h1=h1, h2=h2,
                          nonlinearity=model or smooth_model())


def test_phi_zero_at_zero(prep61):
    g = prep61.problem.graph
    assert gv.phi_energy(prep61.problem, const_pair(g, 0.0, 0.0)) == 0.0
    assert gv.psi_energy(prep61.problem, const_pair(g, 0.0, 0.0)) == 0.0


def test_phi_at_constants_formula():
    rng = np.random.default_rng(41)
    prob = random_problem(rng, m1=2, m2=1, p=2.0, q=3.0)
    d1, d2 = 1.7, 0.9
    got = gv.phi_energy(prob, const_pair(prob.graph, d1, d2))
    want = (d1 ** 2 / 2.0 * gv.integrate(prob.graph, prob.components[0].h)
            + d2 ** 3 / 3.0 * gv.integrate(prob.graph, prob.components[1].h))
    assert got == pytest.approx(want, rel=1e-12)


def test_phi_at_reference_constants_is_85657_5(prep61):
    prob = prep61.problem
    w = const_pair(prob.graph, *prep61.deltas)
    assert gv.phi_energy(prob, w) == pytest.approx(85657.5, rel=1e-12)
    # the two contributions separately
    d1, d2 = prep61.deltas
    assert d1 ** 2 / 2.0 * 81.0 == pytest.approx(9720.0, rel=1e-12)
    assert d2 ** 3 / 3.0 * 81.0 == pytest.approx(75937.5, rel=1e-12)


def test_phi_homogeneity(prep61):
    prob = prep61.problem
    rng = np.random.default_rng(42)
    u = random_vf(rng, prob.graph)
    zero = gv.VertexFunction.zeros(prob.graph)
    base = gv.phi_energy(prob, gv.StatePair(u, zero))
    for t in (0.5, 2.0, 7.0):
        scaled = gv.StatePair(gv.VertexFunction(prob.graph, t * u.values), zero)
        assert gv.phi_energy(prob, scaled) == pytest.approx(t ** prob.components[0].l * base, rel=1e-12)


def test_psi_constants_vertex_independent(prep61):
    prob = prep61.problem
    d1, d2 = 2.0, 1.0
    got = gv.psi_energy(prob, const_pair(prob.graph, d1, d2))
    want = float(prob.nonlinearity.F(np.asarray(d1), np.asarray(d2))) * 9.0
    assert got == pytest.approx(want, rel=1e-12)


def test_bundled_problems_are_hashable(prep61, prep62):
    for prob in (prep61.problem, prep62.problem):
        hash(prob)
        assert len({prob, dataclasses.replace(prob)}) == 1


def test_psi_spike_equals_local_value(prep62):
    # the scalar problem on the truncated lattice: a spike at the center
    # contributes exactly F(x0, delta)
    prob = prep62.problem
    delta = prep62.deltas[0]
    z = delta * gv.VertexFunction.indicator(prob.graph, prep62.x0).values
    psi = (prob.action_vec(0.0, z) - prob.action_vec(1.0, z))
    want = float(prob.nonlinearity.F(np.asarray(delta), np.asarray(0.0)))
    assert psi == pytest.approx(want, rel=1e-12)


def test_action_lambda_zero_is_phi(prep61):
    prob = prep61.problem
    rng = np.random.default_rng(43)
    w = pair(prob.graph, rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9))
    assert gv.action(prob, 0.0, w) == pytest.approx(gv.phi_energy(prob, w), rel=1e-14)
    with pytest.raises(BadParam):
        gv.action(prob, -0.1, w)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(BadParam):
            gv.action(prob, bad, w)


def test_action_vanishes_at_lower_endpoint_constants(prep61):
    # at the reference constant pair, action with lam = Phi/Psi is zero by
    # construction of the lower endpoint
    prob = prep61.problem
    w = const_pair(prob.graph, *prep61.deltas)
    lam = gv.phi_energy(prob, w) / gv.psi_energy(prob, w)
    val = gv.action(prob, lam, w)
    assert abs(val) <= 1e-9 * gv.phi_energy(prob, w)


def test_action_gradient_hand_value(p2):
    prob = gv.ProblemSpec(graph=p2, m1=1, m2=1, p=2.0, q=2.0,
                          h1=gv.VertexFunction.constant(p2, 1.0),
                          h2=gv.VertexFunction.constant(p2, 1.0),
                          nonlinearity=linear_model())
    w = pair(p2, [0.0, 1.0], [0.0, 0.0])
    grad = gv.action_gradient(prob, 0.0, w)
    assert grad.u.value("a") == pytest.approx(-2.0, rel=1e-14)
    assert grad.u.value("b") == pytest.approx(3.0, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(), ORDERS, ORDERS, EXPONENTS, EXPONENTS, SEEDS)
def test_action_gradient_matches_finite_differences(g, m1, m2, p, q, seed):
    # the directional derivative of the action is the mu-weighted residual pairing
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, m1=m1, m2=m2, p=p, q=q, g=g)
    n = prob.graph.n_vertices
    z = rng.uniform(-1.5, 1.5, 2 * n)
    direction = rng.uniform(-1.0, 1.0, 2 * n)
    lam = float(rng.uniform(0.1, 2.0))
    eps = 1e-6 * (1.0 + float(np.linalg.norm(z)))
    fd = (prob.action_vec(lam, z + eps * direction)
          - prob.action_vec(lam, z - eps * direction)) / (2 * eps)
    mu2 = np.concatenate([prob.graph.mu, prob.graph.mu])
    pairing = float(np.dot(mu2 * prob.residual_vec(lam, z), direction))
    assert abs(fd - pairing) <= max(1e-6, 1e-4 * abs(pairing))


def test_monotonicity_gap_zero_for_equal_states(prep61):
    prob = prep61.problem
    rng = np.random.default_rng(45)
    w = pair(prob.graph, rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9))
    assert gv.monotonicity_gap(prob, w, w) == 0.0


def test_monotonicity_gap_quadratic_case_exact():
    rng = np.random.default_rng(46)
    for _ in range(10):
        prob = random_problem(rng, m1=1, m2=2, p=2.0, q=2.0)
        n = prob.graph.n_vertices
        w1 = pair(prob.graph, rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        w2 = pair(prob.graph, rng.uniform(-2, 2, n), rng.uniform(-2, 2, n))
        gap = gv.monotonicity_gap(prob, w1, w2)
        du = gv.VertexFunction(prob.graph, w1.u.values - w2.u.values)
        dv = gv.VertexFunction(prob.graph, w1.v.values - w2.v.values)
        want = (gv.w_norm(prob.graph, du, prob.components[0]) ** 2
                + gv.w_norm(prob.graph, dv, prob.components[1]) ** 2)
        assert rel_close(gap, want, 1e-10)
        assert gap > 0.0


def test_monotonicity_gap_lower_bounds_sampled():
    rng = np.random.default_rng(47)
    for p, q in ((2.0, 3.0), (3.0, 2.0), (2.5, 2.5)):
        for _ in range(20):
            prob = random_problem(rng, m1=1, m2=1, p=p, q=q)
            n = prob.graph.n_vertices
            w1 = pair(prob.graph, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            w2 = pair(prob.graph, rng.uniform(-3, 3, n), rng.uniform(-3, 3, n))
            gap = gv.monotonicity_gap(prob, w1, w2)
            du = gv.VertexFunction(prob.graph, w1.u.values - w2.u.values)
            dv = gv.VertexFunction(prob.graph, w1.v.values - w2.v.values)
            nu = gv.w_norm(prob.graph, du, prob.components[0])
            nv = gv.w_norm(prob.graph, dv, prob.components[1])
            bound = 2.0 ** (2 - p) * nu ** p + 2.0 ** (2 - q) * nv ** q
            assert gap + 1e-9 * max(1.0, abs(gap)) >= bound
            t = nu + nv
            assert gap + 1e-9 * max(1.0, abs(gap)) >= monotonicity_modulus(p, q, t) * t


def test_monotonicity_gap_requires_p_q_at_least_two():
    rng = np.random.default_rng(48)
    prob = random_problem(rng, p=1.5, q=2.0)
    w = const_pair(prob.graph, 1.0, 1.0)
    with pytest.raises(BadParam):
        gv.monotonicity_gap(prob, w, w)


def test_coercivity_witness_along_rays(prep61, prep62):
    rng = np.random.default_rng(49)
    for lam in (0.5, 10.0):
        prob = prep61.problem
        n = prob.graph.n_vertices
        z = rng.uniform(-2, 2, 2 * n)
        assert prob.action_vec(lam, 1e3 * z) > prob.action_vec(lam, z)
        sprob = prep62.problem
        zs = rng.uniform(-2, 2, sprob.graph.n_vertices)
        assert sprob.action_vec(lam, 1e3 * zs) > sprob.action_vec(lam, zs)


def test_w_distance_properties(prep61):
    prob = prep61.problem
    rng = np.random.default_rng(50)
    w1 = pair(prob.graph, rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9))
    w2 = pair(prob.graph, rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9))
    assert gv.w_distance(prob, w1, w1) == 0.0
    d12 = gv.w_distance(prob, w1, w2)
    assert d12 == pytest.approx(gv.w_distance(prob, w2, w1), rel=1e-12)
    assert d12 > 0.0


def test_residual_is_gradient_sup(prep61):
    prob = prep61.problem
    rng = np.random.default_rng(51)
    w = pair(prob.graph, rng.uniform(-2, 2, 9), rng.uniform(-2, 2, 9))
    grad = gv.action_gradient(prob, 0.4, w)
    sup = max(float(np.max(np.abs(grad.u.values))), float(np.max(np.abs(grad.v.values))))
    assert gv.residual(prob, 0.4, w) == pytest.approx(sup, rel=1e-15)


def test_problem_spec_validation(p2):
    h = gv.VertexFunction.constant(p2, 1.0)
    with pytest.raises(BadParam):
        gv.ProblemSpec(graph=p2, m1=0, m2=1, p=2.0, q=2.0, h1=h, h2=h,
                       nonlinearity=smooth_model())
    with pytest.raises(BadParam):
        gv.ProblemSpec(graph=p2, m1=1, m2=1, p=1.0, q=2.0, h1=h, h2=h,
                       nonlinearity=smooth_model())
