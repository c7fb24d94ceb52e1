import numpy as np
import pytest
from hypothesis import given, settings

import graphvar as gv
from graphvar.calculus import poly_lap_apply_arr
from graphvar.errors import BadParam, DomainMismatch, RegularizationWarning

from conftest import (
    SEEDS,
    oracle_gamma,
    oracle_laplacian,
    oracle_p_laplacian,
    random_graph,
    random_vf,
    rel_close,
    weighted_graphs,
)


@pytest.fixture
def step(p2):
    return gv.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})


def test_gamma_hand_value(p2, step):
    got = gv.gamma(p2, step, step)
    assert got.value("a") == 1.0
    assert got.value("b") == 1.0


def test_gamma_constant_is_zero(p2):
    c = gv.VertexFunction.constant(p2, 3.7)
    v = gv.VertexFunction.from_dict(p2, {"a": -1.0, "b": 5.0})
    assert np.all(gv.gamma(p2, c, v).values == 0.0)


def test_gamma_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_graph(rng)
        u, v = random_vf(rng, g), random_vf(rng, g)
        assert np.array_equal(gv.gamma(g, u, v).values, gv.gamma(g, v, u).values)


def test_grad_norm_hand_value(p2, step):
    gn = gv.grad_norm(p2, step)
    assert gn.value("a") == 1.0 and gn.value("b") == 1.0
    c = gv.VertexFunction.constant(p2, 2.0)
    assert np.all(gv.grad_norm(p2, c).values == 0.0)


def test_grad_norm_squared_matches_gamma():
    rng = np.random.default_rng(6)
    for _ in range(25):
        g = random_graph(rng)
        u = random_vf(rng, g)
        gn2 = gv.grad_norm(g, u).values ** 2
        gam = gv.gamma(g, u, u).values
        assert np.all(np.abs(gn2 - gam) <= 1e-12 * np.maximum(1.0, np.abs(gam)))


def test_grad_norm_of_spike_on_lattice():
    # spike of height delta at the center: sqrt(deg/(2 mu)) delta there,
    # sqrt(w/(2 mu)) delta at each neighbor, zero elsewhere
    g = gv.lattice_ball(2)
    x0 = gv.lattice_ball_center(2)
    delta = 1.7
    u = gv.VertexFunction(g, delta * gv.VertexFunction.indicator(g, x0).values)
    gn = gv.grad_norm(g, u)
    assert gn.value(x0) == pytest.approx(np.sqrt(8.0 / 2.0) * delta, rel=1e-14)
    for y in g.neighbors(x0):
        assert gn.value(y) == pytest.approx(np.sqrt(2.0 / 2.0) * delta, rel=1e-14)
    far = [v for v in g.vertices if v != x0 and v not in g.neighbors(x0)]
    for y in far:
        assert gn.value(y) == 0.0


def test_laplacian_hand_value(p2, step):
    lap = gv.laplacian(p2, step)
    assert lap.value("a") == 2.0 and lap.value("b") == -2.0


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(25):
        g = random_graph(rng)
        u = random_vf(rng, g, scale=3.0)
        total = gv.integrate(g, gv.laplacian(g, u))
        assert abs(total) <= 1e-10 * max(1.0, float(np.max(np.abs(u.values))))


def test_operators_match_bruteforce_oracles():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_graph(rng)
        u, v = random_vf(rng, g), random_vf(rng, g)
        ud, vd = u.as_dict(), v.as_dict()
        got = gv.gamma(g, u, v).as_dict()
        ref = oracle_gamma(g, ud, vd)
        for x in g.vertices:
            assert rel_close(got[x], ref[x], 1e-12)
        got = gv.laplacian(g, u).as_dict()
        ref = oracle_laplacian(g, ud)
        for x in g.vertices:
            assert rel_close(got[x], ref[x], 1e-12)
        got = gv.p_laplacian(g, u, 3.0).as_dict()
        ref = oracle_p_laplacian(g, ud, 3.0)
        for x in g.vertices:
            assert rel_close(got[x], ref[x], 1e-11)


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(), SEEDS)
def test_green_identity_and_self_adjointness(g, seed):
    rng = np.random.default_rng(seed)
    u, v = random_vf(rng, g), random_vf(rng, g)
    lhs = gv.integrate(g, gv.VertexFunction(g, gv.laplacian(g, u).values * v.values))
    rhs = -gv.integrate(g, gv.gamma(g, u, v))
    assert rel_close(lhs, rhs, 1e-10)
    sym = gv.integrate(g, gv.VertexFunction(g, u.values * gv.laplacian(g, v).values))
    assert rel_close(lhs, sym, 1e-10)
    # L_{m,2} is self-adjoint in the mu inner product
    for m in (1, 2, 3):
        lu_v = float(np.dot(g.mu, poly_lap_apply_arr(g, u.values, m, 2.0) * v.values))
        u_lv = float(np.dot(g.mu, u.values * poly_lap_apply_arr(g, v.values, m, 2.0)))
        assert rel_close(lu_v, u_lv, 1e-10)


def test_m_grad_norm(p2, step):
    m1 = gv.m_grad_norm(p2, step, 1)
    assert np.array_equal(m1.values, gv.grad_norm(p2, step).values)
    m2 = gv.m_grad_norm(p2, step, 2)
    assert m2.value("a") == 2.0 and m2.value("b") == 2.0
    c = gv.VertexFunction.constant(p2, -4.0)
    for m in (1, 2, 3, 4):
        assert np.all(gv.m_grad_norm(p2, c, m).values == 0.0)
    with pytest.raises(BadParam):
        gv.m_grad_norm(p2, step, 0)


def test_p_laplacian_hand_value(p2, step):
    out = gv.p_laplacian(p2, step, 3.0)
    assert out.value("a") == pytest.approx(2.0, rel=1e-14)
    assert out.value("b") == pytest.approx(-2.0, rel=1e-14)


def test_p_laplacian_reduces_to_laplacian_at_p2():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = random_graph(rng)
        u = random_vf(rng, g)
        assert np.array_equal(gv.p_laplacian(g, u, 2.0).values,
                              gv.laplacian(g, u).values)


def test_weak_form_identity_eq_distributional():
    # integral of (Delta_p u) v equals minus the gradient-weighted Gamma pairing
    rng = np.random.default_rng(13)
    for p in (2.0, 2.5, 3.0, 4.0):
        for _ in range(10):
            g = random_graph(rng)
            u, v = random_vf(rng, g), random_vf(rng, g)
            lhs = gv.integrate(
                g, gv.VertexFunction(g, gv.p_laplacian(g, u, p).values * v.values))
            gn = gv.grad_norm(g, u).values
            gam = gv.gamma(g, u, v).values
            rhs = -float(np.dot(g.mu, gn ** (p - 2.0) * gam))
            assert rel_close(lhs, rhs, 1e-10)


def test_p_laplacian_constant_short_circuits_without_warning(p2):
    import warnings
    c = gv.VertexFunction.constant(p2, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gv.p_laplacian(p2, c, 1.5)
    assert np.all(out.values == 0.0)
    assert not np.any(np.signbit(out.values))  # `op p_laplacian` writes 0.0, not -0.0


def test_p_laplacian_regularizes_vanishing_gradient_below_p2():
    g = gv.WeightedGraph(["a", "b", "c"], {"a": 1, "b": 1, "c": 1}, [("a", "b", 1.0)])
    u = gv.VertexFunction.from_dict(g, {"a": 0.0, "b": 1.0, "c": 2.0})  # c isolated
    with pytest.warns(RegularizationWarning):
        out = gv.p_laplacian(g, u, 1.5)
    assert np.all(np.isfinite(out.values))
    assert out.value("c") == 0.0


def test_poly_lap_weak_hand_value(p2, step):
    phi = gv.VertexFunction.from_dict(p2, {"a": 1.0, "b": 0.0})
    assert gv.poly_lap_weak(p2, step, phi, 2, 2.0) == pytest.approx(-8.0, rel=1e-14)


def test_poly_lap_weak_m1_matches_p_laplacian_pairing():
    rng = np.random.default_rng(14)
    for p in (2.0, 3.0):
        for _ in range(10):
            g = random_graph(rng)
            u, phi = random_vf(rng, g), random_vf(rng, g)
            weak = gv.poly_lap_weak(g, u, phi, 1, p)
            pair = -gv.integrate(
                g, gv.VertexFunction(g, gv.p_laplacian(g, u, p).values * phi.values))
            assert rel_close(weak, pair, 1e-10)


def test_poly_lap_weak_constant_test_function_even_order():
    rng = np.random.default_rng(15)
    g = random_graph(rng)
    u = random_vf(rng, g)
    phi = gv.VertexFunction.constant(g, 4.2)
    assert gv.poly_lap_weak(g, u, phi, 2, 2.0) == 0.0


def test_poly_lap_pointwise_m1_p2_is_minus_laplacian():
    rng = np.random.default_rng(16)
    for _ in range(15):
        g = random_graph(rng)
        u = random_vf(rng, g)
        got = gv.poly_lap_pointwise(g, u, 1, 2.0).values
        ref = -gv.laplacian(g, u).values
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_poly_lap_pointwise_m2_p2_is_bilaplacian():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_graph(rng)
        u = random_vf(rng, g)
        got = gv.poly_lap_pointwise(g, u, 2, 2.0).values
        ref = gv.laplacian(g, gv.laplacian(g, u)).values
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_poly_lap_pointwise_reconstructs_weak_form():
    rng = np.random.default_rng(18)
    for m, p in ((1, 2.0), (2, 3.0), (3, 2.5)):
        for _ in range(8):
            g = random_graph(rng)
            u, phi = random_vf(rng, g), random_vf(rng, g)
            pw = gv.poly_lap_pointwise(g, u, m, p)
            lhs = gv.integrate(g, gv.VertexFunction(g, pw.values * phi.values))
            rhs = gv.poly_lap_weak(g, u, phi, m, p)
            assert rel_close(lhs, rhs, 1e-10)


def test_poly_lap_linearity_at_p2():
    rng = np.random.default_rng(19)
    for m in (1, 2, 3):
        g = random_graph(rng)
        u, v = random_vf(rng, g), random_vf(rng, g)
        a, b = 1.3, -0.7
        lin = gv.VertexFunction(g, a * u.values + b * v.values)
        got = gv.poly_lap_pointwise(g, lin, m, 2.0).values
        ref = (a * gv.poly_lap_pointwise(g, u, m, 2.0).values
               + b * gv.poly_lap_pointwise(g, v, m, 2.0).values)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(), SEEDS)
def test_adjoint_apply_matches_indicator_extraction(g, seed):
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3):
        for p in (2.0, 2.5, 3.0):
            u = random_vf(rng, g)
            fast = poly_lap_apply_arr(g, u.values, m, p)
            ref = gv.poly_lap_pointwise(g, u, m, p).values
            assert np.all(np.abs(fast - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_lr_norm_examples(p2, step):
    assert gv.lr_norm(p2, gv.VertexFunction.zeros(p2), 2.0) == 0.0
    assert gv.lr_norm(p2, step, 2.0) == 1.0
    grid = gv.grid3x3()
    c = gv.VertexFunction.constant(grid, -2.5)
    assert gv.lr_norm(grid, c, 1.0) == pytest.approx(9 * 2.5, rel=1e-14)
    with pytest.raises(BadParam):
        gv.lr_norm(p2, step, 0.9)


def test_domain_mismatch_raised(p2, grid):
    u = gv.VertexFunction.zeros(grid)
    with pytest.raises(DomainMismatch):
        gv.laplacian(p2, u)


def test_bad_exponent_rejected(p2, step):
    with pytest.raises(BadParam):
        gv.p_laplacian(p2, step, 1.0)
    with pytest.raises(BadParam):
        gv.p_laplacian(p2, step, float("nan"))
    with pytest.raises(BadParam):
        gv.poly_lap_weak(p2, step, step, 1, 0.5)


def test_operator_request_validates(p2, step):
    with pytest.raises(BadParam):
        gv.m_grad_norm(p2, step, 0)
    with pytest.raises(BadParam):
        gv.poly_lap_weak(p2, step, step, 0, 2.0)
