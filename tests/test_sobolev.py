import numpy as np
import pytest

import graphvar as gv
from graphvar.errors import BadParam, NonPositivePotential
from graphvar.sobolev import SobolevSpec, w_norm_power

from conftest import random_graph, random_vf


def ones(g):
    return gv.VertexFunction.constant(g, 1.0)


def test_w_norm_zero(p2):
    spec = SobolevSpec(1, 2.0, ones(p2))
    assert gv.w_norm(p2, gv.VertexFunction.zeros(p2), spec) == 0.0


def test_w_norm_hand_value(p2):
    # int |grad u|^2 = 2, int h |u|^2 = 1
    u = gv.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})
    spec = SobolevSpec(1, 2.0, ones(p2))
    assert gv.w_norm(p2, u, spec) == pytest.approx(np.sqrt(3.0), rel=1e-14)


def test_w_norm_of_constant_is_potential_integral():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        for l in (2.0, 3.0, 2.5):
            g = random_graph(rng)
            h = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
            delta = float(rng.uniform(0.3, 2.0))
            u = gv.VertexFunction.constant(g, delta)
            spec = SobolevSpec(m, l, h)
            got = w_norm_power(g, u, spec)
            want = delta ** l * gv.integrate(g, h)
            assert got == pytest.approx(want, rel=1e-12)


def test_w_norm_homogeneity():
    rng = np.random.default_rng(24)
    g = random_graph(rng)
    h = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
    u = random_vf(rng, g)
    spec = SobolevSpec(2, 2.5, h)
    base = gv.w_norm(g, u, spec)
    for t in (-3.0, 0.5, 7.0):
        scaled = gv.VertexFunction(g, t * u.values)
        assert gv.w_norm(g, scaled, spec) == pytest.approx(abs(t) * base, rel=1e-12)


def test_sup_embedding_const_values(p2):
    assert gv.sup_embedding_const(p2, 2.0, ones(p2)) == 1.0
    grid = gv.grid3x3()
    h9 = gv.VertexFunction.constant(grid, 9.0)
    assert gv.sup_embedding_const(grid, 2.0, h9) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert gv.sup_embedding_const_floors(3.0, 4.0, 1.0) == pytest.approx(
        (1.0 / 4.0) ** (1.0 / 3.0), rel=1e-14)


def test_lr_embedding_const_values(p2):
    assert gv.lr_embedding_const(p2, 2.0, 2.0, ones(p2)) == pytest.approx(
        np.sqrt(2.0), rel=1e-14)
    single = gv.WeightedGraph(["a"], {"a": 1.0}, [])
    h1 = gv.VertexFunction.constant(single, 1.0)
    for l, r in ((2.0, 2.0), (3.0, 2.0), (2.5, 4.0)):
        assert gv.lr_embedding_const(single, l, r, h1) == 1.0
    grid = gv.grid3x3()
    h9 = gv.VertexFunction.constant(grid, 9.0)
    assert gv.lr_embedding_const(grid, 2.0, 2.0, h9) == pytest.approx(1.0, rel=1e-14)


def test_sup_embedding_inequality_sampled():
    rng = np.random.default_rng(25)
    for _ in range(50):
        g = random_graph(rng)
        h = gv.VertexFunction(g, rng.uniform(0.3, 4.0, g.n_vertices))
        l = float(rng.uniform(1.2, 4.0))
        m = int(rng.integers(1, 4))
        u = random_vf(rng, g, scale=3.0)
        d = gv.sup_embedding_const(g, l, h)
        bound = d * gv.w_norm(g, u, SobolevSpec(m, l, h))
        assert float(np.max(np.abs(u.values))) <= bound * (1.0 + 1e-12)


def test_lr_embedding_inequality_sampled():
    rng = np.random.default_rng(26)
    for _ in range(50):
        g = random_graph(rng)
        h = gv.VertexFunction(g, rng.uniform(0.3, 4.0, g.n_vertices))
        l = float(rng.uniform(1.2, 4.0))
        r = float(rng.uniform(1.2, 4.0))
        u = random_vf(rng, g, scale=3.0)
        k = gv.lr_embedding_const(g, l, r, h)
        bound = k * gv.w_norm(g, u, SobolevSpec(1, l, h))
        assert gv.lr_norm(g, u, r) <= bound * (1.0 + 1e-12)


def test_locally_finite_bounds_on_lattice_ball():
    rng = np.random.default_rng(27)
    h0, mu0 = 4.0, 1.0
    g = gv.lattice_ball(3)
    h = gv.VertexFunction.constant(g, h0)
    for _ in range(50):
        l = float(rng.uniform(1.2, 3.5))
        r = float(rng.uniform(l, 5.0))
        u = random_vf(rng, g, scale=2.0)
        wn = gv.w_norm(g, u, SobolevSpec(1, l, h))
        sup_bound = gv.sup_embedding_const_floors(l, h0, mu0) * wn
        assert float(np.max(np.abs(u.values))) <= sup_bound * (1.0 + 1e-12)
        lr_bound = gv.lr_embedding_const_floors(l, r, h0, mu0) * wn
        assert gv.lr_norm(g, u, r) <= lr_bound * (1.0 + 1e-12)


def test_potential_and_exponent_validation(p2):
    bad_h = gv.VertexFunction.from_dict(p2, {"a": 1.0, "b": 0.0})
    with pytest.raises(NonPositivePotential):
        SobolevSpec(1, 2.0, bad_h)
    with pytest.raises(NonPositivePotential):
        gv.sup_embedding_const(p2, 2.0, bad_h)
    with pytest.raises(BadParam):
        SobolevSpec(1, 1.0, ones(p2))
    with pytest.raises(BadParam):
        gv.lr_embedding_const_floors(3.0, 2.0, 1.0, 1.0)  # needs r >= l
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NonPositivePotential):
            gv.sup_embedding_const_floors(2.0, bad, 1.0)
        with pytest.raises(NonPositivePotential):
            gv.lr_embedding_const_floors(2.0, 3.0, bad, 1.0)
        with pytest.raises(BadParam):
            gv.sup_embedding_const_floors(bad, 1.0, 1.0)
        with pytest.raises(BadParam):
            gv.sup_embedding_const(p2, bad, ones(p2))
        with pytest.raises(BadParam):
            gv.lr_embedding_const(p2, 2.0, bad, ones(p2))
        with pytest.raises(BadParam):
            SobolevSpec(1, bad, ones(p2))


@pytest.mark.parametrize("m, l", [(2, 2.0), (2.0, 2), (np.int64(2), np.float64(2.0))])
def test_integral_orders_are_stored_as_int(p2, m, l):
    spec = SobolevSpec(m, l, ones(p2))
    assert (type(spec.m), type(spec.l)) == (int, float)
    assert (spec.m, spec.l) == (2, 2.0)


@pytest.mark.parametrize("m, l", [(2.5, 2.0), ("2", 2.0), (True, 2.0), (0, 2.0),
                                  (float("inf"), 2.0), (2, "2")])
def test_order_and_exponent_must_be_numbers_of_their_kind(p2, m, l):
    with pytest.raises(BadParam):
        SobolevSpec(m, l, ones(p2))
