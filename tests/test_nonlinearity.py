import numpy as np
import pytest

import graphvar as gv
from graphvar.errors import BadParam, InconsistentDerivative
from graphvar.nonlinearity import (
    NonlinearityModel,
    envelope_bound_gap,
    growth_bound_gap,
    nonlinearity_from_doc,
    nonlinearity_to_doc,
)

W1 = 15.0 ** 0.5
W2 = (45.0 / 2.0) ** (1.0 / 3.0)
W = 4.0 ** (1.0 / 3.0)


@pytest.fixture
def m61():
    return gv.builtin_example_6_1(W1, W2, r1=2.0, r2=3.0)


@pytest.fixture
def m62():
    return gv.builtin_example_6_2(W, r=5.0, support="x0")


def test_61_first_branch_partial(m61):
    for t in (-7.0, 0.0, 2.5, 40.0):
        assert float(m61.Fs(np.asarray(0.0), np.asarray(t))) == pytest.approx(W1, rel=1e-14)


def test_61_origin_value(m61):
    assert float(m61.F(np.asarray(0.0), np.asarray(0.0))) == 0.0


def test_61_inner_corner_value(m61):
    got = float(m61.F(np.asarray(W1), np.asarray(W2)))
    assert got == pytest.approx(0.5 * W1 ** 2 + 0.5 * W2 ** 2, rel=1e-14)


def test_61_outer_value_matches_independent_arithmetic(m61):
    # value at (4 w1, 5 w2), where the tail terms cancel branch by branch
    d1, d2 = 4 * W1, 5 * W2
    want_s = 0.5 * W1 ** 2 + 0.25 * (4 * W1) ** 4 - 4 * W1 ** 4 + 0.75 * W1 ** 4
    want_t = (0.5 * W2 ** 2 + (5 * W2) ** 5 / 5.0 - 5 * W2 ** 5 + 0.8 * W2 ** 5)
    assert float(m61.F(np.asarray(d1), np.asarray(d2))) == pytest.approx(want_s + want_t,
                                                                       rel=1e-12)


def test_61_seam_continuity(m61):
    eps = 1e-9
    for fn in (m61.F, m61.Fs, m61.Ft):
        for s0 in (W1, 4 * W1):
            lo = float(fn(np.asarray(s0 - eps), np.asarray(1.0)))
            hi = float(fn(np.asarray(s0 + eps), np.asarray(1.0)))
            assert abs(hi - lo) <= 1e-6 * max(1.0, abs(hi))
        for t0 in (W2, 5 * W2):
            lo = float(fn(np.asarray(1.0), np.asarray(t0 - eps)))
            hi = float(fn(np.asarray(1.0), np.asarray(t0 + eps)))
            assert abs(hi - lo) <= 1e-6 * max(1.0, abs(hi))


@pytest.mark.parametrize("path", ["scalar", "array"])
def test_outer_seams_belong_to_the_declared_branch(path):
    # example 6.1's middle branches are open at 4 w1 and 5 w2, so the tails
    # own those seams; example 6.2's is closed at 6 w and owns it.  At the
    # default parameters the middle and tail formulas give the same bits at
    # these seams (example 6.2's always do at r = 5), so these parameters
    # are ones where they differ.
    m61 = gv.builtin_example_6_1(1.3, 1.3, r1=2.0, r2=2.5)
    m62 = gv.builtin_example_6_2(0.7, r=4.0)
    cases = [(lambda k: m61.Fs(k, 0 * k), 1.3, 3, 4, 2.0, "tail"),
             (lambda k: m61.Ft(0 * k, k), 1.3, 4, 5, 2.5, "tail"),
             (lambda k: m62.Fs(k, 0 * k), 0.7, 5, 6, 4.0, "middle")]
    for fn, w, j, a, r, owner in cases:
        k = a * w if path == "scalar" else np.array([a * w])
        middle = k ** j - w ** j
        tail = (a * w) ** r * k ** (j - r) - w ** j
        assert not np.array_equal(middle, tail)
        want = tail if owner == "tail" else middle
        for x in (k, -k):
            assert np.array_equal(fn(np.asarray(x)), want)


def test_61_odd_in_each_variable(m61):
    rng = np.random.default_rng(31)
    s = rng.uniform(-70, 70, 200)
    t = rng.uniform(-60, 60, 200)
    assert np.allclose(m61.F(-s, t) + m61.F(s, -t), 0.0, atol=1e-9)
    # partials are even
    assert np.allclose(m61.Fs(-s, t), m61.Fs(s, t), rtol=1e-12)
    assert np.allclose(m61.Ft(s, -t), m61.Ft(s, t), rtol=1e-12)


def test_61_derivative_consistency(m61):
    report = gv.derivative_consistency(m61, samples=1000, step=1e-5)
    assert report.passed


def test_61_growth_bound_sampled(m61):
    assert growth_bound_gap(m61) <= 0.0
    gr = m61.growth
    assert gr.alpha == pytest.approx(2.0)
    assert gr.beta == pytest.approx(2.0)
    assert gr.f1 == pytest.approx((4 * W1) ** 2 / 2.0, rel=1e-14)


def _above(x):
    """The smallest float above x: the low end of a range open at x."""
    return float(np.nextafter(x, np.inf))


def _builtin(name, omega, end):
    """A builtin at `omega` with its tail exponents at the low or high end."""
    low = end == "low"
    if name == "example_6_1":
        return gv.builtin_example_6_1(omega, omega, r1=_above(1.0) if low else 2.0,
                                      r2=_above(1.0) if low else 3.0)
    return gv.builtin_example_6_2(omega, r=_above(3.0) if low else 5.0)


def _worst_quadrature_gap(F, dF, seams, nodes=64):
    """Largest relative gap between F and the Gauss-Legendre integral of dF
    from 0.  The panels are cut at the seams, at 1.5 and 3 times the last
    seam and halfway between those, so no seam lies inside a panel and F is
    compared inside every branch, not only at the seams a branch may not own."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    cuts = sorted(set(seams) | {0.0, 1.5 * max(seams), 3.0 * max(seams)})
    cuts = sorted(cuts + [0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])])
    total = worst = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        total += half * float(np.dot(ws, dF(mid + half * xs)))
        ref = float(F(np.asarray(hi)))
        worst = max(worst, abs(total - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("omega", [1e-8, 1e-3, 1.0, W1, 1e3, 1e20, 1e50])
@pytest.mark.parametrize("name", ["example_6_1", "example_6_2"])
def test_builtin_partials_integrate_to_F(name, omega, end):
    # F on each positive half-axis is the integral of its partial from 0
    m = _builtin(name, omega, end)
    axes = [(lambda x: m.F(x, 0 * x), lambda x: m.Fs(x, 0 * x), m.seams_s)]
    if m.seams_t:
        axes.append((lambda x: m.F(0 * x, x), lambda x: m.Ft(0 * x, x), m.seams_t))
    for F, dF, seams in axes:
        assert _worst_quadrature_gap(F, dF, seams) <= 1e-8


def test_61_param_validation():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(BadParam):
            gv.builtin_example_6_1(bad, W2)
        with pytest.raises(BadParam):
            gv.builtin_example_6_1(W1, bad)
    with pytest.raises(BadParam):
        gv.builtin_example_6_1(W1, W2, r1=1.0)
    with pytest.raises(BadParam):
        gv.builtin_example_6_1(W1, W2, r1=2.5)
    with pytest.raises(BadParam):
        gv.builtin_example_6_1(W1, W2, r2=3.5)


def test_62_vanishes_off_support(m62):
    g = gv.WeightedGraph(["x0", "elsewhere"], {"x0": 1.0, "elsewhere": 1.0},
                         [("x0", "elsewhere", 1.0)])
    off = [i for i, x in enumerate(g.vertices) if x != "x0"]
    zero = np.zeros(g.n_vertices)
    for s in (-3.0, 0.0, 2.0, 50.0):
        u = np.full(g.n_vertices, s)
        assert np.all(m62.F_on(g, u, zero)[off] == 0.0)
        assert np.all(m62.Fs_on(g, u, zero)[off] == 0.0)


def test_62_inner_value(m62):
    assert float(m62.F(np.asarray(W), np.asarray(0.0))) == pytest.approx(0.5 * W ** 2,
                                                                         rel=1e-14)


def test_62_middle_seam_value(m62):
    want = 0.5 * W ** 2 + (6 * W) ** 6 / 6.0 - 6.0 * W ** 6 + 5.0 / 6.0 * W ** 6
    got = float(m62.F(np.asarray(6 * W), np.asarray(0.0)))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(124334.5932, rel=1e-9)


def test_62_seam_continuity(m62):
    eps = 1e-9
    for fn in (m62.F, m62.Fs):
        for s0 in (W, 6 * W):
            lo = float(fn(np.asarray(s0 - eps), 0.0))
            hi = float(fn(np.asarray(s0 + eps), 0.0))
            assert abs(hi - lo) <= 1e-6 * max(1.0, abs(hi))


def test_62_growth_bound_sampled(m62):
    assert growth_bound_gap(m62) <= 0.0
    assert m62.growth.alpha == pytest.approx(1.0)


def test_62_envelope_bound_sampled(m62):
    assert envelope_bound_gap(m62) <= 0.0
    # the envelope exceeds |F| by exactly one at matched radius
    rho = np.array([0.3, 2.0, 11.0])
    assert np.allclose(m62.envelope(rho) - np.abs(m62.F(rho, 0.0 * rho)), 1.0,
                       rtol=1e-12)


def test_62_derivative_consistency_middle_branch(m62):
    # central differences on the smooth quintic branch
    rng = np.random.default_rng(32)
    s = rng.uniform(W * 1.05, 6 * W * 0.95, 400)
    step = 1e-5
    fd = (m62.F(s + step, 0.0 * s) - m62.F(s - step, 0.0 * s)) / (2 * step)
    exact = m62.Fs(s, 0.0 * s)
    assert float(np.max(np.abs(fd - exact))) < 1e-6 * max(1.0, float(np.max(np.abs(exact))))
    assert gv.derivative_consistency(m62, samples=800, step=1e-5).passed


def test_62_zero_excluded(m62):
    assert m62.zero_is_excluded()


def test_62_param_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(BadParam):
            gv.builtin_example_6_2(bad)
    with pytest.raises(BadParam):
        gv.builtin_example_6_2(W, r=3.0)
    with pytest.raises(BadParam):
        gv.builtin_example_6_2(W, r=5.5)


def test_inconsistent_partials_detected():
    bogus = NonlinearityModel(
        name="bogus",
        F=lambda s, t: s + 0.0 * t,
        Fs=lambda s, t: np.zeros_like(np.asarray(s, dtype=float) + 0.0 * t),
        Ft=lambda s, t: np.zeros_like(np.asarray(s, dtype=float) + 0.0 * t),
        s_scale=1.0, t_scale=1.0)
    with pytest.raises(InconsistentDerivative):
        gv.derivative_consistency(bogus, samples=100, step=1e-5)


def test_derivative_consistency_param_validation(m61):
    with pytest.raises(BadParam):
        gv.derivative_consistency(m61, samples=0)
    with pytest.raises(BadParam):
        gv.derivative_consistency(m61, step=0.0)


def test_tabulated_model_interp_and_partials():
    s = np.linspace(-2.0, 2.0, 21)
    t = np.linspace(-1.0, 1.0, 11)
    vals = s[:, None] ** 2 + s[:, None] * t[None, :]
    model = gv.tabulated_model(s, t, vals)
    # exact at the nodes
    assert float(model.F(s[3], t[4])) == pytest.approx(vals[3, 4], rel=1e-14)
    # derivative consistency away from grid seams
    assert gv.derivative_consistency(model, samples=300, step=1e-6).passed


def test_tabulated_model_validation():
    with pytest.raises(BadParam):
        gv.tabulated_model([0.0], [0.0, 1.0], [[1.0, 2.0]])
    with pytest.raises(BadParam):
        gv.tabulated_model([0.0, 1.0], [0.0, 1.0], [[1.0, 2.0]])


@pytest.mark.parametrize("doc, what", [
    ({"builtin": "example_6_1", "params": {"omega1": "3", "omega2": 2.0}}, "'omega1'"),
    ({"builtin": "example_6_1", "params": {"omega1": 3, "omega2": True}}, "'omega2'"),
    ({"builtin": "example_6_2", "params": {"omega": 1.5, "r": "5"}}, "'r'"),
    ({"table": {"s": [0.0, "1"], "t": [0.0, 1.0], "values": [[0, 0], [1, 1]]}}, "'s'"),
    ({"table": {"s": [0.0, 1.0], "t": [False, 1.0], "values": [[0, 0], [1, 1]]}}, "'t'"),
    ({"table": {"s": [0.0, 1.0], "t": [0.0, 1.0], "values": [[0, 0], [1, "1"]]}},
     "'values'")])
def test_nonlinearity_document_takes_only_numbers(doc, what):
    with pytest.raises(BadParam, match=f"{what} must be a number"):
        nonlinearity_from_doc(doc)


@pytest.mark.parametrize("s, t, values", [
    ([0.0, np.nan, 1.0], [0.0, 1.0], np.zeros((3, 2))),  # passes the increasing test
    ([0.0, np.inf], [0.0, 1.0], np.zeros((2, 2))),
    ([0.0, 1.0], [-np.inf, 1.0], np.zeros((2, 2))),
    ([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [np.nan, 1.0]])])
def test_tabulated_model_rejects_values_that_are_not_finite(s, t, values):
    with pytest.raises(BadParam, match="table 'tab' has a node or value that is not finite"):
        gv.tabulated_model(s, t, values, name="tab")


def test_nonlinearity_doc_round_trip(m61, m62):
    doc = nonlinearity_to_doc(m61)
    again = nonlinearity_from_doc(doc)
    pts = np.array([0.3, 5.0, -70.0])
    assert np.allclose(again.F(pts, pts), m61.F(pts, pts), rtol=1e-15)
    doc2 = nonlinearity_to_doc(m62)
    again2 = nonlinearity_from_doc(doc2)
    assert again2.support == "x0"
    two, zero = np.asarray(2.0), np.asarray(0.0)
    assert float(again2.F(two, zero)) == float(m62.F(two, zero))
    with pytest.raises(BadParam):
        nonlinearity_from_doc({"builtin": "nope"})
    table_doc = {"table": {"s": [0.0, 1.0], "t": [0.0, 1.0],
                           "values": [[0.0, 0.0], [1.0, 1.0]]}}
    assert float(nonlinearity_from_doc(table_doc).F(0.5, 0.5)) == pytest.approx(0.5)
