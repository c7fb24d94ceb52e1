import json
import math
from pathlib import Path

import numpy as np
import pytest

import graphvar as gv
from graphvar.cli import main
from graphvar.errors import BadParam, MissingEnvelope
from graphvar.functionals import ScalarProblem
from graphvar.intervals import envelope_max, kappa_finite
from graphvar.nonlinearity import NonlinearityModel
from graphvar.problems import builtin_problem
from graphvar.sobolev import SobolevSpec, w_norm_power

from conftest import rel_close

W1 = 15.0 ** 0.5
W2 = (45.0 / 2.0) ** (1.0 / 3.0)
W = 4.0 ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def prep61():
    return builtin_problem("example-6.1")


@pytest.fixture(scope="module")
def prep62():
    return builtin_problem("example-6.2")


def zero_model():
    z = lambda s, t: np.zeros_like(np.asarray(s, dtype=float) + 0.0 * t)
    return NonlinearityModel(name="zero", F=z, Fs=z, Ft=z, s_scale=1.0, t_scale=1.0)


# -- kappa ------------------------------------------------------------------

def test_kappa_reference_values(prep61):
    k1, k2 = gv.kappa_finite(prep61.problem)
    assert k1 == pytest.approx((81.0 / 2.0) ** -0.5, rel=1e-14)
    assert k2 == pytest.approx(1.0 / 3.0, rel=1e-14)
    g1, g2 = prep61.gammas
    assert abs(g1 * k1 - 1.0) < 1e-12
    assert abs(g2 * k2 - 1.0) < 1e-12


def test_kappa_single_vertex_h_equals_p():
    g = gv.WeightedGraph(["a"], {"a": 1.0}, [])
    for p in (2.0, 3.0):
        prob = ScalarProblem(graph=g, m=1, p=p,
                             h=gv.VertexFunction.constant(g, p),
                             nonlinearity=zero_model())
        assert kappa_finite(prob)[0] == pytest.approx(1.0, rel=1e-14)


def test_kappa_p2(p2):
    prob = ScalarProblem(graph=p2, m=1, p=2.0,
                         h=gv.VertexFunction.constant(p2, 1.0),
                         nonlinearity=zero_model())
    assert kappa_finite(prob)[0] == pytest.approx(1.0, rel=1e-14)


# -- local mass ----------------------------------------------------------

def test_local_mass_reference(prep62):
    g = prep62.problem.graph
    m = gv.local_mass(g, prep62.x0, 3.0, None, prep62.problem.components[0].h)
    assert m.M1 == 16.0
    assert m.M2 is None


def test_local_mass_isolated_vertex():
    g = gv.WeightedGraph(["a", "b"], {"a": 1.0, "b": 1.0}, [])
    h = gv.VertexFunction.from_dict(g, {"a": 2.5, "b": 1.0})
    assert gv.local_mass(g, "a", 3.0, None, h).M1 == pytest.approx(2.5, rel=1e-14)


def test_local_mass_p2_pair(p2):
    h = gv.VertexFunction.constant(p2, 1.0)
    m = gv.local_mass(p2, "a", 2.0, 2.0, h, h)
    assert m.M1 == pytest.approx(3.0, rel=1e-14)
    assert m.M2 == pytest.approx(3.0, rel=1e-14)


# -- box maxima ----------------------------------------------------------

def test_box_max_reference_value(prep61):
    model = prep61.problem.nonlinearity
    want = 0.5 * W1 ** 2 + 0.5 * W2 ** 2
    assert gv.box_max_F(model, W1, W2) == pytest.approx(want, rel=1e-9)


def test_box_max_zero_model():
    assert gv.box_max_F(zero_model(), 1.0, 1.0) == 0.0


def test_envelope_max_reference(prep62):
    model = prep62.problem.nonlinearity
    want = 0.5 * 4.0 ** (2.0 / 3.0) + 1.0
    assert envelope_max(model, W) == pytest.approx(want, rel=1e-9)
    with pytest.raises(MissingEnvelope):
        envelope_max(zero_model(), 1.0)
    for bound in (math.nan, math.inf):
        with pytest.raises(BadParam):
            envelope_max(model, bound)


def test_box_max_validation(prep61):
    with pytest.raises(BadParam):
        gv.box_max_F(prep61.problem.nonlinearity, -1.0, 1.0)
    for bounds in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(BadParam):
            gv.box_max_F(prep61.problem.nonlinearity, *bounds)


# -- the finite coupled interval ------------------------------------------

def test_interval_61_reproduces_reference(prep61):
    rep = gv.interval_finite(prep61.problem, *prep61.gammas, *prep61.deltas)
    assert rep.valid
    assert rep.theorem == "T1.1"
    assert rel_close(rep.lambda_lo, 0.07614, 1e-3)
    assert rel_close(rep.lambda_hi, 0.65303, 1e-3)
    assert rep.box[0] == pytest.approx(W1, rel=1e-12)
    assert rep.box[1] == pytest.approx(W2, rel=1e-12)
    assert rep.refinement_gap < 1e-6


def test_interval_61_lower_endpoint_is_phi_over_psi(prep61):
    prob = prep61.problem
    rep = gv.interval_finite(prob, *prep61.gammas, *prep61.deltas)
    w = gv.StatePair(gv.VertexFunction.constant(prob.graph, prep61.deltas[0]),
                     gv.VertexFunction.constant(prob.graph, prep61.deltas[1]))
    ratio = gv.phi_energy(prob, w) / gv.psi_energy(prob, w)
    assert rel_close(rep.lambda_lo, ratio, 1e-10)


def test_interval_61_strict_inequality_required(prep61):
    k1, k2 = gv.kappa_finite(prep61.problem)
    g1, g2 = prep61.gammas
    rep = gv.interval_finite(prep61.problem, g1, g2, g1 * k1, g2 * k2)
    assert not rep.valid
    failed = {h.name for h in rep.hypotheses if not h.passed}
    assert "F3" in failed


def test_interval_zero_nonlinearity_fails_f3(prep61):
    prob61 = prep61.problem
    prob = gv.ProblemSpec(graph=prob61.graph, m1=2, m2=2, p=2.0, q=3.0,
                          h1=prob61.components[0].h, h2=prob61.components[1].h,
                          nonlinearity=zero_model())
    rep = gv.interval_finite(prob, *prep61.gammas, *prep61.deltas)
    assert not rep.valid
    assert math.isinf(rep.lambda_lo)
    failed = {h.name for h in rep.hypotheses if not h.passed}
    assert "F3" in failed


def test_interval_61_valid_implies_r_below_phi(prep61):
    rep = gv.interval_finite(prep61.problem, *prep61.gammas, *prep61.deltas)
    g1, g2 = prep61.gammas
    prob = prep61.problem
    w = gv.StatePair(gv.VertexFunction.constant(prob.graph, prep61.deltas[0]),
                     gv.VertexFunction.constant(prob.graph, prep61.deltas[1]))
    assert rep.valid
    assert gv.phi_energy(prob, w) > g1 ** prob.components[0].l + g2 ** prob.components[1].l


def test_interval_finite_param_validation(prep61):
    with pytest.raises(BadParam):
        gv.interval_finite(prep61.problem, -1.0, 1.0, 1.0, 1.0)


# -- the locally finite coupled interval ----------------------------------

def coupled_lattice_problem():
    g = gv.lattice_ball(2)
    x0 = gv.lattice_ball_center(2)
    h = gv.VertexFunction.constant(g, 4.0)
    model = gv.builtin_example_6_2(W, r=5.0, support=x0)
    prob = gv.ProblemSpec(graph=g, m1=1, m2=1, p=3.0, q=3.0, h1=h, h2=h,
                          nonlinearity=model)
    return prob, x0


def test_interval_locally_finite_coupled_runs():
    # a t-independent F forces a small second component: the v-spike adds
    # norm mass but nothing to the numerator
    prob, x0 = coupled_lattice_problem()
    rep = gv.interval_locally_finite(prob, x0, 1.0, 0.1, 6.0 * W, 0.1,
                                     h0=4.0, mu0=1.0)
    assert rep.theorem == "T1.2"
    # spike mass is local, so the kappa values repeat the scalar case
    assert rep.kappa[0] == pytest.approx((16.0 / 3.0) ** (-1.0 / 3.0), rel=1e-12)
    assert rep.lambda_lo < rep.lambda_hi
    assert rep.valid


def test_interval_locally_finite_requires_order_one(prep61):
    with pytest.raises(BadParam):
        gv.interval_locally_finite(prep61.problem, "v00", 1.0, 1.0, 2.0, 2.0,
                                   h0=1.0, mu0=1.0)


def test_interval_locally_finite_needs_envelope():
    prob, x0 = coupled_lattice_problem()
    bare = gv.ProblemSpec(graph=prob.graph, m1=1, m2=1, p=3.0, q=3.0,
                          h1=prob.components[0].h, h2=prob.components[1].h,
                          nonlinearity=zero_model())
    with pytest.raises(MissingEnvelope):
        gv.interval_locally_finite(bare, x0, 1.0, 1.0, 2.0, 2.0, h0=1.0, mu0=1.0)


def test_interval_locally_finite_zero_envelope_fails_f3():
    prob, x0 = coupled_lattice_problem()
    z = lambda s, t: np.zeros_like(np.asarray(s, dtype=float) + 0.0 * t)
    dead = NonlinearityModel(
        name="dead", F=z, Fs=z, Ft=z, support=x0,
        envelope=lambda rho: np.zeros_like(np.asarray(rho, dtype=float)),
        s_scale=1.0, t_scale=1.0)
    prob2 = gv.ProblemSpec(graph=prob.graph, m1=1, m2=1, p=3.0, q=3.0,
                           h1=prob.components[0].h, h2=prob.components[1].h,
                           nonlinearity=dead)
    rep = gv.interval_locally_finite(prob2, x0, 1.0, 1.0, 2.0, 2.0, h0=4.0, mu0=1.0)
    assert not rep.valid
    assert "F3" in {h.name for h in rep.hypotheses if not h.passed}


def test_truncated_spike_energy_matches_local_mass(prep62):
    # the W-norm energy of the spike state on the truncation equals
    # delta^p M / p exactly
    prob = prep62.problem
    delta = prep62.deltas[0]
    u = gv.VertexFunction(prob.graph,
                          delta * gv.VertexFunction.indicator(prob.graph, prep62.x0).values)
    p, h = prob.components[0].l, prob.components[0].h
    phi = w_norm_power(prob.graph, u, SobolevSpec(1, p, h)) / p
    mass = gv.local_mass(prob.graph, prep62.x0, p, None, h).M1
    assert rel_close(phi, delta ** p * mass / p, 1e-10)


# -- the scalar intervals ---------------------------------------------------

def test_interval_62_reproduces_reference(prep62):
    rep = gv.interval_locally_finite(prep62.problem, prep62.x0, prep62.gammas[0],
                                     prep62.deltas[0], h0=prep62.h0, mu0=prep62.mu0)
    assert rep.valid
    assert rep.theorem == "T5.2"
    assert rel_close(rep.lambda_lo, 0.0371, 2e-2)
    assert rel_close(rep.lambda_hi, 2.36, 2e-2)
    assert abs(prep62.gammas[0] * rep.kappa[0] - 1.0) < 1e-12
    assert rep.refinement_gap < 1e-6
    assert len(rep.notes) == 2  # records both convention resolutions


def test_interval_62_boundary_gamma_invalid(prep62):
    kappa = (16.0 / 3.0) ** (-1.0 / 3.0)
    delta = prep62.deltas[0]
    rep = gv.interval_locally_finite(prep62.problem, prep62.x0, delta / kappa, delta,
                                     h0=prep62.h0, mu0=prep62.mu0)
    assert not rep.valid


def test_interval_scalar_finite_smoke(prep61):
    # the coupled model reduced to its first argument on the 3x3 grid
    m61 = prep61.problem.nonlinearity
    reduced = NonlinearityModel(
        name="reduced", F=lambda s, t: m61.F(s, 0.0 * s),
        Fs=lambda s, t: m61.Fs(s, 0.0 * s),
        Ft=lambda s, t: np.zeros_like(np.asarray(s, dtype=float)),
        seams_s=m61.seams_s, s_scale=m61.s_scale, t_scale=0.0)
    prob = ScalarProblem(graph=prep61.problem.graph, m=2, p=2.0,
                         h=prep61.problem.components[0].h, nonlinearity=reduced)
    rep = gv.interval_finite(prob, prep61.gammas[0], prep61.deltas[0])
    assert rep.theorem == "T5.1"
    assert math.isfinite(rep.lambda_lo) and rep.lambda_lo > 0.0
    assert rep.lambda_lo < rep.lambda_hi


def test_interval_finite_support_model_is_zero_off_its_vertex():
    # F vanishes off the support vertex: on more than one vertex the smallest
    # F(x, delta) over the vertices is 0, so L2 = 0 and F3 fails; on the
    # support vertex alone it is F(delta), and lambda_lo = Phi / (F(delta) vol)
    prep = builtin_problem("example-6.2", radius=1)
    model, (gamma,), (delta,) = prep.problem.nonlinearity, prep.gammas, prep.deltas
    rep = gv.interval_finite(prep.problem, gamma, delta)
    f3 = next(h for h in rep.hypotheses if h.name == "F3")
    assert rep.lambda_lo == math.inf and not f3.passed and "L2 = 0" in f3.witness
    g = gv.WeightedGraph([model.support], {model.support: 1.0}, [])
    alone = ScalarProblem(graph=g, m=1, p=3.0, h=gv.VertexFunction.constant(g, 4.0),
                          nonlinearity=model)
    rep = gv.interval_finite(alone, gamma, delta)
    f_delta = float(model.F(np.asarray(delta), np.asarray(0.0)))
    assert rep.lambda_lo == pytest.approx(delta ** 3 / 3.0 * 4.0 / f_delta, rel=1e-12)


def test_interval_scalar_validation(prep62):
    with pytest.raises(BadParam):
        gv.interval_finite(prep62.problem, 0.0, 1.0)
    with pytest.raises(BadParam):
        gv.interval_locally_finite(prep62.problem, None, 1.0, 1.0)


# -- report serialization ----------------------------------------------------

def test_report_doc_round_trips(prep61):
    rep = gv.interval_finite(prep61.problem, *prep61.gammas, *prep61.deltas)
    doc = rep.to_doc()
    text = json.dumps(doc, sort_keys=True, indent=2)
    again = json.loads(text)
    assert again["valid"] is True
    assert again["theorem"] == "T1.1"
    # 12 significant digits carried
    assert abs(again["lambda_lo"] - rep.lambda_lo) <= 1e-11 * rep.lambda_lo
    assert {h["name"] for h in again["hypotheses"]} >= {"H", "F0", "F1", "F2", "F3"}


# -- pinned reports ------------------------------------------------------------
# Each theorem path's full report text, as the CLI writes it; a report that
# moves in any digit or word fails here.  The pins carry the name of the grid
# search for the box maximum that wrote them, and the test ids keep it.

PINS = Path(__file__).parent / "pins"
SEARCHES = ("grid",)


def report_text(rep) -> str:
    return json.dumps(rep.to_doc(), sort_keys=True, indent=2) + "\n"


def reduced_scalar_problem(prob61):
    """example-6.1's model reduced to its first argument, on the 3x3 grid."""
    m61 = prob61.nonlinearity
    reduced = NonlinearityModel(
        name="reduced", F=lambda s, t: m61.F(s, 0.0 * s),
        Fs=lambda s, t: m61.Fs(s, 0.0 * s),
        Ft=lambda s, t: np.zeros_like(np.asarray(s, dtype=float)),
        seams_s=m61.seams_s, s_scale=m61.s_scale, t_scale=0.0)
    return ScalarProblem(graph=prob61.graph, m=2, p=2.0, h=prob61.components[0].h,
                         nonlinearity=reduced)


@pytest.mark.parametrize("search", SEARCHES)
@pytest.mark.parametrize("key, printed", [("example-6.1", "(0.0761374, 0.653027)"),
                                          ("example-6.2", "(0.0370613, 2.35996)")])
def test_reproduce_reports_match_pins(tmp_path, capsys, key, printed, search):
    out = tmp_path / "report.json"
    assert main(["interval", "--reproduce", key, "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"lambda interval: {printed}  valid: True\n"
    assert out.read_text() == (PINS / f"{key}-{search}.json").read_text()


@pytest.mark.parametrize("search", SEARCHES)
def test_t12_report_matches_pin(search):
    prob, x0 = coupled_lattice_problem()
    rep = gv.interval_locally_finite(prob, x0, 1.0, 0.1, 6.0 * W, 0.1, h0=4.0, mu0=1.0)
    assert report_text(rep) == (PINS / f"T1.2-lattice-{search}.json").read_text()


@pytest.mark.parametrize("search", SEARCHES)
def test_t51_report_matches_pin(prep61, search):
    prob = reduced_scalar_problem(prep61.problem)
    rep = gv.interval_finite(prob, prep61.gammas[0], prep61.deltas[0])
    assert report_text(rep) == (PINS / f"T5.1-reduced-{search}.json").read_text()
