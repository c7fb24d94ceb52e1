import copy
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graphvar as gv
from graphvar import solver
from graphvar.errors import BadParam, ConvergedToKnown, SingularExponent
from graphvar.functionals import Problem
from graphvar.problems import builtin_problem
from graphvar.solver import solution_set_to_json

from conftest import full_space_solve, linear_model, random_graph


@pytest.fixture(scope="module")
def prep61():
    return builtin_problem("example-6.1")


@pytest.fixture(scope="module")
def cfg():
    return gv.SolverConfig(seed=42)


def linear_problem(g):
    h = gv.VertexFunction.constant(g, 1.0)
    return gv.ProblemSpec(graph=g, m1=1, m2=1, p=2.0, q=2.0, h1=h, h2=h,
                          nonlinearity=linear_model())


def neg_laplacian_matrix(g):
    n = g.n_vertices
    mat = np.zeros((n, n))
    for (a, b), w in zip(g.edge_index, g.edge_weight):
        mat[a, a] += w / g.mu[a]
        mat[a, b] -= w / g.mu[a]
        mat[b, b] += w / g.mu[b]
        mat[b, a] -= w / g.mu[b]
    return mat


def test_linear_oracle_matches_direct_solve(p2, cfg):
    prob = linear_problem(p2)
    lam = 0.7
    start = gv.StatePair(gv.VertexFunction.from_dict(p2, {"a": 0.3, "b": -0.2}),
                         gv.VertexFunction.constant(p2, 0.5))
    pt = gv.minimize(prob, lam, start, cfg)
    direct = np.linalg.solve(neg_laplacian_matrix(p2) + np.eye(2), lam * np.ones(2))
    assert pt.converged
    assert float(np.max(np.abs(pt.state.u.values - direct))) < 1e-10
    assert float(np.max(np.abs(pt.state.v.values))) < 1e-10
    assert pt.kind == "minimizer"


def test_linear_oracle_random_graphs(cfg):
    rng = np.random.default_rng(61)
    for _ in range(5):
        g = random_graph(rng, n_min=3, n_max=6)
        prob = linear_problem(g)
        lam = float(rng.uniform(0.2, 1.5))
        direct = np.linalg.solve(neg_laplacian_matrix(g) + np.eye(g.n_vertices),
                                 lam * np.ones(g.n_vertices))
        start = gv.StatePair(
            gv.VertexFunction(g, rng.uniform(-1, 1, g.n_vertices)),
            gv.VertexFunction(g, rng.uniform(-1, 1, g.n_vertices)))
        pt = gv.minimize(prob, lam, start, cfg)
        assert float(np.max(np.abs(pt.state.u.values - direct))) < 1e-10
        # the direct solve satisfies the equations to rounding
        exact = gv.StatePair(gv.VertexFunction(g, direct), gv.VertexFunction.zeros(g))
        assert gv.residual(prob, lam, exact) < 1e-12


def test_minimize_small_lambda_stays_near_zero(prep61, cfg):
    prob = prep61.problem
    start = gv.StatePair(gv.VertexFunction.constant(prob.graph, prep61.deltas[0]),
                         gv.VertexFunction.constant(prob.graph, prep61.deltas[1]))
    pt = gv.minimize(prob, 1e-9, start, cfg)
    assert pt.converged
    assert prob.wnorm_vec(prob.pack_state(pt.state)) < 0.1
    assert pt.action_value < gv.action(prob, 1e-9, start)


def test_minimize_descends_from_constant_start(prep61, cfg):
    # at a small parameter the energy is coercive and the constant start
    # sits inside a basin: descent reaches a critical point of lower action
    prob = prep61.problem
    start = gv.StatePair(gv.VertexFunction.constant(prob.graph, prep61.deltas[0]),
                         gv.VertexFunction.constant(prob.graph, prep61.deltas[1]))
    pt = gv.minimize(prob, 0.03, start, cfg)
    assert pt.converged
    assert pt.action_value < gv.action(prob, 0.03, start)
    assert pt.residual_sup <= cfg.grad_tol


def test_minimize_descent_property_even_when_escaping(prep61, cfg):
    # mid-interval parameters leave the energy unbounded below along the
    # first component (the tail exponent equals the leading power); a start
    # beyond the ridge rides downhill forever and is returned tagged
    prob = prep61.problem
    start = gv.StatePair(gv.VertexFunction.constant(prob.graph, prep61.deltas[0]),
                         gv.VertexFunction.constant(prob.graph, prep61.deltas[1]))
    pt = gv.minimize(prob, 0.3, start, cfg)
    assert pt.action_value < gv.action(prob, 0.3, start)
    assert not pt.converged
    assert pt.kind == "unclassified"


def test_multistart_descent_stops_just_past_the_divergence_bound(prep61, cfg, monkeypatch):
    # the escaping start above, as a multistart start: it ends "diverged"
    # at the first step past DIVERGE_SCALE * (1 + start_scale), in fewer
    # steps than the single-start descent, which runs on to DIVERGE_ACTION;
    # it evaluates one residual per step and keeps the line search's action
    prob = prep61.problem
    z0 = np.concatenate([np.full(prob.graph.n_vertices, d) for d in prep61.deltas])
    calls = []
    residual_vec = type(prob).residual_vec
    monkeypatch.setattr(type(prob), "residual_vec",
                        lambda self, *a: calls.append(1) or residual_vec(self, *a))
    cut = solver._minimize_z(prob, 0.3, z0, cfg, [])
    assert (cut.iterations, len(calls), cut.residual_sup) == (17, 17, np.inf)
    assert cut.action == prob.action_vec(0.3, cut.z)
    full = solver._minimize_z(prob, 0.3, z0, cfg)
    bound = solver.DIVERGE_SCALE * (1.0 + prob.start_scale)
    assert (cut.outcome, cut.converged) == ("diverged", False)
    assert bound < np.max(np.abs(cut.z)) < 2.0 * bound
    assert full.outcome == "diverged"
    assert np.max(np.abs(full.z)) > 10.0 * bound
    assert cut.iterations < full.iterations


def test_newton_polish_stops_past_the_divergence_norm(prep61, cfg, monkeypatch):
    # from ten times the reference constants the polish converges to a
    # critical point with |z|inf = 93.7, through a first iterate at 105.7;
    # with DIVERGE_NORM below both it ends "diverged" after that iteration,
    # counting on from the iterations it was handed
    prob = prep61.problem
    z0 = np.concatenate([np.full(prob.graph.n_vertices, 10.0 * d) for d in prep61.deltas])
    full = solver._newton_polish(prob, 0.3, z0, cfg, 5)
    assert (full.outcome, full.converged) == ("new", True)
    assert 90.0 < np.max(np.abs(full.z)) < 100.0
    monkeypatch.setattr(solver, "DIVERGE_NORM", 50.0)
    cut = solver._newton_polish(prob, 0.3, z0, cfg, 5)
    assert (cut.outcome, cut.converged, cut.iterations) == ("diverged", False, 6)
    assert np.max(np.abs(cut.z)) > 100.0
    assert cut.residual_sup > cfg.grad_tol
    assert cut.action == prob.action_vec(0.3, cut.z)


@pytest.fixture(scope="module")
def close_pair(prep61):
    """Example 6.1 at lambda = 0.5, seed 5: a minimizer far out, a saddle
    3.0% of its norm away (the closest two critical points of the
    acceptance solves at seeds 0-9 and 42), and the minimizer near zero;
    each as an accepted raw point.  The full-space search finds this
    saddle; the search on the quotient finds a symmetric one instead."""
    prob = prep61.problem
    sset = full_space_solve(prob, 0.5, gv.SolverConfig(seed=5, starts=8),
                            1.0 + max(prep61.deltas))
    assert [p.kind for p in sset.points] == ["minimizer", "saddle", "minimizer"]
    raws = []
    for p in sset.points:
        z = prob.pack_state(p.state)
        raws.append(solver._RawPoint(z=z, action=p.action_value, residual_sup=p.residual_sup,
                                     iterations=0, converged=True, outcome="new"))
    far, saddle, near = raws
    rel = prob.wnorm_vec(far.z - saddle.z) / prob.wnorm_vec(far.z)
    assert 0.029 < rel < 0.031
    return far, saddle, near


def test_start_next_to_an_accepted_point_is_a_duplicate(prep61, cfg, close_pair, monkeypatch):
    prob = prep61.problem
    near = close_pair[2]
    builds = []
    fd = solver._fd_jacobian
    monkeypatch.setattr(solver, "_fd_jacobian", lambda *a: builds.append(1) or fd(*a))
    z0 = near.z + 1e-6 * np.random.default_rng(0).uniform(-1.0, 1.0, prob.n_dofs)
    raw = solver._minimize_z(prob, 0.5, z0, cfg, [near])
    assert (raw.outcome, raw.converged, raw.iterations) == ("duplicate", False, 0)
    assert builds == []


def test_polish_inside_a_capture_ball_ends_duplicate(prep61, cfg, close_pair, monkeypatch):
    # a point 0.1% (relative) from an accepted minimizer: the polish ends
    # "duplicate" before its first Hessian, keeping the iterations it was
    # handed; without the ball, minimize from the same point converges there
    prob = prep61.problem
    far = close_pair[0]
    step = np.random.default_rng(0).uniform(-1.0, 1.0, prob.n_dofs)
    z0 = far.z + 1e-3 * prob.wnorm_vec(far.z) / prob.wnorm_vec(step) * step
    hessians = []
    hessian = solver._hessian
    monkeypatch.setattr(solver, "_hessian", lambda *a: hessians.append(1) or hessian(*a))
    raw = solver._newton_polish(prob, 0.5, z0, cfg, 7, solver._capture_balls(prob, [far]))
    assert (raw.outcome, raw.converged, raw.iterations) == ("duplicate", False, 7)
    assert hessians == []
    pt = gv.minimize(prob, 0.5, prob.unpack_state(z0), cfg)
    assert pt.converged
    assert prob.wnorm_vec(prob.pack_state(pt.state) - far.z) < cfg.distinct_tol


def test_saddle_close_to_an_accepted_minimizer_is_not_captured(prep61, cfg, close_pair):
    # the saddle lies 3.0% (relative) from the far minimizer and above it in
    # action; a capture ball ten times CAPTURE_REL would swallow it
    prob = prep61.problem
    far, saddle, _ = close_pair
    raw = solver._minimize_z(prob, 0.5, saddle.z, cfg, [far])
    assert (raw.outcome, raw.converged) == ("new", True)
    assert prob.wnorm_vec(raw.z - saddle.z) < cfg.distinct_tol


def test_start_below_an_accepted_saddle_descends_away(prep61, cfg, close_pair):
    # inside the saddle's capture ball but below its action: the descent
    # leaves along the unstable direction and ends at the far minimizer
    prob = prep61.problem
    far, saddle, _ = close_pair
    eig, vec = np.linalg.eigh(solver._hessian(prob, 0.5, saddle.z))
    assert eig[0] < 0.0
    z0 = saddle.z + 0.5 * vec[:, 0] * np.sign(np.dot(vec[:, 0], far.z - saddle.z))
    assert prob.wnorm_vec(z0 - saddle.z) < solver.CAPTURE_REL * prob.wnorm_vec(saddle.z)
    assert prob.action_vec(0.5, z0) < saddle.action
    raw = solver._minimize_z(prob, 0.5, z0, cfg, [saddle])
    assert (raw.outcome, raw.converged) == ("new", True)
    assert prob.wnorm_vec(raw.z - far.z) < cfg.distinct_tol


def test_residual_at_zero_state(prep61):
    prob = prep61.problem
    model = prob.nonlinearity
    zero = gv.StatePair(gv.VertexFunction.zeros(prob.graph),
                        gv.VertexFunction.zeros(prob.graph))
    lam = 0.3
    w1 = float(model.Fs(np.asarray(0.0), np.asarray(0.0)))
    w2 = float(model.Ft(np.asarray(0.0), np.asarray(0.0)))
    assert gv.residual(prob, lam, zero) == pytest.approx(lam * max(w1, w2), rel=1e-12)
    assert gv.residual(prob, lam, zero) > 0.0


def test_deflated_with_no_known_matches_minimize(p2, cfg):
    prob = linear_problem(p2)
    start = gv.StatePair(gv.VertexFunction.from_dict(p2, {"a": 0.2, "b": 0.1}),
                         gv.VertexFunction.constant(p2, -0.3))
    a = gv.minimize(prob, 0.9, start, cfg)
    b = gv.deflated_solve(prob, 0.9, [], start, cfg)
    assert b.converged
    assert float(np.max(np.abs(a.state.u.values - b.state.u.values))) < 1e-8


def test_deflated_start_at_known_rejected(p2, cfg):
    prob = linear_problem(p2)
    start = gv.StatePair(gv.VertexFunction.from_dict(p2, {"a": 0.2, "b": 0.1}),
                         gv.VertexFunction.constant(p2, -0.3))
    pt = gv.minimize(prob, 0.9, start, cfg)
    with pytest.raises(ConvergedToKnown):
        gv.deflated_solve(prob, 0.9, [pt.state], pt.state, cfg)


def test_deflated_finds_second_point(prep61, cfg):
    prob = prep61.problem
    start = gv.StatePair(gv.VertexFunction.zeros(prob.graph),
                         gv.VertexFunction.zeros(prob.graph))
    first = gv.minimize(prob, 0.3, start, cfg)
    assert first.converged
    rng = np.random.default_rng(99)
    second = None
    for _ in range(12):
        z0 = prob.pack_state(first.state) + rng.uniform(-8.0, 8.0, prob.n_dofs)
        try:
            cand = gv.deflated_solve(prob, 0.3, [first.state],
                                     prob.unpack_state(z0), cfg)
        except ConvergedToKnown:
            continue
        if cand.converged:
            second = cand
            break
    assert second is not None
    assert second.residual_sup <= cfg.grad_tol
    d = gv.w_distance(prob, first.state, second.state)
    assert d > cfg.distinct_tol
    # regression fixture for this seeded path (a saddle above the minimizer)
    assert second.action_value == pytest.approx(1940.3400633245, rel=1e-6)
    assert second.kind == "saddle"


# -- deflation properties (Farrell, Birkisson & Funke 2015) --------------------

COORD = st.floats(-2.0, 2.0)


@st.composite
def points_and_knowns(draw):
    """A point and one to three known points at least 0.25 away from it."""
    n = draw(st.integers(1, 6))
    z = draw(arrays(np.float64, n, elements=COORD))
    knowns = draw(st.lists(arrays(np.float64, n, elements=COORD), min_size=1, max_size=3))
    assume(all(np.linalg.norm(z - zk) >= 0.25 for zk in knowns))
    return z, knowns


@settings(max_examples=80, deadline=None)
@given(points_and_knowns())
def test_deflation_gradient_matches_central_differences(case):
    z, knowns = case
    m, grad = solver._deflation_factor(z, knowns)
    h = 1e-6
    fd = np.empty_like(z)
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd[j] = (solver._deflation_factor(zp, knowns)[0]
                 - solver._deflation_factor(zm, knowns)[0]) / (2.0 * h)
    assert m >= 1.0
    assert np.max(np.abs(fd - grad)) <= 1e-6 * max(1.0, float(np.max(np.abs(grad))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 1.5))
def test_deflated_residual_grows_toward_a_known_root(seed, lam):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_min=2, n_max=6)
    prob = linear_problem(g)
    u = np.linalg.solve(neg_laplacian_matrix(g) + np.eye(g.n_vertices),
                        lam * np.ones(g.n_vertices))
    root = np.concatenate([u, np.zeros(g.n_vertices)])
    d = rng.normal(size=prob.n_dofs)
    d /= np.linalg.norm(d)
    plain, deflated = [], []
    for t in 0.5 ** np.arange(1, 16):  # 0.5 down to 3e-5 from the root
        z = root + t * d
        res = np.linalg.norm(prob.residual_vec(lam, z))
        plain.append(res)
        deflated.append(solver._deflation_factor(z, [root])[0] * res)
    assert np.all(np.diff(plain) < 0.0)  # the undeflated residual vanishes there
    assert np.all(np.diff(deflated) > 0.0)


def test_find_three_on_reference_fixture(prep61):
    cfg = gv.SolverConfig(seed=42, starts=16)
    sset = gv.find_three(prep61.problem, 0.3, cfg,
                         start_radius=1.0 + max(prep61.deltas))
    assert sset.found_three
    assert all(p.residual_sup < 1e-8 for p in sset.points)
    assert all(sset.nontrivial)
    assert sset.zero_excluded
    k = len(sset.points)
    for i in range(k):
        for j in range(i + 1, k):
            assert sset.distances[i, j] > cfg.distinct_tol
    actions = [p.action_value for p in sset.points]
    assert actions == sorted(actions)


def test_find_three_outside_interval_finds_fewer(prep61):
    cfg = gv.SolverConfig(seed=42, starts=6)
    sset = gv.find_three(prep61.problem, 1e-9, cfg,
                         start_radius=1.0 + max(prep61.deltas))
    assert not sset.found_three  # strictly convex limit: one point


def test_fewer_than_three_lifted_points_search_the_problem_too(prep61, monkeypatch):
    # strictly convex at lambda = 1e-9: the 3-cell quotient finds the one
    # point, and the search on the problem itself, which knows it, finds
    # nothing more; the outcomes list the quotient's starts, then its own
    searches = []
    search = solver._search

    def recording(prob, lam, cfg, radius, accepted, outcomes, **kw):
        searches.append((prob.n_dofs, len(accepted)))
        return search(prob, lam, cfg, radius, accepted, outcomes, **kw)
    monkeypatch.setattr(solver, "_search", recording)
    sset = gv.find_three(prep61.problem, 1e-9, gv.SolverConfig(seed=42, starts=4),
                         start_radius=1.0 + max(prep61.deltas))
    assert searches == [(6, 0), (18, 1)]
    assert len(sset.points) == 1 and sset.points[0].residual_sup <= 1e-8
    starts = [(index, outcome) for phase, index, outcome, _ in sset.outcomes
              if phase == "start"]
    assert [index for index, _ in starts] == list(range(5)) * 2
    assert [outcome for _, outcome in starts].count("new") == 1


@pytest.mark.parametrize("label", ["stalled", "duplicate"])
def test_a_lifted_point_the_problem_rejects_is_relabelled(prep61, monkeypatch, label):
    # the problem rejects the first point the quotient found, by its
    # residual ("stalled") or as not distinct ("duplicate"): its outcome
    # says so, so the new outcomes still count the points returned
    prob, radius = prep61.problem, 1.0 + max(prep61.deltas)
    plain = gv.find_three(prob, 0.3, gv.SolverConfig(seed=42), start_radius=radius)
    rejected = []
    if label == "stalled":
        residual = Problem.residual_vec

        def patched(self, lam, z):
            res = residual(self, lam, z)
            if self is prob and z.ndim == 1 and not rejected:  # the first lift
                rejected.append(1)
                return res + 1.0
            return res
        monkeypatch.setattr(Problem, "residual_vec", patched)
    else:
        distinct = solver._distinct

        def patched(p, z, knowns, tol):
            if p is prob and not rejected:  # the first lift
                rejected.append(1)
                return False
            return distinct(p, z, knowns, tol)
        monkeypatch.setattr(solver, "_distinct", patched)
    sset = gv.find_three(prob, 0.3, gv.SolverConfig(seed=42), start_radius=radius)
    assert rejected == [1]
    first = [outcome for _, _, outcome, _ in plain.outcomes].index("new")
    phase, index, _, iters = plain.outcomes[first]
    expect = list(plain.outcomes)
    expect[first] = (phase, index, label, iters)
    assert sset.outcomes[:len(expect)] == expect  # the quotient's, then the problem's
    assert len(sset.outcomes) > len(expect)
    assert [outcome for _, _, outcome, _ in sset.outcomes].count("new") == len(sset.points)


def test_find_three_deterministic_bytes(prep61):
    cfg = gv.SolverConfig(seed=42, starts=8)
    a = gv.find_three(prep61.problem, 0.3, cfg, start_radius=1.0 + max(prep61.deltas))
    b = gv.find_three(prep61.problem, 0.3, cfg, start_radius=1.0 + max(prep61.deltas))
    assert solution_set_to_json(a) == solution_set_to_json(b)
    # the outcome record is not serialised; it repeats as well
    assert a.outcomes == b.outcomes
    assert [o[:2] for o in a.outcomes if o[0] == "start"] == [
        ("start", i) for i in range(cfg.starts + 1)]


def test_find_three_repeats_byte_identical(prep61):
    cfg = gv.SolverConfig(seed=7, starts=6)
    first = gv.find_three(prep61.problem, 0.3, cfg,
                          start_radius=1.0 + max(prep61.deltas))
    again = gv.find_three(prep61.problem, 0.3, cfg,
                          start_radius=1.0 + max(prep61.deltas))
    assert solution_set_to_json(first) == solution_set_to_json(again)


def serial_multistart(prob, lam, cfg, radius, accepted, accept):
    """The reference for the lockstep multistart: one start after another,
    until the stopping rule stops."""
    n = w = 0
    for i in range(cfg.starts + 1):
        z0 = solver._start_vector(prob, cfg, i, radius)
        raw = solver._minimize_z(prob, lam, z0, cfg, accepted)
        accept("start", i, raw)
        n, w = n + (raw.outcome != "diverged"), w + (raw.outcome == "new")
        if solver._stop_estimate(n, w) is not None:
            return


def test_lockstep_multistart_equals_serial_loop(monkeypatch):
    # the solutions, outcome labels and stopping decisions are the serial
    # loop's; a start the serial loop captures may stop in the ball later,
    # with more iterations, since a new capture ball is tested on a launched
    # descent from where it is (the full-space search, on 18 and 169 dofs)
    later, stopped = 0, 0
    launch = solver._launch
    for key, lam, starts, seeds in (("example-6.1", 0.3, 8, (0, 3, 42)),
                                    ("example-6.1", 0.5, 8, (0, 3, 42)),
                                    ("example-6.2", 1.0, 4, (0, 3, 42)),
                                    ("example-6.2", 1.0, 20, (42,))):
        prep = builtin_problem(key)
        radius = 1.0 + max(prep.deltas)
        for seed in seeds:
            cfg = gv.SolverConfig(seed=seed, starts=starts)
            launched = []
            with monkeypatch.context() as m:
                m.setattr(solver, "_launch",
                          lambda prob, lam, zs: launched.extend(zs) or launch(prob, lam, zs))
                lockstep = full_space_solve(prep.problem, lam, cfg, radius)
            with monkeypatch.context() as m:
                m.setattr(solver, "_multistart", serial_multistart)
                serial = full_space_solve(prep.problem, lam, cfg, radius)
            assert solution_set_to_json(lockstep) == solution_set_to_json(serial), (key, seed)
            assert len(lockstep.outcomes) == len(serial.outcomes), (key, seed)
            for got, want in zip(lockstep.outcomes, serial.outcomes):
                assert got[:3] == want[:3] and got[3] >= want[3], (key, seed, got, want)
                later += got[3] != want[3]
            # no start vector is launched twice
            assert len({z.tobytes() for z in launched}) == len(launched), (key, seed)
            ran = sum(phase == "start" for phase, _, _, _ in lockstep.outcomes)
            stopped += ran < starts + 1
    assert later  # some start passed a ball before the ball was added
    assert stopped == 1  # the stopping rule cut the example-6.2 solve at 20 starts


STOPS = {None: solver.RUNNING, "captured": solver.CAPTURED, "diverged": solver.DIVERGED}


def descents(*stops):
    """A lockstep state of one row per stop, None for a running row."""
    run = solver._Descents(np.zeros((len(stops), 1)), np.zeros(len(stops)))
    run.stop[:] = [STOPS[stop] for stop in stops]
    return run


def test_horizon_takes_rate_1_before_a_random_start_resolves():
    # W = 1 stops at N = 8: eight starts, counting the launched ones
    assert solver._horizon([], 0, descents(), 65) == 8
    assert solver._horizon([], 0, descents(None, None, None), 65) == 8
    assert solver._horizon([True], 1, descents(), 65) == 8
    assert solver._horizon([True], 1, descents(None, None, None), 65) == 8
    # the origin diverged: still rate 1, and one more start must count
    assert solver._horizon([False], 0, descents(), 65) == 9
    # with no point found the rule cannot stop before a start that counts
    assert solver._horizon([True] * 9, 0, descents(), 65) == 10


@pytest.mark.parametrize("origin", [True, False])
def test_horizon_leaves_the_origin_start_out_of_the_rate(origin):
    # resolved random starts 1-4 count at rate 1/2: each of the 6 - origin
    # more starts that W = 1 needs takes 2 starts
    assert solver._horizon([origin, True, False, True, False], 1, descents(), 65) == (
        5 + 2 * (6 - origin))
    # launched and unresolved, the origin row is left out as well: a
    # captured and a diverged random start give rate 1/2 whatever it holds
    for stop, want in ((None, 4 + 2 * 7 - 2), ("diverged", 4 + 2 * 7 - 1)):
        assert solver._horizon([], 0, descents(stop, "captured", "diverged", None), 65) == want


def test_horizon_launches_to_the_cap_once_every_random_start_diverged():
    assert solver._horizon([True, False, False], 1, descents(None, "diverged"), 65) == 65
    assert solver._horizon([True], 1, descents("diverged", None), 40) == 40
    assert solver._horizon([], 0, descents(None, "diverged"), 65) == 65
    # one random start that counts brings the rate back
    assert solver._horizon([True, False, True], 1, descents(), 65) < 65


@pytest.mark.parametrize("news", [(0,), (0, 3), (2, 9, 20)])
def test_horizon_launches_nothing_past_the_stop_without_divergence(news):
    # every start counts, and those in `news` find a point: the window
    # reaches exactly the start at which the rule stops
    counts, w, launched = [], 0, 0
    while True:
        running = descents(*[None] * (launched - len(counts)))
        launched = solver._horizon(counts, w, running, 65)
        w += len(counts) in news
        counts.append(True)
        if solver._stop_estimate(len(counts), w) is not None:
            break
    assert launched == len(counts)


class Quartic:
    """J(z) = z0^2 / 2 + z1^2 / 2 - z1^4 / 4 + z2^2 / 2, column by column in
    elementwise arithmetic, so a batch has the bits of its columns alone.
    The residual (mu 1) is the gradient in z0 and z1; in z2 it is -100 z2,
    so a step along it climbs unless it is too short to move z2 at all."""

    mu_dofs = size_dofs = np.ones(3)

    def action_vec(self, lam, z):
        return 0.5 * z[0] ** 2 + 0.5 * z[1] ** 2 - 0.25 * z[1] ** 4 + 0.5 * z[2] ** 2

    def residual_vec(self, lam, z):
        return np.stack([z[0], z[1] - z[1] ** 3, -100.0 * z[2]])


def plain_backtracking(prob, z, action, t_warm, bound):
    """The reference line search of a descent not yet stepped: one trial
    per action call, halving t from min(2 t_warm, 1e6) until Armijo holds
    or t <= 1e-17.  Returns (z, action, t_warm, iters, stop, halvings)."""
    grad = prob.mu_dofs * prob.residual_vec(0.0, z)
    gg = float(np.dot(grad, grad))
    t, halvings = min(2.0 * t_warm, 1e6), 0
    while t > 1e-17:
        cand = z - t * grad
        trial = float(prob.action_vec(0.0, cand))
        if np.isfinite(trial) and trial <= action - solver.ARMIJO_C * t * gg:
            diverged = trial < solver.DIVERGE_ACTION or np.max(np.abs(cand)) > bound
            return cand, trial, t, 1, solver.DIVERGED if diverged else solver.RUNNING, halvings
        t, halvings = 0.5 * t, halvings + 1
    return z, action, t_warm, 0, solver.POLISH, halvings


def test_backtracking_ladder_equals_one_trial_per_call():
    # along z0 Armijo holds for t <= 1.9998, so t_warm = 2^k / 2 needs k
    # halvings; along z1 the quartic falls without bound and the step leaves
    # |z| = 10; along z2 every trial climbs until the search stalls at
    # 1e-17, and a trial below 1.1e-18 would pass, as z2 no longer moves
    prob, bound = Quartic(), 10.0
    specs = [((1.0, 0.0, 0.0), 0.25), ((1.0, 0.0, 0.0), 1.0), ((1.0, 0.0, 0.0), 2.0),
             ((1.0, 0.0, 0.0), 4.0), ((1.0, 0.0, 0.0), 1024.0), ((1.0, 0.0, 0.0), 5e5),
             ((0.0, 0.0, 1.0), 1.0), ((0.0, 3.0, 0.0), 1.0), ((0.5, 0.0, 0.0), 8.0)]
    zs = [np.array(z) for z, _ in specs]
    actions = [float(prob.action_vec(0.0, z)) for z in zs]
    run = solver._Descents(np.array(zs), np.array(actions))
    run.t_warm[:] = [t_warm for _, t_warm in specs]
    want = [plain_backtracking(prob, z, action, t_warm, bound)
            for z, action, (_, t_warm) in zip(zs, actions, specs)]
    assert [h for *_, h in want] == [0, 1, 2, 3, 11, 19, 58, 0, 4]
    assert [stop for *_, stop, _ in want] == [solver.RUNNING] * 6 + [
        solver.POLISH, solver.DIVERGED, solver.RUNNING]
    solver._descent_step(prob, 0.0, run, [], bound, 100)
    for row, (z, action, t_warm, iters, stop, _) in enumerate(want):
        assert (run.z[row].tobytes(), run.action[row], run.t_warm[row], run.iters[row],
                run.stop[row]) == (z.tobytes(), action, t_warm, iters, stop)


def test_rows_step_as_if_alone(prep61):
    # a 3-row state steps 8 times, loses row 0 (start 0, stopped POLISH at
    # step 6) and gains starts 3 and 4 mid-run, then steps 26 more: each
    # row, and the row taken off, holds the bits of its start stepped alone
    # as a one-row state; starts 1 and 4 diverge at their 12th and 25th step
    prob, lam = prep61.problem, 0.3
    cfg = gv.SolverConfig(seed=42)
    starts = [solver._start_vector(prob, cfg, i, 1.0 + max(prep61.deltas)) for i in range(5)]
    bound, budget = solver._start_bound(prob), solver.DESCENT_BUDGET

    def stepped(run, steps):
        for _ in range(steps):
            solver._descent_step(prob, lam, run, [], bound, budget)
        return run

    with np.errstate(over="ignore", invalid="ignore"):
        run = stepped(solver._launch(prob, lam, starts[:3]), 8)
        z, action, iters, stop = run.pop_first()
        run.append(solver._launch(prob, lam, starts[3:]))
        stepped(run, 26)
        alone = [stepped(solver._launch(prob, lam, [z0]), steps)
                 for z0, steps in zip(starts, (8, 34, 34, 26, 26))]
    assert (z.tobytes(), action, iters, stop) == (
        alone[0].z[0].tobytes(), alone[0].action[0], alone[0].iters[0], alone[0].stop[0])
    assert len(run) == 4
    for row, one in enumerate(alone[1:]):
        for name in ("z", "action", "t_warm", "iters", "stop"):
            assert getattr(run, name)[row].tobytes() == getattr(one, name)[0].tobytes(), (
                row, name)
    assert stop == solver.POLISH
    assert list(run.stop) == [solver.DIVERGED, solver.RUNNING, solver.RUNNING,
                              solver.DIVERGED]


@pytest.mark.parametrize("w, stop", [(0, None), (1, 8), (2, 17), (3, 30)])
def test_stopping_rule_first_stops_at(w, stop):
    # from N = stop on, W (N - 1) / (N - W - 2) < W + 0.5; a multistart that
    # found no point never stops early
    stops = [n for n in range(200) if solver._stop_estimate(n, w) is not None]
    assert stops == ([] if stop is None else list(range(stop, 200)))
    if stop is not None:
        assert solver._stop_estimate(stop, w) == w * (stop - 1) / (stop - w - 2)


def test_horizon_stops_where_the_rule_first_stops():
    # with every start counting and none launched, the horizon is the
    # closed-form N = 2 W^2 + 3 W + 3; the rule does not stop before it
    # (all N for W <= 40; the estimate falls as N grows) and stops at it
    # and at every N checked after it, up to 10^6 N
    for w in range(1, 501):
        first = solver._horizon([], w, descents(), 10 ** 12)
        below = range(first) if w <= 40 else (w + 3, first // 2, first - 2, first - 1)
        assert all(solver._stop_estimate(n, w) is None for n in below), w
        after = [first + k for k in range(50)] + [first * 10 ** k for k in range(1, 7)]
        assert all(solver._stop_estimate(n, w) is not None for n in after), w


def test_diverged_starts_do_not_count_toward_the_stop(prep61):
    # 2 points from the starts stop the rule at N = 17, which the
    # example-6.1 full-space search reaches only at start 63: most of its
    # starts diverge
    sset = full_space_solve(prep61.problem, 0.15, gv.SolverConfig(seed=42),
                            1.0 + max(prep61.deltas))
    starts = [outcome for phase, _, outcome, _ in sset.outcomes if phase == "start"]
    assert (len(starts), starts.count("new"), starts.count("diverged")) == (64, 2, 47)
    assert starts[-1] != "diverged"


def test_work_of_one_solve(monkeypatch):
    # the columns are the work of the launched descents, each launched once,
    # and of the polishes and deflation; the calls count the lockstep steps
    # and line-search rounds that carry them.  When a capture ball relaunched
    # the later starts, example-6.1 launched 107 descents for its 65 starts
    # (309 residual calls, 4,268 columns) and example-6.2 22 for 17 (685 and
    # 5,147).  With one trial per action call and the origin start in the
    # launch rate they made 265 and 687 residual calls and 388 and 944
    # action calls.  In the full space, before the solves ran on the 3- and
    # 28-cell quotients, they made 248 and 662 residual calls (2,985 and
    # 4,758 columns) and 149 and 711 action calls (3,640 and 3,830).  On the
    # quotient example-6.1 stops its multistart after 33 starts, of the 65
    # it launched; with random deflation seeds it made 4 attempts (519 and
    # 659 residual calls), and from the pass between its two points it
    # makes 1, as example-6.2 does.  The counts are the same with one BLAS
    # thread and with the default pool.
    work = {}
    for name in ("residual_vec", "action_vec"):
        def counted(self, lam, z, _fn=getattr(Problem, name), _name=name):
            calls, cols = work.get(_name, (0, 0))
            work[_name] = (calls + 1, cols + (1 if z.ndim == 1 else z.shape[1]))
            return _fn(self, lam, z)
        monkeypatch.setattr(Problem, name, counted)
    launch = solver._launch

    def launching(prob, lam, zs):
        work["launched"] = work.get("launched", 0) + len(zs)
        return launch(prob, lam, zs)
    monkeypatch.setattr(solver, "_launch", launching)
    for key, lam, want in (
            ("example-6.1", 0.3, {"residual_vec": (160, 1868), "action_vec": (123, 3044),
                                  "launched": 65}),
            ("example-6.2", 1.0, {"residual_vec": (525, 3246), "action_vec": (646, 3213),
                                  "launched": 17})):
        prep = builtin_problem(key)
        work.clear()
        gv.find_three(prep.problem, lam, gv.SolverConfig(seed=42),
                      start_radius=1.0 + max(prep.deltas))
        assert work == want, key


# Full solution-set text of two solves that reach deflation; a solve that
# moves in any digit fails here.
PINS = Path(__file__).parent / "pins"
# the example-6.2 solve below writes the bytes of its acceptance solve
SOLVE_PINS = {"example-6.1": PINS / "solve-example-6.1.json",
              "example-6.2": PINS / "accept-example-6.2-1.0.json"}


@pytest.mark.parametrize("key, lam, seed, starts", [("example-6.1", 0.3, 7, 6),
                                                    ("example-6.2", 1.0, 42, 4)])
def test_find_three_matches_pin(key, lam, seed, starts):
    prep = builtin_problem(key)
    sset = gv.find_three(prep.problem, lam, gv.SolverConfig(seed=seed, starts=starts),
                         start_radius=1.0 + max(prep.deltas))
    assert solution_set_to_json(sset) == SOLVE_PINS[key].read_text()
    # the stopping rule first stops at N = 8, past these caps: every start resolves
    assert [index for phase, index, _, _ in sset.outcomes if phase == "start"] == list(
        range(starts + 1))


def discrete_problem(prep):
    """Example 6.1's system and model on a 5-vertex graph, a cycle with one
    chord, whose six edge weights are distinct draws: no two vertices look
    alike, so its coarsest equitable partition is discrete."""
    rng = np.random.default_rng(2027)
    ids = [f"v{i}" for i in range(5)]
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]
    g = gv.WeightedGraph(ids, {v: 1.0 for v in ids},
                         [(ids[a], ids[b], float(w))
                          for (a, b), w in zip(pairs, rng.uniform(0.5, 2.5, len(pairs)))])
    h = gv.VertexFunction.constant(g, 9.0)
    return gv.ProblemSpec(graph=g, m1=2, m2=2, p=2.0, q=3.0, h1=h, h2=h,
                          nonlinearity=prep.problem.nonlinearity)


def test_discrete_partition_solve_matches_pin(prep61):
    # the pin was written before the solver could search a quotient; this
    # solve reaches deflation and finds both minimizers and a saddle
    prob = discrete_problem(prep61)
    assert prob.quotient[0] is prob
    sset = gv.find_three(prob, 0.3, gv.SolverConfig(seed=42, starts=8),
                         start_radius=1.0 + max(prep61.deltas))
    assert solution_set_to_json(sset) == (PINS / "solve-discrete.json").read_text()


@pytest.mark.parametrize("key", ["example-6.1", "example-6.2"])
def test_solution_set_document_round_trips(key):
    # example-6.2 is a scalar solution set, example-6.1 a coupled one
    text = SOLVE_PINS[key].read_text()
    prep = builtin_problem(key)
    sset = solver.solution_set_from_doc(prep.problem, json.loads(text))
    state = sset.points[0].state
    assert isinstance(state, gv.VertexFunction if key == "example-6.2" else gv.StatePair)
    assert solution_set_to_json(sset) == text


def test_solver_rejects_exponents_below_two(p2, cfg):
    h = gv.VertexFunction.constant(p2, 1.0)
    prob = gv.ProblemSpec(graph=p2, m1=1, m2=1, p=1.5, q=2.0, h1=h, h2=h,
                          nonlinearity=linear_model())
    zero = gv.StatePair(gv.VertexFunction.zeros(p2), gv.VertexFunction.zeros(p2))
    with pytest.raises(SingularExponent):
        gv.minimize(prob, 1.0, zero, cfg)
    with pytest.raises(SingularExponent):
        gv.find_three(prob, 1.0, cfg)


def test_solver_parameter_validation(p2, cfg):
    prob = linear_problem(p2)
    zero = gv.StatePair(gv.VertexFunction.zeros(p2), gv.VertexFunction.zeros(p2))
    with pytest.raises(BadParam):
        gv.minimize(prob, 0.0, zero, cfg)
    with pytest.raises(BadParam):
        gv.SolverConfig(starts=0)
    with pytest.raises(BadParam):
        gv.SolverConfig(grad_tol=0.0)
    for seed in (-1, 2 ** 128):  # outside the start generator's key range
        with pytest.raises(BadParam):
            gv.SolverConfig(seed=seed)
    assert gv.SolverConfig(seed=2 ** 128 - 1).seed == 2 ** 128 - 1


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", np.nan), ("seed", 10 ** 400),
    ("starts", True), ("starts", 2.5), ("starts", "8"), ("max_iters", 10.5),
    ("max_iters", np.inf), ("grad_tol", "1e-8"), ("grad_tol", True), ("distinct_tol", None),
    ("grad_tol", 10 ** 400),
])
def test_solver_config_rejects_what_is_not_a_number_of_its_kind(name, value):
    with pytest.raises(BadParam, match=name):
        gv.SolverConfig(**{name: value})


def test_solver_config_stores_plain_numbers():
    cfg = gv.SolverConfig(starts=np.int64(8), max_iters=100.0, seed=np.uint64(3),
                          grad_tol=np.float32(0.5), distinct_tol=Fraction(1, 4))
    assert [(type(v), v) for v in (cfg.starts, cfg.max_iters, cfg.seed)] == [
        (int, 8), (int, 100), (int, 3)]
    assert [(type(v), v) for v in (cfg.grad_tol, cfg.distinct_tol)] == [
        (float, 0.5), (float, 0.25)]
    assert gv.SolverConfig(seed=1.0).seed == 1


@pytest.mark.parametrize("radius", [np.nan, np.inf, -5.0, 0.0, "2", True])
def test_find_three_rejects_a_bad_start_radius(p2, cfg, radius):
    # at radius 0 a deflation start sits on a known point
    with pytest.raises(BadParam, match="start radius"):
        gv.find_three(linear_problem(p2), 1.0, cfg, start_radius=radius)


LAMBDA_CALLS = {
    "find_three": lambda prob, lam, zero, cfg: gv.find_three(prob, lam, cfg),
    "minimize": lambda prob, lam, zero, cfg: gv.minimize(prob, lam, zero, cfg),
    "deflated_solve": lambda prob, lam, zero, cfg: gv.deflated_solve(prob, lam, [], zero, cfg),
    "residual": lambda prob, lam, zero, cfg: gv.residual(prob, lam, zero),
    "action": lambda prob, lam, zero, cfg: gv.action(prob, lam, zero),
    "action_gradient": lambda prob, lam, zero, cfg: gv.action_gradient(prob, lam, zero),
}


@pytest.mark.parametrize("lam", ["0.3", True])
@pytest.mark.parametrize("call", LAMBDA_CALLS.values(), ids=LAMBDA_CALLS.keys())
def test_the_parameter_must_be_a_real_number(p2, cfg, call, lam):
    prob = linear_problem(p2)
    zero = gv.StatePair(gv.VertexFunction.zeros(p2), gv.VertexFunction.zeros(p2))
    with pytest.raises(BadParam, match="the parameter"):
        call(prob, lam, zero, cfg)


def test_solution_sets_compare_by_identity(prep61):
    # a dataclass == would compare the distances arrays and raise
    def empty():
        return solver.SolutionSet(lam=1.0, seed=0, points=[], distances=np.zeros((0, 0)),
                                  nontrivial=[], zero_excluded=False)

    a, b = empty(), empty()
    assert (a == b) is False and (a == a) is True and hash(a) == hash(a)
    text = (PINS / "solve-example-6.1.json").read_text()
    sset = solver.solution_set_from_doc(prep61.problem, json.loads(text))
    twin = copy.copy(sset)
    twin.distances = sset.distances.copy()
    assert (sset == twin) is False and (sset != twin) is True


def test_scalar_problem_solver_path():
    # tiny scalar instance: lattice ball of radius 1 with the spike model
    g = gv.lattice_ball(1)
    x0 = gv.lattice_ball_center(1)
    model = gv.builtin_example_6_2(4.0 ** (1.0 / 3.0), r=5.0, support=x0)
    prob = gv.ScalarProblem(graph=g, m=1, p=3.0,
                            h=gv.VertexFunction.constant(g, 4.0),
                            nonlinearity=model)
    cfg = gv.SolverConfig(seed=42, starts=12)
    sset = gv.find_three(prob, 1.0, cfg)
    assert sset.found_three
    assert all(p.residual_sup < 1e-8 for p in sset.points)
    assert all(isinstance(p.state, gv.VertexFunction) for p in sset.points)


def test_isolated_vertex_warns_but_proceeds(cfg):
    g = gv.WeightedGraph(["a", "b", "c"], {"a": 1, "b": 1, "c": 1},
                         [("a", "b", 2.0)])
    prob = linear_problem(g)
    zero = gv.StatePair(gv.VertexFunction.zeros(g), gv.VertexFunction.zeros(g))
    with pytest.warns(UserWarning, match="isolated"):
        pt = gv.minimize(prob, 0.5, zero, cfg)
    assert pt.converged


def test_tabulated_model_checked_before_solving(p2, cfg):
    import numpy as _np
    from graphvar.errors import InconsistentDerivative
    from graphvar.nonlinearity import NonlinearityModel

    broken = NonlinearityModel(
        name="broken-table",
        F=lambda s, t: s + 0.0 * t,
        Fs=lambda s, t: _np.zeros_like(_np.asarray(s, dtype=float) + 0.0 * t),
        Ft=lambda s, t: _np.zeros_like(_np.asarray(s, dtype=float) + 0.0 * t),
        s_scale=1.0, t_scale=1.0, requires_derivative_check=True)
    h = gv.VertexFunction.constant(p2, 1.0)
    prob = gv.ProblemSpec(graph=p2, m1=1, m2=1, p=2.0, q=2.0, h1=h, h2=h,
                          nonlinearity=broken)
    with pytest.raises(InconsistentDerivative):
        gv.find_three(prob, 1.0, cfg)
