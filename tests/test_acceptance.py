"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import graphvar as gv
from graphvar.cli import main
from graphvar.functionals import monotonicity_modulus
from graphvar.problems import builtin_problem
from graphvar.sobolev import SobolevSpec
from graphvar.solver import solution_set_to_json

from conftest import full_space_solve, random_graph, random_vf, smooth_model

REFERENCE_LO_61 = 0.07614
REFERENCE_HI_61 = 0.65303
REFERENCE_LO_62 = 0.0371
REFERENCE_HI_62 = 2.36


def _ok(num: int, detail: str, elapsed: float) -> None:
    print(f"[PASS] criterion {num}: {detail} ({elapsed:.2f}s)")


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# -- cached solution runs (criterion 4 computes, criterion 9 re-runs) --------

_SOLUTION_CACHE: dict = {}

SOLVE_CONFIGS = (
    ("example-6.1", 0.15),
    ("example-6.1", 0.3),
    ("example-6.1", 0.5),
    ("example-6.2", 1.0),
)


def _solve(key: str, lam: float):
    prep = builtin_problem(key)
    cfg = gv.SolverConfig(seed=42)
    t0 = time.perf_counter()
    sset = gv.find_three(prep.problem, lam, cfg,
                         start_radius=1.0 + max(prep.deltas))
    elapsed = time.perf_counter() - t0
    return sset, solution_set_to_json(sset), elapsed


def _cached_solve(key: str, lam: float):
    tag = (key, lam)
    if tag not in _SOLUTION_CACHE:
        _SOLUTION_CACHE[tag] = _solve(key, lam)
    return _SOLUTION_CACHE[tag]


# -- criteria -----------------------------------------------------------------


def test_criterion_1_interval_61(tmp_path):
    out = tmp_path / "r61.json"
    t0 = time.perf_counter()
    code = main(["interval", "--reproduce", "example-6.1", "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out.read_text())
    assert rel_err(doc["lambda_lo"], REFERENCE_LO_61) < 1e-3
    assert rel_err(doc["lambda_hi"], REFERENCE_HI_61) < 1e-3
    assert elapsed < 1.0
    _ok(1, f"interval 6.1 = ({doc['lambda_lo']:.6g}, {doc['lambda_hi']:.6g}) "
           f"vs ({REFERENCE_LO_61}, {REFERENCE_HI_61}) within 1e-3", elapsed)


def test_criterion_2_interval_62(tmp_path):
    out = tmp_path / "r62.json"
    t0 = time.perf_counter()
    code = main(["interval", "--reproduce", "example-6.2", "-o", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out.read_text())
    assert rel_err(doc["lambda_lo"], REFERENCE_LO_62) < 2e-2
    assert rel_err(doc["lambda_hi"], REFERENCE_HI_62) < 2e-2
    prep = builtin_problem("example-6.2")
    mass = gv.local_mass(prep.problem.graph, prep.x0, prep.problem.components[0].l, None,
                         prep.problem.components[0].h).M1
    assert mass == 16.0
    p = prep.problem.components[0].l
    kappa = (mass / p) ** (-1.0 / p)
    assert abs(prep.gammas[0] * kappa - 1.0) < 1e-12
    assert elapsed < 1.0
    _ok(2, f"interval 6.2 = ({doc['lambda_lo']:.4g}, {doc['lambda_hi']:.4g}) "
           f"within 2e-2, M = {mass:g} exactly, gamma*kappa = 1", elapsed)


def test_criterion_3_scale_checks_61():
    t0 = time.perf_counter()
    prep = builtin_problem("example-6.1")
    k1, k2 = gv.kappa_finite(prep.problem)
    g1, g2 = prep.gammas
    assert abs(g1 * k1 - 1.0) < 1e-12
    assert abs(g2 * k2 - 1.0) < 1e-12
    w = gv.StatePair(
        gv.VertexFunction.constant(prep.problem.graph, prep.deltas[0]),
        gv.VertexFunction.constant(prep.problem.graph, prep.deltas[1]))
    phi = gv.phi_energy(prep.problem, w)
    assert rel_err(phi, 85657.5) < 1e-9
    elapsed = time.perf_counter() - t0
    _ok(3, f"gamma*kappa = (1, 1) within 1e-12; Phi(constants) = {phi:.10g}",
        elapsed)


def test_criterion_4_three_solutions():
    details = []
    for key, lam in SOLVE_CONFIGS:
        sset, _, elapsed = _cached_solve(key, lam)
        assert elapsed < 60.0, f"{key} lam={lam} took {elapsed:.1f}s"
        assert sset.found_three, f"{key} lam={lam}: only {len(sset.points)} points"
        assert all(p.residual_sup < 1e-8 for p in sset.points)
        assert all(sset.nontrivial)
        assert sset.zero_excluded
        k = len(sset.points)
        for i in range(k):
            for j in range(i + 1, k):
                assert sset.distances[i, j] > 1e-4
        details.append(f"{key}@{lam:g}: {k} pts {elapsed:.1f}s")
    total = sum(_SOLUTION_CACHE[(k, l)][2] for k, l in SOLVE_CONFIGS)
    _ok(4, "; ".join(details), total)


def _rel_close_strict(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_criterion_5_operator_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(501)
    graphs = 0
    worst = 0.0

    def track(a, b):
        nonlocal worst
        gap = abs(a - b) / max(1.0, abs(a), abs(b))
        worst = max(worst, gap)
        assert _rel_close_strict(a, b)

    for _ in range(100):
        g = random_graph(rng, n_min=2, n_max=8)
        graphs += 1
        u, v = random_vf(rng, g, 2.0), random_vf(rng, g, 2.0)
        lap_u = gv.laplacian(g, u)
        # Green's identity and the divergence theorem
        lhs = gv.integrate(g, gv.VertexFunction(g, lap_u.values * v.values))
        track(lhs, -gv.integrate(g, gv.gamma(g, u, v)))
        track(gv.integrate(g, lap_u), 0.0)
        # self-adjointness
        sym = gv.integrate(g, gv.VertexFunction(g, u.values * gv.laplacian(g, v).values))
        track(lhs, sym)
        # distributional identity of the p-Laplacian
        for p in (2.0, 2.5, 3.0, 4.0):
            pl = gv.p_laplacian(g, u, p)
            left = gv.integrate(g, gv.VertexFunction(g, pl.values * v.values))
            gn = gv.grad_norm(g, u).values
            right = -float(np.dot(g.mu, gn ** (p - 2.0) * gv.gamma(g, u, v).values))
            track(left, right)
        # pointwise extraction reproduces the weak pairing
        for m, p in ((1, 2.5), (2, 2.0), (3, 3.0)):
            pw = gv.poly_lap_pointwise(g, u, m, p)
            left = gv.integrate(g, gv.VertexFunction(g, pw.values * v.values))
            track(left, gv.poly_lap_weak(g, u, v, m, p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(5, f"operator identities on {graphs} random graphs, worst rel gap "
           f"{worst:.2e} <= 1e-10", elapsed)


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(601)
    model = smooth_model()
    samples = 0
    worst_ratio = 0.0
    for m1 in (1, 2, 3):
        for p in (2.0, 2.5, 3.0):
            for q in (2.0, 2.5, 3.0):
                for _ in range(4):
                    g = random_graph(rng, n_min=3, n_max=8)
                    h1 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
                    h2 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
                    m2 = int(rng.integers(1, 4))
                    prob = gv.ProblemSpec(graph=g, m1=m1, m2=m2, p=p, q=q,
                                          h1=h1, h2=h2, nonlinearity=model)
                    z = rng.uniform(-1.5, 1.5, prob.n_dofs)
                    e = rng.uniform(-1.0, 1.0, prob.n_dofs)
                    lam = float(rng.uniform(0.1, 2.0))
                    eps = 1e-6 * (1.0 + float(np.linalg.norm(z)))
                    fd = (prob.action_vec(lam, z + eps * e)
                          - prob.action_vec(lam, z - eps * e)) / (2 * eps)
                    mu2 = np.concatenate([g.mu, g.mu])
                    pairing = float(np.dot(mu2 * prob.residual_vec(lam, z), e))
                    tol = max(1e-6, 1e-4 * abs(pairing))
                    gap = abs(fd - pairing)
                    worst_ratio = max(worst_ratio, gap / tol)
                    assert gap <= tol
                    samples += 1
    elapsed = time.perf_counter() - t0
    assert samples >= 100
    assert elapsed < 30.0
    _ok(6, f"gradient vs central differences on {samples} samples, worst "
           f"{worst_ratio:.3f}x the 1e-4 relative tolerance", elapsed)


def test_criterion_7_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(701)
    model = smooth_model()
    checked = 0
    while checked < 1000:
        p = float(rng.choice([2.0, 2.3, 2.5, 3.0, 4.0]))
        q = float(rng.choice([2.0, 2.5, 3.0]))
        g = random_graph(rng, n_min=2, n_max=7)
        h1 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
        h2 = gv.VertexFunction(g, rng.uniform(0.5, 3.0, g.n_vertices))
        prob = gv.ProblemSpec(graph=g, m1=int(rng.integers(1, 3)),
                              m2=int(rng.integers(1, 3)), p=p, q=q,
                              h1=h1, h2=h2, nonlinearity=model)
        n = g.n_vertices
        for _ in range(5):
            w1 = gv.StatePair(random_vf(rng, g, 3.0), random_vf(rng, g, 3.0))
            w2 = gv.StatePair(random_vf(rng, g, 3.0), random_vf(rng, g, 3.0))
            gap = gv.monotonicity_gap(prob, w1, w2)
            du = gv.VertexFunction(g, w1.u.values - w2.u.values)
            dv = gv.VertexFunction(g, w1.v.values - w2.v.values)
            nu = gv.w_norm(g, du, prob.components[0])
            nv = gv.w_norm(g, dv, prob.components[1])
            slack = 1e-9 * max(1.0, abs(gap))
            bound = 2.0 ** (2 - p) * nu ** p + 2.0 ** (2 - q) * nv ** q
            assert gap + slack >= bound
            t = nu + nv
            assert gap + slack >= monotonicity_modulus(p, q, t) * t
            checked += 1
    elapsed = time.perf_counter() - t0
    _ok(7, f"monotonicity gap bounds on {checked} random pairs, zero violations",
        elapsed)


def test_criterion_8_embeddings():
    t0 = time.perf_counter()
    rng = np.random.default_rng(801)
    lattice = gv.lattice_ball(3)
    h0, mu0 = 4.0, 1.0
    h_lattice = gv.VertexFunction.constant(lattice, h0)
    checked = 0
    for _ in range(200):
        # finite-graph constants
        g = random_graph(rng)
        h = gv.VertexFunction(g, rng.uniform(0.3, 4.0, g.n_vertices))
        l = float(rng.uniform(1.2, 4.0))
        r = float(rng.uniform(1.2, 4.0))
        m = int(rng.integers(1, 4))
        u = random_vf(rng, g, 3.0)
        wn = gv.w_norm(g, u, SobolevSpec(m, l, h))
        assert float(np.max(np.abs(u.values))) <= (
            gv.sup_embedding_const(g, l, h) * wn * (1.0 + 1e-12))
        wn1 = gv.w_norm(g, u, SobolevSpec(1, l, h))
        assert gv.lr_norm(g, u, r) <= (
            gv.lr_embedding_const(g, l, r, h) * wn1 * (1.0 + 1e-12))
        # locally finite floor constants on the truncated lattice
        ul = random_vf(rng, lattice, 2.0)
        ll = float(rng.uniform(1.2, 3.5))
        rl = float(rng.uniform(ll, 5.0))
        wnl = gv.w_norm(lattice, ul, SobolevSpec(1, ll, h_lattice))
        assert float(np.max(np.abs(ul.values))) <= (
            gv.sup_embedding_const_floors(ll, h0, mu0) * wnl * (1.0 + 1e-12))
        assert gv.lr_norm(lattice, ul, rl) <= (
            gv.lr_embedding_const_floors(ll, rl, h0, mu0) * wnl * (1.0 + 1e-12))
        checked += 1
    elapsed = time.perf_counter() - t0
    _ok(8, f"embedding inequalities on {checked} samples, zero violations",
        elapsed)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    for key, lam in SOLVE_CONFIGS:
        _, first_json, _ = _cached_solve(key, lam)
        _, second_json, _ = _solve(key, lam)
        assert second_json == first_json, f"{key} lam={lam} not byte-identical"
    elapsed = time.perf_counter() - t0
    _ok(9, "criterion-4 runs repeat byte-identically", elapsed)


# Seed-42 solution-set text of the four criterion-4 solves; a solve that
# moves in any digit fails here.
PINS = Path(__file__).parent / "pins"


@pytest.mark.parametrize("key, lam", SOLVE_CONFIGS)
def test_acceptance_solves_match_pins(key, lam):
    _, text, _ = _cached_solve(key, lam)
    assert text == (PINS / f"accept-{key}-{lam}.json").read_text()


# The example-6.2 solve in a process with one BLAS thread: its Newton
# systems are those of the 28-cell quotient, which LAPACK solves to the
# same bits at one thread as with the default pool.
SOLVE_62 = """
import sys
import graphvar as gv
from graphvar.problems import builtin_problem
from graphvar.solver import solution_set_to_json
prep = builtin_problem("example-6.2")
sset = gv.find_three(prep.problem, 1.0, gv.SolverConfig(seed=42),
                     start_radius=1.0 + max(prep.deltas))
sys.stdout.write(solution_set_to_json(sset))
"""


def test_acceptance_solve_matches_its_pin_at_one_blas_thread():
    src = Path(gv.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", SOLVE_62], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src),
                                          "OPENBLAS_NUM_THREADS": "1"})
    assert run.stdout == (PINS / "accept-example-6.2-1.0.json").read_text()


# How every start and deflation attempt of those solves ended, as
# (phase, index, outcome); the iteration counts are not pinned.
@pytest.mark.parametrize("key, lam", SOLVE_CONFIGS)
def test_acceptance_outcome_labels_match_pins(key, lam):
    sset, _, _ = _cached_solve(key, lam)
    labels = [[phase, index, outcome] for phase, index, outcome, _ in sset.outcomes]
    assert labels == json.loads((PINS / "accept-outcomes.json").read_text())[f"{key}-{lam}"]


# The deflation attempts of the seed-42 example-6.1 full-space searches at
# lambda = 0.15 and 0.3: attempt 0 ends "stalled" after SLOW_LIMIT
# iterations that do not halve the residual (it ran 31 and 24 iterations to
# the stall limit before that exit), and attempt 1 finds the third point.
@pytest.mark.parametrize("lam, stalled_after", [(0.15, 13), (0.3, 11)])
def test_stalled_deflation_attempt_stops_early(lam, stalled_after):
    prep = builtin_problem("example-6.1")
    sset = full_space_solve(prep.problem, lam, gv.SolverConfig(seed=42),
                            1.0 + max(prep.deltas))
    attempts = [o for o in sset.outcomes if o[0] == "deflation"]
    assert attempts == [("deflation", 0, "stalled", stalled_after), ("deflation", 1, "new", 8)]
