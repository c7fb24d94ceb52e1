"""Compressed finite-difference Jacobians: the m-hop sparsity pattern, the
greedy column colouring, and equality with the dense one-column-at-a-time
difference, both per Jacobian and for a whole solve; a problem builds its
pattern once, and only when a solve needs it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graphvar as gv
from graphvar import functionals, solver
from graphvar.cli import main
from graphvar.problems import BUILTIN_KEYS, builtin_problem
from graphvar.solver import solution_set_to_json

from conftest import EXPONENTS, ORDERS, POSITIVE, smooth_model, weighted_graphs


def tabulated():
    grid = np.linspace(-3.0, 3.0, 7)
    s, t = np.meshgrid(grid, grid, indexing="ij")
    return gv.tabulated_model(grid, grid, np.sin(s) * np.cos(t) + 0.3 * s * t ** 2)


@st.composite
def problems(draw):
    g = draw(weighted_graphs())
    h = gv.VertexFunction.constant(g, draw(POSITIVE))
    if draw(st.booleans()):
        return gv.ScalarProblem(graph=g, m=draw(ORDERS), p=draw(EXPONENTS), h=h,
                                nonlinearity=smooth_model())
    return gv.ProblemSpec(graph=g, m1=draw(ORDERS), m2=draw(ORDERS),
                          p=draw(EXPONENTS), q=draw(EXPONENTS), h1=h, h2=h,
                          nonlinearity=tabulated())


@st.composite
def problem_states(draw):
    prob = draw(problems())
    z = draw(arrays(np.float64, prob.n_dofs, elements=st.floats(-2.5, 2.5)))
    return prob, z


def dense_jacobian(fn, z, h):
    n = len(z)
    jac = np.empty((n, n))
    for j in range(n):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (fn(zp) - fn(zm)) / (2.0 * h)
    return jac


def pattern_mask(prob):
    mask = np.zeros((prob.n_dofs, prob.n_dofs), dtype=bool)
    for i, cols in enumerate(functionals._sparsity(prob)):
        mask[i, cols] = True
    return mask


@settings(max_examples=60, deadline=None)
@given(problem_states())
def test_compressed_jacobian_is_the_dense_one_bitwise(case):
    prob, z = case
    fn = lambda y: prob.residual_vec(0.7, y)
    h = solver.FD_SCALE * (1.0 + float(np.linalg.norm(z)))
    dense = dense_jacobian(fn, z, h)
    assert not np.any(dense[~pattern_mask(prob)])
    compressed = solver._fd_jacobian(prob, fn, z)
    assert compressed.tobytes() == dense.tobytes()


@settings(max_examples=60, deadline=None)
@given(problems())
def test_no_two_columns_of_a_colour_share_a_row(prob):
    mask, colour = prob.jacobian_pattern
    assert mask.dtype == bool and mask.shape == (prob.n_dofs, prob.n_dofs)
    for row in mask:
        assert len(set(colour[row].tolist())) == np.count_nonzero(row)
    assert np.array_equal(np.unique(colour), np.arange(colour.max() + 1))


def test_builtin_colour_counts():
    for name, colours, nonzeros in (("example-6.1", 12, 140), ("example-6.2", 18, 1941)):
        mask, colour = builtin_problem(name).problem.jacobian_pattern
        assert (colour.max() + 1, np.count_nonzero(mask)) == (colours, nonzeros)


@pytest.fixture(scope="module")
def solve61():
    prob = builtin_problem("example-6.1").problem
    cfg = gv.SolverConfig(seed=7, starts=6)
    return prob, gv.find_three(prob, 0.3, cfg), cfg


def test_solve_is_the_same_with_one_column_per_group(solve61, monkeypatch):
    _, sset, cfg = solve61
    monkeypatch.setattr(functionals, "_colour_columns", lambda mask: np.arange(len(mask)))
    prob = builtin_problem("example-6.1").problem  # the fixture's keeps its pattern
    _, colour = prob.jacobian_pattern
    assert colour.max() + 1 == prob.n_dofs
    assert solution_set_to_json(gv.find_three(prob, 0.3, cfg)) == solution_set_to_json(sset)


def test_kind_is_classified_at_the_returned_point(solve61):
    prob, sset, _ = solve61
    assert sset.points
    for pt in sset.points:
        fresh = solver._classify(prob, 0.3, prob.pack_state(pt.state))
        assert pt.kind == fresh


# -- one problem type: the k = 2 blocks are k = 1 problems -------------------

def t_blind():
    """A model whose F ignores t, so the v-equation carries no nonlinearity."""
    return gv.NonlinearityModel(
        name="t-blind", F=lambda s, t: np.sin(s) + 0.25 * s ** 2,
        Fs=lambda s, t: np.cos(s) + 0.5 * s, Ft=lambda s, t: np.zeros_like(s),
        s_scale=2.0, t_scale=2.0)


def zero_model():
    z = lambda s, t: np.zeros_like(s)
    return gv.NonlinearityModel(name="zero", F=z, Fs=z, Ft=z, s_scale=1.0, t_scale=1.0)


@st.composite
def coupled_states(draw):
    g = draw(weighted_graphs())
    n = g.n_vertices
    h1, h2 = (gv.VertexFunction(g, draw(arrays(np.float64, n, elements=POSITIVE)))
              for _ in range(2))
    m1, m2, p, q = draw(ORDERS), draw(ORDERS), draw(EXPONENTS), draw(EXPONENTS)
    z = draw(arrays(np.float64, 2 * n, elements=st.floats(-2.5, 2.5)))
    return g, (m1, p, h1), (m2, q, h2), z


@settings(max_examples=60, deadline=None)
@given(coupled_states())
def test_coupled_blocks_are_scalar_problems_bitwise(case):
    g, (m1, p, h1), (m2, q, h2), z = case
    n = g.n_vertices
    coupled = gv.ProblemSpec(graph=g, m1=m1, m2=m2, p=p, q=q, h1=h1, h2=h2,
                             nonlinearity=t_blind())
    first = gv.ScalarProblem(graph=g, m=m1, p=p, h=h1, nonlinearity=t_blind())
    second = gv.ScalarProblem(graph=g, m=m2, p=q, h=h2, nonlinearity=zero_model())
    res = coupled.residual_vec(0.7, z)
    assert res[:n].tobytes() == first.residual_vec(0.7, z[:n]).tobytes()
    assert res[n:].tobytes() == second.residual_vec(0.7, z[n:]).tobytes()
    assert coupled.wnorm_vec(z) == first.wnorm_vec(z[:n]) + second.wnorm_vec(z[n:])


# -- the problem owns its pattern ---------------------------------------------

def count_patterns(monkeypatch) -> list:
    builds = []
    sparsity = functionals._sparsity
    monkeypatch.setattr(functionals, "_sparsity",
                        lambda prob: builds.append(1) or sparsity(prob))
    return builds


def test_three_solves_on_one_problem_build_its_pattern_once(monkeypatch):
    builds = count_patterns(monkeypatch)
    prob = builtin_problem("example-6.1").problem
    for lam in (0.15, 0.3, 0.5):
        gv.find_three(prob, lam, gv.SolverConfig(seed=7, starts=4))
    assert builds == [1]
    fresh = dataclasses.replace(prob)  # the same fields, no pattern built
    assert (prob == fresh, hash(prob) == hash(fresh)) == (True, True)


def test_bundled_problems_and_reports_build_no_pattern(tmp_path, monkeypatch):
    builds = count_patterns(monkeypatch)
    for key in BUILTIN_KEYS:
        builtin_problem(key)
        assert main(["interval", "--reproduce", key, "-o", str(tmp_path / key)]) == 0
    assert builds == []
