"""Differential operators on weighted graphs.

Implements the carre-du-champ form Gamma(u, v), gradient length, Laplacian,
m-order gradient length, p-Laplacian, and the higher-order operator
L_{m,p} defined through its weak form:

    <L_{m,p} u, phi>  =  integral of |grad^m u|^(p-2) Gamma(D^k u, D^k phi)
                          (m odd, k = (m-1)/2)
                      =  integral of |grad^m u|^(p-2) (D^k u)(D^k phi)
                          (m even, k = m/2, D = Laplacian)

The pointwise value of L_{m,p} u is extracted by testing against the
normalized indicator of each vertex; on a finite graph this determines the
operator exactly and uniquely.  Note that L_{1,p} = -Delta_p (the weak form
carries the sign), while L_{2,2} = Delta^2.

Exponents p in (1, 2) make coefficients |grad u|^(p-2) singular where the
gradient vanishes.  Vanishing entries are replaced by (|grad u| + 1e-12)^(p-2)
and a RegularizationWarning is emitted; exact-constant inputs short-circuit
to zero output.  Every neighbor sum runs in the deterministic edge order of
the graph, fully in 64-bit floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, RegularizationWarning
from .graph import VertexFunction, WeightedGraph, check_domain

EPS_REG = 1e-12


@dataclass(frozen=True)
class OperatorRequest:
    """A validated (order, exponent) pair for the higher-order operators."""

    m: int
    p: float

    def __post_init__(self):
        _check_order(self.m)
        _check_exponent(self.p)


# ---------------------------------------------------------------------------
# array-level kernels (values aligned with graph vertex order; an optional
# trailing batch axis is supported everywhere)
# ---------------------------------------------------------------------------

def _edge_diff(g: WeightedGraph, arr: np.ndarray) -> np.ndarray:
    """Per-edge difference arr[b] - arr[a]."""
    return arr[g.edge_index[:, 1]] - arr[g.edge_index[:, 0]]


def _scatter(g: WeightedGraph, idx: np.ndarray, term: np.ndarray, shape) -> np.ndarray:
    """Deterministic accumulation of per-edge terms onto vertices.

    A batch is one bincount over flattened (vertex, column) keys, so each
    column sums in edge order exactly as its 1-D scatter would.
    """
    if term.ndim == 1:
        return np.bincount(idx, weights=term, minlength=shape[0])
    k = term.shape[1]
    keys = (idx[:, None] * k + np.arange(k)).ravel()
    return np.bincount(keys, weights=term.ravel(),
                       minlength=shape[0] * k).reshape(shape)


def _scatter_both(g: WeightedGraph, term: np.ndarray, shape) -> np.ndarray:
    """Accumulate the same per-edge term onto both endpoints."""
    return (_scatter(g, g.edge_index[:, 0], term, shape)
            + _scatter(g, g.edge_index[:, 1], term, shape))


def gamma_arr(g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma(u, v)(x) = (1 / 2 mu(x)) sum_y w_xy (u(y)-u(x)) (v(y)-v(x))."""
    du, dv = _edge_diff(g, u), _edge_diff(g, v)
    w = g.edge_weight
    # the product du*dv is formed first so gamma(u, v) == gamma(v, u) exactly
    if du.ndim == 1 and dv.ndim == 1:
        term = w * (du * dv)
    elif du.ndim == 1:
        term = w[:, None] * (du[:, None] * dv)
    elif dv.ndim == 1:
        term = w[:, None] * (dv[:, None] * du)
    else:
        term = w[:, None] * (du * dv)
    if term.ndim == 1:
        shape, mu = (g.n_vertices,), g.mu
    else:
        shape, mu = (g.n_vertices, term.shape[1]), g.mu[:, None]
    return _scatter_both(g, term, shape) / (2.0 * mu)


def laplacian_arr(g: WeightedGraph, arr: np.ndarray) -> np.ndarray:
    """Delta u(x) = (1 / mu(x)) sum_y w_xy (u(y) - u(x))."""
    d = _edge_diff(g, arr)
    w = g.edge_weight if arr.ndim == 1 else g.edge_weight[:, None]
    term = w * d
    out = (_scatter(g, g.edge_index[:, 0], term, arr.shape)
           - _scatter(g, g.edge_index[:, 1], term, arr.shape))
    mu = g.mu if arr.ndim == 1 else g.mu[:, None]
    return out / mu


def iterated_laplacian_arr(g: WeightedGraph, arr: np.ndarray, k: int) -> np.ndarray:
    for _ in range(int(k)):
        arr = laplacian_arr(g, arr)
    return arr


def grad_norm_arr(g: WeightedGraph, arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(gamma_arr(g, arr, arr), 0.0))


def m_grad_norm_arr(g: WeightedGraph, arr: np.ndarray, m: int) -> np.ndarray:
    m = _check_order(m)
    if m % 2 == 1:
        return grad_norm_arr(g, iterated_laplacian_arr(g, arr, (m - 1) // 2))
    return np.abs(iterated_laplacian_arr(g, arr, m // 2))


def _check_order(m: int) -> int:
    m = int(m)
    if m < 1:
        raise BadParam(f"operator order m must be >= 1, got {m}")
    return m


def _check_exponent(p: float) -> float:
    p = float(p)
    if p <= 1.0:
        raise BadParam(f"exponent must satisfy p > 1, got {p}")
    return p


def power_coeff(base: np.ndarray, p: float) -> np.ndarray:
    """base**(p-2) with the regularization rule for p < 2 at zero entries."""
    if p == 2.0:
        return np.ones_like(base)
    if p >= 2.0:
        return base ** (p - 2.0)
    zero = base <= 0.0
    if not np.any(zero):
        return base ** (p - 2.0)
    warnings.warn(f"vanishing gradient regularized with eps={EPS_REG} for p={p}",
                  RegularizationWarning, stacklevel=3)
    out = np.empty_like(base)
    out[~zero] = base[~zero] ** (p - 2.0)
    out[zero] = (base[zero] + EPS_REG) ** (p - 2.0)
    return out


def weighted_p_lap_arr(g: WeightedGraph, arr: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """x -> (1 / 2 mu(x)) sum_y (coeff(y) + coeff(x)) w_xy (arr(y) - arr(x))."""
    ea, eb = g.edge_index[:, 0], g.edge_index[:, 1]
    factor = (coeff[ea] + coeff[eb]) * (g.edge_weight if arr.ndim == 1
                                        else g.edge_weight[:, None])
    term = factor * _edge_diff(g, arr)
    out = _scatter(g, ea, term, arr.shape) - _scatter(g, eb, term, arr.shape)
    mu = g.mu if arr.ndim == 1 else g.mu[:, None]
    return out / (2.0 * mu)


def p_laplacian_arr(g: WeightedGraph, arr: np.ndarray, p: float) -> np.ndarray:
    p = _check_exponent(p)
    if np.all(_edge_diff(g, arr) == 0.0):
        return np.zeros_like(arr)
    gn = grad_norm_arr(g, arr)
    return weighted_p_lap_arr(g, arr, power_coeff(gn, p))


def signed_power(arr: np.ndarray, p: float) -> np.ndarray:
    """|arr|^(p-2) arr, extended by 0 where arr vanishes (continuous for p > 1)."""
    return np.sign(arr) * np.abs(arr) ** (p - 1.0)


def poly_lap_apply_arr(g: WeightedGraph, arr: np.ndarray, m: int, p: float) -> np.ndarray:
    """Pointwise L_{m,p} u through the adjoint of the weak form.

    Used on the solver's hot path; agrees with the indicator extraction of
    poly_lap_pointwise to rounding (the tests pin this).
    """
    m, p = _check_order(m), _check_exponent(p)
    if m % 2 == 1:
        w = iterated_laplacian_arr(g, arr, (m - 1) // 2)
        gn = grad_norm_arr(g, w)
        if np.all(gn == 0.0):
            return np.zeros_like(arr)
        inner = weighted_p_lap_arr(g, w, power_coeff(gn, p))
        return -iterated_laplacian_arr(g, inner, (m - 1) // 2)
    w = iterated_laplacian_arr(g, arr, m // 2)
    if np.all(w == 0.0):
        return np.zeros_like(arr)
    z = power_coeff(np.abs(w), p) * w
    return iterated_laplacian_arr(g, z, m // 2)


def poly_lap_weak_many(g: WeightedGraph, u_arr: np.ndarray, phis: np.ndarray,
                       m: int, p: float) -> np.ndarray:
    """Weak pairings <L_{m,p} u, phi_j> for a batch of test functions.

    `phis` has shape (n_vertices, k); returns shape (k,).
    """
    m, p = _check_order(m), _check_exponent(p)
    if m % 2 == 1:
        k = (m - 1) // 2
        w = iterated_laplacian_arr(g, u_arr, k)
        eta = iterated_laplacian_arr(g, phis, k)
        gn = grad_norm_arr(g, w)
        if np.all(gn == 0.0):
            return np.zeros(phis.shape[1])
        coeff = power_coeff(gn, p)
        gam = gamma_arr(g, w, eta)
        return (g.mu * coeff) @ gam
    k = m // 2
    w = iterated_laplacian_arr(g, u_arr, k)
    z = iterated_laplacian_arr(g, phis, k)
    if np.all(w == 0.0):
        return np.zeros(phis.shape[1])
    coeff = power_coeff(np.abs(w), p)
    return (g.mu * coeff * w) @ z


# ---------------------------------------------------------------------------
# public operations on VertexFunction
# ---------------------------------------------------------------------------

def gamma(g: WeightedGraph, u: VertexFunction, v: VertexFunction) -> VertexFunction:
    """The bilinear form Gamma(u, v) = grad u . grad v, vertex by vertex."""
    check_domain(g, u, v)
    return VertexFunction(g, gamma_arr(g, u.values, v.values))


def grad_norm(g: WeightedGraph, u: VertexFunction) -> VertexFunction:
    """Length of the gradient, sqrt(Gamma(u, u)); nonnegative."""
    check_domain(g, u)
    return VertexFunction(g, grad_norm_arr(g, u.values))


def laplacian(g: WeightedGraph, u: VertexFunction) -> VertexFunction:
    check_domain(g, u)
    return VertexFunction(g, laplacian_arr(g, u.values))


def m_grad_norm(g: WeightedGraph, u: VertexFunction, m: int) -> VertexFunction:
    """Length of the m-order gradient: |grad D^(m-1)/2 u| for odd m,
    |D^(m/2) u| for even m."""
    check_domain(g, u)
    return VertexFunction(g, m_grad_norm_arr(g, u.values, m))


def p_laplacian(g: WeightedGraph, u: VertexFunction, p: float) -> VertexFunction:
    """Delta_p u; coincides with the Laplacian exactly at p = 2."""
    check_domain(g, u)
    return VertexFunction(g, p_laplacian_arr(g, u.values, p))


def poly_lap_weak(g: WeightedGraph, u: VertexFunction, phi: VertexFunction,
                  m: int, p: float) -> float:
    """The weak pairing <L_{m,p} u, phi> against a single test function."""
    check_domain(g, u, phi)
    return float(poly_lap_weak_many(g, u.values, phi.values[:, None], m, p)[0])


def poly_lap_pointwise(g: WeightedGraph, u: VertexFunction, m: int, p: float) -> VertexFunction:
    """Pointwise L_{m,p} u, extracted by testing against every vertex indicator.

    The value at x is the weak pairing against the indicator of x divided by
    mu(x); indicators span all vertex functions, so this is the unique
    function reproducing the weak form.
    """
    check_domain(g, u)
    indicators = np.eye(g.n_vertices)
    pairings = poly_lap_weak_many(g, u.values, indicators, m, p)
    return VertexFunction(g, pairings / g.mu)


def lr_norm(g: WeightedGraph, u: VertexFunction, r: float) -> float:
    """The L^r(V) norm (sum of mu |u|^r)^(1/r), for r >= 1."""
    check_domain(g, u)
    r = float(r)
    if r < 1.0:
        raise BadParam(f"lr_norm requires r >= 1, got {r}")
    return float(np.dot(g.mu, np.abs(u.values) ** r) ** (1.0 / r))
