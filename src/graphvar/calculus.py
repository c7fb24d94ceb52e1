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
the graph, fully in 64-bit floats.  The array kernels take 1-D arrays of
vertex values, or (n_vertices, k) batches whose k columns are independent
inputs; column j of a batched result equals, bit for bit, the 1-D result on
column j.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BadParam, RegularizationWarning
from .graph import VertexFunction, WeightedGraph, check_domain

EPS_REG = 1e-12


# ---------------------------------------------------------------------------
# array-level kernels (values aligned with graph vertex order, with an
# optional trailing column axis)
# ---------------------------------------------------------------------------

def _along(vec: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """A per-vertex or per-edge vector shaped to scale the rows of arr."""
    return vec if arr.ndim == 1 else vec[:, None]


def _edge_diff(g: WeightedGraph, arr: np.ndarray) -> np.ndarray:
    """Per-edge difference arr[b] - arr[a]."""
    return arr[g.edge_index[:, 1]] - arr[g.edge_index[:, 0]]


def _scatter(g: WeightedGraph, side: int, term: np.ndarray) -> np.ndarray:
    """Deterministic accumulation of per-edge terms onto the vertices at one
    side of each edge (0 for a, 1 for b), in edge order.

    A batch is one bincount over (column, vertex) keys taken from the
    graph's scatter plan, so each column sums in edge order exactly as its
    1-D scatter would.
    """
    if term.ndim == 1:
        return np.bincount(g.edge_index[:, side], weights=term, minlength=g.n_vertices)
    k, n = term.shape[1], g.n_vertices
    keys = g._scatter_keys(k)[side, :k].ravel()
    sums = np.bincount(keys, weights=term.T.ravel(), minlength=n * k)
    return np.ascontiguousarray(sums.reshape(k, n).T)


def _on_live(fn, arr: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """fn on the columns of a batch that are not `dead`, and +0.0 in the
    dead ones: the batched form of a 1-D kernel's zero short-circuit."""
    out = np.zeros_like(arr)
    out[:, ~dead] = fn(arr[:, ~dead])
    return out


def gamma_arr(g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma(u, v)(x) = (1 / 2 mu(x)) sum_y w_xy (u(y)-u(x)) (v(y)-v(x))."""
    # the product du*dv is formed first so gamma(u, v) == gamma(v, u) exactly
    du = _edge_diff(g, u)
    term = _along(g.edge_weight, u) * (du * (du if v is u else _edge_diff(g, v)))
    return (_scatter(g, 0, term) + _scatter(g, 1, term)) / (2.0 * _along(g.mu, u))


def laplacian_arr(g: WeightedGraph, arr: np.ndarray) -> np.ndarray:
    """Delta u(x) = (1 / mu(x)) sum_y w_xy (u(y) - u(x))."""
    term = _along(g.edge_weight, arr) * _edge_diff(g, arr)
    return (_scatter(g, 0, term) - _scatter(g, 1, term)) / _along(g.mu, arr)


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
    if not p > 1.0:
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
    term = (coeff[ea] + coeff[eb]) * _along(g.edge_weight, arr) * _edge_diff(g, arr)
    return (_scatter(g, 0, term) - _scatter(g, 1, term)) / (2.0 * _along(g.mu, arr))


def p_laplacian_arr(g: WeightedGraph, arr: np.ndarray, p: float) -> np.ndarray:
    p = _check_exponent(p)
    dead = np.all(_edge_diff(g, arr) == 0.0, axis=0)
    if np.all(dead):
        return np.zeros_like(arr)
    if np.any(dead):
        return _on_live(lambda a: p_laplacian_arr(g, a, p), arr, dead)
    gn = grad_norm_arr(g, arr)
    return weighted_p_lap_arr(g, arr, power_coeff(gn, p))


def signed_power(arr: np.ndarray, p: float) -> np.ndarray:
    """|arr|^(p-2) arr, extended by 0 where arr vanishes (continuous for p > 1)."""
    return np.sign(arr) * np.abs(arr) ** (p - 1.0)


def poly_lap_apply_arr(g: WeightedGraph, arr: np.ndarray, m: int, p: float) -> np.ndarray:
    """Pointwise L_{m,p} u through the adjoint of the weak form.

    Used on the solver's hot path and by the CLI's ``op poly_lap``; agrees
    with the indicator extraction of poly_lap_pointwise to rounding (the
    tests pin this).
    """
    m, p = _check_order(m), _check_exponent(p)
    if m % 2 == 1:
        w = iterated_laplacian_arr(g, arr, (m - 1) // 2)
        gn = grad_norm_arr(g, w)
        dead = np.all(gn == 0.0, axis=0)
    else:
        w = iterated_laplacian_arr(g, arr, m // 2)
        dead = np.all(w == 0.0, axis=0)
    if np.all(dead):
        return np.zeros_like(arr)
    if np.any(dead):
        return _on_live(lambda a: poly_lap_apply_arr(g, a, m, p), arr, dead)
    if m % 2 == 1:
        inner = weighted_p_lap_arr(g, w, power_coeff(gn, p))
        return -iterated_laplacian_arr(g, inner, (m - 1) // 2)
    z = power_coeff(np.abs(w), p) * w
    return iterated_laplacian_arr(g, z, m // 2)


def poly_lap_weak_arr(g: WeightedGraph, u_arr: np.ndarray, phi_arr: np.ndarray,
                      m: int, p: float) -> float:
    """The weak pairing <L_{m,p} u, phi> of the definition."""
    m, p = _check_order(m), _check_exponent(p)
    if m % 2 == 1:
        k = (m - 1) // 2
        w = iterated_laplacian_arr(g, u_arr, k)
        eta = iterated_laplacian_arr(g, phi_arr, k)
        gn = grad_norm_arr(g, w)
        if np.all(gn == 0.0):
            return 0.0
        return float((g.mu * power_coeff(gn, p)) @ gamma_arr(g, w, eta))
    k = m // 2
    w = iterated_laplacian_arr(g, u_arr, k)
    z = iterated_laplacian_arr(g, phi_arr, k)
    if np.all(w == 0.0):
        return 0.0
    return float((g.mu * power_coeff(np.abs(w), p) * w) @ z)


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
    return poly_lap_weak_arr(g, u.values, phi.values, m, p)


def poly_lap_pointwise(g: WeightedGraph, u: VertexFunction, m: int, p: float) -> VertexFunction:
    """Pointwise L_{m,p} u, extracted by testing against every vertex indicator.

    The value at x is the weak pairing against the indicator of x divided by
    mu(x); indicators span all vertex functions, so this is the unique
    function reproducing the weak form.  It makes one pairing per vertex and
    is the reference for poly_lap_apply_arr.
    """
    check_domain(g, u)
    pairings = np.array([poly_lap_weak_arr(g, u.values, e, m, p)
                         for e in np.eye(g.n_vertices)])
    return VertexFunction(g, pairings / g.mu)


def lr_norm(g: WeightedGraph, u: VertexFunction, r: float) -> float:
    """The L^r(V) norm (sum of mu |u|^r)^(1/r), for r >= 1."""
    check_domain(g, u)
    r = float(r)
    if r < 1.0:
        raise BadParam(f"lr_norm requires r >= 1, got {r}")
    return float(np.dot(g.mu, np.abs(u.values) ** r) ** (1.0 / r))
