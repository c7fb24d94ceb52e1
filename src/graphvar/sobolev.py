"""W^{m,l}(V) norms and the constants of the discrete embedding inequalities.

On a finite graph, every function with max-norm 1 has W-norm at least
(mu_min h_min)^(1/l), which yields the sup embedding constant; the L^r
embedding follows by integrating the sup bound.  On locally finite graphs
the same constants hold with the explicit floor values (h0, mu0) in place of
the finite minima; the floors are inputs, never inferred from a truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .calculus import m_grad_norm_arr
from .errors import BadParam, NonPositivePotential
from .graph import VertexFunction, WeightedGraph, check_domain


@dataclass(frozen=True)
class SobolevSpec:
    """Order m, an integer >= 1; exponent l > 1; and strictly positive
    potential h.  An integral float or NumPy integer order is stored as an
    int, and the exponent as a float; strings are rejected."""

    m: int
    l: float
    h: VertexFunction

    def __post_init__(self):
        m, l = self.m, self.l
        if not (isinstance(m, Real) and not isinstance(m, bool)
                and float(m).is_integer() and m >= 1):
            raise BadParam(f"Sobolev order m must be an integer >= 1, got {m!r}")
        if not (isinstance(l, Real) and 1.0 < l < np.inf):
            raise BadParam(f"Sobolev exponent l must be finite and > 1, got {l!r}")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "l", float(l))
        _check_potential(self.h.values)


def _check_potential(h_arr: np.ndarray) -> None:
    if np.any(h_arr <= 0.0):
        raise NonPositivePotential("potential h must be strictly positive on every vertex")


def _check_exponents(*exps: float) -> None:
    if not all(1.0 < float(e) < np.inf for e in exps):
        raise BadParam(f"embedding exponents must be finite and exceed 1, got {exps}")


def _check_floors(h0: float, mu0: float) -> None:
    if not (0.0 < h0 < np.inf and 0.0 < mu0 < np.inf):
        raise NonPositivePotential(f"floors must be positive and finite, got h0={h0}, mu0={mu0}")


def w_norm_power(g: WeightedGraph, u: VertexFunction, spec: SobolevSpec) -> float:
    """The l-th power of the W-norm: integral of |grad^m u|^l + h |u|^l."""
    check_domain(g, u, spec.h)
    gn = m_grad_norm_arr(g, u.values, spec.m)
    dens = gn ** spec.l + spec.h.values * np.abs(u.values) ** spec.l
    return float(np.dot(g.mu, dens))


def w_norm(g: WeightedGraph, u: VertexFunction, spec: SobolevSpec) -> float:
    """The W^{m,l}(V) norm of u."""
    return w_norm_power(g, u, spec) ** (1.0 / spec.l)


def sup_embedding_const(g: WeightedGraph, l: float, h: VertexFunction) -> float:
    """d_l with max|u| <= d_l ||u||_W on a finite graph."""
    check_domain(g, h)
    _check_potential(h.values)
    _check_exponents(l)
    return float((1.0 / (np.min(g.mu) * np.min(h.values))) ** (1.0 / l))


def lr_embedding_const(g: WeightedGraph, l: float, r: float, h: VertexFunction) -> float:
    """K_{l,r} with ||u||_{L^r} <= K_{l,r} ||u||_W on a finite graph."""
    check_domain(g, h)
    _check_potential(h.values)
    _check_exponents(l, r)
    total = float(np.sum(g.mu))
    return float(total ** (1.0 / r) / (np.min(g.mu) * np.min(h.values)) ** (1.0 / l))


def sup_embedding_const_floors(l: float, h0: float, mu0: float) -> float:
    """Sup-norm embedding constant from floor values on a locally finite graph."""
    _check_floors(h0, mu0)
    _check_exponents(l)
    return float((1.0 / (h0 * mu0)) ** (1.0 / l))


def lr_embedding_const_floors(l: float, r: float, h0: float, mu0: float) -> float:
    """L^r embedding constant from floors, valid for l <= r < infinity."""
    _check_floors(h0, mu0)
    _check_exponents(l, r)
    if r < l:
        raise BadParam(f"floor-based L^r embedding needs r >= l, got l={l}, r={r}")
    return float(mu0 ** ((l - r) / (l * r)) * h0 ** (-1.0 / l))
