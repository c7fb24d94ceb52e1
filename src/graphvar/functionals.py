"""Variational energies of the graph systems with k = 1 or 2 unknowns,
together with their exact gradients.

A problem holds one Sobolev component (m_i, l_i, h_i) per unknown.  For a
parameter lam > 0 its action is

    action(u_1, ..., u_k) = sum_i (1/l_i) ||u_i||^{l_i}_{W^{m_i,l_i}}
                            - lam * integral of F(x, u_1, u_2)

with u_2 = 0 in F when k = 1: the coupled system has k = 2, components
(m1, p, h1) and (m2, q, h2); its scalar reduction has k = 1.  The Gateaux
derivative is represented pointwise: the returned gradient (G_1, ..., G_k)
satisfies

    d/de action(u + e phi) |_{e=0} = sum_i integral of G_i phi_i

so a state is a critical point exactly when the pointwise system residual
vanishes; the solver's convergence metric and the equation defect are one
object.  The operator term follows the weak-form sign convention throughout
(L_{1,p} = -Delta_p), which keeps the two formulations of the system
consistent.

A problem also exposes a flat-vector view (pack/unpack, action, euclidean
gradient) used by the numerical solver: component i occupies entries
[i n, (i + 1) n) of the vector.  Euclidean gradients carry the vertex
measure, pointwise residuals do not.  The vector methods also take a batch
of k states as the columns of an (n_dofs, k) array and then return k
values, or an (n_dofs, k) array; column j equals, bit for bit, the call on
column j alone.  The residual's reach, m hops per component, also fixes
the solver's compressed Jacobians; a problem builds that pattern
(`jacobian_pattern`) on first use and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .calculus import _along, m_grad_norm_arr, poly_lap_apply_arr, signed_power
from .errors import BadParam
from .graph import VertexFunction, WeightedGraph, check_domain, finite_real
from .nonlinearity import NonlinearityModel
from .sobolev import SobolevSpec


def _integrate(g: WeightedGraph, vals: np.ndarray):
    """sum_x mu(x) vals(x): a float, or one per column of a batch.

    A batch is one vecdot over the contiguous rows of vals.T, the BLAS dot
    of the 1-D call; a matrix product or a strided dot sums in another
    order.  On one vertex np.dot is a product, which keeps a -0.0 that the
    vecdot sum (started at +0.0) does not, so the batch multiplies too."""
    if vals.ndim == 1:
        return float(np.dot(g.mu, vals))
    if g.n_vertices == 1:
        return vals[0] * g.mu[0]
    return np.vecdot(np.ascontiguousarray(vals.T), g.mu)


def _w_power_arr(g: WeightedGraph, arr: np.ndarray, m: int, l: float,
                 h_arr: np.ndarray):
    gn = m_grad_norm_arr(g, arr, m)
    return _integrate(g, gn ** l + _along(h_arr, arr) * np.abs(arr) ** l)


def _phi_grad_arr(g: WeightedGraph, arr: np.ndarray, m: int, l: float,
                  h_arr: np.ndarray) -> np.ndarray:
    """Pointwise representative of the derivative of (1/l) ||.||^l_{W^{m,l}}."""
    return poly_lap_apply_arr(g, arr, m, l) + _along(h_arr, arr) * signed_power(arr, l)


@dataclass
class StatePair:
    """A candidate state (u, v) of the coupled system."""

    u: VertexFunction
    v: VertexFunction


# A state: one vertex function for k = 1, a pair for k = 2.
State = Union[VertexFunction, StatePair]


@dataclass(frozen=True)
class Problem:
    """A system on a finite graph: one Sobolev component (order m, exponent
    l > 1, strictly positive potential h) per unknown, k = 1 or 2 of them,
    and a nonlinearity F(x, s, t) whose slots past k are held at zero.  The
    parameter lam is per-call, not stored."""

    graph: WeightedGraph
    components: tuple[SobolevSpec, ...]
    nonlinearity: NonlinearityModel
    # (entries of z, m, l, h values) per component, and mu once per component
    _blocks: tuple = field(init=False, repr=False, compare=False)
    mu_dofs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        k = len(self.components)
        if k not in (1, 2):
            raise BadParam(f"a problem has 1 or 2 components, got {k}")
        check_domain(self.graph, *(c.h for c in self.components))
        n = self.graph.n_vertices
        object.__setattr__(self, "_blocks", tuple(
            (slice(i * n, (i + 1) * n), c.m, c.l, c.h.values)
            for i, c in enumerate(self.components)))
        object.__setattr__(self, "mu_dofs", np.concatenate([self.graph.mu] * k))

    # -- flat-vector view (solver interface) ----------------------------------

    @property
    def n_dofs(self) -> int:
        return len(self.components) * self.graph.n_vertices

    def pack_state(self, w: State) -> np.ndarray:
        parts = (w,) if len(self.components) == 1 else (w.u, w.v)
        check_domain(self.graph, *parts)
        return np.concatenate([f.values for f in parts])

    def unpack_state(self, z: np.ndarray) -> State:
        parts = [VertexFunction(self.graph, z[sl]) for sl, *_ in self._blocks]
        return parts[0] if len(parts) == 1 else StatePair(*parts)

    def _slots(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nonlinearity's (s, t) arguments at z: t = 0 for one component."""
        if len(self.components) == 1:
            return z, np.zeros_like(z)
        n = self.graph.n_vertices
        return z[:n], z[n:]

    def action_vec(self, lam: float, z: np.ndarray):
        """The action at z; lam = 0 gives sum_i (1/l_i) ||u_i||^{l_i}."""
        g = self.graph
        val = 0.0
        for sl, m, l, h in self._blocks:
            val += _w_power_arr(g, z[sl], m, l, h) / l
        if lam != 0.0:
            val -= lam * _integrate(g, self.nonlinearity.F_on(g, *self._slots(z)))
        return val

    def residual_vec(self, lam: float, z: np.ndarray) -> np.ndarray:
        """Pointwise defect of every component's equation, concatenated."""
        g = self.graph
        out = [_phi_grad_arr(g, z[sl], m, l, h) for sl, m, l, h in self._blocks]
        if lam != 0.0:
            model, (s, t) = self.nonlinearity, self._slots(z)
            out[0] = out[0] - lam * model.Fs_on(g, s, t)
            if len(out) == 2:
                out[1] = out[1] - lam * model.Ft_on(g, s, t)
        return out[0] if len(out) == 1 else np.concatenate(out)

    @cached_property
    def jacobian_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask, colours) of the compressed Jacobians of residual_vec: the
        `_sparsity` mask and its greedy `_colour_columns`.  Built on first
        use and kept, read-only; a cache, so not part of == or hash."""
        mask = _sparsity(self)
        colour = _colour_columns(mask)
        mask.setflags(write=False)
        colour.setflags(write=False)
        return mask, colour

    def gradient_vec(self, lam: float, z: np.ndarray) -> np.ndarray:
        """Euclidean gradient of action_vec: the residual weighted by mu."""
        return _along(self.mu_dofs, z) * self.residual_vec(lam, z)

    def wnorm_vec(self, z: np.ndarray):
        """Product-space norm: the sum of the components' W-norms."""
        g = self.graph
        powers = [_w_power_arr(g, z[sl], m, l, h) for sl, m, l, h in self._blocks]
        roots = [1.0 / l for _, _, l, _ in self._blocks]
        if z.ndim == 1:
            return sum(w ** r for w, r in zip(powers, roots))
        # the roots stay Python-float powers, which NumPy's array ** does
        # not match in the last bit
        return np.array([sum(w ** r for w, r in zip(col, roots))
                         for col in zip(*(w.tolist() for w in powers))])

    @property
    def start_scale(self) -> float:
        model = self.nonlinearity
        return max(*(model.s_scale, model.t_scale)[:len(self.components)], 1.0)

    @property
    def solver_exponents(self) -> tuple[float, ...]:
        return tuple(c.l for c in self.components)


def _hops(m: int) -> int:
    """Reach of an order-m residual row: L_{m,p} couples vertices m hops
    apart for even m and m + 1 hops apart for odd m (the coefficient
    |grad D^k u|^(p-2) reaches one hop past the gradient)."""
    return m if m % 2 == 0 else m + 1


def _sparsity(prob: Problem) -> np.ndarray:
    """Boolean n_dofs x n_dofs mask: entry (i, j) is set when residual row i
    depends on coordinate j.

    Each component couples within its operator's reach, the boolean power
    of the 0/1 adjacency with the identity, thresholded after each hop so
    the products count exactly at any BLAS thread count; with two
    components a row also holds the other component at the same vertex,
    which any pointwise nonlinearity can couple.
    """
    g = prob.graph
    eye = np.eye(g.n_vertices, dtype=bool)
    step = np.eye(g.n_vertices)
    a, b = g.edge_index.T
    step[a, b] = step[b, a] = 1.0
    reach = []
    for c in prob.components:
        r = eye
        for _ in range(_hops(c.m)):
            r = r @ step > 0.0
        reach.append(r)
    k = len(reach)
    return np.block([[reach[c] if d == c else eye for d in range(k)] for c in range(k)])


def _colour_columns(mask: np.ndarray) -> np.ndarray:
    """Greedy colouring of the column-intersection graph in column order:
    columns that share a row get different colours."""
    cols = mask.astype(float)
    share = cols.T @ cols > 0.0
    colour = np.full(len(mask), -1, dtype=np.intp)
    for j in range(len(mask)):
        taken = set(colour[share[j]].tolist())
        c = 0
        while c in taken:
            c += 1
        colour[j] = c
    return colour


def ProblemSpec(*, graph: WeightedGraph, m1: int, m2: int, p: float, q: float,
                h1: VertexFunction, h2: VertexFunction,
                nonlinearity: NonlinearityModel) -> Problem:
    """The coupled system: orders (m1, m2), exponents (p, q) > 1, strictly
    positive potentials (h1, h2), and a nonlinearity."""
    return Problem(graph, (SobolevSpec(m1, p, h1), SobolevSpec(m2, q, h2)), nonlinearity)


def ScalarProblem(*, graph: WeightedGraph, m: int, p: float, h: VertexFunction,
                  nonlinearity: NonlinearityModel) -> Problem:
    """The single-unknown reduction: order m, exponent p, potential h, and a
    nonlinearity whose t-slot is held at zero."""
    return Problem(graph, (SobolevSpec(m, p, h),), nonlinearity)


# ---------------------------------------------------------------------------
# public energy / gradient operations
# ---------------------------------------------------------------------------

def _check_lambda(lam: float) -> float:
    lam = finite_real(lam, "the parameter")
    if not lam >= 0.0:
        raise BadParam(f"the parameter must be nonnegative, got {lam}")
    return lam


def phi_energy(prob: Problem, w: State) -> float:
    """sum_i (1/l_i) ||u_i||^{l_i}; zero exactly at the zero state."""
    return prob.action_vec(0.0, prob.pack_state(w))


def psi_energy(prob: Problem, w: State) -> float:
    """Integral of F(x, u(x), v(x)) against the vertex measure (v = 0 for
    one component)."""
    g = prob.graph
    slots = prob._slots(prob.pack_state(w))
    return float(np.dot(g.mu, prob.nonlinearity.F_on(g, *slots)))


def action(prob: Problem, lam: float, w: State) -> float:
    """phi_energy - lam * psi_energy (lam = 0 is allowed for testing)."""
    lam = _check_lambda(lam)
    return prob.action_vec(lam, prob.pack_state(w))


def action_gradient(prob: Problem, lam: float, w: State) -> State:
    """Pointwise gradient (G_u, G_v) of the action at w.

    G_u = L_{m1,p} u + h1 |u|^{p-2} u - lam F_s(x, u, v), and symmetrically
    for G_v; pairing G against a direction with `integrate` reproduces the
    directional derivative of `action`.
    """
    lam = _check_lambda(lam)
    return prob.unpack_state(prob.residual_vec(lam, prob.pack_state(w)))


def monotonicity_gap(prob: Problem, w1: State, w2: State) -> float:
    """Pairing of Phi'(w1) - Phi'(w2) against w1 - w2 (lam-independent).

    The uniform-monotonicity lower bounds hold for exponents >= 2, so that
    is the accepted range.
    """
    if min(prob.solver_exponents) < 2.0:
        raise BadParam(
            f"monotonicity gap is defined for exponents >= 2, got {prob.solver_exponents}")
    z1, z2 = prob.pack_state(w1), prob.pack_state(w2)
    diff = prob.residual_vec(0.0, z1) - prob.residual_vec(0.0, z2)
    return float(np.dot(prob.mu_dofs * diff, z1 - z2))


def monotonicity_modulus(p: float, q: float, t: float) -> float:
    """The modulus a(t) with gap >= a(||dw||) ||dw||: exponent max(p,q)-1 up
    to t = 1 and min(p,q)-1 beyond, scaled by min(c_p, c_q) / 2^(max(p,q)-1)
    with c_r = 2^(2-r)."""
    c = min(2.0 ** (2.0 - p), 2.0 ** (2.0 - q))
    hi, lo = max(p, q), min(p, q)
    expo = hi - 1.0 if t <= 1.0 else lo - 1.0
    return c / 2.0 ** (hi - 1.0) * t ** expo


def w_distance(prob: Problem, w1: State, w2: State) -> float:
    """Product-space distance ||u1-u2||_{W^{m1,p}} + ||v1-v2||_{W^{m2,q}}."""
    return prob.wnorm_vec(prob.pack_state(w1) - prob.pack_state(w2))
