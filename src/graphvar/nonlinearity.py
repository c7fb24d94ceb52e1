"""Pluggable nonlinearities F(x, s, t) with partial derivatives and the
metadata the interval computations consume (growth bound, radial envelope).

Both built-in families are specified through piecewise partial derivatives
that are even functions of s (and t).  F itself is recovered by integrating
those partials from the origin, which makes F odd in each variable and keeps
F_s(x, 0, t) equal to the displayed first-branch value rather than zero.
Each branch of a partial is declared once, as a sum of power terms in |s|;
F's branches are derived from them at construction, term by term, with each
branch constant fixed by continuity at the seam below it.  The tests
integrate the partials by quadrature and compare.

A model either looks the same from every vertex (``support is None``, the
finite case of example 6.1) or vanishes off the single vertex ``support``
(the locally finite case of example 6.2, whose radial envelope a bounds |F|
there with b the indicator of that vertex).  ``F_on`` / ``Fs_on`` /
``Ft_on`` evaluate a model at every vertex of a graph, on 1-D vertex
values or on (n_vertices, k) batches; that is the only vertex-aware path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParam, InconsistentDerivative
from .graph import WeightedGraph, doc_number

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GrowthData:
    """Witness for the sub-(p, q) growth bound F <= f1 |s|^alpha + f2 |t|^beta + g.

    The constants live on the support vertex when the model has one and on
    every vertex otherwise.
    """

    alpha: float
    beta: float
    f1: float
    f2: float
    g: float


@dataclass(frozen=True)
class DerivativeCheck:
    samples_used: int
    max_discrepancy: float
    max_tolerance_ratio: float
    passed: bool


@dataclass(frozen=True, eq=False)
class NonlinearityModel:
    """F(x, s, t), its partials and the data the interval computations read.

    The evaluators F, Fs and Ft take s and t of one shape (0-d included) and
    return values of that shape; the grid box maximum also passes F an
    (n, 1) s-column with a (1, n) t-row and needs a result that broadcasts
    to (n, n).  Off ``support`` (when set) the model is zero.  ``envelope``
    is the radial function a with |F(support, s, t)| <= a(|(s, t)|).
    Models compare and hash by identity.
    """

    name: str
    F: Evaluator
    Fs: Evaluator
    Ft: Evaluator
    support: Optional[str] = None
    growth: Optional[GrowthData] = None
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None
    seams_s: tuple[float, ...] = ()
    seams_t: tuple[float, ...] = ()
    s_scale: float = 1.0
    t_scale: float = 0.0
    requires_derivative_check: bool = False  # tabulated models, before solving
    params: dict = field(default_factory=dict)

    # -- evaluation at every vertex of a graph --------------------------------

    def _on(self, g: WeightedGraph, fn: Evaluator, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.support is None:
            return fn(u, v)
        out = np.zeros(u.shape)
        i = g.index(self.support)
        if u.ndim == 1:
            out[i] = fn(u[i], v[i])
        else:  # one scalar call per column, as the 1-D path makes
            out[i] = [fn(a, b) for a, b in zip(u[i], v[i])]
        return out

    def F_on(self, g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._on(g, self.F, u, v)

    def Fs_on(self, g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._on(g, self.Fs, u, v)

    def Ft_on(self, g: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._on(g, self.Ft, u, v)

    def zero_is_excluded(self) -> bool:
        """True when F_s or F_t is nonzero at the origin at some vertex, so
        the zero state cannot solve the system for any positive parameter."""
        z = np.array(0.0)
        return bool(abs(float(self.Fs(z, z))) > 0.0 or abs(float(self.Ft(z, z))) > 0.0)


def _odd(fabs: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    def wrapped(s):
        if np.ndim(s) == 0:  # scalar fast path, hot in the solver
            s = float(s)
            return -fabs(-s) if s < 0.0 else fabs(s)
        return np.sign(s) * fabs(np.abs(s))
    return wrapped


def _even(fabs: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    def wrapped(s):
        if np.ndim(s) == 0:
            return fabs(abs(float(s)))
        return fabs(np.abs(s))
    return wrapped


def _power_sum(const: float, terms: tuple) -> Callable:
    """k -> const + c1 k^e1 + c2 k^e2 + ... for (c, e) terms, added in the
    order given after the constant, into which the e = 0 terms are folded."""
    for c, e in terms:
        const = const + c if e == 0 else const
    powers = tuple((c, e) for c, e in terms if e != 0)

    def value(k):
        out = const
        for c, e in powers:
            out = out + c * (k if e == 1 else k ** e)
        return out
    return value


def _branchwise(rows: tuple) -> Callable:
    """Piecewise evaluator on k >= 0 from (bound, closed, fn) rows: fn applies
    up to bound (inclusive when closed); the last row is the unbounded tail.
    Scalars take a plain-python branch; arrays nest np.where from the tail
    inwards, so the first matching branch wins.  A bounded branch runs on
    the whole array clipped to its bound, so one that loses cannot overflow
    and one that wins sees k itself."""
    *bounded, (_, _, tail) = rows

    def evaluate(k):
        if np.ndim(k) == 0:
            k = float(k)
            for bound, shut, fn in bounded:
                if k <= bound if shut else k < bound:
                    return fn(k)
            return tail(k)
        out = tail(k)
        for bound, shut, fn in reversed(bounded):
            out = np.where(k <= bound if shut else k < bound, fn(np.minimum(k, bound)), out)
        return out
    return evaluate


def _radial(w: float, j: int, a: int, r: float, closed: bool) -> tuple[Callable, Callable, tuple]:
    """One builtin axis: its partial f (even), F = the integral of f from 0
    (odd), and F's leading tail term (coefficient, exponent).

    f on k = |s| is (w - k) up to w, k^j - w^j up to a w (inclusive when
    `closed`) and (a w)^r k^(j-r) - w^j past it, each branch a (bound,
    closed, terms) record of (coefficient, exponent) terms in k.  F
    integrates them term by term; each F branch's constant makes F
    continuous at the seam below it."""
    branches = ((w, True, ((w, 0), (-1.0, 1))),
                (a * w, closed, ((1.0, j), (-w ** j, 0))),
                (np.inf, False, (((a * w) ** r, j - r), (-w ** j, 0))))
    f_rows, F_rows, below, prev = [], [], 0.0, None
    for bound, shut, terms in branches:
        f_rows.append((bound, shut, _power_sum(0.0, terms)))
        terms = tuple((c / (e + 1), e + 1) for c, e in terms)
        const = 0.0 if prev is None else prev(below) - _power_sum(0.0, terms)(below)
        prev = _power_sum(const, terms)
        F_rows.append((bound, shut, prev))
        below = bound
    return _even(_branchwise(tuple(f_rows))), _odd(_branchwise(tuple(F_rows))), terms[0]


# ---------------------------------------------------------------------------
# built-in family 1: the coupled model behind the finite 9-vertex fixture
# ---------------------------------------------------------------------------

def builtin_example_6_1(omega1: float, omega2: float,
                        r1: float = 2.0, r2: float = 3.0) -> NonlinearityModel:
    """Coupled nonlinearity with three radial branches in each variable.

    dF/ds is (w1 - |s|) up to |s| = w1, then |s|^3 - w1^3, then the tempered
    tail (4 w1)^r1 |s|^(3-r1) - w1^3; dF/dt follows the same pattern with
    (w2, fourth powers, 5 w2, r2).  Requires finite w1, w2 > 0 and
    (r1, r2) in (1, 2] x (1, 3].
    """
    w1, w2 = float(omega1), float(omega2)
    r1, r2 = float(r1), float(r2)
    if not (0.0 < w1 < np.inf and 0.0 < w2 < np.inf):
        raise BadParam(f"omega parameters must be positive and finite, got ({w1}, {w2})")
    if not (1.0 < r1 <= 2.0):
        raise BadParam(f"r1 must lie in (1, 2], got {r1}")
    if not (1.0 < r2 <= 3.0):
        raise BadParam(f"r2 must lie in (1, 3], got {r2}")

    # the seam |s| = 4 w1 (and |t| = 5 w2) belongs to the outer branch
    f_s, F_s, (f1, alpha) = _radial(w1, 3, 4, r1, closed=False)
    f_t, F_t, (f2, beta) = _radial(w2, 4, 5, r2, closed=False)
    growth = GrowthData(
        alpha=alpha, beta=beta, f1=f1, f2=f2,
        g=(0.5 * w1 ** 2 + 0.25 * (4 * w1) ** 4 + 0.75 * w1 ** 4
           + 0.5 * w2 ** 2 + (5 * w2) ** 5 / 5.0 + 0.8 * w2 ** 5))

    return NonlinearityModel(
        name="example_6_1",
        F=lambda s, t: F_s(s) + F_t(t),
        Fs=lambda s, t: f_s(s),
        Ft=lambda s, t: f_t(t),
        growth=growth,
        seams_s=(0.0, w1, 4 * w1),
        seams_t=(0.0, w2, 5 * w2),
        s_scale=4 * w1,
        t_scale=5 * w2,
        params={"omega1": w1, "omega2": w2, "r1": r1, "r2": r2})


# ---------------------------------------------------------------------------
# built-in family 2: the scalar model supported at a single vertex
# ---------------------------------------------------------------------------

def builtin_example_6_2(omega: float, r: float = 5.0, support: str = "x0") -> NonlinearityModel:
    """Scalar nonlinearity living on one vertex, zero everywhere else.

    f(x0, s) is (w - |s|) up to |s| = w, then |s|^5 - w^5 on (w, 6 w], then
    the tempered tail (6 w)^r |s|^(5-r) - w^5.  Requires finite w > 0 and
    r in (3, 5].  Ships the radial envelope a(rho) = |f(x0, rho)| + 1
    (b is the indicator of the support vertex).
    """
    w = float(omega)
    r = float(r)
    if not 0.0 < w < np.inf:
        raise BadParam(f"omega must be positive and finite, got {w}")
    if not (3.0 < r <= 5.0):
        raise BadParam(f"r must lie in (3, 5], got {r}")

    f_s, F_s, (f1, alpha) = _radial(w, 5, 6, r, closed=True)
    growth = GrowthData(
        alpha=alpha, beta=0.0, f1=f1, f2=0.0,
        g=0.5 * w ** 2 + (6 ** 6 + 5) / 6.0 * w ** 6)

    return NonlinearityModel(
        name="example_6_2",
        F=lambda s, t: F_s(s),
        Fs=lambda s, t: f_s(s),
        Ft=lambda s, t: np.zeros_like(s, dtype=float),
        support=str(support),
        growth=growth,
        envelope=_even(lambda k: F_s(k) + 1.0),
        seams_s=(0.0, w, 6 * w),
        seams_t=(),
        s_scale=6 * w,
        t_scale=0.0,
        params={"omega": w, "r": r, "support": str(support)})


# ---------------------------------------------------------------------------
# tabulated custom models
# ---------------------------------------------------------------------------

def tabulated_model(s_grid, t_grid, values, name: str = "table") -> NonlinearityModel:
    """Bilinear interpolation of F over an (s, t) grid; partials are the exact
    cell-wise derivatives of the interpolant.  Arguments are clamped to the
    grid hull.  Run derivative_consistency before solving with one of these.
    """
    s = np.asarray(s_grid, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    z = np.asarray(values, dtype=float)
    if s.ndim != 1 or t.ndim != 1 or len(s) < 2 or len(t) < 2:
        raise BadParam("table needs at least a 2x2 grid")
    if not (np.isfinite(s).all() and np.isfinite(t).all() and np.isfinite(z).all()):
        raise BadParam(f"table {name!r} has a node or value that is not finite")
    if np.any(np.diff(s) <= 0) or np.any(np.diff(t) <= 0):
        raise BadParam("table grids must be strictly increasing")
    if z.shape != (len(s), len(t)):
        raise BadParam(f"table values must have shape {(len(s), len(t))}, got {z.shape}")

    def _locate(grid, x):
        x = np.clip(x, grid[0], grid[-1])
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
        return i, (x - grid[i]) / (grid[i + 1] - grid[i])

    def _cell(sv, tv):
        """The broadcast arguments, their cell indices and fractions, and
        the cell's corner values z00, z10, z01, z11."""
        sv, tv = np.broadcast_arrays(np.asarray(sv, dtype=float), np.asarray(tv, dtype=float))
        si, sf = _locate(s, sv)
        ti, tf = _locate(t, tv)
        corners = z[si, ti], z[si + 1, ti], z[si, ti + 1], z[si + 1, ti + 1]
        return sv, tv, si, ti, sf, tf, corners

    def F(sv, tv):
        _, _, _, _, sf, tf, (z00, z10, z01, z11) = _cell(sv, tv)
        return ((1 - sf) * (1 - tf) * z00 + sf * (1 - tf) * z10
                + (1 - sf) * tf * z01 + sf * tf * z11)

    def Fs(sv, tv):
        sv, _, si, _, _, tf, (z00, z10, z01, z11) = _cell(sv, tv)
        slope = ((1 - tf) * (z10 - z00) + tf * (z11 - z01)) / (s[si + 1] - s[si])
        return np.where((sv < s[0]) | (sv > s[-1]), 0.0, slope)  # clamped outside

    def Ft(sv, tv):
        _, tv, _, ti, sf, _, (z00, z10, z01, z11) = _cell(sv, tv)
        slope = ((1 - sf) * (z01 - z00) + sf * (z11 - z10)) / (t[ti + 1] - t[ti])
        return np.where((tv < t[0]) | (tv > t[-1]), 0.0, slope)

    return NonlinearityModel(
        name=name, F=F, Fs=Fs, Ft=Ft,
        seams_s=tuple(abs(x) for x in s),
        seams_t=tuple(abs(x) for x in t),
        s_scale=float(np.max(np.abs(s))),
        t_scale=float(np.max(np.abs(t))),
        requires_derivative_check=True,
        params={"s": s.tolist(), "t": t.tolist()})


def nonlinearity_from_doc(doc: dict) -> NonlinearityModel:
    """Build a model from its JSON document: a named builtin or a table."""
    if "builtin" in doc:
        params = {name: value if name == "support" else
                  doc_number(value, f"nonlinearity parameter {name!r}")
                  for name, value in doc.get("params", {}).items()}
        kind = doc["builtin"]
        if kind == "example_6_1":
            return builtin_example_6_1(**params)
        if kind == "example_6_2":
            return builtin_example_6_2(**params)
        raise BadParam(f"unknown builtin nonlinearity {kind!r}")
    if "table" in doc:
        tab = doc["table"]
        for key in ("s", "t", "values"):
            for value in np.asarray(tab[key], dtype=object).flat:
                doc_number(value, f"an entry of table {key!r}")
        return tabulated_model(tab["s"], tab["t"], tab["values"])
    raise BadParam("nonlinearity document needs a 'builtin' or 'table' entry")


def nonlinearity_to_doc(model: NonlinearityModel) -> dict:
    if model.name in ("example_6_1", "example_6_2"):
        return {"builtin": model.name, "params": dict(model.params)}
    if "s" in model.params:
        raise BadParam("tabulated models round-trip through their defining table")
    raise BadParam(f"model {model.name!r} has no document form")


# ---------------------------------------------------------------------------
# numerical validation
# ---------------------------------------------------------------------------

def _sample_axis(rng, span: float, seams: tuple[float, ...], count: int,
                 exclusion: float) -> np.ndarray:
    """Uniform samples in [-span, span] with |x| kept clear of every seam."""
    if span <= 0.0:
        return np.zeros(count)
    out = np.empty(0)
    while len(out) < count:
        cand = rng.uniform(-span, span, size=4 * count)
        if seams:
            dist = np.min(np.abs(np.abs(cand)[:, None] - np.asarray(seams)), axis=1)
            cand = cand[dist > exclusion]
        out = np.concatenate([out, cand])
    return out[:count]


def derivative_consistency(model: NonlinearityModel, samples: int = 1000,
                           step: float = 1e-5) -> DerivativeCheck:
    """Compare central differences of F against the declared partials.

    Points within 10*step of a piecewise seam are excluded.  The tolerance at
    each point is max(1e-6, 1e-4 |partial|); exceeding it raises
    InconsistentDerivative.
    """
    if samples < 1:
        raise BadParam("samples must be >= 1")
    if step <= 0.0:
        raise BadParam("step must be positive")
    rng = np.random.default_rng(170)
    s_span = 1.5 * max((model.s_scale,) + model.seams_s) if model.s_scale else 0.0
    t_span = 1.5 * max((model.t_scale,) + model.seams_t) if model.t_scale else 0.0
    s = _sample_axis(rng, s_span, model.seams_s, samples, 10 * step)
    t = _sample_axis(rng, t_span, model.seams_t, samples, 10 * step)

    worst = 0.0
    worst_ratio = 0.0
    for fn, dfn, axis in ((model.F, model.Fs, "s"), (model.F, model.Ft, "t")):
        if axis == "s":
            hi, lo = fn(s + step, t), fn(s - step, t)
        else:
            if t_span == 0.0:
                continue
            hi, lo = fn(s, t + step), fn(s, t - step)
        fd = (hi - lo) / (2.0 * step)
        exact = dfn(s, t)
        gap = np.abs(fd - exact)
        tol = np.maximum(1e-6, 1e-4 * np.abs(exact))
        worst = max(worst, float(np.max(gap)))
        worst_ratio = max(worst_ratio, float(np.max(gap / tol)))
    passed = worst_ratio <= 1.0
    report = DerivativeCheck(samples_used=samples, max_discrepancy=worst,
                             max_tolerance_ratio=worst_ratio, passed=passed)
    if not passed:
        raise InconsistentDerivative(
            f"partials disagree with finite differences of F "
            f"(max discrepancy {worst:.3e}, {worst_ratio:.2f}x tolerance)")
    return report


# The declared bounds are checked on BOUND_SAMPLES random (s, t) points with
# |s| <= BOUND_SPAN * max(s_scale, 1), likewise t, from a fixed seed per bound.
BOUND_SAMPLES, BOUND_SPAN = 10000, 4.0
GROWTH_SEED, ENVELOPE_SEED = 411, 412


def _bound_samples(model: NonlinearityModel, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    s_span = BOUND_SPAN * max(model.s_scale, 1.0)
    s = rng.uniform(-s_span, s_span, BOUND_SAMPLES)
    t_span = BOUND_SPAN * max(model.t_scale, 1.0) if model.t_scale else 0.0
    t = rng.uniform(-t_span, t_span, BOUND_SAMPLES) if t_span else np.zeros(BOUND_SAMPLES)
    return s, t


def growth_bound_gap(model: NonlinearityModel) -> float:
    """Largest violation of F <= f1 |s|^alpha + f2 |t|^beta + g on a random
    grid (nonpositive return means the bound held everywhere sampled)."""
    if model.growth is None:
        raise BadParam("model declares no growth data")
    gr = model.growth
    s, t = _bound_samples(model, GROWTH_SEED)
    bound = gr.f1 * np.abs(s) ** gr.alpha + gr.f2 * np.abs(t) ** gr.beta + gr.g
    return float(np.max(model.F(s, t) - bound))


def envelope_bound_gap(model: NonlinearityModel) -> float:
    """Largest violation of |F| <= a(|(s, t)|) at the support vertex.

    This is the part of the envelope hypothesis that the admissible-interval
    numerator actually uses.
    """
    if model.envelope is None:
        raise BadParam("model declares no envelope")
    s, t = _bound_samples(model, ENVELOPE_SEED)
    rho = np.hypot(s, t)
    return float(np.max(np.abs(model.F(s, t)) - model.envelope(rho)))
