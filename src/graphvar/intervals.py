"""Admissible-parameter intervals for the three-solution results.

One finite path and one locally-finite path serve problems with k = 1 or 2
components (m_i, l_i, h_i); the theorem label comes from k and the mode:
T1.1 / T1.2 for the coupled system, T5.1 / T5.2 for its scalar reduction.
Both take k gammas then k deltas.  On a finite graph the interval is
(1/L2, 1/L1) with

    r  = sum_i gamma_i^{l_i},
    L1 = max over the box {|s_i| <= s_i,max} of F(x, s) |V| / r,
    L2 = inf_x F(x, delta) |V| / sum_i (delta_i^{l_i} / l_i) int h_i,

where s_i,max = (l_i r)^(1/l_i) / (h_i,min mu_min)^(1/l_i) and slots of F
past k are zero.  On locally finite graphs (orders 1, with Dirichlet
truncation) the endpoints use the radial envelope a and the local masses M_i
concentrated at the support vertex x0.

Each report carries per-hypothesis verdicts with witnesses.  The maxima of F
over the box and of a over [0, rho] are sampled (see box_max_F), and growth
and smoothness hypotheses are checked by sampling (a heuristic, not a proof);
membership/floor hypotheses are exact finite checks on the stored data.
Endpoints are plain 64-bit arithmetic; emitted reports carry 12 significant
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BadParam, InconsistentDerivative, MissingEnvelope
from .functionals import Problem
from .graph import VertexFunction, WeightedGraph, integrate
from .nonlinearity import (
    NonlinearityModel,
    derivative_consistency,
    envelope_bound_gap,
    growth_bound_gap,
)

GRID_POINTS = 513
FINE_POINTS = 2 * GRID_POINTS - 1  # the grid of the refinement gap
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class LocalMass:
    """Local norm masses of the one-vertex test states at x0; M2 is None for
    scalar problems."""

    M1: float
    M2: Optional[float] = None


@dataclass(frozen=True)
class IntervalReport:
    theorem: str
    kappa: tuple[float, ...]
    box: tuple[float, ...]
    lambda_lo: float
    lambda_hi: float
    hypotheses: tuple[HypothesisCheck, ...]
    valid: bool
    refinement_gap: float = 0.0
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_doc(self) -> dict:
        def num(x: float):
            if not math.isfinite(x):
                return None
            return float(f"{x:.12g}")

        return {
            "theorem": self.theorem,
            "kappa": [num(k) for k in self.kappa],
            "box": [num(b) for b in self.box],
            "lambda_lo": num(self.lambda_lo),
            "lambda_hi": num(self.lambda_hi),
            "hypotheses": [
                {"name": h.name, "pass": h.passed, "witness": h.witness}
                for h in self.hypotheses
            ],
            "valid": self.valid,
            "refinement_gap": num(self.refinement_gap),
            "notes": list(self.notes),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "IntervalReport":
        def num(x) -> float:
            return math.inf if x is None else float(x)

        return cls(
            theorem=str(doc["theorem"]),
            kappa=tuple(float(k) for k in doc["kappa"]),
            box=tuple(float(b) for b in doc["box"]),
            lambda_lo=num(doc["lambda_lo"]),
            lambda_hi=num(doc["lambda_hi"]),
            hypotheses=tuple(
                HypothesisCheck(h["name"], bool(h["pass"]), h["witness"])
                for h in doc["hypotheses"]),
            valid=bool(doc["valid"]),
            refinement_gap=num(doc.get("refinement_gap", 0.0)),
            notes=tuple(doc.get("notes", ())),
        )


# ---------------------------------------------------------------------------
# constants kappa and local masses
# ---------------------------------------------------------------------------

def kappa_finite(prob: Problem) -> tuple[float, ...]:
    """kappa_i = ((1/l_i) int h_i dmu)^(-1/l_i), one per component."""
    return tuple(float((integrate(prob.graph, c.h) / c.l) ** (-1.0 / c.l))
                 for c in prob.components)


def _mass_one(g: WeightedGraph, i0: int, expo: float, h_arr: np.ndarray) -> float:
    mu0 = g.mu[i0]
    total = (g.degrees()[i0] / (2.0 * mu0)) ** (expo / 2.0) * mu0 + h_arr[i0] * mu0
    for (a, b), w in zip(g.edge_index, g.edge_weight):
        if a == i0 or b == i0:
            j = b if a == i0 else a
            total += (w / (2.0 * g.mu[j])) ** (expo / 2.0) * g.mu[j]
    return float(total)


def local_mass(g: WeightedGraph, x0: str, p: float, q: Optional[float],
               h1: VertexFunction, h2: Optional[VertexFunction] = None) -> LocalMass:
    """The W-norm mass of a height-1 spike at x0:
    (deg(x0)/2mu(x0))^(p/2) mu(x0) + h1(x0) mu(x0)
    + sum over neighbors y of (w_{x0 y}/2mu(y))^(p/2) mu(y),
    and the q-analogue with h2 when a second component is present."""
    i0 = g.index(x0)
    m1 = _mass_one(g, i0, float(p), h1.values)
    if q is None:
        return LocalMass(M1=m1)
    if h2 is None:
        raise BadParam("h2 is required when q is given")
    return LocalMass(M1=m1, M2=_mass_one(g, i0, float(q), h2.values))


# ---------------------------------------------------------------------------
# box maxima
# ---------------------------------------------------------------------------

def _golden_max(fn, lo: float, hi: float, iters: int = 80) -> tuple[float, float, float]:
    """Golden-section search for a maximum of fn on [lo, hi]: the midpoint
    of the final bracket and the values of fn at the bracket's two probes."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
    return 0.5 * (a + b), fc, fd


def _grid_argmax(vals: np.ndarray) -> tuple:
    """Index of the largest grid value; an overflowed grid (inf or NaN at
    the maximum) raises OverflowError, which the CLI reports as exit 2."""
    i = np.unravel_index(int(np.argmax(vals)), vals.shape)
    if not np.isfinite(vals[i]):
        raise OverflowError(f"the sampled maximum over the box is {vals[i]}")
    return i


def _grid_max_1d(fn, lo: float, hi: float, n: int) -> float:
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(fn(xs), dtype=float)
    i, = _grid_argmax(vals)
    h = (hi - lo) / (n - 1)
    a, b = max(lo, xs[i] - h), min(hi, xs[i] + h)
    scalar_fn = lambda x: float(fn(np.asarray(x)))
    mid, fc, fd = _golden_max(scalar_fn, a, b)
    return max(float(vals[i]), max(scalar_fn(mid), fc, fd))


def _grid_max_2d(fn, s_max: float, t_max: float, n: int) -> float:
    s = np.linspace(-s_max, s_max, n)
    t = np.linspace(-t_max, t_max, n)
    vals = np.asarray(fn(s[:, None], t[None, :]), dtype=float)
    i, j = _grid_argmax(vals)
    best = float(vals[i, j])
    bs, bt = float(s[i]), float(t[j])
    hs, ht = 2.0 * s_max / (n - 1), 2.0 * t_max / (n - 1)
    for _ in range(3):
        bs_lo, bs_hi = max(-s_max, bs - hs), min(s_max, bs + hs)
        bs = _golden_max(lambda x: float(fn(np.asarray(x), np.asarray(bt))),
                         bs_lo, bs_hi)[0]
        bt_lo, bt_hi = max(-t_max, bt - ht), min(t_max, bt + ht)
        bt = _golden_max(lambda x: float(fn(np.asarray(bs), np.asarray(x))),
                         bt_lo, bt_hi)[0]
    return max(best, float(fn(np.asarray(bs), np.asarray(bt))))


def box_max_F(model: NonlinearityModel, s_max: float, t_max: float) -> float:
    """Sampled maximum of F over the closed box |s| <= s_max, |t| <= t_max:
    a GRID_POINTS-per-axis grid followed by golden-section refinement around
    the best cell.  It can fall short of the true maximum, which overstates
    lambda_hi; a report's refinement_gap is how much it moves on a finer grid,
    a sensitivity and not a bound on that error.
    """
    if not (0.0 < s_max < math.inf and 0.0 <= t_max < math.inf):
        raise BadParam(f"box bounds must be finite, s_max > 0 and t_max >= 0, "
                       f"got ({s_max}, {t_max})")
    return _box_grid_max(model, s_max, t_max, GRID_POINTS)


def _box_grid_max(model: NonlinearityModel, s_max: float, t_max: float, n: int) -> float:
    # a grid value past the float range is inf (inf - inf is NaN) and fails
    # the maximum's finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if t_max == 0.0:
            return _grid_max_1d(lambda s: model.F(s, np.zeros_like(s)), -s_max, s_max, n)
        return _grid_max_2d(model.F, s_max, t_max, n)


def envelope_max(model: NonlinearityModel, rho_max: float) -> float:
    """Sampled maximum of the radial envelope a over [0, rho_max], as in box_max_F."""
    if model.envelope is None:
        raise MissingEnvelope("model has no (a, b) envelope")
    if not 0.0 < rho_max < math.inf:
        raise BadParam(f"radius must be positive and finite, got {rho_max}")
    return _grid_max_1d(model.envelope, 0.0, rho_max, GRID_POINTS)


def _refinement_gap(coarse: float, fine: float) -> float:
    """Relative change of a maximum from GRID_POINTS to FINE_POINTS per axis."""
    return abs(fine - coarse) / max(1.0, abs(fine))


# ---------------------------------------------------------------------------
# shared hypothesis helpers
# ---------------------------------------------------------------------------

def _check_smoothness(model: NonlinearityModel) -> HypothesisCheck:
    try:
        rep = derivative_consistency(model, samples=400, step=1e-5)
        return HypothesisCheck(
            "F0", True,
            f"sampled partials consistent (max gap {rep.max_discrepancy:.3e})")
    except InconsistentDerivative as exc:
        return HypothesisCheck("F0", False, str(exc))


def _check_zero_level(model: NonlinearityModel, g: WeightedGraph) -> HypothesisCheck:
    zero = np.zeros(g.n_vertices)
    val = float(np.dot(g.mu, model.F_on(g, zero, zero)))
    ok = abs(val) <= 1e-12 * (1.0 + g.total_measure())
    return HypothesisCheck("F1", ok, f"integral of F(x,0,0) = {val:.3e}")


def _check_growth(model: NonlinearityModel, p: float, q: float) -> HypothesisCheck:
    if model.growth is None:
        return HypothesisCheck("F2", False, "no growth data declared")
    gap = growth_bound_gap(model)
    tol = 1e-9 * (1.0 + abs(model.growth.g))
    ok = gap <= tol
    witness = (f"sampled bound gap {gap:.3e} with alpha={model.growth.alpha:g}, "
               f"beta={model.growth.beta:g}")
    if model.growth.alpha >= p or model.growth.beta >= q:
        witness += (f"; warning: exponents not strictly below ({p:g}, {q:g}),"
                    " coercivity is not implied")
    return HypothesisCheck("F2", ok, witness)


def _finish(theorem, kappa, box, lo, hi, checks, refinement_gap, notes=()):
    valid = all(c.passed for c in checks) and math.isfinite(lo) and lo < hi
    return IntervalReport(theorem=theorem, kappa=tuple(kappa), box=tuple(box),
                          lambda_lo=lo, lambda_hi=hi, hypotheses=tuple(checks),
                          valid=valid, refinement_gap=refinement_gap,
                          notes=tuple(notes))


def _vertex_value(model: NonlinearityModel, g: WeightedGraph, i: int,
                  s: float, t: float) -> float:
    """F(x_i, s, t): entry i of F on the constant state (s, t)."""
    n = g.n_vertices
    return float(model.F_on(g, np.full(n, s), np.full(n, t))[i])


def _endpoints_to_lambdas(big_lo: float, big_hi: float) -> tuple[float, float]:
    """Convert the (L1, L2) pair into the open parameter interval bounds.

    L2 <= 0 degenerates the lower endpoint to +inf (empty interval); L1 <= 0
    means no upper constraint.
    """
    lo = math.inf if big_hi <= 0.0 else 1.0 / big_hi
    hi = math.inf if big_lo <= 0.0 else 1.0 / big_lo
    return lo, hi


# ---------------------------------------------------------------------------
# the interval computations, for k = 1 or 2 components
# ---------------------------------------------------------------------------

_THEOREMS = {("finite", 2): "T1.1", ("locally_finite", 2): "T1.2",
             ("finite", 1): "T5.1", ("locally_finite", 1): "T5.2"}


def _labels(k: int) -> tuple[str, ...]:
    """Component subscripts in parameter names and witnesses; none for k = 1."""
    return ("",) if k == 1 else ("1", "2")


def _pad(values, fill: float = 0.0) -> tuple:
    """Per-component values as the (s, t) slots of F: `fill` past k."""
    return (*values, fill)[:2]


def _split_values(prob: Problem, values, **floors) -> tuple[tuple, tuple]:
    """k gammas then k deltas from `values`, checked finite and positive with the floors."""
    k = len(prob.components)
    if len(values) != 2 * k:
        raise BadParam(f"a {k}-component problem takes {k} gamma(s) then {k} "
                       f"delta(s), got {len(values)} value(s)")
    sub = _labels(k)
    names = [f"gamma{i}" for i in sub] + [f"delta{i}" for i in sub] + list(floors)
    for name, val in zip(names, [*values, *floors.values()]):
        if not 0.0 < val < math.inf:
            raise BadParam(f"{name} must be positive and finite, got {val}")
    return values[:k], values[k:]


def _check_f3(gammas, deltas, kappas, letter: str, big1: float,
              big2: float) -> HypothesisCheck:
    ok = (all(d > gm * kp for gm, d, kp in zip(gammas, deltas, kappas))
          and big2 > 0.0 and big1 < big2)
    witness = [f"delta{i}/(gamma{i} kappa{i}) = {d / (gm * kp):.6g}"
               for i, gm, d, kp in zip(_labels(len(gammas)), gammas, deltas, kappas)]
    witness += [f"{letter}1 = {big1:.6g}", f"{letter}2 = {big2:.6g}"]
    return HypothesisCheck("F3", ok, ", ".join(witness))


def interval_finite(prob: Problem, *values: float) -> IntervalReport:
    """Admissible interval on a finite graph from k gammas then k deltas:
    T1.1 for the coupled system, T5.1 for one component.

    Returns the report even when hypotheses fail (valid=False); it never
    raises for a hypothesis failure.
    """
    gammas, deltas = _split_values(prob, values)
    k = len(prob.components)
    g = prob.graph
    ls = [c.l for c in prob.components]
    model = prob.nonlinearity
    vol = g.total_measure()
    mu_min = float(np.min(g.mu))
    h_mins = [float(np.min(c.h.values)) for c in prob.components]

    r = sum(gm ** l for gm, l in zip(gammas, ls))
    box = tuple((l * r) ** (1.0 / l) / (hm * mu_min) ** (1.0 / l)
                for l, hm in zip(ls, h_mins))

    max_f = box_max_F(model, *_pad(box))
    gap = _refinement_gap(max_f, _box_grid_max(model, *_pad(box), FINE_POINTS))
    inf_f = float(model.F(*(np.asarray(d) for d in _pad(deltas))))
    if model.support is not None and g.n_vertices > 1:
        max_f = max(max_f, 0.0)
        inf_f = min(inf_f, 0.0)

    phi_const = sum(d ** l / l * integrate(g, c.h)
                    for d, l, c in zip(deltas, ls, prob.components))
    big_l1 = max_f * vol / r
    big_l2 = inf_f * vol / phi_const
    lo, hi = _endpoints_to_lambdas(big_l1, big_l2)

    kappas = kappa_finite(prob)
    pair = " pair" if k == 2 else ""
    checks = [
        HypothesisCheck("H", all(hm > 0.0 for hm in h_mins),
                        ", ".join(f"min h{i} = {hm:g}"
                                  for i, hm in zip(_labels(k), h_mins))),
        _check_smoothness(model),
        _check_zero_level(model, g),
        _check_growth(model, *_pad(ls, math.inf)),
        _check_f3(gammas, deltas, kappas, "L", big_l1, big_l2),
        HypothesisCheck("r_lt_phi", phi_const > r,
                        f"Phi at the constant{pair} = {phi_const:.6g} vs r = {r:.6g}"),
    ]
    return _finish(_THEOREMS["finite", k], kappas, box, lo, hi, checks, gap)


def interval_locally_finite(prob: Problem, x0: str, *values: float,
                            h0: Optional[float] = None,
                            mu0: Optional[float] = None) -> IntervalReport:
    """Admissible interval for an order-1 problem on a locally finite graph
    from k gammas then k deltas, evaluated on its Dirichlet truncation:
    T1.2 for the coupled system, T5.2 for one component.

    The endpoint quantities (local masses, envelope integral) are exactly
    local to x0, so any truncation containing x0 and its neighbors gives the
    same numbers.  Floors h0, mu0 are hypotheses about the full graph and are
    taken as inputs.  kappa_i = (M_i/l_i)^(-1/l_i) follows the local-mass
    convention (a potential-integral kappa would diverge on infinite graphs).
    """
    if any(c.m != 1 for c in prob.components):
        raise BadParam("locally finite mode requires every order to be 1")
    if x0 is None or h0 is None or mu0 is None:
        raise BadParam("locally finite mode needs x0 and the floors h0, mu0")
    gammas, deltas = _split_values(prob, values, h0=h0, mu0=mu0)
    k = len(prob.components)
    g = prob.graph
    model = prob.nonlinearity
    if model.envelope is None:
        raise MissingEnvelope("locally finite intervals need envelope data (a, b)")
    i0 = g.index(x0)
    ls = [c.l for c in prob.components]

    r = sum(gm ** l for gm, l in zip(gammas, ls))
    rho = sum((l * r) ** (1.0 / l) / (h0 * mu0) ** (1.0 / l) for l in ls)
    max_a = envelope_max(model, rho)
    gap = _refinement_gap(max_a, _grid_max_1d(model.envelope, 0.0, rho, FINE_POINTS))
    int_b = float(g.mu[i0])  # b is the indicator of x0

    masses = [_mass_one(g, i0, float(c.l), c.h.values) for c in prob.components]
    kappas = tuple((mass / l) ** (-1.0 / l) for mass, l in zip(masses, ls))
    f_spike = _vertex_value(model, g, i0, *_pad(deltas))
    phi_spike = sum(d ** l * mass / l for d, l, mass in zip(deltas, ls, masses))
    big_t1 = max_a * int_b / r
    big_t2 = f_spike / phi_spike
    lo, hi = _endpoints_to_lambdas(big_t1, big_t2)

    env_gap = envelope_bound_gap(model)
    zero_spike = _vertex_value(model, g, i0, 0.0, 0.0)
    h_min = min(float(np.min(c.h.values)) for c in prob.components)
    pair = " pair" if k == 2 else ""
    checks = [
        HypothesisCheck("M", bool(np.min(g.mu) >= mu0),
                        f"min mu = {float(np.min(g.mu)):g} vs floor {mu0:g}"),
        HypothesisCheck("H1", bool(h_min >= h0), f"min h = {h_min:g} vs floor {h0:g}"),
        HypothesisCheck(
            "F0", _check_smoothness(model).passed and env_gap <= 1e-9,
            f"sampled |F| <= a b gap {env_gap:.3e} (bound on the partials not checked; "
            "only the F bound enters the endpoint)"),
        HypothesisCheck(
            "F1", abs(zero_spike) == 0.0 and _check_zero_level(model, g).passed,
            f"F(x0, {', '.join(['0'] * k)}) = {zero_spike:g}"),
        _check_growth(model, *_pad(ls, math.inf)),
        _check_f3(gammas, deltas, kappas, "T", big_t1, big_t2),
        HypothesisCheck("r_lt_phi", phi_spike > r,
                        f"Phi at the spike{pair} = {phi_spike:.6g} vs r = {r:.6g}"),
    ]
    notes = () if k == 2 else (
        "kappa follows the local-mass convention (M/p)^(-1/p); a "
        "potential-integral kappa has no finite value on infinite graphs.",
        "the lower-endpoint numerator is F(x0, delta), matching the coupled case.",
    )
    return _finish(_THEOREMS["locally_finite", k], kappas, (rho,), lo, hi, checks, gap,
                   notes)

