"""Numerical critical-point finder for the graph systems.

Strategy: multistart gradient descent with Armijo backtracking drives each
random start into a basin.  A line search whose first trial fails tries its
next 2, then 4, 8, ... halvings together, one batched action call a round,
and takes the first that passes: the trial points of halving one at a time,
in fewer calls.  Once the residual is small a damped Newton polish
(finite-difference Hessian, Levenberg damping) finishes to the target
tolerance.  Every Newton Jacobian and Hessian is a compressed central
difference (_fd_jacobian) on the pattern the problem owns,
``Problem.jacobian_pattern``: a residual row depends only on coordinates
within m hops of its vertex (m + 1 for odd m), so columns that share no row
are perturbed together, one greedy colour per residual pair, with the same
values as one column at a time; all pairs of a build are one batched
residual call.  Each problem builds its pattern once, on the first
Jacobian, and every later solve on it reuses the pattern.  Additional
critical points, including saddle-type ones, come from Newton iterations
on the deflated residual

    R(z) = G(z) * prod_k (1 / ||z - z_k||^2 + 1),

which removes already-found zeros z_k from the basin structure (Farrell,
Birkisson & Funke 2015, with DEFLATION_POWER = 2 and DEFLATION_SHIFT = 1).
Distinctness of solutions is always measured in the product Sobolev norm;
the deflation factor itself uses the plain euclidean distance, which keeps
its gradient trivial.

Multistart descents and their Newton polishes stop early, with
``converged=False``, once they can only end as a divergence or as a
duplicate (single-start `minimize` has no such exits):

- "diverged" once |z|inf > DIVERGE_SCALE * (1 + start_scale).  Over the four
  acceptance solves at seeds 0-9 and 42 (2,860 starts), no start that
  converged went past 13.3 times that scale (|z|inf = 219 on example 6.1), so
  the bound of 100 leaves a margin of 7.5.
- "duplicate" inside the capture ball of a nontrivial accepted point z_k,
  of radius CAPTURE_REL * ||z_k||_W: a descent iterate while its action is
  above J(z_k), which Armijo descent only lowers, and a polish iterate,
  tested before each Newton iteration, whatever its action, which Newton
  does not lower.  In the same starts the closest approach of a start that
  went on to a new point was 30.7 ||z_k||_W (a margin of 3,070 over 1e-2),
  and the closest two distinct critical points lie 2.9% of either one's
  norm apart (a margin of 2.9).  Over the 865 polishes of those solves and
  of both 16-step sweeps at seed 42, no iterate came within 0.996 ||z_k||_W
  of an accepted point the polish did not end at (a margin of 99.6), and
  each of the 715 that ended in a ball entered it within six iterations,
  so the exit skips 3,835 of their 6,488 iterations.

A deflation attempt ends "stalled" after SLOW_LIMIT = 8 iterations in a
row that do not halve the sup residual (one without a step does not).  Of
the 514 attempts of those solves and sweeps, the 78 that converged went at
most 4 such iterations in a row (a margin of 2), and the rule ends 264 of
the 436 that did not, saving 6,385 of 14,329 iterations.  Otherwise the
polish and deflation stop early only past DIVERGE_NORM.

A cut run would have ended unaccepted, so the points found are the same.
`find_three` records how every start and deflation attempt ended (one of
OUTCOMES) in ``SolutionSet.outcomes``; the CLI counts them in the manifest.

The multistart stops once its remaining starts can only repeat, by the
Bayesian rule of Boender & Rinnooy Kan (1987): after N starts that did not
diverge have found W points, W >= 1, it stops when N > W + 2 and the
posterior estimate W (N - 1) / (N - W - 2) of the number of points is
below W + 0.5 (from N = 2 W^2 + 3 W + 3 on: 8 for W = 1, 17 for W = 2);
``SolverConfig.starts`` is the last start index it may reach, and no start
is launched past the rule's horizon (see _horizon): where it would stop if
every later start repeated a known point, each start counting toward N at
the rate of the random starts resolved so far (the origin start left
out).  Diverged
starts are left out of N: counted, the rule would stop before the second
point in 18 of the 44 acceptance solves at seeds 0-9 and 42.  The rule
stops 13 of them: all 11 on example 6.2 after 17 starts, whose last new
point came at start 4 at the latest (12 or more starts that did not
diverge repeated before the stop), and 2 on example 6.1, at 53 and 64
starts, after new points at starts 4 and 10 (14 and 13 repeats).  The
other 31 run to start 64, with their last new point at start 30 at the
latest.  No solve loses a point, and the starts skipped held 36,944 of
their 121,147 descent iterations.

Reproducibility: start k draws its coordinates from a counter-based
generator keyed by (seed, k).  The starts descend in lockstep, each a row
of one array state (_Descents) whose running rows are the columns of
batched evaluations; those equal the one-column ones bit for bit, each row
is updated by row assignment alone, and the starts resolve in index order.
`minimize` runs the same state with one row.  The solutions, outcome
labels and stopping decisions are those of running the starts one after
another by the same rule; only iteration counts may differ (_multistart).

Exponents below 2 are rejected (the zero-order term |s|^(p-2) s is not
Lipschitz there); interval computations alone support the full range.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadParam, ConvergedToKnown, SingularExponent
from .functionals import Problem, State, StatePair
from .graph import VertexFunction, finite_real, positive_integer
from .nonlinearity import derivative_consistency

NEWTON_SWITCH = 1e-3
ARMIJO_C = 1e-4
DIVERGE_ACTION = -1e12
DIVERGE_NORM = 1e8
FD_SCALE = 1e-6
DEFLATION_POWER = 2.0
DEFLATION_SHIFT = 1.0
DIVERGE_SCALE = 100.0
CAPTURE_REL = 1e-2
SLOW_LIMIT = 8

# How a multistart descent or a deflation attempt ended; a "duplicate"
# converged within distinct_tol of an accepted point, or its descent or
# polish stopped inside a capture ball, unconverged.
OUTCOMES = ("new", "duplicate", "diverged", "stalled", "budget")


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 64
    max_iters: int = 10000
    grad_tol: float = 1e-8
    distinct_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, Real) and not 0 <= seed < 2 ** 128:  # the start generator's keys
            raise BadParam(f"seed must lie in [0, 2**128), got {seed!r}")
        for name, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, positive_integer(getattr(self, name), name, least))
        for name in ("grad_tol", "distinct_tol"):
            value = finite_real(getattr(self, name), name)
            if not value > 0.0:
                raise BadParam(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass
class CriticalPoint:
    state: State
    action_value: float
    residual_sup: float
    kind: str  # minimizer | saddle | unclassified
    iterations: int
    converged: bool


@dataclass(eq=False)  # == is identity; solution_set_to_json compares values
class SolutionSet:
    lam: float
    seed: int
    points: list[CriticalPoint]
    distances: np.ndarray
    nontrivial: list[bool]
    zero_excluded: bool
    # (phase, index, outcome, iterations) per start and per deflation
    # attempt, phase "start" or "deflation"; not serialised
    outcomes: list[tuple[str, int, str, int]] = field(default_factory=list)

    @property
    def found_three(self) -> bool:
        return len(self.points) >= 3


def _check_problem(prob: Problem) -> None:
    for e in prob.solver_exponents:
        if e < 2.0:
            raise SingularExponent(
                f"the solver requires exponents >= 2, got {e} "
                "(interval computations alone support the full range)")
    isolated = int(np.sum(prob.graph.degrees() == 0.0))
    if isolated:
        warnings.warn(f"{isolated} isolated vertex(es); gradients vanish there, "
                      "proceeding", UserWarning, stacklevel=3)
    if prob.nonlinearity.requires_derivative_check:
        derivative_consistency(prob.nonlinearity)  # mandatory for tabulated F


def _check_lam(lam: float) -> float:
    lam = finite_real(lam, "the parameter")
    if not lam > 0.0:
        raise BadParam(f"the parameter must be positive, got {lam}")
    return lam


def _sup(res: np.ndarray) -> float:
    val = float(np.max(np.abs(res)))
    return val if np.isfinite(val) else np.inf


def _fd_jacobian(prob: Problem, fn, z: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian at z, with step FD_SCALE (1 + ||z||), of
    a map with the reach of prob's residual, compressed by the column
    colours of prob.jacobian_pattern (Curtis, Powell & Reid 1974): no two
    columns of a colour share a row of the mask, so one residual pair per
    colour recovers all of its columns, bit for bit as if each were
    perturbed alone.  `fn` takes every pair at once, as the columns of one
    batch."""
    mask, colour = prob.jacobian_pattern
    h = FD_SCALE * (1.0 + float(np.linalg.norm(z)))
    k = int(colour.max()) + 1
    on = colour[:, None] == np.arange(k)
    col = z[:, None]
    vals = fn(np.concatenate([np.where(on, col + h, col), np.where(on, col - h, col)],
                             axis=1))
    diff = (vals[:, :k] - vals[:, k:]) / (2.0 * h)
    return np.where(mask, diff[:, colour], 0.0)


def _hessian(prob: Problem, lam: float, z: np.ndarray) -> np.ndarray:
    jac = _fd_jacobian(prob, lambda y: prob.gradient_vec(lam, y), z)
    return 0.5 * (jac + jac.T)


def _classify(prob: Problem, lam: float, z: np.ndarray) -> str:
    eig_min = float(np.min(np.linalg.eigvalsh(_hessian(prob, lam, z))))
    return "saddle" if eig_min < -1e-6 else "minimizer"


@dataclass
class _RawPoint:
    z: np.ndarray
    action: float
    residual_sup: float
    iterations: int
    converged: bool
    outcome: str  # one of OUTCOMES


def _finalize(prob: Problem, lam: float, raw: _RawPoint) -> CriticalPoint:
    """Label with the Hessian at the returned point itself."""
    kind = "unclassified"
    if raw.converged:
        kind = _classify(prob, lam, raw.z)
    return CriticalPoint(
        state=prob.unpack_state(raw.z),
        action_value=raw.action,
        residual_sup=raw.residual_sup,
        kind=kind,
        iterations=raw.iterations,
        converged=raw.converged,
    )


def _diverged(z: np.ndarray, act: float, rsup: float, iters: int) -> _RawPoint:
    """A run stopped past a divergence bound, from the values its loop holds."""
    act = act if np.isfinite(act) else -np.inf
    return _RawPoint(z=z, action=act, residual_sup=rsup, iterations=iters, converged=False,
                     outcome="diverged")


DESCENT_BUDGET = 1500  # ill-conditioned basins are finished by the Newton polish

# A ball (centre, radius, action) around a nontrivial accepted point.
_Ball = tuple[np.ndarray, float, float]


# How a descent stands between lockstep steps: running, or how it stopped,
# POLISH (hand over to Newton), CAPTURED (in a capture ball) or DIVERGED.
RUNNING, POLISH, CAPTURED, DIVERGED = range(4)


class _Descents:
    """Descents in lockstep, one row each: iterate `z`, the iterate and
    gradient of the step before (`prev_z`, `prev_grad`, C-contiguous
    (rows, n_dofs) arrays), and per row its `action`, BB warm start
    `t_warm`, accepted steps `iters` and `stop` code."""

    def __init__(self, z: np.ndarray, action: np.ndarray):
        rows = len(z)
        self.z, self.action = z, action
        self.prev_z, self.prev_grad = np.zeros_like(z), np.zeros_like(z)
        self.t_warm = np.ones(rows)
        self.iters = np.zeros(rows, dtype=np.int64)
        self.stop = np.full(rows, RUNNING, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.stop)

    def append(self, more: _Descents) -> None:
        for name, rows in vars(more).items():
            setattr(self, name, np.concatenate([getattr(self, name), rows]))

    def pop_first(self) -> tuple[np.ndarray, float, int, int]:
        """Take row 0 off: its (z, action, iters, stop)."""
        first = self.z[0].copy(), float(self.action[0]), int(self.iters[0]), int(self.stop[0])
        for name, rows in vars(self).items():
            setattr(self, name, rows[1:])
        return first


def _launch(prob: Problem, lam: float, starts: Sequence[np.ndarray]) -> _Descents:
    z = np.array(starts, dtype=float)
    return _Descents(z, prob.action_vec(lam, np.ascontiguousarray(z.T)))


def _start_bound(prob: Problem) -> float:
    return min(DIVERGE_NORM, DIVERGE_SCALE * (1.0 + prob.start_scale))


def _capture_balls(prob: Problem, accepted: Iterable[_RawPoint]) -> list[_Ball]:
    return [(a.z, CAPTURE_REL * r, a.action) for a in accepted
            if (r := prob.wnorm_vec(a.z)) > 0.0]


def _descent_step(prob: Problem, lam: float, run: _Descents, balls: Sequence[_Ball],
                  bound: float, budget: int) -> None:
    """One iteration of every running row of `run`, in lockstep.

    Per row this is gradient descent with Armijo backtracking (halving),
    a Barzilai-Borwein guess seeding each line search; the residuals of all
    rows are one batched call, and so is each round of trial actions.
    Round 0 tries each row's t; a row still searching in round r >= 1
    tries its next 2^r halvings at once and takes the first that passes.
    These are the trial points of halving one at a time, in the same order
    (t 0.5^k is exact for t > 1e-17), so each row takes the same step.
    A row stops POLISH (for Newton) at the budget, once its residual is
    below NEWTON_SWITCH or when its line search stalls (its next trial
    would be at t <= 1e-17; a rung there is never taken); it stops CAPTURED
    or DIVERGED by the early exits of the module docstring.

    The running rows are selected by index into (rows, n_dofs) arrays:
    each reduction is one call over C-contiguous rows (vecdot is the BLAS
    dot of the 1-D np.dot), each update one array expression, and each
    accepted rung is written back by row assignment, so every row gets the
    bits of stepping it alone.
    """
    stop = run.stop
    stop[(stop == RUNNING) & (run.iters >= budget)] = POLISH
    idx = (stop == RUNNING).nonzero()[0]  # the rows this step moves
    if not idx.size:
        return
    z, act = run.z[idx], run.action[idx]
    near = [(rows, zk, radius) for zk, radius, ball_act in balls
            if (rows := (act > ball_act).nonzero()[0]).size]
    if near:
        diffs = np.concatenate([z[rows] - zk for rows, zk, _ in near])
        dists = prob.wnorm_vec(np.ascontiguousarray(diffs.T))
        radii = np.concatenate([np.full(rows.size, radius) for rows, _, radius in near])
        stop[idx[np.concatenate([rows for rows, _, _ in near])[dists < radii]]] = CAPTURED
        live = stop[idx] == RUNNING
        idx, z, act = idx[live], z[live], act[live]
        if not idx.size:
            return
    res = np.ascontiguousarray(prob.residual_vec(lam, np.ascontiguousarray(z.T)).T)
    small = np.abs(res).max(axis=1) < NEWTON_SWITCH  # false for inf and NaN
    if small.any():
        stop[idx[small]] = POLISH
        keep = ~small
        idx, z, act, res = idx[keep], z[keep], act[keep], res[keep]
    grad = prob.mu_dofs * res
    gg = np.vecdot(grad, grad)
    dg, dz = grad - run.prev_grad[idx], z - run.prev_z[idx]
    dgg = np.vecdot(dg, dg)
    good = (run.iters[idx] > 0) & (dgg > 0.0)  # a step taken, so prev_z and prev_grad hold it
    bb = np.divide(np.vecdot(dz, dg), dgg, out=np.zeros_like(dgg), where=good)
    good &= np.isfinite(bb) & (bb > 0.0)
    t = np.minimum(np.where(good, bb, 2.0 * run.t_warm[idx]), 1e6)
    i = np.arange(idx.size)  # the moving rows still searching, as positions in idx
    width = 1  # rungs per row this round
    while i.size:
        stalled = t[i] <= 1e-17
        stop[idx[i[stalled]]] = POLISH  # stalled line search; give Newton a chance
        i = i[~stalled]
        if not i.size:
            break
        # rung j of row idx[i[m]] sits at m * width + j of one flat batch
        ti = (t[i, None] * 0.5 ** np.arange(width)).ravel()
        rows = i.repeat(width)
        cand = z[rows] - ti[:, None] * grad[rows]
        trial = prob.action_vec(lam, np.ascontiguousarray(cand.T))
        ok = (np.isfinite(trial) & (trial <= act[rows] - ARMIJO_C * ti * gg[rows])
              & (ti > 1e-17)).reshape(-1, width)
        hit = ok.any(axis=1)
        first = hit.nonzero()[0] * width + ok.argmax(axis=1)[hit]  # the first rung that passes
        took, znew, anew = rows[first], cand[first], trial[first]
        dest = idx[took]
        run.prev_z[dest], run.prev_grad[dest] = z[took], grad[took]
        run.z[dest], run.action[dest], run.t_warm[dest] = znew, anew, ti[first]
        run.iters[dest] += 1
        stop[dest[(anew < DIVERGE_ACTION) | (np.abs(znew).max(axis=1) > bound)]] = DIVERGED
        i = i[~hit]
        t[i] *= 0.5 ** width
        width *= 2


def _finish(prob: Problem, lam: float, run: _Descents, cfg: SolverConfig,
            balls: Sequence[_Ball]) -> _RawPoint:
    """Take row 0 of `run`, stopped, off: the point it ends at, polished by
    Newton or as it stopped (its residual not evaluated)."""
    z, action, iters, stop = run.pop_first()
    if stop == POLISH:
        return _newton_polish(prob, lam, z, cfg, iters, balls)
    if stop == DIVERGED:
        return _diverged(z, action, np.inf, iters)
    return _RawPoint(z=z, action=action, residual_sup=np.inf, iterations=iters,
                     converged=False, outcome="duplicate")


def _minimize_z(prob: Problem, lam: float, z0: np.ndarray, cfg: SolverConfig,
                accepted: Optional[Sequence[_RawPoint]] = None) -> _RawPoint:
    """Descend from z0, then polish with Newton: _descent_step on one row.

    `minimize` passes no `accepted`; the tests pass the points accepted so
    far, to run the starts one after another as the serial reference whose
    outcomes, iteration counts aside, `_multistart` keeps.  `accepted` turns
    on the early exits ("diverged", "duplicate") of the module docstring.
    """
    bound, balls = DIVERGE_NORM, []
    if accepted is not None:
        bound, balls = _start_bound(prob), _capture_balls(prob, accepted)
    budget = min(cfg.max_iters, DESCENT_BUDGET)
    with np.errstate(over="ignore", invalid="ignore"):
        run = _launch(prob, lam, [z0])
        while run.stop[0] == RUNNING:
            _descent_step(prob, lam, run, balls, bound, budget)
        return _finish(prob, lam, run, cfg, balls)


def _damped_newton(prob: Problem, lam: float, z: np.ndarray, iters: int, cap: int,
                   stall_limit: int, slow_limit: float, tol: float, system, merit,
                   balls: Sequence[_Ball] = ()) -> _RawPoint:
    """Levenberg-damped Newton from z to the residual tolerance `tol`.

    Each iteration builds ``mat, rhs = system(z, res)`` and tries up to 25
    steps solving (mat + nu I) step = rhs; the first trial point with a lower
    ``merit(z, res)`` is taken (a merit of inf or NaN never is lower).  nu
    starts at 1e-6, grows 10-fold on a singular matrix and 4-fold on a
    rejected trial, and shrinks 4-fold, to no less than 1e-14, on a taken one.
    Below 0.3 tol it steps on only while each step halves the sup residual,
    so quadratic basins finish near machine precision without spinning at a
    noise floor.  The callers:

    - `_newton_polish`: the symmetrised Hessian, rhs -mu res, merit sup|res|;
      iterations count on from the descent's, up to max_iters; stall limit 3;
      no slow limit; the multistart's capture balls.
    - `_deflated_newton`: m J + res (grad m)^T, rhs -m res, merit
      ||m res||_2; at most min(max_iters, 200) iterations; stall limit 4;
      slow limit SLOW_LIMIT; no balls.

    The outcome is "new" within tol, else "budget" at the cap and "stalled"
    after stall_limit iterations in a row without a step or slow_limit in a
    row that do not halve the sup residual (one without a step does not).
    An iteration that leaves |z|inf > DIVERGE_NORM ends the run "diverged".
    An iterate inside a ball, tested before each iteration, ends the run
    "duplicate" and unconverged, its action not evaluated (NaN).
    """
    nu = 1e-6
    target_soft = 0.3 * tol
    target_hard = max(1e-4 * tol, 1e-15)
    stalls = slow = 0
    fast = True
    with np.errstate(over="ignore", invalid="ignore"):
        res = prob.residual_vec(lam, z)
        rsup, val = _sup(res), merit(z, res)
        while (rsup > target_hard and iters < cap and stalls < stall_limit
               and slow < slow_limit):
            if rsup <= target_soft and not fast:
                break
            if balls and _in_a_ball(prob, z, balls):
                return _RawPoint(z=z, action=np.nan, residual_sup=rsup, iterations=iters,
                                 converged=False, outcome="duplicate")
            mat, rhs = system(z, res)
            moved = False
            for _ in range(25):
                try:
                    step = np.linalg.solve(mat + nu * np.eye(len(z)), rhs)
                except np.linalg.LinAlgError:
                    nu = max(nu, 1e-12) * 10.0
                    continue
                cand = z + step
                cres = prob.residual_vec(lam, cand)
                cval = merit(cand, cres)
                if cval < val:
                    crsup = _sup(cres)
                    fast = crsup < 0.5 * rsup
                    z, res, rsup, val = cand, cres, crsup, cval
                    nu = max(nu / 4.0, 1e-14)
                    moved = True
                    break
                nu = max(nu, 1e-12) * 4.0
            stalls = 0 if moved else stalls + 1
            slow = 0 if moved and fast else slow + 1
            iters += 1
            if float(np.max(np.abs(z))) > DIVERGE_NORM:
                return _diverged(z, prob.action_vec(lam, z), rsup, iters)
        act = prob.action_vec(lam, z)
    outcome = "new" if rsup <= tol else "budget" if iters >= cap else "stalled"
    return _RawPoint(z=z, action=float(act), residual_sup=rsup, iterations=iters,
                     converged=rsup <= tol, outcome=outcome)


def _in_a_ball(prob: Problem, z: np.ndarray, balls: Sequence[_Ball]) -> bool:
    dists = prob.wnorm_vec(np.stack([z - zk for zk, _, _ in balls], axis=1))
    return bool(np.any(dists < np.array([radius for _, radius, _ in balls])))


def _newton_polish(prob: Problem, lam: float, z: np.ndarray, cfg: SolverConfig,
                   iters: int, balls: Sequence[_Ball] = ()) -> _RawPoint:
    """Newton on the gradient from where a descent stopped (_damped_newton),
    ending "duplicate" inside any of `balls` (see the module docstring)."""
    return _damped_newton(
        prob, lam, z, iters, cfg.max_iters, 3, np.inf, cfg.grad_tol,
        lambda y, res: (_hessian(prob, lam, y), -(prob.mu_dofs * res)),
        lambda y, res: _sup(res), balls)


def minimize(prob: Problem, lam: float, start: State, cfg: SolverConfig) -> CriticalPoint:
    """Descend the action from `start`; returns the polished point.

    A point is accepted (``converged=True``) when the pointwise residual
    drops to grad_tol; on budget exhaustion the best iterate is returned
    tagged ``converged=False``.
    """
    lam = _check_lam(lam)
    _check_problem(prob)
    raw = _minimize_z(prob, lam, prob.pack_state(start), cfg)
    return _finalize(prob, lam, raw)


def residual(prob: Problem, lam: float, state: State) -> float:
    """Sup-norm of the pointwise defect of the system equations at `state`."""
    lam = _check_lam(lam)
    return _sup(prob.residual_vec(lam, prob.pack_state(state)))


# ---------------------------------------------------------------------------
# deflation
# ---------------------------------------------------------------------------

def _deflation_factor(z: np.ndarray,
                      knowns: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
    """Value and euclidean gradient of the deflation multiplier."""
    m = 1.0
    grad = np.zeros_like(z)
    for zk in knowns:
        d = z - zk
        dist = float(np.linalg.norm(d))
        dist = max(dist, 1e-300)
        rho = dist ** (-DEFLATION_POWER) + DEFLATION_SHIFT
        m *= rho
        grad += (-DEFLATION_POWER * dist ** (-DEFLATION_POWER - 2.0) / rho) * d
    return m, m * grad


def _distinct(prob: Problem, z: np.ndarray, knowns: Iterable[np.ndarray],
              tol: float) -> bool:
    """Whether z lies farther than tol (product-norm) from every known point."""
    return all(prob.wnorm_vec(z - zk) > tol for zk in knowns)


def _deflated_newton(prob: Problem, lam: float, knowns: Sequence[np.ndarray],
                     z0: np.ndarray, cfg: SolverConfig) -> _RawPoint:
    """Newton on the deflated residual m(z) G(z) from z0 (_damped_newton)."""
    def system(z, res):
        m, dm = _deflation_factor(z, knowns)
        jac = _fd_jacobian(prob, lambda y: prob.residual_vec(lam, y), z)
        return m * jac + np.outer(res, dm), -(m * res)

    def merit(z, res):
        return np.linalg.norm(_deflation_factor(z, knowns)[0] * res)

    z = np.asarray(z0, dtype=float).copy()
    return _damped_newton(prob, lam, z, 0, min(cfg.max_iters, 200), 4, SLOW_LIMIT,
                          cfg.grad_tol, system, merit)


def deflated_solve(prob: Problem, lam: float, known: Sequence[State],
                   start: State, cfg: SolverConfig) -> CriticalPoint:
    """Newton on the deflated residual; seeks a critical point of the
    original action away from every state in `known`.

    Raises ConvergedToKnown when the start or the limit lies within
    distinct_tol (product-norm) of a known point; on budget exhaustion the
    best iterate is returned tagged ``converged=False``.
    """
    lam = _check_lam(lam)
    _check_problem(prob)
    z0 = prob.pack_state(start)
    knowns = [prob.pack_state(k) for k in known]
    if not _distinct(prob, z0, knowns, cfg.distinct_tol):
        raise ConvergedToKnown("start lies within distinct_tol of a known point")
    raw = _deflated_newton(prob, lam, knowns, z0, cfg)
    if raw.converged and not _distinct(prob, raw.z, knowns, cfg.distinct_tol):
        raise ConvergedToKnown("deflated iteration converged to an already-known point")
    return _finalize(prob, lam, raw)


# ---------------------------------------------------------------------------
# multistart + deflation pipeline
# ---------------------------------------------------------------------------

def _start_vector(prob: Problem, cfg: SolverConfig, index: int, radius: float) -> np.ndarray:
    if index == 0:
        return np.zeros(prob.n_dofs)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 0, index]))
    return gen.uniform(-radius, radius, prob.n_dofs)


def _perturbation(cfg: SolverConfig, attempt: int, size: int, radius: float) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=cfg.seed, counter=[0, 0, 1, attempt]))
    return gen.uniform(-radius, radius, size)


def _stop_estimate(n: int, w: int) -> Optional[float]:
    """The multistart's stopping rule (see the module docstring) after n
    resolved starts that did not diverge found w new points: the estimate
    W (N - 1) / (N - W - 2) where the rule stops, else None.  The estimate
    falls as N grows and equals W + 0.5 exactly at N = 2 W^2 + 3 W + 2, so
    the rule stops from N = 2 W^2 + 3 W + 3 on: 8 for W = 1, 17 for W = 2
    and 30 for W = 3."""
    if w >= 1 and n > w + 2 and (est := w * (n - 1) / (n - w - 2)) < w + 0.5:
        return est
    return None


def _horizon(counts: Sequence[bool], w: int, run: _Descents, cap: int) -> int:
    """One past the last start to launch, at most `cap`, with starts 0 ..
    len(counts) - 1 resolved (counts[i]: start i did not diverge), w points
    found and the rows of `run` the starts launched after them: where the
    rule would stop if every later start that does not diverge repeated a
    known point.  That is N = 2 W^2 + 3 W + 3 (see _stop_estimate); while
    w = 0 it takes W = 1, the rule's earliest stop, after at least one more
    start that counts.

    A launched row that stopped DIVERGED or CAPTURED counts as resolved,
    since it can end no other way.  Each of the others, and each start not
    launched yet, is expected to be one of N at the rate of the random
    starts resolved so far (index >= 1; the origin start is left out), or
    at rate 1 while none has.  Once every resolved random start diverged,
    the rate is 0 and every start up to `cap` is launched."""
    lo, ends, big_w = len(counts), run.stop.tolist(), max(w, 1)
    captured = ends.count(CAPTURED)
    more = max(0 if w else 1, 2 * big_w ** 2 + 3 * big_w + 3 - sum(counts) - captured)
    unknown = len(ends) - captured - ends.count(DIVERGED)
    drawn = ends[1:] if lo == 0 else ends  # the launched random starts
    hits = sum(counts[1:]) + drawn.count(CAPTURED)
    tries = len(counts[1:]) + drawn.count(CAPTURED) + drawn.count(DIVERGED)
    if tries and not hits:
        return cap
    rate = hits / tries if tries else 1.0
    return min(cap, lo + len(run) + max(0, math.ceil(more / rate - unknown)))


def _multistart(prob: Problem, lam: float, cfg: SolverConfig, radius: float,
                accepted: list[_RawPoint], accept) -> None:
    """Descend from starts 0, 1, ... (index 0 is the deterministic origin
    start) and pass each result to `accept` in index order, until the
    stopping rule (`_stop_estimate`) stops or start cfg.starts has
    resolved; `accepted` holds the points accepted so far.

    The launched descents step together in lockstep, and start i resolves,
    by its Newton polish and acceptance, only after every start before it.
    A capture ball that a resolution adds is tested on every launched
    descent from its current iterate on.  The serial loop, `_minimize_z` on
    one start after another with the rule tested after each, tests it from
    the first iterate.  The capture test stops a trajectory but never
    changes one, so a start differs from that loop only where the loop
    captures it at an iterate the lockstep descent had already passed: it
    stops in the ball later, by its descent or its polish, and ends
    "duplicate" all the same, with more iterations.  (A descent that passed
    through a ball could in principle go on to diverge or to another point;
    none did in the 44 acceptance solves or the two seed-42 16-step
    sweeps.)  The launched starts are a window that reaches up to the
    `_horizon`, re-estimated at every step, and no further: at the rate
    the random starts resolved so far count toward N (rate 1 before one
    has, W taken as 1 before a point is found), and to start cfg.starts
    once every resolved random start diverged.  So a start is launched past
    the stop only when the starts before it diverge less often than those
    seen (13 starts in 2 of the 44 solves of the module docstring).  The
    window sets only how much work is speculative and how many rows share
    a step.

    The launched descents are the rows of one _Descents state: a launch
    appends rows, and start lo, once stopped, is row 0, taken off as it
    resolves.
    """
    bound = _start_bound(prob)
    budget = min(cfg.max_iters, DESCENT_BUDGET)
    balls = _capture_balls(prob, accepted)
    # the launched descents of the starts after the resolved, row 0 start lo
    run = _Descents(np.empty((0, prob.n_dofs)), np.empty(0))
    counts: list[bool] = []  # per resolved start: it did not diverge
    w = 0  # points found
    with np.errstate(over="ignore", invalid="ignore"):
        while len(counts) <= cfg.starts:
            lo = len(counts)
            pending = range(lo + len(run), _horizon(counts, w, run, cfg.starts + 1))
            if pending:
                run.append(_launch(prob, lam, [_start_vector(prob, cfg, i, radius)
                                               for i in pending]))
            if run.stop[0] == RUNNING:
                _descent_step(prob, lam, run, balls, bound, budget)
                continue
            known = len(accepted)
            raw = _finish(prob, lam, run, cfg, balls)
            accept("start", lo, raw)
            counts.append(raw.outcome != "diverged")
            w += raw.outcome == "new"
            if _stop_estimate(sum(counts), w) is not None:
                return
            balls += _capture_balls(prob, accepted[known:])


def find_three(prob: Problem, lam: float, cfg: SolverConfig,
               start_radius: Optional[float] = None) -> SolutionSet:
    """Multistart minimization plus deflation until three distinct critical
    points are found (or the budget runs out; the set is returned either way
    and ``found_three`` reports the outcome).

    The caller is responsible for choosing lam inside a valid admissible
    interval; outside it, fewer points are expected and documented.
    """
    lam = _check_lam(lam)
    _check_problem(prob)
    radius = (1.0 + prob.start_scale if start_radius is None
              else finite_real(start_radius, "the start radius"))
    if not 0.0 < radius < np.inf:
        raise BadParam(f"the start radius must be positive and finite, got {radius}")

    accepted: list[_RawPoint] = []
    outcomes: list[tuple[str, int, str, int]] = []

    def accept(phase: str, index: int, raw: _RawPoint) -> None:
        if raw.converged:
            if _distinct(prob, raw.z, (a.z for a in accepted), cfg.distinct_tol):
                accepted.append(raw)
            else:
                raw.outcome = "duplicate"
        outcomes.append((phase, index, raw.outcome, raw.iterations))

    _multistart(prob, lam, cfg, radius, accepted, accept)

    attempts = max(32, cfg.starts)
    attempt = 0
    while len(accepted) < 3 and attempt < attempts:
        if accepted:
            base = accepted[attempt % len(accepted)].z
        else:
            base = np.zeros(prob.n_dofs)
        scale = (0.25, 0.5, 1.0, 2.0)[attempt % 4]
        z0 = base + _perturbation(cfg, attempt, prob.n_dofs, scale * radius)
        raw = _deflated_newton(prob, lam, [a.z for a in accepted], z0, cfg)
        accept("deflation", attempt, raw)
        attempt += 1

    accepted.sort(key=lambda r: r.action)
    points = [_finalize(prob, lam, raw) for raw in accepted]
    k = len(points)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = prob.wnorm_vec(accepted[i].z - accepted[j].z)
            dist[i, j] = dist[j, i] = d
    nontrivial = [prob.wnorm_vec(raw.z) > cfg.distinct_tol for raw in accepted]
    return SolutionSet(
        lam=lam,
        seed=cfg.seed,
        points=points,
        distances=dist,
        nontrivial=nontrivial,
        zero_excluded=prob.nonlinearity.zero_is_excluded(),
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def solution_set_to_doc(sset: SolutionSet) -> dict:
    points = []
    for pt, flag in zip(sset.points, sset.nontrivial):
        entry: dict = {}
        if isinstance(pt.state, StatePair):
            entry["u"] = pt.state.u.as_dict()
            entry["v"] = pt.state.v.as_dict()
        else:
            entry["u"] = pt.state.as_dict()
        entry.update({
            "action": pt.action_value,
            "residual": pt.residual_sup,
            "kind": pt.kind,
            "iterations": pt.iterations,
            "nontrivial": bool(flag),
        })
        points.append(entry)
    return {
        "lambda": sset.lam,
        "seed": sset.seed,
        "found_three": sset.found_three,
        "zero_excluded": sset.zero_excluded,
        "points": points,
        "distances": [[float(d) for d in row] for row in sset.distances],
    }


def solution_set_to_json(sset: SolutionSet) -> str:
    return json.dumps(solution_set_to_doc(sset), sort_keys=True, indent=2) + "\n"


def solution_set_from_doc(prob: Problem, doc: dict) -> SolutionSet:
    """Rebuild a solution set from its document, bound to `prob`'s graph."""
    g = prob.graph
    points = []
    nontrivial = []
    for entry in doc["points"]:
        u = VertexFunction.from_dict(g, entry["u"])
        if "v" in entry:
            state: State = StatePair(u, VertexFunction.from_dict(g, entry["v"]))
        else:
            state = u
        points.append(CriticalPoint(
            state=state,
            action_value=float(entry["action"]),
            residual_sup=float(entry["residual"]),
            kind=str(entry["kind"]),
            iterations=int(entry.get("iterations", 0)),
            converged=True,
        ))
        nontrivial.append(bool(entry.get("nontrivial", True)))
    return SolutionSet(
        lam=float(doc["lambda"]),
        seed=int(doc.get("seed", 0)),
        points=points,
        distances=np.asarray(doc["distances"], dtype=float).reshape(
            len(points), len(points)),
        nontrivial=nontrivial,
        zero_excluded=bool(doc.get("zero_excluded", False)),
    )
