"""Numerical critical-point finder for the graph systems.

Strategy: multistart gradient descent with Armijo backtracking drives each
random start into a basin; once the residual is small a damped Newton polish
(finite-difference Hessian, Levenberg damping) finishes to the target
tolerance.  Every Newton Jacobian and Hessian is a compressed central
difference: a residual row depends only on coordinates within m hops of its
vertex (m + 1 for odd m), so columns that share no row are perturbed
together, one greedy colour group per residual pair, with the same values
as one column at a time; all pairs of a build are one batched residual
call.  Additional critical points, including saddle-type ones, come
from Newton iterations on the deflated residual

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
- "captured" within CAPTURE_REL * ||z_k||_W of a nontrivial accepted point
  z_k while the action is still above J(z_k); Armijo descent only lowers
  the action, so an iterate below J(z_k) cannot be descending to z_k.  In
  the same starts the closest approach of a start that went on to a new
  point was 30.7 ||z_k||_W (a margin of 3,070 over 1e-2), and the closest
  two distinct critical points of those solves lie 2.9% of either one's
  norm apart (a margin of 2.9).
- "duplicate" when a polish iterate, tested before each Newton iteration,
  lies in such a ball; Newton does not lower the action, so there is no
  action condition.  Over the 865 polishes of those solves and of both
  16-step sweeps at seed 42, the closest any iterate came to an accepted
  point the polish did not end at was 0.996 ||z_k||_W (a margin of 99.6),
  and each of the 715 that ended as duplicates entered the ball within
  six iterations, so the exit skips 3,835 of their 6,488 iterations.

A deflation attempt ends "stalled" after SLOW_LIMIT = 8 iterations in a
row that do not halve the sup residual (one without a step does not).  Of
the 514 attempts of those solves and sweeps, the 78 that converged went at
most 4 such iterations in a row (a margin of 2), and the rule ends 264 of
the 436 that did not, saving 6,385 of 14,329 iterations.  Otherwise the
polish and deflation stop early only past DIVERGE_NORM.

A cut run would have ended unaccepted, so the points found are the same.
`find_three` records how every start and deflation attempt ended (one of
OUTCOMES) in ``SolutionSet.outcomes``; the CLI counts them in the manifest.

Reproducibility: start k draws its coordinates from a counter-based
generator keyed by (seed, k).  The starts descend in lockstep as the
columns of batched evaluations, which equal the one-column ones bit for
bit, and resolve in index order, so the results are those of running them
one after another (see _multistart).

Exponents below 2 are rejected (the zero-order term |s|^(p-2) s is not
Lipschitz there); interval computations alone support the full range.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BadParam, ConvergedToKnown, SingularExponent
from .functionals import Problem, State, StatePair
from .graph import VertexFunction
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

# How a multistart descent or a deflation attempt ended; a "duplicate" is
# either converged within distinct_tol of an accepted point or a polish cut
# inside a capture ball, unconverged.
OUTCOMES = ("new", "duplicate", "captured", "diverged", "stalled", "budget")


@dataclass(frozen=True)
class SolverConfig:
    starts: int = 64
    max_iters: int = 10000
    grad_tol: float = 1e-8
    distinct_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise BadParam(f"starts must be >= 1, got {self.starts}")
        if not (0.0 < self.grad_tol < np.inf and 0.0 < self.distinct_tol < np.inf):
            raise BadParam("tolerances must be positive and finite")
        if self.max_iters < 1:
            raise BadParam(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 <= self.seed < 2 ** 128:  # the key range of the start generator
            raise BadParam(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass
class CriticalPoint:
    state: State
    action_value: float
    residual_sup: float
    kind: str  # minimizer | saddle | unclassified
    iterations: int
    converged: bool


@dataclass
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
    lam = float(lam)
    if not 0.0 < lam < np.inf:
        raise BadParam(f"the parameter must be positive and finite, got {lam}")
    return lam


def _sup(res: np.ndarray) -> float:
    val = float(np.max(np.abs(res)))
    return val if np.isfinite(val) else np.inf


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


# (sparsity mask, column colours) of the compressed Jacobians.
_Groups = tuple[np.ndarray, np.ndarray]


def _jacobian_groups(prob: Problem) -> _Groups:
    mask = _sparsity(prob)
    return mask, _colour_columns(mask)


def _fd_jacobian(fn, z: np.ndarray, h: float, groups: _Groups) -> np.ndarray:
    """Central-difference Jacobian of a vector map, compressed by column
    colours (Curtis, Powell & Reid 1974): no two columns of a colour share a
    row of the mask, so one residual pair per colour recovers all of its
    columns, bit for bit as if each were perturbed alone.  `fn` takes every
    pair at once, as the columns of one batch."""
    mask, colour = groups
    k = int(colour.max()) + 1
    on = colour[:, None] == np.arange(k)
    col = z[:, None]
    vals = fn(np.concatenate([np.where(on, col + h, col), np.where(on, col - h, col)],
                             axis=1))
    diff = (vals[:, :k] - vals[:, k:]) / (2.0 * h)
    return np.where(mask, diff[:, colour], 0.0)


def _hessian(prob: Problem, lam: float, z: np.ndarray, groups: _Groups) -> np.ndarray:
    h = FD_SCALE * (1.0 + float(np.linalg.norm(z)))
    jac = _fd_jacobian(lambda y: prob.gradient_vec(lam, y), z, h, groups)
    return 0.5 * (jac + jac.T)


def _classify(prob: Problem, lam: float, z: np.ndarray, groups: _Groups) -> str:
    eig_min = float(np.min(np.linalg.eigvalsh(_hessian(prob, lam, z, groups))))
    return "saddle" if eig_min < -1e-6 else "minimizer"


@dataclass
class _RawPoint:
    z: np.ndarray
    action: float
    residual_sup: float
    iterations: int
    converged: bool
    # one of OUTCOMES; find_three relabels a converged point that lies within
    # distinct_tol of an accepted one from "new" to "duplicate", and a polish
    # cut inside a capture ball ends "duplicate" unconverged
    outcome: str


def _finalize(prob: Problem, lam: float, raw: _RawPoint, groups: _Groups) -> CriticalPoint:
    """Label with the Hessian at the returned point itself."""
    kind = "unclassified"
    if raw.converged:
        kind = _classify(prob, lam, raw.z, groups)
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


@dataclass
class _Column:
    """One descent between lockstep steps.  `stop` stays None while it
    runs, then names how it ended: "polish" (hand over to Newton),
    "captured" or "diverged"."""

    z: np.ndarray
    action: float
    iters: int = 0
    t_warm: float = 1.0
    prev_z: Optional[np.ndarray] = None
    prev_grad: Optional[np.ndarray] = None
    stop: Optional[str] = None


def _launch(prob: Problem, lam: float, starts: Sequence[np.ndarray]) -> list[_Column]:
    zs = [np.asarray(z0, dtype=float).copy() for z0 in starts]
    actions = prob.action_vec(lam, np.stack(zs, axis=1))
    return [_Column(z, float(a)) for z, a in zip(zs, actions)]


def _start_bound(prob: Problem) -> float:
    return min(DIVERGE_NORM, DIVERGE_SCALE * (1.0 + prob.start_scale))


def _capture_balls(prob: Problem, accepted: Iterable[_RawPoint]) -> list[_Ball]:
    return [(a.z, CAPTURE_REL * r, a.action) for a in accepted
            if (r := prob.wnorm_vec(a.z)) > 0.0]


def _descent_step(prob: Problem, lam: float, cols: Sequence[_Column],
                  balls: Sequence[_Ball], bound: float, budget: int) -> None:
    """One iteration of every running column, in lockstep.

    Per column this is gradient descent with Armijo backtracking (halving),
    a Barzilai-Borwein guess seeding each line search; the residuals of all
    columns are one batched call, and so is each round of trial actions.
    A column stops for Newton at the budget, once its residual is below
    NEWTON_SWITCH or when its line search stalls; it stops "captured" or
    "diverged" by the early exits of the module docstring.

    The per-column arithmetic runs on (columns, n_dofs) arrays: each
    reduction is one call over C-contiguous rows (vecdot is the BLAS dot of
    the 1-D np.dot), and each update one array expression, so every column
    gets the bits of stepping it alone.  The columns keep copies of their
    rows, not views that would hold a whole batch.
    """
    for c in cols:
        if c.stop is None and c.iters >= budget:
            c.stop = "polish"
    run = [c for c in cols if c.stop is None]
    if not run:
        return
    z = np.stack([c.z for c in run])
    act = np.array([c.action for c in run])
    near = [(rows, zk, radius) for zk, radius, ball_act in balls
            if (rows := np.flatnonzero(act > ball_act)).size]
    if near:
        diffs = np.concatenate([z[rows] - zk for rows, zk, _ in near])
        dists = prob.wnorm_vec(np.ascontiguousarray(diffs.T))
        radii = np.concatenate([np.full(rows.size, radius) for rows, _, radius in near])
        for i in np.concatenate([rows for rows, _, _ in near])[dists < radii]:
            run[i].stop = "captured"
        live = np.array([c.stop is None for c in run])
        run, z, act = list(compress(run, live)), z[live], act[live]
        if not run:
            return
    res = np.ascontiguousarray(prob.residual_vec(lam, np.ascontiguousarray(z.T)).T)
    small = np.max(np.abs(res), axis=1) < NEWTON_SWITCH  # false for inf and NaN
    for c in compress(run, small):
        c.stop = "polish"
    run, z, act, res = list(compress(run, ~small)), z[~small], act[~small], res[~small]
    grad = prob.mu_dofs * res
    gg = np.vecdot(grad, grad)
    t = np.minimum(2.0 * np.array([c.t_warm for c in run]), 1e6)
    warm = np.array([c.prev_grad is not None for c in run], dtype=bool)
    if warm.any():
        dg = grad[warm] - np.stack([c.prev_grad for c in compress(run, warm)])
        dz = z[warm] - np.stack([c.prev_z for c in compress(run, warm)])
        dgg = np.vecdot(dg, dg)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = np.vecdot(dz, dg) / dgg
        good = (dgg > 0.0) & np.isfinite(bb) & (bb > 0.0)
        t[np.flatnonzero(warm)[good]] = np.minimum(bb[good], 1e6)
    idx = np.arange(len(run))  # the columns still searching
    while idx.size:
        stalled = t[idx] <= 1e-17
        for i in idx[stalled]:
            run[i].stop = "polish"  # stalled line search; give Newton a chance
        idx = idx[~stalled]
        if not idx.size:
            break
        ti = t[idx]
        cand = z[idx] - ti[:, None] * grad[idx]
        trial = prob.action_vec(lam, np.ascontiguousarray(cand.T))
        ok = np.isfinite(trial) & (trial <= act[idx] - ARMIJO_C * ti * gg[idx])
        diverged = (trial < DIVERGE_ACTION) | (np.max(np.abs(cand), axis=1) > bound)
        for j in np.flatnonzero(ok):
            c = run[idx[j]]
            c.prev_z, c.prev_grad = c.z, grad[idx[j]].copy()
            c.z, c.action, c.t_warm = cand[j].copy(), float(trial[j]), float(ti[j])
            c.iters += 1
            if diverged[j]:
                c.stop = "diverged"
        idx = idx[~ok]
        t[idx] *= 0.5


def _finish(prob: Problem, lam: float, col: _Column, cfg: SolverConfig,
            groups: _Groups, balls: Sequence[_Ball]) -> _RawPoint:
    """The point a stopped descent ends at: polished by Newton, or as it
    stopped (its residual not evaluated)."""
    if col.stop == "polish":
        return _newton_polish(prob, lam, col.z, cfg, col.iters, groups, balls)
    if col.stop == "diverged":
        return _diverged(col.z, col.action, np.inf, col.iters)
    return _RawPoint(z=col.z, action=col.action, residual_sup=np.inf,
                     iterations=col.iters, converged=False, outcome="captured")


def _minimize_z(prob: Problem, lam: float, z0: np.ndarray, cfg: SolverConfig,
                groups: _Groups, accepted: Optional[Sequence[_RawPoint]] = None
                ) -> _RawPoint:
    """Descend from z0, then polish with Newton: _descent_step on one column.

    `minimize` passes no `accepted`; the tests pass the points accepted so
    far, to run the starts in the serial order that `_multistart` reproduces
    in lockstep, which turns on its early exits (see the module docstring):
    "diverged" past |z|inf = DIVERGE_SCALE * (1 + start_scale), "captured"
    inside the ball of relative radius CAPTURE_REL around a nontrivial
    accepted point while the action is still above that point's, and a
    polish ended "duplicate" inside such a ball.
    """
    bound, balls = DIVERGE_NORM, []
    if accepted is not None:
        bound, balls = _start_bound(prob), _capture_balls(prob, accepted)
    budget = min(cfg.max_iters, DESCENT_BUDGET)
    with np.errstate(over="ignore", invalid="ignore"):
        col, = _launch(prob, lam, [z0])
        while col.stop is None:
            _descent_step(prob, lam, [col], balls, bound, budget)
        return _finish(prob, lam, col, cfg, groups, balls)


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
                   iters: int, groups: _Groups, balls: Sequence[_Ball] = ()) -> _RawPoint:
    """Newton on the gradient from where a descent stopped (_damped_newton),
    ending "duplicate" inside any of `balls` (see the module docstring)."""
    return _damped_newton(
        prob, lam, z, iters, cfg.max_iters, 3, np.inf, cfg.grad_tol,
        lambda y, res: (_hessian(prob, lam, y, groups), -(prob.mu_dofs * res)),
        lambda y, res: _sup(res), balls)


def minimize(prob: Problem, lam: float, start: State, cfg: SolverConfig) -> CriticalPoint:
    """Descend the action from `start`; returns the polished point.

    A point is accepted (``converged=True``) when the pointwise residual
    drops to grad_tol; on budget exhaustion the best iterate is returned
    tagged ``converged=False``.
    """
    lam = _check_lam(lam)
    _check_problem(prob)
    groups = _jacobian_groups(prob)
    raw = _minimize_z(prob, lam, prob.pack_state(start), cfg, groups)
    return _finalize(prob, lam, raw, groups)


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
                     z0: np.ndarray, cfg: SolverConfig, groups: _Groups) -> _RawPoint:
    """Newton on the deflated residual m(z) G(z) from z0 (_damped_newton)."""
    def system(z, res):
        m, dm = _deflation_factor(z, knowns)
        h = FD_SCALE * (1.0 + float(np.linalg.norm(z)))
        jac = _fd_jacobian(lambda y: prob.residual_vec(lam, y), z, h, groups)
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
    groups = _jacobian_groups(prob)
    raw = _deflated_newton(prob, lam, knowns, z0, cfg, groups)
    if raw.converged and not _distinct(prob, raw.z, knowns, cfg.distinct_tol):
        raise ConvergedToKnown("deflated iteration converged to an already-known point")
    return _finalize(prob, lam, raw, groups)


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


def _multistart(prob: Problem, lam: float, cfg: SolverConfig, groups: _Groups,
                radius: float, accepted: list[_RawPoint], accept) -> None:
    """Descend from starts 0..cfg.starts (index 0 is the deterministic origin
    start) and pass each result to `accept` in index order; `accepted`
    holds the points accepted so far.

    The results are those of running `_minimize_z` on one start after
    another.  The launched descents step together in lockstep, and start i
    resolves, by its Newton polish and acceptance, only after every start
    before it.  A resolution that adds a capture ball relaunches every later
    start from its start vector, as the serial loop would have tested it
    against that ball from its first iteration.  The window of launched
    starts doubles with each resolution that adds no ball and stays as it
    is when a ball is added; it sets only how much work is speculative and
    how many columns share a step.
    """
    bound = _start_bound(prob)
    budget = min(cfg.max_iters, DESCENT_BUDGET)
    balls = _capture_balls(prob, accepted)
    cols: list[_Column] = []  # the launched descents of starts lo, lo + 1, ...
    lo, window = 0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while lo <= cfg.starts:
            pending = range(lo + len(cols), min(lo + window, cfg.starts + 1))
            if pending:
                cols += _launch(prob, lam, [_start_vector(prob, cfg, i, radius)
                                            for i in pending])
            if cols[0].stop is None:
                _descent_step(prob, lam, cols, balls, bound, budget)
                continue
            known = len(accepted)
            accept("start", lo, _finish(prob, lam, cols.pop(0), cfg, groups, balls))
            lo += 1
            added = _capture_balls(prob, accepted[known:])
            if added:
                balls += added
                cols = []
            else:
                window *= 2


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
    radius = float(start_radius) if start_radius is not None else 1.0 + prob.start_scale
    if not 0.0 < radius < np.inf:
        raise BadParam(f"the start radius must be positive and finite, got {radius}")

    groups = _jacobian_groups(prob)
    accepted: list[_RawPoint] = []
    outcomes: list[tuple[str, int, str, int]] = []

    def accept(phase: str, index: int, raw: _RawPoint) -> None:
        if raw.converged:
            if _distinct(prob, raw.z, (a.z for a in accepted), cfg.distinct_tol):
                accepted.append(raw)
            else:
                raw.outcome = "duplicate"
        outcomes.append((phase, index, raw.outcome, raw.iterations))

    _multistart(prob, lam, cfg, groups, radius, accepted, accept)

    attempts = max(32, cfg.starts)
    attempt = 0
    while len(accepted) < 3 and attempt < attempts:
        if accepted:
            base = accepted[attempt % len(accepted)].z
        else:
            base = np.zeros(prob.n_dofs)
        scale = (0.25, 0.5, 1.0, 2.0)[attempt % 4]
        z0 = base + _perturbation(cfg, attempt, prob.n_dofs, scale * radius)
        raw = _deflated_newton(prob, lam, [a.z for a in accepted], z0, cfg, groups)
        accept("deflation", attempt, raw)
        attempt += 1

    accepted.sort(key=lambda r: r.action)
    points = [_finalize(prob, lam, raw, groups) for raw in accepted]
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
