"""Command-line interface.

Subcommands: validate, op, interval, solve, sweep.  Every run that writes a
report also writes a ``<report>.manifest.json`` with content digests of the
input files, the effective configuration, the tool version, and the seed;
timestamps live only in the manifest, so reports themselves are byte-stable
across reruns with identical inputs.

Exit codes are frozen for scripting: 0 ok, 1 io/parse, 2 validation (an
overflowing parameter too), 3 hypotheses failed, 4 fewer than three
solutions under --expect-three.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__ as TOOL_VERSION
from . import calculus
from .errors import GraphVarError, BadParam, IoError, ParseError
from .functionals import Problem
from .graph import (VertexFunction, build_graph, function_from_doc, function_to_doc,
                    integrate)
from .intervals import _labels, interval_finite, interval_locally_finite
from .problems import BUILTIN_KEYS, PreparedProblem, builtin_problem, problem_from_doc
from .solver import (OUTCOMES, SolutionSet, SolverConfig, _stop_estimate, find_three,
                     solution_set_to_json)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_HYPOTHESES = 3
EXIT_FEWER = 4


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_manifest(report_path: str, command: str, input_paths: list[str],
                    config: dict, seed: Optional[int],
                    stats: Optional[dict | list] = None) -> None:
    manifest = {
        "command": command,
        "tool_version": TOOL_VERSION,
        "seed": seed,
        "inputs": {p: _sha256(p) for p in input_paths},
        "config": config,
        "outputs": [report_path],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if stats is not None:
        manifest["stats"] = stats
    _write_text(report_path + ".manifest.json",
                json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# the flags each bundled problem reads
_BUILTIN_FLAGS = {"example-6.1": ("r1", "r2"), "example-6.2": ("r_tail", "radius")}


def _load_problem(args) -> tuple[PreparedProblem, list[str], dict]:
    """The problem, the input files, and the problem's part of the manifest
    config: the bundled key and the flags it reads, or nothing for a
    problem document, whose digest is among the inputs."""
    if args.reproduce:
        prep = builtin_problem(args.reproduce, r1=args.r1, r2=args.r2,
                               r=args.r_tail, radius=args.radius)
        flags = _BUILTIN_FLAGS[args.reproduce]
        return prep, [], {"builtin": args.reproduce,
                          **{name: getattr(args, name) for name in flags}}
    if not args.problem:
        raise BadParam("either --problem or --reproduce is required")
    prep = problem_from_doc(_read_json(args.problem))
    return prep, [args.problem], {}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = _read_json(args.graph)
    g = build_graph(doc)  # raises a validation error naming the offender
    print(f"valid graph: {g.n_vertices} vertices, {g.n_edges} edges, "
          f"total measure {g.total_measure():g}")
    return EXIT_OK


def cmd_op(args) -> int:
    g = build_graph(_read_json(args.graph))
    u = function_from_doc(g, _read_json(args.u))
    name = args.name
    scalar = None
    if name == "laplacian":
        out = calculus.laplacian(g, u)
    elif name == "grad_norm":
        out = calculus.grad_norm(g, u)
    elif name == "m_grad_norm":
        out = calculus.m_grad_norm(g, u, args.m)
    elif name == "p_laplacian":
        out = calculus.p_laplacian(g, u, args.p)
    elif name == "poly_lap":
        out = VertexFunction(g, calculus.poly_lap_apply_arr(g, u.values, args.m, args.p))
    elif name == "gamma":
        if not args.v:
            raise BadParam("gamma needs a second function via --v")
        v = function_from_doc(g, _read_json(args.v))
        out = calculus.gamma(g, u, v)
    elif name == "lr_norm":
        scalar = calculus.lr_norm(g, u, args.r)
    elif name == "integrate":
        scalar = integrate(g, u)
    else:
        raise BadParam(f"unknown operator {name!r}")
    if scalar is not None:
        text = repr(scalar) + "\n"
    else:
        text = json.dumps(function_to_doc(out), sort_keys=True, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
        inputs = [args.graph, args.u] + ([args.v] if args.v else [])
        _write_manifest(args.out, "op", inputs,
                        {"name": name, "m": args.m, "p": args.p, "r": args.r},
                        seed=None)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_interval(args) -> int:
    prep, inputs, config = _load_problem(args)
    mode = args.mode or prep.mode
    # --gamma/--delta for one component, --gamma1/--gamma2/... for two
    k = len(prep.problem.components)
    sub = _labels(k)
    values = []
    for name, defaults in (("gamma", prep.gammas), ("delta", prep.deltas)):
        given = [getattr(args, name + s) for s in sub]
        values += [v if v is not None else defaults[i] if defaults else None
                   for i, v in enumerate(given)]
    if None in values:
        raise BadParam("intervals need " + ", ".join(
            f"--{name}{s}" for name in ("gamma", "delta") for s in sub))
    config.update(mode=mode, gammas=values[:k], deltas=values[k:])
    if mode == "finite":
        report = interval_finite(prep.problem, *values)
    else:
        config.update(x0=args.x0 or prep.x0,
                      h0=args.h0 if args.h0 is not None else prep.h0,
                      mu0=args.mu0 if args.mu0 is not None else prep.mu0)
        report = interval_locally_finite(prep.problem, config["x0"], *values,
                                         h0=config["h0"], mu0=config["mu0"])

    text = json.dumps(report.to_doc(), sort_keys=True, indent=2) + "\n"
    _write_text(args.out, text)
    _write_manifest(args.out, "interval", inputs, config, seed=None)
    print(f"lambda interval: ({report.lambda_lo:.6g}, {report.lambda_hi:.6g})  "
          f"valid: {report.valid}")
    for h in report.hypotheses:
        if not h.passed:
            print(f"  hypothesis {h.name} failed: {h.witness}")
    return EXIT_OK if report.valid else EXIT_HYPOTHESES


def _solver_setup(args, prep) -> tuple[SolverConfig, Optional[float], dict]:
    """The solver configuration from the command line, the start radius (1 +
    the largest reference delta, or the solver's default without one), and
    the solver's part of the manifest config."""
    cfg = SolverConfig(starts=args.starts, max_iters=args.max_iters,
                       grad_tol=args.grad_tol, distinct_tol=args.distinct_tol,
                       seed=args.seed)
    config = {"starts": cfg.starts, "max_iters": cfg.max_iters,
              "grad_tol": cfg.grad_tol, "distinct_tol": cfg.distinct_tol}
    return cfg, (1.0 + max(prep.deltas) if prep.deltas else None), config


def _outcome_stats(prob: Problem, sset: SolutionSet) -> dict:
    """How the starts and the deflation attempts of a solve ended, counted
    per outcome, and where the multistart stopped: after how many starts,
    with N and W of its stopping rule, and the rule's estimate when the
    rule stopped it ("rule") or null when it ran to --starts ("cap").  A
    note says that minimizer labels are local when a start diverged or when
    the model's growth exponents are not below the component exponents, so
    the action need not be bounded below."""
    stats = {phase: dict.fromkeys(OUTCOMES, 0) for phase in ("start", "deflation")}
    for phase, _, outcome, _ in sset.outcomes:
        stats[phase][outcome] += 1
    starts = stats["start"]
    n, w = sum(starts.values()) - starts["diverged"], starts["new"]
    estimate = _stop_estimate(n, w)
    stats["multistart"] = {"starts": sum(starts.values()), "n": n, "w": w,
                           "stop": "cap" if estimate is None else "rule",
                           "estimate": estimate}
    reasons = []
    if stats["start"]["diverged"]:
        reasons.append(f"{stats['start']['diverged']} start(s) diverged, so the "
                       "action is unbounded below")
    growth, exps = prob.nonlinearity.growth, prob.solver_exponents
    if growth is not None:
        rates = (growth.alpha, growth.beta)[:len(exps)]
        if any(a >= e for a, e in zip(rates, exps)):
            reasons.append(f"growth exponents {rates} are not all below the "
                           f"exponents {exps}, so the action need not be bounded below")
    if reasons:
        stats["note"] = "; ".join(reasons) + ": \"minimizer\" labels are local"
    return stats


def cmd_solve(args) -> int:
    prep, inputs, config = _load_problem(args)
    cfg, radius, solver_config = _solver_setup(args, prep)
    sset = find_three(prep.problem, args.lam, cfg, start_radius=radius)
    text = solution_set_to_json(sset)
    _write_text(args.out, text)
    config.update(solver_config, expect_three=bool(args.expect_three))
    config["lambda"] = args.lam
    _write_manifest(args.out, "solve", inputs, config, seed=cfg.seed,
                    stats=_outcome_stats(prep.problem, sset))

    print(f"lambda = {sset.lam:g}: {len(sset.points)} distinct critical point(s)")
    print(f"{'#':>2}  {'action':>18}  {'residual':>12}  {'kind':<12} nontrivial")
    for i, (pt, flag) in enumerate(zip(sset.points, sset.nontrivial)):
        print(f"{i:>2}  {pt.action_value:>18.10g}  {pt.residual_sup:>12.3e}  "
              f"{pt.kind:<12} {flag}")
    if args.expect_three and not sset.found_three:
        return EXIT_FEWER
    return EXIT_OK


def cmd_sweep(args) -> int:
    prep, inputs, config = _load_problem(args)
    if args.steps < 2:
        raise BadParam(f"steps must be >= 2, got {args.steps}")
    if not 0.0 < args.lambda_min < args.lambda_max < np.inf:
        raise BadParam(f"need 0 < --lambda-min < --lambda-max < inf, "
                       f"got ({args.lambda_min}, {args.lambda_max})")
    cfg, radius, solver_config = _solver_setup(args, prep)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    rows, stats = [], []
    for lam in lams:
        sset = find_three(prep.problem, float(lam), cfg, start_radius=radius)
        stats.append({"lambda": float(lam), **_outcome_stats(prep.problem, sset)})
        actions = [p.action_value for p in sset.points]
        residuals = [p.residual_sup for p in sset.points]
        rows.append({
            "lambda": repr(float(lam)),
            "solutions_found": len(sset.points),
            "min_action": repr(min(actions)) if actions else "",
            "max_residual": repr(max(residuals)) if residuals else "",
        })
        print(f"lambda = {lam:.6g}: {len(sset.points)} solution(s)")
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["lambda", "solutions_found", "min_action", "max_residual"])
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    config.update(solver_config, lambda_min=args.lambda_min,
                  lambda_max=args.lambda_max, steps=args.steps)
    _write_manifest(args.out, "sweep", inputs, config, seed=cfg.seed, stats=stats)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_problem_args(sub) -> None:
    sub.add_argument("--problem", help="problem document (JSON)")
    sub.add_argument("--reproduce", choices=BUILTIN_KEYS,
                     help="use a bundled problem")
    sub.add_argument("--r1", type=float, default=2.0,
                     help="tail exponent r1 of the coupled builtin (default 2)")
    sub.add_argument("--r2", type=float, default=3.0,
                     help="tail exponent r2 of the coupled builtin (default 3)")
    sub.add_argument("--r-tail", type=float, default=5.0,
                     help="tail exponent r of the scalar builtin (default 5)")
    sub.add_argument("--radius", type=int, default=6,
                     help="truncation radius for the lattice-ball problem (default 6)")


def _add_solver_args(sub) -> None:
    sub.add_argument("--starts", type=int, default=64,
                     help="the last start index (default 64): a cap, the multistart "
                          "stops earlier once its remaining starts can only repeat")
    sub.add_argument("--max-iters", type=int, default=10000)
    sub.add_argument("--grad-tol", type=float, default=1e-8)
    sub.add_argument("--distinct-tol", type=float, default=1e-4)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphvar",
        description="Variational calculus on weighted graphs: operators, "
                    "admissible parameter intervals, multi-solution solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    sv = subs.add_parser("validate", help="validate a graph file")
    sv.add_argument("graph")
    sv.set_defaults(fn=cmd_validate)

    so = subs.add_parser("op", help="apply an operator to a vertex function")
    so.add_argument("name", choices=["gamma", "grad_norm", "laplacian", "m_grad_norm",
                                     "p_laplacian", "poly_lap", "lr_norm", "integrate"])
    so.add_argument("--graph", required=True)
    so.add_argument("--u", required=True, help="vertex-function file")
    so.add_argument("--v", help="second vertex-function file (gamma)")
    so.add_argument("--m", type=int, default=1)
    so.add_argument("--p", type=float, default=2.0)
    so.add_argument("--r", type=float, default=2.0)
    so.add_argument("-o", "--out", help="write the result here instead of stdout")
    so.set_defaults(fn=cmd_op)

    si = subs.add_parser("interval", help="compute the admissible parameter interval")
    _add_problem_args(si)
    si.add_argument("--mode", choices=["finite", "locally_finite"])
    si.add_argument("--gamma1", type=float)
    si.add_argument("--gamma2", type=float)
    si.add_argument("--delta1", type=float)
    si.add_argument("--delta2", type=float)
    si.add_argument("--gamma", type=float)
    si.add_argument("--delta", type=float)
    si.add_argument("--x0")
    si.add_argument("--h0", type=float)
    si.add_argument("--mu0", type=float)
    si.add_argument("-o", "--out", default="interval_report.json")
    si.set_defaults(fn=cmd_interval)

    ss = subs.add_parser("solve", help="find distinct critical points")
    _add_problem_args(ss)
    _add_solver_args(ss)
    ss.add_argument("--lambda", dest="lam", type=float, required=True)
    ss.add_argument("--expect-three", action="store_true",
                    help="exit 4 unless at least three distinct points are found")
    ss.add_argument("-o", "--out", default="solution_set.json")
    ss.set_defaults(fn=cmd_solve)

    sw = subs.add_parser("sweep", help="solve across a parameter range, emit CSV")
    _add_problem_args(sw)
    _add_solver_args(sw)
    sw.add_argument("--lambda-min", type=float, required=True)
    sw.add_argument("--lambda-max", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("-o", "--out", default="sweep.csv")
    sw.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IoError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GraphVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # a parameter too large for float arithmetic
        print(f"error: a parameter is out of range, float arithmetic overflowed: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
