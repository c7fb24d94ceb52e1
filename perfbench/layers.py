"""Where the benchmark wraps graphvar, and the per-layer metrics it derives.

Every wrap is looked up by name at run time: problem and nonlinearity
methods on the classes of the objects the workload built, the solver's
phase functions by their module names, and kernels by the names their
callers import.  When a name is gone its metrics are reported as absent.
"""

from __future__ import annotations

import numpy as np

from tracing import Tracer, columns

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# (metric, unit) in report order; see README.md for what each should move
PER_LAYER = [
    ("problems.build.calls", COUNT), ("problems.build.busy_s", SECONDS),
    ("graph.build.calls", COUNT), ("graph.build.busy_s", SECONDS),
    ("calculus.poly_lap_apply.calls", COUNT), ("calculus.poly_lap_apply.cols", COUNT),
    ("calculus.poly_lap_apply.busy_s", SECONDS),
    ("calculus.m_grad_norm.calls", COUNT), ("calculus.m_grad_norm.busy_s", SECONDS),
    ("calculus.pointwise.calls", COUNT), ("calculus.pointwise.busy_s", SECONDS),
    ("nonlinearity.F.calls", COUNT), ("nonlinearity.F.busy_s", SECONDS),
    ("nonlinearity.partials.calls", COUNT), ("nonlinearity.partials.busy_s", SECONDS),
    ("functionals.residual.calls", COUNT), ("functionals.residual.cols", COUNT),
    ("functionals.residual.busy_s", SECONDS), ("functionals.residual.self_s", SECONDS),
    ("functionals.action.calls", COUNT), ("functionals.action.cols", COUNT),
    ("functionals.action.busy_s", SECONDS), ("functionals.action.self_s", SECONDS),
    ("solver.descent.starts", COUNT), ("solver.descent.iters", COUNT),
    ("solver.descent.converged_ratio", RATIO), ("solver.descent.self_s", SECONDS),
    ("solver.linesearch.action_per_iter", RATIO),
    ("solver.polish.calls", COUNT), ("solver.polish.busy_s", SECONDS),
    ("solver.jacobian.builds", COUNT), ("solver.jacobian.busy_s", SECONDS),
    ("solver.jacobian.residual_evals", COUNT), ("solver.jacobian.residual_share", RATIO),
    ("solver.linsolve.calls", COUNT), ("solver.linsolve.busy_s", SECONDS),
    ("solver.deflation.attempts", COUNT), ("solver.deflation.useful_ratio", RATIO),
    ("solver.deflation.busy_s", SECONDS),
    ("solver.classify.calls", COUNT), ("solver.classify.busy_s", SECONDS),
    ("intervals.report.calls", COUNT), ("intervals.report.busy_s", SECONDS),
    ("intervals.box_max.calls", COUNT), ("intervals.box_max.busy_s", SECONDS),
    ("cli.main.self_s", SECONDS),
    ("trace.overhead_s", SECONDS), ("trace.spans", COUNT),
]

# count fields that are span counts under another name
_CALLS = {"starts": "calls", "builds": "calls", "attempts": "calls"}

# metrics read from hooks, and the wrapped layers whose hooks they need
_HOOKED = {
    "functionals.residual.cols": ("functionals.residual",),
    "functionals.action.cols": ("functionals.action",),
    "calculus.poly_lap_apply.cols": ("calculus.poly_lap_apply",),
    "solver.descent.iters": ("solver.descent", "solver.polish"),
    "solver.descent.converged_ratio": ("solver.descent",),
    "solver.linesearch.action_per_iter": ("solver.descent", "solver.polish",
                                          "functionals.action"),
    "solver.jacobian.residual_evals": ("solver.jacobian", "functionals.residual"),
    "solver.jacobian.residual_share": ("solver.jacobian", "functionals.residual"),
    "solver.deflation.useful_ratio": ("solver.deflation",),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _guard(tr: Tracer, layer: str, hook):
    """Run `hook`; a signature it no longer fits marks `layer`'s hook absent."""
    def after(args, kwargs, out):
        try:
            hook(args, kwargs, out)
        except (AttributeError, IndexError, KeyError, TypeError):
            tr.absent.add(layer + ".hook")
    return after


def instrument(tr: Tracer, gv, problem_types, nonlinearity_types) -> None:
    """Install every wrap.  Top-level spans: `find_three` and `cli.main`."""
    from graphvar import calculus, cli, functionals, intervals, solver

    c = tr.counts
    state = {"polish_in": None}

    def wrap_any(owner, attrs, layer, after=None, top=False):
        if not any([tr.wrap(owner, a, layer, after, top) for a in attrs]):
            tr.absent.add(layer)

    def residual_after(args, kwargs, out):
        n = columns(_arg(args, kwargs, 2, "z"))
        c["functionals.residual.cols"] += n
        if tr.inside("solver.jacobian"):
            c["solver.jacobian.residual_evals"] += n

    def action_after(args, kwargs, out):
        n = columns(_arg(args, kwargs, 2, "z"))
        c["functionals.action.cols"] += n
        if tr.parent_is("solver.descent"):
            c["solver.linesearch.action"] += n

    def kernel_after(args, kwargs, out):
        c["calculus.poly_lap_apply.cols"] += columns(_arg(args, kwargs, 1, "arr"))

    def polish_after(args, kwargs, out):
        if tr.parent_is("solver.descent"):
            state["polish_in"] = int(_arg(args, kwargs, 4, "iters"))

    def descent_after(args, kwargs, out):
        # descent iterations are what it hands to the polish, or all of them
        # when it stopped without polishing (divergence)
        iters = state["polish_in"]
        state["polish_in"] = None
        c["solver.descent.iters"] += out.iterations if iters is None else iters
        c["solver.descent.converged"] += bool(out.converged)

    def deflation_after(args, kwargs, out):
        prob, knowns, cfg = args[0], _arg(args, kwargs, 2, "knowns"), _arg(args, kwargs, 4, "cfg")
        tr.on = False  # the distinctness test is the benchmark's, not the solver's
        try:
            useful = bool(out.converged) and all(
                prob.wnorm_vec(out.z - zk) > cfg.distinct_tol for zk in knowns)
        finally:
            tr.on = True
        c["solver.deflation.useful"] += useful

    wrap_any(gv, ["find_three"], "solver.find_three", top=True)
    wrap_any(cli, ["main"], "cli.main", top=True)
    wrap_any(cli, ["builtin_problem"], "problems.build")
    wrap_any(gv.WeightedGraph, ["__init__"], "graph.build")
    wrap_any(functionals, ["poly_lap_apply_arr"], "calculus.poly_lap_apply",
             _guard(tr, "calculus.poly_lap_apply", kernel_after))
    wrap_any(functionals, ["m_grad_norm_arr"], "calculus.m_grad_norm")
    wrap_any(calculus, ["poly_lap_pointwise"], "calculus.pointwise")
    for cls in dict.fromkeys(nonlinearity_types):
        wrap_any(cls, ["F_on"], "nonlinearity.F")
        wrap_any(cls, ["Fs_on", "Ft_on"], "nonlinearity.partials")
    for cls in dict.fromkeys(problem_types):
        wrap_any(cls, ["residual_vec"], "functionals.residual",
                 _guard(tr, "functionals.residual", residual_after))
        wrap_any(cls, ["action_vec"], "functionals.action",
                 _guard(tr, "functionals.action", action_after))
    wrap_any(solver, ["_minimize_z"], "solver.descent",
             _guard(tr, "solver.descent", descent_after))
    wrap_any(solver, ["_newton_polish"], "solver.polish",
             _guard(tr, "solver.polish", polish_after))
    wrap_any(solver, ["_fd_jacobian"], "solver.jacobian")
    wrap_any(np.linalg, ["solve"], "solver.linsolve")
    wrap_any(solver, ["_deflated_newton"], "solver.deflation",
             _guard(tr, "solver.deflation", deflation_after))
    wrap_any(solver, ["_classify"], "solver.classify")
    wrap_any(cli, ["interval_finite", "interval_locally_finite", "interval_scalar"],
             "intervals.report")
    wrap_any(intervals, ["box_max_F", "envelope_max"], "intervals.box_max")


def per_layer_metrics(tr: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer values per traced pass, out of `passes`; None = absent."""
    times = tr.layer_times()
    c = tr.counts

    def total(layer, field="calls"):
        return times.get(layer, {}).get(field, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "solver.descent.converged_ratio": ratio(c["solver.descent.converged"],
                                                total("solver.descent")),
        "solver.linesearch.action_per_iter": ratio(c["solver.linesearch.action"],
                                                   c["solver.descent.iters"]),
        "solver.jacobian.residual_share": ratio(c["solver.jacobian.residual_evals"],
                                                c["functionals.residual.cols"]),
        "solver.deflation.useful_ratio": ratio(c["solver.deflation.useful"],
                                               total("solver.deflation")),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tr.name) / passes,
    }
    out = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        deps = _HOOKED.get(name, ())
        if layer in tr.absent or any(d in tr.absent or d + ".hook" in tr.absent
                                     for d in deps):
            out[name] = None
        elif name in derived:
            out[name] = float(derived[name])
        elif name in _HOOKED:  # the hooks' counters
            out[name] = c[name] / passes
        else:
            out[name] = total(layer, _CALLS.get(field, field)) / passes
    return out
