"""Bundled reference problems and the problem-document reader.

Two ready-made configurations ship with the package:

* ``example-6.1`` - the coupled system on the 3x3 grid with constant
  potentials 9, orders (2, 2), exponents (2, 3), and the coupled builtin
  nonlinearity.  The box parameters are derived from
  gamma1 = (81/2)^(1/2), gamma2 = (81/3)^(1/3), delta1 = 4 sqrt(15),
  delta2 = 5 (45/2)^(1/3).
* ``example-6.2`` - the scalar problem on a lattice ball (default radius 6,
  a Dirichlet truncation of the infinite lattice), potential 4, exponent 3,
  with the spike nonlinearity at the center, gamma = (16/3)^(1/3),
  delta = 6 * 4^(1/3), floors h0 = 4 and mu0 = 1.

The tail exponents (r1, r2, r) default to the top of their allowed ranges
and can be overridden; the interval endpoints do not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BadParam
from .functionals import Problem, ProblemSpec, ScalarProblem
from .graph import (
    VertexFunction,
    WeightedGraph,
    build_graph,
    doc_number,
    function_from_doc,
    generate_builtin,
    lattice_ball,
    lattice_ball_center,
)
from .nonlinearity import (
    builtin_example_6_1,
    builtin_example_6_2,
    nonlinearity_from_doc,
)

BUILTIN_KEYS = ("example-6.1", "example-6.2")


@dataclass(frozen=True)
class PreparedProblem:
    """A problem plus everything the interval computation needs."""

    key: str
    problem: Problem
    mode: str  # finite | locally_finite
    gammas: tuple[float, ...]
    deltas: tuple[float, ...]
    x0: Optional[str] = None
    h0: Optional[float] = None
    mu0: Optional[float] = None


def builtin_problem(key: str, r1: float = 2.0, r2: float = 3.0,
                    r: float = 5.0, radius: int = 6) -> PreparedProblem:
    """Construct one of the bundled problems by key."""
    if key == "example-6.1":
        g = generate_builtin("grid3x3")
        h1 = VertexFunction.constant(g, 9.0)
        h2 = VertexFunction.constant(g, 9.0)
        p, q = 2.0, 3.0
        gamma1, gamma2 = (81.0 / 2.0) ** 0.5, (81.0 / 3.0) ** (1.0 / 3.0)
        delta1 = 4.0 * 15.0 ** 0.5
        delta2 = 5.0 * (45.0 / 2.0) ** (1.0 / 3.0)
        gp = gamma1 ** p + gamma2 ** q
        omega1 = (p * gp) ** (1.0 / p) / 9.0 ** (1.0 / p)
        omega2 = (q * gp) ** (1.0 / q) / 9.0 ** (1.0 / q)
        model = builtin_example_6_1(omega1, omega2, r1=r1, r2=r2)
        prob = ProblemSpec(graph=g, m1=2, m2=2, p=p, q=q, h1=h1, h2=h2,
                           nonlinearity=model)
        return PreparedProblem(key=key, problem=prob, mode="finite",
                               gammas=(gamma1, gamma2), deltas=(delta1, delta2))
    if key == "example-6.2":
        g = lattice_ball(radius)
        x0 = lattice_ball_center(radius)
        h = VertexFunction.constant(g, 4.0)
        p = 3.0
        h0, mu0 = 4.0, 1.0
        gamma = (16.0 / 3.0) ** (1.0 / 3.0)
        delta = 6.0 * 4.0 ** (1.0 / 3.0)
        omega = (p * gamma ** p) ** (1.0 / p) / (h0 * mu0) ** (1.0 / p)
        model = builtin_example_6_2(omega, r=r, support=x0)
        prob = ScalarProblem(graph=g, m=1, p=p, h=h, nonlinearity=model)
        return PreparedProblem(key=key, problem=prob, mode="locally_finite",
                               gammas=(gamma,), deltas=(delta,),
                               x0=x0, h0=h0, mu0=mu0)
    raise BadParam(f"unknown builtin problem {key!r}; choices: {BUILTIN_KEYS}")


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------

def _graph_from_doc(doc) -> WeightedGraph:
    if "builtin" in doc:
        params = doc.get("params", {})
        for name, value in params.items():
            doc_number(value, f"graph parameter {name!r}")
        return generate_builtin(doc["builtin"], **params)
    return build_graph(doc)


def _potential_from_doc(g: WeightedGraph, doc) -> VertexFunction:
    if not isinstance(doc, dict):
        return VertexFunction.constant(g, doc_number(doc, "a potential"))
    if "const" in doc:
        return VertexFunction.constant(g, doc_number(doc["const"], "a potential's 'const'"))
    if "values" in doc:
        return function_from_doc(g, doc)
    raise BadParam("potential document needs 'const' or 'values'")


def problem_from_doc(doc: dict) -> PreparedProblem:
    """Read a problem document.

    Layout::

        {
          "mode": "finite" | "locally_finite",
          "graph": {...graph doc...} | {"builtin": "grid3x3" | "lattice_ball",
                                        "params": {...}},
          "nonlinearity": {...nonlinearity doc...},
          # coupled form
          "m1": 2, "m2": 2, "p": 2.0, "q": 3.0,
          "h1": {"const": 9.0}, "h2": {"values": {...}},
          "gamma1": ..., "gamma2": ..., "delta1": ..., "delta2": ...,
          # scalar form instead
          "m": 1, "p": 3.0, "h": {"const": 4.0}, "gamma": ..., "delta": ...,
          # locally finite extras
          "x0": "...", "h0": 4.0, "mu0": 1.0
        }
    """
    try:
        g = _graph_from_doc(doc["graph"])
        model = nonlinearity_from_doc(doc["nonlinearity"])
        mode = doc.get("mode", "finite")
        if mode not in ("finite", "locally_finite"):
            raise BadParam(f"unknown mode {mode!r}")
        scalar = "m" in doc or "h" in doc
        if scalar:
            prob = ScalarProblem(
                graph=g, m=doc["m"], p=doc_number(doc["p"], "p"),
                h=_potential_from_doc(g, doc["h"]), nonlinearity=model)
            gammas = (doc_number(doc["gamma"], "gamma"),) if "gamma" in doc else ()
            deltas = (doc_number(doc["delta"], "delta"),) if "delta" in doc else ()
        else:
            prob = ProblemSpec(
                graph=g, m1=doc["m1"], m2=doc["m2"],
                p=doc_number(doc["p"], "p"), q=doc_number(doc["q"], "q"),
                h1=_potential_from_doc(g, doc["h1"]),
                h2=_potential_from_doc(g, doc["h2"]),
                nonlinearity=model)
            gammas = (tuple(doc_number(doc[k], k) for k in ("gamma1", "gamma2"))
                      if "gamma1" in doc else ())
            deltas = (tuple(doc_number(doc[k], k) for k in ("delta1", "delta2"))
                      if "delta1" in doc else ())
        return PreparedProblem(
            key=doc.get("name", "custom"), problem=prob, mode=mode,
            gammas=gammas, deltas=deltas,
            x0=str(doc["x0"]) if "x0" in doc else None,
            h0=doc_number(doc["h0"], "h0") if "h0" in doc else None,
            mu0=doc_number(doc["mu0"], "mu0") if "mu0" in doc else None)
    except KeyError as exc:
        raise BadParam(f"problem document is missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise BadParam(f"malformed problem document: {exc}") from exc
