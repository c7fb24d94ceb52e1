"""Exception types shared across the package.

Every error raised by the library derives from :class:`GraphVarError`, so
callers (and the CLI) can catch one base class.  The CLI maps families of
errors onto its frozen exit-code contract.
"""

from __future__ import annotations


class GraphVarError(Exception):
    """Base class for all graphvar errors."""


# ---------------------------------------------------------------------------
# graph construction / validation
# ---------------------------------------------------------------------------

class NonPositiveWeight(GraphVarError):
    """An edge weight is zero or negative."""


class NonPositiveMeasure(GraphVarError):
    """A vertex measure is zero or negative."""


class SelfLoop(GraphVarError):
    """An edge connects a vertex to itself."""


class DuplicateEdge(GraphVarError):
    """The same unordered vertex pair is listed twice."""


class DanglingEdge(GraphVarError):
    """An edge endpoint is not a declared vertex."""


class UnknownVertex(GraphVarError):
    """A vertex id is not part of the graph."""


# ---------------------------------------------------------------------------
# operator / functional arguments
# ---------------------------------------------------------------------------

class DomainMismatch(GraphVarError):
    """A vertex function is paired with a graph it was not built on."""


class BadParam(GraphVarError):
    """A parameter is outside its documented range."""


class SingularExponent(GraphVarError):
    """An exponent below 2 hit a configuration where the operator is singular."""


class NonPositivePotential(GraphVarError):
    """A potential h must be strictly positive on every vertex."""


class RegularizationWarning(UserWarning):
    """A vanishing gradient was regularized for an exponent below 2."""


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

class InconsistentDerivative(GraphVarError):
    """Finite differences of F disagree with the declared partials."""


class MissingEnvelope(GraphVarError):
    """A locally-finite interval computation needs envelope data (a, b)."""


# ---------------------------------------------------------------------------
# intervals / solver
# ---------------------------------------------------------------------------

class ConvergedToKnown(GraphVarError):
    """A deflated iteration landed within distinct_tol of a known point."""


# ---------------------------------------------------------------------------
# CLI file handling
# ---------------------------------------------------------------------------

class IoError(GraphVarError):
    """A file could not be read or written."""


class ParseError(GraphVarError):
    """A file was read but its contents are not a valid document."""
