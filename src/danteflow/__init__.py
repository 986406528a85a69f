"""Curvature and Ricci-flow dynamics of homogeneously deformed 3-spheres.

The package splits into four layers:

* :mod:`danteflow.geometry` -- static curvature of a deformed S^3, the
  shape classification (isotropic / snake / turtle / dragon / degenerate)
  and the triangle and eigenvalue-ratio charts of a shape.
* :mod:`danteflow.flow` -- the reduced Ricci-flow ODEs, an adaptive
  integrator with collapse detection, and the closed-form symmetric
  solutions that cross-check it.
* :mod:`danteflow.shapespace` -- flow-line tracing through the triangle
  and region-boundary extraction.
* :mod:`danteflow.cli` -- the ``danteflow`` command emitting CSV/JSON.

Which modules load when:

* ``import danteflow`` runs errors and geometry.  It registers flow and
  shapespace in ``sys.modules`` through ``importlib.util.LazyLoader``
  without running them: each runs on its first attribute access, an
  ``import`` of it, or the first access to one of its names re-exported
  here (served by the module ``__getattr__``, which then binds the name in
  this namespace).
* ``import danteflow.cli`` adds cli and the standard library's argparse;
  cli binds the lazy flow and shapespace modules once and calls their
  names.  So ``curvature`` and ``classify`` run only geometry, while
  ``simulate``, ``snake``, ``turtle``, ``flowlines`` and ``regions`` run
  flow (and the last two shapespace).
* numpy is imported once, at the top of each lazy module (flow and
  shapespace); their laziness alone keeps it off ``import danteflow`` and
  the quick queries.  cli, which every command imports, imports numpy
  inside the two functions that use it, ``simulate`` and ``_closed_form``.
* Threads: two threads that make the first access to ``danteflow.flow`` or
  ``danteflow.shapespace`` together can see it half-built (AttributeError),
  so make that access in one thread before the others start.
"""
import importlib.util
import sys

from .errors import (CollapseReachedError, DanteFlowError, DegenerateShapeError,
                     DomainError, IntegrationFailureError, SingularMapError,
                     SingularSlopeError)
from .geometry import (DEFAULT_EQ_TOL, DEFAULT_R_SQUARED, Classification,
                       CurvatureSummary, MetricCoeffs, RicciRatios, ShapeKind,
                       ShapePoint, StretchFactors, classify,
                       connection_coefficients, curvature_summary,
                       metric_coeffs, principal_curvatures, ricci_eigenvalues,
                       scalar_curvature, semiperimeter, stretch_from_metric,
                       to_rho_tau, to_xy)


def _lazy(name: str):
    """Register the submodule `name` in sys.modules, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


flow = _lazy("flow")
shapespace = _lazy("shapespace")

#: Re-exported names of the lazy modules, each with the module that holds it.
_LAZY = {
    **dict.fromkeys((
        "FlowParams", "SnakeSolution", "Termination", "Trajectory",
        "TurtleSolution", "integrate", "isotropic_lambda", "rhs",
        "snake_lambda_of_time", "snake_profile", "snake_time_of_lambda",
        "turtle_mu_of_time", "turtle_profile", "turtle_time_of_mu", "x_rate"),
        flow),
    **dict.fromkeys((
        "KAPPA_MIN_ZERO", "RICCI_DEGENERATE", "SCALAR_ZERO", "FlowLine",
        "from_xy", "region_boundaries", "slope", "trace_flowline"),
        shapespace),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "CollapseReachedError", "DanteFlowError", "DegenerateShapeError", "DomainError",
    "IntegrationFailureError", "SingularMapError", "SingularSlopeError",
    "DEFAULT_EQ_TOL", "DEFAULT_R_SQUARED", "Classification", "CurvatureSummary",
    "MetricCoeffs", "RicciRatios", "ShapeKind", "ShapePoint", "StretchFactors", "classify",
    "connection_coefficients", "curvature_summary", "metric_coeffs", "principal_curvatures",
    "ricci_eigenvalues", "scalar_curvature", "semiperimeter", "stretch_from_metric",
    "to_rho_tau", "to_xy", *_LAZY,
]
