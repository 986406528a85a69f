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
  shapespace in ``sys.modules`` without running them: each runs on its
  first attribute access, an ``import`` of it, or the first access to one
  of its names re-exported here (served by the module ``__getattr__``,
  which then binds the name in this namespace).  That run holds a lock, and
  a thread that touches the module meanwhile waits for it to end, so
  threads may make their first access together.
* ``import danteflow.cli`` adds cli and the standard library's argparse;
  cli binds the lazy flow and shapespace modules once and calls their
  names.  So ``curvature`` and ``classify`` run only geometry, while
  ``simulate``, ``snake``, ``turtle``, ``flowlines`` and ``regions`` run
  flow (and the last two shapespace).
* numpy is imported once, at the top of each lazy module (flow and
  shapespace); their laziness alone keeps it off ``import danteflow`` and
  the quick queries.  cli, which every command imports, imports numpy
  inside the two functions that use it, ``simulate`` and ``_closed_form``.
"""
import importlib.util
import sys
import threading
import types

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


_RUN_LOCK = threading.RLock()  # reentrant: shapespace's run also runs flow
_RUNNING = set()  # ids of the _Unrun modules whose runs have started


class _Unrun(types.ModuleType):
    """A registered submodule whose body has not run.  The first attribute
    access runs it under _RUN_LOCK, and only then does the module become a
    plain one: another thread's access waits for the whole run, while the
    running thread reads the module as it fills."""

    def __getattribute__(self, name):
        with _RUN_LOCK:
            if id(self) not in _RUNNING:
                _RUNNING.add(id(self))
                types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


def _lazy(name: str):
    """Register the submodule `name` in sys.modules, to run on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _Unrun
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
