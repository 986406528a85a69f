"""Curvature and Ricci-flow dynamics of homogeneously deformed 3-spheres.

The package splits into four layers:

* :mod:`danteflow.geometry` -- static curvature of a deformed S^3 and the
  shape classification (isotropic / snake / turtle / dragon / degenerate).
* :mod:`danteflow.flow` -- the reduced Ricci-flow ODEs, an adaptive
  integrator with collapse detection, and the closed-form symmetric
  solutions that cross-check it.
* :mod:`danteflow.shapespace` -- triangle coordinates, flow-line tracing,
  the eigenvalue-ratio chart, and region-boundary extraction.
* :mod:`danteflow.cli` -- the ``danteflow`` command emitting CSV/JSON.

Importing the package, any of its modules, or the CLI does not import
numpy: geometry is plain arithmetic, and flow and shapespace import numpy
inside the functions that build or read arrays (dense output, trajectory
sampling, flow-line tracing, region boundaries).  So ``curvature`` and
``classify`` run without numpy, while ``simulate``, ``snake``, ``turtle``,
``flowlines`` and ``regions`` load it when they first need it.
"""
from .errors import (CollapseReachedError, DanteFlowError, DegenerateShapeError,
                     DomainError, IntegrationFailureError, SingularMapError,
                     SingularSlopeError)
from .geometry import (DEFAULT_EQ_TOL, DEFAULT_R_SQUARED, Classification,
                       CurvatureSummary, MetricCoeffs, ShapeKind,
                       StretchFactors, classify, connection_coefficients,
                       curvature_summary, metric_coeffs,
                       principal_curvatures, ricci_eigenvalues,
                       scalar_curvature, semiperimeter, stretch_from_metric)
from .flow import (FlowParams, SnakeSolution, Termination, Trajectory,
                   TurtleSolution, integrate, isotropic_lambda, rhs,
                   snake_lambda_of_time, snake_profile, snake_time_of_lambda,
                   turtle_mu_of_time, turtle_profile, turtle_time_of_mu,
                   x_rate)
from .shapespace import (KAPPA_MIN_ZERO, RICCI_DEGENERATE, SCALAR_ZERO,
                         FlowLine, RicciRatios, ShapePoint, from_xy,
                         region_boundaries, slope, to_rho_tau, to_xy,
                         trace_flowline)

__version__ = "0.1.0"

__all__ = [
    "CollapseReachedError", "DanteFlowError", "DegenerateShapeError",
    "DomainError", "IntegrationFailureError", "SingularMapError",
    "SingularSlopeError",
    "DEFAULT_EQ_TOL", "DEFAULT_R_SQUARED", "Classification",
    "CurvatureSummary", "MetricCoeffs", "ShapeKind", "StretchFactors",
    "classify", "connection_coefficients", "curvature_summary",
    "metric_coeffs", "principal_curvatures", "ricci_eigenvalues",
    "scalar_curvature", "semiperimeter", "stretch_from_metric",
    "FlowParams", "SnakeSolution", "Termination", "Trajectory",
    "TurtleSolution", "integrate", "isotropic_lambda", "rhs",
    "snake_lambda_of_time", "snake_profile", "snake_time_of_lambda",
    "turtle_mu_of_time", "turtle_profile", "turtle_time_of_mu", "x_rate",
    "KAPPA_MIN_ZERO", "RICCI_DEGENERATE", "SCALAR_ZERO", "FlowLine",
    "RicciRatios", "ShapePoint", "from_xy", "region_boundaries", "slope",
    "to_rho_tau", "to_xy", "trace_flowline",
]
