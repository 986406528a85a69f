"""Shape-space portraits: triangle coordinates, flow lines, and boundaries.

Ordered shapes a <= b <= c are plotted by the scale-free ratios

    x = (a + b)/c,   y = (b - a)/c,

which fill the isosceles right triangle with vertices (0,0), (2,0), (1,1).
The base y = 0 holds snakes, the right edge y = 2 - x holds turtles, the
left edge y = x is the excluded degenerate line, and (2,0) is the round
sphere every flow line collapses toward.  Flow lines obey the slope ODE

    dy/dx = y (x^2 + y^2 - 2) / (y^2 (2x - 1) + x (x - 2)),

whose numerator vanishes on the circle x^2 + y^2 = 2 where every interior
line attains its maximum height.  Lines are traced in p = u/w = a/c and
q = v/w = b/c (so x = p + q, y = q - p) with the time dsigma = dt w/(u v),
in which the field is a polynomial; with L = ln(w/w0),

    dp/dsigma = (8/R^2) p (1 - p)(1 - y),
    dq/dsigma = (8/R^2) q (1 - q)(1 + y),
    dL/dsigma = -(4/R^2)(1 - y^2),
    dt/dsigma = w0 e^L p q.

All three edges are invariant (p = q snakes, q = 1 turtles, p = 0 the
degenerate line) and the vertices are fixed points reached only as
sigma -> +-inf, so each branch stops within VERTEX_DELTA of a vertex.  Flow
time comes back by quadrature of dt/dsigma; the slope formula, which
equals (dq - dp)/(dq + dp), is kept as a cross-validation oracle.

The Ricci-eigenvalue ratio chart uses

    rho = R22/R33 = (x - 1)/(1 - y),   tau = R11/R33 = (x - 1)/(1 + y).

The classification boundaries are exact parabolas: the Ricci scalar
vanishes on y^2 = 2x - 1 and the smallest principal curvature on
y^2 = 3 - 2x; both meet the degenerate-Ricci segment x = 1 at (1, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateShapeError, DomainError, IntegrationFailureError,
                     SingularMapError, SingularSlopeError)
from .flow import (FlowParams, Termination, Trajectory, _bracket_crossing,
                   _dormand_prince, _quartic_at)
from .geometry import DEFAULT_R_SQUARED, StretchFactors, metric_coeffs

#: A flow-line branch stops once the line is this close to a vertex.
VERTEX_DELTA = 1e-9

#: Labels for the classification boundaries emitted by region_boundaries().
SCALAR_ZERO = "scalar_zero"
KAPPA_MIN_ZERO = "kappa_min_zero"
RICCI_DEGENERATE = "ricci_degenerate"


@dataclass(frozen=True)
class ShapePoint:
    x: float
    y: float


@dataclass(frozen=True)
class RicciRatios:
    rho: float
    tau: float


@dataclass(frozen=True, eq=False)
class FlowLine:
    """A traced flow line: strictly increasing x, with the apex at max y.

    Both ends lie within VERTEX_DELTA (1e-9) of a vertex of the triangle (the
    forward end at (2, 0)).  ``times`` are flow times relative to the start,
    the one sample at t = 0 (negative on the backward branch).  They never
    decrease, but backward the shape degenerates at a finite time, so the
    first few samples near the origin can share one value.  For interior
    starts the apex lies on x^2 + y^2 = 2 within tracer tolerance; edge
    lines have no interior maximum and report their highest sample instead.
    """

    xs: np.ndarray
    ys: np.ndarray
    times: np.ndarray
    apex: ShapePoint

    @property
    def points(self) -> list[ShapePoint]:
        return [ShapePoint(float(x), float(y)) for x, y in zip(self.xs, self.ys)]

    def __len__(self) -> int:
        return len(self.xs)


def to_xy(f: StretchFactors) -> ShapePoint:
    """Triangle coordinates ((a+b)/c, (b-a)/c) of an ordered shape."""
    if not (f.a <= f.b <= f.c):
        raise DomainError(
            f"triangle coordinates need a <= b <= c, got ({f.a}, {f.b}, {f.c})")
    return ShapePoint((f.a + f.b) / f.c, (f.b - f.a) / f.c)


def from_xy(p: ShapePoint, c: float = 1.0,
            r_squared: float = DEFAULT_R_SQUARED) -> StretchFactors:
    """Lift a triangle point to stretch factors with the given largest factor.

    a = c(x - y)/2 and b = c(x + y)/2; round-trips with to_xy to 1e-12.
    Points on the degenerate edge y >= x have no positive lift.
    """
    if not math.isfinite(c) or c <= 0.0:
        raise DomainError(f"c must be positive, got {c!r}")
    if p.y >= p.x:
        raise DegenerateShapeError(
            f"point ({p.x}, {p.y}) lies on or past the degenerate edge y = x")
    if p.y < 0.0:
        raise DomainError(f"y must be nonnegative, got {p.y}")
    if p.x + p.y > 2.0:
        raise DomainError(f"point ({p.x}, {p.y}) lies outside the triangle")
    return StretchFactors(a=c * (p.x - p.y) / 2.0, b=c * (p.x + p.y) / 2.0,
                          c=c, r_squared=r_squared)


def slope(p: ShapePoint) -> float:
    """Flow-line slope dy/dx at a triangle point.

    Raises SingularSlopeError when the denominator is below 1e-14 in
    magnitude (corner C and the fixed point B); callers fall back to full
    ODE tracing there.
    """
    numerator = p.y * (p.x * p.x + p.y * p.y - 2.0)
    denominator = p.y * p.y * (2.0 * p.x - 1.0) + p.x * (p.x - 2.0)
    if abs(denominator) < 1e-14:
        raise SingularSlopeError(
            f"slope denominator vanishes at ({p.x}, {p.y})")
    return numerator / denominator


def to_rho_tau(p: ShapePoint) -> RicciRatios:
    """Ricci-eigenvalue ratio coordinates (rho, tau) of a triangle point."""
    one_minus = 1.0 - p.y
    one_plus = 1.0 + p.y
    if one_minus == 0.0 or one_plus == 0.0:
        raise SingularMapError(f"eigenvalue-ratio map is singular at y = {p.y}")
    return RicciRatios((p.x - 1.0) / one_minus, (p.x - 1.0) / one_plus)


def _field(p: float, q: float, L: float, r_squared: float) -> tuple[float, float, float]:
    """The flow-line field d(p, q, L)/dsigma of the module docstring."""
    k = 8.0 / r_squared
    y = q - p
    return (k * p * (1.0 - p) * (1.0 - y),
            k * q * (1.0 - q) * (1.0 + y),
            -0.5 * k * (1.0 - y) * (1.0 + y))


def _vertex_margin(p: float, q: float, L: float) -> float:
    x, y = p + q, q - p
    return min(math.hypot(x - 2.0, y), math.hypot(x, y),
               math.hypot(x - 1.0, y - 1.0)) - VERTEX_DELTA


#: Three-point Gauss-Legendre rule on [0, 1] for the time quadrature: the
#: powers 1..4 of its nodes (for the step quartics) and its weights.  Its
#: times agree with an 8-point rule to 2e-11 relative.
_GL_POWERS = (0.5 + np.array([[-0.1], [0.0], [0.1]]) * math.sqrt(15.0)) ** np.arange(1, 5)
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def _trace_branch(start: ShapePoint, w0: float, r_squared: float, params: FlowParams):
    """One branch of a flow line, from start to within VERTEX_DELTA of a
    vertex; a negative r_squared traces it backward.

    Returns (states, quartic, times): rows (p, q, L) in the branch's own
    order, their dense output (no rows for a start already within
    VERTEX_DELTA), and the flow time of each row relative to the start.
    Raises IntegrationFailureError when the branch stops short of a vertex.
    """
    y0 = ((start.x - start.y) / 2.0, (start.x + start.y) / 2.0, 0.0)
    if _vertex_margin(*y0) <= 0.0:
        return np.array([y0]), np.zeros((0, 4, 3)), np.zeros(1)
    sigma, states, quartic, status, message = _dormand_prince(
        y0, _field, r_squared, params.rel_tol, params.abs_tol, params.max_steps,
        _vertex_margin)
    # dt/dsigma = w0 e^L p q, integrated over each step's quartic.
    at = states[:-1, None, :] + np.einsum("mj,njc->nmc", _GL_POWERS, quartic)
    rate = np.exp(at[..., 2]) * at[..., 0] * at[..., 1]
    times = np.concatenate([[0.0], np.cumsum(np.diff(sigma) * (rate @ _GL_WEIGHTS))])
    times *= w0 if r_squared > 0.0 else -w0
    if status != "event":
        coeffs = w0 * np.exp(states[:, 2:]) * np.column_stack(
            [states[:, :2], np.ones(len(states))])
        if r_squared < 0.0:  # a Trajectory runs forward in time
            times, coeffs = times[::-1], coeffs[::-1]
        terminated = Termination.MAX_STEPS if status == "max_steps" else Termination.FAILED
        raise IntegrationFailureError(
            f"{'forward' if r_squared > 0.0 else 'backward'} branch from "
            f"({start.x}, {start.y}) stopped short of a vertex after "
            f"{len(sigma) - 1} steps: {message or status}",
            trajectory=Trajectory(times, coeffs, terminated, None))
    return states, quartic, times


def _maxima(states: np.ndarray, quartic: np.ndarray) -> list[ShapePoint]:
    """The points of a branch where dy/dsigma of its quartics falls through 0."""
    c = quartic[:, :, 1] - quartic[:, :, 0]
    points = []
    for k in np.flatnonzero((c[:, 0] > 0.0) & (c @ np.arange(1.0, 5.0) <= 0.0)):
        c1, c2, c3, c4 = c[k].tolist()
        lo, hi = _bracket_crossing(
            lambda s: c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * 4.0 * c4)),
            0.0, 0.0, 1.0, 4.0 * math.ulp(1.0))
        p, q, _ = _quartic_at(states[k].tolist(), quartic[k].tolist(), 0.5 * (lo + hi))
        points.append(ShapePoint(p + q, q - p))
    return points


def trace_flowline(start: ShapePoint, c0: float = 1.0,
                   params: FlowParams | None = None,
                   include_backward: bool = True) -> FlowLine:
    """Trace the flow line through a triangle point.

    The flow-line field of the module docstring is stepped from
    (p, q, L) = ((x - y)/2, (x + y)/2, 0) forward, and backward with R^2
    negated, each until the line is within VERTEX_DELTA of a vertex: the
    forward branch ends at the round corner (2, 0), the backward one at the
    origin (or at (1, 1) along the turtle edge).  A branch that stops short
    (params.max_steps, step-size underflow) raises IntegrationFailureError
    carrying the branch as a Trajectory of (u, v, w) = w0 e^L (p, q, 1).
    c0 lifts the start to a metric with largest coefficient w0 = w(0); it
    scales the times by 1/c0^2 and leaves xs, ys and the apex unchanged.
    The apex is located on the dense output, where dy/dsigma falls through
    zero; a line without an interior maximum reports its highest sample.
    """
    if params is None:
        params = FlowParams()
    w0 = metric_coeffs(from_xy(start, c0)).w
    f_states, f_quartic, f_times = _trace_branch(start, w0, params.r_squared, params)
    states, times = f_states, f_times
    maxima = _maxima(f_states, f_quartic)
    if include_backward:
        b_states, b_quartic, b_times = _trace_branch(start, w0, -params.r_squared, params)
        states = np.vstack([b_states[:0:-1], f_states])
        times = np.concatenate([b_times[:0:-1], f_times])
        maxima += _maxima(b_states, b_quartic)
    xs = states[:, 0] + states[:, 1]
    ys = states[:, 1] - states[:, 0]
    if maxima:
        apex = max(maxima, key=lambda point: point.y)
    else:
        i = int(np.argmax(ys))
        apex = ShapePoint(float(xs[i]), float(ys[i]))
    return FlowLine(xs=xs, ys=ys, times=times, apex=apex)


def region_boundaries(resolution: int = 64) -> dict[str, np.ndarray]:
    """Extract the classification boundaries as polylines.

    Returns a mapping with keys SCALAR_ZERO (the Ricci-scalar zero locus),
    KAPPA_MIN_ZERO (smallest principal curvature zero), and
    RICCI_DEGENERATE (the x = 1 segment where the two smallest Ricci
    eigenvalues vanish).

    The curved loci are exact parabolas.  Lift with c = 1, so a = (x - y)/2,
    b = (x + y)/2 and the semiperimeter is s = (x + 1)/2; then s - a =
    (1 + y)/2, s - b = (1 - y)/2, s - c = (x - 1)/2, and in units of 4/R^2

        kappa1 + kappa2 + kappa3 = (2x - y^2 - 1)/4,
        kappa3 = c(s - c) - (s - a)(s - b) = (2x + y^2 - 3)/4.

    The scalar vanishes on y^2 = 2x - 1, from (1/2, 0) up to (1, 1), and
    the smallest principal curvature kappa3 on y^2 = 3 - 2x, from (1, 1)
    down to (3/2, 0).  Each is sampled at resolution equispaced x, the
    open end at the top corner left out, so the x-axis intercepts are
    exactly 1/2 and 3/2.
    """
    if resolution < 16:
        raise DomainError(f"resolution must be at least 16, got {resolution}")

    x_scalar = np.linspace(0.5, 1.0, resolution + 1)[:-1]
    x_kappa = np.linspace(1.0, 1.5, resolution + 1)[1:]
    cd = np.column_stack([np.ones(resolution + 1),
                          np.linspace(0.0, 1.0, resolution + 1)])

    return {
        SCALAR_ZERO: np.column_stack([x_scalar, np.sqrt(2.0 * x_scalar - 1.0)]),
        KAPPA_MIN_ZERO: np.column_stack([x_kappa, np.sqrt(3.0 - 2.0 * x_kappa)]),
        RICCI_DEGENERATE: cd,
    }
