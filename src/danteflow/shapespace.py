"""Shape-space portraits: triangle coordinates, flow lines, and boundaries.

Ordered shapes a <= b <= c are plotted by the scale-free ratios

    x = (a + b)/c,   y = (b - a)/c,

which fill the isosceles right triangle with vertices (0,0), (2,0), (1,1).
The base y = 0 holds snakes, the right edge y = 2 - x holds turtles, the
left edge y = x is the excluded degenerate line, and (2,0) is the round
sphere every flow line collapses toward.  Flow lines obey the slope ODE

    dy/dx = y (x^2 + y^2 - 2) / (y^2 (2x - 1) + x (x - 2)),

whose numerator vanishes on the circle x^2 + y^2 = 2 where every interior
line attains its maximum height.  Lines are traced by integrating the full
(u, v, w) system and projecting, which dodges the slope ODE's singular
denominator; the slope formula is kept as a cross-validation oracle.

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
from .flow import FlowParams, Termination, _dormand_prince, _rhs_scalar, integrate
from .geometry import DEFAULT_R_SQUARED, StretchFactors, metric_coeffs

#: Backward tracing stops once the largest coefficient reaches this cap.
GROWTH_CAP = 1e6

#: Backward tracing also stops if the smallest coefficient falls this low.
BACKWARD_FLOOR = 1e-12

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

    ``times`` are flow times relative to the requested start (negative on
    the backward-traced portion).  For interior starts the apex lies on
    x^2 + y^2 = 2 within tracer tolerance; edge lines have no interior
    maximum and report their highest sample instead.  ``backward_end`` says
    how the backward branch stopped: "growth_cap" (the largest coefficient
    reached the cap), "floor" (the smallest fell to BACKWARD_FLOOR),
    "failed" (step-size underflow), "max_steps", or None when no backward
    branch was traced.
    """

    xs: np.ndarray
    ys: np.ndarray
    times: np.ndarray
    apex: ShapePoint
    backward_end: str | None = None

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


def _project_xy(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u, v, w = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    return (u + v) / w, (v - u) / w


def _trace_backward(y0: tuple[float, float, float], params: FlowParams,
                    growth_cap: float) -> tuple[np.ndarray, np.ndarray, str]:
    """Reverse-time samples (times ascending toward 0, rows of (u,v,w)) and
    how the branch ended (FlowLine.backward_end).

    Backward the metric expands: the largest coefficient blows up while the
    two smaller ones shrink, so the stop margin watches both ends.
    """
    def margin(u: float, v: float, w: float) -> float:
        return min(growth_cap - max(u, v, w), min(u, v, w) - BACKWARD_FLOOR)

    # Negating R^2 negates the right-hand side: the flow in reverse time.
    times, states, _quartic, status, _message = _dormand_prince(
        y0, -params.r_squared, params.rel_tol, params.abs_tol, params.max_steps, margin)
    if status == "event":
        status = "growth_cap" if states[-1].max() >= growth_cap else "floor"
    # Reverse-time s maps to flow time t = -s; drop the duplicated start.
    return -times[1:][::-1], states[1:][::-1], status


def _xy_rates(u: float, v: float, w: float, r_squared: float) -> tuple[float, float]:
    """Exact time derivatives of the projected coordinates at a flow state."""
    du, dv, dw = _rhs_scalar(u, v, w, r_squared)
    xd = (du + dv) / w - (u + v) * dw / (w * w)
    yd = (dv - du) / w - (v - u) * dw / (w * w)
    return xd, yd


def _hermite_value(f0, f1, d0, d1, h, s):
    c2 = (3.0 * (f1 - f0) / h - 2.0 * d0 - d1) / h
    c3 = (2.0 * (f0 - f1) / h + d0 + d1) / (h * h)
    return f0 + s * (d0 + s * (c2 + s * c3))


def _refine_apex(times: np.ndarray, coeffs: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, i: int,
                 r_squared: float) -> ShapePoint:
    """Refine the max-y sample using cubic Hermite interpolation in time.

    The flow equations give exact (dx/dt, dy/dt) at every sample, so the
    bracketing interval around the sign change of dy/dt admits an O(h^4)
    Hermite model; its interior critical point is the apex.
    """
    rates = {k: _xy_rates(*coeffs[k], r_squared) for k in (i - 1, i, i + 1)}
    for k in (i - 1, i):
        d0, d1 = rates[k][1], rates[k + 1][1]
        if not (d0 >= 0.0 >= d1) or (d0 == 0.0 and d1 == 0.0):
            continue
        h = times[k + 1] - times[k]
        y0, y1 = ys[k], ys[k + 1]
        c2 = (3.0 * (y1 - y0) / h - 2.0 * d0 - d1) / h
        c3 = (2.0 * (y0 - y1) / h + d0 + d1) / (h * h)
        # Critical points of the cubic: d0 + 2 c2 s + 3 c3 s^2 = 0.
        if c3 == 0.0:
            if c2 == 0.0:
                continue
            candidates = [-d0 / (2.0 * c2)]
        else:
            disc = c2 * c2 - 3.0 * c3 * d0
            if disc < 0.0:
                continue
            root = math.sqrt(disc)
            candidates = [(-c2 + root) / (3.0 * c3), (-c2 - root) / (3.0 * c3)]
        for s in candidates:
            if 0.0 <= s <= h:
                yv = _hermite_value(y0, y1, d0, d1, h, s)
                xv = _hermite_value(xs[k], xs[k + 1],
                                    rates[k][0], rates[k + 1][0], h, s)
                return ShapePoint(float(xv), float(yv))
    return ShapePoint(float(xs[i]), float(ys[i]))


def trace_flowline(start: ShapePoint, c0: float = 1.0,
                   params: FlowParams | None = None,
                   include_backward: bool = True,
                   growth_cap: float = GROWTH_CAP) -> FlowLine:
    """Trace the flow line through a triangle point.

    The start is lifted to stretch factors with largest factor c0, the full
    (u, v, w) flow is integrated forward to collapse (and backward toward
    the origin until the largest coefficient reaches growth_cap, the
    smallest falls to BACKWARD_FLOOR, the stepper fails or max_steps run
    out; FlowLine.backward_end records which), and the samples are
    projected back to (x, y).  Scale invariance makes the polyline
    independent of c0.  Forward collapse drives every line into (2, 0);
    a forward branch that stops short of collapse (params.max_steps) raises
    IntegrationFailureError carrying the forward trajectory.
    """
    if params is None:
        params = FlowParams()
    f = from_xy(start, c0)
    m0 = metric_coeffs(f)
    forward = integrate(m0, params)
    if forward.terminated is not Termination.COLLAPSED:
        raise IntegrationFailureError(
            f"forward branch from ({start.x}, {start.y}) ended without collapse "
            f"after {len(forward) - 1} steps", trajectory=forward)

    times = forward.times
    coeffs = forward.coeffs
    backward_end = None
    if include_backward:
        back_ts, back_ys, backward_end = _trace_backward(m0.as_tuple(), params, growth_cap)
        if len(back_ts):
            times = np.concatenate([back_ts, times])
            coeffs = np.vstack([back_ys, coeffs])

    # Projected coordinates carry noise ~ abs_tol/min(u,v,w); trim the
    # forward tail below sqrt(abs_tol) so that noise stays ~sqrt(abs_tol)
    # while the true distance to the terminal corner (2, 0) is long gone.
    floor = math.sqrt(params.abs_tol)
    end = len(times)
    while end > 1 and times[end - 1] > 0.0 and coeffs[end - 1].min() < floor:
        end -= 1
    times, coeffs = times[:end], coeffs[:end]

    xs, ys = _project_xy(coeffs)

    # Keep x strictly increasing; collapse-end samples can saturate in x.
    keep = [0]
    for i in range(1, len(xs)):
        if xs[i] > xs[keep[-1]]:
            keep.append(i)
    xs, ys, times, coeffs = xs[keep], ys[keep], times[keep], coeffs[keep]

    i_max = int(np.argmax(ys))
    if 0 < i_max < len(xs) - 1:
        apex = _refine_apex(times, coeffs, xs, ys, i_max, params.r_squared)
    else:
        apex = ShapePoint(float(xs[i_max]), float(ys[i_max]))
    return FlowLine(xs=xs, ys=ys, times=times, apex=apex, backward_end=backward_end)


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
