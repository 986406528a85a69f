"""Shape-space portraits: triangle coordinates, flow lines, and boundaries.

Ordered shapes a <= b <= c are plotted by the scale-free ratios

    x = (a + b)/c,   y = (b - a)/c,

which fill the isosceles right triangle with vertices (0,0), (2,0), (1,1).
The base y = 0 holds snakes, the right edge y = 2 - x holds turtles, the
left edge y = x is the excluded degenerate line, and (2,0) is the round
sphere every flow line collapses toward.  Flow lines obey the slope ODE

    dy/dx = y (x^2 + y^2 - 2) / (y^2 (2x - 1) + x (x - 2)),

whose numerator vanishes on the circle x^2 + y^2 = 2 where every interior
line attains its maximum height.  With p = u/w = a/c and q = v/w = b/c (so
x = p + q, y = q - p), lines are traced on the scale-free field of flow,
the one integrate steps, in the logits P = ln(p/(1 - p)), Q = ln(q/(1 - q))
and L = ln(w/w0); p = l(P) for l the logistic function.  There the
vertices lie at infinity, the field stays bounded instead of stiffening,
and dP + dQ = 2k dsigma (k = 8/R^2) makes P + Q an exact clock.  The edges
stay invariant: P = Q on the snakes, Q = +inf (stepped as it is) on the
turtles, P = -inf on the degenerate line.  The forward branch stops within
VERTEX_DELTA of the round corner (2, 0), the backward one within
VERTEX_DELTA of the origin or (1, 1).  The apex is where dy/dsigma =
l'(Q) dQ/dsigma - l'(P) dP/dsigma falls through zero: the one step that
brackets it is stepped again at tighter tolerances with that rate as the
stop margin, so the re-step stops on the apex as a branch stops on a
vertex.  The slope formula, which equals (dq - dp)/(dq + dp), is kept as a
cross-validation oracle.

The Ricci-eigenvalue ratio chart uses

    rho = R22/R33 = (x - 1)/(1 - y),   tau = R11/R33 = (x - 1)/(1 + y).

The classification boundaries are exact parabolas: the Ricci scalar
vanishes on y^2 = 2x - 1 and the smallest principal curvature on
y^2 = 3 - 2x; both meet the degenerate-Ricci segment x = 1 at (1, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (DegenerateShapeError, DomainError, IntegrationFailureError,
                     SingularMapError, SingularSlopeError)
from .flow import (_POWERS, FlowParams, Termination, Trajectory, _coeffs, _dormand_prince,
                   _field, _logistic_pair, _logit, _time_panels)
from .geometry import DEFAULT_R_SQUARED, StretchFactors, metric_coeffs

if TYPE_CHECKING:
    import numpy as np

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
    forward end at (2, 0)), as the reported (x, y) round.  ``times`` are flow
    times relative to the start, the one sample at t = 0 (negative on the
    backward branch), which is the start exactly.  They never decrease, but
    backward the shape degenerates at a finite time, so the first few
    samples near the origin can share one value; backward along the turtle
    edge the approach to (1, 1) takes unbounded time instead.  For interior
    starts the apex is where dy/dsigma vanishes, so it lies on x^2 + y^2 = 2
    to rounding, and within 1e-10 of an independent DOP853 apex on the 5x5
    grid at the default tolerances; edge lines have no interior maximum and
    report their highest sample instead.
    """

    xs: np.ndarray
    ys: np.ndarray
    times: np.ndarray
    apex: ShapePoint

    def __len__(self) -> int:
        return len(self.xs)


def to_xy(f: StretchFactors) -> ShapePoint:
    """Triangle coordinates ((a+b)/c, (b-a)/c) of an ordered shape."""
    if not (f.a <= f.b <= f.c):
        raise DomainError(
            f"triangle coordinates need a <= b <= c, got ({f.a}, {f.b}, {f.c})")
    a, b, c = f.a, f.b, f.c
    if not math.isfinite(a + b):
        # a + b overflows for factors near the largest float; halving all
        # three is exact and leaves every finite case as it was.
        a, b, c = 0.5 * a, 0.5 * b, 0.5 * c
    return ShapePoint((a + b) / c, (b - a) / c)


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

    The tracer never calls it: it is the cross-validation oracle for the
    traced field, which gives the same slope as (dq - dp)/(dq + dp).  Raises
    SingularSlopeError when the denominator is below 1e-14 in magnitude
    (corner C and the fixed point B).
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


def _xy(P: float, Q: float) -> tuple[float, float]:
    """Triangle coordinates (p + q, q - p) of a logit state.  y is taken
    from 1 - p and 1 - q once q >= 1/2, which keeps it accurate near (2, 0)."""
    p, p1 = _logistic_pair(P)
    q, q1 = _logistic_pair(Q)
    return p + q, (q - p if q < 0.5 else p1 - q1)


def _vertex_margin(P: float, Q: float, L: float) -> float:
    # Measured on the (x, y) that the line reports, rounding included.
    x, y = _xy(P, Q)
    return min(math.hypot(x - 2.0, y), math.hypot(x, y),
               math.hypot(x - 1.0, y - 1.0)) - VERTEX_DELTA


def _round_corner_margin(P: float, Q: float, L: float) -> float:
    # The forward branch's stop: a line that starts near the degenerate edge
    # passes close by (1, 1) on its way to (2, 0) and must not stop there.
    x, y = _xy(P, Q)
    return math.hypot(x - 2.0, y) - VERTEX_DELTA


#: The apex re-step runs at the branch's tolerances times this.
APEX_TOL_FACTOR = 1e-3


class _Branch(NamedTuple):
    """One traced branch: sigma (n+1,), rows (P, Q, L) (n+1, 3), their
    dense output (n, 4, 3) and the flow time of each row from the start."""

    sigma: np.ndarray
    states: np.ndarray
    quartic: np.ndarray
    times: np.ndarray


def _trace_branch(start: ShapePoint, w0: float, r_squared: float,
                  params: FlowParams) -> _Branch:
    """One branch of a flow line, from start to within VERTEX_DELTA of a
    vertex ((2, 0) forward); a negative r_squared traces it backward.

    The rows run in the branch's own order; a start already within
    VERTEX_DELTA gives one row and no steps.  Raises IntegrationFailureError
    when the branch stops short of a vertex.
    """
    import numpy as np

    y0 = (_logit((start.x - start.y) / 2.0), _logit((start.x + start.y) / 2.0), 0.0)
    if _vertex_margin(*y0) <= 0.0:
        return _Branch(np.zeros(1), np.array([y0]), np.zeros((0, 4, 3)), np.zeros(1))
    sigma, states, quartic, status, message = _dormand_prince(
        y0, r_squared, params.rel_tol, params.abs_tol, params.max_steps,
        _round_corner_margin if r_squared > 0.0 else _vertex_margin)
    times = _time_panels(sigma, states, quartic, w0 if r_squared > 0.0 else -w0)[1]
    if status != "event":
        coeffs = _coeffs(states, w0)
        if r_squared < 0.0:  # a Trajectory runs forward in time
            times, coeffs = times[::-1], coeffs[::-1]
        terminated = Termination.MAX_STEPS if status == "max_steps" else Termination.FAILED
        raise IntegrationFailureError(
            f"{'forward' if r_squared > 0.0 else 'backward'} branch from "
            f"({start.x}, {start.y}) stopped short of a vertex after "
            f"{len(sigma) - 1} steps: {message or status}",
            trajectory=Trajectory(times, coeffs, terminated, None))
    return _Branch(sigma, states, quartic, times)


def _apexes(branch: _Branch, r_squared: float, params: FlowParams) -> list[ShapePoint]:
    """The maxima of y on a branch.

    A step holds one where dy/dsigma of its dense output falls through zero.
    That step is stepped again at APEX_TOL_FACTOR times the tolerances with
    dy/dsigma of the field as the stop margin, so the re-step ends on the
    maximum.  Where that rate is not positive at the step's start already
    (rounding on a sample on the circle), the start is the maximum.
    """
    import numpy as np

    def rate(P: float, Q: float, L: float) -> float:
        # dy/dsigma = l'(Q) dQ - l'(P) dP, with l'(z) = l(z) l(-z).
        dP, dQ, _ = _field(P, Q, L, r_squared)
        p, p1 = _logistic_pair(P)
        q, q1 = _logistic_pair(Q)
        return q * q1 * dQ - p * p1 * dP

    states, quartic = branch.states, branch.quartic
    e = np.exp(-np.abs(states[:, :2]))
    weight = e / (1.0 + e) ** 2 * [-1.0, 1.0]  # dy = l'(Q) dQ - l'(P) dP
    rises = (weight[:-1] * quartic[:, 0, :2]).sum(axis=1) > 0.0
    falls = (weight[1:] * (_POWERS @ quartic)[:, :2]).sum(axis=1) <= 0.0
    points = []
    for k in np.flatnonzero(rises & falls):
        state = tuple(states[k].tolist())
        if rate(*state) > 0.0:
            _, fine, _, status, message = _dormand_prince(
                state, r_squared, APEX_TOL_FACTOR * params.rel_tol,
                APEX_TOL_FACTOR * params.abs_tol, params.max_steps, rate)
            if status != "event":
                raise IntegrationFailureError(
                    f"apex re-step stopped short after {len(fine) - 1} steps: "
                    f"{message or status}")
            state = tuple(fine[-1].tolist())
        P, Q, _ = state
        points.append(ShapePoint(*_xy(P, Q)))
    return points


def trace_flowline(start: ShapePoint, c0: float = 1.0,
                   params: FlowParams | None = None,
                   include_backward: bool = True) -> FlowLine:
    """Trace the flow line through a triangle point.

    The logit field of the module docstring is stepped from
    (P, Q, L) = (logit((x - y)/2), logit((x + y)/2), 0) forward, and backward
    with R^2 negated, each until the line is within VERTEX_DELTA of a
    vertex: the forward branch only at the round corner (2, 0), even where
    it passes close by (1, 1) from a start near the degenerate edge; the
    backward one at the origin (or at (1, 1) along the turtle edge, where
    Q = +inf throughout).  A start within VERTEX_DELTA of any vertex gives
    a one-point line.  A branch that stops short (params.max_steps, step-size
    underflow) raises IntegrationFailureError carrying the branch as a
    Trajectory of (u, v, w) = w0 e^L (p, q, 1).  c0 lifts the start to a
    metric with largest coefficient w0 = w(0); it scales the times by 1/c0^2
    and leaves xs, ys and the apex unchanged.  The t = 0 sample is the start
    exactly; times come from quadrature of dt/dsigma (see flow._time_panels).

    The apex: the step whose dense output has dy/dsigma falling through
    zero is stepped again from its start at APEX_TOL_FACTOR times the
    tolerances, with dy/dsigma as the stop margin, and the re-step's last
    row is the maximum (IntegrationFailureError if the re-step stops
    short).  A line without an interior maximum reports its highest sample.
    """
    import numpy as np

    if params is None:
        params = FlowParams()
    w0 = metric_coeffs(from_xy(start, c0)).w
    forward = _trace_branch(start, w0, params.r_squared, params)
    states, times = forward.states, forward.times
    apexes = _apexes(forward, params.r_squared, params)
    if include_backward:
        backward = _trace_branch(start, w0, -params.r_squared, params)
        states = np.vstack([backward.states[:0:-1], states])
        times = np.concatenate([backward.times[:0:-1], times])
        apexes += _apexes(backward, -params.r_squared, params)
    xs, ys = np.array([_xy(P, Q) for P, Q, _ in states.tolist()]).T
    at_start = len(states) - len(forward.states)
    xs[at_start], ys[at_start] = start.x, start.y
    if apexes:
        apex = max(apexes, key=lambda point: point.y)
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
    import numpy as np

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
