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
and dP + dQ = 2k dsigma (k = 2, R^2 = 4) makes P + Q an exact clock.  The edges
stay invariant: P = Q on the snakes, Q = +inf (stepped as it is) on the
turtles, P = -inf on the degenerate line.  The forward branch stops within
VERTEX_DELTA of the round corner (2, 0), the backward one within
VERTEX_DELTA of the origin or (1, 1).  Each stop is a threshold on a
logistic tail, the rule integrate stops on (see flow.ROUND_LOGIT): 1 - p
at (2, 0), q at the origin, p and 1 - q at (1, 1), so neither margin
reads the rounded (x, y).  The apex law is exact: dy/dsigma =
k y (1 - p^2 - q^2) and x^2 + y^2 = 2 (p^2 + q^2), so for y > 0 the line
rises inside the circle and falls outside it, by the sign of
m = (1 - q)(1 + q) - p^2.  So a line crosses the circle once, on one of
its two branches, and has one apex: that branch's step over which m falls
through zero is stepped again at tighter tolerances with m as the stop
margin, so the re-step stops on the apex as a branch stops on a vertex.
On the snake edge (y = 0) that gives (sqrt 2, 0), the limit of the apexes
of the lines above it.  slope is a cross-validation oracle.

The Ricci-eigenvalue ratio chart (to_rho_tau) uses

    rho = R22/R33 = (x - 1)/(1 - y),   tau = R11/R33 = (x - 1)/(1 + y).

The classification boundaries are exact parabolas: the Ricci scalar
vanishes on y^2 = 2x - 1 and the smallest principal curvature on
y^2 = 3 - 2x; both meet the degenerate-Ricci segment x = 1 at (1, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (DegenerateShapeError, DomainError, IntegrationFailureError,
                     SingularSlopeError)
from .flow import (ROUND_LOGIT, VERTEX_DELTA, FlowParams, Trajectory, _coeffs, _dormand_prince,
                   _logit, _round_corner_margin, _time_panels, _time_scale)
# The chart itself (ShapePoint, to_xy, RicciRatios, to_rho_tau) lives in
# geometry, so that classify needs no tracer; it is re-exported here.
from .geometry import (DEFAULT_R_SQUARED, GRID_LIMIT, RicciRatios, ShapePoint, StretchFactors,
                       _require_count, _require_finite_point, _require_positive, metric_coeffs,
                       to_rho_tau, to_xy)

#: Labels for the classification boundaries emitted by region_boundaries().
SCALAR_ZERO = "scalar_zero"
KAPPA_MIN_ZERO = "kappa_min_zero"
RICCI_DEGENERATE = "ricci_degenerate"


@dataclass(frozen=True, eq=False)
class FlowLine:
    """A traced flow line: strictly increasing x, with the apex at max y.

    Both ends lie within VERTEX_DELTA (1e-9) of a vertex of the triangle (the
    forward end at (2, 0)), as the reported (x, y) round: by the bound at
    flow.ROUND_LOGIT, the exact end lies within VERTEX_DELTA - 2 ulp(2) of
    it, and their rounding adds less than 2 ulp(2).  ``times`` are flow
    times relative to the start, the one sample at t = 0 (negative on the
    backward branch), which is the start exactly.  They never decrease, but
    backward the shape degenerates at a finite time, so the first few
    samples near the origin can share one value; backward along the turtle
    edge the approach to (1, 1) takes unbounded time instead.  No row lies
    below the snake edge.  For interior starts the one apex is where the
    line crosses the circle x^2 + y^2 = 2, re-stepped on the branch that
    crosses it.  It lies on the circle to rounding (within 1e-12 down to
    heights of 1e-12 times the triangle's), and within 1e-10 of an
    independent DOP853 apex on the 5x5 grid at the default tolerances.
    Snake-edge lines (y = 0) report (sqrt 2, 0), the limit of the interior
    apexes; turtle-edge lines have no maximum on the circle and report their
    highest sample instead.
    """

    xs: np.ndarray
    ys: np.ndarray
    times: np.ndarray
    apex: ShapePoint

    def __len__(self) -> int:
        return len(self.xs)


def from_xy(p: ShapePoint, c: float = 1.0,
            r_squared: float = DEFAULT_R_SQUARED) -> StretchFactors:
    """Lift a triangle point to stretch factors with the given largest factor.

    a = c(x - y)/2 and b = c(x + y)/2; round-trips with to_xy to 1e-12.
    Points on the degenerate edge y >= x have no positive lift.  x + y may
    exceed 2 by ulp(2), as to_xy of a turtle can round: such a point lies
    on the turtle edge, b = c.  A c above half the largest float lifts too.
    """
    _require_positive("c", c)
    _require_finite_point(p)  # NaN passes every test below
    if p.y >= p.x:
        raise DegenerateShapeError(
            f"point ({p.x}, {p.y}) lies on or past the degenerate edge y = x")
    if p.y < 0.0:
        raise DomainError(f"y must be nonnegative, got {p.y}")
    if p.x + p.y > 2.0000000000000004:  # 2 + ulp(2)
        raise DomainError(f"point ({p.x}, {p.y}) lies outside the triangle")
    low, high = p.x - p.y, min(p.x + p.y, 2.0)
    if c * high <= 1.7976931348623157e308:
        a, b = c * low / 2.0, c * high / 2.0
    else:  # c (x + y) overflows: halving c first is exact, and only this case needs it
        a, b = 0.5 * c * low, 0.5 * c * high
    return StretchFactors(a=a, b=b, c=c, r_squared=r_squared)


def slope(p: ShapePoint) -> float:
    """Flow-line slope dy/dx at a triangle point.

    The tracer never calls it: it is the cross-validation oracle for the
    traced field, which gives the same slope as (dq - dp)/(dq + dp).  Raises
    SingularSlopeError when the denominator is below 1e-14 in magnitude
    (corner C and the fixed point B).
    """
    _require_finite_point(p)
    numerator = p.y * (p.x * p.x + p.y * p.y - 2.0)
    denominator = p.y * p.y * (2.0 * p.x - 1.0) + p.x * (p.x - 2.0)
    if abs(denominator) < 1e-14:
        raise SingularSlopeError(
            f"slope denominator vanishes at ({p.x}, {p.y})")
    return numerator / denominator


def _row(P: float, Q: float) -> tuple[float, float, float]:
    """The triangle coordinates (p + q, q - p) of a logit state and the apex
    margin m = (1 - q)(1 + q) - p^2 = (2 - x^2 - y^2)/2.  y is taken from
    1 - p and 1 - q once q >= 1/2, which keeps it accurate near (2, 0), and
    1 - q is the logistic tail l(-Q), so each term of m keeps full relative
    accuracy (2 - x^2 - y^2 from x and y cancels near (1, 1)).  p is read
    from min(P, Q): the flow keeps p <= q, so a row on which P rounds above
    Q (near the snake edge) lies on the edge, not below it."""
    z = Q if Q < P else P  # min(P, Q) without the call
    d = 1.0 + (e := math.exp(-abs(z)))  # the logistic pairs (l(z), l(-z)), overflow-safe
    if z >= 0.0:
        p, p1 = 1.0 / d, e / d
    else:
        p, p1 = e / d, 1.0 / d
    d = 1.0 + (e := math.exp(-abs(Q)))
    if Q >= 0.0:
        q, q1 = 1.0 / d, e / d
    else:
        q, q1 = e / d, 1.0 / d
    return p + q, (q - p if q < 0.5 else p1 - q1), q1 * (1.0 + q) - p * p


def _vertex_margin(P: float, Q: float, L: float) -> float:
    # At most the tail l(-ROUND_LOGIT) (flow): 1 - p and 1 - q at (2, 0), q at the
    # origin, p and 1 - q at (1, 1).  min(_round_corner_margin, Q + ROUND_LOGIT,
    # max(P + ROUND_LOGIT, ROUND_LOGIT - Q)) by the same comparisons in the same order.
    m, origin = ROUND_LOGIT - (Q if Q < P else P), Q + ROUND_LOGIT
    m = origin if origin < m else m
    top, top_q = P + ROUND_LOGIT, ROUND_LOGIT - Q
    top = top_q if top_q > top else top
    return top if top < m else m


#: The apex re-step runs at the branch's tolerances times this.
APEX_TOL_FACTOR = 1e-3


def _trace_branches(start: ShapePoint, w0: float, directions, params: FlowParams) -> list:
    """The branches of a flow line, one per direction (1.0 forward, -1.0
    backward), each stepped in turn from start to its vertex stop ((2, 0)
    forward), then all timed in one _time_panels call.

    Returns per branch (run, times, rows, apex): the stepper's _Run, the
    flow time of each of its rows from the start, their _row (x, y, m)
    (n+1, 3) in the branch's own order, and the apex where the branch
    crosses the circle x^2 + y^2 = 2, else None.  A start past the branch's
    stop gives one row and no steps.  Raises IntegrationFailureError for the
    first branch, or apex re-step, that stops short.  The re-step (module
    docstring) runs at APEX_TOL_FACTOR times the tolerances and shares _row
    with the rows, so its start margin is positive.
    """
    y0 = (_logit((start.x - start.y) / 2.0), _logit((start.x + start.y) / 2.0), 0.0)
    time_scale = _time_scale(w0, params.r_squared)
    branches = []
    for direction in directions:
        run = _dormand_prince(y0, direction, params.rel_tol, params.abs_tol, params.max_steps,
                              _round_corner_margin if direction > 0.0 else _vertex_margin)
        if run.end is not None:
            [(_, times)] = _time_panels([(run, direction * time_scale)])
            coeffs = _coeffs(run.states.T.copy(), w0)
            if direction < 0.0:  # a Trajectory runs forward in time
                times, coeffs = times[::-1], coeffs[::-1]
            raise IntegrationFailureError(
                f"{'forward' if direction > 0.0 else 'backward'} branch from "
                f"({start.x}, {start.y}) stopped short of a vertex after "
                f"{len(run.sigma) - 1} steps: {run.message or run.end.value}",
                trajectory=Trajectory(times, coeffs, run.end, None))
        P, Q, L = run.states.T.tolist()
        xym = list(map(_row, P, Q))
        rows = np.fromiter(chain.from_iterable(xym), float, 3 * len(P)).reshape(-1, 3)
        apex, inside = None, False
        for i, (_, y, m) in enumerate(xym):  # cheaper than numpy's calls on a branch's rows
            m *= direction
            if inside and m <= 0.0:  # the first step from direction m > 0, y >= 0 crosses
                fine = _dormand_prince(
                    (P[i - 1], Q[i - 1], L[i - 1]), direction,
                    APEX_TOL_FACTOR * params.rel_tol, APEX_TOL_FACTOR * params.abs_tol,
                    params.max_steps, lambda P, Q, L: direction * _row(P, Q)[2])
                if fine.end is not None:
                    raise IntegrationFailureError(
                        f"apex re-step stopped short after {len(fine.sigma) - 1} steps: "
                        f"{fine.message or fine.end.value}")
                apex = ShapePoint(*_row(*fine.states[-1, :2].tolist())[:2])
                break
            inside = m > 0.0 and y >= 0.0
        branches.append((run, rows, apex))
    timed = _time_panels([(run, direction * time_scale)
                          for (run, _, _), direction in zip(branches, directions)])
    return [(run, times, rows, apex) for (run, rows, apex), (_, times) in zip(branches, timed)]


def trace_flowline(start: ShapePoint, c0: float = 1.0,
                   params: FlowParams | None = None,
                   include_backward: bool = True) -> FlowLine:
    """Trace the flow line through a triangle point (see FlowLine).

    The logit field of the module docstring is stepped from
    (P, Q, L) = (logit((x - y)/2), logit((x + y)/2), 0) forward, and backward
    with the field negated, to the stops of the module docstring: forward
    only at (2, 0), even where the line passes close by (1, 1) from a start
    near the degenerate edge; backward at the origin, or at (1, 1) along the
    turtle edge (Q = +inf).  Only a start within VERTEX_DELTA of (2, 0) gives
    a one-point line.  A branch that stops short (params.max_steps,
    step-size underflow) raises IntegrationFailureError carrying it as a
    Trajectory of (u, v, w) = w0 e^L (p, q, 1); an apex re-step, without one.
    c0 lifts the start to a metric with largest coefficient w0 = w(0); times
    scale by w0 R^2/4 (by 1/c0^2 in c0), leaving xs, ys and the apex
    unchanged.  Both branches are timed in one quadrature of dt/dsigma.
    """
    if params is None:
        params = FlowParams()
    w0 = metric_coeffs(from_xy(start, c0)).w
    (_, times, rows, apex), *backward = _trace_branches(
        start, w0, (1.0, -1.0) if include_backward else (1.0,), params)
    at_start = 0
    for _, back_times, back_rows, back_apex in backward:  # reversed, start row dropped
        at_start = len(back_rows) - 1
        rows = np.concatenate([back_rows[:0:-1], rows])
        times = np.concatenate([back_times[:0:-1], times])
        apex = apex or back_apex
    xs, ys, _ = rows.T.copy()
    xs[at_start], ys[at_start] = start.x, start.y
    if apex is None:
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
    exactly 1/2 and 3/2.  resolution is an integer, 16 <= resolution <
    GRID_LIMIT: a float, even 64.0, is a DomainError.
    """
    # A boundary takes resolution + 1 values.
    if not 16 <= _require_count("resolution", resolution) < GRID_LIMIT:
        raise DomainError(f"resolution must be at least 16 and below {GRID_LIMIT}, "
                          f"got {resolution}")

    x_scalar = np.linspace(0.5, 1.0, resolution + 1)[:-1]
    x_kappa = np.linspace(1.0, 1.5, resolution + 1)[1:]
    cd = np.column_stack([np.ones(resolution + 1),
                          np.linspace(0.0, 1.0, resolution + 1)])

    return {
        SCALAR_ZERO: np.column_stack([x_scalar, np.sqrt(2.0 * x_scalar - 1.0)]),
        KAPPA_MIN_ZERO: np.column_stack([x_kappa, np.sqrt(3.0 - 2.0 * x_kappa)]),
        RICCI_DEGENERATE: cd,
    }
