"""Ricci-flow dynamics of the metric coefficients (u, v, w).

The flow ``dg/dt = -2 Ric(g)`` restricted to left-invariant metrics reduces
to three coupled ODEs.  With sigma = (u + v + w)/2,

    du/dt = -16 (sigma - v)(sigma - w) / (R^2 v w)
          = -(4/R^2) [2 + (u^2 - v^2 - w^2)/(v w)],

and cyclically.  Every solution collapses (all coefficients reach zero) in
finite time; the collapse is detected by an event threshold on
min(u, v, w) and the collapse time is extrapolated linearly through zero.

Two symmetric reductions integrate in closed form and are implemented
here alongside the numeric integrator so each can check the other: the
snake (u = v) and the turtle (v = w).  Both are the flow of a metric
(X, X, Z) with Z/X = 1 + eps, one family in eps:

* snake:  Z = W = w(0), eps = alpha^2 = W/V - 1 >= 0, s = lambda = w/W;
* turtle: Z = U = u(0), eps = -beta^2 = U/V - 1 in (-1, 0], s = mu = u/U.

The unpaired coefficient has fallen to Z s, and the paired one is
Z s/(1 + eps s^2), at

    t(s) = (Z/2) [ (1-s)(1-eps s) / ((1+eps)(1+eps s^2)) + r F(eps r^2) ],
    r = (1-s)/(1+eps s),

collapsing at T = t(0) = (Z/2)(1/(1+eps) + F(eps)).  F is the one series

    F(z) = sum_n (-z)^n/(2n+1) = atan(sqrt z)/sqrt z          (z > 0)
                               = atanh(sqrt(-z))/sqrt(-z)     (z < 0),

summed to three terms where |z| < SERIES_SWITCH^2: the snake's atan and
the turtle's log continued through the round sphere eps = 0.

Closed-form times are expressed in the R^2 = 4 normalization in which the
reductions are derived; rescale by r_squared/4 for other radii.

The numeric integrator is one Dormand-Prince 5(4) stepper on plain floats.
It takes its field as an argument (the flow above for integrate, the
flow-line field of shapespace for trace_flowline), with the stage
arithmetic written out for three components and the usual RK45 controller:
the RMS error norm over atol + rtol max(|y|, |y_new|), safety factor 0.9
with step factors bounded to [0.2, 10], the Hairer-Norsett-Wanner initial
step, and failure once a step falls below ten units in the last place of
t.  Every accepted step keeps the coefficients of its 4th-order (Shampine)
interpolating quartic; Trajectory.sample_at evaluates them for many times
at once.  The stop event (collapse here, a vertex or the apex of a flow
line in shapespace) and the closed-form inversions are located by one
bracketed root-finder, _bracket_crossing.

Integrations are single-threaded per trajectory; trajectories are
independent values, so sweeps may run many integrations concurrently.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .errors import CollapseReachedError, DomainError, IntegrationFailureError
from .geometry import DEFAULT_R_SQUARED, MetricCoeffs, _require_positive

if TYPE_CHECKING:
    import numpy as np

#: Below this sqrt|z|, the closed forms' F(z) switches to its series.
SERIES_SWITCH = 1e-6
_SERIES_Z = SERIES_SWITCH * SERIES_SWITCH

#: Turtle non-sphericity cap; precision degrades noticeably beyond 0.999.
BETA_CAP = 1.0 - 1e-12


#: Largest accepted rel_tol.  Looser settings let the step controller take
#: steps that no longer approximate the flow: at rel_tol = 1 the dragon
#: (0.3, 0.6, 1.2) "collapses" at t = 0.125 after one step instead of
#: 0.6387, and at 0.1 the thin dragon (0.01, 0.5, 1) is 98% off.  At 1e-3
#: both collapse times are within 2e-3 of the converged ones, the very thin
#: (0.001, 0.002, 1) within 2e-2.
MAX_REL_TOL = 1e-3


@dataclass(frozen=True)
class FlowParams:
    """Integration controls.  collapse_eps must stay below min(u0, v0, w0).

    rel_tol must lie in (0, MAX_REL_TOL].  abs_tol only has to be positive:
    it is an absolute floor in the units of the stepped state.  For
    integrate that state is (u, v, w), so its sensible size scales with the
    metric.  trace_flowline steps the scale-free (P, Q, L) of shapespace
    instead, whose components are of order 1 whatever the metric: there a
    large abs_tol coarsens the line (at abs_tol = 1 the line through
    (1.0, 0.5) has 8 samples and its apex lies 1.2e-5 from the one at the
    default tolerances).
    """

    r_squared: float = DEFAULT_R_SQUARED
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    collapse_eps: float = 1e-9
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        _require_positive("r_squared", self.r_squared)
        _require_positive("rel_tol", self.rel_tol)
        if self.rel_tol > MAX_REL_TOL:
            raise DomainError(
                f"rel_tol must be at most {MAX_REL_TOL}, got {self.rel_tol!r}")
        _require_positive("abs_tol", self.abs_tol)
        _require_positive("collapse_eps", self.collapse_eps)
        if self.max_steps < 1:
            raise DomainError(f"max_steps must be positive, got {self.max_steps}")


class Termination(Enum):
    COLLAPSED = "collapsed"
    MAX_STEPS = "max_steps"
    FAILED = "failed"  # only on the partial trajectory inside IntegrationFailureError


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped metric coefficients with the detected collapse time.

    ``times`` is strictly increasing and every row of ``coeffs`` is
    positive.  When terminated == COLLAPSED, collapse_time is at or past
    the final sample time.
    """

    times: np.ndarray
    coeffs: np.ndarray
    terminated: Termination
    collapse_time: float | None
    #: Dense output, shape (steps, 4, 3): inside step k the coefficients are
    #: coeffs[k] + sum_j _quartic[k, j] x^(j+1), a quartic in the step
    #: fraction x = (t - times[k]) / (times[k+1] - times[k]).
    _quartic: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def sample_at(self, t) -> np.ndarray:
        """Coefficients at arbitrary times inside the covered span (4th-order
        dense output of the integrator)."""
        import numpy as np

        if self._quartic is None:
            raise DomainError("trajectory carries no dense output")
        t = np.asarray(t, dtype=float)
        times = self.times
        if np.any(t < times[0]) or np.any(t > times[-1]):
            raise DomainError("requested time outside the integrated span")
        # A time on a step boundary belongs to the step that ends there.
        k = np.clip(np.searchsorted(times, t, side="left") - 1, 0, len(self._quartic) - 1)
        x = ((t - times[k]) / (times[k + 1] - times[k]))[..., None]
        c = self._quartic[k]
        return self.coeffs[k] + x * (c[..., 0, :] + x * (c[..., 1, :]
                                     + x * (c[..., 2, :] + x * c[..., 3, :])))

    def uniform_grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n equispaced samples spanning the trajectory."""
        import numpy as np

        if n < 2:
            raise DomainError(f"grid needs at least 2 points, got {n}")
        ts = np.linspace(self.times[0], self.times[-1], n)
        return ts, self.sample_at(ts)


def _rhs_scalar(u, v, w, r_squared):
    # Each half-difference sums the other two components first, which keeps
    # the slot map exactly equivariant under input permutations.
    qu = ((v + w) - u) / 2.0
    qv = ((u + w) - v) / 2.0
    qw = ((u + v) - w) / 2.0
    k = -16.0 / r_squared
    du = k * (qv * qw) / (v * w)
    dv = k * (qu * qw) / (u * w)
    dw = k * (qu * qv) / (u * v)
    return du, dv, dw


def rhs(m: MetricCoeffs, r_squared: float = DEFAULT_R_SQUARED) -> tuple[float, float, float]:
    """Time derivatives (du, dv, dw) of the metric coefficients.

    Uses the sigma-product form; the bracket form
    -(4/R^2)[2 + (u^2 - v^2 - w^2)/(vw)] agrees to 1e-12 relative and is
    kept in the test suite as the cross-check.
    """
    _require_positive("r_squared", r_squared)
    return _rhs_scalar(m.u, m.v, m.w, r_squared)


#: Shampine's dense output for the Dormand-Prince pair: row s weights stage
#: k1, k3, k4, k5, k6, k7 (k2 has no weight), column j the power x^(j+1).
_DENSE = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))

#: Step-size controller: the next h is h * SAFETY * err^(-1/5), clipped to
#: [MIN_FACTOR, MAX_FACTOR] and to at most 1 right after a rejection.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


def _bracket_crossing(f: Callable[[float], float], lo: float, hi: float,
                      g_lo: float, g_hi: float, width: float) -> tuple[float, float]:
    """Shrink [lo, hi], where f falls from g_lo = f(lo) > 0 to g_hi = f(hi)
    <= 0, until the bracket is at most width wide; return the bracket.

    The package's one root-finder, with two callers: the stepper's stop
    event (which locates collapse, a vertex and the flow-line apex) and the
    closed-form inversions.  Each already holds f at the ends and passes it.
    f(lo) > 0 >= f(hi) holds for the returned bracket whenever it held for
    the given one; a NaN value counts as at most 0.

    Chandrupatla's method (Adv. Eng. Software 28, 1997).  The first point
    is the secant root of the ends.  Each later one is the root of the
    inverse quadratic through the ends and the end last displaced, where
    that quadratic is monotone between them, and the midpoint otherwise.
    A point lies at least width/2 inside the bracket, so that an accurate
    estimate ends the search by stepping over the crossing.  f is evaluated
    at most ceil(log2((hi - lo)/width)) + 2 times: each point is kept close
    enough to the midpoint that the evaluations left can still halve the
    bracket down to width, and once they only just can, it is the midpoint.
    That bounds the work where f is flat, or only rounding noise, near the
    crossing.  A width below the spacing of floats there ends the search at
    two adjacent floats.
    """
    span = hi - lo
    if span <= width:
        return lo, hi
    # An end value on the wrong side (by rounding) takes no part in
    # interpolation: as NaN, like a NaN value of f, it fails every test
    # below and the step takes the midpoint.  A zero at lo interpolates to
    # lo.
    if not g_lo >= 0.0:
        g_lo = math.nan
    if not g_hi <= 0.0:
        g_hi = math.nan
    # cap = reach * 2**(evaluations left - 1).  A point within cap of both
    # ends leaves a bracket the later evaluations can halve down to reach.
    # reach falls short of width by two units in the last place of the
    # ends (by half of width where that is less): rounding the points
    # leaves the bracket at most one such unit wider than the halving would.
    unit = math.ulp(max(abs(lo), abs(hi)))
    reach = max(width - 2.0 * unit, 0.5 * width)
    # A ratio past the largest float only means a width below the spacing
    # of floats, where the search ends at adjacent floats.
    ratio = min(span / width, sys.float_info.max)
    cap = math.ldexp(reach, math.ceil(math.log2(ratio)) + 1)
    # x1 is the newest point, x2 the opposite end and x3 the end x1 displaced.
    x1, g1, x2, g2, x3, g3 = lo, g_lo, hi, g_hi, None, math.nan
    while span > width:
        if x3 is None:
            t = g1 / (g1 - g2)
            if t != t:  # the secant through a NaN end
                t = 0.5
        else:
            xi = (x1 - x2) / (x3 - x2)
            phi = (g1 - g2) / (g3 - g2)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = (g1 / (g1 - g2) * g3 / (g3 - g2)
                     - (x3 - x1) / (x2 - x1) * g1 / (g3 - g1) * g2 / (g2 - g3))
            else:
                t = 0.5
        t_min = 0.5 * width / span
        if t < t_min:
            t = t_min
        elif t > 1.0 - t_min:
            t = 1.0 - t_min
        x = x1 + t * (x2 - x1)
        if x < hi - cap:
            x = hi - cap
        elif x > lo + cap:
            x = lo + cap
        if not lo < x < hi:  # rounded onto an end
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # adjacent floats: width is below their spacing
                break
        cap *= 0.5
        g = f(x)
        if g > 0.0:
            x3, g3, lo, g_lo = lo, g_lo, x, g
            x2, g2 = hi, g_hi
        else:
            x3, g3, hi, g_hi = hi, g_hi, x, g
            x2, g2 = lo, g_lo
        x1, g1 = x, g
        span = hi - lo
    return lo, hi


def _rms3(a: float, b: float, c: float) -> float:
    return math.sqrt((a * a + b * b + c * c) / 3.0)


def _scaled_rms(values, scales) -> float:
    # The stepper's norm of values/scales.  A component at infinity (infinite
    # scale) counts as zero, as it does in the stepper, and squares that
    # overflow are avoided through hypot.
    a, b, c = (0.0 if math.isinf(s) else v / s for v, s in zip(values, scales))
    norm = _rms3(a, b, c)
    return norm if norm < math.inf else math.hypot(a, b, c) / math.sqrt(3.0)


def _initial_step(y, f, rhs, r_squared, rel_tol, abs_tol) -> float:
    # Hairer, Norsett and Wanner, Solving ODEs I, II.4, for an error
    # estimator of order 4 on an unbounded interval.
    scales = [abs_tol + abs(yi) * rel_tol for yi in y]
    d0 = _scaled_rms(y, scales)
    d1 = _scaled_rms(f, scales)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:  # d1 overflowed even through hypot
        h0 = 1e-6
    f1 = rhs(y[0] + h0 * f[0], y[1] + h0 * f[1], y[2] + h0 * f[2], r_squared)
    d2 = _scaled_rms([a - b for a, b in zip(f1, f)], scales) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1)
    return h if h > 0.0 else h0  # h1 is 0 when a norm overflowed


def _quartic_at(y_old, c, x: float) -> tuple[float, float, float]:
    return tuple(y + x * (c1 + x * (c2 + x * (c3 + x * c4)))
                 for y, c1, c2, c3, c4 in zip(y_old, *c))


def _dormand_prince(y0: tuple[float, float, float],
                    rhs: Callable[[float, float, float, float], tuple[float, float, float]],
                    r_squared: float, rel_tol: float, abs_tol: float, max_steps: int,
                    margin: Callable[[float, float, float], float]):
    """Step the field y' = rhs(*y, r_squared) from t = 0 until margin(*y) is
    no longer positive.

    Both fields the package steps (the (u, v, w) flow here and the
    flow-line field of shapespace) are proportional to 1/R^2, so a negative
    r_squared runs them backward.  The crossing is localized on the
    crossing step's quartic to a few units in the last place of t, and the
    last sample is taken on the nonpositive side.  Returns (times, coeffs,
    quartic, status, message): times (n+1,), coeffs (n+1, 3) and quartic
    (n, 4, 3) as Trajectory holds them (quartic None when no step was
    accepted), status one of "event", "max_steps", "failed", and the failure
    message or None.
    """
    g_new = margin(*y0)
    if g_new <= 0.0:
        raise DomainError("stop margin must be positive at the initial state")
    u, v, w = y0
    k1u, k1v, k1w = rhs(u, v, w, r_squared)
    h_abs = _initial_step(y0, (k1u, k1v, k1w), rhs, r_squared, rel_tol, abs_tol)
    t = 0.0
    times = [t]
    states = [(u, v, w)]
    stages = []
    status, message = "max_steps", None
    for _ in range(max_steps):
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            t_new = t + h_abs
            h = t_new - t
            try:
                k2u, k2v, k2w = rhs(u + h * (1 / 5 * k1u),
                                    v + h * (1 / 5 * k1v),
                                    w + h * (1 / 5 * k1w), r_squared)
                k3u, k3v, k3w = rhs(u + h * (3 / 40 * k1u + 9 / 40 * k2u),
                                    v + h * (3 / 40 * k1v + 9 / 40 * k2v),
                                    w + h * (3 / 40 * k1w + 9 / 40 * k2w), r_squared)
                k4u, k4v, k4w = rhs(
                    u + h * (44 / 45 * k1u - 56 / 15 * k2u + 32 / 9 * k3u),
                    v + h * (44 / 45 * k1v - 56 / 15 * k2v + 32 / 9 * k3v),
                    w + h * (44 / 45 * k1w - 56 / 15 * k2w + 32 / 9 * k3w), r_squared)
                k5u, k5v, k5w = rhs(
                    u + h * (19372 / 6561 * k1u - 25360 / 2187 * k2u
                             + 64448 / 6561 * k3u - 212 / 729 * k4u),
                    v + h * (19372 / 6561 * k1v - 25360 / 2187 * k2v
                             + 64448 / 6561 * k3v - 212 / 729 * k4v),
                    w + h * (19372 / 6561 * k1w - 25360 / 2187 * k2w
                             + 64448 / 6561 * k3w - 212 / 729 * k4w), r_squared)
                k6u, k6v, k6w = rhs(
                    u + h * (9017 / 3168 * k1u - 355 / 33 * k2u + 46732 / 5247 * k3u
                             + 49 / 176 * k4u - 5103 / 18656 * k5u),
                    v + h * (9017 / 3168 * k1v - 355 / 33 * k2v + 46732 / 5247 * k3v
                             + 49 / 176 * k4v - 5103 / 18656 * k5v),
                    w + h * (9017 / 3168 * k1w - 355 / 33 * k2w + 46732 / 5247 * k3w
                             + 49 / 176 * k4w - 5103 / 18656 * k5w), r_squared)
                un = u + h * (35 / 384 * k1u + 500 / 1113 * k3u + 125 / 192 * k4u
                              - 2187 / 6784 * k5u + 11 / 84 * k6u)
                vn = v + h * (35 / 384 * k1v + 500 / 1113 * k3v + 125 / 192 * k4v
                              - 2187 / 6784 * k5v + 11 / 84 * k6v)
                wn = w + h * (35 / 384 * k1w + 500 / 1113 * k3w + 125 / 192 * k4w
                              - 2187 / 6784 * k5w + 11 / 84 * k6w)
                k7u, k7v, k7w = rhs(un, vn, wn, r_squared)
            except ZeroDivisionError:  # a stage landed on a zero coefficient
                error = math.inf
            else:
                # Difference of the embedded 4th- and 5th-order solutions.
                eu = h * (-71 / 57600 * k1u + 71 / 16695 * k3u - 71 / 1920 * k4u
                          + 17253 / 339200 * k5u - 22 / 525 * k6u + 1 / 40 * k7u)
                ev = h * (-71 / 57600 * k1v + 71 / 16695 * k3v - 71 / 1920 * k4v
                          + 17253 / 339200 * k5v - 22 / 525 * k6v + 1 / 40 * k7v)
                ew = h * (-71 / 57600 * k1w + 71 / 16695 * k3w - 71 / 1920 * k4w
                          + 17253 / 339200 * k5w - 22 / 525 * k6w + 1 / 40 * k7w)
                error = _rms3(eu / (abs_tol + max(abs(u), abs(un)) * rel_tol),
                              ev / (abs_tol + max(abs(v), abs(vn)) * rel_tol),
                              ew / (abs_tol + max(abs(w), abs(wn)) * rel_tol))
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else min(MAX_FACTOR, SAFETY * error ** -0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error ** -0.2)
            rejected = True
            if h_abs < min_step:
                status = "failed"
                message = "Required step size is less than spacing between numbers."
                break
        if status == "failed":
            break
        stages.append((k1u, k1v, k1w, k3u, k3v, k3w, k4u, k4v, k4w,
                       k5u, k5v, k5w, k6u, k6v, k6w, k7u, k7v, k7w))
        t, u, v, w = t_new, un, vn, wn
        k1u, k1v, k1w = k7u, k7v, k7w
        times.append(t)
        states.append((u, v, w))
        g_old, g_new = g_new, margin(u, v, w)
        if g_new <= 0.0:
            status = "event"
            break

    import numpy as np

    times_arr = np.array(times)
    coeffs = np.array(states)
    if not stages:
        return times_arr, coeffs, None, status, message
    steps = np.diff(times_arr)
    quartic = (np.matmul(np.transpose(_DENSE), np.array(stages).reshape(-1, 6, 3))
               * steps[:, None, None])
    if status == "event":
        t_old, t_new = times[-2], times[-1]
        h = t_new - t_old
        y_old, c = states[-2], quartic[-1].tolist()

        def crossing(t: float) -> float:
            return margin(*_quartic_at(y_old, c, (t - t_old) / h))

        _, t_event = _bracket_crossing(crossing, t_old, t_new, g_old, g_new,
                                       2.0 * math.ulp(t_new))
        if t_event < t_new:
            r = (t_event - t_old) / h
            times_arr[-1] = t_event
            coeffs[-1] = _quartic_at(y_old, c, r)
            quartic[-1] *= (r ** np.arange(1, 5))[:, None]
    return times_arr, coeffs, quartic, status, message


def _extrapolate_collapse(times: np.ndarray, coeffs: np.ndarray) -> float:
    # Linear extrapolation of the smallest coefficient through zero from the
    # final two samples; near collapse that coefficient is linear to O(dt^3).
    i = int(coeffs[-1].argmin())
    t1, y1 = times[-2], coeffs[-2, i]
    t2, y2 = times[-1], coeffs[-1, i]
    if y1 <= y2:
        return float(t2)
    return float(t2 + y2 * (t2 - t1) / (y1 - y2))


def integrate(m0: MetricCoeffs, params: FlowParams | None = None) -> Trajectory:
    """Integrate the flow from m0 until collapse or max_steps.

    Dormand-Prince 5(4) with adaptive steps; stops when min(u, v, w) reaches
    params.collapse_eps, then estimates the collapse time by linear
    extrapolation of the smallest coefficient.  Raises
    IntegrationFailureError (carrying the partial trajectory) on step-size
    underflow, and when the collapse event lands on a nonpositive
    coefficient (a collapse_eps too small for the scale of m0).
    """
    if params is None:
        params = FlowParams()
    y0 = m0.as_tuple()
    if params.collapse_eps >= min(y0):
        raise DomainError(
            f"collapse_eps ({params.collapse_eps}) must be below the initial "
            f"minimum coefficient ({min(y0)})")
    eps = params.collapse_eps

    def margin(u: float, v: float, w: float) -> float:
        return min(u, v, w) - eps

    times, coeffs, quartic, status, message = _dormand_prince(
        y0, _rhs_scalar, params.r_squared, params.rel_tol, params.abs_tol,
        params.max_steps, margin)
    if status == "failed":
        partial_traj = Trajectory(times, coeffs, Termination.FAILED, None, quartic)
        raise IntegrationFailureError(
            f"integration failed: {message}", trajectory=partial_traj)
    if status == "max_steps":
        return Trajectory(times, coeffs, Termination.MAX_STEPS, None, quartic)
    if coeffs[-1].min() <= 0.0:
        # collapse_eps lies below what the steps resolve at this scale: the
        # event sample overshot zero.  Keep only the positive samples.
        partial_traj = Trajectory(times[:-1], coeffs[:-1], Termination.FAILED, None,
                                  quartic[:-1] if len(quartic) > 1 else None)
        raise IntegrationFailureError(
            f"integration failed: the collapse event at t = {times[-1]!r} has a "
            f"nonpositive coefficient {coeffs[-1].min()!r}; collapse_eps "
            f"({eps!r}) is below the integrator's resolution", trajectory=partial_traj)
    collapse_time = _extrapolate_collapse(times, coeffs)
    return Trajectory(times, coeffs, Termination.COLLAPSED, collapse_time, quartic)


def isotropic_lambda(t: float, r_squared: float = DEFAULT_R_SQUARED) -> float:
    """Linear stretch factor sqrt(1 - 4t/R^2) of the round collapsing sphere."""
    _require_positive("r_squared", r_squared)
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if t >= r_squared / 4.0:
        raise CollapseReachedError(
            f"t = {t} is at or past the collapse time {r_squared / 4.0}")
    return math.sqrt(1.0 - 4.0 * t / r_squared)


def _pair_time(Z: float, eps: float, s: float) -> float:
    """Flow time at which the unpaired coefficient of the metric (X, X, Z),
    Z/X = 1 + eps, has fallen to Z*s (the module docstring's t(s))."""
    d = 1.0 - s
    es = eps * s
    r = d / (1.0 + es)
    z = eps * r * r
    if z > _SERIES_Z:
        q = math.sqrt(z)
        f = math.atan(q) / q
    elif z < -_SERIES_Z:
        q = math.sqrt(-z)
        f = math.atanh(q) / q
    else:
        f = 1.0 - z / 3.0 + z * z / 5.0
    return 0.5 * Z * (d * (1.0 - es) / ((1.0 + eps) * (1.0 + es * s)) + r * f)


def _pair_fraction(Z: float, eps: float, t: float, tol: float) -> float:
    """Invert _pair_time(Z, eps, s) = t for s to within tol; t is strictly
    decreasing in s, so the bracket [0, 1] holds exactly one root."""
    _require_positive("tol", tol)
    t = float(t)
    T = _pair_time(Z, eps, 0.0)
    if not 0.0 <= t <= T:
        raise DomainError(f"time must lie in [0, {T}], got {t}")
    # t(0) = T >= t and t(1) = 0 <= t.
    lo, hi = _bracket_crossing(lambda s: _pair_time(Z, eps, s) - t, 0.0, 1.0,
                               T - t, -t, tol)
    return 0.5 * (lo + hi)


def _pair_profile(Z: float, eps: float, s: float) -> tuple[float, float]:
    # The unpaired and the paired coefficient at fraction s.
    unpaired = Z * s
    return (unpaired, unpaired / (1.0 + eps * s * s))


@dataclass(frozen=True)
class SnakeSolution:
    """Closed-form flow of a snake (u = v), parameterized by W = w(0) and
    the non-sphericity alpha, alpha^2 = W/V - 1.  alpha = 0 is the round
    sphere."""

    W: float
    alpha: float

    def __post_init__(self) -> None:
        _require_positive("W", self.W)
        if not math.isfinite(self.alpha) or self.alpha < 0.0:
            raise DomainError(f"alpha must be nonnegative, got {self.alpha!r}")

    @classmethod
    def from_initial(cls, m0: MetricCoeffs) -> "SnakeSolution":
        """Build from snake initial coefficients (V, V, W) with W >= V."""
        if m0.u != m0.v:
            raise DomainError(f"snake initial data needs u = v, got ({m0.u}, {m0.v})")
        if m0.w < m0.v:
            raise DomainError(f"snake initial data needs w >= v, got ({m0.v}, {m0.w})")
        return cls(W=m0.w, alpha=math.sqrt(m0.w / m0.v - 1.0))

    @property
    def _eps(self) -> float:
        return self.alpha * self.alpha

    @property
    def V(self) -> float:
        return self.W / (1.0 + self._eps)

    @property
    def collapse_T(self) -> float:
        return _pair_time(self.W, self._eps, 0.0)

    @property
    def initial_coeffs(self) -> MetricCoeffs:
        return MetricCoeffs(self.V, self.V, self.W)


@dataclass(frozen=True)
class TurtleSolution:
    """Closed-form flow of a turtle (v = w), parameterized by U = u(0) and
    the non-sphericity beta in [0, 1), beta^2 = 1 - U/V."""

    U: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive("U", self.U)
        if not math.isfinite(self.beta) or not (0.0 <= self.beta <= BETA_CAP):
            raise DomainError(
                f"beta must lie in [0, {BETA_CAP}], got {self.beta!r}")

    @classmethod
    def from_initial(cls, m0: MetricCoeffs) -> "TurtleSolution":
        """Build from turtle initial coefficients (U, V, V) with U <= V."""
        if m0.v != m0.w:
            raise DomainError(f"turtle initial data needs v = w, got ({m0.v}, {m0.w})")
        if m0.u > m0.v:
            raise DomainError(f"turtle initial data needs u <= v, got ({m0.u}, {m0.v})")
        beta = min(math.sqrt(1.0 - m0.u / m0.v), BETA_CAP)
        return cls(U=m0.u, beta=beta)

    @property
    def _eps(self) -> float:
        return -self.beta * self.beta

    @property
    def V(self) -> float:
        return self.U / (1.0 + self._eps)

    @property
    def collapse_T(self) -> float:
        return _pair_time(self.U, self._eps, 0.0)

    @property
    def initial_coeffs(self) -> MetricCoeffs:
        return MetricCoeffs(self.U, self.V, self.V)


def snake_time_of_lambda(s: SnakeSolution, lam: float) -> float:
    """Elapsed time at which the snake's largest coefficient is w = W*lambda.

    Strictly decreasing in lambda with t(1) = 0 and t(0) = collapse_T.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0, 1], got {lam}")
    return _pair_time(s.W, s._eps, lam)


def snake_profile(s: SnakeSolution, lam: float) -> tuple[float, float]:
    """Coefficients (w, v) = (W*lambda, W*lambda/(1 + alpha^2 lambda^2)).

    The aspect ratio w/v = 1 + alpha^2 lambda^2 tends to 1 at collapse:
    the snake rounds out into a sphere before vanishing.
    """
    if not 0.0 < lam <= 1.0:
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    return _pair_profile(s.W, s._eps, lam)


def snake_lambda_of_time(s: SnakeSolution, t: float, tol: float = 1e-12) -> float:
    """Invert t(lambda) to within tol; monotone, so the root is unique."""
    return _pair_fraction(s.W, s._eps, t, tol)


def turtle_time_of_mu(s: TurtleSolution, mu: float) -> float:
    """Elapsed time at which the turtle's smallest coefficient is u = U*mu.

    Strictly decreasing in mu with t(1) = 0 and t(0) = collapse_T.
    """
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must lie in [0, 1], got {mu}")
    return _pair_time(s.U, s._eps, mu)


def turtle_profile(s: TurtleSolution, mu: float) -> tuple[float, float]:
    """Coefficients (u, v) = (U*mu, U*mu/(1 - beta^2 mu^2)); v = w throughout.

    The aspect ratio u/v = 1 - beta^2 mu^2 tends to 1 at collapse: the
    contracting turtle becomes relatively thicker.
    """
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"mu must lie in (0, 1], got {mu}")
    return _pair_profile(s.U, s._eps, mu)


def turtle_mu_of_time(s: TurtleSolution, t: float, tol: float = 1e-12) -> float:
    """Invert t(mu) to within tol, mirroring snake_lambda_of_time."""
    return _pair_fraction(s.U, s._eps, t, tol)


def x_rate(m: MetricCoeffs, r_squared: float = DEFAULT_R_SQUARED) -> float:
    """Time derivative of the triangle abscissa x = (u + v)/w.

    Requires the ordered convention w >= v >= u.  Strictly positive unless
    u = v = w: the flow always drifts toward the isotropic corner x = 2.
    """
    _require_positive("r_squared", r_squared)
    u, v, w = m.as_tuple()
    if not (w >= v >= u):
        raise DomainError(f"x_rate needs u <= v <= w, got ({u}, {v}, {w})")
    numerator = u * (w - v) ** 2 + u * u * (v - u) + v * (w * w - v * v)
    return (4.0 / r_squared) * 2.0 * numerator / (u * v * w * w)
