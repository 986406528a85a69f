"""Ricci-flow dynamics of the metric coefficients (u, v, w).

The flow ``dg/dt = -2 Ric(g)`` restricted to left-invariant metrics reduces
to three coupled ODEs.  With m = (u + v + w)/2,

    du/dt = -16 (m - v)(m - w) / (R^2 v w)
          = -(4/R^2) [2 + (u^2 - v^2 - w^2)/(v w)],

and cyclically.  Every solution collapses (all coefficients reach zero) in
finite time.  The right-hand side is homogeneous of degree 0, so the shape
evolves on its own and the scale only carries the clock.  For u <= v <= w,
integrate (and shapespace's tracer) steps the bounded field _field of the
logits P, Q of p = u/w, q = v/w and L = ln(w/w0) in dsigma = dt w/(u v):

    dP/dsigma = k (1 - y),   dQ/dsigma = k (1 + y),   k = 8/R^2,
    dL/dsigma = -(k/2)(1 - y^2),   dt/dsigma = w0 e^L l(P) l(Q),

with l the logistic function and y = q - p = l(Q) - l(P).  A coefficient
equal to w0 sits at +inf and stays there (Q on the turtle edge, P and Q on
the round sphere).  integrate stops where min(u, v, w) = w0 e^L l(P)
reaches collapse_eps and adds the round sphere's remaining time
(R^2/4) mean(u, v, w).

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

The numeric integrator is one Dormand-Prince 5(4) stepper on plain floats
for _field, with the usual RK45 controller: the RMS error norm over
atol + rtol max(|y|, |y_new|), safety factor 0.9 with step factors bounded
to [0.2, 10], the Hairer-Norsett-Wanner initial step, and failure once a
step falls below ten units in the last place of sigma.  Every accepted step
keeps its 4th-order (Shampine) interpolating quartic in sigma.  Flow time
is Gauss-Legendre quadrature of dt/dsigma over panels of that dense output.
The stop event (collapse here, a vertex or the apex of a flow line in
shapespace) and the closed-form inversions are located by one bracketed
root-finder, _bracket_crossing.

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
#: steps that no longer approximate the flow: the thin dragon (0.01, 0.5, 1)
#: collapses 54% early at rel_tol = 1 and 1.4% early at 1e-2.  At 1e-3 it,
#: (0.3, 0.6, 1.2) and (0.001, 0.002, 1) are within 1e-3 of converged.
MAX_REL_TOL = 1e-3


@dataclass(frozen=True)
class FlowParams:
    """Integration controls.  collapse_eps must stay below min(u0, v0, w0).

    rel_tol must lie in (0, MAX_REL_TOL].  abs_tol only has to be positive:
    it is an absolute error floor on the scale-free (P, Q, L) that
    integrate and trace_flowline step, so it does not scale with the
    metric, and a large one coarsens the result (at abs_tol = 1 the flow
    line through (1.0, 0.5) has 8 samples, its apex 1.2e-5 off).
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

    Every row of ``coeffs`` is positive.  ``times`` rises strictly unless a
    step's time span rounds to zero (at a collapse_eps of 1e-300, say).
    When terminated == COLLAPSED, collapse_time is at or past the final
    sample time.
    """

    times: np.ndarray
    coeffs: np.ndarray
    terminated: Termination
    collapse_time: float | None
    #: For sample_at: sigma, rows (P, Q, L) of the sorted coefficients, their
    #: dense output and time panels, w0 and each sorted coefficient's column.
    _dense: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def sample_at(self, t) -> np.ndarray:
        """Coefficients at arbitrary times inside the covered span (4th-order
        dense output of the integrator): three Newton steps on sigma inside
        the quadrature panel that holds each time."""
        import numpy as np

        if self._dense is None:
            raise DomainError("trajectory carries no dense output")
        t = np.asarray(t, dtype=float)
        times = self.times
        if np.any(t < times[0]) or np.any(t > times[-1]):
            raise DomainError("requested time outside the integrated span")
        sigma, states, quartic, (step, lo, width, ends), w0, columns = self._dense
        # A time on a panel boundary belongs to the panel that ends there.
        j = np.minimum(np.searchsorted(ends, t, side="left"), len(ends) - 1)
        step, lo, width, t_lo = step[j], lo[j], width[j], np.where(j > 0, ends[j - 1], 0.0)
        share = (t - t_lo) / np.maximum(ends[j] - t_lo, sys.float_info.min)
        x = lo + width * np.clip(share, 0.0, 1.0)  # the fraction of the step
        scale = w0 * np.diff(sigma)[step]  # dt/dx = scale e^g
        nodes = np.array(_GL_NODES + (1.0,))
        for _ in range(3):
            part = x - lo
            rate = np.exp(_log_rate(_dense_at(states, quartic, step,
                                              lo[..., None] + part[..., None] * nodes)))
            error = t_lo + scale * part * (rate[..., :-1] @ _GL_WEIGHTS) - t
            x = np.clip(x - error / np.maximum(scale * rate[..., -1], sys.float_info.min),
                        lo, lo + width)
        return _coeffs(_dense_at(states, quartic, step, x[..., None])[..., 0, :], w0, columns)

    def uniform_grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n equispaced samples spanning the trajectory."""
        import numpy as np

        if n < 2:
            raise DomainError(f"grid needs at least 2 points, got {n}")
        ts = np.linspace(self.times[0], self.times[-1], n)
        return ts, self.sample_at(ts)


def rhs(m: MetricCoeffs, r_squared: float = DEFAULT_R_SQUARED) -> tuple[float, float, float]:
    """Time derivatives (du, dv, dw) of the metric coefficients: the paper's
    equations, the oracle of integrate's _field in the tests.  The bracket
    form -(4/R^2)[2 + (u^2 - v^2 - w^2)/(vw)] agrees to 1e-12 relative."""
    _require_positive("r_squared", r_squared)
    u, v, w = m.u, m.v, m.w
    # Each half-difference sums the other two components first, which keeps
    # the slot map exactly equivariant under input permutations.
    qu = ((v + w) - u) / 2.0
    qv = ((u + w) - v) / 2.0
    qw = ((u + v) - w) / 2.0
    k = -16.0 / r_squared
    return k * (qv * qw) / (v * w), k * (qu * qw) / (u * w), k * (qu * qv) / (u * v)


def _field(P: float, Q: float, L: float, r_squared: float) -> tuple[float, float, float]:
    """The scale-free field d(P, Q, L)/dsigma of the module docstring."""
    k = 8.0 / r_squared
    y = 0.5 * (math.tanh(0.5 * Q) - math.tanh(0.5 * P))
    return k * (1.0 - y), k * (1.0 + y), -0.5 * k * (1.0 - y) * (1.0 + y)


def _logistic_pair(z: float) -> tuple[float, float]:
    """(l(z), l(-z)) = (p, 1 - p) for z = logit(p), each to full relative
    accuracy and without overflow; z = +inf gives (1, 0)."""
    e = math.exp(-abs(z))
    near_one, near_zero = 1.0 / (1.0 + e), e / (1.0 + e)
    return (near_one, near_zero) if z >= 0.0 else (near_zero, near_one)


def _logit(p: float, one: float = 1.0) -> float:
    return math.inf if p == one else math.log(p / (one - p))


def _logistic(z: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.exp(-np.logaddexp(0.0, -z))


def _log_rate(states: np.ndarray) -> np.ndarray:
    """ln((dt/dsigma)/w0) = L + ln l(P) + ln l(Q) of rows (P, Q, L)."""
    import numpy as np

    return (states[..., 2] - np.logaddexp(0.0, -states[..., 0])
            - np.logaddexp(0.0, -states[..., 1]))


def _coeffs(states: np.ndarray, w0: float, columns=(0, 1, 2)) -> np.ndarray:
    """Rows (u, v, w) = w0 e^L (l(P), l(Q), 1) of rows (P, Q, L), the sorted
    coefficient i put back in column columns[i]."""
    import numpy as np

    ordered = w0 * np.exp(states[..., 2:]) * np.concatenate(
        [_logistic(states[..., :2]), np.ones_like(states[..., 2:])], axis=-1)
    return ordered[..., np.argsort(columns)]


def _dense_at(states: np.ndarray, quartic: np.ndarray, step: np.ndarray,
              frac: np.ndarray) -> np.ndarray:
    """Rows (P, Q, L) of the dense output at fractions frac[..., i] of step."""
    return states[step][..., None, :] + (frac[..., None] ** _POWERS) @ quartic[step]


#: Five-point Gauss-Legendre rule on [0, 1]: nodes and weights.
_GL_OUTER, _GL_INNER = (math.sqrt(5.0 + s * math.sqrt(40.0 / 7.0)) / 6.0 for s in (1.0, -1.0))
_GL_NODES = (0.5 - _GL_OUTER, 0.5 - _GL_INNER, 0.5, 0.5 + _GL_INNER, 0.5 + _GL_OUTER)
_GL_WEIGHTS = tuple((322.0 + s * 13.0 * math.sqrt(70.0)) / 1800.0 if s else 64.0 / 225.0
                    for s in (-1.0, 1.0, 0.0, 1.0, -1.0))
#: Powers of the step fraction in a dense-output quartic, which are also
#: the weights that give its derivative at the step's end.
_POWERS = (1.0, 2.0, 3.0, 4.0)

#: The time quadrature splits a step into panels over which ln(dt/dsigma)
#: changes by at most about this much.
PANEL_LOG_RATE = 0.5


def _time_panels(sigma: np.ndarray, states: np.ndarray, quartic: np.ndarray, w0: float):
    """The integral of w0 e^g, g = _log_rate, over the dense output: the
    quadrature panels (each one's step, its start and width as fractions of
    that step, and the time at its end), and the time of every row.

    Steps span up to 10 in sigma where the field is nearly constant (along
    the snake edge, say), and e^g changes by up to e^9 within one.  So each
    step is split into m = ceil(h max|g'| / PANEL_LOG_RATE) equal panels
    with the five-point rule on each.  |h g'| is at most
    h (|dL| + l(-P) |dP| + l(-Q) |dQ|) at the larger of the step's ends (the
    signed sum can vanish where its terms do not).  Panels a hundred times
    finer move the times by at most 2e-14 relative, the rounding of their
    longer sums.
    """
    import numpy as np

    n = len(quartic)
    tail = _logistic(-states[:, :2])
    start_rate, end_rate = np.abs(quartic[:, 0, :]), np.abs(_POWERS @ quartic)
    change = np.maximum(start_rate[:, 2] + (tail[:-1] * start_rate[:, :2]).sum(axis=1),
                        end_rate[:, 2] + (tail[1:] * end_rate[:, :2]).sum(axis=1))
    m = np.ceil(change / PANEL_LOG_RATE).clip(1).astype(int)
    step = np.repeat(np.arange(n), m)
    width = 1.0 / m[step]
    start = (np.arange(len(step)) - np.repeat(np.cumsum(m) - m, m)) * width
    at = _dense_at(states, quartic, step, start[:, None] + width[:, None] * _GL_NODES)
    ends = w0 * np.cumsum(np.diff(sigma)[step] * width * (np.exp(_log_rate(at)) @ _GL_WEIGHTS))
    return (step, start, width, ends), np.concatenate([[0.0], ends[np.cumsum(m) - 1]])


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


def _initial_step(y, f, r_squared, rel_tol, abs_tol) -> float:
    # Hairer, Norsett and Wanner, Solving ODEs I, II.4, for an error
    # estimator of order 4 on an unbounded interval.
    scales = [abs_tol + abs(yi) * rel_tol for yi in y]
    d0 = _scaled_rms(y, scales)
    d1 = _scaled_rms(f, scales)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:  # d1 overflowed even through hypot
        h0 = 1e-6
    f1 = _field(y[0] + h0 * f[0], y[1] + h0 * f[1], y[2] + h0 * f[2], r_squared)
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


def _dormand_prince(y0: tuple[float, float, float], r_squared: float, rel_tol: float,
                    abs_tol: float, max_steps: int,
                    margin: Callable[[float, float, float], float]):
    """Step _field from y0 = (P, Q, L) at sigma = 0 until margin(P, Q, L) is
    no longer positive.

    The field is proportional to 1/R^2, so a negative r_squared runs it
    backward.  The crossing is localized on the crossing step's quartic to
    a few units in the last place of sigma, and the last row is taken on
    the nonpositive side.  Returns (sigma, states, quartic, status,
    message): sigma (n+1,), rows (P, Q, L) (n+1, 3) and their dense output
    (n, 4, 3), status one of "event", "max_steps", "failed", and the
    failure message or None.
    """
    g_new = margin(*y0)
    if g_new <= 0.0:
        raise DomainError("stop margin must be positive at the initial state")
    P, Q, L = y0
    k1P, k1Q, k1L = _field(P, Q, L, r_squared)
    h_abs = _initial_step(y0, (k1P, k1Q, k1L), r_squared, rel_tol, abs_tol)
    t = 0.0
    times = [t]
    states = [(P, Q, L)]
    stages = []
    status, message = "max_steps", None
    for _ in range(max_steps):
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            t_new = t + h_abs
            h = t_new - t
            k2P, k2Q, k2L = _field(P + h * (1 / 5 * k1P),
                                   Q + h * (1 / 5 * k1Q),
                                   L + h * (1 / 5 * k1L), r_squared)
            k3P, k3Q, k3L = _field(P + h * (3 / 40 * k1P + 9 / 40 * k2P),
                                   Q + h * (3 / 40 * k1Q + 9 / 40 * k2Q),
                                   L + h * (3 / 40 * k1L + 9 / 40 * k2L), r_squared)
            k4P, k4Q, k4L = _field(
                P + h * (44 / 45 * k1P - 56 / 15 * k2P + 32 / 9 * k3P),
                Q + h * (44 / 45 * k1Q - 56 / 15 * k2Q + 32 / 9 * k3Q),
                L + h * (44 / 45 * k1L - 56 / 15 * k2L + 32 / 9 * k3L), r_squared)
            k5P, k5Q, k5L = _field(
                P + h * (19372 / 6561 * k1P - 25360 / 2187 * k2P
                         + 64448 / 6561 * k3P - 212 / 729 * k4P),
                Q + h * (19372 / 6561 * k1Q - 25360 / 2187 * k2Q
                         + 64448 / 6561 * k3Q - 212 / 729 * k4Q),
                L + h * (19372 / 6561 * k1L - 25360 / 2187 * k2L
                         + 64448 / 6561 * k3L - 212 / 729 * k4L), r_squared)
            k6P, k6Q, k6L = _field(
                P + h * (9017 / 3168 * k1P - 355 / 33 * k2P + 46732 / 5247 * k3P
                         + 49 / 176 * k4P - 5103 / 18656 * k5P),
                Q + h * (9017 / 3168 * k1Q - 355 / 33 * k2Q + 46732 / 5247 * k3Q
                         + 49 / 176 * k4Q - 5103 / 18656 * k5Q),
                L + h * (9017 / 3168 * k1L - 355 / 33 * k2L + 46732 / 5247 * k3L
                         + 49 / 176 * k4L - 5103 / 18656 * k5L), r_squared)
            Pn = P + h * (35 / 384 * k1P + 500 / 1113 * k3P + 125 / 192 * k4P
                          - 2187 / 6784 * k5P + 11 / 84 * k6P)
            Qn = Q + h * (35 / 384 * k1Q + 500 / 1113 * k3Q + 125 / 192 * k4Q
                          - 2187 / 6784 * k5Q + 11 / 84 * k6Q)
            Ln = L + h * (35 / 384 * k1L + 500 / 1113 * k3L + 125 / 192 * k4L
                          - 2187 / 6784 * k5L + 11 / 84 * k6L)
            k7P, k7Q, k7L = _field(Pn, Qn, Ln, r_squared)
            # Difference of the embedded 4th- and 5th-order solutions.
            eP = h * (-71 / 57600 * k1P + 71 / 16695 * k3P - 71 / 1920 * k4P
                      + 17253 / 339200 * k5P - 22 / 525 * k6P + 1 / 40 * k7P)
            eQ = h * (-71 / 57600 * k1Q + 71 / 16695 * k3Q - 71 / 1920 * k4Q
                      + 17253 / 339200 * k5Q - 22 / 525 * k6Q + 1 / 40 * k7Q)
            eL = h * (-71 / 57600 * k1L + 71 / 16695 * k3L - 71 / 1920 * k4L
                      + 17253 / 339200 * k5L - 22 / 525 * k6L + 1 / 40 * k7L)
            error = _rms3(eP / (abs_tol + max(abs(P), abs(Pn)) * rel_tol),
                          eQ / (abs_tol + max(abs(Q), abs(Qn)) * rel_tol),
                          eL / (abs_tol + max(abs(L), abs(Ln)) * rel_tol))
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
        stages.append((k1P, k1Q, k1L, k3P, k3Q, k3L, k4P, k4Q, k4L,
                       k5P, k5Q, k5L, k6P, k6Q, k6L, k7P, k7Q, k7L))
        t, P, Q, L = t_new, Pn, Qn, Ln
        k1P, k1Q, k1L = k7P, k7Q, k7L
        times.append(t)
        states.append((P, Q, L))
        g_old, g_new = g_new, margin(P, Q, L)
        if g_new <= 0.0:
            status = "event"
            break

    import numpy as np

    sigma = np.array(times)
    rows = np.array(states)
    steps = np.diff(sigma)
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
            sigma[-1] = t_event
            rows[-1] = _quartic_at(y_old, c, r)
            quartic[-1] *= (r ** np.arange(1, 5))[:, None]
    return sigma, rows, quartic, status, message

#: integrate steps at the params' tolerances times this.  A collapse time
#: carries the error of every step: at the FlowParams defaults the sweep
#: workload's dragons come out up to 2.7e-10 off, at 0.3 times 8.3e-11.
INTEGRATE_TOL_FACTOR = 0.3


def integrate(m0: MetricCoeffs, params: FlowParams | None = None) -> Trajectory:
    """Integrate the flow from m0 until collapse or max_steps.

    Steps _field from the sorted u <= v <= w0, (P, Q, L) = (ln(u/(w0 - u)),
    ln(v/(w0 - v)), 0), at INTEGRATE_TOL_FACTOR times the params'
    tolerances until min(u, v, w) = w0 e^L l(P) reaches collapse_eps; the
    collapse time adds the round sphere's remaining (R^2/4) mean(u, v, w).
    Rows keep the input's column order.  Raises IntegrationFailureError
    (carrying the partial trajectory) on step-size underflow.
    """
    if params is None:
        params = FlowParams()
    y0 = m0.as_tuple()
    if params.collapse_eps >= min(y0):
        raise DomainError(
            f"collapse_eps ({params.collapse_eps}) must be below the initial "
            f"minimum coefficient ({min(y0)})")
    columns = tuple(sorted(range(3), key=y0.__getitem__))
    u, v, w0 = (y0[i] for i in columns)
    log_floor = math.log(params.collapse_eps) - math.log(w0)

    def margin(P: float, Q: float, L: float) -> float:
        # ln(min(u, v, w)/collapse_eps) = L + ln l(P) - log_floor, without overflow.
        log_l = -math.log1p(math.exp(-P)) if P >= 0.0 else P - math.log1p(math.exp(P))
        return L + log_l - log_floor

    sigma, states, quartic, status, message = _dormand_prince(
        (_logit(u, w0), _logit(v, w0), 0.0), params.r_squared,
        INTEGRATE_TOL_FACTOR * params.rel_tol, INTEGRATE_TOL_FACTOR * params.abs_tol,
        params.max_steps, margin)
    coeffs = _coeffs(states, w0, columns)
    panels, times = _time_panels(sigma, states, quartic, w0)
    dense = (sigma, states, quartic, panels, w0, columns) if len(quartic) else None
    if status == "failed":
        raise IntegrationFailureError(
            f"integration failed: {message}",
            trajectory=Trajectory(times, coeffs, Termination.FAILED, None, dense))
    if status == "max_steps":
        return Trajectory(times, coeffs, Termination.MAX_STEPS, None, dense)
    remaining = 0.25 * params.r_squared * sum(coeffs[-1, list(columns)].tolist()) / 3.0
    return Trajectory(times, coeffs, Termination.COLLAPSED, float(times[-1]) + remaining, dense)


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
