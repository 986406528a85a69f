"""Ricci-flow dynamics of the metric coefficients (u, v, w).

The flow ``dg/dt = -2 Ric(g)`` restricted to left-invariant metrics reduces
to three coupled ODEs.  With m = (u + v + w)/2,

    du/dt = -16 (m - v)(m - w) / (R^2 v w)
          = -(4/R^2) [2 + (u^2 - v^2 - w^2)/(v w)],

and cyclically.  Every solution collapses (all coefficients reach zero) in
finite time.  The right-hand side is homogeneous of degree 0, so the shape
evolves on its own and the scale only carries the clock.  For u <= v <= w,
integrate (and shapespace's tracer) steps the bounded field of the logits
P, Q of p = u/w, q = v/w and L = ln(w/w0) in dsigma = dt w/(u v), at R^2 = 4:

    dP/dsigma = k (1 - y),   dQ/dsigma = k (1 + y),   k = 2 direction,
    dL/dsigma = -(k/2)(1 - y^2),   dt/dsigma = w0 e^L l(P) l(Q),

with direction 1 (-1 backward), l the logistic function and y = q - p =
l(Q) - l(P): the whole field is the one scalar y, and L never feeds back.
R^2 enters only through the time scale: _time_panels scales flow times by
w0 R^2/4, and the closed-form times below, at R^2 = 4, by R^2/4.  A
coefficient equal to w0 sits at +inf and stays there (Q on the turtle edge,
P and Q on the round sphere).  integrate stops once w = w0 e^L has fallen
to collapse_eps w0 and the shape is round, on (P, Q, L) alone, and adds
the round sphere's remaining time (R^2/4) mean(u, v, w).

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

The numeric integrator is one Dormand-Prince 5(4) stepper on plain floats
whose stages carry the field's one scalar y (L is advanced once per step),
with RK45's error estimate and controller: the RMS error norm over
atol + rtol max(|old|, |new|) per component, safety factor 0.9 with step
factors bounded to [0.2, 10], the Hairer-Norsett-Wanner initial step, and
failure once a step falls below ten units in the last place of sigma or
sigma overflows.  Every accepted step keeps its 4th-order (Shampine)
quartic in sigma, built from the y of its stages.  A run returns one _Run,
ended by its stop margin (a start past it takes no step), max_steps or
that failure, which a Trajectory and a traced branch hold.  Flow time is
Gauss-Legendre quadrature of dt/dsigma over panels of that dense output,
one quadrature for all the runs of a call (both branches of a flow line).
The stop events (collapse here; in shapespace a vertex, and the apex of a
flow line where 1 - p^2 - q^2 changes sign) and the closed-form inversions
are located by one bracketed root-finder, _bracket_crossing.

The dense output runs in numpy on planes: _dense_at returns one contiguous
array per component P, Q, L, and the elementwise passes of _rate, _coeffs
and _time_panels' step bound run on such planes, in place where a value is
read once (a ufunc over a stride-3 column of rows costs several times more
per element, and each element rounds alike in any layout).  A matmul's
operands keep the layout they have: its rounding depends on the layout (a
column-major copy of one operand moves the last bit of about a third of
the dot products).

numpy is imported once, at the top: the package registers this module
lazily, so numpy loads only once flow first runs (package docstring).

Integrations are single-threaded per trajectory; trajectories are
independent values, so sweeps may run many integrations concurrently.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import CollapseReachedError, DomainError, IntegrationFailureError
from .geometry import (DEFAULT_ABS_TOL, DEFAULT_COLLAPSE_EPS, DEFAULT_MAX_STEPS, DEFAULT_R_SQUARED,
                       DEFAULT_REL_TOL, GRID_LIMIT, MAX_REL_TOL, MetricCoeffs, _excesses,
                       _require_count, _require_positive)

#: Below this sqrt|z|, the closed forms' F(z) switches to its series.
SERIES_SWITCH = 1e-6
_SERIES_Z = SERIES_SWITCH * SERIES_SWITCH

#: Turtle non-sphericity cap; precision degrades noticeably beyond 0.999.
BETA_CAP = 1.0 - 1e-12

#: Snake non-sphericity cap: past it, alpha^2 overflows.
ALPHA_CAP = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class FlowParams:
    """Integration controls.  collapse_eps, in (0, 1), is a share of max(u0, v0, w0).

    max_steps must be a positive integer (a Python or numpy int; a float,
    even 3.0, is a DomainError).  rel_tol and abs_tol must lie in
    (0, MAX_REL_TOL].  abs_tol is an absolute error floor on the scale-free
    (P, Q, L) that integrate and trace_flowline step, so it does not scale
    with the metric.  trace_flowline steps at rel_tol and abs_tol, integrate
    at INTEGRATE_TOL_FACTOR (0.3) times them.
    """

    r_squared: float = DEFAULT_R_SQUARED
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    collapse_eps: float = DEFAULT_COLLAPSE_EPS
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        _require_positive("r_squared", self.r_squared)
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            _require_positive(name, tol)
            if tol > MAX_REL_TOL:
                raise DomainError(f"{name} must be at most {MAX_REL_TOL}, got {tol!r}")
        if not 0.0 < self.collapse_eps < 1.0:  # NaN fails too
            raise DomainError(f"collapse_eps must lie in (0, 1), got {self.collapse_eps!r}")
        if _require_count("max_steps", self.max_steps) < 1:
            raise DomainError(f"max_steps must be positive, got {self.max_steps}")


class Termination(Enum):
    COLLAPSED = "collapsed"
    MAX_STEPS = "max_steps"
    FAILED = "failed"  # only on the partial trajectory inside IntegrationFailureError


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped metric coefficients with the detected collapse time.

    Every row of ``coeffs`` is positive while collapse_eps w0 is a normal
    float (below it the last rows can underflow to 0).  ``times`` rises
    strictly unless a step's time span rounds to zero (at a collapse_eps of
    1e-300, say).  When terminated == COLLAPSED, collapse_time is at or past
    the final sample time.
    """

    times: np.ndarray
    coeffs: np.ndarray
    terminated: Termination
    collapse_time: float | None
    #: For sample_at: the stepper's _Run over the sorted coefficients, its
    #: time panels, the time scale, w0 and each sorted coefficient's column.
    _dense: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def sample_at(self, t) -> np.ndarray:
        """Coefficients at arbitrary times inside the covered span: a row's
        own time reads that stored row back, and any other time takes three
        Newton steps on sigma, inside the quadrature panel that holds it, on
        the integrator's 4th-order dense output."""
        if self._dense is None:
            raise DomainError("trajectory carries no dense output")
        try:
            t = np.asarray(t, dtype=float)
        except OverflowError:  # an int past the float range
            raise DomainError(f"requested time {t} outside the integrated span") from None
        times = self.times
        if not (np.all(t >= times[0]) and np.all(t <= times[-1])):  # NaN fails too
            raise DomainError("requested time outside the integrated span")
        row = np.searchsorted(times, t)
        stored = (times[row] == t)[..., None]
        run, (step, lo, width, ends), time_scale, w0, columns = self._dense
        # Times in units of 2^e, the least power of two above the time scale,
        # so that it times a step's sigma span neither underflows nor
        # overflows; scaling by a power of two is exact.
        e = math.frexp(time_scale)[1]
        t, ends = np.ldexp(t, -e), np.ldexp(ends, -e)
        # A time on a panel boundary belongs to the panel that starts there.
        j = np.minimum(np.searchsorted(ends, t, side="right"), len(ends) - 1)
        step, lo, width, t_lo = step[j], lo[j], width[j], np.where(j > 0, ends[j - 1], 0.0)
        share = (t - t_lo) / np.maximum(ends[j] - t_lo, sys.float_info.min)
        x = lo + width * np.minimum(np.maximum(share, 0.0), 1.0)  # the fraction of the step
        sigma = run.sigma
        scale = math.ldexp(time_scale, -e) * (sigma[1:] - sigma[:-1])[step]  # dt/dx = scale _rate
        start, quartic = run.states[step], run.quartic[step]
        lo_column, hi, tiny = lo[..., None], lo + width, sys.float_info.min
        for _ in range(3):
            part = x - lo
            frac = part[..., None] * _GL_NODES_AND_END
            frac += lo_column
            rate = _rate(start, quartic, frac)
            # The Newton step on t_lo + scale part (rate's nodes @ weights) - t,
            # in place where t is an array (a scalar t rebinds).
            error = scale * part
            error *= rate[..., :-1] @ _GL_WEIGHTS
            error += t_lo
            error -= t
            error /= np.maximum(scale * rate[..., -1], tiny)
            x -= error
            x = np.minimum(np.maximum(x, lo), hi)
        solved = _coeffs(_dense_at(start, quartic, x[..., None])[..., 0], w0, columns)
        return np.where(stored, self.coeffs[row], solved)

    def uniform_grid(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n equispaced samples spanning the trajectory, for an integer
        2 <= n < GRID_LIMIT (a float, even 3.0, is a DomainError).  Scaling R^2
        by 2^k scales them by exactly 2^k only while they stay normal floats."""
        n = _require_count("n", n)
        if n < 2:
            raise DomainError(f"grid needs at least 2 points, got {n}")
        if n >= GRID_LIMIT:
            raise DomainError(f"grid needs at most {GRID_LIMIT - 1} points, got {n}")
        ts = np.linspace(self.times[0], self.times[-1], n)
        return ts, self.sample_at(ts)


def rhs(m: MetricCoeffs, r_squared: float = DEFAULT_R_SQUARED) -> tuple[float, float, float]:
    """Time derivatives (du, dv, dw) of the metric coefficients: the paper's
    equations, the tests' oracle for the logit field that integrate steps
    (_field).  The bracket form -(4/R^2)[2 + (u^2 - v^2 - w^2)/(vw)] agrees
    to 1e-12 relative.  Degree 0 in (u, v, w): they are divided first by
    2^e, e the exponent of the largest, which is exact for normal floats."""
    _require_positive("r_squared", r_squared)
    e = math.frexp(max(m.u, m.v, m.w))[1]
    u, v, w = math.ldexp(m.u, -e), math.ldexp(m.v, -e), math.ldexp(m.w, -e)
    # m - u, m - v, m - w as geometry forms s - a, s - b, s - c: exactly
    # equivariant under input permutations, and without a rounded m, which
    # loses the digits of m - v at u = v >> w.
    qu, qv, qw = _excesses(u, v, w)
    k = -16.0 / r_squared
    return k * (qv * qw) / (v * w), k * (qu * qw) / (u * w), k * (qu * qv) / (u * v)


def _field(P: float, Q: float, L: float, direction: float) -> tuple[float, float, float]:
    """The stepper's scale-free field d(P, Q, L)/dsigma of the module
    docstring, at R^2 = 4 with k = 2 direction: R^2 enters only through the
    time scale w0 R^2/4.  An oracle: _initial_step takes the first step size
    from it, and the tests check the stepper's one-scalar stages and scipy's
    RK45 against it; the stages themselves carry only y."""
    k = 2.0 * direction
    y = 0.5 * (math.tanh(0.5 * Q) - math.tanh(0.5 * P))
    return k * (1.0 - y), k * (1.0 + y), -0.5 * k * (1.0 - y) * (1.0 + y)


def _logit(p: float, one: float = 1.0) -> float:
    try:
        return math.inf if p >= one else math.log(p / (one - p))
    except ValueError:  # the ratio underflows to 0
        raise DomainError(f"ratio {p!r}/{one!r} underflows to 0") from None


def _logistic(z: np.ndarray) -> np.ndarray:
    out = np.negative(z)
    np.logaddexp(0.0, out, out=out)
    return np.exp(np.negative(out, out=out), out=out)


def _coeffs(planes: np.ndarray, w0: float, columns=(0, 1, 2)) -> np.ndarray:
    """Rows (u, v, w) = w0 e^L (l(P), l(Q), 1) of the contiguous planes
    (P, Q, L) = planes[0], planes[1], planes[2], the sorted coefficient i
    put back in column columns[i] by three column writes."""
    rows = np.empty(planes.shape[1:] + (3,))
    scale = np.multiply(np.exp(planes[2]), w0, out=rows[..., columns[2]])
    tails = _logistic(planes[:2])
    np.multiply(scale, tails[0], out=rows[..., columns[0]])
    np.multiply(scale, tails[1], out=rows[..., columns[1]])
    return rows


def _dense_at(start: np.ndarray, quartic: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Planes (P, Q, L), shape (3,) + frac.shape, of the dense output at
    fractions frac[..., i] of a step, from its start row states[step] and
    quartic[step], which the caller gathers.  The powers x, x^2, x^2 x and
    x^2 x^2 are products: np.power calls pow for each element, which took a
    third to a half of this function's time on a 200 x 6 grid.  They are
    written in place: np.stack costs more per call.  The matmul's rows are
    copied into contiguous planes before the start is added, so that every
    later elementwise pass runs on whole planes (a transpose with its axes
    spelled out: np.moveaxis costs more per call than the copy)."""
    powers = np.empty(frac.shape + (4,))
    powers[..., 0] = frac
    x2 = np.multiply(frac, frac, out=powers[..., 1])
    np.multiply(x2, frac, out=powers[..., 2])
    np.multiply(x2, x2, out=powers[..., 3])
    axes = (frac.ndim, *range(frac.ndim))  # the component axis first
    at = (powers @ quartic).transpose(axes).copy()
    at += start[..., None, :].transpose(axes)
    return at


def _rate(start: np.ndarray, quartic: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """(dt/dsigma)/w0 = e^L l(P) l(Q) on the dense output, as in _dense_at.

    l(z) = e^min(z, 0)/(1 + e^-|z|), so the rate is
    e^(L + min(P, 0) + min(Q, 0)) / ((1 + e^-|P|)(1 + e^-|Q|)): one exp over
    the (P, Q) block and one over the sum, with no log.  P or Q at +inf (the
    turtle edge, the round sphere) has the factor 1.  The sum can exceed the
    log of the rate by at most 2 ln 2, so the exp overflows only for L above
    about 708, far past any L the stepper reaches: L <= 0 forward, and a few
    tens at most backward (32 over 1,530 backward branches).  The result is
    the L plane, a contiguous frac-shaped array, the layout of the matmul
    operand that the callers' quadrature takes.
    """
    at = _dense_at(start, quartic, frac)
    pq, rate = at[:2], at[2]
    tails = np.abs(pq)
    np.exp(np.negative(tails, out=tails), out=tails)
    tails += 1.0
    np.minimum(pq, 0.0, out=pq)
    rate += pq[0]
    rate += pq[1]
    np.exp(rate, out=rate)
    tails[0] *= tails[1]
    rate /= tails[0]
    return rate


#: Five-point Gauss-Legendre rule on [0, 1]: nodes and weights.
_GL_OUTER, _GL_INNER = (math.sqrt(5.0 + s * math.sqrt(40.0 / 7.0)) / 6.0 for s in (1.0, -1.0))
_GL_NODES = np.array((0.5 - _GL_OUTER, 0.5 - _GL_INNER, 0.5, 0.5 + _GL_INNER, 0.5 + _GL_OUTER))
_GL_WEIGHTS = np.array([(322.0 + s * 13.0 * math.sqrt(70.0)) / 1800.0 if s else 64.0 / 225.0
                        for s in (-1.0, 1.0, 0.0, 1.0, -1.0)])
#: The nodes and the panel's end, where sample_at's Newton steps take the rate.
_GL_NODES_AND_END = np.append(_GL_NODES, 1.0)
#: Powers of the step fraction in a dense-output quartic, which are also
#: the weights that give its derivative at the step's end.
_POWERS = np.array((1.0, 2.0, 3.0, 4.0))

#: The time quadrature splits a step into panels over which ln(dt/dsigma)
#: changes by at most about this much.
PANEL_LOG_RATE = 0.5


def _time_scale(w0: float, r_squared: float) -> float:
    time_scale = w0 * (0.25 * r_squared)  # for _time_panels, checked where it is formed
    if not sys.float_info.min <= time_scale <= sys.float_info.max:  # NaN fails too
        raise DomainError(f"flow time scale w0 R^2/4 = {time_scale!r} is not a normal float")
    return time_scale


def _time_panels(runs):
    """The integral of time_scale e^g, e^g = _rate, over the dense output of
    each (run, time_scale) of runs: per run, the quadrature panels (each
    one's step, its start and width as fractions of that step, and the time
    at its end) and the time of every row.

    Steps span up to 10 in sigma where the field is nearly constant (along
    the snake edge, say), and e^g changes by up to e^9 within one.  So each
    step is split into m = ceil(h max|g'| / PANEL_LOG_RATE) equal panels
    with the five-point rule on each.  |h g'| is at most
    h (|dL| + l(-P) |dP| + l(-Q) |dQ|) at the larger of the step's ends (the
    signed sum can vanish where its terms do not).  Panels a hundred times
    finer move the times by at most 2e-14 relative, the rounding of their
    longer sums.

    One _rate call takes the panels of all runs, their rows joined by a
    dummy step of zero dense output (one panel, which no run sums); each run
    sums its own from 0, so its panels and times are a call's on it alone.
    """
    states = np.concatenate([run.states for run, _ in runs])
    quartic = np.concatenate([q for r, _ in runs for q in (np.zeros((1, 4, 3)), r.quartic)][1:])
    tail = _logistic(np.negative(states[:, :2].T, order="C"))
    # The bound at the steps' starts and at their ends, over the planes of
    # |dP|, |dQ|, |dL|: rates[0] at the starts, rates[1] at the ends.
    rates = np.empty((2, 3, len(quartic)))
    np.abs(quartic[:, 0, :].T, out=rates[0])
    np.abs((_POWERS @ quartic).T, out=rates[1])
    rates[0, :2] *= tail[:, :-1]
    rates[1, :2] *= tail[:, 1:]
    rates[:, 0] += rates[:, 1]
    rates[:, 0] += rates[:, 2]
    change = np.maximum(rates[0, 0], rates[1, 0], out=rates[0, 0])
    change /= PANEL_LOG_RATE
    m = np.maximum(np.ceil(change, out=change), 1.0, out=change).astype(int)
    step = np.repeat(np.arange(len(m)), m)
    width = 1.0 / m[step]
    last = np.cumsum(m)  # one past each step's last panel
    start = (np.arange(len(step)) - (last - m)[step]) * width
    frac = width[:, None] * _GL_NODES
    frac += start[:, None]
    rate = _rate(states[step], quartic[step], frac)
    sigma = np.concatenate([run.sigma for run, _ in runs])
    spans = (sigma[1:] - sigma[:-1])[step]
    parts = spans * width * (rate @ _GL_WEIGHTS)
    bounds, timed, first = [0, *last.tolist()], [], 0
    for run, time_scale in runs:
        end = first + len(run.quartic)
        lo, hi = bounds[first], bounds[end]
        ends = time_scale * np.cumsum(parts[lo:hi])
        timed.append(((step[lo:hi] - first, start[lo:hi], width[lo:hi], ends),
                      np.concatenate([[0.0], ends[last[first:end] - (lo + 1)]])))
        first = end + 1
    return timed


#: Shampine's dense output for the Dormand-Prince pair: row s weights stage
#: k1, k3, k4, k5, k6, k7 (k2 has no weight), column j the power x^(j+1).
_DENSE = np.array((
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
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)))

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


def _scaled_rms(values, scales) -> float:
    # The stepper's norm of values/scales.  A component at infinity (infinite
    # scale) counts as zero, as it does in the stepper, and squares that
    # overflow are avoided through hypot.
    a, b, c = (0.0 if math.isinf(s) else v / s for v, s in zip(values, scales))
    norm = math.sqrt((a * a + b * b + c * c) / 3.0)
    return norm if norm < math.inf else math.hypot(a, b, c) / math.sqrt(3.0)


def _initial_step(y, direction, rel_tol, abs_tol) -> float:
    # Hairer, Norsett and Wanner, Solving ODEs I, II.4, for an error
    # estimator of order 4 on an unbounded interval, on the R^2 = 4 field.
    scales = [abs_tol + abs(yi) * rel_tol for yi in y]
    f = _field(*y, direction)
    d0 = _scaled_rms(y, scales)
    d1 = _scaled_rms(f, scales)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:  # d1 overflowed even through hypot
        h0 = 1e-6
    f1 = _field(y[0] + h0 * f[0], y[1] + h0 * f[1], y[2] + h0 * f[2], direction)
    d2 = _scaled_rms([a - b for a, b in zip(f1, f)], scales) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100.0 * h0, h1)
    return h if h > 0.0 else h0  # h1 is 0 when a norm overflowed


def _quartic_at(y_old, c, x: float) -> tuple[float, float, float]:
    (P, Q, L), ((P1, Q1, L1), (P2, Q2, L2), (P3, Q3, L3), (P4, Q4, L4)) = y_old, c
    return (P + x * (P1 + x * (P2 + x * (P3 + x * P4))),
            Q + x * (Q1 + x * (Q2 + x * (Q3 + x * Q4))),
            L + x * (L1 + x * (L2 + x * (L3 + x * L4))))


class _Run(NamedTuple):
    """A stepper run from sigma = 0: sigma (n+1,), rows (P, Q, L) (n+1, 3),
    their dense output (n, 4, 3), the end (None where the margin stopped
    the run, else Termination.MAX_STEPS or FAILED) and FAILED's message."""

    sigma: np.ndarray
    states: np.ndarray
    quartic: np.ndarray
    end: Termination | None
    message: str | None


def _dormand_prince(y0: tuple[float, float, float], direction: float, rel_tol: float,
                    abs_tol: float, max_steps: int,
                    margin: Callable[[float, float, float], float]) -> _Run:
    """Step the field of the module docstring at R^2 = 4, k = 2 direction,
    from y0 = (P, Q, L) at sigma = 0 until margin(P, Q, L) is no longer
    positive; a start where it is not takes no step and gives one row, an
    empty quartic and end None.  direction is 1.0, or -1.0 for backward.

    Each stage carries only y = q - p: with S_i = sum_j a_ij y_j and the
    node c_i = sum_j a_ij, stage i sits at (P + hk (c_i - S_i),
    Q + hk (c_i + S_i)), and L, which never feeds back, is advanced once per
    step.  The error estimate and the dense output are RK45's, h sum_j e_j
    k_j over the stage derivatives k (1 - y), k (1 + y), -(k/2)(1 - y)(1 + y)
    of _field, formed once per stage as m_j = 1 - y_j and p_j = 1 + y_j, so
    the steps are RK45's to rounding.  A stage takes tanh of P/2 + (hk/2)
    (c_i - S_i), which is 0.5 (P + hk (c_i - S_i)) bit for bit: the stage
    arguments are normal floats or +-inf, on which halving is exact.  An
    accepted step's m_7, p_7 and m_7 p_7 are the next step's m_1, p_1 and
    m_1 p_1 (FSAL).  A step stores only its y_j: the dense output forms
    1 - y and 1 + y from them in numpy, just as rounded, and scales the step
    spans by k once, which is exact (a power of two).

    The run fails (end FAILED) once a rejected step falls below ten units
    in the last place of sigma, or would take sigma past the largest float
    (a guard against an endless retry).  The crossing is localized on the
    crossing step's quartic to a few units in the last place of sigma, and
    the last row is taken on the nonpositive side.
    """
    g_new = margin(*y0)
    P, Q, L = y0
    aP, aQ, aL = abs(P), abs(Q), abs(L)
    k = 2.0 * direction
    tanh, sqrt, ulp = math.tanh, math.sqrt, math.ulp
    h_abs = _initial_step(y0, direction, rel_tol, abs_tol)
    y1 = 0.5 * (tanh(0.5 * Q) - tanh(0.5 * P))
    m1, p1, mp1 = 1.0 - y1, 1.0 + y1, (1.0 - y1) * (1.0 + y1)
    t = 0.0
    times = [t]
    states = [P, Q, L]
    stages = []
    end, message = (Termination.MAX_STEPS if g_new > 0.0 else None), None
    for _ in range(max_steps if g_new > 0.0 else 0):
        min_step = 10.0 * ulp(t)
        h_abs = min_step if h_abs < min_step else h_abs
        hP, hQ = 0.5 * P, 0.5 * Q
        rejected = False
        while True:
            t_new = t + h_abs
            h = t_new - t
            hk = h * k
            hh = 0.5 * hk
            s = 1 / 5 * y1
            y2 = 0.5 * (tanh(hQ + hh * (1 / 5 + s)) - tanh(hP + hh * (1 / 5 - s)))
            s = 3 / 40 * y1 + 9 / 40 * y2
            y3 = 0.5 * (tanh(hQ + hh * (3 / 10 + s)) - tanh(hP + hh * (3 / 10 - s)))
            s = 44 / 45 * y1 - 56 / 15 * y2 + 32 / 9 * y3
            y4 = 0.5 * (tanh(hQ + hh * (4 / 5 + s)) - tanh(hP + hh * (4 / 5 - s)))
            s = (19372 / 6561 * y1 - 25360 / 2187 * y2 + 64448 / 6561 * y3
                 - 212 / 729 * y4)
            y5 = 0.5 * (tanh(hQ + hh * (8 / 9 + s)) - tanh(hP + hh * (8 / 9 - s)))
            s = (9017 / 3168 * y1 - 355 / 33 * y2 + 46732 / 5247 * y3 + 49 / 176 * y4
                 - 5103 / 18656 * y5)
            y6 = 0.5 * (tanh(hQ + hh * (1.0 + s)) - tanh(hP + hh * (1.0 - s)))
            s = (35 / 384 * y1 + 500 / 1113 * y3 + 125 / 192 * y4 - 2187 / 6784 * y5
                 + 11 / 84 * y6)
            Pn = P + hk * (1.0 - s)
            Qn = Q + hk * (1.0 + s)
            y7 = 0.5 * (tanh(0.5 * Qn) - tanh(0.5 * Pn))
            # Three names at most: CPython builds a tuple for a longer assignment.
            m3, m4, m5 = 1.0 - y3, 1.0 - y4, 1.0 - y5
            m6, m7 = 1.0 - y6, 1.0 - y7
            p3, p4, p5 = 1.0 + y3, 1.0 + y4, 1.0 + y5
            p6, p7 = 1.0 + y6, 1.0 + y7
            mp3, mp4, mp5 = m3 * p3, m4 * p4, m5 * p5
            mp6, mp7 = m6 * p6, m7 * p7
            Ln = L - hh * (35 / 384 * mp1 + 500 / 1113 * mp3 + 125 / 192 * mp4
                           - 2187 / 6784 * mp5 + 11 / 84 * mp6)
            # Difference of the embedded 4th- and 5th-order solutions, over
            # the stage derivatives as RK45 forms it.  For P and Q it equals
            # -+hk sum e_j y_j, but where the estimate is rounding noise (the
            # first steps) that form rounds differently and the steps drift
            # off RK45's.  eL is negated: only its square enters the norm.
            eP = hk * (-71 / 57600 * m1 + 71 / 16695 * m3 - 71 / 1920 * m4
                       + 17253 / 339200 * m5 - 22 / 525 * m6 + 1 / 40 * m7)
            eQ = hk * (-71 / 57600 * p1 + 71 / 16695 * p3 - 71 / 1920 * p4
                       + 17253 / 339200 * p5 - 22 / 525 * p6 + 1 / 40 * p7)
            eL = hh * (-71 / 57600 * mp1 + 71 / 16695 * mp3 - 71 / 1920 * mp4
                       + 17253 / 339200 * mp5 - 22 / 525 * mp6 + 1 / 40 * mp7)
            aPn, aQn, aLn = abs(Pn), abs(Qn), abs(Ln)
            eP /= abs_tol + (aPn if aPn > aP else aP) * rel_tol
            eQ /= abs_tol + (aQn if aQn > aQ else aQ) * rel_tol
            eL /= abs_tol + (aLn if aLn > aL else aL) * rel_tol
            error = sqrt((eP * eP + eQ * eQ + eL * eL) / 3.0)
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else SAFETY * error ** -0.2
                factor = factor if factor < MAX_FACTOR else MAX_FACTOR
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error ** -0.2)
            rejected = True
            if h_abs < min_step or t_new == math.inf:  # NaN estimates; h_abs would stay inf
                break
        if not error < 1.0:  # the step failed
            end = Termination.FAILED
            message = ("Required step takes sigma past the largest float." if t_new == math.inf
                       else "Required step size is less than spacing between numbers.")
            break
        stages += (y1, y3, y4, y5, y6, y7)
        t, y1 = t_new, y7
        m1, p1, mp1 = m7, p7, mp7
        P, Q, L = Pn, Qn, Ln
        aP, aQ, aL = aPn, aQn, aLn
        times.append(t)
        states += (P, Q, L)
        g_old, g_new = g_new, margin(P, Q, L)
        if g_new <= 0.0:
            end = None
            break

    sigma = np.fromiter(times, float, len(times))
    rows = np.fromiter(states, float, len(states)).reshape(-1, 3)
    y = np.fromiter(stages, float, len(stages)).reshape(-1, 6)
    derivatives = np.empty(y.shape + (3,))  # the stage derivatives over k
    m = np.subtract(1.0, y, out=derivatives[..., 0])
    p = np.add(1.0, y, out=derivatives[..., 1])
    np.multiply(np.multiply(-0.5, m, out=derivatives[..., 2]), p, out=derivatives[..., 2])
    quartic = np.matmul(_DENSE.T, derivatives) * (k * (sigma[1:] - sigma[:-1]))[:, None, None]
    if end is None and len(stages):
        t_old, t_new = times[-2], times[-1]
        h = t_new - t_old
        y_old, c = states[-6:-3], quartic[-1].tolist()

        def crossing(t: float) -> float:
            return margin(*_quartic_at(y_old, c, (t - t_old) / h))

        _, t_event = _bracket_crossing(crossing, t_old, t_new, g_old, g_new,
                                       2.0 * math.ulp(t_new))
        if t_event < t_new:
            r = (t_event - t_old) / h
            sigma[-1] = t_event
            rows[-1] = _quartic_at(y_old, c, r)
            quartic[-1] *= (r ** _POWERS)[:, None]
    return _Run(sigma, rows, quartic, end, message)

#: integrate steps at the params' tolerances times this.  A collapse time
#: carries the error of every step: at the FlowParams defaults the sweep
#: workload's dragons come out up to 2.7e-10 off, at 0.3 times 8.3e-11.
INTEGRATE_TOL_FACTOR = 0.3

#: A flow-line branch stops once the line is this close to a vertex of the
#: shape triangle (shapespace), and integrate once the shape is this close
#: to round.
VERTEX_DELTA = 1e-9

#: Every vertex stop is a threshold on one logistic tail,
#: t = l(-ROUND_LOGIT) = (VERTEX_DELTA - 2 ulp(2))/2: 1 - p <= t for the
#: round corner (2, 0), q <= t for the origin, p <= t and 1 - q <= t for
#: (1, 1), with p <= q.  At (2, 0) the exact distance is
#: sqrt(2) hypot(1 - p, 1 - q) <= 2 (1 - p), at the origin at most 2q and at
#: (1, 1) at most 2 max(p, 1 - q).  So the exact end lies within
#: VERTEX_DELTA - 2 ulp(2) of its vertex, and the reported (x, y) round by
#: less than that slack.  The round sphere's remaining time is exact there.
ROUND_LOGIT = math.log(2.0 / (VERTEX_DELTA - 2.0 * math.ulp(2.0)) - 1.0)


def _round_corner_margin(P: float, Q: float, L: float) -> float:
    """Positive until 1 - p and 1 - q are both at most l(-ROUND_LOGIT)."""
    return ROUND_LOGIT - (Q if Q < P else P)  # min(P, Q) without the call


def integrate(m0: MetricCoeffs, params: FlowParams | None = None) -> Trajectory:
    """Integrate the flow from m0 until collapse or max_steps.

    Steps the logit field from the sorted u <= v <= w0, (P, Q, L) =
    (ln(u/(w0 - u)), ln(v/(w0 - v)), 0), at INTEGRATE_TOL_FACTOR times the
    params' tolerances until w0 e^L has fallen to collapse_eps w0 and the
    shape is round, P >= ROUND_LOGIT (the tracer's round-corner stop); the
    collapse time adds the round sphere's remaining (R^2/4) mean(u, v, w).
    Scaling m0 by 2^k scales the rows and times by exactly 2^k, and scaling
    R^2 by 2^k the times, only while they stay normal floats.  Rows keep
    the input's column order.  Raises IntegrationFailureError (carrying
    the partial trajectory) on step-size underflow.
    """
    if params is None:
        params = FlowParams()
    y0 = m0.as_tuple()
    columns = tuple(sorted(range(3), key=y0.__getitem__))
    u, v, w0 = (y0[i] for i in columns)
    log_share = math.log(params.collapse_eps)

    def margin(P: float, Q: float, L: float) -> float:
        # max(L - log_share, _round_corner_margin(P, Q, L)) by the comparison max makes.
        share, corner = L - log_share, ROUND_LOGIT - (Q if Q < P else P)
        return corner if corner > share else share

    run = _dormand_prince(
        (_logit(u, w0), _logit(v, w0), 0.0), 1.0,
        INTEGRATE_TOL_FACTOR * params.rel_tol, INTEGRATE_TOL_FACTOR * params.abs_tol,
        params.max_steps, margin)
    coeffs = _coeffs(run.states.T.copy(), w0, columns)
    time_scale = _time_scale(w0, params.r_squared)
    [(panels, times)] = _time_panels([(run, time_scale)])
    collapse_time = None if run.end else float(times[-1]) + (
        0.25 * params.r_squared * sum(coeffs[-1, list(columns)].tolist()) / 3.0)
    trajectory = Trajectory(times, coeffs, run.end or Termination.COLLAPSED, collapse_time,
                            (run, panels, time_scale, w0, columns) if len(run.quartic) else None)
    if run.end is Termination.FAILED:
        raise IntegrationFailureError(f"integration failed: {run.message}", trajectory=trajectory)
    return trajectory


def isotropic_lambda(t: float, r_squared: float = DEFAULT_R_SQUARED) -> float:
    """Linear stretch factor sqrt(1 - 4t/R^2) of the round collapsing sphere."""
    _require_positive("r_squared", r_squared)
    if not t >= 0.0:  # NaN fails too
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
    T = _pair_time(Z, eps, 0.0)
    try:
        t = float(t)
    except OverflowError:  # an int past the float range, which compares exactly below
        pass
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
    the non-sphericity alpha in [0, ALPHA_CAP], alpha^2 = W/V - 1.  alpha = 0
    is the round sphere."""

    W: float
    alpha: float

    def __post_init__(self) -> None:
        _require_positive("W", self.W)
        if not 0.0 <= self.alpha <= 1.7976931348623157e308:  # NaN fails too
            raise DomainError(f"alpha must be nonnegative, got {self.alpha!r}")
        if self.alpha > ALPHA_CAP:  # below it, V and collapse_T are at most W
            raise DomainError(f"alpha must be at most {ALPHA_CAP}, got {self.alpha!r}")

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
    the non-sphericity beta in [0, BETA_CAP], beta^2 = 1 - U/V.  U and beta
    that put V or collapse_T past the largest float raise DomainError."""

    U: float
    beta: float

    def __post_init__(self) -> None:
        _require_positive("U", self.U)
        if not 0.0 <= self.beta <= BETA_CAP:  # NaN fails too
            raise DomainError(f"beta must lie in [0, {BETA_CAP}], got {self.beta!r}")
        if not self.V <= 1.7976931348623157e308 >= self.collapse_T:  # U near the largest float
            raise DomainError(f"turtle (U, beta) = ({self.U!r}, {self.beta!r}) has V or "
                              "collapse_T past the largest float")

    @classmethod
    def from_initial(cls, m0: MetricCoeffs) -> "TurtleSolution":
        """Build from turtle initial coefficients (U, V, V) with U <= V.
        A turtle thinner than BETA_CAP allows raises DomainError."""
        if m0.v != m0.w:
            raise DomainError(f"turtle initial data needs v = w, got ({m0.v}, {m0.w})")
        if m0.u > m0.v:
            raise DomainError(f"turtle initial data needs u <= v, got ({m0.u}, {m0.v})")
        return cls(U=m0.u, beta=math.sqrt(1.0 - m0.u / m0.v))

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
    Degree -1 in (u, v, w): it is taken on (u, v, w)/2^e, e the exponent of
    w, and divided by 2^e, which is exact for normal floats.  A rate past
    the largest float is inf.
    """
    _require_positive("r_squared", r_squared)
    u, v, w = m.as_tuple()
    if not (w >= v >= u):
        raise DomainError(f"x_rate needs u <= v <= w, got ({u}, {v}, {w})")
    e = math.frexp(w)[1]
    u, v, w = math.ldexp(u, -e), math.ldexp(v, -e), math.ldexp(w, -e)
    numerator = u * (w - v) ** 2 + u * u * (v - u) + v * (w * w - v * v)
    try:
        return math.ldexp((4.0 / r_squared) * 2.0 * numerator / (u * v * w * w), -e)
    except OverflowError:  # ldexp's, where the rate passes the largest float
        return math.inf
