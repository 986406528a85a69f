"""Reference values computed apart from the danteflow package.

Nothing here imports danteflow.  Each value comes from a formula or a
solver that the package does not use:

* snake and turtle collapse times from the paper's closed forms, evaluated
  with mpmath at 40 significant digits;
* the round sphere, which collapses at T = W R^2 / 4;
* any other shape, by a high-accuracy DOP853 integration of the bracket
  form du/dt = -(4/R^2)[2 + (u^2 - v^2 - w^2)/(vw)] (the package integrates
  the sigma-product form with RK45);
* Ricci eigenvalues from the same bracket form, R_i = -(du_i/dt)/(2 u_i),
  and principal curvatures from their pairwise sums;
* the classification boundaries as exact parabolas in the shape triangle.

mpmath and scipy are imported inside the functions that need them, so the
benchmark's worker process can use the cheap checks without paying for
those imports.
"""
from __future__ import annotations

import math

import numpy as np

R_SQUARED = 4.0

#: Principal curvatures and Ricci eigenvalues of (a, b, c) = (1, 1, 2),
#: a shape on the a + b = c line, at R^2 = 4.
KAPPA_112 = (1.0, 1.0, -1.0)
RICCI_112 = (0.0, 0.0, 2.0)

#: x-axis intercepts of the scalar-zero (y^2 = 2x - 1) and the
#: smallest-curvature-zero (y^2 = 3 - 2x) parabolas, and the abscissa of
#: the degenerate-Ricci line.
SCALAR_ZERO_INTERCEPT = 0.5
KAPPA_MIN_ZERO_INTERCEPT = 1.5
RICCI_DEGENERATE_X = 1.0

_DIGITS = 40


def snake_collapse_time(W: float, alpha: float, r_squared: float = R_SQUARED) -> float:
    """T = (W/2)(1/(1 + alpha^2) + atan(alpha)/alpha), times R^2/4."""
    import mpmath

    with mpmath.workdps(_DIGITS):
        w, a = mpmath.mpf(W), mpmath.mpf(alpha)
        tail = mpmath.atan(a) / a if a != 0 else mpmath.mpf(1)
        t = w / 2 * (1 / (1 + a * a) + tail)
        return float(t * mpmath.mpf(r_squared) / 4)


def turtle_collapse_time(U: float, beta: float, r_squared: float = R_SQUARED) -> float:
    """T = (U/2)(1/(1 - beta^2) + log((1 + beta)/(1 - beta))/(2 beta)), times R^2/4."""
    import mpmath

    with mpmath.workdps(_DIGITS):
        u, b = mpmath.mpf(U), mpmath.mpf(beta)
        tail = mpmath.log((1 + b) / (1 - b)) / (2 * b) if b != 0 else mpmath.mpf(1)
        t = u / 2 * (1 / (1 - b * b) + tail)
        return float(t * mpmath.mpf(r_squared) / 4)


def round_collapse_time(W: float, r_squared: float = R_SQUARED) -> float:
    """The round sphere u = v = w = W shrinks linearly and collapses at W R^2/4."""
    return W * r_squared / 4.0


def bracket_rates(u, v, w, r_squared: float = R_SQUARED):
    """(du/dt, dv/dt, dw/dt) in the bracket form; accepts scalars or arrays."""
    k = -4.0 / r_squared
    return (k * (2.0 + (u * u - v * v - w * w) / (v * w)),
            k * (2.0 + (v * v - u * u - w * w) / (u * w)),
            k * (2.0 + (w * w - u * u - v * v) / (u * v)))


def numeric_collapse_time(coeffs, r_squared: float = R_SQUARED) -> float:
    """Collapse time of any shape by DOP853 on the bracket form.

    The integration stops once the largest coefficient has shrunk to 1e-4
    of its start.  By then the shape is round to O(1e-8), every coefficient
    falls at the round rate 4/R^2, and the remaining time is the mean
    coefficient times R^2/4, with an error of order 1e-12 of the total.
    """
    from scipy.integrate import solve_ivp

    y0 = np.asarray(coeffs, dtype=float)
    stop = 1e-4 * float(y0.max())

    def rates(t, y):
        return bracket_rates(y[0], y[1], y[2], r_squared)

    def shrunk(t, y):
        return float(y.max()) - stop
    shrunk.terminal = True

    horizon = 2.0 * float(y0.max()) * r_squared  # well past any collapse
    sol = solve_ivp(rates, (0.0, horizon), y0, method="DOP853", rtol=1e-13,
                    atol=1e-18 * float(y0.max()), events=shrunk)
    if sol.status != 1:
        raise RuntimeError(f"reference integration did not reach the stop: {sol.message}")
    t_stop, y_stop = sol.t_events[0][0], sol.y_events[0][0]
    return float(t_stop + y_stop.mean() * r_squared / 4.0)


def metric_of_stretch(a, b, c):
    """Metric coefficients (u, v, w) = (1/(bc), 1/(ac), 1/(ab))."""
    return 1.0 / (b * c), 1.0 / (a * c), 1.0 / (a * b)


def ricci_of_metric(u, v, w, r_squared: float = R_SQUARED):
    """Ricci eigenvalues R_i = -(du_i/dt) / (2 u_i) from the bracket form."""
    du, dv, dw = bracket_rates(u, v, w, r_squared)
    return -du / (2.0 * u), -dv / (2.0 * v), -dw / (2.0 * w)


def kappas_of_ricci(r1, r2, r3):
    """Principal curvatures from R_11 = k2 + k3 and cyclically."""
    return (r2 + r3 - r1) / 2.0, (r1 + r3 - r2) / 2.0, (r1 + r2 - r3) / 2.0


def curvature_of_stretch(a, b, c, r_squared: float = R_SQUARED):
    """(kappas, riccis) of a stretched sphere, by way of its metric."""
    riccis = ricci_of_metric(*metric_of_stretch(a, b, c), r_squared)
    return kappas_of_ricci(*riccis), riccis


def triangle_xy(a, b, c):
    """Shape-triangle coordinates of the sorted triple."""
    lo, mid, hi = sorted((a, b, c))
    return (lo + mid) / hi, (mid - lo) / hi


def scalar_zero_residual(x, y):
    """Zero on the scalar-curvature-zero parabola y^2 = 2x - 1."""
    return y * y - (2.0 * x - 1.0)


def kappa_min_zero_residual(x, y):
    """Zero on the smallest-principal-curvature-zero parabola y^2 = 3 - 2x."""
    return y * y - (3.0 - 2.0 * x)


def apex_residual(x, y):
    """Zero on the circle x^2 + y^2 = 2 that holds every flow line's apex."""
    return x * x + y * y - 2.0


def rho_tau(x: float, y: float) -> tuple[float, float]:
    """Ricci-ratio chart rho = R22/R33, tau = R11/R33 in triangle coordinates."""
    return (x - 1.0) / (1.0 - y), (x - 1.0) / (1.0 + y)


def is_close(value: float, reference: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - reference) <= max(rel * abs(reference), abs_)
