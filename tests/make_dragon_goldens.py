"""Print the 30-digit dragon goldens of tests/test_dragon_goldens.py.

Dragons (u < v < w) have no closed form.  This script integrates the
scale-free flow with mpmath's Taylor-series solver (mp.odefun) at 30
digits, independently of the package.  With p = u/w, q = v/w, their logits
P, Q, L = ln(w/w0), tau = t/w0 and the time dsigma = dt w/(u v), at R^2 = 4
(k = 2):

    dP/dsigma = k (1 - y),   dQ/dsigma = k (1 + y),
    dL/dsigma = -(k/2)(1 - y^2),   dtau/dsigma = e^L l(P) l(Q),

with l the logistic function and y = l(Q) - l(P).  The solution is
continued in steps of 20 in sigma from sigma = 60 until w < 1e-26 w0 and
1 - p < 1e-7: past there the isotropic tail (R^2/4) mean(u, v, w) finishes
the collapse time T to better than 1e-32 w0.  Thin shapes get there late,
as their flow lines linger near the corner (1, 1).  The apex of the
flow line through (x, y) = (p + q, q - p) is where p^2 + q^2 = 1
(x^2 + y^2 = 2): mp.findroot on the Taylor solution, forward from starts
inside that circle and along the reversed field from starts past it.

First checks itself on the snake (0.5, 0.5, 1), whose T is 1/4 + pi/8.
Takes about a minute per shape:

    python tests/make_dragon_goldens.py          # all shapes
    python tests/make_dragon_goldens.py 0 3      # shapes 0 and 3 only
"""
import sys

from mpmath import mp

mp.dps = 30

#: Metric coefficients (u, v, w) across the sweep workload's strata.
DRAGONS = (
    (0.3, 0.6, 1.2),      # interior, x = 0.75
    (0.01, 0.5, 1.0),     # thin, near the degenerate edge
    (0.002, 0.8, 1.0),    # very thin
    (0.4, 0.41, 1.0),     # near the snake edge, x < 1
    (1.0, 1.5, 2.0),      # interior, x = 1.25
    (0.6, 0.999, 1.0),    # near the turtle edge
    (0.96, 0.985, 1.0),   # near round
    (0.05, 0.97, 1.0),    # near the top corner (1, 1)
)

SIGMA_START, SIGMA_STEP = 60, 20
K = 2  # 8/R^2 at R^2 = 4


def logistic(z):
    return 1 / (1 + mp.exp(-z))


def field(sign):
    def f(sigma, state):
        P, Q, L, _ = state
        lp, lq = logistic(P), logistic(Q)
        y = lq - lp
        return [sign * K * (1 - y), sign * K * (1 + y),
                -sign * K * (1 - y) * (1 + y) / 2, sign * mp.exp(L) * lp * lq]
    return f


def start(u, v, w):
    u, v, w = mp.mpf(u), mp.mpf(v), mp.mpf(w)
    return [mp.log(u / (w - u)), mp.log(v / (w - v)), mp.mpf(0), mp.mpf(0)]


def collapse_time(u, v, w):
    solution, sigma = mp.odefun(field(1), 0, start(u, v, w)), SIGMA_START
    P, Q, L, tau = solution(sigma)
    while L > -60 or logistic(-P) > mp.mpf(10) ** -7:
        sigma += SIGMA_STEP
        P, Q, L, tau = solution(sigma)
    tail = mp.exp(L) * (logistic(P) + logistic(Q) + 1) / 3
    return mp.mpf(w) * (tau + tail)


def apex(u, v, w):
    inside = (mp.mpf(u) ** 2 + mp.mpf(v) ** 2) / mp.mpf(w) ** 2 < 1
    solution = mp.odefun(field(1 if inside else -1), 0, start(u, v, w))

    def off_circle(sigma):
        P, Q, _, _ = solution(sigma)
        return logistic(P) ** 2 + logistic(Q) ** 2 - 1

    lo, step = mp.mpf(0), mp.mpf(1) / 20
    while (off_circle(lo + step) < 0) == inside:
        lo += step
    sigma = mp.findroot(off_circle, (lo, lo + step), solver="anderson")
    P, Q, _, _ = solution(sigma)
    p, q = logistic(P), logistic(Q)
    return p + q, q - p


def main(indices):
    snake = collapse_time(0.5, 0.5, 1.0)
    error = abs(snake - (mp.mpf(1) / 4 + mp.pi / 8))
    assert error < mp.mpf(10) ** -28, f"snake check off by {mp.nstr(error, 3)}"
    print(f"# snake (0.5, 0.5, 1): 1/4 + pi/8 to {mp.nstr(error, 3)}")
    print("DRAGON_GOLDENS = {")
    print("    # (u, v, w): (collapse time, (apex x, apex y))")
    for i in indices:
        u, v, w = DRAGONS[i]
        T = collapse_time(u, v, w)
        x, y = apex(u, v, w)
        print(f"    # T = {mp.nstr(T, 25)}, apex ({mp.nstr(x, 25)}, {mp.nstr(y, 25)})")
        print(f"    ({u!r}, {v!r}, {w!r}): ({float(T)!r}, ({float(x)!r}, {float(y)!r})),",
              flush=True)
    print("}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or range(len(DRAGONS)))
