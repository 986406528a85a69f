"""Closed-form snake/turtle solutions against frozen high-precision values.

Golden numbers were computed with 40-digit arithmetic directly from the
closed-form time formulas and rounded to the nearest double.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import danteflow.flow as flow_mod
from danteflow.flow import (SERIES_SWITCH, SnakeSolution, TurtleSolution,
                            snake_lambda_of_time, snake_profile,
                            snake_time_of_lambda, turtle_mu_of_time,
                            turtle_profile, turtle_time_of_mu)
from danteflow.geometry import MetricCoeffs

SNAKE_COLLAPSE = {
    (1.0, 0.25): 0.960545561547846,
    (1.0, 1.0): 0.6426990816987241,   # = 1/4 + pi/8
    (1.0, 4.0): 0.1951389726643864,
}
TURTLE_COLLAPSE = {
    (1.0, 0.25): 1.044158957099324,
    (1.0, 0.5): 1.2159728110007215,
    (1.0, 0.9): 3.4494786638035433,
    (0.75, 0.5): 0.9119796082505411,
}

#: Turtle times (U, beta, mu) -> t close to the start, where the terms of an
#: uncombined formula U[1/(2(1-b^2)) - mu/(2(1-b^2 mu^2)) + ...] cancel.
TURTLE_EARLY_TIME = {
    (1.0, 1e-6, 0.999999999): 9.999999717200685e-10,
    (1.0, 0.5, 0.999999999): 1.7777777263136035e-09,
    (0.75, 0.5, 0.995): 0.0066445550334338814,
}


def test_snake_collapse_goldens():
    for (W, alpha), expected in SNAKE_COLLAPSE.items():
        assert SnakeSolution(W, alpha).collapse_T == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert SnakeSolution(1.0, 1.0).collapse_T == pytest.approx(0.25 + math.pi / 8, rel=1e-15, abs=0.0)


def test_turtle_collapse_goldens():
    for (U, beta), expected in TURTLE_COLLAPSE.items():
        assert TurtleSolution(U, beta).collapse_T == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_snake_time_endpoints_and_goldens():
    s = SnakeSolution(1.0, 1.0)
    assert snake_time_of_lambda(s, 1.0) == 0.0
    assert snake_time_of_lambda(s, 0.0) == pytest.approx(s.collapse_T, rel=1e-15, abs=0.0)
    assert snake_time_of_lambda(s, 0.5) == pytest.approx(0.2108752771983211, rel=1e-14, abs=0.0)
    s = SnakeSolution(1.0, 0.25)
    assert snake_time_of_lambda(s, 0.25) == pytest.approx(0.7111943228788885, rel=1e-14, abs=0.0)


def test_turtle_time_endpoints_and_goldens():
    s = TurtleSolution(1.0, 0.5)
    assert turtle_time_of_mu(s, 1.0) == 0.0
    assert turtle_time_of_mu(s, 0.0) == pytest.approx(s.collapse_T, rel=1e-15, abs=0.0)
    assert turtle_time_of_mu(s, 0.5) == pytest.approx(0.6938933324510596, rel=1e-14, abs=0.0)
    s = TurtleSolution(1.0, 0.9)
    assert turtle_time_of_mu(s, 0.25) == pytest.approx(3.1906372350095444, rel=1e-14, abs=0.0)
    # abs=0: approx's default 1e-12 absolute floor would swamp rel at 1e-9.
    for (U, beta, mu), expected in TURTLE_EARLY_TIME.items():
        assert turtle_time_of_mu(TurtleSolution(U, beta), mu) == pytest.approx(
            expected, rel=1e-14, abs=0.0)


def test_time_profiles_are_strictly_decreasing():
    s = SnakeSolution(1.0, 2.0)
    lams = np.linspace(1.0, 0.0, 101)
    ts = [snake_time_of_lambda(s, float(l)) for l in lams]
    assert np.all(np.diff(ts) > 0)

    u = TurtleSolution(1.0, 0.8)
    mus = np.linspace(1.0, 0.0, 101)
    ts = [turtle_time_of_mu(u, float(m)) for m in mus]
    assert np.all(np.diff(ts) > 0)


def test_isotropic_reduction():
    # alpha = 0 and beta = 0 both reduce to t = scale * (1 - fraction).
    s = SnakeSolution(2.0, 0.0)
    assert s.collapse_T == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert snake_time_of_lambda(s, 0.25) == pytest.approx(1.5, rel=1e-14, abs=0.0)
    t = TurtleSolution(2.0, 0.0)
    assert t.collapse_T == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert turtle_time_of_mu(t, 0.25) == pytest.approx(1.5, rel=1e-14, abs=0.0)


def test_series_branch_matches_direct_formula():
    # Just below the series switch the direct atan/log evaluation is still
    # well conditioned, so both routes must agree tightly.
    W, alpha, lam = 1.3, 9.9e-7, 0.37
    t_series = snake_time_of_lambda(SnakeSolution(W, alpha), lam)
    a2 = alpha * alpha
    t_direct = 0.5 * W * ((1 - lam) * (1 - lam * a2) / ((1 + a2) * (1 + a2 * lam * lam))
                          + math.atan((1 - lam) * alpha / (1 + a2 * lam)) / alpha)
    assert t_series == pytest.approx(t_direct, rel=1e-13, abs=0.0)

    # The raw log form cancels catastrophically at tiny beta (the reason the
    # series branch exists); a log1p decomposition is the accurate oracle.
    U, beta, mu = 0.8, 9.9e-7, 0.62
    t_series = turtle_time_of_mu(TurtleSolution(U, beta), mu)
    b2 = beta * beta
    log_term = (math.log1p(beta) + math.log1p(-beta * mu)
                - math.log1p(-beta) - math.log1p(beta * mu))
    t_direct = U * (0.5 / (1 - b2) - 0.5 * mu / (1 - b2 * mu * mu)
                    + log_term / (4 * beta))
    assert t_series == pytest.approx(t_direct, rel=1e-13, abs=0.0)


def test_snake_profile():
    s = SnakeSolution(1.0, 1.0)
    assert snake_profile(s, 1.0) == (1.0, 0.5)
    w, v = snake_profile(s, 1e-8)
    assert w / v == pytest.approx(1.0, abs=1e-15)
    assert snake_profile(SnakeSolution(1.0, 0.0), 0.5) == (0.5, 0.5)


def test_snake_aspect_ratio_identity():
    # w/v = 1 + (alpha*lambda)^2 along the closed form; the lambda^2-only
    # form is its alpha = 1 specialization.
    for alpha in (0.25, 1.0, 4.0):
        s = SnakeSolution(1.0, alpha)
        for lam in (1.0, 0.6, 0.2, 0.04):
            w, v = snake_profile(s, lam)
            assert w / v == pytest.approx(1.0 + (alpha * lam) ** 2, rel=1e-14, abs=0.0)
    s = SnakeSolution(1.0, 1.0)
    for lam in (0.9, 0.5, 0.1):
        w, v = snake_profile(s, lam)
        assert w / v - 1.0 - lam * lam == pytest.approx(0.0, abs=1e-14)


def test_snake_small_w_asymptotics():
    # Near collapse T - t approaches w itself, with an O(w^3) defect.
    s = SnakeSolution(1.0, 1.0)
    for lam in (1e-2, 1e-3, 1e-4):
        w = s.W * lam
        defect = s.collapse_T - snake_time_of_lambda(s, lam) - w
        assert abs(defect) < w ** 3


def test_turtle_profile():
    s = TurtleSolution(0.75, 0.5)
    u, v = turtle_profile(s, 1.0)
    assert u == 0.75
    assert v == pytest.approx(1.0, rel=1e-15, abs=0.0)
    u, v = turtle_profile(s, 1e-8)
    assert u / v == pytest.approx(1.0, abs=1e-15)
    assert turtle_profile(TurtleSolution(1.0, 0.0), 0.5) == (0.5, 0.5)
    for mu in (1.0, 0.5, 0.1):
        u, v = turtle_profile(s, mu)
        assert u / v == pytest.approx(1.0 - (s.beta * mu) ** 2, rel=1e-14, abs=0.0)


def test_snake_inversion_round_trip():
    s = SnakeSolution(1.0, 1.0)
    assert snake_lambda_of_time(s, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert snake_lambda_of_time(s, s.collapse_T) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(43)
    for lam in rng.uniform(0.01, 0.99, size=100):
        t = snake_time_of_lambda(s, float(lam))
        back = snake_lambda_of_time(s, t, tol=1e-12)
        assert back == pytest.approx(lam, abs=2e-12)
        assert snake_time_of_lambda(s, back) == pytest.approx(t, abs=1e-11)
    # A tol below the spacing of floats ends the search at adjacent floats.
    t = snake_time_of_lambda(s, 0.3)
    assert snake_lambda_of_time(s, t, tol=1e-320) == pytest.approx(0.3, abs=1e-15)
    # A tol as wide as [0, 1] returns its midpoint without a search.
    assert snake_lambda_of_time(s, 0.3, tol=2.0) == 0.5


def test_turtle_inversion_round_trip():
    s = TurtleSolution(1.0, 0.5)
    assert turtle_mu_of_time(s, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert turtle_mu_of_time(s, s.collapse_T) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(47)
    for mu in rng.uniform(0.01, 0.99, size=100):
        t = turtle_time_of_mu(s, float(mu))
        back = turtle_mu_of_time(s, t, tol=1e-12)
        assert back == pytest.approx(mu, abs=2e-12)


#: Inversion tolerance of the round-trip properties (the functions' default).
INVERSION_TOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.one_of(st.floats(min_value=0.0, max_value=SERIES_SWITCH),
                 st.floats(min_value=0.0, max_value=10.0)),
       st.floats(min_value=0.0, max_value=1.0))
def test_snake_inversion_round_trip_property(big_w, alpha, lam):
    # Below SERIES_SWITCH the removable atan(z)/alpha term runs as a series.
    s = SnakeSolution(big_w, alpha)
    t = snake_time_of_lambda(s, lam)
    back = snake_lambda_of_time(s, t, tol=INVERSION_TOL)
    assert abs(back - lam) <= INVERSION_TOL
    assert (snake_time_of_lambda(s, min(back + INVERSION_TOL, 1.0)) <= t
            <= snake_time_of_lambda(s, max(back - INVERSION_TOL, 0.0)))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.one_of(st.floats(min_value=0.0, max_value=SERIES_SWITCH),
                 st.floats(min_value=0.0, max_value=0.99)),
       st.floats(min_value=0.0, max_value=1.0))
def test_turtle_inversion_round_trip_property(big_u, beta, mu):
    s = TurtleSolution(big_u, beta)
    t = turtle_time_of_mu(s, mu)
    back = turtle_mu_of_time(s, t, tol=INVERSION_TOL)
    assert abs(back - mu) <= INVERSION_TOL
    assert (turtle_time_of_mu(s, min(back + INVERSION_TOL, 1.0)) <= t
            <= turtle_time_of_mu(s, max(back - INVERSION_TOL, 0.0)))


def test_inversions_converge_superlinearly(monkeypatch):
    # Bisection took 41 _pair_time calls per inversion at tol = 1e-12: one
    # for the collapse time and 40 halvings.  Every inversion here also
    # costs the collapse time, which is the bracket's value at s = 0.
    calls = []
    pair_time = flow_mod._pair_time

    def counted(Z, eps, s):
        calls.append(s)
        return pair_time(Z, eps, s)

    def bisected(Z, eps, t, tol):
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if pair_time(Z, eps, mid) > t:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    monkeypatch.setattr(flow_mod, "_pair_time", counted)
    solutions = ([SnakeSolution(1.0, alpha) for alpha in (0.0, 0.5, *range(1, 11))]
                 + [TurtleSolution(1.0, beta) for beta in
                    (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)])
    counts = []
    for s in solutions:
        invert = snake_lambda_of_time if isinstance(s, SnakeSolution) else turtle_mu_of_time
        Z = s.W if isinstance(s, SnakeSolution) else s.U
        for k in range(21):
            t = min(s.collapse_T * k / 20, s.collapse_T)
            calls.clear()
            fraction = invert(s, t, tol=INVERSION_TOL)
            counts.append(len(calls))
            assert abs(fraction - bisected(Z, s._eps, t, INVERSION_TOL)) <= INVERSION_TOL
    counts.sort()
    assert sum(counts) / len(counts) <= 8.5
    assert counts[len(counts) * 9 // 10] <= 15
    assert counts[-1] <= 26


def test_from_initial_constructors():
    s = SnakeSolution.from_initial(MetricCoeffs(0.5, 0.5, 1.0))
    assert (s.W, s.alpha) == (1.0, 1.0)
    assert s.V == 0.5
    assert s.initial_coeffs == MetricCoeffs(0.5, 0.5, 1.0)
    t = TurtleSolution.from_initial(MetricCoeffs(0.75, 1.0, 1.0))
    assert (t.U, t.beta) == (0.75, 0.5)
    assert t.V == pytest.approx(1.0, rel=1e-15, abs=0.0)
