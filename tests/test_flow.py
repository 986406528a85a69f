import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import danteflow.flow as flow_mod
from danteflow.errors import (CollapseReachedError, DomainError,
                              IntegrationFailureError)
from danteflow.flow import (FlowParams, Termination, Trajectory, integrate,
                            isotropic_lambda, rhs, x_rate)
from danteflow.geometry import MetricCoeffs


def rhs_bracket(u, v, w, r_squared):
    # Independent oracle: the bracket form of the flow equations.
    k = -4.0 / r_squared
    return (k * (2.0 + (u * u - v * v - w * w) / (v * w)),
            k * (2.0 + (v * v - u * u - w * w) / (u * w)),
            k * (2.0 + (w * w - u * u - v * v) / (u * v)))


def test_rhs_examples():
    assert rhs(MetricCoeffs(1, 1, 1), 4.0) == (-1.0, -1.0, -1.0)
    du, dv, dw = rhs(MetricCoeffs(0.5, 0.5, 1.0), 4.0)
    assert dw == -4.0      # -w^2/v^2
    assert dv == 0.0       # w/v - 2
    assert du == 0.0
    du, dv, dw = rhs(MetricCoeffs(0.5, 1.0, 1.0), 4.0)
    assert du == -0.25     # -u^2/v^2
    assert dv == -1.5      # u/v - 2
    assert dw == -1.5


def test_rhs_dual_form_identity():
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        u, v, w = rng.uniform(0.05, 5.0, size=3)
        r2 = float(rng.uniform(0.5, 8.0))
        got = rhs(MetricCoeffs(float(u), float(v), float(w)), r2)
        want = rhs_bracket(u, v, w, r2)
        # Individual components can cancel to zero; compare on the scale of
        # the derivative vector.
        scale = max(max(abs(g) for g in got), max(abs(e) for e in want))
        for g, e in zip(got, want):
            assert abs(g - e) <= 1e-12 * scale


def test_rhs_permutation_equivariance_exact():
    rng = np.random.default_rng(29)
    for _ in range(300):
        uvw = tuple(float(x) for x in rng.uniform(0.1, 4.0, size=3))
        base = rhs(MetricCoeffs(*uvw), 4.0)
        for perm in permutations(range(3)):
            permuted = rhs(MetricCoeffs(*(uvw[i] for i in perm)), 4.0)
            assert permuted == tuple(base[i] for i in perm)


def test_rhs_rejects_bad_r_squared():
    with pytest.raises(DomainError):
        rhs(MetricCoeffs(1, 1, 1), 0.0)


def test_integrate_isotropic():
    traj = integrate(MetricCoeffs(1, 1, 1))
    assert traj.terminated is Termination.COLLAPSED
    assert traj.collapse_time == pytest.approx(1.0, abs=1e-6)
    for t, (u, v, w) in zip(traj.times, traj.coeffs):
        assert abs(u - (1.0 - t)) < 1e-9
        assert u == v == w


def test_integrate_snake_collapse_time():
    traj = integrate(MetricCoeffs(0.5, 0.5, 1.0))
    assert traj.collapse_time == pytest.approx(0.25 + math.pi / 8.0, abs=1e-6)


def test_integrate_turtle_collapse_time():
    # (U, beta) = (0.75, 0.5); frozen from a 40-digit closed-form evaluation.
    traj = integrate(MetricCoeffs(0.75, 1.0, 1.0))
    assert traj.collapse_time == pytest.approx(0.9119796082505411, abs=1e-5)


def test_trajectory_invariants():
    traj = integrate(MetricCoeffs(0.4, 0.7, 1.3))
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.coeffs > 0)
    assert traj.terminated is Termination.COLLAPSED
    assert traj.collapse_time >= traj.times[-1]
    assert len(traj) == len(traj.times)
    assert np.min(traj.coeffs[-1]) <= 1e-9 * (1 + 1e-6)


def test_trajectory_dense_output():
    traj = integrate(MetricCoeffs(1, 1, 1))
    ts, grid = traj.uniform_grid(50)
    assert len(ts) == 50 and grid.shape == (50, 3)
    assert_allclose(grid[:, 0], 1.0 - ts, atol=1e-9)
    mid = traj.sample_at(0.5 * traj.times[-1])
    assert mid.shape == (3,)
    with pytest.raises(DomainError):
        traj.sample_at(traj.times[-1] + 1.0)
    with pytest.raises(DomainError):
        traj.uniform_grid(1)


def test_sample_at_returns_the_rows():
    # Newton on sigma in the quadrature panel that holds each time lands
    # on the steps themselves at the step times.
    for m0 in (MetricCoeffs(0.3, 0.6, 1.2), MetricCoeffs(2.0, 0.02, 1.0),
               MetricCoeffs(0.5, 0.5, 1.0), MetricCoeffs(0.75, 1.0, 1.0)):
        traj = integrate(m0)
        w0 = max(m0.as_tuple())
        assert_allclose(traj.sample_at(traj.times), traj.coeffs, rtol=0.0, atol=1e-12 * w0)
        assert traj.sample_at(float(traj.times[1])).shape == (3,)


def test_integrate_validates_collapse_eps():
    with pytest.raises(DomainError):
        integrate(MetricCoeffs(1e-10, 1.0, 1.0))
    with pytest.raises(DomainError):
        integrate(MetricCoeffs(1, 1, 1), FlowParams(collapse_eps=2.0))


def test_integrate_max_steps():
    traj = integrate(MetricCoeffs(1, 1, 1), FlowParams(max_steps=2))
    assert traj.terminated is Termination.MAX_STEPS
    assert traj.collapse_time is None
    assert len(traj) == 3  # initial sample plus two steps


def failing_field(P, Q, L, r_squared):
    # NaN past L = 1/2: every step across it is rejected until the step
    # size underflows, before any event.
    return 1.0, 1.0, (math.nan if L > 0.5 else 1.0)


def test_integration_failure_carries_partial_trajectory(monkeypatch):
    monkeypatch.setattr(flow_mod, "_field", failing_field)
    with pytest.raises(IntegrationFailureError) as excinfo:
        integrate(MetricCoeffs(1, 1, 1), FlowParams(max_steps=100_000))
    partial = excinfo.value.trajectory
    assert isinstance(partial, Trajectory)
    assert partial.terminated is Termination.FAILED
    assert len(partial) >= 1


def test_tiny_collapse_eps_collapses_with_positive_rows():
    # The rows are w0 e^L (l(P), l(Q), 1), positive by construction, so a
    # collapse_eps far below the coefficients' rounding still collapses.
    for m0, eps, T, rel in ((MetricCoeffs(1, 1, 1), 1e-300, 1.0, 1e-15),
                            (MetricCoeffs(0.5, 0.5, 1.0), 1e-16, 0.25 + math.pi / 8, 1e-10)):
        traj = integrate(m0, FlowParams(collapse_eps=eps))
        assert traj.terminated is Termination.COLLAPSED
        assert np.all(traj.coeffs > 0.0)
        assert np.all(np.diff(traj.times) >= 0.0)
        assert traj.coeffs[-1].min() <= eps * (1 + 1e-6)
        assert traj.collapse_time == pytest.approx(T, rel=rel, abs=0.0)
        assert_allclose(traj.sample_at(traj.times), traj.coeffs, rtol=0.0, atol=1e-12)


def test_ordering_preservation():
    rng = np.random.default_rng(31)
    for _ in range(20):
        vals = np.sort(rng.uniform(0.2, 2.0, size=3))
        traj = integrate(MetricCoeffs(*map(float, vals)))
        assert np.all(traj.coeffs[:, 0] <= traj.coeffs[:, 1] + 1e-10)
        assert np.all(traj.coeffs[:, 1] <= traj.coeffs[:, 2] + 1e-10)


def test_subspace_preservation():
    snake = integrate(MetricCoeffs(0.5, 0.5, 1.0))
    gap = np.abs(snake.coeffs[:, 0] - snake.coeffs[:, 1])
    assert np.all(gap <= 1e-9 * snake.coeffs[:, 2])

    turtle = integrate(MetricCoeffs(0.6, 1.1, 1.1))
    gap = np.abs(turtle.coeffs[:, 1] - turtle.coeffs[:, 2])
    assert np.all(gap <= 1e-9 * turtle.coeffs[:, 2])


coefficient = st.floats(min_value=1e-3, max_value=1.0)


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient)
def test_permutation_invariance(u, v, w):
    # integrate sorts the coefficients and steps the same field whatever
    # their order, so a permuted input gives the same collapse time and
    # the same rows, permuted.
    base = integrate(MetricCoeffs(u, v, w))
    for perm in permutations(range(3)):
        uvw = (u, v, w)
        traj = integrate(MetricCoeffs(*(uvw[i] for i in perm)))
        assert traj.collapse_time == base.collapse_time
        assert np.array_equal(traj.times, base.times)
        assert np.array_equal(traj.coeffs, base.coeffs[:, list(perm)])


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient, st.floats(min_value=0.1, max_value=10.0))
def test_scale_covariance(u, v, w, lam):
    # The flow is homogeneous of degree 0, so scaling the metric by lambda
    # scales the collapse time by lambda (acceptance criterion 8's tolerance).
    base = integrate(MetricCoeffs(u, v, w)).collapse_time
    scaled = integrate(MetricCoeffs(lam * u, lam * v, lam * w)).collapse_time
    assert scaled == pytest.approx(lam * base, rel=1e-5, abs=0.0)


def test_min_coefficient_grows_then_collapses():
    # Thin-snake start (x < 1): the smallest coefficient rises first, yet
    # the flow still collapses in finite time.
    traj = integrate(MetricCoeffs(0.1, 0.12, 1.0))
    u = traj.coeffs[:, 0]
    assert np.max(u) > u[0]
    assert traj.terminated is Termination.COLLAPSED


def test_x_monotonicity_along_trajectory():
    # Projected coordinates are reliable down to min(u,v,w) ~ sqrt(abs_tol);
    # below that the division by w amplifies integrator noise past the
    # monotonicity increments.
    traj = integrate(MetricCoeffs(0.3, 0.6, 1.2))
    reliable = traj.coeffs.min(axis=1) >= 1e-6
    coeffs = traj.coeffs[reliable]
    x = (coeffs[:, 0] + coeffs[:, 1]) / coeffs[:, 2]
    dx = np.diff(x)
    assert np.all(dx >= 0)
    interior = x[:-1] < 2.0 - 1e-6
    assert np.all(dx[interior] > 0)


def test_isotropic_lambda():
    assert isotropic_lambda(0.0, 4.0) == 1.0
    assert isotropic_lambda(0.75, 4.0) == 0.5
    with pytest.raises(CollapseReachedError):
        isotropic_lambda(1.0, 4.0)
    with pytest.raises(DomainError):
        isotropic_lambda(-0.1, 4.0)


def test_x_rate_examples():
    assert x_rate(MetricCoeffs(0.7, 0.7, 0.7)) == 0.0
    assert x_rate(MetricCoeffs(0.5, 0.5, 1.0)) == pytest.approx(4.0, rel=1e-15, abs=0.0)
    assert x_rate(MetricCoeffs(0.5, 0.75, 1.0)) > 0.0
    # The rate scales like the flow itself, by 4/R^2.
    assert x_rate(MetricCoeffs(0.5, 0.5, 1.0), 8.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        x_rate(MetricCoeffs(1.0, 0.5, 0.75))


def test_x_rate_matches_projected_derivative():
    rng = np.random.default_rng(41)
    for _ in range(300):
        u, v, w = np.sort(rng.uniform(0.1, 3.0, size=3))
        m = MetricCoeffs(float(u), float(v), float(w))
        du, dv, dw = rhs(m, 4.0)
        expected = (du + dv) / w - (u + v) * dw / (w * w)
        assert x_rate(m) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_dragon_collapse_time_against_independent_solver():
    # Dragons have no closed form; cross-check the event localization and
    # the dense output with scipy's DOP853 on the bracket form of the flow.
    from scipy.integrate import solve_ivp

    m0 = MetricCoeffs(0.3, 0.6, 1.2)
    traj = integrate(m0)
    mine = traj.collapse_time

    eps = 1e-9

    def event(t, y):
        return float(np.min(y)) - eps

    event.terminal = True
    event.direction = -1
    ref = solve_ivp(lambda t, y: np.array(rhs_bracket(*y, 4.0)), (0.0, 1e3),
                    np.array(m0.as_tuple()), method="DOP853",
                    rtol=1e-12, atol=1e-14, events=event, dense_output=True)
    assert ref.t_events[0].size == 1
    t_event = float(ref.t_events[0][0])
    y_event = ref.y_events[0][0]
    i = int(np.argmin(y_event))
    slope_est = rhs_bracket(*y_event, 4.0)[i]
    t_ref = t_event - y_event[i] / slope_est
    assert mine == pytest.approx(t_ref, abs=1e-8)

    # The 4th-order dense output, relative to the initial largest coefficient
    # (every coefficient tends to zero at the end of the grid).
    ts = np.linspace(0.0, traj.times[-1], 50)
    assert_allclose(traj.sample_at(ts), ref.sol(ts).T, rtol=0.0,
                    atol=1e-9 * max(m0.as_tuple()))


def test_steps_follow_the_rk45_controller():
    # The stepper keeps the tableau, error norm and step-size rules of
    # scipy's RK45, so it takes the same steps up to rounding in the error
    # estimate; the last step is the collapse event, where the smallest
    # coefficient w0 e^L l(P) reaches collapse_eps.
    from scipy.integrate import RK45

    traj = integrate(MetricCoeffs(1.0, 0.1, 0.5))
    tol = flow_mod.INTEGRATE_TOL_FACTOR
    solver = RK45(lambda sigma, y: np.array(flow_mod._field(*y, 4.0)), 0.0,
                  np.array([math.log(0.1 / 0.9), 0.0, 0.0]), np.inf,
                  rtol=tol * 1e-10, atol=tol * 1e-12)
    ref = [0.0]
    while np.exp(solver.y[2]) / (1.0 + np.exp(-solver.y[0])) > 1e-9:
        solver.step()
        ref.append(solver.t)
    sigma = traj._dense[0]
    assert len(sigma) == len(ref)
    assert_allclose(sigma[:-1], ref[:-1], rtol=1e-7)
    assert ref[-2] < sigma[-1] <= ref[-1]


def test_flow_params_validation():
    with pytest.raises(DomainError):
        FlowParams(rel_tol=0.0)
    with pytest.raises(DomainError):
        FlowParams(abs_tol=-1.0)
    with pytest.raises(DomainError):
        FlowParams(collapse_eps=0.0)
    with pytest.raises(DomainError):
        FlowParams(max_steps=0)
    with pytest.raises(DomainError):
        FlowParams(r_squared=0.0)


def test_rel_tol_bound():
    # Past MAX_REL_TOL the controller no longer approximates: at rel_tol = 1
    # the thin dragon (0.01, 0.5, 1) collapses 54% early.
    with pytest.raises(DomainError):
        FlowParams(rel_tol=1.0)
    with pytest.raises(DomainError):
        FlowParams(rel_tol=math.nextafter(flow_mod.MAX_REL_TOL, 1.0))
    m0 = MetricCoeffs(0.3, 0.6, 1.2)
    loose = integrate(m0, FlowParams(rel_tol=flow_mod.MAX_REL_TOL)).collapse_time
    assert loose == pytest.approx(integrate(m0).collapse_time, rel=2e-3)
    FlowParams(abs_tol=1e300)  # abs_tol has no upper bound


def test_initial_step_is_positive_and_finite():
    # A zero component with a tiny abs_tol overflows the derivative norm, and
    # a component at infinity (the turtle edge in logit coordinates) has an
    # infinite scale; neither may give a zero, infinite or NaN first step.
    for y, abs_tol in (((0.3, 1.2, 0.0), 1e-160), ((0.3, 1.2, 0.0), 1e-310),
                       ((0.3, math.inf, 0.0), 1e-12), ((0.0, 0.0, 0.0), 1e-300)):
        h = flow_mod._initial_step(y, flow_mod._field(*y, 4.0), 4.0, 1e-10, abs_tol)
        assert 0.0 < h < math.inf


def _check_crossing(f, level, lo, hi, width):
    """Run _bracket_crossing on f - level, given its values at the ends, and
    check its contract: a bracket inside the given one, at most width wide,
    with f(lo) > level >= f(hi) (NaN on the high side), found within the
    evaluation budget."""
    assume(f(lo) > level and not f(hi) > level)
    evaluations = []

    def counted(x):
        evaluations.append(x)
        return f(x) - level

    a, b = flow_mod._bracket_crossing(counted, lo, hi, f(lo) - level, f(hi) - level,
                                      width)
    assert lo <= a < b <= hi
    assert b - a <= width
    assert f(a) > level
    assert not f(b) > level
    # At most two more points than bisection would take.
    assert len(evaluations) <= math.ceil(math.log2((hi - lo) / width)) + 2
    return a, b


interval_start = st.floats(min_value=-10.0, max_value=10.0)
interval_span = st.floats(min_value=1e-6, max_value=10.0)
root_fraction = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
width_exponent = st.floats(min_value=1.0, max_value=15.0)


def _width(lo, hi, digits):
    # (hi - lo) 10^-digits, but no finer than two float spacings at the
    # larger end, where the bracket could not shrink to it.
    return max((hi - lo) * 10.0 ** -digits, 2.0 * math.ulp(max(abs(lo), abs(hi))))


@settings(max_examples=200, deadline=None)
@given(interval_start, interval_span, root_fraction, width_exponent,
       st.floats(min_value=-1e3, max_value=1e3))
def test_bracket_crossing_linear(lo, span, fraction, digits, level):
    hi = lo + span
    root = lo + fraction * span
    _check_crossing(lambda x: level + (root - x), level, lo, hi, _width(lo, hi, digits))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), root_fraction, width_exponent)
def test_bracket_crossing_steep_exponential(log_rate, fraction, digits):
    # exp(-rate x) - delta on [0, 1]: at rate 1e3 the root sits on a slope
    # 1e3 times the secant's, at 1e-3 on an almost straight line.
    rate = 10.0 ** log_rate
    delta = math.exp(-rate * fraction)
    _check_crossing(lambda x: math.exp(-rate * x) - delta, 0.0, 0.0, 1.0,
                    10.0 ** -digits)


@settings(max_examples=200, deadline=None)
@given(interval_start, interval_span, root_fraction, width_exponent,
       st.integers(min_value=1, max_value=1000))
def test_bracket_crossing_step_function(lo, span, fraction, digits, steps):
    # Flat plateaus: f takes `steps` integer values across the interval and
    # falls from 1 to 0 exactly at the root.
    hi = lo + span
    root = lo + fraction * span
    a, b = _check_crossing(lambda x: math.ceil(steps * (root - x) / span), 0.0,
                           lo, hi, _width(lo, hi, digits))
    assert a < root <= b


@settings(max_examples=200, deadline=None)
@given(root_fraction, st.floats(min_value=0.0, max_value=12.0),
       st.integers(min_value=1, max_value=4))
def test_bracket_crossing_rounding_noise(fraction, log_offset, ulps):
    # (offset + (root - x)) - offset is monotone but rounded to multiples of
    # ulp(offset): near the root it is a staircase of plateaus wider than
    # the bracket is asked to be, as the stop margins are near a vertex.
    offset = 10.0 ** log_offset
    lo, hi = 1.0, 2.0
    root = lo + fraction
    _check_crossing(lambda x: (offset + (root - x)) - offset, 0.0, lo, hi,
                    ulps * math.ulp(hi))


@settings(max_examples=200, deadline=None)
@given(interval_start, interval_span, root_fraction, width_exponent)
def test_bracket_crossing_nan_past_root(lo, span, fraction, digits):
    # A NaN value counts as at most level, so NaN past the root is a crossing.
    hi = lo + span
    root = lo + fraction * span
    a, b = _check_crossing(lambda x: root - x if x < root else math.nan, 0.0,
                           lo, hi, _width(lo, hi, digits))
    assert a < root <= b
