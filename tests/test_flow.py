import math
import sys
import warnings
from dataclasses import astuple
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import danteflow.flow as flow_mod
from conftest import edge_start
from danteflow.errors import DomainError, IntegrationFailureError
from danteflow.flow import (FlowParams, Termination, Trajectory, integrate,
                            isotropic_lambda, rhs, x_rate)
from danteflow.geometry import (MetricCoeffs, StretchFactors, curvature_summary,
                                metric_coeffs, ricci_eigenvalues, stretch_from_metric)
from danteflow.shapespace import ShapePoint, from_xy, trace_flowline


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
    # Degree 0, bit for bit: at 2^k (0.3, 0.6, 1.2) the products lost digits
    # (k = -520), divided by zero (k = -540) or overflowed to NaN (k = 520).
    base = rhs(MetricCoeffs(0.3, 0.6, 1.2), 4.0)
    for k in range(-1020, 1020):
        assert rhs(MetricCoeffs(*(math.ldexp(x, k) for x in (0.3, 0.6, 1.2))), 4.0) == base, k
    # A thin shape at unit scale: v w underflowed to 0 (ZeroDivisionError).
    # du lies past the float range.
    du, dv, dw = rhs(MetricCoeffs(1.0, 1e-200, 1e-200), 4.0)
    assert du == -math.inf
    assert abs(dv - 1e200) <= 2.0 * math.ulp(1e200) and dw == dv


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


def test_integrate_isotropic():
    traj = integrate(MetricCoeffs(1, 1, 1))
    assert traj.terminated is Termination.COLLAPSED
    assert traj.collapse_time == pytest.approx(1.0, abs=1e-6)
    for t, (u, v, w) in zip(traj.times, traj.coeffs):
        assert abs(u - (1.0 - t)) < 1e-9
        assert u == v == w


def test_trajectory_invariants():
    traj = integrate(MetricCoeffs(0.4, 0.7, 1.3))
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.coeffs > 0)
    assert traj.terminated is Termination.COLLAPSED
    assert traj.collapse_time >= traj.times[-1]
    assert len(traj) == len(traj.times)
    # integrate stops where the largest coefficient has fallen to
    # collapse_eps times its initial value.
    assert np.max(traj.coeffs[-1]) == pytest.approx(1e-9 * 1.3, rel=1e-12, abs=0.0)


def test_trajectory_dense_output():
    traj = integrate(MetricCoeffs(1, 1, 1))
    ts, grid = traj.uniform_grid(50)
    assert len(ts) == 50 and grid.shape == (50, 3)
    assert_allclose(grid[:, 0], 1.0 - ts, atol=1e-9)
    mid = traj.sample_at(0.5 * traj.times[-1])
    assert mid.shape == (3,)


def _rate_by_logaddexp(P, Q, L):
    # The earlier form of the rate e^L l(P) l(Q), with l(z) = e^-log(1 + e^-z).
    return np.exp(L - np.logaddexp(0.0, -P) - np.logaddexp(0.0, -Q))


# L ranges over what the stepper reaches: from the log of the smallest
# collapse_eps (about -745) up to 0 forward, and a few tens on a backward
# branch.  Past L = 708 _rate's exp overflows before its division.
@settings(max_examples=300, deadline=None)
@given(st.floats(-745.0, 745.0), st.one_of(st.floats(-745.0, 745.0), st.just(math.inf)),
       st.floats(-745.0, 100.0))
@example(0.5, math.inf, 0.0)  # the turtle edge
@example(math.inf, math.inf, -20.0)  # the round sphere
def test_rate_matches_its_logaddexp_form(P, Q, L):
    # Where the logaddexp form raises no RuntimeWarning, _rate raises none
    # either, and the two differ by the rounding of an exponent of at most
    # 3 x 745 (ulp 4.5e-13) plus a few units in the last place.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            expected = _rate_by_logaddexp(P, Q, L)
        except RuntimeWarning:
            assume(False)
        rate = flow_mod._rate(np.array([[P, Q, L]]), np.zeros((1, 4, 3)), np.array([[0.5]]))
    assert rate.shape == (1, 1)
    assert rate[0, 0] == pytest.approx(expected, rel=2e-12, abs=1e-300)


def test_sample_at_returns_the_rows():
    # A row's own time reads the stored row back, the collapse row included:
    # Newton's solution there was up to 5.3e-8 relative off on (0.1, 0.6, 1.2).
    for m0 in (MetricCoeffs(0.3, 0.6, 1.2), MetricCoeffs(2.0, 0.02, 1.0),
               MetricCoeffs(0.5, 0.5, 1.0), MetricCoeffs(0.75, 1.0, 1.0),
               metric_coeffs(StretchFactors(0.1, 0.6, 1.2))):
        traj = integrate(m0)
        assert_array_equal(traj.sample_at(traj.times), traj.coeffs)
        assert_array_equal(traj.sample_at(float(traj.times[-1])), traj.coeffs[-1])
        assert traj.sample_at(float(traj.times[1])).shape == (3,)


def test_sample_at_scales_with_a_tiny_metric():
    # integrate(2^-1000 m) is 2^-1000 integrate(m) exactly, and so is its
    # dense output: w0 times a step's sigma span, formed at the metric's own
    # scale, went subnormal there and put the last row 0.5 relative off.
    m0 = MetricCoeffs(0.5, 1.0, 1.5)
    base = integrate(m0)
    tiny = integrate(MetricCoeffs(*(math.ldexp(x, -1000) for x in m0.as_tuple())))
    ts = np.linspace(base.times[0], base.times[-1], 200)
    assert_allclose(tiny.sample_at(np.ldexp(ts, -1000)),
                    np.ldexp(base.sample_at(ts), -1000), rtol=1e-12, atol=0.0)


def test_integrate_max_steps():
    for max_steps in (2, np.int64(2)):  # a numpy integer is a count too
        traj = integrate(MetricCoeffs(1, 1, 1), FlowParams(max_steps=max_steps))
        assert traj.terminated is Termination.MAX_STEPS
        assert traj.collapse_time is None
        assert len(traj) == 3  # initial sample plus two steps


def test_integration_failure_carries_partial_trajectory():
    # Tolerances far below rounding: once the error estimate is rounding
    # noise, every step is rejected until the step size underflows.
    with pytest.raises(IntegrationFailureError) as excinfo:
        integrate(MetricCoeffs(0.3, 0.6, 1.2),
                  FlowParams(rel_tol=1e-300, abs_tol=1e-300, max_steps=100_000))
    assert str(excinfo.value) == (
        "integration failed: Required step size is less than spacing between numbers.")
    partial = excinfo.value.trajectory
    assert isinstance(partial, Trajectory)
    assert partial.terminated is Termination.FAILED
    assert len(partial) >= 1


def test_the_largest_r_squared_collapses_at_the_scaled_time(monkeypatch):
    # The stepper steps R^2 = 4 for every R^2, so sigma stays where it is at
    # R^2 = 4.  When the stepper carried 8/R^2, sigma overflowed before
    # collapse past R^2 of about 2e307, and these runs failed.
    base = integrate(MetricCoeffs(0.3, 0.6, 1.2)).collapse_time
    for r_squared in (1e307, 5e307, 1e308):
        huge = integrate(MetricCoeffs(0.3, 0.6, 1.2), FlowParams(r_squared=r_squared))
        assert huge.terminated is Termination.COLLAPSED
        assert huge.collapse_time == pytest.approx(r_squared / 4.0 * base, rel=4e-15, abs=0.0)
    line = trace_flowline(ShapePoint(1.0, 0.5))
    huge = trace_flowline(ShapePoint(1.0, 0.5), params=FlowParams(r_squared=1e308))
    assert_array_equal(huge.xs, line.xs)
    assert_allclose(huge.times, 0.25e308 * line.times, rtol=4e-15, atol=0.0)
    # A time scale w0 R^2/4 past the float range raises before a step is
    # taken (the whole flow ran first), after a logit that underflows.
    def no_step(*args):
        raise AssertionError("integrate stepped")

    monkeypatch.setattr(flow_mod, "_dormand_prince", no_step)
    with pytest.raises(DomainError, match=r"^flow time scale w0 R\^2/4 = inf is not a normal"):
        integrate(MetricCoeffs(0.3e200, 0.6e200, 1.2e200), FlowParams(r_squared=1e200))
    with pytest.raises(DomainError, match=r"^ratio 5e-324/1e\+200 underflows to 0$"):
        integrate(MetricCoeffs(5e-324, 1.0, 1e200), FlowParams(r_squared=1e200))


def _lift(edge: str, share: float, log_height: float, r_squared: float) -> StretchFactors:
    return from_xy(edge_start(edge, share, log_height), r_squared=r_squared)


#: Starts over the whole triangle, down to heights of 1e-3 times the
#: triangle's toward each edge, at R^2 in {0.5, 4, 8}: heights up to 1/2
#: from each edge cover the whole triangle.
triangle_starts = st.builds(
    _lift, st.sampled_from(["snake", "turtle", "degenerate"]),
    st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=-3.0, max_value=math.log10(0.5)),
    st.sampled_from([0.5, 4.0, 8.0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.builds(edge_start, st.sampled_from(["snake", "turtle", "degenerate"]),
                 st.floats(min_value=0.01, max_value=0.99),
                 st.floats(min_value=-3.0, max_value=math.log10(0.5))),
       st.integers(min_value=-200, max_value=200),
       st.sampled_from([1e16, 1e100, 1e300]) | st.floats(min_value=1e-3, max_value=1e300))
@example(ShapePoint(1.0, 0.5), 1, 1e16)
@example(ShapePoint(1.0, 0.5), -1, 1e100)
@example(ShapePoint(1.0, 0.5), 2, 1e300)
def test_r_squared_only_rescales_time(start, j, r_squared):
    # The field is proportional to 1/R^2, so R^2 only rescales time (the
    # parabolic scaling of Ricci flow).  At R^2 = 4 2^j the steps, rows and
    # flow lines are those of R^2 = 4 bit for bit and every time is exactly
    # 2^j times; at any other R^2 the times agree to rounding.
    m0 = metric_coeffs(from_xy(start))
    traj, line = integrate(m0), trace_flowline(start)
    doubled = FlowParams(r_squared=math.ldexp(4.0, j))
    scaled, scaled_line = integrate(m0, doubled), trace_flowline(start, params=doubled)
    assert_array_equal(scaled._dense[0].states, traj._dense[0].states)
    assert_array_equal(scaled.coeffs, traj.coeffs)
    assert_array_equal(scaled.times, np.ldexp(traj.times, j))
    assert scaled.collapse_time == math.ldexp(traj.collapse_time, j)
    assert_array_equal(scaled_line.xs, line.xs)
    assert_array_equal(scaled_line.ys, line.ys)
    assert_array_equal(scaled_line.times, np.ldexp(line.times, j))
    assert scaled_line.apex == line.apex
    ratio = r_squared / 4.0
    other = integrate(m0, FlowParams(r_squared=r_squared))
    assert_array_equal(other._dense[0].states, traj._dense[0].states)
    assert_allclose(other.times, ratio * traj.times, rtol=4e-15, atol=0.0)
    assert other.collapse_time == pytest.approx(ratio * traj.collapse_time, rel=4e-15, abs=0.0)
    other_line = trace_flowline(start, params=FlowParams(r_squared=r_squared))
    assert_allclose(other_line.times, ratio * line.times, rtol=4e-15, atol=0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(triangle_starts)
def test_scalar_curvature_never_falls(f):
    # Hamilton (J. Differential Geom. 17, 1982): dR/dt = 2|Ric|^2 >= 0, and
    # integrate's rows keep that even in their rounding.
    traj = integrate(metric_coeffs(f), FlowParams(r_squared=f.r_squared))
    assert traj.terminated is Termination.COLLAPSED
    scalar = [curvature_summary(StretchFactors(*stretch_from_metric(MetricCoeffs(*row)),
                                               f.r_squared)).scalar
              for row in traj.coeffs.tolist()]
    assert np.all(np.diff(scalar) >= 0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(triangle_starts)
def test_collapse_time_obeys_hamiltons_bounds(f):
    # dR/dt = 2|Ric|^2 >= (2/3) R^2 gives T <= 3/(2 R0) where R0 > 0, an
    # equality at the round sphere (1e-9 is the integrator's error there);
    # where Ric >= 0, |Ric|^2 <= R^2 gives T >= 1/(2 R0).
    T = integrate(metric_coeffs(f), FlowParams(r_squared=f.r_squared)).collapse_time
    R0 = curvature_summary(f).scalar
    if R0 > 0.0:
        assert T <= 3.0 / (2.0 * R0) * (1.0 + 1e-9)
    if min(ricci_eigenvalues(f)) >= 0.0:
        assert T >= 1.0 / (2.0 * R0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(triangle_starts)
def test_table_of_numpy_rows_is_the_python_float_table(f):
    # uniform_grid's rows are np.float64; stretch_from_metric converts them
    # once, so every table entry is a Python float with the bits of the
    # table of the rows' .tolist().
    _, rows = integrate(metric_coeffs(f), FlowParams(r_squared=f.r_squared)).uniform_grid(200)

    def table(rows):
        return [astuple(curvature_summary(StretchFactors(
            *stretch_from_metric(MetricCoeffs(*row)), f.r_squared))) for row in rows]

    from_numpy, from_floats = table(rows), table(rows.tolist())
    assert all(type(x) is float for entry in from_numpy for x in entry)
    assert [[x.hex() for x in entry] for entry in from_numpy] == \
        [[x.hex() for x in entry] for entry in from_floats]


#: Gauss-Legendre nodes and weights on [-1, 1] for the volume law.  On the
#: thinnest snakes (a = b = 0.01, c = 1) the quadrature alone is up to
#: 3.1e-9 off with 8 nodes and 3e-11 with 10, against 16.
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(triangle_starts)
def test_volume_falls_at_the_scalar_curvature(f):
    # dg/dt = -2 Ric gives d ln vol/dt = -R (Hamilton, J. Differential
    # Geom. 17, 1982), and vol is proportional to sqrt(uvw).  R is
    # integrated up to t1 with a fixed Gauss rule on each row interval of
    # the dense output.
    traj = integrate(metric_coeffs(f), FlowParams(r_squared=f.r_squared))
    t1 = 0.9 * traj.times[-1]
    edges = np.append(traj.times[traj.times < t1], t1)
    width = np.diff(edges)
    ts = edges[:-1, None] + width[:, None] * (0.5 + 0.5 * _LEGENDRE_NODES)
    scalar = np.reshape(
        [curvature_summary(StretchFactors(*stretch_from_metric(MetricCoeffs(*row)),
                                          f.r_squared)).scalar
         for row in traj.sample_at(ts.ravel()).tolist()], ts.shape)
    log_volume = [0.5 * math.log(math.prod(row))
                  for row in (traj.coeffs[0].tolist(), traj.sample_at(t1).tolist())]
    integral = 0.5 * width @ (scalar @ _LEGENDRE_WEIGHTS)
    assert abs(log_volume[1] - log_volume[0] + integral) <= 1e-9


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


coefficient = st.floats(min_value=1e-3, max_value=1.0)


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient)
@example(0.5, 1.0, 1.0)  # a turtle: Q = +inf
@example(1.0, 1.0, 1.0)  # the round sphere: P = Q = +inf
def test_permutation_invariance(u, v, w):
    # integrate sorts the coefficients and steps the same field whatever
    # their order, so a permuted input gives the same collapse time and
    # the same rows, permuted; so does its dense output, which puts each
    # sorted coefficient back in its own column.
    base = integrate(MetricCoeffs(u, v, w))
    base_ts, base_rows = base.uniform_grid(50)
    for perm in permutations(range(3)):
        uvw = (u, v, w)
        traj = integrate(MetricCoeffs(*(uvw[i] for i in perm)))
        assert traj.collapse_time == base.collapse_time
        assert np.array_equal(traj.times, base.times)
        assert np.array_equal(traj.coeffs, base.coeffs[:, list(perm)])
        ts, rows = traj.uniform_grid(50)
        assert np.array_equal(ts, base_ts)
        assert np.array_equal(rows, base_rows[:, list(perm)])


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient, st.floats(min_value=0.1, max_value=10.0),
       st.integers(min_value=-300, max_value=300), st.floats(min_value=1e-6, max_value=1e6))
def test_scale_covariance(u, v, w, lam, k, wide):
    # The flow is homogeneous of degree 0, so scaling the metric by lambda
    # scales the collapse time by lambda (acceptance criterion 8's tolerance).
    run = integrate(MetricCoeffs(u, v, w))
    base = run.collapse_time
    scaled = integrate(MetricCoeffs(lam * u, lam * v, lam * w)).collapse_time
    assert scaled == pytest.approx(lam * base, rel=1e-5, abs=0.0)
    # integrate's stop reads only the scale-free (P, Q, L), so a power of
    # two scales the whole run exactly, and any other factor to rounding.
    s = math.ldexp(1.0, k)
    power = integrate(MetricCoeffs(s * u, s * v, s * w))
    assert np.array_equal(power.times, s * run.times)
    assert np.array_equal(power.coeffs, s * run.coeffs)
    assert power.collapse_time == s * base
    scaled = integrate(MetricCoeffs(wide * u, wide * v, wide * w)).collapse_time
    assert scaled == pytest.approx(wide * base, rel=1e-13, abs=0.0)


def test_thin_shapes_stop_once_round():
    # A thin shape is far from round where w has fallen to collapse_eps w0;
    # integrate adds the round sphere's remaining time only once it is.
    for m0 in (MetricCoeffs(1e-10, 1.0, 1.0), MetricCoeffs(1e-10, 0.5, 1.0)):
        deep = integrate(m0, FlowParams(collapse_eps=1e-40)).collapse_time
        assert integrate(m0).collapse_time == pytest.approx(deep, rel=1e-14, abs=0.0)


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


def test_x_rate_examples():
    assert x_rate(MetricCoeffs(0.7, 0.7, 0.7)) == 0.0
    assert x_rate(MetricCoeffs(0.5, 0.5, 1.0)) == pytest.approx(4.0, rel=1e-15, abs=0.0)
    assert x_rate(MetricCoeffs(0.5, 0.75, 1.0)) > 0.0
    # The rate scales like the flow itself, by 4/R^2.
    assert x_rate(MetricCoeffs(0.5, 0.5, 1.0), 8.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    # Degree -1, bit for bit: at 2^k (0.3, 0.6, 1.2) the rate divided by
    # zero (k = -500), came out NaN (k = 500) or raised OverflowError (k = 520).
    base = x_rate(MetricCoeffs(0.3, 0.6, 1.2))
    for k in range(-1020, 1020):
        scaled = MetricCoeffs(*(math.ldexp(x, k) for x in (0.3, 0.6, 1.2)))
        assert x_rate(scaled) == math.ldexp(base, -k), k
    # 29 times 2^1023, past the largest float.
    assert x_rate(MetricCoeffs(2.0**-1025, 2.0**-1024, 2.0**-1023)) == math.inf
    # Thin shapes at unit scale: u v w^2 went subnormal (4.0159e160 at
    # 1e-160) or to 0 (ZeroDivisionError at 1e-200).
    for thin, rate in ((1e-160, 4e160), (1e-200, 4e200)):
        assert abs(x_rate(MetricCoeffs(thin, thin, 1.0)) - rate) <= 2.0 * math.ulp(rate), thin


def test_x_rate_matches_projected_derivative():
    rng = np.random.default_rng(41)
    for _ in range(300):
        u, v, w = np.sort(rng.uniform(0.1, 3.0, size=3))
        m = MetricCoeffs(float(u), float(v), float(w))
        du, dv, dw = rhs(m, 4.0)
        expected = (du + dv) / w - (u + v) * dw / (w * w)
        assert x_rate(m) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_dragon_dense_output_against_independent_solver():
    # Dragons have no closed form; cross-check the 4th-order dense output
    # with scipy's DOP853 on the bracket form of the flow, relative to the
    # initial largest coefficient (every coefficient tends to zero at the end
    # of the grid).  test_dragon_collapse_times checks the collapse time.
    from scipy.integrate import solve_ivp

    m0 = MetricCoeffs(0.3, 0.6, 1.2)
    traj = integrate(m0)
    ref = solve_ivp(lambda t, y: np.array(rhs_bracket(*y, 4.0)), (0.0, traj.times[-1]),
                    np.array(m0.as_tuple()), method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ts = np.linspace(0.0, traj.times[-1], 50)
    assert_allclose(traj.sample_at(ts), ref.sol(ts).T, rtol=0.0,
                    atol=1e-9 * max(m0.as_tuple()))


def test_steps_follow_the_rk45_controller():
    # The stepper keeps the tableau, error norm and step-size rules of
    # scipy's RK45, so it takes the same steps up to rounding in the error
    # estimate; the last step is the collapse event.  This shape is round
    # long before w0 e^L reaches collapse_eps w0 (w0 = 1), so the smallest
    # coefficient w0 e^L l(P) reaches collapse_eps within that step too.
    from scipy.integrate import RK45

    traj = integrate(MetricCoeffs(1.0, 0.1, 0.5))
    tol = flow_mod.INTEGRATE_TOL_FACTOR
    solver = RK45(lambda sigma, y: np.array(flow_mod._field(*y, 1.0)), 0.0,
                  np.array([math.log(0.1 / 0.9), 0.0, 0.0]), np.inf,
                  rtol=tol * 1e-10, atol=tol * 1e-12)
    ref = [0.0]
    while np.exp(solver.y[2]) / (1.0 + np.exp(-solver.y[0])) > 1e-9:
        solver.step()
        ref.append(solver.t)
    sigma = traj._dense[0].sigma
    assert len(sigma) == len(ref)
    assert_allclose(sigma[:-1], ref[:-1], rtol=1e-7)
    assert ref[-2] < sigma[-1] <= ref[-1]


@pytest.mark.parametrize("direction", [1.0, -1.0])
@pytest.mark.parametrize("p, q", [(0.3, 0.6), (0.4, 0.4), (0.3, 1.0), (1e-3, 0.5)],
                         ids=["interior", "snake-edge", "turtle-edge", "thin"])
def test_stages_match_a_textbook_dormand_prince_step(p, q, direction):
    # The stepper carries one scalar per stage; a textbook step on _field
    # (three components, scipy's RK45 tableau and dense-output matrix) at
    # the stepper's first step size gives the same row and quartic.
    from scipy.integrate import RK45

    y0 = np.array([flow_mod._logit(p), flow_mod._logit(q), 0.0])
    sigma, states, quartic, _, _ = flow_mod._dormand_prince(
        tuple(y0), direction, 1e-3, 1e-3, 1, lambda P, Q, L: 1.0)
    h = sigma[1]
    assert 0.05 < h < 0.2
    K = np.zeros((7, 3))
    K[0] = flow_mod._field(*y0, direction)
    for i in range(1, 6):
        K[i] = flow_mod._field(*(y0 + h * (RK45.A[i, :i] @ K[:i])), direction)
    row = y0 + h * (RK45.B @ K[:6])
    K[6] = flow_mod._field(*row, direction)
    assert_allclose(states[1], row, rtol=0.0, atol=1e-14)
    assert_allclose(quartic[0], h * (RK45.P.T @ K), rtol=0.0, atol=1e-14)


def test_a_start_past_its_margin_takes_no_step():
    for margin in (0.0, -1.0):
        run = flow_mod._dormand_prince((0.5, 1.0, 0.0), 1.0, 1e-10, 1e-12, 10,
                                       lambda P, Q, L: margin)
        assert run.sigma.tolist() == [0.0] and run.states.tolist() == [[0.5, 1.0, 0.0]]
        assert run.quartic.shape == (0, 4, 3)
        assert run.end is None and run.message is None


def test_time_panels_of_several_runs_are_each_runs_own():
    # One quadrature over several runs, as a flow line times both branches:
    # each run's panels and times are those of a call on it alone, bit for
    # bit, with runs of no steps before, between and after the others.
    y0 = (flow_mod._logit(0.4), flow_mod._logit(0.7), 0.0)
    forward, backward, empty = (
        flow_mod._dormand_prince(y0, direction, 1e-10, 1e-12, 10_000, margin)
        for direction, margin in ((1.0, flow_mod._round_corner_margin),
                                  (-1.0, lambda P, Q, L: Q + 10.0), (1.0, lambda P, Q, L: 0.0)))
    assert len(forward.quartic) > 10 and len(backward.quartic) > 10 and not len(empty.quartic)
    runs = [(empty, 3.0), (forward, 0.75), (empty, -3.0), (backward, -0.75), (empty, 1.0)]
    for run, together in zip(runs, flow_mod._time_panels(runs)):
        [alone] = flow_mod._time_panels([run])
        (*panels, ends), times = together
        (*alone_panels, alone_ends), alone_times = alone
        for got, want in zip([*panels, ends, times], [*alone_panels, alone_ends, alone_times]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("y0", [(0.3, 0.9, 0.0), (math.inf, math.inf, 0.0)],
                         ids=["interior", "round"])
def test_a_step_past_the_largest_sigma_fails(y0):
    # A margin that never falls lets sigma grow until a step would reach
    # inf.  That step's error estimate is NaN, so it is rejected, and the
    # retry would stay at an infinite step forever: the run fails instead.
    # How many steps it takes moves with libm's tanh, so only a bound is
    # pinned.
    run = flow_mod._dormand_prince(y0, 1.0, 1e-10, 1e-12, 10_000, lambda P, Q, L: 1.0)
    assert run.end is Termination.FAILED
    assert run.message == "Required step takes sigma past the largest float."
    assert 1e307 < run.sigma[-1] < math.inf
    assert len(run.sigma) - 1 < 1000


def test_rel_tol_bound():
    # At MAX_REL_TOL itself the controller still approximates; past it,
    # FlowParams rejects the tolerance (test_rejected_library_inputs).
    m0 = MetricCoeffs(0.3, 0.6, 1.2)
    loose = integrate(m0, FlowParams(rel_tol=flow_mod.MAX_REL_TOL)).collapse_time
    assert loose == pytest.approx(integrate(m0).collapse_time, rel=2e-3)


def test_initial_step_is_positive_and_finite():
    # A zero component with a tiny abs_tol overflows the derivative norm, and
    # a component at infinity (the turtle edge in logit coordinates) has an
    # infinite scale; neither may give a zero, infinite or NaN first step.
    # A thin turtle, where every scaled derivative is below 1e-15, takes
    # the flat-field step 1e-6.
    thin_turtle = (flow_mod._logit(1e-300), math.inf, 0.0)
    for y, abs_tol in (((0.3, 1.2, 0.0), 1e-160), ((0.3, 1.2, 0.0), 1e-310),
                       ((0.3, math.inf, 0.0), 1e-12), ((0.0, 0.0, 0.0), 1e-300),
                       (thin_turtle, 1e-12)):
        h = flow_mod._initial_step(y, 1.0, 1e-10, abs_tol)
        assert 0.0 < h < math.inf
    assert flow_mod._initial_step(thin_turtle, 1.0, 1e-10, 1e-12) == 1e-6


def test_bracket_crossing_at_most_width_wide_calls_no_f():
    def never(x):
        raise AssertionError(f"f called at {x}")

    for width in (1.0, 2.0, 1e308, sys.float_info.max):
        assert flow_mod._bracket_crossing(never, 0.0, 1.0, 1.0, -1.0, width) == (0.0, 1.0)


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
