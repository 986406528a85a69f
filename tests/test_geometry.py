import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from danteflow.errors import (CollapseReachedError, DegenerateShapeError, DomainError,
                              SingularMapError, SingularSlopeError)
from danteflow.flow import (MAX_REL_TOL, FlowParams, SnakeSolution, TurtleSolution, integrate,
                            isotropic_lambda, rhs, snake_lambda_of_time, snake_profile,
                            snake_time_of_lambda, turtle_mu_of_time, turtle_profile,
                            turtle_time_of_mu, x_rate)
from danteflow.geometry import (GRID_LIMIT, Classification, CurvatureSummary, MetricCoeffs,
                                ShapeKind, StretchFactors, classify,
                                connection_coefficients, curvature_summary,
                                metric_coeffs, principal_curvatures,
                                ricci_eigenvalues, scalar_curvature,
                                semiperimeter, stretch_from_metric)
from danteflow.shapespace import (ShapePoint, from_xy, region_boundaries, slope, to_rho_tau,
                                  to_xy, trace_flowline)
from conftest import random_ordered_stretch


def test_semiperimeter_examples():
    assert semiperimeter(StretchFactors(1, 1, 1)) == 1.5
    assert semiperimeter(StretchFactors(1, 1, 2)) == 2.0
    assert semiperimeter(StretchFactors(0.5, 1.0, 1.5)) == 1.5
    # Past the point where fsum raises OverflowError.
    assert semiperimeter(StretchFactors(1e308, 1e308, 1e308)) == 1.5e308
    assert semiperimeter(StretchFactors(1.7e308, 1.7e308, 1.7e308)) == math.inf


def test_principal_curvatures_examples():
    assert_allclose(principal_curvatures(StretchFactors(1, 1, 1, 4.0)),
                    (0.25, 0.25, 0.25), rtol=0, atol=0)
    # On the a + b = c line the curvatures are (ab, ab, -ab) for R^2 = 4.
    assert_allclose(principal_curvatures(StretchFactors(1, 1, 2, 4.0)),
                    (1.0, 1.0, -1.0), rtol=0, atol=0)
    # The round unit sphere has sectional curvature 1/R^2.
    assert_allclose(principal_curvatures(StretchFactors(1, 1, 1, 1.0)),
                    (1.0, 1.0, 1.0), rtol=0, atol=0)


def test_ricci_eigenvalue_examples():
    assert_allclose(ricci_eigenvalues(StretchFactors(1, 1, 1, 4.0)),
                    (0.5, 0.5, 0.5), rtol=0, atol=0)
    assert_allclose(ricci_eigenvalues(StretchFactors(1, 1, 2, 4.0)),
                    (0.0, 0.0, 2.0), rtol=0, atol=0)
    # Doubling R^2 halves every eigenvalue.
    assert_allclose(ricci_eigenvalues(StretchFactors(1, 1, 2, 8.0)),
                    (0.0, 0.0, 1.0), rtol=0, atol=0)


def test_scalar_curvature_examples():
    assert scalar_curvature(StretchFactors(1, 1, 1, 4.0)) == pytest.approx(1.5, abs=1e-15)
    assert scalar_curvature(StretchFactors(1, 1, 2, 4.0)) == pytest.approx(2.0, abs=1e-15)


def test_scalar_zero_locus_by_root_finding():
    # Along a = b = 1 the scalar changes sign; locate the root and confirm.
    lo, hi = 3.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scalar_curvature(StretchFactors(1, 1, mid)) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(scalar_curvature(StretchFactors(1, 1, root))) < 1e-12
    assert root == pytest.approx(4.0, abs=1e-12)  # hand algebra: c - c^2/4 = 0


def test_connection_coefficients_examples():
    assert_allclose(connection_coefficients(StretchFactors(1, 1, 1, 4.0)),
                    (-0.5, -0.5, -0.5), rtol=0, atol=0)
    assert_allclose(connection_coefficients(StretchFactors(1, 1, 2, 4.0)),
                    (-1.0, -1.0, 0.0), rtol=0, atol=0)


def test_metric_coeffs_examples():
    assert metric_coeffs(StretchFactors(1, 1, 1)).as_tuple() == (1.0, 1.0, 1.0)
    assert metric_coeffs(StretchFactors(1, 1, 2)).as_tuple() == (0.5, 0.5, 1.0)
    assert metric_coeffs(StretchFactors(2, 2, 2)).as_tuple() == (0.25, 0.25, 0.25)


def test_stretch_from_metric_examples():
    assert_allclose(stretch_from_metric(MetricCoeffs(1, 1, 1)), (1, 1, 1), rtol=1e-15)
    assert_allclose(stretch_from_metric(MetricCoeffs(0.5, 0.5, 1)), (1, 1, 2), rtol=1e-15)
    assert_allclose(stretch_from_metric(MetricCoeffs(0.25, 0.25, 0.25)), (2, 2, 2), rtol=1e-15)


def test_stretch_from_metric_returns_python_floats():
    # Both branches, the direct one and the one rescaled by 4^j, convert
    # numpy input once and give the same bits as Python-float input.
    for uvw in ((0.3, 0.5, 0.9), (1e-200, 1e-150, 1e-100), (1e200, 1e150, 1e100)):
        got = stretch_from_metric(MetricCoeffs(*np.array(uvw)))
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in stretch_from_metric(MetricCoeffs(*uvw))]


_POSITIVE_CHECKS = {
    "MetricCoeffs.u": lambda x: MetricCoeffs(x, 1.0, 1.0),
    "MetricCoeffs.v": lambda x: MetricCoeffs(1.0, x, 1.0),
    "MetricCoeffs.w": lambda x: MetricCoeffs(1.0, 1.0, x),
    "StretchFactors.a": lambda x: StretchFactors(x, 1.0, 1.0),
    "StretchFactors.b": lambda x: StretchFactors(1.0, x, 1.0),
    "StretchFactors.c": lambda x: StretchFactors(1.0, 1.0, x),
    "StretchFactors.r_squared": lambda x: StretchFactors(1.0, 1.0, 1.0, x),
    "FlowParams.r_squared": lambda x: FlowParams(r_squared=x),
    "FlowParams.rel_tol": lambda x: FlowParams(rel_tol=x),
    "FlowParams.abs_tol": lambda x: FlowParams(abs_tol=x),
}


@pytest.mark.parametrize("check", _POSITIVE_CHECKS.values(), ids=_POSITIVE_CHECKS.keys())
@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324, np.float64("nan"), np.float64(0.0),
    10**400,  # past the float range; math.isfinite raised OverflowError here
], ids=["nan", "inf", "-inf", "0", "-0", "-1", "-subnormal", "np-nan", "np-0", "int-10^400"])
def test_nonpositive_or_nonfinite_values_are_domain_errors(check, value):
    with pytest.raises(DomainError, match="positive finite"):
        check(value)


@pytest.mark.parametrize("name", _POSITIVE_CHECKS)
def test_positive_check_accepts_positive_reals_and_rejects_strings(name):
    check = _POSITIVE_CHECKS[name]
    largest = MAX_REL_TOL if name.endswith("_tol") else sys.float_info.max
    for value in (5e-324, 1e-12, np.float64(1e-9), largest, np.float64(largest)):
        check(value)
    if largest >= 1:
        check(1)
        check(np.int64(2))
    with pytest.raises(TypeError, match="'<' not supported between instances of 'float' and 'str'"):
        check("1.0")


def test_the_first_bad_field_in_field_order_is_named():
    with pytest.raises(DomainError) as raised:
        MetricCoeffs(1.0, math.nan, -1.0)
    assert str(raised.value) == "v must be a positive finite number, got nan"
    with pytest.raises(DomainError) as raised:
        StretchFactors(1.0, 0.0, -1.0, math.inf)
    assert str(raised.value) == "b must be a positive finite number, got 0.0"
    # A bad field before a string is named; a string before a bad field
    # cannot be compared.
    with pytest.raises(DomainError, match="^u must"):
        MetricCoeffs(-1.0, "1.0", 1.0)
    with pytest.raises(TypeError) as raised:
        StretchFactors(1.0, "1.0", -1.0)
    assert str(raised.value) == "'<' not supported between instances of 'float' and 'str'"


#: A run of the round sphere for the cases of its dense output.
ROUND = integrate(MetricCoeffs(1, 1, 1))

#: Every rejected library call that is not a check of _POSITIVE_CHECKS: the
#: call as Python source in this module's namespace, which is also the
#: case's id, its whole message and, where it is not DomainError, the exact
#: type of its exception.  An int past the float range, 10**400, raised
#: OverflowError from math.isfinite in each call that takes it here.
REJECTED_CALLS = [
    # geometry
    ("StretchFactors(0.0, 0.0, 0.0)", "a must be a positive finite number, got 0.0"),
    ("StretchFactors.ordered(2.0, 1.0, 3.0)",
     "stretch factors must satisfy a <= b <= c, got (2.0, 1.0, 3.0)"),
    ("StretchFactors.ordered(1.0, 3.0, 2.0)",
     "stretch factors must satisfy a <= b <= c, got (1.0, 3.0, 2.0)"),
    # After dividing by 4^j for the largest exponent, u and v are subnormal
    # and u v w is 0.
    ("stretch_from_metric(MetricCoeffs(1e-290, 1e-290, 1e20))",
     "stretch factors of (1e-290, 1e-290, 1e+20) underflow"),
    # A product of two stretch factors that underflows to 0 raised
    # ZeroDivisionError.
    ("metric_coeffs(StretchFactors(1e-200, 1e-200, 1e-200))",
     "metric coefficients of (1e-200, 1e-200, 1e-200) lie outside the float range"),
    ("metric_coeffs(StretchFactors(1e-170, 1e-155, 1e100))",
     "metric coefficients of (1e-170, 1e-155, 1e+100) lie outside the float range"),
    ("classify(StretchFactors(1, 1, 1), -1.0)",
     "eq_tol must be a nonnegative finite number, got -1.0"),
    ("classify(StretchFactors(1, 1, 1), math.nan)",
     "eq_tol must be a nonnegative finite number, got nan"),
    ("classify(StretchFactors(1, 1, 1), math.inf)",
     "eq_tol must be a nonnegative finite number, got inf"),
    ("classify(StretchFactors(1, 2, 3), 10**400)",
     f"eq_tol must be a nonnegative finite number, got {10**400}"),
    ("to_xy(StretchFactors(2, 1, 1))", "triangle coordinates need a <= b <= c, got (2, 1, 1)"),
    ("to_rho_tau(ShapePoint(1.0, 1.0))",
     "eigenvalue-ratio map is singular at y = 1.0", SingularMapError),
    # A NaN point gave RicciRatios(nan, nan), an int past floats OverflowError.
    ("to_rho_tau(ShapePoint(math.nan, 0.5))", "point (nan, 0.5) is not finite"),
    ("to_rho_tau(ShapePoint(10**400, 0.5))", f"point ({10**400}, 0.5) is not finite"),
    # flow: the controls.  collapse_eps is a share of the largest initial coefficient.
    ("FlowParams(collapse_eps=0.0)", "collapse_eps must lie in (0, 1), got 0.0"),
    ("FlowParams(collapse_eps=1.0)", "collapse_eps must lie in (0, 1), got 1.0"),
    ("integrate(MetricCoeffs(1, 1, 1), FlowParams(collapse_eps=2.0))",
     "collapse_eps must lie in (0, 1), got 2.0"),
    # Past MAX_REL_TOL the controller no longer approximates: at rel_tol = 1
    # the thin dragon (0.01, 0.5, 1) collapses 54% early, at abs_tol = 1 27%.
    ("FlowParams(rel_tol=1.0)", "rel_tol must be at most 0.001, got 1.0"),
    ("FlowParams(rel_tol=math.nextafter(MAX_REL_TOL, 1.0))",
     "rel_tol must be at most 0.001, got 0.0010000000000000002"),
    ("FlowParams(abs_tol=math.nextafter(MAX_REL_TOL, 1.0))",
     "abs_tol must be at most 0.001, got 0.0010000000000000002"),
    # integrate counts steps with range(max_steps), which takes only integers.
    ("FlowParams(max_steps=0)", "max_steps must be positive, got 0"),
    ("FlowParams(max_steps=np.int64(0))", "max_steps must be positive, got 0"),
    ("FlowParams(max_steps=math.nan)", "max_steps must be an integer, got nan"),
    ("FlowParams(max_steps=math.inf)", "max_steps must be an integer, got inf"),
    ("FlowParams(max_steps=2.5)", "max_steps must be an integer, got 2.5"),
    ("FlowParams(max_steps=3.0)", "max_steps must be an integer, got 3.0"),
    ("FlowParams(max_steps=np.float64(3.0))", "max_steps must be an integer, got np.float64(3.0)"),
    ('FlowParams(max_steps="5")', "max_steps must be an integer, got '5'"),
    # flow: integrate and its trajectory.  w0 R^2/4 overflowed to inf (a
    # collapse time of inf) or underflowed to 0 (a collapse time of 0).
    ("integrate(MetricCoeffs(1e200, 2e200, 3e200), FlowParams(r_squared=1e200))",
     "flow time scale w0 R^2/4 = inf is not a normal float"),
    ("integrate(MetricCoeffs(1e-300, 2e-300, 3e-300), FlowParams(r_squared=1e-300))",
     "flow time scale w0 R^2/4 = 0.0 is not a normal float"),
    # u/(w0 - u) underflowing to 0 raised ValueError.
    ("integrate(MetricCoeffs(5e-324, 1.0, 1e10))", "ratio 5e-324/10000000000.0 underflows to 0"),
    ("ROUND.sample_at(ROUND.times[-1] + 1.0)", "requested time outside the integrated span"),
    # A NaN time lies in no span; it used to come back as a NaN row.
    ("ROUND.sample_at(math.nan)", "requested time outside the integrated span"),
    ("ROUND.sample_at([0.0, math.nan])", "requested time outside the integrated span"),
    # Times past the float range raised OverflowError in the conversion to float.
    ("integrate(MetricCoeffs(0.3, 0.6, 1.2)).sample_at(10**400)",
     f"requested time {10**400} outside the integrated span"),
    ("ROUND.uniform_grid(1)", "grid needs at least 2 points, got 1"),
    # A count past the largest array numpy sizes raised numpy's ValueError;
    # the CLI's --grid stops at the same GRID_LIMIT.
    ("ROUND.uniform_grid(GRID_LIMIT)",
     f"grid needs at most {GRID_LIMIT - 1} points, got {GRID_LIMIT}"),
    ("ROUND.uniform_grid(10**21)", f"grid needs at most {GRID_LIMIT - 1} points, got {10**21}"),
    # A float count raised numpy's TypeError, and a string one a TypeError
    # from <, where FlowParams' max_steps was already a DomainError.
    ("ROUND.uniform_grid(math.nan)", "n must be an integer, got nan"),
    ("ROUND.uniform_grid(3.0)", "n must be an integer, got 3.0"),
    ("ROUND.uniform_grid(np.float64(3.0))", "n must be an integer, got np.float64(3.0)"),
    ('ROUND.uniform_grid("5")', "n must be an integer, got '5'"),
    ("isotropic_lambda(1.0, 4.0)",
     "t = 1.0 is at or past the collapse time 1.0", CollapseReachedError),
    ("isotropic_lambda(-0.1, 4.0)", "time must be nonnegative, got -0.1"),
    ("isotropic_lambda(math.nan, 4.0)", "time must be nonnegative, got nan"),
    ("rhs(MetricCoeffs(1, 1, 1), 0.0)", "r_squared must be a positive finite number, got 0.0"),
    ("x_rate(MetricCoeffs(1.0, 0.5, 0.75))", "x_rate needs u <= v <= w, got (1.0, 0.5, 0.75)"),
    # flow: the closed forms
    ("SnakeSolution(0.0, 1.0)", "W must be a positive finite number, got 0.0"),
    ("SnakeSolution(1.0, -0.5)", "alpha must be nonnegative, got -0.5"),
    ("SnakeSolution(1.0, math.nan)", "alpha must be nonnegative, got nan"),
    ("SnakeSolution(1.0, math.inf)", "alpha must be nonnegative, got inf"),
    ("SnakeSolution(1.0, 10**400)", f"alpha must be nonnegative, got {10**400}"),
    # alpha^2 overflowed, and collapse_T came out NaN and V 0.
    ("SnakeSolution(1.0, 1.4e154)",
     "alpha must be at most 1.3407807929942596e+154, got 1.4e+154"),
    ("SnakeSolution.from_initial(MetricCoeffs(0.5, 0.6, 1.0))",
     "snake initial data needs u = v, got (0.5, 0.6)"),
    ("SnakeSolution.from_initial(MetricCoeffs(1.0, 1.0, 0.5))",
     "snake initial data needs w >= v, got (1.0, 0.5)"),
    ("snake_time_of_lambda(SnakeSolution(1.0, 0.25), -0.01)",
     "lambda must lie in [0, 1], got -0.01"),
    ("snake_time_of_lambda(SnakeSolution(1.0, 0.25), 1.01)", "lambda must lie in [0, 1], got 1.01"),
    ("snake_profile(SnakeSolution(1.0, 1.0), 0.0)", "lambda must lie in (0, 1], got 0.0"),
    ("snake_lambda_of_time(s := SnakeSolution(1.0, 1.0), s.collapse_T + 1e-6)",
     "time must lie in [0, 0.6426990816987241], got 0.6427000816987242"),
    ("snake_lambda_of_time(SnakeSolution(1.0, 1.0), -1e-6)",
     "time must lie in [0, 0.6426990816987241], got -1e-06"),
    # An int time is tested as a float, except past the float range.
    ("snake_lambda_of_time(SnakeSolution(1.0, 1.0), -1)",
     "time must lie in [0, 0.6426990816987241], got -1.0"),
    ("snake_lambda_of_time(SnakeSolution(1.0, 1.0), 10**400)",
     f"time must lie in [0, 0.6426990816987241], got {10**400}"),
    ("TurtleSolution(-1.0, 0.5)", "U must be a positive finite number, got -1.0"),
    # beta is capped strictly below 1.
    ("TurtleSolution(1.0, 1.0)", "beta must lie in [0, 0.999999999999], got 1.0"),
    ("TurtleSolution(1.0, math.nan)", "beta must lie in [0, 0.999999999999], got nan"),
    ("TurtleSolution(1.0, 10**400)", f"beta must lie in [0, 0.999999999999], got {10**400}"),
    # V and collapse_T came out inf.
    ("TurtleSolution(1.7e308, 0.5)",
     "turtle (U, beta) = (1.7e+308, 0.5) has V or collapse_T past the largest float"),
    ("TurtleSolution.from_initial(MetricCoeffs(0.75, 1.0, 1.1))",
     "turtle initial data needs v = w, got (1.0, 1.1)"),
    ("TurtleSolution.from_initial(MetricCoeffs(1.5, 1.0, 1.0))",
     "turtle initial data needs u <= v, got (1.5, 1.0)"),
    # Thinner than BETA_CAP, not clamped to it.
    ("TurtleSolution.from_initial(MetricCoeffs(1e-14, 1.0, 1.0))",
     "beta must lie in [0, 0.999999999999], got 0.999999999999995"),
    ("turtle_time_of_mu(TurtleSolution(1.0, 0.9), 2.0)", "mu must lie in [0, 1], got 2.0"),
    ("turtle_profile(TurtleSolution(0.75, 0.5), 0.0)", "mu must lie in (0, 1], got 0.0"),
    ("turtle_mu_of_time(TurtleSolution(1.0, 0.5), 10**400)",
     f"time must lie in [0, 1.2159728110007215], got {10**400}"),
    # shapespace
    ("from_xy(ShapePoint(1.0, 0.5), 0.0)", "c must be a positive finite number, got 0.0"),
    # Every comparison with NaN is false, so a NaN point used to pass the
    # triangle tests and fail later as "a must be a positive finite number".
    ("from_xy(ShapePoint(math.nan, 0.5), 1.0)", "point (nan, 0.5) is not finite"),
    ("from_xy(ShapePoint(1.0, math.nan), 1.0)", "point (1.0, nan) is not finite"),
    ("from_xy(ShapePoint(math.inf, 0.5), 1.0)", "point (inf, 0.5) is not finite"),
    ("from_xy(ShapePoint(10**400, 0.5))", f"point ({10**400}, 0.5) is not finite"),
    ("from_xy(ShapePoint(1.0, 1.0), 1.0)",
     "point (1.0, 1.0) lies on or past the degenerate edge y = x", DegenerateShapeError),
    ("from_xy(ShapePoint(1.0, -0.1), 1.0)", "y must be nonnegative, got -0.1"),
    ("from_xy(ShapePoint(1.9, 0.2), 1.0)", "point (1.9, 0.2) lies outside the triangle"),
    # x + y = 2 + 2 ulp(2): one ulp(2) past the turtle edge still lifts, two do not.
    ("from_xy(ShapePoint(2.0, 2.0 * math.ulp(2.0)))",
     "point (2.0, 8.881784197001252e-16) lies outside the triangle"),
    ("trace_flowline(ShapePoint(0.5, 0.5))",
     "point (0.5, 0.5) lies on or past the degenerate edge y = x", DegenerateShapeError),
    ("trace_flowline(ShapePoint(10**400, 0.5))", f"point ({10**400}, 0.5) is not finite"),
    # from_xy lifts it since c (x + y) no longer overflows; its metric does not fit.
    ("trace_flowline(ShapePoint(1.5, 0.5), 1e308)",
     "metric coefficients of (5e+307, 1e+308, 1e+308) lie outside the float range"),
    ("slope(ShapePoint(1.0, 1.0))", "slope denominator vanishes at (1.0, 1.0)", SingularSlopeError),
    ("slope(ShapePoint(2.0, 0.0))", "slope denominator vanishes at (2.0, 0.0)", SingularSlopeError),
    # A NaN point gave a NaN slope, an int past floats OverflowError.
    ("slope(ShapePoint(math.nan, 0.5))", "point (nan, 0.5) is not finite"),
    ("slope(ShapePoint(10**400, 0.5))", f"point ({10**400}, 0.5) is not finite"),
    ("region_boundaries(8)", f"resolution must be at least 16 and below {GRID_LIMIT}, got 8"),
    ("region_boundaries(64.0)", "resolution must be an integer, got 64.0"),
    ("region_boundaries(math.nan)", "resolution must be an integer, got nan"),
]


@pytest.mark.parametrize("call, message, error", [
    pytest.param(call, message, *(error or [DomainError]), id=call)
    for call, message, *error in REJECTED_CALLS])
def test_rejected_library_inputs(call, message, error):
    with pytest.raises(error) as raised:
        eval(call, globals())
    assert type(raised.value) is error and str(raised.value) == message


_FIELD_CHECKS = {
    f"{cls.__name__}.{field.name}": (cls, field.name)
    for cls in (MetricCoeffs, StretchFactors) for field in dataclasses.fields(cls)
}


@pytest.mark.parametrize("name", _FIELD_CHECKS)
def test_constructor_rejects_exactly_what_is_not_positive_finite(name):
    cls, field = _FIELD_CHECKS[name]

    @settings(max_examples=40, deadline=None)
    @given(st.floats())
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(sys.float_info.max)
    def check(x):
        kwargs = {f.name: 1.0 for f in dataclasses.fields(cls)} | {field: x}
        if not 0 < x <= sys.float_info.max:
            with pytest.raises(DomainError, match=f"^{field} must be a positive finite number"):
                cls(**kwargs)
        else:
            stored = getattr(cls(**kwargs), field)
            assert stored is x and stored.hex() == x.hex()

    check()


#: One instance of each value type on the per-sample path, and its repr.
#: MetricCoeffs and StretchFactors have a hand-written constructor;
#: CurvatureSummary has the generated one, and _curvatures builds it by
#: object.__new__.
_VALUE_TYPES = {
    "MetricCoeffs": (lambda: MetricCoeffs(0.25, 0.5, 2.0),
                     "MetricCoeffs(u=0.25, v=0.5, w=2.0)"),
    "StretchFactors": (lambda: StretchFactors(1.0, 2.0, 3.5),
                       "StretchFactors(a=1.0, b=2.0, c=3.5, r_squared=4.0)"),
    "CurvatureSummary": (lambda: curvature_summary(StretchFactors(1.0, 1.0, 2.0)),
                         "CurvatureSummary(kappa1=1.0, kappa2=1.0, kappa3=-1.0, ricci11=0.0, "
                         "ricci22=0.0, ricci33=2.0, scalar=2.0)"),
}


@pytest.mark.parametrize("name", _VALUE_TYPES)
def test_value_type_contract(name):
    make, expected_repr = _VALUE_TYPES[name]
    value = make()
    names = [f.name for f in dataclasses.fields(value)]
    first = names[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{first}'"):
        setattr(value, first, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{first}'"):
        delattr(value, first)
    assert value == make()
    assert hash(value) == hash(make())
    assert repr(value) == expected_repr
    assert names == list(type(value).__match_args__)
    assert dataclasses.astuple(value) == tuple(getattr(value, n) for n in names)
    changed = dataclasses.replace(value, **{first: 7.0})
    assert getattr(changed, first) == 7.0 and changed != value
    assert all(getattr(changed, n) == getattr(value, n) for n in names[1:])
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value)
    assert type(value)(**dataclasses.asdict(value)) == value


def test_value_types_store_their_values_as_given():
    assert StretchFactors(a=1.0, b=2.0, c=3.0) == StretchFactors(1.0, 2.0, 3.0, 4.0)
    assert StretchFactors(1.0, 2.0, 3.0).r_squared == 4.0
    assert [f.name for f in dataclasses.fields(StretchFactors)] == ["a", "b", "c", "r_squared"]
    m = MetricCoeffs(np.float64(0.5), 2, w=np.float64(3.0))
    assert (type(m.u), type(m.v), type(m.w)) == (np.float64, int, np.float64)
    f = StretchFactors(1, np.float64(2.0), 3, r_squared=8)
    assert (type(f.a), type(f.b), type(f.c), type(f.r_squared)) == (int, np.float64, int, int)
    c = CurvatureSummary(1, 2.0, np.float64(-3.0), 4, 5, 6, 7)
    assert [type(x) for x in dataclasses.astuple(c)] == [int, float, np.float64, int, int, int, int]


def test_round_trip_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = random_ordered_stretch(rng, lo=0.05, hi=20.0)
        assert_allclose(stretch_from_metric(metric_coeffs(f)),
                        (f.a, f.b, f.c), rtol=1e-12)
        # Far outside the normal range of uvw, a metric 4^j times larger has
        # stretch factors exactly 2^j times smaller.
        m = metric_coeffs(f)
        for j in (-300, 300):
            scaled = MetricCoeffs(*(math.ldexp(x, 2 * j) for x in m.as_tuple()))
            assert stretch_from_metric(scaled) == tuple(
                math.ldexp(x, -j) for x in stretch_from_metric(m))


def test_trace_identity_property():
    # Ricci eigenvalues from the product form equal pairwise kappa sums.
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        a, b, c = rng.uniform(0.05, 5.0, size=3)
        f = StretchFactors(float(a), float(b), float(c), float(rng.uniform(0.5, 8.0)))
        k1, k2, k3 = principal_curvatures(f)
        r11, r22, r33 = ricci_eigenvalues(f)
        scale = max(abs(k1), abs(k2), abs(k3))
        assert abs(r11 - (k2 + k3)) <= 1e-12 * scale
        assert abs(r22 - (k1 + k3)) <= 1e-12 * scale
        assert abs(r33 - (k1 + k2)) <= 1e-12 * scale


def test_curvature_summary_is_exact_by_construction():
    # One formula: the summary's Ricci entries are ricci_eigenvalues' bits,
    # and its scalar is their trace, summed in the order the code sums.
    f = StretchFactors(0.3, 1.1, 1.7)
    cs = curvature_summary(f)
    assert (cs.ricci11, cs.ricci22, cs.ricci33) == ricci_eigenvalues(f)
    assert cs.scalar == cs.ricci11 + cs.ricci22 + cs.ricci33
    assert isinstance(cs, CurvatureSummary)


def test_scale_law_property():
    rng = np.random.default_rng(13)
    for _ in range(500):
        f = random_ordered_stretch(rng)
        lam = float(rng.uniform(0.1, 10.0))
        g = StretchFactors(lam * f.a, lam * f.b, lam * f.c, f.r_squared)
        assert_allclose(principal_curvatures(g),
                        [lam * lam * k for k in principal_curvatures(f)],
                        rtol=1e-12)
        assert_allclose(ricci_eigenvalues(g),
                        [lam * lam * r for r in ricci_eigenvalues(f)],
                        rtol=1e-12)


def test_permutation_equivariance_is_exact():
    from itertools import permutations
    rng = np.random.default_rng(17)
    for _ in range(200):
        abc = tuple(float(x) for x in rng.uniform(0.1, 3.0, size=3))
        base_k = principal_curvatures(StretchFactors(*abc))
        base_r = ricci_eigenvalues(StretchFactors(*abc))
        for perm in permutations(range(3)):
            f = StretchFactors(abc[perm[0]], abc[perm[1]], abc[perm[2]])
            assert principal_curvatures(f) == tuple(base_k[i] for i in perm)
            assert ricci_eigenvalues(f) == tuple(base_r[i] for i in perm)


def test_degenerate_line_values():
    # a + b = c: kappas (4ab/R^2, 4ab/R^2, -4ab/R^2), Ricci (0, 0, 8ab/R^2).
    rng = np.random.default_rng(19)
    for _ in range(200):
        a, b = rng.uniform(0.1, 2.0, size=2)
        a, b = float(min(a, b)), float(max(a, b))
        r2 = float(rng.uniform(1.0, 8.0))
        f = StretchFactors(a, b, a + b, r2)
        k = principal_curvatures(f)
        r = ricci_eigenvalues(f)
        ab = 4.0 * a * b / r2
        scale = max(abs(x) for x in k)
        assert_allclose(k, (ab, ab, -ab), rtol=1e-12, atol=1e-12 * scale)
        assert abs(r[0]) <= 1e-12 * scale
        assert abs(r[1]) <= 1e-12 * scale
        assert r[2] == pytest.approx(2.0 * ab, rel=1e-12)


def test_ricci_eigenvalues_keep_their_digits_near_the_degenerate_edge():
    # At R^2 = 4 the entries of (a, 1, 1) are (a^2/2, a - a^2/2, a - a^2/2),
    # the principal curvatures (a - 3a^2/4, a^2/4, a^2/4) and the connection
    # coefficients ((a - 2)/2, -a/2, -a/2).  A rounded s = (a + 1 + 1)/2
    # makes s - b lose them all at a = 1e-20, and kappa_2 summed before it
    # subtracts keeps 7 digits at a = 1e-10 and none at 1e-20.
    for a in (1e-20, 1e-10):
        f = StretchFactors(a, 1.0, 1.0, 4.0)
        expected = (a * a / 2.0, a - a * a / 2.0, a - a * a / 2.0)
        cs = curvature_summary(f)
        for ricci in (ricci_eigenvalues(f), (cs.ricci11, cs.ricci22, cs.ricci33)):
            assert_allclose(ricci, expected, rtol=1e-15, atol=0)
        for kappas in (principal_curvatures(f), (cs.kappa1, cs.kappa2, cs.kappa3)):
            assert_allclose(kappas, (a - 0.75 * a * a, a * a / 4.0, a * a / 4.0),
                            rtol=1e-15, atol=0)
        assert_allclose(connection_coefficients(f), ((a - 2.0) / 2.0, -a / 2.0, -a / 2.0),
                        rtol=1e-15, atol=0)


def _koszul_curvatures(coeffs, r_squared: float) -> tuple[np.ndarray, np.ndarray]:
    """The mixed Ricci tensor and the sectional curvatures K(X2, X3),
    K(X1, X3), K(X1, X2) of the left-invariant metric g = R^2 diag(coeffs)
    on S^3, derived from the metric alone (Milnor, Adv. Math. 21, 1976).
    The frame X_i(q) = q e_i of the unit quaternions has brackets
    [X_i, X_j] = 2 eps_ijk X_k = bracket[i, j, k] X_k.  In doubles the sums
    cancel to 2e-14 relative near the degenerate edge, so they run in long
    double, where the platform has a wider one."""
    g = np.longdouble(r_squared) * np.diag(np.array(coeffs, np.longdouble))
    bracket = np.zeros((3, 3, 3), np.longdouble)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        bracket[i, j, k], bracket[j, i, k] = 2, -2
    # Koszul, for fields whose inner products are constant:
    # 2 g(D_i X_j, X_k) = g([X_i, X_j], X_k) - g([X_j, X_k], X_i) + g([X_k, X_i], X_j).
    low = bracket @ g
    low = (low - np.einsum("jki->ijk", low) + np.einsum("kij->ijk", low)) / 2
    inverse = np.diag(1 / np.diag(g))
    conn = low @ inverse  # D_i X_j = conn[i, j, m] X_m
    # R(X_i, X_j) X_k = D_i D_j X_k - D_j D_i X_k - D_[X_i, X_j] X_k = riemann[i, j, k, m] X_m.
    riemann = (np.einsum("jkl,ilm->ijkm", conn, conn) - np.einsum("ikl,jlm->ijkm", conn, conn)
               - np.einsum("ijl,lkm->ijkm", bracket, conn))
    ricci = np.einsum("ijki->jk", riemann)  # Ric(X_j, X_k), the trace over X_i
    sectional = [riemann[i, j, j] @ g[:, i] / (g[i, i] * g[j, j])
                 for i, j in ((1, 2), (0, 2), (0, 1))]
    return inverse @ ricci, np.array(sectional)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(*[st.floats(min_value=-6.0, max_value=6.0).map(math.exp)] * 3,
       st.floats(min_value=-3.0, max_value=3.0).map(math.exp))
def test_curvatures_match_the_koszul_connection(u, v, w, r_squared):
    # The paper's Ricci tensor, curvatures and flow against the metric
    # g = R^2 diag(u, v, w) itself: Ric^i_i = -(du_i/dt)/(2 u_i) under
    # dg/dt = -2 Ric, and (a, b, c) = (u, v, w)/sqrt(uvw) for u = 1/(bc).
    # Near the degenerate edge the curvatures magnify the rounding of
    # (a, b, c) a few hundred times, so the factors are checked against
    # the metric of the rounded factors, u = a/(abc).
    root = math.sqrt(u * v * w)
    f = StretchFactors(u / root, v / root, w / root, r_squared)
    abc = np.array([f.a, f.b, f.c], np.longdouble)
    rates = rhs(MetricCoeffs(u, v, w), r_squared)
    for coeffs, entries in (((u, v, w), [-d / (2.0 * x) for d, x in zip(rates, (u, v, w))]),
                            (abc / abc.prod(), ricci_eigenvalues(f))):
        ricci, sectional = _koszul_curvatures(coeffs, r_squared)
        assert np.all(ricci[~np.eye(3, dtype=bool)] == 0.0)
        diagonal = np.diag(ricci)
        assert np.abs(np.array(entries) - diagonal).max() <= 1e-13 * np.abs(diagonal).max()
    # sectional is the rounded factors' from the last pass.
    assert (np.abs(np.array(principal_curvatures(f)) - sectional).max()
            <= 1e-14 * np.abs(sectional).max())


def test_classify_examples():
    iso = classify(StretchFactors(1, 1, 1))
    assert iso.shape is ShapeKind.ISOTROPIC
    assert iso.curvature_signs == (1, 1, 1)
    assert iso.ricci_signs == (1, 1, 1)
    assert iso.scalar_sign == 1

    snake = classify(StretchFactors(1, 1, 2))
    assert snake.shape is ShapeKind.SNAKE
    assert snake.ricci_signs == (0, 0, 1)
    assert snake.curvature_signs == (1, 1, -1)

    turtle = classify(StretchFactors(1, 2, 2))
    assert turtle.shape is ShapeKind.TURTLE

    # Near the degenerate edge R22 = R33 are as large as the largest kappa,
    # far above the deadband, also where s = (a + b + c)/2 rounds to b = c.
    for a in (1e-20, 1e-16):
        edge = classify(StretchFactors(a, 1, 1))
        assert edge.shape is ShapeKind.DEGENERATE
        assert edge.ricci_signs == (0, 1, 1)


def test_classify_accepts_unordered_input():
    assert classify(StretchFactors(2, 1, 1)).shape is ShapeKind.SNAKE
    assert classify(StretchFactors(2, 2, 1)).shape is ShapeKind.TURTLE


def test_classify_tolerance_behavior():
    # Pairwise equality is judged relative to the largest factor.
    assert classify(StretchFactors(1.0, 1.0 + 1.9e-9, 2.0)).shape is ShapeKind.SNAKE
    assert classify(StretchFactors(1.0, 1.0 + 4e-9, 2.0)).shape is ShapeKind.DRAGON
    assert classify(StretchFactors(1e-12, 1.0, 2.0)).shape is ShapeKind.DEGENERATE
    assert classify(StretchFactors(0.9, 1.0, 1.1)).shape is ShapeKind.DRAGON


def test_classification_is_value_type():
    c = classify(StretchFactors(1, 1, 2))
    assert isinstance(c, Classification)
    assert c == classify(StretchFactors(1, 1, 2))


#: Stretch factors spanning twelve decades, so draws reach every part of
#: the shape triangle, the degenerate shapes (a <= eq_tol c) included.
factors = st.floats(min_value=1e-6, max_value=1e6)


@settings(max_examples=300, deadline=None)
@given(factors, factors, factors, st.floats(min_value=1e-150, max_value=1e150))
def test_classify_scale_invariance_property(a, b, c, scale):
    # kappa goes as l^2: at l = 1e150 the curvatures of the scaled factors
    # overflow, at 1e-150 they underflow, yet no sign may change.
    scaled = StretchFactors(scale * a, scale * b, scale * c)
    assert classify(scaled) == classify(StretchFactors(a, b, c))


@settings(max_examples=300, deadline=None)
@given(factors, factors, factors)
def test_classify_permutation_property(a, b, c):
    from itertools import permutations
    abc = (a, b, c)
    base = classify(StretchFactors(*abc))
    for perm in permutations(range(3)):
        result = classify(StretchFactors(*(abc[i] for i in perm)))
        assert result.shape is base.shape
        assert result.scalar_sign == base.scalar_sign
        assert result.curvature_signs == tuple(base.curvature_signs[i] for i in perm)
        assert result.ricci_signs == tuple(base.ricci_signs[i] for i in perm)


def test_classify_signs_at_extreme_scales():
    # The dragon (1, 2, 3) lies on the degenerate-Ricci line a + b = c.
    expected = ((1, 1, -1), (0, 0, 1), 1)
    for scale in (1e-170, 1e-160, 1.0, 1e160, 1e200, 1e300):
        got = classify(StretchFactors(scale, 2.0 * scale, 3.0 * scale))
        assert (got.curvature_signs, got.ricci_signs, got.scalar_sign) == expected
    for scale in (1e-300, 1e200, 1e308):
        got = classify(StretchFactors(scale, scale, scale, r_squared=scale))
        assert got.shape is ShapeKind.ISOTROPIC
        assert (got.curvature_signs, got.ricci_signs, got.scalar_sign) == ((1, 1, 1), (1, 1, 1), 1)


def test_ordered_constructor():
    f = StretchFactors.ordered(1.0, 2.0, 3.0)
    assert (f.a, f.b, f.c) == (1.0, 2.0, 3.0)


def test_sorted_helper():
    f = StretchFactors(3.0, 1.0, 2.0, r_squared=9.0)
    g = f.sorted()
    assert (g.a, g.b, g.c, g.r_squared) == (1.0, 2.0, 3.0, 9.0)


def test_sigma_on_demand():
    assert MetricCoeffs(1.0, 2.0, 3.0).sigma == 3.0
    assert MetricCoeffs(1e308, 1e308, 1e308).sigma == 1.5e308
