import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import danteflow.flow as flow
import danteflow.shapespace as shapespace
from conftest import edge_start, random_interior_point, random_ordered_stretch
from danteflow.errors import DomainError, IntegrationFailureError, SingularSlopeError
from danteflow.flow import FlowParams, Termination, Trajectory, _field, integrate
from danteflow.geometry import (StretchFactors, metric_coeffs, principal_curvatures,
                                ricci_eigenvalues)
from danteflow.shapespace import (KAPPA_MIN_ZERO, RICCI_DEGENERATE,
                                  SCALAR_ZERO, VERTEX_DELTA, ShapePoint, _trace_branches,
                                  from_xy, region_boundaries, slope, to_rho_tau, to_xy,
                                  trace_flowline)

#: Interior starts: x in [0.02, 1.98], y a fraction in [0.02, 0.98] of the
#: triangle's height min(x, 2 - x) there.
interior_starts = st.builds(
    lambda x, s: ShapePoint(x, s * min(x, 2.0 - x)),
    st.floats(min_value=0.02, max_value=1.98),
    st.floats(min_value=0.02, max_value=0.98))


#: The 5x5 grid of acceptance criterion 5 (and of `flowlines --grid 5x5`).
GRID_5X5 = [ShapePoint(2.0 * i / 6.0, min(2.0 * i / 6.0, 2.0 - 2.0 * i / 6.0) * j / 6.0)
            for i in range(1, 6) for j in range(1, 6)]


def test_to_xy_examples():
    assert to_xy(StretchFactors(1, 1, 1)) == ShapePoint(2.0, 0.0)
    assert to_xy(StretchFactors(1, 1, 2)) == ShapePoint(1.0, 0.0)
    assert to_xy(StretchFactors(1, 2, 2)) == ShapePoint(1.5, 0.5)
    # a + b past the largest float: an int sum raised OverflowError in math.isfinite.
    assert to_xy(StretchFactors(10**308, 10**308, 10**308)) == ShapePoint(2.0, 0.0)


def test_from_xy_examples():
    f = from_xy(ShapePoint(2.0, 0.0), 1.0)
    assert (f.a, f.b, f.c) == (1.0, 1.0, 1.0)
    f = from_xy(ShapePoint(1.0, 0.0), 2.0)
    assert (f.a, f.b, f.c) == (1.0, 1.0, 2.0)
    # c (x + y) past the largest float: b, and at (2, 0) a too, overflowed to inf.
    f = from_xy(ShapePoint(1.5, 0.5), 1e308)
    assert (f.a, f.b, f.c) == (5e307, 1e308, 1e308)
    big = sys.float_info.max
    f = from_xy(ShapePoint(2.0, 0.0), big)
    assert (f.a, f.b, f.c) == (big, big, big)


def test_round_trip_property():
    rng = np.random.default_rng(53)
    for _ in range(500):
        p = random_interior_point(rng)
        c = float(rng.uniform(0.2, 5.0))
        q = to_xy(from_xy(p, c))
        assert q.x == pytest.approx(p.x, rel=1e-12)
        assert q.y == pytest.approx(p.y, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0), st.booleans())
def test_from_xy_lifts_every_ordered_shape(log_c, a_share, b_share, turtle):
    # to_xy of a turtle (b = c) can round x + y up to 2 + ulp(2), which
    # from_xy rejected as outside the triangle.
    c = 10.0 ** log_c
    a = a_share * c
    b = c if turtle else min(a + b_share * (c - a), c)
    lifted = from_xy(to_xy(StretchFactors(a, b, c)))
    assert lifted.c == 1.0 and lifted.a <= lifted.b <= 1.0
    assert lifted.a == pytest.approx(a / c, rel=1e-12)
    assert lifted.b == pytest.approx(b / c, rel=1e-12)


def test_flowline_from_a_turtle_point_past_the_edge_by_one_ulp():
    # A start that `classify` prints for this turtle; `flowlines --starts`
    # exited 3 on it.  It lies on the turtle edge, so it starts at Q = +inf.
    start = to_xy(StretchFactors(5.03829522255209, 5.088673852916151, 5.088673852916151))
    assert start.x + start.y == 2.0 + math.ulp(2.0)
    line = trace_flowline(start)
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA
    assert (line.xs[0], line.ys[0]) == pytest.approx((1.0, 1.0), abs=1e-8)  # backward to (1, 1)


def test_to_xy_is_scale_invariant():
    rng = np.random.default_rng(59)
    for _ in range(200):
        f = random_ordered_stretch(rng)
        lam = float(rng.uniform(0.1, 10.0))
        g = StretchFactors(lam * f.a, lam * f.b, lam * f.c)
        p, q = to_xy(f), to_xy(g)
        assert q.x == pytest.approx(p.x, rel=1e-14, abs=0.0)
        assert q.y == pytest.approx(p.y, rel=1e-14, abs=1e-16)


def test_slope_examples():
    assert slope(ShapePoint(0.8, 0.0)) == 0.0
    assert slope(ShapePoint(1.5, 0.5)) == pytest.approx(-1.0, rel=1e-15, abs=0.0)
    x = 1.2
    on_circle = ShapePoint(x, math.sqrt(2.0 - x * x))
    assert abs(slope(on_circle)) < 1e-14


def test_slope_matches_projected_flow():
    rng = np.random.default_rng(61)
    checked = 0
    for _ in range(1000):
        p = random_interior_point(rng)
        try:
            s = slope(p)
        except SingularSlopeError:
            continue
        # The tracer's logit field, mapped back through dp = p(1 - p) dP:
        # dy/dx = (dq - dp)/(dq + dp).  Criterion 7 checks the slope against
        # the (u, v, w) flow projected onto the triangle.
        a, b = (p.x - p.y) / 2.0, (p.x + p.y) / 2.0
        dP, dQ, _ = _field(math.log(a / (1.0 - a)), math.log(b / (1.0 - b)), 0.0, 1.0)
        dp, dq = a * (1.0 - a) * dP, b * (1.0 - b) * dQ
        assert abs(s - (dq - dp) / (dq + dp)) <= 1e-10 * max(abs(s), 1e-12)
        checked += 1
    assert checked > 990


def test_to_rho_tau_examples():
    r = to_rho_tau(ShapePoint(2.0, 0.0))
    assert (r.rho, r.tau) == (1.0, 1.0)
    r = to_rho_tau(ShapePoint(1.0, 0.5))
    assert (r.rho, r.tau) == (0.0, 0.0)
    r = to_rho_tau(ShapePoint(0.0, 0.0))
    assert (r.rho, r.tau) == (-1.0, -1.0)


def test_rho_tau_sign_structure():
    rng = np.random.default_rng(67)
    for _ in range(300):
        p = random_interior_point(rng)
        r = to_rho_tau(p)
        if abs(p.x - 1.0) > 1e-12:
            assert math.copysign(1, r.rho) == math.copysign(1, p.x - 1.0)
            assert math.copysign(1, r.tau) == math.copysign(1, p.x - 1.0)


def test_flowline_edge_invariance():
    line = trace_flowline(ShapePoint(0.8, 0.0))
    assert np.max(np.abs(line.ys)) <= 1e-9
    line = trace_flowline(ShapePoint(1.5, 0.5))
    assert np.max(np.abs(line.ys - (2.0 - line.xs))) <= 1e-9


def test_flowline_never_falls_below_the_snake_edge():
    # Within about 1e-12 of the snake edge the backward branch's stop row
    # is interpolated where P and Q round separately; P ending above Q put
    # that row at y < 0, outside the triangle.
    for start in (ShapePoint(1.9, 1e-13),
                  ShapePoint(1.8432191276511438, 7.033800834939571e-13),
                  ShapePoint(1.972552884829753, 5.242568765218693e-14)):
        assert trace_flowline(start).ys.min() >= 0.0


def test_flowline_snake_edge_apex_is_on_the_circle():
    # y = 0 along the snake edge, and its apex is the limit of the apexes
    # of the lines above it, (sqrt 2, 0), reached forward or backward.  A
    # turtle-edge line never meets the circle and reports its highest
    # sample, the backward end near (1, 1).
    for x in (0.3, 1.0, 1.7):
        apex = trace_flowline(ShapePoint(x, 0.0)).apex
        assert apex.y == 0.0
        assert apex.x == pytest.approx(math.sqrt(2.0), rel=0.0, abs=1e-14)
    line = trace_flowline(ShapePoint(1.5, 0.5))
    assert line.apex == ShapePoint(line.xs[0], line.ys[0])


def test_flowline_interior_apex_and_endpoint():
    line = trace_flowline(ShapePoint(0.5, 0.25))
    assert line.apex.x ** 2 + line.apex.y ** 2 == pytest.approx(2.0, abs=1e-4)
    assert line.xs[-1] == pytest.approx(2.0, abs=1e-4)
    assert line.ys[-1] == pytest.approx(0.0, abs=1e-4)
    assert np.all(np.diff(line.xs) > 0)
    # Backward extension reaches toward the origin corner.
    assert line.xs[0] < 0.01 and line.times[0] < 0.0


def test_flowline_start_past_circle_needs_backward_branch():
    line = trace_flowline(ShapePoint(1.7, 0.2))
    assert line.apex.x ** 2 + line.apex.y ** 2 == pytest.approx(2.0, abs=1e-4)
    forward_only = trace_flowline(ShapePoint(1.7, 0.2), include_backward=False)
    assert forward_only.xs[0] == pytest.approx(1.7, abs=1e-12)
    assert forward_only.apex.y <= 0.2 + 1e-12


def test_flowline_scale_independence():
    a = trace_flowline(ShapePoint(0.7, 0.2), c0=1.0)
    b = trace_flowline(ShapePoint(0.7, 0.2), c0=3.0)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert a.apex == b.apex


@settings(max_examples=25, deadline=None)
@given(interior_starts, st.floats(min_value=1e-3, max_value=1e3))
def test_flowline_scale_invariance_property(start, c0):
    # c0 enters only through w0 = w(0), which scales time as 1/c0^2.
    base = trace_flowline(start)
    line = trace_flowline(start, c0=c0)
    assert np.array_equal(line.xs, base.xs) and np.array_equal(line.ys, base.ys)
    assert line.apex == base.apex
    assert np.allclose(line.times, base.times / c0 ** 2, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(interior_starts)
def test_flowline_properties(start):
    line = trace_flowline(start)
    vertices = ((2.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA
    assert min(math.hypot(line.xs[0] - vx, line.ys[0] - vy)
               for vx, vy in vertices) <= VERTEX_DELTA
    assert np.all(np.diff(line.xs) > 0.0)
    assert np.all(np.diff(line.times) >= 0.0)
    at_zero = np.flatnonzero(line.times == 0.0)
    assert len(at_zero) == 1
    i = int(at_zero[0])
    assert abs(line.xs[i] - start.x) <= 1e-15 and abs(line.ys[i] - start.y) <= 1e-15
    assert abs(line.apex.x ** 2 + line.apex.y ** 2 - 2.0) <= 1e-7


def test_flowline_times_match_integrate():
    # The quadrature times put the (u, v, w) integration on the traced line.
    for start in (ShapePoint(0.5, 0.25), ShapePoint(1.7, 0.2), ShapePoint(0.8, 0.0),
                  ShapePoint(1.5, 0.5), ShapePoint(0.3, 0.1)):
        line = trace_flowline(start)
        forward = line.times >= 0.0
        coeffs = integrate(metric_coeffs(from_xy(start))).sample_at(line.times[forward])
        u, v, w = coeffs.T
        assert np.max(np.abs((u + v) / w - line.xs[forward])) <= 1e-7
        assert np.max(np.abs((v - u) / w - line.ys[forward])) <= 1e-7


def test_flowline_times_are_converged_in_the_panels(monkeypatch):
    # Panels a hundred times finer than PANEL_LOG_RATE = 0.5 move no time
    # of the 5x5 grid by more than 1e-13 relative.
    coarse = [trace_flowline(start).times for start in GRID_5X5]
    monkeypatch.setattr(flow, "PANEL_LOG_RATE", 0.005)
    for start, times in zip(GRID_5X5, coarse):
        fine = trace_flowline(start).times
        assert np.all(np.abs(times - fine) <= 1e-13 * np.abs(fine))


def test_flowline_from_round_corner_is_one_point():
    # A start within VERTEX_DELTA of the round corner (2, 0) takes no step on
    # either branch.  Near the origin or (1, 1) only the backward branch
    # stops at once; the forward one runs on toward (2, 0).
    line = trace_flowline(ShapePoint(2.0, 0.0))
    assert line.xs.tolist() == [2.0] and line.ys.tolist() == [0.0]
    assert line.times.tolist() == [0.0]
    assert line.apex == ShapePoint(2.0, 0.0)


def test_flowline_near_degenerate_edge_ends_at_round_corner():
    # From these starts the forward branch runs up the degenerate edge and
    # passes within VERTEX_DELTA of (1, 1).  It must go on to (2, 0) or
    # raise, never end at (1, 1) as if that were the round corner.
    for gap in (1e-10, 1e-12):
        try:
            line = trace_flowline(ShapePoint(0.5, 0.5 - gap), include_backward=False)
        except IntegrationFailureError:
            continue
        assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA


VERTICES = ((2.0, 0.0), (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("start", [
    ShapePoint(1e-10, 5e-11), ShapePoint(3e-10, 1e-10),
    ShapePoint(1.0 - 2e-10, 1.0 - 3e-10), ShapePoint(1.0 + 1e-10, 1.0 - 1e-10),
], ids=["origin", "origin-wider", "one-one", "one-one-turtle-edge"])
def test_flowline_from_near_a_backward_vertex_ends_at_round_corner(start):
    # A start within VERTEX_DELTA of the origin or (1, 1) is past the
    # backward branch's stop, so that branch takes no step; the forward
    # branch stops only at (2, 0).  These were one-point lines.
    assert min(math.hypot(start.x - vx, start.y - vy)
               for vx, vy in VERTICES[1:]) <= VERTEX_DELTA
    line = trace_flowline(start)
    assert (line.xs[0], line.ys[0], line.times[0]) == (start.x, start.y, 0.0)
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA
    if start.x + start.y < 2.0:  # interior: the apex is on the circle
        assert abs(line.apex.x ** 2 + line.apex.y ** 2 - 2.0) <= 1e-12


def test_flowline_from_near_one_one_in_the_cancellation_regime_ends_at_round_corner():
    # p = (x - y)/2 = 5e-13: ROADMAP item 1's regime, where the forward
    # branch may run out of steps, but never ends at (1, 1).
    try:
        line = trace_flowline(ShapePoint(1.0 - 1e-10, 1.0 - 1e-10 - 1e-12))
    except IntegrationFailureError:
        return
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["snake", "turtle", "degenerate"]),
       st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=-12.0, max_value=-1.7))
def test_flowline_ends_near_every_edge_lie_within_vertex_delta(edge, share, log_height):
    # Starts at heights of 10^-12 to 10^-1.7 times the triangle's toward each edge.
    try:
        line = trace_flowline(edge_start(edge, share, log_height))
    except IntegrationFailureError:
        if edge == "degenerate":  # as test_flowline_near_degenerate_edge_... allows
            return
        raise
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA
    assert min(math.hypot(line.xs[0] - vx, line.ys[0] - vy)
               for vx, vy in VERTICES) <= VERTEX_DELTA


def test_points_on_the_vertex_thresholds_report_rows_within_vertex_delta():
    # The stops are thresholds on logistic tails, not distances: on each
    # threshold, and at its corner, where the bound 2 max(tail) is tight,
    # the row that the line would report still lies within VERTEX_DELTA.
    r = flow.ROUND_LOGIT
    rng = np.random.default_rng(83)
    free = np.concatenate([[0.0, 1e-9, 1e-3], rng.uniform(0.0, 20.0, 200), [math.inf]])
    points = [((2.0, 0.0), (r, r + d)) for d in free]
    points += [((0.0, 0.0), (-r - d, -r)) for d in free]
    points += [((1.0, 1.0), (-r - d, r)) for d in free]
    points += [((1.0, 1.0), (-r, r + d)) for d in free]
    for (vx, vy), (P, Q) in points:
        assert shapespace._vertex_margin(P, Q, 0.0) <= 0.0
        x, y, _ = shapespace._row(P, Q)
        assert math.hypot(x - vx, y - vy) <= VERTEX_DELTA, (P, Q)
    # The forward stop, the one integrate shares, takes only the round corner.
    assert flow._round_corner_margin(r, r, 0.0) <= 0.0
    assert flow._round_corner_margin(-r, r, 0.0) > 0.0


def _row_reference(P, Q):
    # _row as two calls of the overflow-safe logistic pair (l(z), l(-z)).
    def pair(z):
        e = math.exp(-abs(z))
        return (1.0 / (1.0 + e), e / (1.0 + e)) if z >= 0.0 else (e / (1.0 + e), 1.0 / (1.0 + e))
    (p, p1), (q, q1) = pair(min(P, Q)), pair(Q)
    return p + q, (q - p if q < 0.5 else p1 - q1), q1 * (1.0 + q) - p * p


#: Logits at and past the ends of exp's range, at the vertex thresholds and
#: around zero, signed zeros included.
EXTREME_LOGITS = [-math.inf, -800.0, -745.0, -flow.ROUND_LOGIT, -0.5, -1e-300, -0.0, 0.0,
                  1e-300, 0.5, flow.ROUND_LOGIT, 745.0, 800.0, math.inf]


@pytest.mark.parametrize("P", EXTREME_LOGITS)
def test_row_is_the_logistic_pair_form_bit_for_bit(P):
    # Rows are output bytes: the inlined pairs must round as the calls did.
    # P > Q too, as on a row where P rounds above Q near the snake edge.
    for Q in EXTREME_LOGITS:
        row = shapespace._row(P, Q)
        assert np.array(row).tobytes() == np.array(_row_reference(P, Q)).tobytes(), (P, Q, row)


#: Floats where _vertex_margin's terms cancel or tie: a few ulp around
#: +-ROUND_LOGIT, signed zeros, the infinities and NaN.
MARGIN_FLOATS = st.one_of(st.sampled_from(
    [sign * (flow.ROUND_LOGIT + k * math.ulp(flow.ROUND_LOGIT))
     for sign in (1.0, -1.0) for k in range(-3, 4)] + [0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(MARGIN_FLOATS, MARGIN_FLOATS, MARGIN_FLOATS)
@example(-1.0, math.nan, 0.0)  # max keeps its first term against a NaN second
@example(math.nan, -1.0, 0.0)
def test_vertex_margin_is_the_min_max_form_bit_for_bit(P, Q, L):
    # The stop margin of every backward branch: comparisons in place of min
    # and max must keep each value, NaN and the sign of zero included.
    R = flow.ROUND_LOGIT
    reference = min(flow._round_corner_margin(P, Q, L), Q + R, max(P + R, R - Q))
    assert shapespace._vertex_margin(P, Q, L).hex() == reference.hex(), (P, Q, L)


def test_vertex_stops_take_few_root_finder_evaluations(monkeypatch):
    # Each branch stops on its vertex through _bracket_crossing; an apex
    # re-step, if any, comes after.  The stops are thresholds on logistic
    # tails, which are smooth in sigma; a distance measured on the rounded
    # (x, y) took up to 51 evaluations.
    bracket, counts = flow._bracket_crossing, []

    def counting(f, *args):
        calls = []
        found = bracket(lambda s: calls.append(s) or f(s), *args)
        counts.append(len(calls))
        return found

    monkeypatch.setattr(flow, "_bracket_crossing", counting)
    for start in GRID_5X5:
        for direction in (1.0, -1.0):
            counts.clear()
            _trace_branches(start, 1.0, (direction,), FlowParams())
            assert 1 <= counts[0] <= 8, (start, direction, counts)


@pytest.mark.parametrize("max_steps", [40, 30])
def test_flowline_truncated_forward_branch_raises(max_steps):
    # 40 steps stop the forward branch near x = 1.05, far from collapse at
    # (2, 0); the tracer must not report the last sample as an apex.  At 30
    # the backward branch, which needs 40, stops short too: the forward
    # branch is stepped and fails first.
    with pytest.raises(IntegrationFailureError) as excinfo:
        trace_flowline(ShapePoint(0.5, 0.25), params=FlowParams(max_steps=max_steps))
    assert str(excinfo.value) == ("forward branch from (0.5, 0.25) stopped short of a vertex "
                                  f"after {max_steps} steps: max_steps")
    forward = excinfo.value.trajectory
    assert isinstance(forward, Trajectory)
    assert forward.terminated is Termination.MAX_STEPS
    assert len(forward) == max_steps + 1
    with pytest.raises(DomainError, match="no dense output"):
        forward.sample_at(0.0)


def test_flowline_step_size_failure_raises():
    # Tolerances far below rounding: the forward branch's steps shrink until
    # they underflow.  How many steps it takes first is rounding noise.
    with pytest.raises(IntegrationFailureError) as excinfo:
        trace_flowline(ShapePoint(0.75, 0.25),
                       params=FlowParams(rel_tol=1e-300, abs_tol=1e-300))
    message = str(excinfo.value)
    assert message.startswith(
        "forward branch from (0.75, 0.25) stopped short of a vertex after ")
    assert message.endswith(" steps: Required step size is less than spacing between numbers.")
    assert excinfo.value.trajectory.terminated is Termination.FAILED


def test_flowline_turtle_edge_backward_heads_to_corner():
    line = trace_flowline(ShapePoint(1.9, 0.1))
    assert line.xs[0] < 1.2  # backward along the turtle edge approaches (1, 1)
    assert line.ys[0] == pytest.approx(2.0 - line.xs[0], abs=1e-9)


def test_flowline_truncated_backward_branch_raises():
    # Along the turtle edge (Q = +inf) the forward branch reaches (2, 0) in
    # 51 steps, the backward one needs 329 to reach (1, 1).
    start = ShapePoint(1.5, 0.5)
    assert len(trace_flowline(start, include_backward=False)) < 300
    with pytest.raises(IntegrationFailureError) as excinfo:
        trace_flowline(start, params=FlowParams(max_steps=300))
    backward = excinfo.value.trajectory
    assert isinstance(backward, Trajectory)
    assert backward.terminated is Termination.MAX_STEPS
    assert len(backward) == 301
    # Forward in time, ending at the start.
    assert np.all(np.diff(backward.times) > 0.0) and backward.times[-1] == 0.0
    m0 = metric_coeffs(from_xy(start))
    assert np.allclose(backward.coeffs[-1], m0.as_tuple(), rtol=1e-15, atol=0.0)


def test_flowline_grid_step_budget():
    # The logit field takes 2,787 steps on this grid, both branches and the
    # apex re-steps not counted; the polynomial field in (p, q) took 9,295.
    assert sum(len(trace_flowline(start)) - 1 for start in GRID_5X5) <= 3500


def polynomial_field(sigma, state, direction):
    # The flow-line field in (p, q, L) = (a/c, b/c, ln(w/w0)): an independent
    # form of the tracer's logit field.
    p, q, _ = state
    k = 2.0 * direction
    y = q - p
    return [k * p * (1.0 - p) * (1.0 - y), k * q * (1.0 - q) * (1.0 + y),
            -0.5 * k * (1.0 - y) * (1.0 + y)]


def test_flowline_branches_and_apexes_match_dop853():
    # One reference solve per branch checks its rows and its apex.  The apex
    # lies on the circle by construction, so only an independent integration
    # shows that it also lies on the traced line: y's maximum is where
    # dq - dp of the polynomial field falls through zero.  The event is not
    # terminal, so the count of maxima covers the whole branch.
    from scipy.integrate import solve_ivp

    def y_rate(sigma, state, direction):
        dp, dq, _ = polynomial_field(sigma, state, direction)
        return dq - dp

    y_rate.direction = -1.0
    for start in GRID_5X5:
        for direction in (1.0, -1.0):
            [(run, _, _, apex)] = _trace_branches(start, 1.0, (direction,), FlowParams())
            p0, q0 = (start.x - start.y) / 2.0, (start.x + start.y) / 2.0
            ref = solve_ivp(polynomial_field, (0.0, run.sigma[-1]), [p0, q0, 0.0],
                            method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True,
                            events=y_rate, args=(direction,))
            p, q, L = ref.sol(run.sigma)
            P, Q, logit_L = run.states.T
            lp, lq = 1.0 / (1.0 + np.exp(-P)), 1.0 / (1.0 + np.exp(-Q))
            assert np.max(np.abs(lp + lq - (p + q))) <= 1e-9
            assert np.max(np.abs(lq - lp - (q - p))) <= 1e-9
            assert np.max(np.abs(logit_L - L)) <= 1e-9
            apexes = [] if apex is None else [apex]
            maxima = ref.y_events[0]
            assert len(apexes) == len(maxima)
            for apex, (p, q, _) in zip(apexes, maxima):
                assert math.hypot(apex.x - (p + q), apex.y - (q - p)) <= 1e-10


def test_flowline_apexes_near_the_snake_edge_match_dop853():
    # Near the snake edge dy/dsigma = k y (1 - p^2 - q^2) is tiny, and a
    # rate formed as a difference of O(1) terms cancels to noise there.  The
    # reference locates the apex on 1 - p^2 - q^2 itself.
    from scipy.integrate import solve_ivp

    for share in (1e-6, 1e-8, 1e-10, 1e-12):
        for x in (0.3, 0.8, 1.2, 1.6, 1.9):
            start = ShapePoint(x, share * min(x, 2.0 - x))
            for direction in (1.0, -1.0):
                def inside(sigma, state, direction):
                    p, q, _ = state
                    return direction * (1.0 - p * p - q * q)  # dy/dsigma over 2y

                inside.terminal, inside.direction = True, -1.0
                [(run, _, _, apex)] = _trace_branches(start, 1.0, (direction,), FlowParams())
                apexes = [] if apex is None else [apex]
                p0, q0 = (start.x - start.y) / 2.0, (start.x + start.y) / 2.0
                ref = solve_ivp(polynomial_field, (0.0, run.sigma[-1]), [p0, q0, 0.0],
                                method="DOP853", rtol=1e-13, atol=1e-16,
                                events=inside, args=(direction,))
                maxima = ref.y_events[0]
                assert len(apexes) == len(maxima)
                for apex, (p, q, _) in zip(apexes, maxima):
                    assert math.hypot(apex.x - (p + q), apex.y - (q - p)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.02, max_value=1.98),
       st.floats(min_value=-12.0, max_value=math.log10(0.98)))
def test_flowline_apex_law_property(x, log_share):
    # Over the whole triangle, down to heights of 1e-12 times the
    # triangle's, every interior line peaks on the circle x^2 + y^2 = 2.
    line = trace_flowline(ShapePoint(x, 10.0 ** log_share * min(x, 2.0 - x)))
    assert abs(math.hypot(line.apex.x, line.apex.y) - math.sqrt(2.0)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(interior_starts, st.floats(min_value=0.5, max_value=10.0), st.sampled_from([1.0, -1.0]))
def test_flowline_exact_clock_property(start, r_squared, direction):
    # dP/dsigma + dQ/dsigma = 2k exactly, so P + Q is a clock for sigma, the
    # R^2 = 4 clock (k = 2 direction) at every R^2.
    [(run, _, _, _)] = _trace_branches(start, 1.0, (direction,),
                                       FlowParams(r_squared=r_squared))
    P, Q, _ = run.states.T
    drift = P + Q - 2.0 * (2.0 * direction) * run.sigma - (P[0] + Q[0])
    assert np.max(np.abs(drift)) <= 1e-9


def test_flowline_apex_restep_stopping_short_raises(monkeypatch):
    # At 1e-200 times the tolerances the re-step runs into max_steps; the
    # line must fail rather than keep an apex from the coarse step.
    monkeypatch.setattr(shapespace, "APEX_TOL_FACTOR", 1e-200)
    with pytest.raises(IntegrationFailureError, match="apex re-step"):
        trace_flowline(ShapePoint(0.5, 0.25))


def test_flowline_tiny_abs_tol_is_not_a_zero_division():
    # The L = 0 start made the initial-step norm overflow and the first step
    # zero, which raised a bare ZeroDivisionError.
    start = ShapePoint(1.0, 0.5)
    try:
        line = trace_flowline(start, params=FlowParams(abs_tol=1e-160))
    except IntegrationFailureError:
        return
    # The first steps are far below ulp(x), so x only never decreases.
    assert math.hypot(line.xs[-1] - 2.0, line.ys[-1]) <= VERTEX_DELTA
    assert np.all(np.diff(line.xs) >= 0.0)
    assert abs(line.apex.x ** 2 + line.apex.y ** 2 - 2.0) <= 1e-7


def normalized_kappa_min(x: float, y: float) -> float:
    kappas = principal_curvatures(from_xy(ShapePoint(x, y)))
    return min(kappas) / max(abs(k) for k in kappas)


def normalized_scalar(x: float, y: float) -> float:
    kappas = principal_curvatures(from_xy(ShapePoint(x, y)))
    return 2.0 * sum(kappas) / (6.0 * max(abs(k) for k in kappas))


def test_region_boundaries_zero_on_loci():
    bounds = region_boundaries(32)
    for x, y in bounds[KAPPA_MIN_ZERO]:
        assert abs(normalized_kappa_min(float(x), float(y))) < 1e-10
    for x, y in bounds[SCALAR_ZERO]:
        assert abs(normalized_scalar(float(x), float(y))) < 1e-10
    for x, y in bounds[RICCI_DEGENERATE]:
        assert x == 1.0
        if y < 1.0:  # the top corner itself is the degenerate shape
            r11, r22, _ = ricci_eigenvalues(from_xy(ShapePoint(float(x), float(y))))
            kappas = principal_curvatures(from_xy(ShapePoint(float(x), float(y))))
            scale = max(abs(k) for k in kappas)
            assert abs(r11) < 1e-10 * scale
            assert abs(r22) < 1e-10 * scale


def test_region_boundary_intercepts():
    # Hand algebra on the y = 0 restriction with a = b = 1, c = 2/x:
    # scalar ~ c - c^2/4 vanishes at c = 4 (x = 1/2); the smallest principal
    # curvature ~ c(1 - 3c/4) vanishes at c = 4/3 (x = 3/2).
    bounds = region_boundaries(16)
    assert bounds[SCALAR_ZERO][0, 0] == 0.5
    assert bounds[SCALAR_ZERO][0, 1] == 0.0
    assert bounds[KAPPA_MIN_ZERO][-1, 0] == 1.5
    assert bounds[KAPPA_MIN_ZERO][-1, 1] == 0.0


def test_region_boundaries_terminate_at_top_corner():
    res = 64
    bounds = region_boundaries(res)
    first = bounds[KAPPA_MIN_ZERO][0]
    assert abs(first[0] - 1.0) < 2.0 / res
    assert abs(first[1] - 1.0) < 0.05
    last = bounds[SCALAR_ZERO][-1]
    assert abs(last[0] - 1.0) < 2.0 / res
    assert abs(last[1] - 1.0) < 0.05


def test_region_boundaries_sign_structure():
    # Signs on either side of each locus match the classification chart.
    assert normalized_kappa_min(1.2, 0.05) < 0  # left of the kappa locus
    assert normalized_kappa_min(1.8, 0.05) > 0  # round corner side
    assert normalized_scalar(0.3, 0.05) < 0     # thin-snake side
    assert normalized_scalar(1.5, 0.2) > 0


def test_region_boundaries_deterministic():
    a = region_boundaries(16)
    b = region_boundaries(16)
    for key in (SCALAR_ZERO, KAPPA_MIN_ZERO, RICCI_DEGENERATE):
        assert np.array_equal(a[key], b[key])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=16, max_value=2048))
def test_region_boundaries_property(resolution):
    bounds = region_boundaries(resolution)
    assert [len(bounds[k]) for k in (SCALAR_ZERO, KAPPA_MIN_ZERO, RICCI_DEGENERATE)] \
        == [resolution, resolution, resolution + 1]
    for key, oracle in ((SCALAR_ZERO, normalized_scalar),
                        (KAPPA_MIN_ZERO, normalized_kappa_min)):
        xs, ys = bounds[key][:, 0], bounds[key][:, 1]
        assert np.all(np.diff(xs) > 0.0)
        assert np.all((0.0 <= ys) & (ys <= xs) & (ys <= 2.0 - xs))
        for x, y in zip(xs, ys):
            assert abs(oracle(float(x), float(y))) < 1e-10
