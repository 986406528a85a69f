"""Tests of the benchmark's references, checks and statistics helpers.

    python3 -m pytest benchmarks -q

None of these import danteflow: the references must stand apart from it.
"""
import math

import numpy as np
import pytest

import references as ref
import workloads as wl
from refspeed import (NOMINAL_REF_S, OpRecord, percentile, samples_beyond,
                      scale_factor, summarize, tail_percentile)

# Snake (W = 1) and turtle (U = 1) collapse times at R^2 = 4, published in
# the package's acceptance tests.
SNAKE_T = {0.25: 0.960545561547846, 1.0: 0.6426990816987241, 4.0: 0.1951389726643864}
TURTLE_T = {0.25: 1.044158957099324, 0.5: 1.2159728110007215, 0.9: 3.4494786638035433}


def test_snake_closed_form():
    assert ref.snake_collapse_time(1.0, 1.0) == pytest.approx(0.25 + math.pi / 8, rel=1e-15)
    for alpha, T in SNAKE_T.items():
        assert ref.snake_collapse_time(1.0, alpha) == pytest.approx(T, rel=1e-14)
    assert ref.snake_collapse_time(3.0, 0.0) == 3.0  # the round limit
    assert ref.snake_collapse_time(1.0, 1.0, r_squared=8.0) == pytest.approx(
        2.0 * ref.snake_collapse_time(1.0, 1.0), rel=1e-15)


def test_turtle_closed_form():
    for beta, T in TURTLE_T.items():
        assert ref.turtle_collapse_time(1.0, beta) == pytest.approx(T, rel=1e-14)
    assert ref.turtle_collapse_time(2.0, 0.0) == 2.0
    assert ref.turtle_collapse_time(1.0, 1e-9) == pytest.approx(1.0, rel=1e-15)


def test_round_sphere():
    assert ref.round_collapse_time(1.0) == 1.0
    assert ref.round_collapse_time(2.0, r_squared=8.0) == 4.0
    assert ref.numeric_collapse_time((1.5, 1.5, 1.5)) == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("coeffs, T", [
    ((0.5, 0.5, 1.0), ref.snake_collapse_time(1.0, 1.0)),
    ((1 / 17, 1 / 17, 1.0), ref.snake_collapse_time(1.0, 4.0)),
    ((0.75, 1.0, 1.0), ref.turtle_collapse_time(0.75, 0.5)),
    ((1.0, 1 / 0.19, 1 / 0.19), ref.turtle_collapse_time(1.0, 0.9)),
])
def test_dop853_matches_closed_forms(coeffs, T):
    assert ref.numeric_collapse_time(coeffs) == pytest.approx(T, rel=1e-11)


def test_dop853_is_scale_covariant():
    coeffs = ref.metric_of_stretch(0.1, 0.5, 1.0)
    T = ref.numeric_collapse_time(coeffs)
    assert ref.numeric_collapse_time([3.0 * c for c in coeffs]) == pytest.approx(3.0 * T, rel=1e-11)
    assert ref.numeric_collapse_time(coeffs, r_squared=8.0) == pytest.approx(2.0 * T, rel=1e-11)


def test_curvature_of_the_112_shape():
    kappas, riccis = ref.curvature_of_stretch(1.0, 1.0, 2.0)
    assert kappas == pytest.approx(ref.KAPPA_112, abs=1e-15)
    assert riccis == pytest.approx(ref.RICCI_112, abs=1e-15)


def test_curvature_is_permutation_equivariant():
    kappas, riccis = ref.curvature_of_stretch(0.3, 0.7, 1.1)
    k2, r2 = ref.curvature_of_stretch(1.1, 0.3, 0.7)
    assert k2 == pytest.approx((kappas[2], kappas[0], kappas[1]), rel=1e-13)
    assert r2 == pytest.approx((riccis[2], riccis[0], riccis[1]), rel=1e-13)


def test_parabolas_are_the_curvature_zero_loci():
    assert ref.scalar_zero_residual(ref.SCALAR_ZERO_INTERCEPT, 0.0) == 0.0
    assert ref.kappa_min_zero_residual(ref.KAPPA_MIN_ZERO_INTERCEPT, 0.0) == 0.0
    assert ref.scalar_zero_residual(1.0, 1.0) == 0.0 == ref.kappa_min_zero_residual(1.0, 1.0)
    for y in np.linspace(0.05, 0.95, 7):
        x = (1.0 + y * y) / 2.0  # on y^2 = 2x - 1
        kappas, _ = ref.curvature_of_stretch((x - y) / 2, (x + y) / 2, 1.0)
        assert abs(sum(kappas)) < 1e-14
        x = (3.0 - y * y) / 2.0  # on y^2 = 3 - 2x
        kappas, _ = ref.curvature_of_stretch((x - y) / 2, (x + y) / 2, 1.0)
        assert abs(min(kappas)) < 1e-14


def test_degenerate_ricci_line():
    for y in np.linspace(0.0, 0.9, 5):
        _, riccis = ref.curvature_of_stretch((1 - y) / 2, (1 + y) / 2, 1.0)
        assert sorted(abs(r) for r in riccis)[:2] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_boundary_check_accepts_the_exact_curves_only():
    n = 64
    y = np.linspace(0.0, 1.0, n + 1)[:-1]
    bounds = {"scalar_zero": np.column_stack([(1 + y * y) / 2, y]),
              "kappa_min_zero": np.column_stack([(3 - y * y) / 2, y])[::-1],
              "ricci_degenerate": np.column_stack([np.ones(n + 1), np.linspace(0, 1, n + 1)])}
    assert wl.boundary_problem(bounds, n) is None
    bounds["scalar_zero"] = bounds["scalar_zero"] + [1e-6, 0.0]
    assert "parabolas" in wl.boundary_problem(bounds, n)


def test_line_check():
    xs = np.array([0.5, 1.0, 1.2, 1.9, 2.0])
    ys = np.array([0.1, 0.9, 0.9, 0.1, 0.0])
    ts = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    apex = (1.0, 1.0)
    assert wl.line_problem(xs, ys, ts, apex, (1.0, 0.9)) is None
    assert "start" in wl.line_problem(xs, ys, ts, apex, (1.0, 0.8))
    assert "circle" in wl.line_problem(xs, ys, ts, (1.0, 0.9), (1.0, 0.9))
    assert "increase" in wl.line_problem(xs[::-1], ys, ts, apex, (1.0, 0.9))


def test_sampling_strata():
    rng = np.random.default_rng(0)
    points = wl.lhs(rng, 12, 3)
    for axis in points.T:
        assert sorted(np.floor(axis * 12).astype(int)) == list(range(12))
    cells = np.floor(wl.grid(rng, (3, 4)) * [3, 4]).astype(int)
    assert sorted(map(tuple, cells)) == [(i, j) for i in range(3) for j in range(4)]


def test_inputs_repeat_with_the_seed():
    assert wl.portrait_inputs(7) == wl.portrait_inputs(7)
    assert wl.portrait_inputs(7) != wl.portrait_inputs(8)
    for x, y in wl.portrait_inputs(7):
        assert 0.0 < y < min(x, 2.0 - x)


def test_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 90) == pytest.approx(90.1)
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(40, 75) == 10


@pytest.mark.parametrize("n, pct", [(40, 75), (41, 75), (100, 90), (200, 95), (1000, 99)])
def test_tail_percentile(n, pct):
    assert tail_percentile(n) == pct
    assert samples_beyond(n, pct) >= 10


def test_every_workload_keeps_ten_samples_beyond_its_tail():
    for spec in wl.SPECS.values():
        assert tail_percentile(spec.min_ops) >= spec.tail_pct
        assert samples_beyond(spec.min_ops, spec.tail_pct) >= 10


def test_scale_factor():
    assert scale_factor(NOMINAL_REF_S, NOMINAL_REF_S) == 1.0
    assert scale_factor(2 * NOMINAL_REF_S, 2 * NOMINAL_REF_S) == 0.5
    assert scale_factor(NOMINAL_REF_S, 3 * NOMINAL_REF_S) == 0.5
    record = OpRecord("op", 0.2, 2 * NOMINAL_REF_S, 2 * NOMINAL_REF_S, True)
    assert record.scaled_s == pytest.approx(0.1)


def test_summarize():
    slow = OpRecord("op", 0.4, 2 * NOMINAL_REF_S, 2 * NOMINAL_REF_S, True)  # 0.2 s scaled
    fast = OpRecord("op", 0.1, NOMINAL_REF_S, NOMINAL_REF_S, True)
    failed = OpRecord("probe", 0.3, NOMINAL_REF_S, NOMINAL_REF_S, False, True, "still broken")
    out = summarize([fast] * 60 + [slow] * 40 + [failed] * 10, tail_pct=90)
    assert out["scaled"]["op_p50_ms"] == pytest.approx(100.0)
    assert out["scaled"]["op_tail_ms"] == pytest.approx(200.0)
    assert out["raw"]["op_tail_ms"] == pytest.approx(400.0)
    assert out["scaled"]["ops_per_s"] == pytest.approx(100 / (6.0 + 8.0 + 3.0))
    with pytest.raises(ValueError):
        summarize([fast] * 39, tail_pct=75)
