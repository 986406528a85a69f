import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import danteflow
from danteflow import errors, flow, geometry, shapespace
from danteflow.cli import SIMULATE_HEADER, _fmt
from danteflow.errors import DomainError


def parse_csv(text: str):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_curvature_json(run_cli):
    code, out, err = run_cli("curvature", "--a", "1", "--b", "1", "--c", "2")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["kappa1"] == 1.0 and record["kappa3"] == -1.0
    assert record["ricci11"] == 0.0 and record["ricci33"] == 2.0
    assert record["scalar"] == 2.0
    # A zero coefficient prints as 0.0, not -0.0.
    assert record["connection1"] == -1.0 and '"connection3": 0.0}' in out
    assert all(key == key.lower() for key in record)


def test_curvature_csv(run_cli):
    code, out, err = run_cli("curvature", "--a", "1", "--b", "1", "--c", "2",
                             "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["a", "b", "c", "r_squared"]
    assert len(rows) == 1
    assert float(rows[0][header.index("kappa3")]) == -1.0


def test_classify_snake_example(run_cli):
    code, out, _ = run_cli("classify", "--a", "1", "--b", "1", "--c", "2")
    assert code == 0
    record = json.loads(out)
    assert record["shape"] == "snake"
    assert record["ricci_signs"] == [0, 0, 1]
    assert record["x"] == 1.0 and record["y"] == 0.0
    assert record["rho"] == 0.0 and record["tau"] == 0.0


def test_classify_accepts_unordered(run_cli):
    code, out, _ = run_cli("classify", "--a", "2", "--b", "1", "--c", "1")
    assert code == 0
    assert json.loads(out)["shape"] == "snake"


def test_classify_csv_format(run_cli):
    code, out, _ = run_cli("classify", "--a", "1", "--b", "1", "--c", "2",
                           "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "shape" and header[-2:] == ["rho", "tau"]
    assert rows[0][0] == "snake"
    assert rows[0][header.index("ricci_sign1")] == "0"


def test_simulate_streams_without_output(run_cli):
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--grid", "0")
    assert code == 0
    assert out.startswith(SIMULATE_HEADER + "\n")
    summary = json.loads(err)
    assert summary["collapse_time"] == pytest.approx(1.0, abs=1e-6)


def test_snake_command_golden(run_cli):
    code, out, err = run_cli("snake", "--W", "1", "--alpha", "1", "--grid", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["lambda", "t", "w", "v"]
    assert len(rows) == 5
    assert float(rows[0][0]) == 1.0 and float(rows[0][1]) == 0.0
    assert float(rows[-1][0]) == 0.0
    summary = json.loads(err)
    assert summary["collapse_time"] == pytest.approx(0.25 + math.pi / 8, rel=1e-14, abs=0.0)


def test_snake_check_against_integration(run_cli):
    code, out, err = run_cli("snake", "--W", "1", "--alpha", "1", "--grid", "4",
                             "--check")
    assert code == 0
    summary = json.loads(err)
    assert summary["max_time_deviation"] < 1e-6
    assert summary["numeric_collapse_time"] == pytest.approx(
        summary["collapse_time"], abs=1e-6)


def test_turtle_command_golden(run_cli):
    code, out, err = run_cli("turtle", "--U", "0.75", "--beta", "0.5",
                             "--grid", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["mu", "t", "u", "v"]
    summary = json.loads(err)
    assert summary["collapse_time"] == pytest.approx(0.9119796082505411, rel=1e-14, abs=0.0)
    # mu = 1 profile row carries (u, v) = (0.75, 1).
    assert float(rows[0][2]) == 0.75
    assert float(rows[0][3]) == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_flowlines_grid(run_cli, tmp_path):
    lines_path = tmp_path / "lines.csv"
    apex_path = tmp_path / "apex.csv"
    code, out, err = run_cli("flowlines", "--grid", "2x2",
                             "--output", str(lines_path),
                             "--apex-output", str(apex_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["num_lines"] == 4
    for apex in summary["apexes"]:
        assert apex["x"] ** 2 + apex["y"] ** 2 == pytest.approx(2.0, abs=1e-4)

    header, rows = parse_csv(lines_path.read_text(encoding="utf-8"))
    assert header == ["line_id", "x", "y", "t"]
    assert {row[0] for row in rows} == {"0", "1", "2", "3"}

    header, rows = parse_csv(apex_path.read_text(encoding="utf-8"))
    assert header == ["line_id", "x", "y"]
    assert len(rows) == 4


def test_flowlines_starts_file(run_cli, tmp_path):
    starts = tmp_path / "starts.csv"
    starts.write_text("x,y\n0.5,0.25\n1.2 0.3\n# comment\n", encoding="utf-8")
    code, out, err = run_cli("flowlines", "--starts", str(starts),
                             "--output", str(tmp_path / "lines.csv"))
    assert code == 0
    assert json.loads(out)["num_lines"] == 2


def test_flowlines_c0_leaves_the_lines_unchanged(run_cli, tmp_path):
    columns = {}
    for c0 in ("1", "1000", "0.001"):
        path = tmp_path / f"lines_{c0}.csv"
        code, _, _ = run_cli("flowlines", "--grid", "2x2", "--c0", c0, "--output", str(path))
        assert code == 0
        _, rows = parse_csv(path.read_text(encoding="utf-8"))
        columns[c0] = [row[:3] for row in rows]
    assert columns["1000"] == columns["1"] == columns["0.001"]


def test_regions_command(run_cli, tmp_path):
    path = tmp_path / "regions.csv"
    code, out, _ = run_cli("regions", "--resolution", "16",
                           "--output", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["scalar_zero_x_intercept"] == pytest.approx(0.5, abs=1e-9)
    assert summary["kappa_min_zero_x_intercept"] == pytest.approx(1.5, abs=1e-9)
    header, rows = parse_csv(path.read_text(encoding="utf-8"))
    assert header == ["label", "x", "y"]
    labels = {row[0] for row in rows}
    assert labels == {"scalar_zero", "kappa_min_zero", "ricci_degenerate"}


def test_env_var_overrides_default_r2(run_cli, monkeypatch):
    monkeypatch.setenv("DANTE_FLOW_R2", "8")
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--grid", "0", "--output", "/dev/null")
    assert code == 0
    assert json.loads(out)["collapse_time"] == pytest.approx(2.0, abs=1e-6)
    # An explicit flag beats the environment.
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--r2", "4", "--grid", "0", "--output", "/dev/null")
    assert json.loads(out)["collapse_time"] == pytest.approx(1.0, abs=1e-6)


def test_byte_determinism(run_cli, tmp_path):
    args = ("simulate", "--a", "0.5", "--b", "0.75", "--c", "1.25")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("regions", "--resolution", "16", "--output", str(p1))
    run_cli("regions", "--resolution", "16", "--output", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_quick_queries_at_extreme_scales(run_cli):
    # Curvature signs do not depend on scale: (1, 2, 3) at 1e160, where the
    # curvatures themselves overflow, has the signs it has at scale 1.
    code, out, _ = run_cli("classify", "--a", "1e160", "--b", "2e160", "--c", "3e160")
    assert code == 0
    record = json.loads(out)
    assert record["curvature_signs"] == [1, 1, -1]
    assert record["ricci_signs"] == [0, 0, 1] and record["scalar_sign"] == 1
    # a + b overflows at 1e308, yet the round sphere's coordinates are finite.
    code, out, _ = run_cli("classify", "--a", "1e308", "--b", "1e308", "--c", "1e308")
    assert code == 0
    record = json.loads(out)
    assert (record["x"], record["y"]) == (2.0, 0.0)
    assert record["shape"] == "isotropic" and record["scalar_sign"] == 1
    # Curvatures past the largest float are a domain error, not a crash.
    code, out, err = run_cli("curvature", "--a", "1e308", "--b", "1e308", "--c", "1e308")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_simulate_max_steps_reports_null_collapse(run_cli):
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--max-steps", "2", "--grid", "0")
    assert code == 0
    summary = json.loads(err)
    assert summary["collapse_time"] is None
    assert summary["terminated"] == "max_steps"


def test_simulate_tiny_collapse_eps_exits_0(run_cli):
    # The rows are positive by construction, so a collapse_eps far below
    # the coefficients' rounding collapses like any other.
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--collapse-eps", "1e-300")
    assert code == 0
    summary = json.loads(err)
    assert summary["terminated"] == "collapsed"
    assert summary["collapse_time"] == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_simulate_scales_with_the_metric(run_cli):
    # A metric 1e-8 times the size of (1, 2, 3)'s collapses 1e-8 times as
    # fast; the stop is a share of the starting scale, not an absolute floor.
    times = []
    for a, b, c in (("1", "2", "3"), ("1e4", "2e4", "3e4")):
        code, _, err = run_cli("simulate", "--a", a, "--b", b, "--c", c)
        assert code == 0
        times.append(json.loads(err)["collapse_time"])
    assert times[1] == pytest.approx(1e-8 * times[0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("args", [
    ("snake", "--W", "1e-10", "--alpha", "1", "--check"),
    ("simulate", "--a", "1e-60", "--b", "1e-60", "--c", "1e-60"),
    ("simulate", "--a", "1e140", "--b", "2e140", "--c", "3e140"),
], ids=["tiny-snake", "huge-sphere", "tiny-dragon"])
def test_metrics_at_any_scale_exit_0(run_cli, args):
    code, _, err = run_cli(*args)
    assert code == 0, err
    assert json.loads(err)["collapse_time"] > 0.0


def test_help_exits_cleanly(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "simulate" in out and "flowlines" in out


def test_rel_tol_help_states_the_flow_bound(run_cli):
    # The help text spells the bound out, so that building it loads no flow.
    code, out, _ = run_cli("simulate", "--help")
    assert code == 0
    text = " ".join(out.split())  # undo argparse's line wrapping
    assert f"--rel-tol FLOAT Relative tolerance, at most {flow.MAX_REL_TOL}." in text


def test_package_serves_every_public_name():
    # flow and shapespace names are served by the package's __getattr__,
    # which binds each in the package on first access.  Every name must be
    # the object its module defines, listed by dir() and bound by a star
    # import.
    assert set(danteflow.__all__) <= set(dir(danteflow))
    homes = (errors, geometry, flow, shapespace)
    for name in danteflow.__all__:
        value = getattr(danteflow, name)
        assert any(getattr(home, name, None) is value for home in homes), name
        assert vars(danteflow)[name] is value
    namespace = {}
    exec("from danteflow import *", namespace)
    assert set(danteflow.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        danteflow.no_such_name


def test_float_formatting_round_trips():
    for value in (0.1, 1e-9, 2.0, 0.6426990816987241, 1234567.875):
        assert float(_fmt(value)) == value
    assert _fmt(3) == "3"
    assert _fmt(None) == ""
    with pytest.raises(DomainError):
        _fmt(float("inf"))
    with pytest.raises(DomainError):
        _fmt(float("nan"))


def test_simulate_tables_are_scale_free(run_cli, tmp_path):
    # Stretch factors 2^20 times those of (1, 2, 3) give the same run, every
    # column scaled exactly by its power of two: t, u, v, w by 2^-40, a, b,
    # c by 2^20, x and y unchanged and the curvatures by 2^40.
    tables = {}
    for name, scale in (("unit", 1), ("scaled", 2 ** 20)):
        path = tmp_path / f"{name}.csv"
        code, out, _ = run_cli("simulate", "--a", str(scale), "--b", str(2 * scale),
                               "--c", str(3 * scale), "--output", str(path))
        assert code == 0
        tables[name] = (json.loads(out)["collapse_time"], parse_csv(path.read_text()))
    (unit_time, (header, unit)), (scaled_time, (_, scaled)) = tables["unit"], tables["scaled"]
    assert scaled_time == math.ldexp(unit_time, -40)
    powers = {**dict.fromkeys("tuvw", -40), **dict.fromkeys("abc", 20), **dict.fromkeys("xy", 0)}
    assert len(unit) == len(scaled) > 0
    for row, scaled_row in zip(unit, scaled):
        for name, value, scaled_value in zip(header, row, scaled_row):
            assert float(scaled_value) == math.ldexp(float(value), powers.get(name, 40)), name


def test_repeats_in_separate_processes_are_byte_identical(tmp_path):
    # test_byte_determinism repeats within one process; these runs share
    # nothing, so they also catch output that depends on hash seeds or on
    # the state of the interpreter.
    outputs = []
    for run in (1, 2):
        out = tmp_path / str(run)
        out.mkdir()
        summaries = {}
        for name, args in (("lines", ["flowlines", "--grid", "5x5", "--apex-output",
                                      str(out / "apex.csv")]),
                           ("simulate", ["simulate", "--a", "0.5", "--b", "1", "--c", "1.5"])):
            result = _python("-m", "danteflow", *args, "--output", str(out / f"{name}.csv"))
            assert result.returncode == 0, result.stderr
            summaries[name] = result.stdout
        outputs.append([summaries, {path.name: path.read_bytes() for path in out.iterdir()}])
    assert sorted(outputs[0][1]) == ["apex.csv", "lines.csv", "simulate.csv"]
    assert outputs[0] == outputs[1]


def _python(*args: str, timeout: float | None = None, **env: str) -> subprocess.CompletedProcess:
    """Run the interpreter on this checkout's package, output captured; env
    sets further environment variables, and a run past timeout seconds
    raises subprocess.TimeoutExpired.  A RuntimeWarning is an error, as
    pyproject makes it in-process, unless env sets PYTHONWARNINGS."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_output_off_numpys_avx512_path_agrees_to_rounding():
    # Bytes are identical per machine only: numpy's SIMD dispatch moves the
    # last digits of times and coefficients.  Step and sample counts do not
    # move.  Columns that cancel (simulate's y, the curvatures) are left out.
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not features.get("X86_V4"):
        pytest.skip("numpy reports no enabled X86_V4")
    tables = {}
    for disabled in ("", "X86_V4"):
        for args in (("simulate", "--a", "0.3", "--b", "0.9", "--c", "1.5"),
                     ("flowlines", "--grid", "3x3")):
            result = _python("-m", "danteflow", *args, NPY_DISABLE_CPU_FEATURES=disabled)
            assert result.returncode == 0, result.stderr
            header, rows = parse_csv(result.stdout)
            tables[disabled, args[0]] = dict(zip(header, np.array(rows, dtype=float).T))
    for command, relative, absolute in (("simulate", "tuvw", ""), ("flowlines", "t", "xy")):
        on, off = tables["", command], tables["X86_V4", command]
        assert len(on["t"]) == len(off["t"])
        for name in relative:
            assert_allclose(off[name], on[name], rtol=1e-14, atol=0.0, err_msg=name)
        for name in absolute:
            assert_allclose(off[name], on[name], rtol=0.0, atol=1e-14, err_msg=name)
    line_ids = (tables[disabled, "flowlines"]["line_id"] for disabled in ("", "X86_V4"))
    assert np.array_equal(*line_ids)  # the same rows per line


def _times(command: str, out: str) -> np.ndarray:
    # The collapse time of simulate (its summary) or the t column of flowlines.
    if command == "simulate":
        return np.array([json.loads(out)["collapse_time"]])
    header, rows = parse_csv(out)
    return np.array([float(row[header.index("t")]) for row in rows])


@pytest.mark.parametrize("args, r2", [
    (("simulate", "--a", "0.5", "--b", "1", "--c", "1.5", "--output", os.devnull), 1.7e308),
    (("flowlines", "--grid", "1x1"), 1e308),
], ids=["simulate", "flowlines"])
def test_the_largest_r2_scales_the_times(run_cli, args, r2):
    # At R^2 near the largest float sigma overflowed before collapse: the
    # stepper once retried its infinite step forever, then exited 4.  It now
    # steps R^2 = 4 at every R^2.  The timeout turns a hang into a failure
    # instead of a stalled suite.
    result = _python("-m", "danteflow", *args, "--r2", repr(r2), timeout=60)
    assert result.returncode == 0, result.stderr
    code, out, _ = run_cli(*args)
    assert code == 0
    assert_allclose(_times(args[0], result.stdout), r2 / 4.0 * _times(args[0], out),
                    rtol=4e-15, atol=0.0)


@pytest.mark.parametrize("args, collapse_time", [
    (("simulate", "--a", "1", "--b", "1", "--c", "1", "--r2", "1e307"), 2.5e306),
    (("snake", "--W", "1", "--alpha", "1", "--check", "--r2", "1e307"), 1.6067477042468103e306),
], ids=["simulate", "snake"])
def test_a_sigma_span_near_the_float_range_exits_0(args, collapse_time):
    # A sigma span near 1e307 overflowed in the stop search's ldexp and
    # ended in an OverflowError traceback.
    result = _python("-m", "danteflow", *args, "--output", os.devnull, timeout=60)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    summary = json.loads(result.stdout)
    assert summary["collapse_time"] == pytest.approx(collapse_time, rel=1e-14, abs=0.0)


EXIT_CODES = {"usage": 2, "domain": 3, "integration_failure": 4}

#: Files a command line names as {name}; {missing} names a missing directory.
FILES = {
    "starts": b"0.5,0.25\n",
    "empty": b"# nothing here\n",
    "bad": b"0.5,0.25\noops\n",
    "table": b"line_id,x,y,t\n1,0.5,0.2,0.0\n",
    "nan": b"nan,0.5\n",
    "not_utf8": b"\xff\xfe0.5,0.25\n",
}


def rejected(id, command, kind, message=None, **kwargs):
    """A case of test_rejected_command_lines: the command line in shell
    words, the error kind and, if the case checks it, the whole message."""
    return pytest.param(command, kind, message, id=id, **kwargs)


@pytest.mark.parametrize("command, kind, message", [
    rejected("simulate-unordered", "simulate --a 2 --b 1 --c 1", "domain"),
    rejected("turtle-beta-at-one", "turtle --U 1 --beta 1", "domain"),
    rejected("flowlines-no-source", "flowlines", "usage",
             "exactly one of --starts or --grid is required"),
    rejected("flowlines-both-sources", "flowlines --starts {starts} --grid 2x2", "usage",
             "exactly one of --starts or --grid is required"),
    rejected("flowlines-bad-grid-spec", "flowlines --grid 5by5", "usage"),
    rejected("empty-starts-file", "flowlines --starts {empty}", "usage"),
    rejected("malformed-starts-line", "flowlines --starts {bad}", "usage"),
    # A flowlines table fed back as starts: its rows carry line_id before x.
    rejected("starts-line-with-extra-fields", "flowlines --starts {table}", "usage",
             "{table}:2: expected two numbers, got '1,0.5,0.2,0.0'"),
    rejected("flowlines-nan-start", "flowlines --starts {nan}", "domain",
             "point (nan, 0.5) is not finite"),
    rejected("regions-resolution-below-16", "regions --resolution 8", "domain"),
    # Past the largest float64 array numpy sizes, sys.maxsize // 8 values, a
    # resolution ended in numpy's ValueError, exit 1.
    rejected("regions-resolution-1e21", f"regions --resolution {10**21}", "domain"),
    rejected("regions-resolution-past-numpy", f"regions --resolution {sys.maxsize // 8}",
             "domain"),
    rejected("missing-option", "simulate --a 1 --b 1", "usage"),
    rejected("nonsense-command", "nonsense", "usage"),
    rejected("non-numeric-value", "simulate --a x --b 1 --c 1", "usage"),
    rejected("negative-factor", "curvature --a -1 --b 1 --c 1", "domain"),
    rejected("eq-tol-nan", "classify --a 1 --b 1 --c 1 --eq-tol nan", "domain"),
    rejected("eq-tol-inf", "classify --a 1 --b 1 --c 1 --eq-tol inf", "domain"),
    # At rel_tol = 1e300 the controller took one step and reported a collapse
    # time of 0.086 with exit code 0.
    rejected("rel-tol-past-bound", "simulate --a 1 --b 2 --c 3 --rel-tol 1e300", "domain"),
    # Tolerances far below rounding: steps shrink until the step size underflows.
    rejected("integration-failure", "simulate --a 1 --b 2 --c 4 --rel-tol 1e-300 "
             "--abs-tol 1e-300 --max-steps 100000", "integration_failure"),
    # A uniform grid spans the trajectory, so it needs both ends; 0 disables it.
    rejected("simulate-grid-of-one", "simulate --a 1 --b 1 --c 1 --grid 1", "usage",
             "argument --grid: must be 0 (no grid) or at least 2"),
    # The token after an option is its value, however it starts, so each of
    # these reaches the domain check instead of ending as a missing value.
    rejected("negative-value-exponent", "curvature --a -1e-3 --b 1 --c 1", "domain"),
    rejected("negative-value-inf", "curvature --a -inf --b 1 --c 1", "domain"),
    rejected("negative-value-nan", "curvature --a -nan --b 1 --c 1", "domain"),
    rejected("negative-value-r2", "curvature --a 1 --b 1 --c 1 --r2 -1e3", "domain"),
    # A product of two stretch factors, the ratio u/(w0 - u) integrate
    # starts from, or the product u v w of a tabulated row (1e-290, 1e-290,
    # 1e20 here, 0 even after stretch_from_metric's exact rescaling) that
    # underflows to 0 ended in a traceback with exit 1.
    # Its overflow side (simulate at 1e-160) already exited 3.
    rejected("simulate-products", "simulate --a 1e-200 --b 1e-200 --c 1e-200", "domain"),
    rejected("simulate-one-product", "simulate --a 1e-170 --b 1e-155 --c 1e100", "domain"),
    rejected("flowlines-subnormal-c0", "flowlines --grid 1x1 --c0 1e-320", "domain"),
    rejected("flowlines-tiny-c0", "flowlines --grid 2x2 --c0 1e-170", "domain"),
    rejected("simulate-ratio", "simulate --a 1e-100 --b 1 --c 1.7e308", "domain"),
    rejected("simulate-metric-product", "simulate --a 1e-10 --b 1e-10 --c 1e300", "domain"),
    # w0 R^2/4 past the float range printed numpy RuntimeWarnings and a
    # wrong message (the first two) or a ValueError traceback (the third).
    rejected("time-scale-simulate-overflow",
             "simulate --a 1e-100 --b 1e-100 --c 1e-100 --r2 1e200", "domain",
             "flow time scale w0 R^2/4 = inf is not a normal float"),
    rejected("time-scale-flowlines-overflow",
             "flowlines --grid 1x1 --c0 1e-100 --r2 1e200", "domain",
             "flow time scale w0 R^2/4 = inf is not a normal float"),
    rejected("time-scale-simulate-underflow",
             "simulate --a 1e150 --b 1e150 --c 1e150 --r2 1e-300", "domain",
             "flow time scale w0 R^2/4 = 0.0 is not a normal float"),
    # A product of two stretch factors past the float range gave a
    # coefficient of 0 or inf, and the message named that coefficient (u or
    # w), a number never typed.  --r2 and --c0 share geometry's positivity
    # message.
    rejected("named-products-overflow", "flowlines --grid 1x1 --c0 1e300", "domain",
             "metric coefficients of (2.5e+299, 7.5e+299, 1e+300) lie outside the float range"),
    rejected("named-products-subnormal", "simulate --a 1e-160 --b 1e-160 --c 1e160", "domain",
             "metric coefficients of (1e-160, 1e-160, 1e+160) lie outside the float range"),
    # Launched, for what main's return value does not show: the process's
    # exit status through sys.exit, and its own stdout and stderr.
    rejected("named-r2", "python -m danteflow curvature --a 1 --b 2 --c 3 --r2 0", "domain",
             "r_squared must be a positive finite number, got 0.0"),
    rejected("named-c0", "flowlines --grid 1x1 --c0 -1", "domain",
             "c must be a positive finite number, got -1.0"),
    rejected("no-command", "", "usage"),
    rejected("unknown-command", "curv", "usage"),
    rejected("unknown-format", "curvature --a 1 --b 1 --c 1 --format xml", "usage"),
    rejected("missing-starts-file", "flowlines --starts {missing}/starts.csv", "usage"),
    rejected("extra-argument", "curvature --a 1 --b 1 --c 1 extra", "usage"),
    rejected("output-is-a-directory", "curvature --a 1 --b 1 --c 1 --output .", "usage"),
    rejected("empty-output", "curvature --a 1 --b 1 --c 1 --output ''", "usage"),
    rejected("empty-starts", "flowlines --starts ''", "usage"),
    rejected("empty-apex-output", "flowlines --grid 1x1 --apex-output ''", "usage"),
    rejected("empty-grid-axis", "flowlines --grid 0x5", "usage"),
    rejected("negative-simulate-grid", "simulate --a 1 --b 1 --c 1 --grid -1", "usage"),
    # Counts past the largest table numpy sizes (sys.maxsize // 8 values)
    # ended in numpy's ValueError, exit 1.
    rejected("simulate-grid-past-numpy", f"simulate --a 1 --b 1 --c 1 --grid {10**23}", "usage"),
    rejected("snake-grid-past-numpy", f"snake --W 1 --alpha 1 --grid {10**20}", "usage"),
    rejected("turtle-grid-past-numpy", f"turtle --U 1 --beta 0.5 --grid {sys.maxsize // 8}",
             "usage"),
    # A named file that cannot be written or read fails where it is used,
    # and ends like any usage error instead of in a traceback.
    rejected("output-in-missing-dir", "curvature --a 1 --b 2 --c 3 --output {missing}/x.json",
             "usage", "[Errno 2] No such file or directory: '{missing}/x.json'"),
    rejected("apex-output-in-missing-dir", "flowlines --grid 1x1 --apex-output "
             "{missing}/apex.csv", "usage",
             "[Errno 2] No such file or directory: '{missing}/apex.csv'"),
    rejected("output-device-full", "curvature --a 1 --b 2 --c 3 --output /dev/full", "usage",
             "[Errno 28] No space left on device: '/dev/full'",
             marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    rejected("starts-not-utf8", "flowlines --starts {not_utf8}", "usage",
             "{not_utf8}: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
])
def test_rejected_command_lines(run_cli, tmp_path, command, kind, message):
    # The whole failure contract: the kind's exit code, nothing on stdout,
    # and on stderr one line, the JSON object {"error": kind, "message": ...}.
    # pyproject makes a RuntimeWarning an exception here, so a case that
    # warns fails as it would in a launched interpreter.
    paths = {"missing": tmp_path / "missing"}
    for name, content in FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(content)
    args = [arg.format(**paths) for arg in shlex.split(command)]
    if args[:1] == ["python"]:  # a launched case
        result = _python(*args[1:], timeout=60)
        code, out, err = result.returncode, result.stdout, result.stderr
    else:
        code, out, err = run_cli(*args)
    assert (code, out) == (EXIT_CODES[kind], ""), err
    [line] = err.splitlines()
    error = json.loads(line)
    assert sorted(error) == ["error", "message"] and error["error"] == kind
    if message is not None:
        assert error["message"] == message.format(**paths)


def test_empty_r2_variable_counts_as_unset(run_cli, monkeypatch):
    quick = ("curvature", "--a", "1", "--b", "2", "--c", "3")
    monkeypatch.setenv("DANTE_FLOW_R2", "")
    code, out, _ = run_cli(*quick)
    assert code == 0 and json.loads(out)["r_squared"] == 4.0
    monkeypatch.setenv("DANTE_FLOW_R2", "abc")
    code, out, err = run_cli(*quick)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_help_and_version_return_0(run_cli):
    # main returns the code; neither text raises SystemExit.
    for args in (("--help",), ("curvature", "--help"), ("--version",)):
        code, out, err = run_cli(*args)
        assert code == 0 and out and err == "", args
    assert run_cli("--version") == (0, "danteflow, version 0.1.0\n", "")


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_the_cli_asks_for_one_blas_thread_unless_told(given, expected):
    # numpy starts OpenBLAS's thread pool as it loads, which costs most of
    # its import on a machine with several cores; the CLI does no linear
    # algebra.  main sets OPENBLAS_NUM_THREADS before a command loads numpy,
    # and keeps a value the caller set.
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    result = _python("-c", (
        "import os, sys\n"
        f"if {given is None}:\n"
        "    os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
        "from danteflow.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "code = main(['simulate', '--a', '1', '--b', '2', '--c', '3', '--grid', '0',\n"
        "             '--output', os.devnull])\n"
        "print(before, 'numpy' in sys.modules, code, os.environ['OPENBLAS_NUM_THREADS'])\n"), **env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["False", "True", "0", expected]


def test_commands_load_only_the_modules_they_need():
    # The package integrates without scipy, the parser is the standard
    # library's, and the quick queries run only geometry: importing the CLI
    # and running curvature, classify and a domain error adds only
    # standard-library and danteflow modules to whatever start-up loaded.
    # So neither numpy (which alone costs most of the start-up time of a
    # quick command) nor scipy loads, and the bodies of flow and shapespace
    # do not run.  Both are registered in sys.modules all the same, since
    # the benchmark's tracer finds them there after the import and wraps
    # their functions.  simulate then runs flow alone, and regions runs
    # shapespace.
    result = _python("-c", (
        "import json, sys\n"
        "before = sorted(sys.modules)\n"
        "from danteflow.cli import main\n"
        "def state():\n"
        "    ran = {name: name in sys.modules and marker in\n"
        "           object.__getattribute__(sys.modules[name], '__dict__')\n"
        "           for name, marker in (('danteflow.flow', 'integrate'),\n"
        "                                ('danteflow.shapespace', 'trace_flowline'))}\n"
        "    return {'modules': sorted(sys.modules), 'ran': ran}\n"
        "quick = ['--a', '1', '--b', '2', '--c', '3']\n"
        "codes = [main(['curvature', *quick]), main(['classify', *quick]),\n"
        "         main(['classify', *quick, '--eq-tol', 'nan'])]\n"
        "after_quick = state()\n"
        "codes.append(main(['simulate', *quick, '--grid', '0']))\n"
        "after_simulate = state()\n"
        "codes.append(main(['regions', '--resolution', '16']))\n"
        "print(json.dumps({'codes': codes, 'before': before, 'quick': after_quick,\n"
        "                  'simulate': after_simulate, 'regions': state()}))\n"))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 3, 0, 0]
    quick = report["quick"]
    modules = set(quick["modules"])
    for heavy in ("numpy", "scipy"):
        assert not {m for m in modules if m == heavy or m.startswith(heavy + ".")}
    assert {"danteflow.flow", "danteflow.shapespace"} <= modules
    roots = {name.split(".")[0] for name in modules - set(report["before"])}
    assert "danteflow" in roots and roots - {"danteflow"} <= set(sys.stdlib_module_names)
    assert quick["ran"] == {"danteflow.flow": False, "danteflow.shapespace": False}
    assert report["simulate"]["ran"] == {"danteflow.flow": True,
                                         "danteflow.shapespace": False}
    assert report["regions"]["ran"] == {"danteflow.flow": True,
                                        "danteflow.shapespace": True}


def test_first_use_from_several_threads_at_once():
    # The first access to flow or shapespace runs it.  Under importlib's
    # LazyLoader, threads that made that access together saw the module
    # half-run: AttributeError on integrate or trace_flowline, or
    # shapespace's ImportError on flow's ROUND_LOGIT.  A fresh interpreter,
    # since only a first use races, switching threads as often as it can.
    result = _python("-c", (
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "import danteflow\n"
        "def trajectory(integrate):\n"
        "    traj = integrate(danteflow.MetricCoeffs(0.3, 0.6, 1.2))\n"
        "    return [traj.times.tobytes(), traj.coeffs.tobytes()]\n"
        "def line(trace):\n"
        "    line = trace(danteflow.ShapePoint(0.9, 0.3))\n"
        "    return [line.xs.tobytes(), line.ys.tobytes(), line.times.tobytes()]\n"
        "calls = [lambda: trajectory(danteflow.integrate),\n"
        "         lambda: trajectory(danteflow.flow.integrate),\n"
        "         lambda: line(danteflow.trace_flowline), lambda: line(danteflow.trace_flowline)]\n"
        "barrier, results = threading.Barrier(len(calls)), {}\n"
        "def run(call):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        results[call] = call()\n"
        "    except Exception as exc:\n"
        "        results[call] = repr(exc)\n"
        "threads = [threading.Thread(target=run, args=(call,)) for call in calls]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join()\n"
        "print([results[call] == call() or results[call] for call in calls])\n"), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[True, True, True, True]"


def test_simulate_at_a_huge_metric_scale_exits_0():
    # w0 = 5e307: w0 times a step's sigma span overflowed in sample_at, and
    # the run exited 3 on a NaN row after five RuntimeWarnings, even with no
    # grid.  stderr holds the one summary line.
    for grid in ("200", "0"):
        result = _python("-m", "danteflow", "simulate", "--a", "1e-154", "--b", "2e-154",
                         "--c", "3e-154", "--grid", grid, "--output", os.devnull)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        summary = json.loads(result.stdout)
        assert summary["terminated"] == "collapsed"
        assert summary["collapse_time"] == pytest.approx(3.157761542733084e+307, rel=1e-12)


class FullDevice:
    """A stream whose every write fails as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("args", [
    ("simulate", "--a", "1", "--b", "2", "--c", "3"),
    ("regions",),
    ("curvature", "--a", "1", "--b", "2", "--c", "3"),
    ("flowlines", "--grid", "1x1", "--output", os.devnull),  # the summary goes to stdout
])
def test_a_failed_write_to_stdout_is_an_output_error(run_cli, monkeypatch, args):
    # Not a usage error: the command line was fine, its output had nowhere to go.
    monkeypatch.setattr(sys, "stdout", FullDevice())
    code, _, err = run_cli(*args)
    assert code == 1
    detail = json.loads(err)
    assert detail["error"] == "output"
    assert detail["message"] == "standard output: [Errno 28] No space left on device"


def test_a_failed_write_to_stderr_exits_1_in_silence(run_cli, monkeypatch):
    monkeypatch.setattr(sys, "stderr", FullDevice())
    assert run_cli("regions", "--resolution", "16")[0] == 1  # its summary goes to stderr
    monkeypatch.setattr(sys, "stdout", FullDevice())
    assert run_cli("curvature", "--a", "1", "--b", "2", "--c", "3")[0] == 1


def test_classify_reports_singular_ratios_as_empty(run_cli):
    # On the degenerate edge the eigenvalue-ratio map is singular (y = 1):
    # rho and tau are null in JSON and empty cells in CSV.
    shape = ("classify", "--a", "1e-20", "--b", "1", "--c", "1")
    code, out, _ = run_cli(*shape)
    assert code == 0
    record = json.loads(out)
    assert record["shape"] == "degenerate"
    assert record["rho"] is None and record["tau"] is None
    assert record["ricci_signs"] == [0, 1, 1]
    code, out, _ = run_cli(*shape, "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert rows[0][header.index("rho"):] == ["", ""]
