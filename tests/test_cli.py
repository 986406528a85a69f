import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert record["connection1"] == -1.0 and record["connection3"] == 0.0
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


def test_simulate_isotropic(run_cli, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--output", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["collapse_time"] == pytest.approx(1.0, abs=1e-6)
    assert summary["terminated"] == "collapsed"

    text = csv_path.read_text(encoding="utf-8")
    header, rows = parse_csv(text)
    assert ",".join(header) == SIMULATE_HEADER
    for row in rows:
        t, u = float(row[0]), float(row[1])
        assert abs(u - (1.0 - t)) < 1e-9


def test_simulate_streams_without_output(run_cli):
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--grid", "0")
    assert code == 0
    assert out.startswith(SIMULATE_HEADER + "\n")
    summary = json.loads(err)
    assert summary["collapse_time"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_rejects_unordered(run_cli):
    code, out, err = run_cli("simulate", "--a", "2", "--b", "1", "--c", "1")
    assert code == 3
    detail = json.loads(err)
    assert detail["error"] == "domain"


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


def test_turtle_rejects_beta_at_one(run_cli):
    code, _, err = run_cli("turtle", "--U", "1", "--beta", "1")
    assert code == 3
    assert json.loads(err)["error"] == "domain"


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


def test_flowlines_requires_exactly_one_source(run_cli, tmp_path):
    code, _, err = run_cli("flowlines")
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    starts = tmp_path / "s.csv"
    starts.write_text("0.5,0.25\n", encoding="utf-8")
    code, _, err = run_cli("flowlines", "--starts", str(starts), "--grid", "2x2")
    assert code == 2


def test_flowlines_bad_grid_spec(run_cli):
    code, _, err = run_cli("flowlines", "--grid", "5by5")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_flowlines_empty_starts_file(run_cli, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    code, _, err = run_cli("flowlines", "--starts", str(empty))
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_flowlines_malformed_starts_line(run_cli, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.25\noops\n", encoding="utf-8")
    code, _, err = run_cli("flowlines", "--starts", str(bad))
    assert code == 2


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


def test_regions_resolution_floor(run_cli):
    code, _, err = run_cli("regions", "--resolution", "8")
    assert code == 3


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


def test_usage_errors(run_cli):
    code, _, err = run_cli("simulate", "--a", "1", "--b", "1")
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    code, _, err = run_cli("nonsense")
    assert code == 2
    code, _, err = run_cli("simulate", "--a", "x", "--b", "1", "--c", "1")
    assert code == 2


def test_negative_inputs_are_domain_errors(run_cli):
    code, _, err = run_cli("curvature", "--a", "-1", "--b", "1", "--c", "1")
    assert code == 3
    assert json.loads(err)["error"] == "domain"
    for bad in ("nan", "inf"):
        code, _, err = run_cli("classify", "--a", "1", "--b", "1", "--c", "1",
                               "--eq-tol", bad)
        assert code == 3
        assert json.loads(err)["error"] == "domain"


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


def test_simulate_rejects_rel_tol_past_bound(run_cli):
    # At rel_tol = 1e300 the controller took one step and reported a collapse
    # time of 0.086 with exit code 0.
    code, out, err = run_cli("simulate", "--a", "1", "--b", "2", "--c", "3",
                             "--rel-tol", "1e300")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_simulate_max_steps_reports_null_collapse(run_cli):
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--max-steps", "2", "--grid", "0")
    assert code == 0
    summary = json.loads(err)
    assert summary["collapse_time"] is None
    assert summary["terminated"] == "max_steps"


def test_integration_failure_exit_code(run_cli, monkeypatch):
    import danteflow.flow as flow_mod

    # NaN past L = 1/2: steps across it shrink until the step size underflows.
    monkeypatch.setattr(flow_mod, "_field",
                        lambda P, Q, L, r2: (1.0, 1.0, math.nan if L > 0.5 else 1.0))
    code, _, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                           "--max-steps", "100000")
    assert code == 4
    assert json.loads(err)["error"] == "integration_failure"


def test_simulate_tiny_collapse_eps_exits_0(run_cli):
    # The rows are positive by construction, so a collapse_eps far below
    # the coefficients' rounding collapses like any other.
    code, out, err = run_cli("simulate", "--a", "1", "--b", "1", "--c", "1",
                             "--collapse-eps", "1e-300")
    assert code == 0
    summary = json.loads(err)
    assert summary["terminated"] == "collapsed"
    assert summary["collapse_time"] == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_help_exits_cleanly(run_cli):
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "simulate" in out and "flowlines" in out


def test_float_formatting_round_trips():
    for value in (0.1, 1e-9, 2.0, 0.6426990816987241, 1234567.875):
        assert float(_fmt(value)) == value
    assert _fmt(3) == "3"
    assert _fmt(None) == ""
    with pytest.raises(DomainError):
        _fmt(float("inf"))
    with pytest.raises(DomainError):
        _fmt(float("nan"))


def test_cli_import_leaves_scipy_unloaded():
    # The package integrates without scipy, and the quick queries need no
    # numpy either: importing the CLI and running curvature, classify and a
    # domain error must pull in neither (numpy alone costs most of the
    # start-up time of a quick command).  flow and shapespace stay loaded,
    # since the benchmark's tracer wraps their functions after the import.
    code = (
        "import json, sys\n"
        "from danteflow.cli import main\n"
        "quick = ['--a', '1', '--b', '2', '--c', '3']\n"
        "codes = [main(['curvature', *quick]), main(['classify', *quick]),\n"
        "         main(['classify', *quick, '--eq-tol', 'nan'])]\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 3]
    modules = set(report["modules"])
    for heavy in ("numpy", "scipy"):
        assert not {m for m in modules if m == heavy or m.startswith(heavy + ".")}
    assert {"danteflow.flow", "danteflow.shapespace"} <= modules
