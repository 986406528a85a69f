"""Command-line front end emitting CSV tables and JSON summaries.

Output contract:

* The primary artifact (a CSV table, or a single JSON object for
  ``curvature``/``classify``) goes to ``--output`` when given, else stdout.
* Tabular commands additionally emit a one-line JSON summary: to stdout
  when the table went to a file, to stderr otherwise, so stdout always
  stays parseable.
* Floats are printed as shortest round-trip decimals; output is UTF-8 with
  LF line endings, and identical invocations are byte-identical.
* Exit codes: 0 success, 2 usage error, 3 domain error, 4 integration
  failure.  Failures put a single JSON object on stderr.

``DANTE_FLOW_R2`` overrides the default radius-squared wherever ``--r2``
is accepted and not given.
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import click

from . import flow, shapespace
from .errors import DomainError, IntegrationFailureError, SingularMapError
from .geometry import (DEFAULT_EQ_TOL, DEFAULT_R_SQUARED, MetricCoeffs, ShapePoint,
                       StretchFactors, classify as classify_shape,
                       connection_coefficients, curvature_summary,
                       metric_coeffs, stretch_from_metric, to_rho_tau, to_xy)

SIMULATE_HEADER = ("t,u,v,w,a,b,c,x,y,"
                   "kappa1,kappa2,kappa3,ricci11,ricci22,ricci33,scalar")


def _fmt(value) -> str:
    """Shortest round-trip decimal; rejects non-finite values."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError("non-finite value in output")
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _json_line(obj: dict) -> str:
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:  # a NaN or an infinity, which JSON cannot hold
        raise DomainError("non-finite value in output")


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write(output: str | None, text: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8", newline="\n")
    else:
        click.echo(text, nl=False)


def _emit_with_summary(table: str, output: str | None, summary: dict) -> None:
    # Summary shares stdout only when the table went to a file.
    _write(output, table)
    click.echo(_json_line(summary), err=output is None)


def _resolve_r2(r2: float | None) -> float:
    value = DEFAULT_R_SQUARED if r2 is None else r2
    if value <= 0.0 or not math.isfinite(value):
        raise DomainError(f"r_squared must be positive, got {value!r}")
    return value


def _r2_option(f):
    return click.option(
        "--r2", type=float, default=None, envvar="DANTE_FLOW_R2",
        help="Radius squared R^2 (default 4; DANTE_FLOW_R2 overrides).")(f)


def _output_option(f):
    return click.option(
        "--output", type=click.Path(dir_okay=False), default=None,
        help="Write the primary artifact to this file instead of stdout.")(f)


@click.group()
@click.version_option(version="0.1.0", prog_name="danteflow")
def cli():
    """Curvature, Ricci-flow collapse, and shape-space portraits of
    homogeneously deformed 3-spheres."""


@cli.command()
@click.option("--a", required=True, type=float, help="First stretch factor.")
@click.option("--b", required=True, type=float, help="Second stretch factor.")
@click.option("--c", required=True, type=float, help="Third stretch factor.")
@_r2_option
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", help="Primary artifact format.")
@_output_option
def curvature(a, b, c, r2, output_format, output):
    """Principal curvatures, Ricci eigenvalues, scalar, and connection
    coefficients of one shape."""
    f = StretchFactors(a, b, c, _resolve_r2(r2))
    cs = curvature_summary(f)
    conn = connection_coefficients(f)
    record = {
        "a": f.a, "b": f.b, "c": f.c, "r_squared": f.r_squared,
        "kappa1": cs.kappa1, "kappa2": cs.kappa2, "kappa3": cs.kappa3,
        "ricci11": cs.ricci11, "ricci22": cs.ricci22, "ricci33": cs.ricci33,
        "scalar": cs.scalar,
        "connection1": conn[0], "connection2": conn[1], "connection3": conn[2],
    }
    if output_format == "json":
        _write(output, _json_line(record) + "\n")
    else:
        _write(output, _csv_text(",".join(record), [list(record.values())]))


@cli.command("classify")
@click.option("--a", required=True, type=float)
@click.option("--b", required=True, type=float)
@click.option("--c", required=True, type=float)
@_r2_option
@click.option("--eq-tol", type=float, default=DEFAULT_EQ_TOL, show_default=True,
              help="Relative tolerance for equality and sign decisions.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", help="Primary artifact format.")
@_output_option
def classify_cmd(a, b, c, r2, eq_tol, output_format, output):
    """Shape kind, curvature signs, triangle coordinates, and eigenvalue
    ratios of one shape."""
    f = StretchFactors(a, b, c, _resolve_r2(r2))
    result = classify_shape(f, eq_tol)
    point = to_xy(f.sorted())
    try:
        ratios = to_rho_tau(point)
        rho, tau = ratios.rho, ratios.tau
    except SingularMapError:
        rho = tau = None
    record = {
        "shape": result.shape.value,
        "curvature_signs": list(result.curvature_signs),
        "ricci_signs": list(result.ricci_signs),
        "scalar_sign": result.scalar_sign,
        "x": point.x, "y": point.y, "rho": rho, "tau": tau,
    }
    if output_format == "json":
        _write(output, _json_line(record) + "\n")
    else:
        header = ("shape,curvature_sign1,curvature_sign2,curvature_sign3,"
                  "ricci_sign1,ricci_sign2,ricci_sign3,scalar_sign,x,y,rho,tau")
        row = ([result.shape.value] + list(result.curvature_signs)
               + list(result.ricci_signs)
               + [result.scalar_sign, point.x, point.y, rho, tau])
        _write(output, _csv_text(header, [row]))


@cli.command()
@click.option("--a", required=True, type=float)
@click.option("--b", required=True, type=float)
@click.option("--c", required=True, type=float)
@_r2_option
@click.option("--grid", type=click.IntRange(min=0), default=200, show_default=True,
              help="Uniform time samples merged with the adaptive steps (0 disables).")
# The bound is flow.MAX_REL_TOL, written out so that no quick query loads flow.
@click.option("--rel-tol", type=float, default=1e-10, show_default=True,
              help="Relative tolerance, at most 0.001.")
@click.option("--abs-tol", type=float, default=1e-12, show_default=True)
@click.option("--collapse-eps", type=float, default=1e-9, show_default=True,
              help="Share of the largest initial coefficient at which to stop.")
@click.option("--max-steps", type=click.IntRange(min=1), default=10_000, show_default=True)
@_output_option
def simulate(a, b, c, r2, grid, rel_tol, abs_tol, collapse_eps, max_steps, output):
    """Integrate the flow from ordered stretch factors a <= b <= c and emit
    the trajectory table plus a JSON summary with the collapse time."""
    if grid == 1:  # a grid spans the trajectory, so it needs both ends
        raise click.BadParameter("must be 0 (no grid) or at least 2", param_hint="'--grid'")
    import numpy as np

    r2v = _resolve_r2(r2)
    f = StretchFactors.ordered(a, b, c, r2v)
    params = flow.FlowParams(r_squared=r2v, rel_tol=rel_tol, abs_tol=abs_tol,
                             collapse_eps=collapse_eps, max_steps=max_steps)
    traj = flow.integrate(metric_coeffs(f), params)

    times = traj.times
    if grid:
        times = np.unique(np.concatenate(
            [times, np.linspace(times[0], times[-1], grid)]))
    coeffs = traj.sample_at(times)

    rows = []
    for t, (u, v, w) in zip(times, coeffs):
        m = MetricCoeffs(float(u), float(v), float(w))
        sa, sb, sc = stretch_from_metric(m)
        cs = curvature_summary(StretchFactors(sa, sb, sc, r2v))
        rows.append([float(t), m.u, m.v, m.w, sa, sb, sc,
                     (m.u + m.v) / m.w, (m.v - m.u) / m.w,
                     cs.kappa1, cs.kappa2, cs.kappa3,
                     cs.ricci11, cs.ricci22, cs.ricci33, cs.scalar])

    summary = {
        "collapse_time": traj.collapse_time,
        "terminated": traj.terminated.value,
        "num_samples": len(rows),
        "r_squared": r2v,
    }
    _emit_with_summary(_csv_text(SIMULATE_HEADER, rows), output, summary)


def _closed_form_options(param: str):
    """The options that snake and turtle share, after their own two."""
    def decorate(f):
        f = _output_option(f)
        f = _r2_option(f)
        f = click.option("--check", is_flag=True,
                         help="Also integrate numerically and report the max time deviation.")(f)
        return click.option("--grid", type=click.IntRange(min=2), default=200,
                            show_default=True,
                            help=f"Number of {param} intervals in the table.")(f)
    return decorate


def _closed_form(sol, r2v, grid, check, output, header, time_of, profile, column,
                 initial) -> None:
    """Emit the closed-form table of a snake or turtle, its parameter running
    from 1 down to 0 at collapse, and the summary.  With check, also
    integrate the flow and report the largest gap between a step's time and
    the closed-form time at that step's coefficient `column`, taken relative
    to its start."""
    import numpy as np

    scale = r2v / 4.0  # closed-form times use the R^2 = 4 normalization

    rows = []
    for s in np.linspace(1.0, 0.0, grid + 1):
        s = float(s)
        t = scale * time_of(sol, s)
        a, b = profile(sol, s) if s > 0.0 else (0.0, 0.0)
        rows.append([s, t, a, b])

    summary = {"collapse_time": scale * sol.collapse_T, **initial, "r_squared": r2v}
    if check:
        start = sol.initial_coeffs.as_tuple()[column]
        traj = flow.integrate(sol.initial_coeffs, flow.FlowParams(r_squared=r2v))
        deviation = 0.0
        for t, coeff in zip(traj.times, traj.coeffs):
            s = min(float(coeff[column]) / start, 1.0)
            deviation = max(deviation, abs(scale * time_of(sol, s) - float(t)))
        summary["numeric_collapse_time"] = traj.collapse_time
        summary["max_time_deviation"] = deviation
    _emit_with_summary(_csv_text(header, rows), output, summary)


@cli.command()
@click.option("--W", "big_w", required=True, type=float, help="Initial w coefficient.")
@click.option("--alpha", required=True, type=float, help="Non-sphericity, alpha^2 = W/V - 1.")
@_closed_form_options("lambda")
def snake(big_w, alpha, grid, check, r2, output):
    """Closed-form snake flow (a = b): table of lambda, t, w, v plus the
    collapse time."""
    r2v = _resolve_r2(r2)
    sol = flow.SnakeSolution(W=big_w, alpha=alpha)
    _closed_form(sol, r2v, grid, check, output, "lambda,t,w,v", flow.snake_time_of_lambda,
                 flow.snake_profile, 2,
                 {"w_initial": sol.W, "v_initial": sol.V, "alpha": sol.alpha})


@cli.command()
@click.option("--U", "big_u", required=True, type=float, help="Initial u coefficient.")
@click.option("--beta", required=True, type=float, help="Non-sphericity, beta^2 = 1 - U/V.")
@_closed_form_options("mu")
def turtle(big_u, beta, grid, check, r2, output):
    """Closed-form turtle flow (b = c): table of mu, t, u, v plus the
    collapse time."""
    r2v = _resolve_r2(r2)
    sol = flow.TurtleSolution(U=big_u, beta=beta)
    _closed_form(sol, r2v, grid, check, output, "mu,t,u,v", flow.turtle_time_of_mu,
                 flow.turtle_profile, 0,
                 {"u_initial": sol.U, "v_initial": sol.V, "beta": sol.beta})


def _parse_starts_file(path: str) -> list[ShapePoint]:
    points: list[ShapePoint] = []
    for line_number, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values = [float(part) for part in stripped.replace(",", " ").split()]
        except ValueError:
            if line_number == 1:
                continue  # tolerate a header line
            values = []
        if len(values) != 2:  # a flowlines table (line_id,x,y,t) would read line_id as x
            raise click.UsageError(
                f"{path}:{line_number}: expected two numbers, got {stripped!r}")
        points.append(ShapePoint(*values))
    if not points:
        raise click.UsageError(f"{path}: no start points found")
    return points


def _interior_grid(spec: str) -> list[ShapePoint]:
    match = re.fullmatch(r"(\d+)x(\d+)", spec.strip())
    if not match:
        raise click.UsageError(f'grid spec must look like "5x5", got {spec!r}')
    nx, ny = int(match.group(1)), int(match.group(2))
    if nx < 1 or ny < 1:
        raise click.UsageError("grid dimensions must be at least 1")
    points = []
    for i in range(1, nx + 1):
        x = 2.0 * i / (nx + 1)
        y_max = min(x, 2.0 - x)
        for j in range(1, ny + 1):
            points.append(ShapePoint(x, y_max * j / (ny + 1)))
    return points


@cli.command()
@click.option("--starts", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File of start points, one 'x,y' pair per line.")
@click.option("--grid", "grid_spec", type=str, default=None,
              help='Interior start grid, e.g. "5x5".')
@click.option("--c0", type=float, default=1.0, show_default=True,
              help="Largest stretch factor used to lift starts; scales t by 1/c0^2, "
                   "leaves x and y unchanged.")
@click.option("--forward-only", is_flag=True,
              help="Skip the backward extension toward the origin.")
@_r2_option
@click.option("--apex-output", type=click.Path(dir_okay=False), default=None,
              help="Also write the apex table (line_id,x,y) to this file.")
@_output_option
def flowlines(starts, grid_spec, c0, forward_only, r2, apex_output, output):
    """Trace flow lines through the shape triangle and report their apexes."""
    if (starts is None) == (grid_spec is None):
        raise click.UsageError("exactly one of --starts or --grid is required")
    points = _parse_starts_file(starts) if starts else _interior_grid(grid_spec)
    params = flow.FlowParams(r_squared=_resolve_r2(r2))

    rows = []
    apex_rows = []
    for line_id, start in enumerate(points):
        line = shapespace.trace_flowline(start, c0, params,
                                         include_backward=not forward_only)
        for x, y, t in zip(line.xs, line.ys, line.times):
            rows.append([line_id, float(x), float(y), float(t)])
        apex_rows.append([line_id, line.apex.x, line.apex.y])

    if apex_output:
        _write(apex_output, _csv_text("line_id,x,y", apex_rows))
    summary = {
        "num_lines": len(points),
        "apexes": [{"line_id": i, "x": x, "y": y} for i, x, y in apex_rows],
    }
    _emit_with_summary(_csv_text("line_id,x,y,t", rows), output, summary)


@cli.command()
@click.option("--resolution", type=int, default=64, show_default=True,
              help="Grid subdivisions per boundary (minimum 16).")
@_output_option
def regions(resolution, output):
    """Extract the classification boundaries (scalar zero, smallest
    principal curvature zero, degenerate-Ricci line) as labeled polylines."""
    bounds = shapespace.region_boundaries(resolution)
    labels = (shapespace.SCALAR_ZERO, shapespace.KAPPA_MIN_ZERO, shapespace.RICCI_DEGENERATE)
    rows = []
    for label in labels:
        for x, y in bounds[label]:
            rows.append([label, float(x), float(y)])
    summary = {
        "scalar_zero_x_intercept": float(bounds[shapespace.SCALAR_ZERO][0, 0]),
        "kappa_min_zero_x_intercept": float(bounds[shapespace.KAPPA_MIN_ZERO][-1, 0]),
        "points_per_boundary": {label: len(bounds[label]) for label in labels},
    }
    _emit_with_summary(_csv_text("label,x,y", rows), output, summary)


def _emit_error(kind: str, message: str) -> None:
    click.echo(json.dumps({"error": kind, "message": message}), err=True)


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, prog_name="danteflow", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        _emit_error("usage", exc.format_message())
        return 2
    except IntegrationFailureError as exc:
        _emit_error("integration_failure", str(exc))
        return 4
    except DomainError as exc:
        _emit_error("domain", str(exc))
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
