"""Command-line front end emitting CSV tables and JSON summaries.

Output contract:

* The primary artifact (a CSV table, or a single JSON object for
  ``curvature``/``classify``) goes to ``--output`` when given, else stdout.
* Tabular commands additionally emit a one-line JSON summary: to stdout
  when the table went to a file, to stderr otherwise, so stdout always
  stays parseable.
* Floats are printed as shortest round-trip decimals; output is UTF-8 with
  LF line endings.  Identical invocations on one machine (Python, numpy
  build, libm, CPU features) are byte-identical; across machines step and
  sample counts agree, and values only to rounding.  argparse's own texts
  differ between Python versions.
* Exit codes: 0 success, 1 output failure (stdout or stderr cannot be
  written), 2 usage error, 3 domain error, 4 integration failure.
  Failures put a single JSON object on stderr, unless stderr itself
  failed.  A file named by
  ``--output``, ``--apex-output`` or ``--starts`` that cannot be written
  or read is a usage error whose message names the file, found where the
  file is used, so files written before it stay (``flowlines`` writes
  ``--apex-output`` first).

``DANTE_FLOW_R2``, when set and not empty, overrides the default
radius-squared wherever ``--r2`` is accepted and not given.  The parser is
argparse, so a launch loads no third-party module until a command needs
numpy.  Every command imports this module, so it imports numpy only inside
simulate and _closed_form, the two functions that use it, and it calls no
numpy function that loads numpy.ma (np.unique does, at 12-15 ms of a
launch).  main sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller set
it: the commands do no linear algebra, and OpenBLAS's thread pool, which
numpy starts as it loads, cost 70-80 ms of a 250-340 ms simulate launch
on 2 cores.  ``import danteflow`` leaves numpy's configuration to its user.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from . import flow, shapespace
from .errors import DomainError, IntegrationFailureError, SingularMapError
from .geometry import (DEFAULT_EQ_TOL, DEFAULT_R_SQUARED, GRID_LIMIT, MetricCoeffs,
                       ShapePoint, StretchFactors, _require_positive, classify as classify_shape,
                       connection_coefficients, curvature_summary,
                       metric_coeffs, stretch_from_metric, to_rho_tau, to_xy)

SIMULATE_HEADER = ("t,u,v,w,a,b,c,x,y,"
                   "kappa1,kappa2,kappa3,ricci11,ricci22,ricci33,scalar")


class UsageError(Exception):
    """A malformed command line (exit code 2)."""


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


def _named(exc: OSError, path: str) -> OSError:
    """exc, naming path where it names no file (a failed write or close):
    main takes an OSError that names none for a failed standard stream."""
    if exc.filename is None:
        exc.filename = path
    return exc


def _write(output: str | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:  # "" names no file, so writing it fails
        Path(output).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _named(exc, output)


def _emit_with_summary(table: str, output: str | None, summary: dict) -> None:
    # Summary shares stdout only when the table went to a file.
    _write(output, table)
    print(_json_line(summary), file=sys.stdout if output else sys.stderr)


def _resolve_r2(r2: float | None) -> float:
    value = DEFAULT_R_SQUARED if r2 is None else r2
    _require_positive("r_squared", value)
    return value


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


def classify(a, b, c, r2, eq_tol, output_format, output):
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


def simulate(a, b, c, r2, grid, rel_tol, abs_tol, collapse_eps, max_steps, output):
    """Integrate the flow from ordered stretch factors a <= b <= c and emit
    the trajectory table plus a JSON summary with the collapse time."""
    if grid == 1:  # a grid spans the trajectory, so it needs both ends
        raise UsageError("argument --grid: must be 0 (no grid) or at least 2")
    import numpy as np

    r2v = _resolve_r2(r2)
    f = StretchFactors.ordered(a, b, c, r2v)
    params = flow.FlowParams(r_squared=r2v, rel_tol=rel_tol, abs_tol=abs_tol,
                             collapse_eps=collapse_eps, max_steps=max_steps)
    traj = flow.integrate(metric_coeffs(f), params)

    times = traj.times
    if grid:
        # Sorted, each value once; np.unique would load numpy.ma.
        times = np.sort(np.concatenate([times, np.linspace(times[0], times[-1], grid)]))
        times = times[np.concatenate([[True], times[1:] != times[:-1]])]
    coeffs = traj.sample_at(times)

    rows = []
    for t, (u, v, w) in zip(times.tolist(), coeffs.tolist()):
        m = MetricCoeffs(u, v, w)
        sa, sb, sc = stretch_from_metric(m)
        cs = curvature_summary(StretchFactors(sa, sb, sc, r2v))
        rows.append([t, m.u, m.v, m.w, sa, sb, sc,
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
    for s in np.linspace(1.0, 0.0, grid + 1).tolist():
        t = scale * time_of(sol, s)
        a, b = profile(sol, s) if s > 0.0 else (0.0, 0.0)
        rows.append([s, t, a, b])

    summary = {"collapse_time": scale * sol.collapse_T, **initial, "r_squared": r2v}
    if check:
        start = sol.initial_coeffs.as_tuple()[column]
        traj = flow.integrate(sol.initial_coeffs, flow.FlowParams(r_squared=r2v))
        deviation = 0.0
        for t, coeff in zip(traj.times.tolist(), traj.coeffs[:, column].tolist()):
            s = min(coeff / start, 1.0)
            deviation = max(deviation, abs(scale * time_of(sol, s) - t))
        summary["numeric_collapse_time"] = traj.collapse_time
        summary["max_time_deviation"] = deviation
    _emit_with_summary(_csv_text(header, rows), output, summary)


def snake(W, alpha, grid, check, r2, output):
    """Closed-form snake flow (a = b): table of lambda, t, w, v plus the
    collapse time."""
    r2v = _resolve_r2(r2)
    sol = flow.SnakeSolution(W=W, alpha=alpha)
    _closed_form(sol, r2v, grid, check, output, "lambda,t,w,v", flow.snake_time_of_lambda,
                 flow.snake_profile, 2,
                 {"w_initial": sol.W, "v_initial": sol.V, "alpha": sol.alpha})


def turtle(U, beta, grid, check, r2, output):
    """Closed-form turtle flow (b = c): table of mu, t, u, v plus the
    collapse time."""
    r2v = _resolve_r2(r2)
    sol = flow.TurtleSolution(U=U, beta=beta)
    _closed_form(sol, r2v, grid, check, output, "mu,t,u,v", flow.turtle_time_of_mu,
                 flow.turtle_profile, 0,
                 {"u_initial": sol.U, "v_initial": sol.V, "beta": sol.beta})


def _parse_starts_file(path: str) -> list[ShapePoint]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    except OSError as exc:
        raise _named(exc, path)
    points: list[ShapePoint] = []
    for line_number, raw in enumerate(text.splitlines(), 1):
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
            raise UsageError(
                f"{path}:{line_number}: expected two numbers, got {stripped!r}")
        points.append(ShapePoint(*values))
    if not points:
        raise UsageError(f"{path}: no start points found")
    return points


def _interior_grid(spec: str) -> list[ShapePoint]:
    match = re.fullmatch(r"(\d+)x(\d+)", spec.strip())
    if not match:
        raise UsageError(f'grid spec must look like "5x5", got {spec!r}')
    nx, ny = int(match.group(1)), int(match.group(2))
    if nx < 1 or ny < 1:
        raise UsageError("grid dimensions must be at least 1")
    points = []
    for i in range(1, nx + 1):
        x = 2.0 * i / (nx + 1)
        y_max = min(x, 2.0 - x)
        for j in range(1, ny + 1):
            points.append(ShapePoint(x, y_max * j / (ny + 1)))
    return points


def flowlines(starts, grid_spec, c0, forward_only, r2, apex_output, output):
    """Trace flow lines through the shape triangle and report their apexes."""
    if (starts is None) == (grid_spec is None):
        raise UsageError("exactly one of --starts or --grid is required")
    points = _parse_starts_file(starts) if starts is not None else _interior_grid(grid_spec)
    params = flow.FlowParams(r_squared=_resolve_r2(r2))

    rows = []
    apex_rows = []
    for line_id, start in enumerate(points):
        line = shapespace.trace_flowline(start, c0, params,
                                         include_backward=not forward_only)
        for x, y, t in zip(line.xs.tolist(), line.ys.tolist(), line.times.tolist()):
            rows.append([line_id, x, y, t])
        apex_rows.append([line_id, line.apex.x, line.apex.y])

    if apex_output is not None:
        _write(apex_output, _csv_text("line_id,x,y", apex_rows))
    summary = {
        "num_lines": len(points),
        "apexes": [{"line_id": i, "x": x, "y": y} for i, x, y in apex_rows],
    }
    _emit_with_summary(_csv_text("line_id,x,y,t", rows), output, summary)


def regions(resolution, output):
    """Extract the classification boundaries (scalar zero, smallest
    principal curvature zero, degenerate-Ricci line) as labeled polylines."""
    labels = (shapespace.SCALAR_ZERO, shapespace.KAPPA_MIN_ZERO, shapespace.RICCI_DEGENERATE)
    bounds = {label: points.tolist()
              for label, points in shapespace.region_boundaries(resolution).items()}
    rows = [[label, x, y] for label in labels for x, y in bounds[label]]
    summary = {
        "scalar_zero_x_intercept": bounds[shapespace.SCALAR_ZERO][0][0],
        "kappa_min_zero_x_intercept": bounds[shapespace.KAPPA_MIN_ZERO][-1][0],
        "points_per_boundary": {label: len(bounds[label]) for label in labels},
    }
    _emit_with_summary(_csv_text("label,x,y", rows), output, summary)


class _Parser(argparse.ArgumentParser):
    """argparse with click's habits: --help without -h, no abbreviated
    options, errors that raise UsageError, and values like -1e-3, -inf and
    -nan read as numbers, which argparse's own pattern may take for unknown
    options."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int, below: float = math.inf):
    """The type of an integer option whose values start at low and stay
    below `below`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        if value >= below:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x<{below}")
        return value
    return integer


def _parser() -> _Parser:
    """One subcommand per command function; each option's dest names a parameter."""
    parser = _Parser(prog="danteflow", description="Curvature, Ricci-flow collapse, and "
                     "shape-space portraits of homogeneously deformed 3-spheres.")
    parser.add_argument("--version", action="version", version="danteflow, version 0.1.0",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def number(sub, flag, help="", default=None, type=float, **kwargs):
        if default is not None:
            help = f"{help} [default: {default}]".lstrip()
        sub.add_argument(flag, type=type, default=default, help=help,
                         metavar="FLOAT" if type is float else "INTEGER", **kwargs)

    def command(run, shape=False, r2=True, formats=False):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        for name, ordinal in zip("abc", ("First", "Second", "Third")) if shape else ():
            number(sub, f"--{name}", f"{ordinal} stretch factor.", required=True)
        if r2:  # an empty DANTE_FLOW_R2 is unset; type=float parses a set one
            sub.add_argument("--r2", type=float, metavar="FLOAT",
                             default=os.environ.get("DANTE_FLOW_R2") or None,
                             help="Radius squared R^2 (default 4; DANTE_FLOW_R2 overrides).")
        if formats:
            sub.add_argument("--format", dest="output_format", choices=("json", "csv"),
                             default="json", help="Primary artifact format.")
        sub.add_argument("--output", metavar="FILE",
                         help="Write the primary artifact to this file instead of stdout.")
        return sub

    command(curvature, shape=True, formats=True)
    number(command(classify, shape=True, formats=True), "--eq-tol",
           "Relative tolerance for equality and sign decisions.", DEFAULT_EQ_TOL)

    sub = command(simulate, shape=True)
    number(sub, "--grid", "Uniform time samples merged with the adaptive steps "
           "(0 disables).", 200, _at_least(0, GRID_LIMIT))
    # The bound is flow.MAX_REL_TOL, written out so that no quick query loads flow.
    number(sub, "--rel-tol", "Relative tolerance, at most 0.001.", 1e-10)
    number(sub, "--abs-tol", "Absolute tolerance, at most 0.001.", 1e-12)
    number(sub, "--collapse-eps", "Share of the largest initial coefficient at which "
           "to stop.", 1e-9)
    number(sub, "--max-steps", "", 10_000, _at_least(1))

    for run, coeff, ratio, law, param in (
            (snake, "--W", "--alpha", "alpha^2 = W/V - 1", "lambda"),
            (turtle, "--U", "--beta", "beta^2 = 1 - U/V", "mu")):
        sub = command(run)
        number(sub, coeff, f"Initial {coeff[2:].lower()} coefficient.", required=True)
        number(sub, ratio, f"Non-sphericity, {law}.", required=True)
        number(sub, "--grid", f"Number of {param} intervals in the table.", 200,
               _at_least(2, GRID_LIMIT))
        sub.add_argument("--check", action="store_true",
                         help="Also integrate numerically and report the max time deviation.")

    sub = command(flowlines)
    sub.add_argument("--starts", metavar="FILE",
                     help="File of start points, one 'x,y' pair per line.")
    sub.add_argument("--grid", dest="grid_spec", metavar="TEXT",
                     help='Interior start grid, e.g. "5x5".')
    number(sub, "--c0", "Largest stretch factor used to lift starts; scales t by "
           "1/c0^2, leaves x and y unchanged.", 1.0)
    sub.add_argument("--forward-only", action="store_true",
                     help="Skip the backward extension toward the origin.")
    sub.add_argument("--apex-output", metavar="FILE",
                     help="Also write the apex table (line_id,x,y) to this file.")

    number(command(regions, r2=False), "--resolution",
           "Grid subdivisions per boundary (minimum 16).", 64, int)
    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    # One OpenBLAS thread unless the caller chose: the CLI does no linear
    # algebra, and starting the pool costs most of numpy's import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = vars(_parser().parse_args(argv))
        args.pop("run")(**args)
        sys.stdout.flush()  # so that a failed write to stdout fails here
        return 0
    except SystemExit:  # --help and --version; argparse's errors raise UsageError
        return 0
    except UsageError as exc:
        kind, code, message = "usage", 2, str(exc)
    except OSError as exc:
        if exc.filename is not None:  # a file the user named (_write, _parse_starts_file)
            kind, code, message = "usage", 2, str(exc)
        else:  # a standard stream; if it was stderr, the report below fails too
            kind, code, message = "output", 1, f"standard output: {exc}"
    except IntegrationFailureError as exc:
        kind, code, message = "integration_failure", 4, str(exc)
    except DomainError as exc:
        kind, code, message = "domain", 3, str(exc)
    try:
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    except OSError:  # stderr failed too: nowhere left to say why
        return 1
    return code


def entry() -> None:
    sys.exit(main())
