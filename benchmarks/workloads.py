"""The three workloads: seeded inputs, operations, and output checks.

Each workload is a closed loop with one caller that runs whole rounds of
operations back to back.  Inputs are drawn from the seed with stratified
(Latin hypercube) sampling inside each shape kind, so that two seeds give
the same mix of easy and hard operations and different points.

* sweep -- one operation integrates one seeded ordered shape to collapse,
  then tabulates 200 uniform-time samples with curvature_summary at each,
  as `danteflow simulate` does; snakes and turtles also invert their closed
  form at every accepted step.  A round is one pass over a pool of shapes.
* portrait -- five flow lines through seeded interior starts, one
  region_boundaries call at resolution 256, and one fault probe per round.
* cli -- one `danteflow` subprocess per operation: nine quick queries
  (one of them a repeat that must give identical bytes), simulate, snake
  --check, turtle --check, regions, flowlines on three starts, and one
  fault probe per round.

Generation runs in the benchmark's parent process and may use the
reference solvers; the operations and their checks run where the program
runs and use only the cheap reference formulas.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import references as ref
from refspeed import OpRecord, measure_reference


@dataclass(frozen=True)
class Spec:
    """Per-workload run shape: the minimum operations per run, fault probes
    not counted; the tail percentile, chosen so that at least ten samples
    lie beyond it; the rounds of a traced run; and the reference loops in
    each bracket, a few per cent of an operation's time."""

    min_ops: int
    tail_pct: int
    trace_rounds: int
    ref_reps: int


SPECS = {
    "sweep": Spec(min_ops=200, tail_pct=95, trace_rounds=1, ref_reps=3),
    "portrait": Spec(min_ops=100, tail_pct=90, trace_rounds=6, ref_reps=3),
    "cli": Spec(min_ops=40, tail_pct=75, trace_rounds=1, ref_reps=25),
}

#: Sweep shape kinds, each with the grid of strata over the parameters that
#: set its cost: one shape per cell, so every seed has the same share of
#: hard shapes.
SWEEP_MIX = (("dragon", (6, 4)), ("snake", (14,)), ("turtle", (14,)),
             ("near_round", (4, 2)), ("round", (2,)), ("thin", (3, 6)))
SWEEP_GRID = 200
PORTRAIT_GRID = (6, 5)  # strata in x and in the share of the height
PORTRAIT_LINES_PER_ROUND = 5
PORTRAIT_RESOLUTION = 256
CLI_REGIONS_RESOLUTION = 64

#: Relative slack on u <= v <= w, the one the acceptance tests allow,
#: taken against the initial largest coefficient.
ORDER_SLACK = 1e-10
#: Collapse time against the references: the integrator reaches ~1e-9.
COLLAPSE_REL = 1e-7
#: Curvatures against the bracket-form references, relative to the row's
#: largest magnitude.
CURVATURE_REL = 1e-8
#: Flow-line apex on the circle and end at (2, 0).
LINE_TOL = 1e-4
#: The t = 0 sample against the start.
START_TOL = 1e-12

SIMULATE_HEADER = ("t,u,v,w,a,b,c,x,y,kappa1,kappa2,kappa3,"
                   "ricci11,ricci22,ricci33,scalar")


@dataclass
class Op:
    """One operation: run() is timed; check(result, error) is not, and
    returns None when the output is right or a one-line description."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]
    probe: bool = False


def lhs(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points of a Latin hypercube in [0, 1)^dims: one per stratum per axis."""
    return np.column_stack([(rng.permutation(n) + rng.uniform(size=n)) / n
                            for _ in range(dims)])


def grid(rng: np.random.Generator, cells: tuple[int, ...]) -> np.ndarray:
    """One uniform point in each cell of a regular grid over [0, 1)^len(cells)."""
    index = np.indices(cells).reshape(len(cells), -1).T
    return (index + rng.uniform(size=index.shape)) / np.array(cells)


def _span(unit, lo, hi):
    return lo + (hi - lo) * unit


def _interior(x_unit, t_unit, x_lo, x_hi, t_lo, t_hi):
    """Triangle point with x in [x_lo, x_hi] and y a share t of the height."""
    x = _span(x_unit, x_lo, x_hi)
    y = _span(t_unit, t_lo, t_hi) * min(x, 2.0 - x)
    return float(x), float(y)


def _stretch_of_xy(x, y, c):
    return c * (x - y) / 2.0, c * (x + y) / 2.0, c


# ---------------------------------------------------------------- sweep

def sweep_item(kind: str, params: dict) -> dict:
    """A sweep input with its metric coefficients and reference collapse time."""
    if kind == "snake":
        W, alpha = params["W"], params["alpha"]
        V = W / (1.0 + alpha * alpha)
        coeffs, T = (V, V, W), ref.snake_collapse_time(W, alpha)
    elif kind == "turtle":
        U, beta = params["U"], params["beta"]
        V = U / (1.0 - beta * beta)
        coeffs, T = (U, V, V), ref.turtle_collapse_time(U, beta)
    elif kind == "round":
        W = params["W"]
        coeffs, T = (W, W, W), ref.round_collapse_time(W)
    else:
        coeffs = ref.metric_of_stretch(params["a"], params["b"], params["c"])
        T = ref.numeric_collapse_time(coeffs)
    return {"kind": kind, "params": params, "coeffs": list(coeffs), "T": T}


def sweep_inputs(seed: int) -> list[dict]:
    """The seed's pool of shapes, shuffled so that kinds interleave."""
    rng = np.random.default_rng([seed, 1])
    items = []
    for kind, cells in SWEEP_MIX:
        rows = grid(rng, cells)
        scales = _span(lhs(rng, len(rows), 1)[:, 0], 0.5, 2.0)
        for row, c in zip(rows, scales):
            c = float(c)
            if kind == "snake":
                params = {"W": c, "alpha": float(_span(row[0], 0.1, 4.0))}
            elif kind == "turtle":
                params = {"U": c, "beta": float(_span(row[0], 0.05, 0.9))}
            elif kind == "round":
                params = {"W": c}
            elif kind == "thin":
                a = c * 10.0 ** _span(row[0], -3.0, -2.0)
                params = {"a": float(a), "b": float(c * _span(row[1], 0.05, 0.95)), "c": c}
            else:
                x_lo, x_hi = (0.1, 1.9) if kind == "dragon" else (1.9, 1.99)
                x, y = _interior(row[0], row[1], x_lo, x_hi, 0.1, 0.9)
                a, b, c = _stretch_of_xy(x, y, c)
                params = {"a": a, "b": b, "c": c}
            items.append(sweep_item(kind, params))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


#: The fixed warm-up operation of sweep's set-up.
SWEEP_WARMUP = ("dragon", {"a": 0.1, "b": 0.5, "c": 1.0})


def _inversion_tol(item: dict) -> float:
    return 1e-5 if item["params"].get("beta", 0.0) > 0.85 else 1e-6


def _curvature_problem(coeffs: np.ndarray, rows) -> str | None:
    u, v, w = coeffs[:, 0], coeffs[:, 1], coeffs[:, 2]
    riccis = np.column_stack(ref.ricci_of_metric(u, v, w))
    kappas = np.column_stack(ref.kappas_of_ricci(*riccis.T))
    got_r = np.array([[r.ricci11, r.ricci22, r.ricci33] for r in rows])
    got_k = np.array([[r.kappa1, r.kappa2, r.kappa3] for r in rows])
    got_s = np.array([r.scalar for r in rows])
    scale = np.abs(kappas).max(axis=1)
    err = max(np.max(np.abs(got_r - riccis).max(axis=1) / scale),
              np.max(np.abs(got_k - kappas).max(axis=1) / scale),
              np.max(np.abs(got_s - 2.0 * kappas.sum(axis=1)) / scale))
    if not err <= CURVATURE_REL:
        return f"curvature table off the bracket-form reference by {err:.3g}"
    return None


def _ordering_problem(coeffs: np.ndarray, w0: float) -> str | None:
    slack = ORDER_SLACK * w0
    if np.all(coeffs[:, 0] <= coeffs[:, 1] + slack) and np.all(coeffs[:, 1] <= coeffs[:, 2] + slack):
        return None
    return "u <= v <= w broken along the trajectory"


def sweep_op(df, item: dict) -> Op:
    kind, params = item["kind"], item["params"]

    def run():
        traj = df.integrate(df.MetricCoeffs(*item["coeffs"]))
        ts, coeffs = traj.uniform_grid(SWEEP_GRID)
        table = [df.curvature_summary(df.StretchFactors(
            *df.stretch_from_metric(df.MetricCoeffs(*row)))) for row in coeffs]
        inverted = None
        if kind == "snake":
            sol = df.SnakeSolution(W=params["W"], alpha=params["alpha"])
            inverted = [df.snake_lambda_of_time(sol, t) for t in traj.times[1:]]
        elif kind == "turtle":
            sol = df.TurtleSolution(U=params["U"], beta=params["beta"])
            inverted = [df.turtle_mu_of_time(sol, t) for t in traj.times[1:]]
        return traj, ts, coeffs, table, inverted

    def check(result, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        traj, ts, coeffs, table, inverted = result
        if traj.terminated.value != "collapsed":
            return f"terminated {traj.terminated.value}, not collapsed"
        if not ref.is_close(traj.collapse_time, item["T"], COLLAPSE_REL):
            return f"collapse time {traj.collapse_time!r} vs reference {item['T']!r}"
        problem = _ordering_problem(traj.coeffs, max(item["coeffs"]))
        if problem:
            return problem
        if len(ts) != SWEEP_GRID or ts[0] != traj.times[0] or ts[-1] != traj.times[-1]:
            return "uniform grid does not span the trajectory"
        problem = _curvature_problem(coeffs, table)
        if problem:
            return problem
        if inverted is not None:
            if kind == "snake":
                exact = traj.coeffs[1:, 2] / params["W"]
            else:
                exact = traj.coeffs[1:, 0] / params["U"]
            err = float(np.max(np.abs(np.array(inverted) - exact)))
            if not err <= _inversion_tol(item):
                return f"closed-form inversion off by {err:.3g}"
        return None

    return Op(kind, run, check)


# ------------------------------------------------------------- portrait

def portrait_inputs(seed: int) -> list[list[float]]:
    rng = np.random.default_rng([seed, 2])
    return [list(_interior(row[0], row[1], 0.05, 1.95, 0.05, 0.95))
            for row in grid(rng, PORTRAIT_GRID)]


#: The fixed warm-up operation of portrait's set-up.
PORTRAIT_WARMUP = (1.0, 0.5)
#: trace_flowline must raise IntegrationFailureError here: 40 steps do not
#: reach collapse from this start.
PORTRAIT_PROBE = (0.5, 0.25)
PORTRAIT_PROBE_MAX_STEPS = 40


def line_problem(xs, ys, ts, apex, start) -> str | None:
    """Checks a flow line against the laws every interior line obeys."""
    xs, ys, ts = np.asarray(xs), np.asarray(ys), np.asarray(ts)
    if not np.all(np.diff(xs) > 0.0):
        return "x does not strictly increase along the line"
    at_zero = np.flatnonzero(ts == 0.0)
    if len(at_zero) != 1:
        return f"{len(at_zero)} samples at t = 0"
    i = int(at_zero[0])
    if abs(xs[i] - start[0]) > START_TOL or abs(ys[i] - start[1]) > START_TOL:
        return f"t = 0 sample ({xs[i]!r}, {ys[i]!r}) is not the start {start}"
    end = math.hypot(xs[-1] - 2.0, ys[-1])
    if not end <= LINE_TOL:
        return f"line ends {end:.3g} away from (2, 0)"
    off = abs(math.hypot(*apex) - math.sqrt(2.0))
    if not off <= LINE_TOL:
        return f"apex {apex} is {off:.3g} off the circle x^2 + y^2 = 2"
    return None


def line_op(df, start) -> Op:
    def run():
        return df.trace_flowline(df.ShapePoint(*start))

    def check(line, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        return line_problem(line.xs, line.ys, line.times, (line.apex.x, line.apex.y), start)

    return Op("line", run, check)


def boundary_problem(bounds: dict, resolution: int) -> str | None:
    """Checks region boundaries against the exact parabolas and the x = 1 line."""
    scalar = np.asarray(bounds["scalar_zero"])
    kappa = np.asarray(bounds["kappa_min_zero"])
    ricci = np.asarray(bounds["ricci_degenerate"])
    if len(scalar) != resolution or len(kappa) != resolution or len(ricci) != resolution + 1:
        return "boundary polylines have the wrong number of points"
    err = max(np.max(np.abs(ref.scalar_zero_residual(*scalar.T))),
              np.max(np.abs(ref.kappa_min_zero_residual(*kappa.T))))
    if not err <= 1e-9:
        return f"boundary points off their parabolas by {err:.3g}"
    if not (ref.is_close(scalar[0, 0], ref.SCALAR_ZERO_INTERCEPT, 0.0, 1e-9)
            and ref.is_close(kappa[-1, 0], ref.KAPPA_MIN_ZERO_INTERCEPT, 0.0, 1e-9)
            and scalar[0, 1] == 0.0 and kappa[-1, 1] == 0.0):
        return "boundary intercepts are not 0.5 and 1.5"
    if not (np.all(ricci[:, 0] == ref.RICCI_DEGENERATE_X)
            and np.allclose(ricci[:, 1], np.linspace(0.0, 1.0, resolution + 1), rtol=0, atol=1e-15)):
        return "degenerate-Ricci line is not x = 1 from y = 0 to 1"
    return None


def _boundary_op(df) -> Op:
    def run():
        return df.region_boundaries(PORTRAIT_RESOLUTION)

    def check(bounds, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        return boundary_problem(bounds, PORTRAIT_RESOLUTION)

    return Op("boundaries", run, check)


def _portrait_probe(df) -> Op:
    def run():
        return df.trace_flowline(df.ShapePoint(*PORTRAIT_PROBE),
                                 params=df.FlowParams(max_steps=PORTRAIT_PROBE_MAX_STEPS))

    def check(line, error):
        if isinstance(error, df.IntegrationFailureError):
            return None
        if error is not None:
            return f"raised {type(error).__name__}, not IntegrationFailureError"
        return (f"truncated line returned, ending at x = {line.xs[-1]:.4g} "
                "with no IntegrationFailureError")

    return Op("probe", run, check, probe=True)


def portrait_round(df, starts, k: int) -> list[Op]:
    n = PORTRAIT_LINES_PER_ROUND
    ops = [line_op(df, starts[(n * k + j) % len(starts)]) for j in range(n)]
    return ops + [_boundary_op(df), _portrait_probe(df)]


# ------------------------------------------------------------ the loop

def run_rounds(make_round: Callable[[int], list[Op]], spec: Spec, *,
               seconds: float | None, tracer=None) -> list[OpRecord]:
    """Run whole rounds until `seconds` have passed and at least
    spec.min_ops operations other than fault probes were attempted; with
    seconds None, run exactly spec.trace_rounds rounds.

    Each operation is bracketed by reference measurements; the check runs
    after the bracket closes.
    """
    records: list[OpRecord] = []
    measured = 0
    ref_before = measure_reference(spec.ref_reps)
    start = perf_counter()
    k = 0
    while True:
        for op in make_round(k):
            if tracer is not None:
                tracer.op = len(records)
            t0 = perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # the check decides what an error means
                result, error = None, exc
            raw = perf_counter() - t0
            ref_after = measure_reference(spec.ref_reps)
            problem = op.check(result, error)
            records.append(OpRecord(op.kind, raw, ref_before, ref_after,
                                    problem is None, op.probe, problem or ""))
            measured += not op.probe
            ref_before = ref_after
        k += 1
        if seconds is None:
            if k >= spec.trace_rounds:
                return records
        elif perf_counter() - start >= seconds and measured >= spec.min_ops:
            return records


# ------------------------------------------------------------------ cli

@dataclass
class CliResult:
    code: int
    out: str
    err: str
    file_text: str = ""

    @property
    def output_bytes(self) -> int:
        return len((self.out + self.err + self.file_text).encode())


def _fmt(value: float) -> str:
    return repr(float(value))


def _parse_json(text: str) -> dict:
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)} lines")
    return json.loads(lines[0])


def _parse_csv(text: str, header: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"header {rows[0] if rows else None!r} is not {header!r}")
    return rows[1:]


def _floats(rows) -> np.ndarray:
    return np.array([[float(cell) for cell in row] for row in rows])


def _curvature_check(a, b, c):
    def check(res: CliResult):
        record = _parse_json(res.out)
        kappas, riccis = ref.curvature_of_stretch(a, b, c)
        scale = max(abs(k) for k in kappas)
        got = [record[k] for k in ("kappa1", "kappa2", "kappa3", "ricci11", "ricci22", "ricci33")]
        want = list(kappas) + list(riccis)
        err = max(abs(g - w) for g, w in zip(got, want)) / scale
        err = max(err, abs(record["scalar"] - 2.0 * sum(kappas)) / scale)
        if not err <= CURVATURE_REL:
            return f"curvatures off the bracket-form reference by {err:.3g}"
        r = 2.0  # R = sqrt(4)
        conn = ((a - b - c) / r, (b - a - c) / r, (c - a - b) / r)
        got_conn = (record["connection1"], record["connection2"], record["connection3"])
        if max(abs(g - w) for g, w in zip(got_conn, conn)) > 1e-12 * max(a, b, c):
            return "connection coefficients are not ((a-b-c)/R, ...)"
        if (record["a"], record["b"], record["c"]) != (a, b, c):
            return "stretch factors not echoed"
        return None
    return check


def _sign(value: float, scale: float) -> int | None:
    if abs(value) <= 1e-6 * scale:
        return None  # too close to zero to call independently
    return 1 if value > 0 else -1


def _classify_check(a, b, c, shape):
    def check(res: CliResult):
        record = _parse_json(res.out)
        if record["shape"] != shape:
            return f"classified as {record['shape']}, not {shape}"
        kappas, riccis = ref.curvature_of_stretch(a, b, c)
        scale = max(abs(k) for k in kappas)
        for got, want in ((record["curvature_signs"], kappas), (record["ricci_signs"], riccis),
                          ([record["scalar_sign"]], [2.0 * sum(kappas)])):
            for g, w in zip(got, want):
                s = _sign(w, scale)
                if s is not None and g != s:
                    return f"sign {g} where the reference is {w!r}"
        x, y = ref.triangle_xy(a, b, c)
        rho, tau = ref.rho_tau(x, y)
        if max(abs(record["x"] - x), abs(record["y"] - y)) > 1e-12:
            return "triangle coordinates are not ((a+b)/c, (b-a)/c)"
        if max(abs(record["rho"] - rho), abs(record["tau"] - tau)) > 1e-9 * max(1.0, abs(rho)):
            return "(rho, tau) off the Ricci-ratio chart"
        return None
    return check


def _simulate_check(a, b, c, T):
    def check(res: CliResult):
        summary = _parse_json(res.out)
        rows = _floats(_parse_csv(res.file_text, SIMULATE_HEADER))
        if summary["terminated"] != "collapsed" or summary["r_squared"] != 4.0:
            return f"summary {summary}"
        if not ref.is_close(summary["collapse_time"], T, COLLAPSE_REL):
            return f"collapse time {summary['collapse_time']!r} vs reference {T!r}"
        if rows.shape != (summary["num_samples"], 16):
            return f"table shape {rows.shape} vs {summary['num_samples']} samples"
        t, uvw = rows[:, 0], rows[:, 1:4]
        if t[0] != 0.0 or not np.all(np.diff(t) > 0.0):
            return "times do not rise from 0"
        problem = _ordering_problem(uvw, max(ref.metric_of_stretch(a, b, c)))
        if problem:
            return problem
        riccis = np.column_stack(ref.ricci_of_metric(*uvw.T))
        kappas = np.column_stack(ref.kappas_of_ricci(*riccis.T))
        scale = np.abs(kappas).max(axis=1)
        err = np.max(np.abs(rows[:, 9:12] - kappas).max(axis=1) / scale)
        if not err <= CURVATURE_REL:
            return f"table curvatures off the reference by {err:.3g}"
        return None
    return check


def _closed_form_check(header, T, tol):
    def check(res: CliResult):
        rows = _floats(_parse_csv(res.out, header))
        summary = _parse_json(res.err)
        if rows.shape != (201, 4) or tuple(rows[0, :2]) != (1.0, 0.0) or rows[-1, 0] != 0.0:
            return "closed-form table does not run from 1 to 0 in 200 steps"
        if not ref.is_close(summary["collapse_time"], T, 1e-12):
            return f"closed-form collapse time {summary['collapse_time']!r} vs {T!r}"
        if not ref.is_close(rows[-1, 1], T, 1e-12):
            return "table does not end at the collapse time"
        if not ref.is_close(summary["numeric_collapse_time"], T, COLLAPSE_REL):
            return f"numeric collapse time {summary['numeric_collapse_time']!r} vs {T!r}"
        if not summary["max_time_deviation"] < tol:
            return f"--check deviation {summary['max_time_deviation']!r}"
        return None
    return check


def _regions_check(res: CliResult):
    summary = _parse_json(res.err)
    rows = _parse_csv(res.out, "label,x,y")
    bounds = {}
    for label, x, y in rows:
        bounds.setdefault(label, []).append((float(x), float(y)))
    if summary["scalar_zero_x_intercept"] != bounds["scalar_zero"][0][0]:
        return "summary intercept differs from the table"
    return boundary_problem(bounds, CLI_REGIONS_RESOLUTION)


def _flowlines_check(starts):
    def check(res: CliResult):
        summary = _parse_json(res.err)
        rows = _floats(_parse_csv(res.out, "line_id,x,y,t"))
        if summary["num_lines"] != len(starts):
            return f"{summary['num_lines']} lines for {len(starts)} starts"
        for i, start in enumerate(starts):
            line = rows[rows[:, 0] == i]
            apex = summary["apexes"][i]
            problem = line_problem(line[:, 1], line[:, 2], line[:, 3], (apex["x"], apex["y"]), start)
            if problem:
                return f"line {i}: {problem}"
        return None
    return check


def _repeat_check(first: list):
    def check(res: CliResult):
        if not first or (res.out, res.err) != (first[0].out, first[0].err):
            return "a repeated command gave different bytes"
        return None
    return check


def _probe_check(res: CliResult):
    if res.code == 3:
        return None
    return f"exit {res.code} with {res.out.strip() or res.err.strip()}"


#: The fixed warm-up command of cli's set-up, checked against KAPPA_112/RICCI_112.
CLI_WARMUP = ["curvature", "--a", "1", "--b", "1", "--c", "2"]


def cli_warmup_problem(res: CliResult) -> str | None:
    if res.code != 0:
        return f"warm-up exited {res.code}: {res.err.strip()}"
    record = _parse_json(res.out)
    got = tuple(record[k] for k in ("kappa1", "kappa2", "kappa3", "ricci11", "ricci22", "ricci33"))
    if got != ref.KAPPA_112 + ref.RICCI_112:
        return f"(1, 1, 2) gave {got}"
    return None


def cli_round(seed: int, k: int, launch: Callable[[list[str]], CliResult],
              work_dir: Path) -> list[Op]:
    """Round k of the cli workload; launch(args) runs one command."""
    rng = np.random.default_rng([seed, 3, k])

    def op(kind, args, check, probe=False, read=None, keep=None):
        def run():
            res = launch(args)
            if read is not None and res.code == 0:
                res.file_text = read.read_text(encoding="utf-8")
            if keep is not None:
                keep.append(res)
            return res

        def checked(res, error):
            if error is not None:
                return f"raised {type(error).__name__}: {error}"
            if probe:
                return check(res)
            if res.code != 0:
                return f"exit {res.code}: {res.err.strip()}"
            try:
                return check(res)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return f"unparseable output: {type(exc).__name__}: {exc}"
        return Op(kind, run, checked, probe)

    def curvature(keep=None):
        a, b, c = (float(v) for v in rng.uniform(0.2, 2.0, 3))
        args = ["curvature", "--a", _fmt(a), "--b", _fmt(b), "--c", _fmt(c)]
        return args, op("curvature", args, _curvature_check(a, b, c), keep=keep)

    def classify(shape):
        lo, hi = sorted(float(v) for v in rng.uniform(0.2, 2.0, 2))
        hi = max(hi, 1.2 * lo)
        mid = float(_span(rng.uniform(), lo, hi))
        triple = {"dragon": [lo, mid, hi], "snake": [lo, lo, hi], "turtle": [lo, hi, hi]}[shape]
        a, b, c = (triple[i] for i in rng.permutation(3))
        return op("classify", ["classify", "--a", _fmt(a), "--b", _fmt(b), "--c", _fmt(c)],
                  _classify_check(a, b, c, shape))

    row = rng.uniform(size=3)
    x, y = _interior(row[0], row[1], 0.2, 1.8, 0.15, 0.85)
    a, b, c = _stretch_of_xy(x, y, float(_span(row[2], 0.5, 2.0)))
    sim_path = work_dir / "simulate.csv"
    simulate = op("simulate", ["simulate", "--a", _fmt(a), "--b", _fmt(b), "--c", _fmt(c),
                               "--output", str(sim_path)],
                  _simulate_check(a, b, c, ref.numeric_collapse_time(ref.metric_of_stretch(a, b, c))),
                  read=sim_path)

    W, alpha = (float(v) for v in (_span(rng.uniform(), 0.5, 2.0), _span(rng.uniform(), 0.1, 4.0)))
    snake = op("snake", ["snake", "--W", _fmt(W), "--alpha", _fmt(alpha), "--check"],
               _closed_form_check("lambda,t,w,v", ref.snake_collapse_time(W, alpha), 1e-6))
    U, beta = (float(v) for v in (_span(rng.uniform(), 0.5, 2.0), _span(rng.uniform(), 0.05, 0.9)))
    turtle = op("turtle", ["turtle", "--U", _fmt(U), "--beta", _fmt(beta), "--check"],
                _closed_form_check("mu,t,u,v", ref.turtle_collapse_time(U, beta), 1e-6))

    regions = op("regions", ["regions", "--resolution", str(CLI_REGIONS_RESOLUTION)], _regions_check)

    starts = [list(_interior(r[0], r[1], 0.1, 1.9, 0.1, 0.9)) for r in grid(rng, (3, 1))]
    starts_path = work_dir / "starts.csv"
    starts_path.write_text("".join(f"{_fmt(sx)},{_fmt(sy)}\n" for sx, sy in starts), encoding="utf-8")
    flowlines = op("flowlines", ["flowlines", "--starts", str(starts_path)], _flowlines_check(starts))

    probe = op("probe", ["classify", "--a", "1", "--b", "1", "--c", "1", "--eq-tol", "nan"],
               _probe_check, probe=True)

    first_result: list[CliResult] = []
    first_args, first = curvature(keep=first_result)
    quick = [first, classify("dragon"), curvature()[1], classify("snake"),
             curvature()[1], classify("turtle"), curvature()[1], classify("dragon")]
    repeat = op("repeat", first_args, _repeat_check(first_result))
    return [quick[0], quick[1], simulate, quick[2], quick[3], snake, quick[4], quick[5],
            turtle, quick[6], quick[7], regions, repeat, flowlines, probe]
