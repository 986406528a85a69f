"""danteflow benchmark: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload {sweep,portrait,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
src/ directory.  With --trace 0 the last line of standard output holds the
end-to-end metrics, every time at reference speed (see refspeed.py); the
line before it holds the same figures raw, with the reference duration and
the scale factor.  With --trace 1 the last line holds the per-layer
metrics of a fixed number of rounds, run once untraced and once traced.
Per-run records go to .bench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import workloads as wl
from refspeed import OpRecord, measure_reference, scale_factor, summarize
from spans import CLI_MAIN, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 5
#: Reference loops in each set-up bracket; a set-up lasts about a second.
SETUP_REF_REPS = 25
#: Longest a single child may take before the run is abandoned.
CHILD_TIMEOUT_S = 150

#: (name, unit) of the per-layer metrics, in print order.
PER_LAYER = (
    ("flow.integrate.calls", "count"),
    ("flow.integrate.self_ms", "ms/call"),
    ("flow.integrate.samples", "count/call"),
    ("flow.sample_at.self_ms", "ms/call"),
    ("flow.sample_at.points", "count/call"),
    ("flow.inversion.self_us", "us/call"),
    ("flow.inversion.calls", "count"),
    ("geometry.curvature_summary.self_us", "us/call"),
    ("geometry.curvature_summary.calls", "count"),
    ("geometry.classify.self_us", "us/call"),
    ("shapespace.trace_flowline.self_ms", "ms/line"),
    ("shapespace.trace_flowline.points", "count/line"),
    ("shapespace.region_boundaries.self_ms", "ms/call"),
    ("shapespace.region_boundaries.points", "count/call"),
    ("cli.import_ms", "ms"),
    ("cli.self_ms", "ms/command"),
    ("cli.output_bytes", "bytes/command"),
    ("trace.overhead_ms", "ms/op"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DANTE_FLOW_R2", None)  # outputs must not depend on the caller's shell
    return env


# --------------------------------------------------- in-process workloads

def _spawn_worker(job_path: Path, env: dict):
    """Start a worker and wait for "ready": (process, set-up s raw, scale)."""
    ref_before = measure_reference(SETUP_REF_REPS)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"worker did not get ready (exit {proc.wait()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready, scale_factor(ref_before, measure_reference(SETUP_REF_REPS))


def _finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "sweep":
        job = {"warmup": wl.sweep_item(*wl.SWEEP_WARMUP), "items": wl.sweep_inputs(seed)}
    else:
        job = {"warmup": list(wl.PORTRAIT_WARMUP), "starts": wl.portrait_inputs(seed)}
    job.update(workload=name, src=str(SRC), seconds=seconds)
    env = child_env()
    setups = []
    if not trace:
        job_path = _write_job(name, seed, dict(job, mode="setup"))
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready, scale = _spawn_worker(job_path, env)
            _finish(proc)
            setups.append((ready, scale))
    job_path = _write_job(name, seed, dict(job, mode="trace" if trace else "run"))
    proc, ready, scale = _spawn_worker(job_path, env)
    setups.append((ready, scale))
    out = json.loads(_finish(proc).splitlines()[-1])
    run = {"setups": setups, "records": [OpRecord(**r) for r in out["records"]],
           "warmup_problems": [out["warmup_problem"]] if out["warmup_problem"] else []}
    if trace:
        traced = [OpRecord(**r) for r in out["traced"]]
        run["layers"] = layer_metrics(layer_totals(out["spans"], [r.scale for r in traced]),
                                      run["records"], traced)
        run["records"] = run["records"] + traced
    return run


def _write_job(name: str, seed: int, job: dict) -> Path:
    path = OUT_DIR / f"{name}-seed{seed}-job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    return path


# ------------------------------------------------------------ cli workload

class _CliTrace:
    """Collects the launcher's span files; `op` is set by the round loop."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[list] = []
        self.import_s: list[tuple[int, float]] = []
        self.results: list[wl.CliResult] = []


def _run_command(cmd: list[str], env: dict) -> wl.CliResult:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return wl.CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work_dir = OUT_DIR / "cli"
    work_dir.mkdir(exist_ok=True)
    base = [sys.executable, "-m", "danteflow"]

    def launch(args):
        return _run_command(base + args, env)

    spec = wl.SPECS["cli"]
    run = {"setups": [], "warmup_problems": []}
    if not trace:
        for _ in range(SETUP_SAMPLES):
            ref_before = measure_reference(SETUP_REF_REPS)
            start = perf_counter()
            res = launch(wl.CLI_WARMUP)
            ready = perf_counter() - start
            run["setups"].append((ready, scale_factor(ref_before, measure_reference(SETUP_REF_REPS))))
            problem = wl.cli_warmup_problem(res)
            if problem:
                run["warmup_problems"].append(problem)
        run["records"] = wl.run_rounds(lambda k: wl.cli_round(seed, k, launch, work_dir),
                                       spec, seconds=seconds)
        return run

    # Both halves start through the launcher, so that their difference is
    # the tracing alone.
    launcher = [sys.executable, str(BENCH_DIR / "launch_cli.py")]
    spans_path = work_dir / "spans.json"
    collector = _CliTrace()

    def launch_untraced(args):
        return _run_command(launcher + ["-"] + args, env)

    def launch_traced(args):
        res = _run_command(launcher + [str(spans_path)] + args, env)
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        collector.import_s.append((collector.op, data["import_s"]))
        offset = len(collector.spans)
        for layer, _, parent, start, end, count in data["spans"]:
            collector.spans.append([layer, collector.op, parent + offset if parent >= 0 else -1,
                                    start, end, count])
        collector.results.append(res)
        return res

    untraced = wl.run_rounds(lambda k: wl.cli_round(seed, k, launch_untraced, work_dir),
                             spec, seconds=None)
    traced = wl.run_rounds(lambda k: wl.cli_round(seed, k, launch_traced, work_dir),
                           spec, seconds=None, tracer=collector)
    scales = [r.scale for r in traced]
    totals = layer_totals(collector.spans, scales)
    commands = len(collector.results)
    extra = {
        "cli.import_ms": 1e3 * sum(s * scales[op] for op, s in collector.import_s) / commands,
        "cli.self_ms": 1e3 * totals[CLI_MAIN]["self_s"] / commands,
        "cli.output_bytes": sum(r.output_bytes for r in collector.results) / commands,
    }
    run["records"] = untraced + traced
    run["layers"] = layer_metrics(totals, untraced, traced, extra)
    return run


# ----------------------------------------------------------------- metrics

def layer_metrics(totals: dict, untraced: list[OpRecord], traced: list[OpRecord],
                  extra: dict | None = None) -> dict:
    """Per-layer metrics; a layer the workload never calls reads 0."""
    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def per_call(layer, key, factor=1.0):
        entry = totals.get(layer)
        return factor * entry[key] / entry["calls"] if entry else 0.0

    values = {
        "flow.integrate.calls": calls("flow.integrate"),
        "flow.integrate.self_ms": per_call("flow.integrate", "self_s", 1e3),
        "flow.integrate.samples": per_call("flow.integrate", "count"),
        "flow.sample_at.self_ms": per_call("flow.sample_at", "self_s", 1e3),
        "flow.sample_at.points": per_call("flow.sample_at", "count"),
        "flow.inversion.self_us": per_call("flow.inversion", "self_s", 1e6),
        "flow.inversion.calls": calls("flow.inversion"),
        "geometry.curvature_summary.self_us": per_call("geometry.curvature_summary", "self_s", 1e6),
        "geometry.curvature_summary.calls": calls("geometry.curvature_summary"),
        "geometry.classify.self_us": per_call("geometry.classify", "self_s", 1e6),
        "shapespace.trace_flowline.self_ms": per_call("shapespace.trace_flowline", "self_s", 1e3),
        "shapespace.trace_flowline.points": per_call("shapespace.trace_flowline", "count"),
        "shapespace.region_boundaries.self_ms": per_call("shapespace.region_boundaries", "self_s", 1e3),
        "shapespace.region_boundaries.points": per_call("shapespace.region_boundaries", "count"),
        "cli.import_ms": 0.0,
        "cli.self_ms": 0.0,
        "cli.output_bytes": 0.0,
        # The same operations ran untraced, then traced: pair them, and take
        # the median so that a burst of load on one side does not swamp it.
        "trace.overhead_ms": 1e3 * statistics.median(
            t.scaled_s - u.scaled_s for u, t in zip(untraced, traced, strict=True)),
    }
    values.update(extra or {})
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "danteflow" / "__init__.py").is_file():
        print(f"no danteflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)

    if args.workload == "cli":
        run = run_cli(args.seed, args.seconds, trace)
    else:
        run = run_in_process(args.workload, args.seed, args.seconds, trace)
    records = run["records"]
    problems = run["warmup_problems"] + [f"{r.kind}: {r.message}" for r in records
                                         if not r.ok and not r.probe]
    probes = sorted({f"{r.kind}: {r.message}" for r in records if not r.ok and r.probe})
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(records), "problems": problems[:10], "failed_probes": probes}

    if trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        spec = wl.SPECS[args.workload]
        ops = summarize(records, spec.tail_pct)
        setup_raw = statistics.median(ready for ready, _ in run["setups"])
        setup = statistics.median(ready * scale for ready, scale in run["setups"])
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        scaled = ops["scaled"]
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": scaled["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        detail.update(tail_pct=spec.tail_pct, raw=dict(ops["raw"], setup_s=setup_raw),
                      scaled_timed_s=scaled["timed_s"], ref_ms_median=ops["ref_ms_median"],
                      scale_median=ops["scale_median"],
                      setup_scales=[scale for _, scale in run["setups"]])

    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics, "setups": run["setups"],
                    "records": [asdict(r) for r in records]}), encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": sum(not r.ok for r in records), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
