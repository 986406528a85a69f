"""Child process of the in-process workloads (sweep and portrait).

Reads its job from the JSON file named by its argument, imports danteflow, runs one fixed
warm-up operation and prints "ready": the parent times set-up from spawn to
that line.  In "setup" mode it stops there.  Otherwise it runs the rounds
and prints one JSON line with every operation record; in "trace" mode it
runs the same fixed rounds untraced, then traced, and adds the spans.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path


def _load_package(src: str):
    import danteflow
    if Path(danteflow.__file__).resolve().parent != Path(src, "danteflow").resolve():
        raise ImportError(f"danteflow came from {danteflow.__file__}, not {src}")
    return danteflow


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    df = _load_package(job["src"])

    import workloads as wl

    name = job["workload"]
    if name == "sweep":
        warm = wl.sweep_op(df, job["warmup"])
        items = job["items"]

        def make_round(k):
            return [wl.sweep_op(df, item) for item in items]
    else:
        warm = wl.line_op(df, tuple(job["warmup"]))
        starts = [tuple(s) for s in job["starts"]]

        def make_round(k):
            return wl.portrait_round(df, starts, k)

    try:
        result, error = warm.run(), None
    except Exception as exc:  # reported through the check below
        result, error = None, exc
    warm_problem = warm.check(result, error)
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0

    spec = wl.SPECS[name]
    out = {"warmup_problem": warm_problem}
    if job["mode"] == "run":
        records = wl.run_rounds(make_round, spec, seconds=job["seconds"])
    else:
        from spans import Tracer
        records = wl.run_rounds(make_round, spec, seconds=None)
        tracer = Tracer()
        tracer.install()
        out["traced"] = [asdict(r) for r in wl.run_rounds(
            make_round, spec, seconds=None, tracer=tracer)]
        out["spans"] = tracer.spans
    out["records"] = [asdict(r) for r in records]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
