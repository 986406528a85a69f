"""Print sha256 digests of the package's outputs as one JSON object.

Two checkouts whose digests agree give the same bytes and the same numbers,
so a change meant to keep behaviour is checked by running this on both:

    python tests/output_digests.py > digests.json

It digests, for the checkout it lies in (the package from its src/):

* cli: the stdout, stderr and exit code of each command in COMMANDS, each
  launched as `python -B -m danteflow`, with no bytecode written and
  DANTE_FLOW_R2 unset.  The list holds the commands whose output earlier
  changes were checked on, at the default R^2 and at its extremes, and
  the domain errors at the edge of the float range;
* sweep: for seeds 1-3, the results of every operation of the sweep
  workload (benchmarks/workloads.py): the trajectory's times, coefficients,
  end and collapse time, its uniform grid, the curvature table with the
  type of each value, and the closed-form inversions;
* portrait: for seeds 1-3, the flow line through every start of the
  portrait workload: xs, ys, times and apex.

Output bytes depend on the machine (Python, the numpy build, libm and CPU
features), so compare digests taken on one machine.  Takes about a minute.
"""
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import danteflow as df
import workloads as wl

SEEDS = (1, 2, 3)

COMMANDS = (
    "simulate --a 0.3 --b 0.9 --c 1.5",
    "simulate --a 0.3 --b 0.9 --c 1.5 --grid 0",
    "simulate --a 0.3 --b 0.9 --c 1.5 --r2 8",
    "simulate --a 0.1 --b 0.6 --c 1.2",
    "simulate --a 0.1 --b 0.6 --c 1.2 --grid 0",
    "simulate --a 1 --b 2 --c 3",
    "simulate --a 1 --b 2 --c 3 --max-steps 3",
    "simulate --a 1 --b 1 --c 1",
    "simulate --a 1e-5 --b 0.5 --c 1",
    "simulate --a 0.3 --b 0.6 --c 1.2 --rel-tol 1e-300 --abs-tol 1e-300",
    "simulate --a 1 --b 2 --c 4 --rel-tol 1e-300 --abs-tol 1e-300 --max-steps 100000",
    "snake --W 1 --alpha 1 --check",
    "turtle --U 0.75 --beta 0.5 --check",
    "snake --W 3 --alpha 100",
    "flowlines --grid 5x5",
    "flowlines --grid 3x3 --forward-only",
    "flowlines --grid 3x3 --c0 3",
    "regions",
    "curvature --a 1 --b 2 --c 3",
    "classify --a 1 --b 2 --c 3",
    "classify --a 1 --b 2 --c 3 --format csv",
    "classify --a 1e-20 --b 1 --c 1 --format csv",  # empty rho and tau cells
    # Half-excesses near the degenerate edge, and a zero connection coefficient.
    "curvature --a 1e-10 --b 1 --c 1",
    "curvature --a 1 --b 1 --c 2 --format csv",
    # Past R^2 of about 2e307 the stepper's clock once overflowed.
    "simulate --a 0.5 --b 1 --c 1.5 --r2 1e307",
    "simulate --a 0.5 --b 1 --c 1.5 --r2 2e307",
    "simulate --a 0.5 --b 1 --c 1.5 --r2 1.7e308",
    "simulate --a 1 --b 1 --c 1 --r2 1e307",
    "snake --W 1 --alpha 1 --check --r2 1e307",
    "snake --W 1 --alpha 1 --check --r2 1e308",
    "flowlines --grid 2x2 --r2 1e307",
    "flowlines --grid 1x1 --r2 1e308",
    # Metrics and time scales at the edge of the float range.
    "simulate --a 1e-154 --b 2e-154 --c 3e-154",
    "flowlines --grid 2x2 --c0 1e-100",
    "simulate --a 1e-200 --b 1e-200 --c 1e-200",
    "simulate --a 1e-170 --b 1e-155 --c 1e100",
    "simulate --a 1e-160 --b 1e-160 --c 1e160",
    "simulate --a 1e-100 --b 1 --c 1.7e308",
    "simulate --a 1e-10 --b 1e-10 --c 1e300",
    "simulate --a 1 --b 1e400 --c 2",
    "flowlines --grid 1x1 --c0 1e-320",
    "flowlines --grid 2x2 --c0 1e-170",
    "flowlines --grid 1x1 --c0 1e300",
    "simulate --a 1e-100 --b 1e-100 --c 1e-100 --r2 1e200",
    "simulate --a 1e150 --b 1e150 --c 1e150 --r2 1e-300",
    "flowlines --grid 1x1 --c0 1e-100 --r2 1e200",
    # Values outside the domain.
    "curvature --a 1 --b nan --c -1",
    "curvature --a 1 --b 2 --c 3 --r2 0",
    "curvature --a 1 --b 2 --c 3 --r2 1e-300",
    "flowlines --grid 1x1 --c0 -1",
)


def _feed(h, value) -> None:
    """Hash value with its type: arrays by dtype, shape and bytes, floats
    by their exact hex form, dataclasses field by field."""
    h.update(type(value).__name__.encode() + b":")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(float.hex(value).encode())
    elif isinstance(value, (list, tuple)):
        h.update(f"{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            _feed(h, getattr(value, item.name))
    else:  # int, str, None
        h.update(repr(value).encode())
    h.update(b";")


def _digest(values) -> str:
    h = hashlib.sha256()
    _feed(h, values)
    return h.hexdigest()


def sweep_digest(seed: int) -> str:
    results = []
    for item in wl.sweep_inputs(seed):
        traj, ts, coeffs, table, inverted = wl.sweep_op(df, item).run()
        results.append([traj.times, traj.coeffs, traj.terminated.value, traj.collapse_time,
                        ts, coeffs, table, inverted])
    return _digest(results)


def portrait_digest(seed: int) -> str:
    lines = [df.trace_flowline(df.ShapePoint(*start)) for start in wl.portrait_inputs(seed)]
    return _digest([[line.xs, line.ys, line.times, line.apex.x, line.apex.y]
                    for line in lines])


def command_digests(command: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    env.pop("DANTE_FLOW_R2", None)
    result = subprocess.run([sys.executable, "-B", "-m", "danteflow", *command.split()],
                            env=env, capture_output=True, timeout=300)
    return {"exit": result.returncode,
            "stdout": hashlib.sha256(result.stdout).hexdigest(),
            "stderr": hashlib.sha256(result.stderr).hexdigest()}


def main() -> None:
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sweep": {str(seed): sweep_digest(seed) for seed in SEEDS},
        "portrait": {str(seed): portrait_digest(seed) for seed in SEEDS},
        "cli": {command: command_digests(command) for command in COMMANDS},
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
