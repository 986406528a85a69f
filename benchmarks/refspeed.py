"""Reference-speed scaling and the order statistics the benchmark reports.

The machine this benchmark runs on is shared, and its speed drifts by tens
of percent within seconds.  So every timed operation is bracketed by a
fixed reference loop that belongs to the benchmark: pure-Python arithmetic
plus small numpy operations, the kind of work the package's integrator
does.  A time is reported at reference speed,

    scaled = raw * NOMINAL_REF_S / measured reference duration,

that is, as if the machine had run the reference loop in NOMINAL_REF_S.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Duration of one reference measurement on an unloaded core, in seconds.
NOMINAL_REF_S = 0.00115

_REF_VEC = np.linspace(0.5, 4.0, 16)


def _reference_once() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(5000):
        acc += (i * 1.25) % 7.5 - acc * 1e-3
    vec = _REF_VEC
    for _ in range(80):
        vec = np.sqrt(vec * vec + 1.0) - 0.5
    t1 = perf_counter()
    if not (math.isfinite(acc) and math.isfinite(float(vec[0]))):
        raise ArithmeticError("reference loop diverged")
    return t1 - t0


def measure_reference(reps: int) -> float:
    """Median duration of `reps` reference loops, in seconds."""
    return statistics.median(_reference_once() for _ in range(reps))


def scale_factor(ref_before: float, ref_after: float) -> float:
    """Factor that takes a raw time measured between the two references to
    reference speed."""
    return NOMINAL_REF_S / (0.5 * (ref_before + ref_after))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly above the pct-th percentile rank."""
    return n - math.ceil(n * pct / 100.0)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n < 40:
        raise ValueError(f"a tail needs at least 40 samples, got {n}")
    pct = 99
    while samples_beyond(n, pct) < 10:
        pct -= 1
    return pct


@dataclass(frozen=True)
class OpRecord:
    """One attempted operation: its kind, raw wall time and reference bracket."""

    kind: str
    raw_s: float
    ref_before: float
    ref_after: float
    ok: bool
    probe: bool = False
    message: str = ""

    @property
    def scale(self) -> float:
        return scale_factor(self.ref_before, self.ref_after)

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.scale


def summarize(records: list[OpRecord], tail_pct: int) -> dict:
    """End-to-end operation metrics, at reference speed and raw.

    Fault probes are left out of the latencies and of the completed count,
    so that mending a probed fault moves neither; their time still counts
    against throughput, which is completed operations per second of every
    attempted one.
    """
    measured = [r for r in records if not r.probe]
    if len(measured) < 40 or samples_beyond(len(measured), tail_pct) < 10:
        raise ValueError(f"{len(measured)} operations leave fewer than ten beyond p{tail_pct}")
    completed = sum(r.ok for r in measured)
    out = {}
    for label, key in (("scaled", "scaled_s"), ("raw", "raw_s")):
        times = [getattr(r, key) for r in measured]
        total = math.fsum(getattr(r, key) for r in records)
        out[label] = {
            "ops_per_s": completed / total,
            "op_p50_ms": 1e3 * percentile(times, 50),
            "op_tail_ms": 1e3 * percentile(times, tail_pct),
            "timed_s": total,
        }
    refs = [0.5 * (r.ref_before + r.ref_after) for r in records]
    out["ref_ms_median"] = 1e3 * statistics.median(refs)
    out["scale_median"] = statistics.median(r.scale for r in records)
    return out
