"""Closed-loop runner, summary statistics and the environment record.

One process, one caller: each operation starts only after the previous one
has returned.  Operations come in a fixed cycle (for example one training step
of each variant), and the loop always finishes the cycle it is in, so every
variant and input size is sampled equally often whatever the machine speed.
The first cycle is a warm-up: it is checked but not timed.  A traced run
alternates the cycles of an untraced and a traced copy of the job.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import platform
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# A p90 needs at least ten samples beyond it.
MIN_TIMED_OPS = 100


@dataclass
class Outcome:
    """What one operation produced, as judged by its check."""
    frames: float = 0.0       # valid mel frames trained, synthesized or evaluated
    utts: int = 0             # utterances processed
    fingerprint: object = None  # exact output summary, compared across runs
    error: str | None = None


@dataclass
class Op:
    label: str                       # variant (and mode) the operation runs
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class OpRecord:
    cycle: int
    label: str
    seconds: float
    outcome: Outcome

    @property
    def timed(self) -> bool:
        return self.cycle > 0


@dataclass
class Lane:
    """One job's operation cycle, optionally run under a tracer's wrappers."""
    cycle: list[Op]
    tracer: object = None
    records: list[OpRecord] = field(default_factory=list)

    def run_cycle(self, cycle_no: int, log) -> None:
        tracer = self.tracer
        with tracer.installed() if tracer else contextlib.nullcontext():
            for op in self.cycle:
                token = tracer.begin_op(op.label, counting=cycle_no == 0) if tracer else None
                start = time.perf_counter()
                try:
                    out = op.run()
                    error = None
                except Exception:  # a failed operation is counted, the loop goes on
                    out, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.end_op(token)
                outcome = op.check(out) if error is None else Outcome(error=error)
                if outcome.error is not None and log is not None:
                    log(f"operation {op.label} in cycle {cycle_no} failed: {outcome.error}")
                self.records.append(OpRecord(cycle_no, op.label, elapsed, outcome))


def closed_loop(lanes: list[Lane], seconds: float, min_ops: int = MIN_TIMED_OPS,
                log=None) -> None:
    """Run one whole cycle of each lane in turn until ``seconds`` have passed
    after the warm-up cycle and every lane has timed at least ``min_ops``
    operations.  Lanes that alternate see the same drift of the machine."""
    deadline = None
    cycle_no = 0
    while True:
        for lane in lanes:
            lane.run_cycle(cycle_no, log)
        if cycle_no == 0:
            deadline = time.perf_counter() + seconds
            for lane in lanes:
                if lane.tracer:
                    lane.tracer.mark_timed()
        cycle_no += 1
        if time.perf_counter() >= deadline and all(
                len(timed(lane.records)) >= min_ops for lane in lanes):
            return


def timed(records: list[OpRecord]) -> list[OpRecord]:
    return [r for r in records if r.timed]


def summarize(records: list[OpRecord]) -> dict:
    """Latency quantiles and throughput over the timed operations."""
    rows = timed(records)
    ms = np.array([r.seconds for r in rows]) * 1e3
    busy = float(sum(r.seconds for r in rows))
    return {
        "samples": len(rows),
        "call_ms_p50": float(np.percentile(ms, 50)),
        "call_ms_p90": float(np.percentile(ms, 90)),
        "frames_per_s": sum(r.outcome.frames for r in rows) / busy,
        "utts_per_s": sum(r.outcome.utts for r in rows) / busy,
    }


def median_ms_by_label(records: list[OpRecord]) -> dict[str, float]:
    by_label: dict[str, list[float]] = {}
    for r in timed(records):
        by_label.setdefault(r.label, []).append(r.seconds * 1e3)
    return {label: float(np.median(v)) for label, v in by_label.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads_in_use():
    """Ask numpy's bundled OpenBLAS how many threads it runs; None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(blas_threads_set: int, dtype) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_set": blas_threads_set,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": nproc(),
        "dtype": np.dtype(dtype).name,
    }
