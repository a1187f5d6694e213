"""paravox benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` sets the
workload up twice and alternates cycles of the untraced and the traced copy;
it reports per-layer self time, exact work counts and the tracing overhead.  The report
goes to stdout, one metric per line with its unit; the last line is a JSON
object with the keys correct, attempted, failed and metrics.  The exit status
is 0 whenever that line is printed, and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# The workloads and metrics this benchmark declares.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

# This process owns its BLAS thread count: one thread, at most nproc, so a run
# measures paravox and not thread scheduling.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_REPEATS = 15

END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]

# Span names summed into each per-layer self-time metric (ms per operation).
LAYER_SPANS = {
    "tensor.backward_ms": ("tensor.backward",),
    "model.forward_ms": ("model.forward",),
    "model.synth_ms": ("model.synthesize",),
    "encoder.ms": ("encoder.text", "encoder.speakers", "encoder.conditioning"),
    "vae.posterior_ms": ("vae.posterior",),
    "vae.prior_ms": ("vae.prior",),
    "duration.ms": ("duration.predictor", "duration.loss"),
    "duration.finalize_ms": ("duration.finalize",),
    "upsample.ms": ("upsample.upsample", "upsample.positional"),
    "upsample.combiner_ms": ("upsample.combiner",),
    "decoder.ms": ("decoder.stack",),
    "training.batch_ms": ("training.batch",),
    "training.loss_ms": ("training.loss",),
    "training.clip_ms": ("training.clip",),
    "training.optimizer_ms": ("training.optimizer",),
    "training.evaluate_ms": ("training.evaluate",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> bool:
    """Import paravox from this checkout's ``src/``; False if it is not there."""
    if not (SRC / "paravox" / "__init__.py").is_file():
        return False
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import paravox
    return Path(paravox.__file__).resolve().parent == (SRC / "paravox").resolve()


def log(message: str) -> None:
    print(message, file=sys.stderr)


# -- runs ------------------------------------------------------------------------------

def timed_setups(workload, seed: int, workdir: Path):
    """Set the workload up SETUP_REPEATS times: the median seconds and the last job.

    A first, untimed set-up makes what depends on no seed: the corpus pool and
    the checkpoints.
    """
    import numpy as np
    job = workload.setup(seed, workdir)
    times = []
    for _ in range(SETUP_REPEATS):
        job = None    # free the previous job first: one job alive at a time
        start = time.perf_counter()
        job = workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), job


def outcome_counts(records, checks) -> tuple[int, int]:
    """(attempted, failed) over operations and end-of-run checks (None = passed,
    else the error)."""
    for error in checks:
        if error is not None:
            log(f"check failed: {error}")
    failed = sum(r.outcome.error is not None for r in records)
    failed += sum(e is not None for e in checks)
    return len(records) + len(checks), failed


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from harness import Lane, closed_loop, peak_rss_mb, summarize
    setup_s, job = timed_setups(workload, seed, workdir)
    lane = Lane(job.cycle)
    closed_loop([lane], seconds, log=log)
    records = lane.records
    attempted, failed = outcome_counts(records, [])
    s = summarize(records)
    values = {"setup_s": setup_s, "call_ms_p50": s["call_ms_p50"],
              "call_ms_p90": s["call_ms_p90"], "frames_per_s": s["frames_per_s"],
              "utts_per_s": s["utts_per_s"], "peak_rss_mb": peak_rss_mb()}
    return {"values": values, "attempted": attempted,
            "failed": failed, "samples": s["samples"]}


def peak_traced_mb(workload, seed: int, workdir: Path) -> float:
    """Largest tracemalloc peak of one operation above the total live at its
    start, over one cycle of a fresh set-up (training steps on train-*)."""
    job = workload.setup(seed, workdir)
    peak = 0
    tracemalloc.start()
    try:
        for op in job.cycle:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from harness import Lane, closed_loop, median_ms_by_label, summarize
    from tracing import (Tracer, inclusive_ms_per_op, layer_report, mean,
                         originals_in_place, roots_of, self_times, snapshot_entry_points,
                         write_spans)
    from paravox import corpus
    job = workload.setup(seed, workdir)
    tracer = Tracer()
    snapshot = snapshot_entry_points()
    with tracer.installed():
        with tracer.span("setup"):
            traced_job = workload.setup(seed, workdir)
        # Set-up picks from a cached pool; time generating as many utterances
        # as the workload uses.
        with tracer.span("inputs"):
            corpus.generate(workload.inputs.spec(), workload.inputs.count)
    lanes = [Lane(job.cycle), Lane(traced_job.cycle, tracer)]
    closed_loop(lanes, seconds, log=log)
    plain, spanned = lanes[0].records, lanes[1].records
    checks = [None if originals_in_place(snapshot) else "a tracing wrapper was left in place"]
    n = min(len(plain), len(spanned))
    same = [r.outcome.fingerprint for r in plain[:n]] == [r.outcome.fingerprint for r in spanned[:n]]
    checks.append(None if same else "the traced run computed different outputs")
    attempted, failed = outcome_counts(plain + spanned, checks)

    timed_spans = tracer.spans[tracer.timed_from:]
    report = layer_report(timed_spans)
    per_op = report["self_ms_per_op"]
    values = {name: sum(per_op.get(s, 0.0) for s in spans) for name, spans in LAYER_SPANS.items()}

    setup_spans = tracer.spans[:tracer.timed_from]
    root = roots_of(setup_spans)
    selfs = self_times(setup_spans)
    for metric, span, within in (("corpus.generate_ms", "corpus.generate", "inputs"),
                                 ("fileformats.read_ms", "fileformats.read", "setup")):
        values[metric] = 1e3 * sum(selfs[s.sid] for s in setup_spans
                                   if s.name == span and root[s.sid].name == within)

    first = [r for r in spanned if r.cycle == 0]
    madds = tracer.madds
    values["tensor.nodes_per_step"] = mean([g.nodes for g in tracer.graph])
    values["tensor.graph_mb"] = mean([g.graph_bytes for g in tracer.graph]) / 2**20
    values["tensor.retained_grad_mb"] = mean([g.retained_grad_bytes for g in tracer.graph]) / 2**20
    values["tensor.madds_per_op"] = mean(madds)
    values["tensor.madds_per_utt"] = sum(madds) / max(sum(r.outcome.utts for r in first), 1)
    values["model.forward_total_ms"] = inclusive_ms_per_op(timed_spans, "model.forward")
    values["training.peak_traced_mb"] = peak_traced_mb(workload, seed, workdir)

    by_label = median_ms_by_label(plain)
    for variant in ("novae", "global", "fine"):
        step = by_label.get(variant, 0.0)
        values[f"train.{variant}.step_ms"] = step if workload.kind == "train" else 0.0
        values[f"synth.{variant}.ms"] = step if workload.kind == "synth" else 0.0
    p50_plain = summarize(plain)["call_ms_p50"]
    values["trace.overhead_pct"] = 100.0 * (summarize(spanned)["call_ms_p50"] - p50_plain) / p50_plain
    values["trace.coverage_pct"] = report["coverage_pct"]

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}.spans.tsv"
    write_spans(spans_path, tracer.spans)
    return {"values": values, "attempted": attempted,
            "failed": failed, "samples": report["ops"], "spans_file": str(spans_path.name)}


# -- report ------------------------------------------------------------------------------

def issue_names(kind: str) -> dict[str, str]:
    """The names the end-to-end metrics go by on a workload of this kind."""
    latency = "step" if kind == "train" else kind
    return {"call_ms_p50": f"{latency}_ms_p50", "call_ms_p90": f"{latency}_ms_p90",
            "frames_per_s": f"{kind}_frames_per_s", "utts_per_s": f"{kind}_utts_per_s"}


def print_report(args, workload, env: dict, result: dict) -> None:
    mode = "traced" if args.trace else "end-to-end"
    print(f"paravox benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  run={mode}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"closed loop, 1 caller; {result['samples']} timed operations")
    names = {} if args.trace else issue_names(workload.kind)
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        shown = names.get(name, name)
        alias = f"  [{name}]" if shown != name else ""
        print(f"  {shown:<28} {result['values'][name]:>14.6g} {unit}{alias}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<28} {fail_frac:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations and checks)")
    if args.trace:
        print("  wait time: none to report; one caller and no queues or retries")
        print(f"  spans written to perfbench/out/{result['spans_file']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        log(f"error: paravox sources not found at {SRC}; run from a full checkout")
        return 2
    import paravox.tensor as pt
    from harness import environment
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment(int(os.environ[BLAS_ENV[0]]), pt.active_dtype())
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        run = traced if args.trace else end_to_end
        result = run(workload, args.seed, args.seconds, Path(tmp))
    metrics = {name: {"value": result["values"][name], "unit": unit}
               for name, unit in (PER_LAYER if args.trace else END_TO_END)}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, samples=result["samples"])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(args, workload, env, result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
