"""Properties the benchmark relies on: seeded inputs, tracing that changes no
number and leaves nothing behind, and the output contract of run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import paravox.tensor as pt
import paravox.training
import run as bench
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def losses(job, cycles: int) -> list[str]:
    out = []
    for _ in range(cycles):
        for op in job.cycle:
            out.append(float(op.check(op.run()).fingerprint).hex())
    return out


def test_traced_run_keeps_the_loss_trajectory_bit_identical(tmp_path):
    workload = workloads.WORKLOADS["train-short"]
    plain = losses(workload.setup(3, tmp_path), cycles=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = losses(workload.setup(3, tmp_path), cycles=3)
    assert traced == plain
    assert {"tensor.backward", "model.forward", "training.optimizer"} <= {s.name for s in tracer.spans}


def test_tracing_puts_every_original_back(tmp_path):
    snapshot = tracing.snapshot_entry_points()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert paravox.training.backward is not pt.backward
            raise RuntimeError("stop inside the traced block")
    assert tracing.originals_in_place(snapshot)
    assert paravox.training.backward is pt.backward
    job = workloads.WORKLOADS["synth"].setup(3, tmp_path)
    recorded = len(tracer.spans)
    job.cycle[0].run()
    assert len(tracer.spans) == recorded


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = workload.setup(5, tmp_path).inputs
    assert workload.setup(5, tmp_path).inputs == first
    assert workload.setup(6, tmp_path).inputs != first


def test_every_declared_workload_is_defined():
    assert bench.WORKLOAD_NAMES == list(workloads.WORKLOADS)


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    done = run_cli(ROOT, "--workload", "synth", "--seed", "2", "--seconds", "0.5",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    done = run_cli(tmp_path, "--workload", "synth", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout
