"""Decoder throughput comparison: parallel vs frame-by-frame.

Costs are reported two ways: counted multiply-adds (exact, deterministic) and
wall clock (advisory).  The ``ar-sim`` mode emulates an autoregressive decoder
without caching by invoking the same lightweight-conv decoder once per output
frame on the trailing receptive-field window, which is the work a sequential
generator must redo when nothing is reusable across steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .decoder import SpectrogramDecoder

BENCH_KINDS = ("lconv", "transformer", "ar-sim")
HEADS = 8
# The longest sequence a benchmark decodes: about 21 minutes at 80 frames/s.
MAX_FRAMES = 100_000
# The transformer pass builds every head's [1, HEADS, T, T] float32 attention
# scores, and its softmax holds a few arrays of that size at once.  Its frame
# count is capped so that one such array stays within SCORE_BUDGET_BYTES
# (512 MiB): T <= 4,096 frames, about 51 s at 80 frames/s.
SCORE_BUDGET_BYTES = 512 * 2**20
MAX_TRANSFORMER_FRAMES = math.isqrt(SCORE_BUDGET_BYTES // (HEADS * 4))


@dataclass
class BenchRow:
    decoder: str
    frames: int
    mean_ms: float
    std_ms: float
    madds: int


def bench_decoder(kind: str, d_model: int = 64, blocks: int = 2, heads: int = HEADS,
                  kernel_size: int = 17, mel_bins: int = 32) -> SpectrogramDecoder:
    """The decoder a benchmark kind runs (ar-sim runs the lconv stack), rng 0, no dropout."""
    arch = "lconv" if kind == "ar-sim" else kind
    return SpectrogramDecoder(arch, d_model, mel_bins, blocks, heads, kernel_size,
                              np.random.default_rng(0), dropout=0.0)


def receptive_field(blocks: int, kernel_size: int) -> int:
    return blocks * (kernel_size - 1) + 1


def parallel_pass(dec: SpectrogramDecoder, frames: int, seed: int = 0):
    """One full-sequence forward; returns (seconds, madds)."""
    x = pt.constant(np.random.default_rng(seed).normal(size=(1, frames, dec.d_model)))
    pt.reset_madds()
    start = time.perf_counter()
    with pt.no_grad():
        dec(x)
    return time.perf_counter() - start, pt.madds()


def ar_sim_pass(dec: SpectrogramDecoder, frames: int, seed: int = 0):
    """Frame-by-frame emulation over the trailing receptive-field window."""
    window = receptive_field(len(dec.blocks), dec.blocks[0].conv.kernel_size)
    data = np.random.default_rng(seed).normal(size=(1, frames, dec.d_model)) \
        .astype(pt.active_dtype())
    pt.reset_madds()
    start = time.perf_counter()
    with pt.no_grad():
        for t in range(frames):
            lo = max(0, t - window + 1)
            step_in = pt.constant(data[:, lo:t + 1, :])
            dec(step_in)[-1]
    return time.perf_counter() - start, pt.madds()


def decoder_madds(kind: str, frames: int, **config_kw) -> int:
    dec = bench_decoder(kind, **config_kw)
    run = ar_sim_pass if kind == "ar-sim" else parallel_pass
    _, count = run(dec, frames)
    return count


def run_benchmark(kinds, frames_list, repeats: int = 3, **config_kw) -> list[BenchRow]:
    rows = []
    for kind in kinds:
        if kind not in BENCH_KINDS:
            raise ValueError(f"unknown decoder kind {kind!r}; expected one of {BENCH_KINDS}")
        dec = bench_decoder(kind, **config_kw)
        run = ar_sim_pass if kind == "ar-sim" else parallel_pass
        for frames in frames_list:
            times = []
            madds = 0
            for rep in range(repeats):
                seconds, madds = run(dec, frames, seed=rep)
                times.append(seconds * 1e3)
            rows.append(BenchRow(kind, frames, float(np.mean(times)),
                                 float(np.std(times)), madds))
    return rows


def format_csv(rows: list[BenchRow]) -> str:
    lines = ["decoder,frames,mean_ms,stddev_ms,madds"]
    for r in rows:
        lines.append(f"{r.decoder},{r.frames},{r.mean_ms:.3f},{r.std_ms:.3f},{r.madds}")
    return "\n".join(lines)
