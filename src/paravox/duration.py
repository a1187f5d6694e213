"""Two-headed duration decoder and its losses.

Predicts a non-zero gate probability and a continuous duration in seconds per
token.  At inference the gate threshold zeroes durations, and seconds become
integer frames via cumulative rounding so the utterance length is preserved
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .blocks import LConvBlock
from .errors import DegenerateSynthesisError, ShapeError
from .module import Linear, Module, ModuleList
from .tensor import Tensor

GATE_THRESHOLD = 0.99


@dataclass
class DurationPrediction:
    logits: Tensor   # [B, N] pre-sigmoid gate logits (the loss reads these)
    seconds: Tensor  # [B, N] softplus output, > 0
    hidden: Tensor   # [B, N, d] last block activation, consumed by the upsampler

    @property
    def p_z(self) -> Tensor:
        """[B, N] gate probability in (0, 1); built when read, which training never does."""
        return pt.sigmoid(self.logits)


class DurationPredictor(Module):
    def __init__(self, d_in: int, heads: int, rng: np.random.Generator,
                 blocks: int = 4, kernel_size: int = 3, dropout: float = 0.1):
        self.blocks = ModuleList(
            LConvBlock(d_in, heads, kernel_size, rng, dropout) for _ in range(blocks))
        self.gate_proj = Linear(d_in, 1, rng)
        self.seconds_proj = Linear(d_in, 1, rng)

    def __call__(self, conditioned: Tensor, token_mask=None, rng=None) -> DurationPrediction:
        x = conditioned
        for block in self.blocks:
            x = block(x, token_mask, rng)
        b, n, _ = x.shape
        logits = pt.reshape(self.gate_proj(x), (b, n))
        seconds = pt.softplus(pt.reshape(self.seconds_proj(x), (b, n)))
        return DurationPrediction(logits, seconds, x)


def finalize_durations(p_z: np.ndarray, seconds: np.ndarray, frame_rate: float) -> np.ndarray:
    """Gate and quantize predicted seconds to integer frames.

    Seconds are zeroed where the gate probability falls below GATE_THRESHOLD,
    then converted with cumulative rounding (round half up), so the total
    frame count equals round(rate * total gated seconds) exactly.
    """
    p_z = np.asarray(p_z, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    gated = np.where(p_z < GATE_THRESHOLD, 0.0, seconds)
    cum = np.cumsum(gated, axis=-1) * float(frame_rate)
    rounded = np.floor(cum + 0.5)
    frames = np.diff(rounded, axis=-1, prepend=0.0).astype(int)
    totals = frames.sum(axis=-1)
    if np.any(totals == 0):
        bad = np.argwhere(totals == 0).reshape(-1)
        raise DegenerateSynthesisError(
            f"every token gated to zero duration for utterance index(es) {bad.tolist()}")
    return frames


def duration_loss(pred: DurationPrediction, frames, frame_rate: float, token_mask=None):
    """(cross-entropy, L1) sums over valid tokens against ground-truth frame
    counts: the gate's target is frames > 0, the seconds head's is frames /
    frame_rate.  Combine as ce + l1 before 1/N."""
    frames = np.asarray(frames, dtype=int)
    if np.any(frames < 0):
        raise ShapeError("duration targets must be non-negative frame counts")
    if pred.seconds.shape != frames.shape:
        raise ShapeError(f"prediction {pred.seconds.shape} vs target {frames.shape}")
    mask = np.ones(frames.shape, dtype=float) if token_mask is None \
        else np.asarray(token_mask, dtype=float)
    ce = (pt.bce_with_logits(pred.logits, (frames > 0).astype(float)) * mask).sum()
    l1 = (pt.abs_(pred.seconds - frames / float(frame_rate)) * mask).sum()
    return ce, l1
