"""Non-autoregressive spectrogram decoder with per-block projections.

A stack of self-attention blocks (lightweight-conv or Transformer flavour);
after every block an independent linear head projects the activation to mel
bins.  The iterative loss sums the per-block L1 terms; the single loss keeps
only the last head.  ``spectrogram_loss`` computes both.  Only the iterative
loss reads the heads before the last; single-loss training, evaluation and
synthesis project the last block's head alone.
"""

from __future__ import annotations

import numpy as np

from . import tensor as pt
from .blocks import LConvBlock, TransformerBlock
from .errors import ShapeError
from .module import Linear, Module, ModuleList
from .tensor import Tensor

KINDS = ("lconv", "transformer")


class SpectrogramDecoder(Module):
    def __init__(self, kind: str, d_model: int, mel_bins: int, blocks: int, heads: int,
                 kernel_size: int, rng: np.random.Generator, dropout: float = 0.1):
        if kind not in KINDS:
            raise ShapeError(f"decoder kind must be one of {KINDS}, got {kind!r}")
        self.d_model = d_model
        if kind == "lconv":
            self.blocks = ModuleList(
                LConvBlock(d_model, heads, kernel_size, rng, dropout) for _ in range(blocks))
        else:
            self.blocks = ModuleList(
                TransformerBlock(d_model, heads, rng, dropout) for _ in range(blocks))
        self.projections = ModuleList(Linear(d_model, mel_bins, rng) for _ in range(blocks))

    def __call__(self, x: Tensor, frame_mask=None, rng=None,
                 every_head: bool = True) -> list[Tensor]:
        """Mel predictions [B, T, K] of every block's head, or with ``every_head``
        false a list of the last block's alone."""
        preds = []
        last = len(self.blocks) - 1
        for i, (block, proj) in enumerate(zip(self.blocks, self.projections)):
            x = block(x, frame_mask, rng)
            if every_head or i == last:
                preds.append(proj(x))
        return preds


def spectrogram_loss(preds: list[Tensor], target, frame_mask) -> Tensor:
    """Sum of the L1 terms of the heads in ``preds`` over valid frames, normalized
    by bins x valid frames: every head gives the iterative loss, ``preds[-1:]``
    the single loss."""
    mask = np.asarray(frame_mask)
    total = None
    for pred in preds:
        if pred.shape != target.shape:
            raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
        term = (pt.abs_(pred - target) * mask[:, :, None]).sum()
        total = term if total is None else total + term
    return total * (1.0 / (target.shape[-1] * float(mask.sum())))
