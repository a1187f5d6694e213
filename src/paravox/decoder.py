"""Non-autoregressive spectrogram decoder with per-block projections.

A stack of self-attention blocks (lightweight-conv or Transformer flavour);
after every block an independent linear head projects the activation to mel
bins.  The iterative loss sums the per-block L1 terms; the single loss keeps
only the last head.
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

    def __call__(self, x: Tensor, frame_mask=None, rng=None) -> list[Tensor]:
        preds = []
        for block, proj in zip(self.blocks, self.projections):
            x = block(x, frame_mask, rng)
            preds.append(proj(x))
        return preds


def _masked_l1(pred: Tensor, target, frame_mask) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    return (pt.abs_(pred - target) * np.asarray(frame_mask)[:, :, None]).sum()


def _normalizer(target, frame_mask) -> float:
    return target.shape[-1] * float(np.asarray(frame_mask).sum())


def iterative_spec_loss(preds: list[Tensor], target, frame_mask) -> Tensor:
    """Sum of per-block L1 terms over valid frames, normalized by bins x frames."""
    total = None
    for pred in preds:
        term = _masked_l1(pred, target, frame_mask)
        total = term if total is None else total + term
    return total * (1.0 / _normalizer(target, frame_mask))


def single_spec_loss(preds: list[Tensor], target, frame_mask) -> Tensor:
    """L1 of the final block's projection only, same normalization."""
    return _masked_l1(preds[-1], target, frame_mask) * (1.0 / _normalizer(target, frame_mask))
