"""Non-autoregressive spectrogram decoder with per-block projections.

A stack of self-attention blocks (lightweight-conv or Transformer flavour);
after every block an independent linear head projects the activation to mel
bins.  The iterative loss sums the per-block L1 terms; the single loss keeps
only the last head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .blocks import LConvBlock, TransformerBlock
from .errors import ShapeError
from .module import Linear, Module, ModuleList
from .tensor import Tensor

KINDS = ("lconv", "transformer")


@dataclass
class DecoderConfig:
    kind: str = "lconv"        # lconv | transformer
    num_blocks: int = 6
    heads: int = 8
    kernel_size: int = 17      # lconv only
    d_model: int = 160
    mel_bins: int = 128
    dropout: float = 0.1

    def validate(self) -> list[str]:
        problems = []
        if self.kind not in KINDS:
            problems.append(f"decoder kind must be one of {KINDS}, got {self.kind!r}")
        if self.d_model % self.heads != 0:
            problems.append(f"heads ({self.heads}) must divide decoder d_model ({self.d_model})")
        for field in ("num_blocks", "heads", "d_model", "mel_bins"):
            if getattr(self, field) <= 0:
                problems.append(f"decoder {field} must be positive")
        return problems


class SpectrogramDecoder(Module):
    def __init__(self, cfg: DecoderConfig, rng: np.random.Generator):
        problems = cfg.validate()
        if problems:
            raise ShapeError("; ".join(problems))
        self.cfg = cfg
        if cfg.kind == "lconv":
            self.blocks = ModuleList(
                LConvBlock(cfg.d_model, cfg.heads, cfg.kernel_size, rng, cfg.dropout)
                for _ in range(cfg.num_blocks))
        else:
            self.blocks = ModuleList(
                TransformerBlock(cfg.d_model, cfg.heads, rng, cfg.dropout)
                for _ in range(cfg.num_blocks))
        self.projections = ModuleList(
            Linear(cfg.d_model, cfg.mel_bins, rng) for _ in range(cfg.num_blocks))

    def __call__(self, x: Tensor, frame_mask=None, training: bool = False, rng=None) -> list[Tensor]:
        preds = []
        for block, proj in zip(self.blocks, self.projections):
            x = block(x, frame_mask, training, rng)
            preds.append(proj(x))
        return preds


def _masked_l1(pred: Tensor, target, frame_mask) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {target.shape}")
    diff = pt.abs_(pred - target)
    if frame_mask is not None:
        diff = diff * np.asarray(frame_mask)[:, :, None]
    return diff.sum()


def _normalizer(target, frame_mask) -> float:
    bins = target.shape[-1]
    if frame_mask is None:
        frames = target.shape[0] * target.shape[1]
    else:
        frames = float(np.asarray(frame_mask).sum())
    return float(bins * frames)


def iterative_spec_loss(preds: list[Tensor], target, frame_mask=None) -> Tensor:
    """Sum of per-block L1 terms over valid frames, normalized by bins x frames."""
    total = None
    for pred in preds:
        term = _masked_l1(pred, target, frame_mask)
        total = term if total is None else total + term
    return total * (1.0 / _normalizer(target, frame_mask))


def single_spec_loss(preds: list[Tensor], target, frame_mask=None) -> Tensor:
    """L1 of the final block's projection only, same normalization."""
    return _masked_l1(preds[-1], target, frame_mask) * (1.0 / _normalizer(target, frame_mask))
