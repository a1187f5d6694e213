"""Duration-driven upsampling and frame-position features.

Each token's vector is repeated for its frame count; three positional
features (within-phoneme sinusoid, duration sinusoid, fractional progression)
are blended by per-channel softmax weights and added to the upsampled stream,
which keeps unit weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .blocks import sinusoidal_embedding
from .errors import ShapeError
from .module import Linear, Module
from .tensor import Parameter, Tensor


@dataclass
class PositionalFeatures:
    within: Tensor      # [B, T, d] sinusoid of frame index inside its phoneme
    duration: Tensor    # [B, T, d] sinusoid of the phoneme's frame count
    fraction: Tensor    # [B, T, 1] progression j/f in [0, 1)
    frame_mask: np.ndarray  # [B, T]
    index_map: np.ndarray   # [B, T] token index per frame, -1 at padding


def frame_layout(frames: np.ndarray, pad_to: int | None = None):
    """Per-frame (token index, offset within token) arrays padded to the batch max."""
    frames = np.asarray(frames, dtype=int)
    if np.any(frames < 0):
        raise ShapeError("negative frame counts are not allowed")
    totals = frames.sum(axis=1)
    if np.any(totals <= 0):
        bad = int(np.argwhere(totals <= 0)[0][0])
        raise ShapeError(f"batch element {bad} has zero total frames; nothing to upsample")
    t_max = int(totals.max())
    if pad_to is not None:
        if pad_to < t_max:
            raise ShapeError(f"pad_to={pad_to} is shorter than the longest element ({t_max})")
        t_max = pad_to
    b, n = frames.shape
    valid = np.arange(t_max)[None, :] < totals[:, None]
    # the valid frames in row-major order are the tokens repeated by their counts
    counts = frames.reshape(-1)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    index_map = np.full((b, t_max), -1, dtype=int)
    offsets = np.zeros((b, t_max), dtype=int)
    index_map[valid] = np.repeat(np.tile(np.arange(n), b), counts)
    offsets[valid] = np.arange(counts.sum()) - starts
    return index_map, offsets, valid.astype(float)


def upsample(hidden: Tensor, frames: np.ndarray):
    """Repeat token vectors per duration: [B,N,d] -> [B,T,d] plus the index map.

    An index gather over the token rows of the whole batch (the length
    regulator of FastSpeech): padding frames read a zero row, and each
    token's gradient is the sum over its emitted frames.
    """
    index_map, _, mask = frame_layout(frames)
    b, n, d = hidden.shape
    rows = np.where(index_map >= 0, index_map + n * np.arange(b)[:, None], -1)
    out = pt.gather_rows(pt.reshape(hidden, (b * n, d)), rows)
    return out, index_map, mask


def positional_features(frames: np.ndarray, dim: int, pad_to: int | None = None) -> PositionalFeatures:
    """Per-frame positional features from integer frame counts."""
    frames = np.asarray(frames, dtype=int)
    index_map, offsets, mask = frame_layout(frames, pad_to)
    b, t_max = index_map.shape
    safe_index = np.maximum(index_map, 0)
    dur_per_frame = np.take_along_axis(frames, safe_index, axis=1).astype(float)
    offs = offsets.astype(float)
    valid = (index_map >= 0).astype(float)
    within = sinusoidal_embedding(offs * valid, dim) * valid[:, :, None]
    duration = sinusoidal_embedding(dur_per_frame * valid, dim) * valid[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(valid > 0, offs / np.maximum(dur_per_frame, 1.0), 0.0)
    fraction = pt.constant(frac[:, :, None])
    return PositionalFeatures(within, duration, fraction, mask, index_map)


class FeatureCombiner(Module):
    """Per-channel softmax-weighted blend of the three positional features.

    The softmax spans the three embeddings only; the upsampled decoder
    activation is added with unit weight.  Fractional progression is lifted
    from 1 channel to d by a learned linear map first.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.logits = Parameter(np.zeros((3, dim)), "logits")
        self.coord_proj = Linear(1, dim, rng)
        self.dim = dim

    def weights(self) -> Tensor:
        return pt.softmax(self.logits, axis=0)

    def __call__(self, upsampled: Tensor, feats: PositionalFeatures) -> Tensor:
        w = self.weights()
        lifted = self.coord_proj(feats.fraction) * feats.frame_mask[:, :, None]
        blend = (w[0] * feats.within + w[1] * feats.duration + w[2] * lifted)
        return upsampled + blend
