"""Duration-driven upsampling and frame-position features.

A ``FrameLayout``, built once from a batch's integer frame counts, says where
every frame comes from: its token, its offset inside that token, and whether
it is padding.  Upsampling repeats each token's vector for its frame count by
a gather along that layout; three positional features (within-phoneme
sinusoid, duration sinusoid, fractional progression) are blended by
per-channel softmax weights and added to the upsampled stream, which keeps
unit weight.  Upsampling gives zero rows at padding frames; the features do
not, because every reader packs or masks away the padded frames first.
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
class FrameLayout:
    frames: np.ndarray     # [B, N] int frame count per token
    index_map: np.ndarray  # [B, T] token index per frame, -1 at padding
    offsets: np.ndarray    # [B, T] frame index inside its token, 0 at padding
    mask: np.ndarray       # [B, T] float, 1 at valid frames


@dataclass
class PositionalFeatures:
    """The features of every frame.  A padded frame reads as offset 0 in its
    row's first token: its rows are not zero, and no reader uses them."""
    within: Tensor      # [B, T, d] sinusoid of frame index inside its phoneme
    duration: Tensor    # [B, T, d] sinusoid of the phoneme's frame count
    fraction: Tensor    # [B, T, 1] progression j/f in [0, 1)
    frame_mask: np.ndarray  # [B, T]


def frame_layout(frames: np.ndarray, pad_to: int | None = None) -> FrameLayout:
    """The layout of integer frame counts over the longest row, or over ``pad_to`` frames.

    ShapeError for a negative count, a row with no frames, or a ``pad_to``
    shorter than the longest row.
    """
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
    return FrameLayout(frames, index_map, offsets, valid.astype(float))


def upsample(hidden: Tensor, layout: FrameLayout) -> Tensor:
    """Repeat token vectors per duration: [B,N,d] -> [B,T,d].

    An index gather over the token rows of the whole batch (the length
    regulator of FastSpeech): padding frames read a zero row, and each
    token's gradient is the sum over its emitted frames.
    """
    b, n, d = hidden.shape
    index_map = layout.index_map
    rows = np.where(index_map >= 0, index_map + n * np.arange(b)[:, None], -1)
    return pt.gather_rows(pt.reshape(hidden, (b * n, d)), rows)


def positional_features(layout: FrameLayout, dim: int) -> PositionalFeatures:
    """Per-frame positional features along a frame layout; padded rows are not zeroed."""
    dur_per_frame = np.take_along_axis(layout.frames, np.maximum(layout.index_map, 0),
                                       axis=1).astype(float)
    offs = layout.offsets.astype(float)
    frac = offs / np.maximum(dur_per_frame, 1.0)
    return PositionalFeatures(sinusoidal_embedding(offs, dim),
                              sinusoidal_embedding(dur_per_frame, dim),
                              pt.constant(frac[:, :, None]), layout.mask)


class FeatureCombiner(Module):
    """Per-channel softmax-weighted blend of the three positional features.

    The softmax spans the three embeddings only; the upsampled decoder
    activation is added with unit weight.  Fractional progression is lifted
    from 1 channel to d by a learned linear map first.  Output rows at padding
    are not zeroed: the decoder reads only the valid rows.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.logits = Parameter(np.zeros((3, dim)))
        self.coord_proj = Linear(1, dim, rng)
        self.dim = dim

    def weights(self) -> Tensor:
        return pt.softmax(self.logits, axis=0)

    def __call__(self, upsampled: Tensor, feats: PositionalFeatures) -> Tensor:
        w = self.weights()
        lifted = self.coord_proj(feats.fraction)
        blend = (w[0] * feats.within + w[1] * feats.duration + w[2] * lifted)
        return upsampled + blend
