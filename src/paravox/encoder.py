"""Text encoder: phoneme ids -> contextual phoneme representations.

Embedding lookup, a convolutional front end, token-index sinusoidal positions,
then a self-attention stack.  Conditioning (speaker embedding and the residual
latent) is concatenated channel-wise downstream, never projected away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .blocks import ConvBlock, TransformerBlock, repeat_over_positions, sinusoidal_embedding
from .errors import VocabularyError
from .module import Module, ModuleList
from .tensor import Parameter, Tensor


@dataclass
class EncoderOutput:
    phonemes: Tensor      # [B, N, d_model], masked rows zero
    token_mask: np.ndarray  # [B, N] floats


class TextEncoder(Module):
    def __init__(self, vocab_size: int, d_model: int, heads: int, conv_blocks: int,
                 conv_kernel: int, transformer_blocks: int, rng: np.random.Generator,
                 dropout: float = 0.1):
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.embedding = Parameter(rng.normal(0.0, d_model ** -0.5, size=(vocab_size, d_model)))
        self.convs = ModuleList(
            ConvBlock(d_model, d_model, conv_kernel, rng, dropout) for _ in range(conv_blocks))
        self.transformers = ModuleList(
            TransformerBlock(d_model, heads, rng, dropout) for _ in range(transformer_blocks))

    def __call__(self, phoneme_ids: np.ndarray, token_mask=None, rng=None) -> EncoderOutput:
        ids = np.asarray(phoneme_ids)
        bad = np.argwhere((ids < 0) | (ids >= self.vocab_size))
        if bad.size:
            b, n = bad[0]
            raise VocabularyError(
                f"phoneme id {ids[b, n]} at batch {b}, token {n} outside vocabulary of size {self.vocab_size}")
        # padding rows are never read: each conv block masks its input, and
        # the first transformer block packs the valid rows; without padding
        # there is nothing for the conv blocks to mask
        x = pt.gather_rows(self.embedding, ids)
        for conv in self.convs:
            x = conv(x, token_mask, rng)
        if token_mask is None:
            token_mask = np.ones(ids.shape, dtype=float)
        positions = np.broadcast_to(np.arange(ids.shape[1], dtype=float), ids.shape)
        x = x + sinusoidal_embedding(positions, self.d_model)
        for block in self.transformers:
            x = block(x, token_mask, rng)
        return EncoderOutput(phonemes=x, token_mask=np.asarray(token_mask, dtype=float))


class SpeakerTable(Module):
    def __init__(self, num_speakers: int, dim: int, rng: np.random.Generator):
        self.num_speakers = num_speakers
        self.table = Parameter(rng.normal(0.0, dim ** -0.5, size=(num_speakers, dim)))

    def __call__(self, speaker_ids: np.ndarray) -> Tensor:
        ids = np.asarray(speaker_ids)
        bad = np.argwhere((ids < 0) | (ids >= self.num_speakers))
        if bad.size:
            raise VocabularyError(
                f"speaker id {ids[tuple(bad[0])]} outside table of size {self.num_speakers}")
        return pt.gather_rows(self.table, ids)


def attach_conditioning(enc: EncoderOutput, speaker_emb: Tensor, latent: Tensor) -> Tensor:
    """Concatenate encoder channels, speaker embedding, and residual latent.

    A per-utterance latent [B, L] is tiled over tokens; a per-phoneme latent
    [B, N, L] is used as-is.  No projection follows: downstream modules take
    d_model + speaker_dim + L channels.
    """
    n = enc.phonemes.shape[1]
    spk = repeat_over_positions(speaker_emb, n)
    if latent.ndim == 2:
        latent = repeat_over_positions(latent, n)
    return pt.concat([enc.phonemes, spk, latent], axis=2)
