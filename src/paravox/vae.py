"""Residual encoders: spectrogram -> latent distributions.

Two variants share the diagonal-Gaussian machinery: an utterance-level
posterior with a per-speaker learned prior mean (unit variance), and a
per-phoneme posterior that aligns frames to tokens with attention, paired
with a recurrent learned prior used at inference.  Latents are 8-d and get
projected up to 32 channels before conditioning the decoder stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as pt
from .blocks import LConvBlock, LayerNorm, apply_mask, conv1d, repeat_over_positions
from .errors import ShapeError
from .module import Linear, Module, ModuleList, glorot
from .tensor import Parameter, Tensor


@dataclass
class LatentPosterior:
    mean: Tensor          # [B, L] or [B, N, L]
    log_variance: Tensor  # same shape

    def sample(self, rng: np.random.Generator) -> Tensor:
        eps = rng.standard_normal(self.mean.shape)
        return self.mean + pt.exp(self.log_variance * 0.5) * eps


def kl_divergence(post: LatentPosterior, prior_mean) -> Tensor:
    """Analytic KL(q || p) against a unit-variance diagonal Gaussian, per batch element.

    Summed over latent dims; a [B, N, L] posterior is also summed over tokens.
    ``FinePosterior`` zeroes a padded token's mean and log-variance, so against
    the standard-normal prior a padded token adds exactly 0 and needs no mask.
    """
    if post.mean.shape != post.log_variance.shape:
        raise ShapeError(f"posterior mean {post.mean.shape} vs log-variance {post.log_variance.shape}")
    diff = post.mean - prior_mean
    per_dim = 0.5 * (pt.exp(post.log_variance) + diff * diff - 1.0 - post.log_variance)
    per_pos = per_dim.sum(axis=-1)
    return per_pos if per_pos.ndim == 1 else per_pos.sum(axis=-1)


class SpeakerPrior(Module):
    """Learnable per-speaker prior mean; variance fixed at 1."""

    def __init__(self, num_speakers: int, latent_dim: int):
        self.means = Parameter(np.zeros((num_speakers, latent_dim)))

    def __call__(self, speaker_ids: np.ndarray) -> Tensor:
        return pt.gather_rows(self.means, np.asarray(speaker_ids))


class GlobalPosterior(Module):
    """Utterance-level posterior: LConv stack, strided downsampling, masked pooling.

    Frame masks must be contiguous prefixes (padding at the end), which is how
    every batch in this package is laid out.
    """

    def __init__(self, mel_bins: int, heads: int, kernel_size: int, latent_dim: int,
                 rng: np.random.Generator, pre_blocks: int = 3, strided_blocks: int = 5,
                 dropout: float = 0.1):
        self.mel_bins = mel_bins
        self.pre = ModuleList(
            LConvBlock(mel_bins, heads, kernel_size, rng, dropout) for _ in range(pre_blocks))
        self.stride_convs = ModuleList()
        self.strided = ModuleList()
        for _ in range(strided_blocks):
            conv = Module()
            conv.weight = Parameter(glorot(rng, (3, mel_bins, mel_bins), 3 * mel_bins, mel_bins))
            conv.bias = Parameter(np.zeros(mel_bins))
            self.stride_convs.append(conv)
            self.strided.append(LConvBlock(mel_bins, heads, kernel_size, rng, dropout))
        self.mean_proj = Linear(mel_bins, latent_dim, rng)
        self.logvar_proj = Linear(mel_bins, latent_dim, rng)

    def __call__(self, mel: Tensor, frame_mask, rng=None) -> LatentPosterior:
        mask = np.asarray(frame_mask, dtype=float)
        lengths = mask.sum(axis=1).astype(int)
        if mel.shape[1] == 0 or np.any(lengths == 0):
            raise ShapeError("global posterior requires at least one valid frame per utterance")
        # every LConvBlock returns zero rows at padding, so the strided convs
        # and the pooling below read zero padding without masking again
        x = apply_mask(mel, mask)
        for block in self.pre:
            x = block(x, mask, rng)
        for conv, block in zip(self.stride_convs, self.strided):
            x = conv1d(x, conv.weight, conv.bias, stride=2)
            lengths = -(-lengths // 2)
            t = x.shape[1]
            mask = (np.arange(t)[None, :] < lengths[:, None]).astype(float)
            x = block(x, mask, rng)
        pooled = x.sum(axis=1) / mask.sum(axis=1, keepdims=True)
        return LatentPosterior(self.mean_proj(pooled), self.logvar_proj(pooled))


class FinePosterior(Module):
    """Per-phoneme posterior.

    Ground-truth frames (with their positional features and the speaker
    embedding) are projected to a working width and run through LConv blocks;
    layer-normalized encoder outputs then attend over the processed frames
    with scaled single-head dot-product attention, and the per-token context
    is projected to mean / log-variance.
    """

    def __init__(self, mel_bins: int, d_model: int, speaker_dim: int, width: int,
                 heads: int, kernel_size: int, latent_dim: int, rng: np.random.Generator,
                 blocks: int = 5, dropout: float = 0.1):
        in_dim = mel_bins + 2 * d_model + 1 + speaker_dim
        self.in_proj = Linear(in_dim, width, rng)
        self.blocks = ModuleList(
            LConvBlock(width, heads, kernel_size, rng, dropout) for _ in range(blocks))
        self.query_norm = LayerNorm(d_model)
        self.q_proj = Linear(d_model, d_model, rng)
        self.k_proj = Linear(width, d_model, rng, bias=False)
        self.mean_proj = Linear(width, latent_dim, rng)
        self.logvar_proj = Linear(width, latent_dim, rng)

    def __call__(self, mel: Tensor, pos_feats, speaker_emb: Tensor, enc,
                 rng=None) -> LatentPosterior:
        t = mel.shape[1]
        if pos_feats.within.shape[1] != t:
            raise ShapeError(
                f"mel has {t} frames but duration-derived positional features have "
                f"{pos_feats.within.shape[1]}")
        frame_mask = pos_feats.frame_mask
        spk = repeat_over_positions(speaker_emb, t)
        x = pt.concat([mel, pos_feats.within, pos_feats.duration, pos_feats.fraction, spk], axis=2)
        # padded rows need no mask: the first block packs the valid rows, and
        # the attention weighs padded keys 0
        x = self.in_proj(x)
        for block in self.blocks:
            x = block(x, frame_mask, rng)
        q = self.q_proj(self.query_norm(enc.phonemes))
        ctx = pt.attention(q, self.k_proj(x), x, 1, frame_mask)
        # a padded token becomes the standard-normal prior: it adds exactly 0 KL
        mean = apply_mask(self.mean_proj(ctx), enc.token_mask)
        logvar = apply_mask(self.logvar_proj(ctx), enc.token_mask)
        return LatentPosterior(mean, logvar)


class FinePriorLSTM(Module):
    """Single-layer recurrent prior over per-phoneme latents, strictly causal.

    Each token's input is the speaker embedding, the token's encoder output and
    the previous token's latent (zero before the first token).  Training is
    teacher forced: the previous latents are the detached posterior means, so
    every input is known in advance and the whole sequence runs as one fused
    ``pt.lstm`` node, matched to the posterior means under squared error; no
    gradient reaches the posterior.  At inference ``rollout`` feeds back its
    own predictions in a plain numpy loop (no graph), and the predicted means
    are used directly as latents.
    """

    def __init__(self, d_model: int, speaker_dim: int, latent_dim: int, hidden: int,
                 rng: np.random.Generator):
        in_dim = speaker_dim + d_model + latent_dim
        self.w_x = Parameter(glorot(rng, (in_dim, 4 * hidden), in_dim, 4 * hidden))
        self.w_h = Parameter(glorot(rng, (hidden, 4 * hidden), hidden, 4 * hidden))
        self.b = Parameter(np.zeros(4 * hidden))
        self.out_proj = Linear(hidden, latent_dim, rng)
        self.hidden = hidden
        self.latent_dim = latent_dim

    def teacher_forced(self, enc, speaker_emb: Tensor, teacher_means: Tensor):
        """Returns (predicted means [B,N,L], summed squared-error loss over valid tokens)."""
        if teacher_means is None:
            raise ValueError("training the learned prior requires teacher latents (posterior means)")
        teacher = pt.constant(teacher_means)
        spk = repeat_over_positions(speaker_emb, enc.phonemes.shape[1])
        prev = np.pad(teacher.data[:, :-1], ((0, 0), (1, 0), (0, 0)))
        hidden = pt.lstm(pt.concat([spk, enc.phonemes, prev], axis=2), self.w_x, self.w_h, self.b)
        preds = self.out_proj(hidden)
        err = preds - teacher
        masked = (err * err).sum(axis=-1) * enc.token_mask
        return preds, masked.sum()

    def rollout(self, enc, speaker_emb: Tensor) -> Tensor:
        """Deterministic inference rollout feeding back its own predictions.

        Builds no graph: the speaker and phoneme parts of every step's input
        are projected with one GEMM up front, and each step adds only the
        previous prediction's and hidden state's projections.
        """
        phonemes = enc.phonemes.data
        b, n_tokens, _ = phonemes.shape
        spk = np.broadcast_to(speaker_emb.data[:, None, :], (b, n_tokens, speaker_emb.shape[-1]))
        ctx = np.concatenate([spk, phonemes], axis=2).transpose(1, 0, 2)  # time-major
        n_ctx = ctx.shape[-1]
        w_x, w_h = self.w_x.data, self.w_h.data
        xz = ctx.reshape(-1, n_ctx) @ w_x[:n_ctx] + self.b.data
        xz = xz.reshape(n_tokens, b, 4 * self.hidden)
        w_prev = w_x[n_ctx:]
        out_w, out_b = self.out_proj.weight.data, self.out_proj.bias.data
        h = np.zeros((b, self.hidden), dtype=xz.dtype)
        c = np.zeros_like(h)
        pred = np.zeros((b, self.latent_dim), dtype=xz.dtype)
        preds = np.empty((b, n_tokens, self.latent_dim), dtype=xz.dtype)
        for n in range(n_tokens):
            _, c, h = pt.lstm_cell(xz[n] + pred @ w_prev + h @ w_h, c)
            pred = h @ out_w + out_b
            preds[:, n] = pred
        # the contractions pt.lstm and out_proj would count for the same sequence
        pt._count(b * n_tokens * (4 * self.hidden * (w_x.shape[0] + self.hidden)
                                  + self.hidden * self.latent_dim))
        return pt.constant(preds)


class LatentProjector(Module):
    """Lift an 8-d latent to the 32 conditioning channels.

    An utterance-level latent is projected alone.  A per-phoneme latent comes
    with the speaker embedding and the encoder output, concatenated to it
    first; ``context_dim`` is their width (speaker_dim + d_model).
    """

    def __init__(self, latent_dim: int, proj_dim: int, rng: np.random.Generator,
                 context_dim: int = 0):
        self.proj = Linear(latent_dim + context_dim, proj_dim, rng)

    def __call__(self, latent: Tensor, speaker_emb: Tensor | None = None, enc=None) -> Tensor:
        if enc is None:
            return self.proj(latent)
        spk = repeat_over_positions(speaker_emb, latent.shape[1])
        return self.proj(pt.concat([latent, spk, enc.phonemes], axis=2))
