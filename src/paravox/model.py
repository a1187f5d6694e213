"""The assembled synthesizer: encoder, residual encoder, durations, decoder.

Three variants share one skeleton:

* ``novae``  — conditioning latent is a zero block; no KL or prior terms.
* ``global`` — one latent per utterance, per-speaker learned prior mean;
               inference conditions on the prior mean.
* ``fine``   — one latent per phoneme, standard-normal KL prior, plus a
               recurrent learned prior that supplies latents at inference.

Training always drives upsampling with ground-truth durations; the duration
heads are trained on their own losses and only gate synthesis at inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as pt
from .decoder import DecoderConfig, SpectrogramDecoder
from .duration import DurationPredictor, DurationTarget, duration_loss, finalize_durations
from .encoder import EncoderConfig, EncoderOutput, SpeakerTable, TextEncoder, attach_conditioning
from .errors import ShapeError, VocabularyError
from .module import Module, RandomSource
from .tensor import Tensor
from .upsample import FeatureCombiner, positional_features, upsample
from .vae import (FinePosterior, FinePriorLSTM, GlobalPosterior, LatentProjector,
                  SpeakerPrior, kl_divergence)

VARIANTS = ("novae", "global", "fine")


@dataclass
class ModelConfig:
    vocab_size: int
    num_speakers: int
    variant: str = "global"
    d_model: int = 64
    speaker_dim: int = 64
    latent_dim: int = 8
    latent_proj_dim: int = 32
    enc_conv_blocks: int = 3
    enc_conv_kernel: int = 5
    enc_transformer_blocks: int = 6
    enc_heads: int = 8
    dur_blocks: int = 4
    dur_kernel: int = 3
    dur_heads: int = 8
    dec_kind: str = "lconv"
    dec_blocks: int = 6
    dec_heads: int = 8
    dec_kernel: int = 17
    mel_bins: int = 128
    dropout: float = 0.1
    frame_rate: float = 80.0
    post_pre_blocks: int = 3
    post_strided_blocks: int = 5
    post_heads: int = 8
    post_kernel: int = 17
    fine_width: int = 128
    fine_blocks: int = 5
    fine_heads: int = 8
    fine_kernel: int = 17
    prior_hidden: int = 128

    @property
    def d_cond(self) -> int:
        return self.d_model + self.speaker_dim + self.latent_proj_dim

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(self.vocab_size, self.d_model, self.enc_conv_blocks,
                             self.enc_conv_kernel, self.enc_transformer_blocks,
                             self.enc_heads, self.num_speakers, self.speaker_dim,
                             self.dropout)

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(self.dec_kind, self.dec_blocks, self.dec_heads,
                             self.dec_kernel, self.d_cond, self.mel_bins, self.dropout)

    def validate(self) -> list[str]:
        problems = self.encoder_config().validate()
        problems += self.decoder_config().validate()
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.d_cond % self.dur_heads != 0:
            problems.append(f"dur_heads ({self.dur_heads}) must divide d_cond ({self.d_cond})")
        if self.d_cond % 2 != 0:
            problems.append(f"d_cond ({self.d_cond}) must be even for positional features")
        if self.variant == "global" and self.mel_bins % self.post_heads != 0:
            problems.append(f"post_heads ({self.post_heads}) must divide mel_bins ({self.mel_bins})")
        if self.variant == "fine" and self.fine_width % self.fine_heads != 0:
            problems.append(f"fine_heads ({self.fine_heads}) must divide fine_width ({self.fine_width})")
        if self.frame_rate <= 0:
            problems.append("frame_rate must be positive")
        return problems


@dataclass
class Batch:
    tokens: np.ndarray      # [B, N] int
    token_mask: np.ndarray  # [B, N] float
    speakers: np.ndarray    # [B] int
    frames: np.ndarray      # [B, N] int ground-truth durations
    mel: np.ndarray         # [B, T, K] float, T = max total frames
    frame_mask: np.ndarray  # [B, T] float

    @property
    def n_valid_tokens(self) -> float:
        return float(self.token_mask.sum())

    @property
    def n_valid_frames(self) -> float:
        return float(self.frame_mask.sum())


@dataclass
class ForwardOutputs:
    """Per-term losses (unnormalized sums) plus everything tests want to inspect."""
    spec_block_sums: list          # per-block L1 sums over valid frames/bins
    predictions: list              # per-block [B, T, K]
    dur_ce: Tensor
    dur_l1: Tensor
    kl_per_utterance: Optional[Tensor]   # [B] or None
    prior_loss: Optional[Tensor]         # scalar sum or None
    duration_pred: object
    posterior: object = None
    n_tokens: float = 0.0
    n_frames: float = 0.0
    mel_bins: int = 0
    aux: dict = field(default_factory=dict)


class SynthesisModel(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        problems = cfg.validate()
        if problems:
            raise ShapeError("; ".join(problems))
        self.cfg = cfg
        self.encoder = TextEncoder(cfg.encoder_config(), rng)
        self.speakers = SpeakerTable(cfg.num_speakers, cfg.speaker_dim, rng)
        if cfg.variant == "global":
            self.posterior = GlobalPosterior(cfg.mel_bins, cfg.post_heads, cfg.post_kernel,
                                             cfg.latent_dim, rng, cfg.post_pre_blocks,
                                             cfg.post_strided_blocks, cfg.dropout)
            self.speaker_prior = SpeakerPrior(cfg.num_speakers, cfg.latent_dim)
            self.latent_proj = LatentProjector(cfg.latent_dim, cfg.latent_proj_dim, rng)
        elif cfg.variant == "fine":
            self.posterior = FinePosterior(cfg.mel_bins, cfg.d_model, cfg.speaker_dim,
                                           cfg.fine_width, cfg.fine_heads, cfg.fine_kernel,
                                           cfg.latent_dim, rng, cfg.fine_blocks, cfg.dropout)
            self.prior_lstm = FinePriorLSTM(cfg.d_model, cfg.speaker_dim, cfg.latent_dim,
                                            cfg.prior_hidden, rng)
            self.latent_proj = LatentProjector(cfg.latent_dim, cfg.latent_proj_dim, rng,
                                               cfg.d_model, cfg.speaker_dim, fine=True)
        self.duration_predictor = DurationPredictor(cfg.d_cond, cfg.dur_heads, rng,
                                                    cfg.dur_blocks, cfg.dur_kernel, cfg.dropout)
        self.combiner = FeatureCombiner(cfg.d_cond, rng)
        self.decoder = SpectrogramDecoder(cfg.decoder_config(), rng)
        self.finalize_names()

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "SynthesisModel":
        return cls(cfg, RandomSource(seed).for_init())

    # -- latent plumbing -------------------------------------------------------

    def _training_latent(self, batch: Batch, enc: EncoderOutput, spk: Tensor,
                         training: bool, rng, sample: bool, prior_teacher=None):
        """Returns (latent block [B,N,32] or [B,32], kl [B] or None, prior loss or None, posterior)."""
        cfg = self.cfg
        if cfg.variant == "novae":
            return Tensor(np.zeros((len(batch.speakers), cfg.latent_proj_dim))), None, None, None
        mel = Tensor(batch.mel)
        if cfg.variant == "global":
            post = self.posterior(mel, batch.frame_mask, training, rng)
            z = post.sample(rng) if sample else post.mean
            kl = kl_divergence(post, self.speaker_prior(batch.speakers))
            return self.latent_proj(z), kl, None, post
        feats = positional_features(batch.frames, cfg.d_model, pad_to=batch.mel.shape[1])
        post = self.posterior(mel, feats, spk, enc, training, rng)
        z = post.sample(rng) if sample else post.mean
        kl = kl_divergence(post, Tensor(np.zeros(cfg.latent_dim)), token_mask=batch.token_mask)
        teacher = post.mean if prior_teacher is None else prior_teacher
        _, prior_loss = self.prior_lstm.teacher_forced(enc, spk, teacher)
        return self.latent_proj(z, spk, enc), kl, prior_loss, post

    def _inference_latent(self, enc: EncoderOutput, spk: Tensor, speakers: np.ndarray):
        cfg = self.cfg
        if cfg.variant == "novae":
            return Tensor(np.zeros((len(speakers), cfg.latent_proj_dim)))
        if cfg.variant == "global":
            return self.latent_proj(self.speaker_prior(speakers))
        z = self.prior_lstm.rollout(enc, spk)
        return self.latent_proj(z, spk, enc)

    # -- forward passes ----------------------------------------------------------

    def forward_train(self, batch: Batch, rng=None, training: bool = True,
                      sample: bool = True, prior_teacher=None) -> ForwardOutputs:
        cfg = self.cfg
        enc = self.encoder(batch.tokens, batch.token_mask, training, rng)
        spk = self.speakers(batch.speakers)
        latent, kl, prior_loss, post = self._training_latent(batch, enc, spk, training, rng,
                                                             sample, prior_teacher)
        cond = attach_conditioning(enc, spk, latent)
        dur_pred = self.duration_predictor(cond, batch.token_mask, training, rng)
        ce, l1 = duration_loss(dur_pred, DurationTarget.from_frames(batch.frames, cfg.frame_rate),
                               batch.token_mask)
        up, _, up_mask = upsample(dur_pred.hidden, batch.frames)
        t_mel = batch.mel.shape[1]
        if up.shape[1] > t_mel:
            raise ShapeError(
                f"duration-derived frame count {up.shape[1]} exceeds target mel "
                f"frames {t_mel}")
        feats = positional_features(batch.frames, cfg.d_cond)
        x = self.combiner(up, feats)
        if x.shape[1] < t_mel:
            # target mel may carry extra fully-masked padding frames
            x = pt.pad_axis(x, 1, 0, t_mel - x.shape[1])
        preds = self.decoder(x, batch.frame_mask, training, rng)
        target = Tensor(batch.mel)
        fmask = Tensor(batch.frame_mask[:, :, None].astype(pt.active_dtype()))
        sums = [(pt.abs_(p - target) * fmask).sum() for p in preds]
        return ForwardOutputs(
            spec_block_sums=sums, predictions=preds, dur_ce=ce, dur_l1=l1,
            kl_per_utterance=kl, prior_loss=prior_loss, duration_pred=dur_pred,
            posterior=post, n_tokens=batch.n_valid_tokens, n_frames=batch.n_valid_frames,
            mel_bins=cfg.mel_bins, aux={"up_mask": up_mask})

    def teacher_forward(self, batch: Batch) -> ForwardOutputs:
        """Deterministic evaluation pass: posterior means, ground-truth durations."""
        with pt.no_grad():
            return self.forward_train(batch, rng=None, training=False, sample=False)

    def predict_durations_free(self, batch: Batch):
        """Free-running duration decision from text only (inference latents)."""
        with pt.no_grad():
            enc = self.encoder(batch.tokens, batch.token_mask)
            spk = self.speakers(batch.speakers)
            latent = self._inference_latent(enc, spk, batch.speakers)
            cond = attach_conditioning(enc, spk, latent)
            dur_pred = self.duration_predictor(cond, batch.token_mask)
        return dur_pred

    def synthesize(self, tokens: np.ndarray, speaker: int):
        """Full inference: text -> durations -> frames -> mel. Returns (mel, frames).

        Raises VocabularyError for an empty token sequence or an id outside the
        inventory.
        """
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=int).reshape(1, -1)
        if tokens.size == 0:
            raise VocabularyError("nothing to synthesize: the token sequence is empty")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise VocabularyError(f"token ids must lie in [0, {cfg.vocab_size}), "
                                  f"got {tokens.min()}..{tokens.max()}")
        with pt.no_grad():
            speakers = np.array([speaker])
            enc = self.encoder(tokens)
            spk = self.speakers(speakers)
            latent = self._inference_latent(enc, spk, speakers)
            cond = attach_conditioning(enc, spk, latent)
            dur_pred = self.duration_predictor(cond)
            frames = finalize_durations(dur_pred.p_z.data, dur_pred.seconds.data, cfg.frame_rate)
            up, _, frame_mask = upsample(dur_pred.hidden, frames)
            feats = positional_features(frames, cfg.d_cond)
            x = self.combiner(up, feats)
            preds = self.decoder(x, frame_mask)
        return preds[-1].data[0], frames[0]


def make_batch(utterances, indices=None, dtype=None) -> Batch:
    """Pad a set of utterances to a rectangular batch with masks."""
    dtype = dtype or pt.active_dtype()
    utts = [utterances[i] for i in indices] if indices is not None else list(utterances)
    b = len(utts)
    n_max = max(len(u.tokens) for u in utts)
    t_max = max(int(u.durations.sum()) for u in utts)
    bins = utts[0].mel.shape[1]
    tokens = np.zeros((b, n_max), dtype=int)
    token_mask = np.zeros((b, n_max))
    frames = np.zeros((b, n_max), dtype=int)
    mel = np.zeros((b, t_max, bins), dtype=dtype)
    frame_mask = np.zeros((b, t_max))
    speakers = np.zeros(b, dtype=int)
    for i, u in enumerate(utts):
        n = len(u.tokens)
        t = int(u.durations.sum())
        tokens[i, :n] = u.tokens
        token_mask[i, :n] = 1.0
        frames[i, :n] = u.durations
        mel[i, :t] = u.mel
        frame_mask[i, :t] = 1.0
        speakers[i] = u.speaker
    return Batch(tokens, token_mask, speakers, frames, mel, frame_mask)
