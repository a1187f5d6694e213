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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as pt
from .decoder import KINDS as DECODER_KINDS
from .decoder import SpectrogramDecoder, spectrogram_loss
from .duration import DurationPrediction, DurationPredictor, duration_loss, finalize_durations
from .encoder import EncoderOutput, SpeakerTable, TextEncoder, attach_conditioning
from .errors import ConfigError, VocabularyError
from .module import Module, RandomSource
from .tensor import Tensor
from .upsample import FeatureCombiner, FrameLayout, frame_layout, positional_features, upsample
from .vae import (FinePosterior, FinePriorLSTM, GlobalPosterior, LatentProjector,
                  SpeakerPrior, kl_divergence)

VARIANTS = ("novae", "global", "fine")

# The largest corpus a model is built for.  A corpus header or dataset.txt
# beyond these is taken as corrupt, before any table is allocated.
MAX_VOCAB_SIZE = 65536
MAX_SPEAKERS = 65536
MAX_MEL_BINS = 1024
# The largest model: far beyond any desk-scale config, and small enough that a
# typo such as d_model = 100000 is a config error, not an allocation failure.
MAX_WIDTH = 2048
MAX_BLOCKS = 64
MAX_HEADS = 64
MAX_KERNEL = 65

SIZE_CAPS = {
    "vocab_size": MAX_VOCAB_SIZE, "num_speakers": MAX_SPEAKERS, "mel_bins": MAX_MEL_BINS,
    **dict.fromkeys(("d_model", "speaker_dim", "latent_dim", "latent_proj_dim", "fine_width",
                     "prior_hidden"), MAX_WIDTH),
    **dict.fromkeys(("enc_conv_blocks", "enc_transformer_blocks", "dur_blocks", "dec_blocks",
                     "post_pre_blocks", "post_strided_blocks", "fine_blocks"), MAX_BLOCKS),
    **dict.fromkeys(("enc_heads", "dur_heads", "dec_heads", "post_heads", "fine_heads"),
                    MAX_HEADS),
    **dict.fromkeys(("enc_conv_kernel", "dur_kernel", "dec_kernel", "post_kernel",
                     "fine_kernel"), MAX_KERNEL),
}


def size_cap_problems(sizes) -> list[str]:
    """The caps that ``sizes`` (a model config, corpus header or corpus spec)
    exceeds, named by its keys; a corpus has only the first three."""
    return [f"{name} must be at most {cap}, got {getattr(sizes, name)}"
            for name, cap in SIZE_CAPS.items()
            if hasattr(sizes, name) and getattr(sizes, name) > cap]


@dataclass(kw_only=True)
class ModelHyperparams:
    """The model's hyper-parameters, shared by ModelConfig and TrainConfig."""
    variant: str = "global"
    decoder: str = "lconv"
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
    dec_blocks: int = 6
    dec_heads: int = 8
    dec_kernel: int = 17
    dropout: float = 0.1
    post_pre_blocks: int = 3
    post_strided_blocks: int = 5
    post_heads: int = 8
    post_kernel: int = 17
    fine_width: int = 128
    fine_blocks: int = 5
    fine_heads: int = 8
    fine_kernel: int = 17
    prior_hidden: int = 128


@dataclass(kw_only=True)
class ModelConfig(ModelHyperparams):
    """Hyper-parameters plus the facts of the corpus the model is built for."""
    vocab_size: int
    num_speakers: int
    mel_bins: int = 128
    frame_rate: float = 80.0

    @property
    def d_cond(self) -> int:
        return self.d_model + self.speaker_dim + self.latent_proj_dim

    def validate(self) -> list[str]:
        """Every problem with this configuration, named by its config.txt keys."""
        problems = []
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.decoder not in DECODER_KINDS:
            problems.append(f"decoder must be one of {DECODER_KINDS}, got {self.decoder!r}")
        # (head count, the channels it splits, their width); kernels must be odd
        # because every convolution window is centered
        heads = [("enc_heads", "d_model", self.d_model), ("dur_heads", "d_cond", self.d_cond),
                 ("dec_heads", "d_cond", self.d_cond)]
        kernels = ["enc_conv_kernel", "dur_kernel"]
        if self.decoder == "lconv":
            kernels.append("dec_kernel")
        if self.variant == "global":
            heads.append(("post_heads", "mel_bins", self.mel_bins))
            kernels.append("post_kernel")
        counts = ["vocab_size", "num_speakers", "mel_bins", "d_model", "speaker_dim", "d_cond",
                  "latent_dim", "latent_proj_dim", "enc_conv_blocks", "enc_transformer_blocks",
                  "dec_blocks"]
        if self.variant == "fine":
            heads.append(("fine_heads", "fine_width", self.fine_width))
            kernels.append("fine_kernel")
            counts += ["fine_width", "prior_hidden"]
        for name in counts + [h for h, _, _ in heads] + kernels:
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        problems += size_cap_problems(self)
        for name, channels, width in heads:
            count = getattr(self, name)
            if count > 0 and width % count != 0:
                problems.append(f"{name} ({count}) must divide {channels} ({width})")
        for name in kernels:
            width = getattr(self, name)
            if width > 0 and width % 2 == 0:
                problems.append(f"{name} must be odd for a centered window, got {width}")
        if self.d_model % 2 != 0:
            problems.append(f"d_model ({self.d_model}) must be even for sinusoidal positions")
        if self.d_cond % 2 != 0:
            problems.append(f"d_cond ({self.d_cond}) must be even for positional features")
        if self.frame_rate <= 0:
            problems.append("frame_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout must lie in [0, 1), got {self.dropout}")
        return problems


@dataclass
class Batch:
    tokens: np.ndarray      # [B, N] int
    token_mask: np.ndarray  # [B, N] float
    speakers: np.ndarray    # [B] int
    frames: np.ndarray      # [B, N] int ground-truth durations
    mel: np.ndarray         # [B, T, K] float, T = max total frames

    @property
    def n_valid_tokens(self) -> float:
        return float(self.token_mask.sum())

    @property
    def n_valid_frames(self) -> float:
        return float(self.frames.sum())


@dataclass
class ForwardOutputs:
    """Per-term losses plus everything tests want to inspect.

    ``spec_loss`` is normalized by mel bins x valid frames; the duration, KL
    and prior terms are unnormalized sums.
    """
    spec_loss: Tensor
    predictions: list              # [B, T, K] per block; under the single loss the last only
    dur_ce: Tensor
    dur_l1: Tensor
    kl_per_utterance: Optional[Tensor]   # [B] or None
    prior_loss: Optional[Tensor]         # scalar sum or None
    duration_pred: DurationPrediction
    layout: FrameLayout            # the ground-truth frames, over the mel's length
    posterior: object = None
    n_tokens: float = 0.0


class SynthesisModel(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        problems = cfg.validate()
        if problems:
            raise ConfigError(problems)
        self.cfg = cfg
        self.encoder = TextEncoder(cfg.vocab_size, cfg.d_model, cfg.enc_heads,
                                   cfg.enc_conv_blocks, cfg.enc_conv_kernel,
                                   cfg.enc_transformer_blocks, rng, cfg.dropout)
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
                                               cfg.speaker_dim + cfg.d_model)
        self.duration_predictor = DurationPredictor(cfg.d_cond, cfg.dur_heads, rng,
                                                    cfg.dur_blocks, cfg.dur_kernel, cfg.dropout)
        self.combiner = FeatureCombiner(cfg.d_cond, rng)
        self.decoder = SpectrogramDecoder(cfg.decoder, cfg.d_cond, cfg.mel_bins, cfg.dec_blocks,
                                          cfg.dec_heads, cfg.dec_kernel, rng, cfg.dropout)

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "SynthesisModel":
        return cls(cfg, RandomSource(seed).for_init())

    # -- latent plumbing -------------------------------------------------------

    def _training_latent(self, batch: Batch, layout: FrameLayout, enc: EncoderOutput,
                         spk: Tensor, dropout_rng, sample_rng, prior_teacher=None):
        """Returns (latent block [B,N,32] or [B,32], kl [B] or None, prior loss or None, posterior).

        The latent is drawn from the posterior with ``sample_rng``, or is its
        mean without one."""
        cfg = self.cfg
        if cfg.variant == "novae":
            return pt.constant(np.zeros((len(batch.speakers), cfg.latent_proj_dim))), None, None, None
        mel = pt.constant(batch.mel)
        if cfg.variant == "global":
            post = self.posterior(mel, layout.mask, dropout_rng)
            z = post.mean if sample_rng is None else post.sample(sample_rng)
            kl = kl_divergence(post, self.speaker_prior(batch.speakers))
            return self.latent_proj(z), kl, None, post
        post = self.posterior(mel, positional_features(layout, cfg.d_model), spk, enc, dropout_rng)
        z = post.mean if sample_rng is None else post.sample(sample_rng)
        kl = kl_divergence(post, np.zeros(cfg.latent_dim))
        teacher = post.mean if prior_teacher is None else prior_teacher
        _, prior_loss = self.prior_lstm.teacher_forced(enc, spk, teacher)
        return self.latent_proj(z, spk, enc), kl, prior_loss, post

    # -- forward passes ----------------------------------------------------------

    def decode(self, hidden: Tensor, layout: FrameLayout, rng=None,
               every_head: bool = True) -> list[Tensor]:
        """Token states and their frame layout -> per-block mel predictions [B, T, K].

        Upsamples ``hidden`` along ``layout``, adds the blended positional
        features and runs the decoder over the layout's mask, whose first block
        reads only the valid frames (also of a layout padded to a target mel's
        length).  ``rng`` switches the decoder's dropout on.  Without
        ``every_head`` only the last block's head is projected.
        """
        x = self.combiner(upsample(hidden, layout), positional_features(layout, self.cfg.d_cond))
        return self.decoder(x, layout.mask, rng, every_head)

    def forward_train(self, batch: Batch, dropout_rng=None, sample_rng=None, prior_teacher=None,
                      iterative: bool = True) -> ForwardOutputs:
        """Teacher-forced pass; ``iterative`` picks the iterative or the single spectrogram loss.

        One frame layout, of ``batch.frames`` over the mel's frames, serves the
        posterior, the decoder and the loss mask; ShapeError when the mel is
        shorter than the frames.  Randomness comes only from the generators:
        ``dropout_rng`` switches dropout on, and ``sample_rng`` draws the
        latent from the posterior instead of taking its mean.  Without either
        the pass is deterministic.
        """
        cfg = self.cfg
        layout = frame_layout(batch.frames, batch.mel.shape[1])
        enc = self.encoder(batch.tokens, batch.token_mask, dropout_rng)
        spk = self.speakers(batch.speakers)
        latent, kl, prior_loss, post = self._training_latent(batch, layout, enc, spk, dropout_rng,
                                                             sample_rng, prior_teacher)
        cond = attach_conditioning(enc, spk, latent)
        dur_pred = self.duration_predictor(cond, batch.token_mask, dropout_rng)
        ce, l1 = duration_loss(dur_pred, batch.frames, cfg.frame_rate, batch.token_mask)
        preds = self.decode(dur_pred.hidden, layout, dropout_rng, every_head=iterative)
        spec_loss = spectrogram_loss(preds, batch.mel, layout.mask)
        return ForwardOutputs(
            spec_loss=spec_loss, predictions=preds, dur_ce=ce, dur_l1=l1,
            kl_per_utterance=kl, prior_loss=prior_loss, duration_pred=dur_pred, layout=layout,
            posterior=post, n_tokens=batch.n_valid_tokens)

    def predict_durations_free(self, tokens: np.ndarray, speakers: np.ndarray,
                               token_mask=None) -> DurationPrediction:
        """Free-running duration prediction from text only, with inference latents:
        zero for novae, the speaker prior mean for global, the prior rollout for fine."""
        cfg = self.cfg
        with pt.no_grad():
            enc = self.encoder(tokens, token_mask)
            spk = self.speakers(speakers)
            if cfg.variant == "novae":
                latent = pt.constant(np.zeros((len(speakers), cfg.latent_proj_dim)))
            elif cfg.variant == "global":
                latent = self.latent_proj(self.speaker_prior(speakers))
            else:
                latent = self.latent_proj(self.prior_lstm.rollout(enc, spk), spk, enc)
            return self.duration_predictor(attach_conditioning(enc, spk, latent), token_mask)

    def synthesize(self, tokens: np.ndarray, speaker: int):
        """Full inference: text -> durations -> frames -> mel. Returns (mel, frames).

        Raises VocabularyError for an empty token sequence or, from the encoder,
        for an id outside the inventory.
        """
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=int).reshape(1, -1)
        if tokens.size == 0:
            raise VocabularyError("nothing to synthesize: the token sequence is empty")
        dur_pred = self.predict_durations_free(tokens, np.array([speaker]))
        frames = finalize_durations(dur_pred.p_z.data, dur_pred.seconds.data, cfg.frame_rate)
        with pt.no_grad():
            preds = self.decode(dur_pred.hidden, frame_layout(frames), every_head=False)
        return preds[-1].data[0], frames[0]


def make_batch(utterances, indices=None) -> Batch:
    """Pad a set of utterances to a rectangular batch with a token mask; the mel
    is in the active dtype."""
    utts = [utterances[i] for i in indices] if indices is not None else list(utterances)
    b = len(utts)
    n_max = max(len(u.tokens) for u in utts)
    t_max = max(int(u.durations.sum()) for u in utts)
    bins = utts[0].mel.shape[1]
    tokens = np.zeros((b, n_max), dtype=int)
    token_mask = np.zeros((b, n_max))
    frames = np.zeros((b, n_max), dtype=int)
    mel = np.zeros((b, t_max, bins), dtype=pt.active_dtype())
    speakers = np.zeros(b, dtype=int)
    for i, u in enumerate(utts):
        n = len(u.tokens)
        t = int(u.durations.sum())
        tokens[i, :n] = u.tokens
        token_mask[i, :n] = 1.0
        frames[i, :n] = u.durations
        mel[i, :t] = u.mel
        speakers[i] = u.speaker
    return Batch(tokens, token_mask, speakers, frames, mel)
