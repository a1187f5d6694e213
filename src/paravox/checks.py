"""Registry of gradient-integrity checks, one suite per subsystem.

Every suite builds a deterministic scalar target at tiny shapes (B <= 2,
N <= 5, T <= 12, feature dims <= 16) and runs the central-difference checker
over its parameters.  Large parameter tensors are spot-checked on a seeded
subset of entries so the whole registry stays fast.  Input seeds are fixed:
ReLU-style kinks make finite differences meaningless when a preactivation
sits within the step of zero, so each target was verified clean.
"""

from __future__ import annotations

import numpy as np

from . import blocks, decoder, duration, tensor as pt, upsample, vae
from .encoder import EncoderOutput, TextEncoder
from .gradcheck import GradCheckReport, grad_check
from .model import Batch, ModelConfig, SynthesisModel
from .module import Module
from .tensor import Tensor
from .training import total_loss


def _weighted(out: Tensor, seed: int) -> Tensor:
    w = np.random.default_rng(seed).normal(size=out.shape)
    return (out * w).sum()


def check_tensor_ops() -> GradCheckReport:
    """Every differentiable op of ``paravox.tensor``: the element-wise ops, a
    biased matmul, softmax, layer_norm, a strided conv1d, an lstm (B=2, N=4),
    bce_with_logits and a two-head attention (one masked key), plus a row
    gather with negative (zero-row) ids.  The rows of a [2, 5] layout with one
    padded row are packed, run through the lightweight-conv and feed-forward
    sublayers (odd tap width, dropout from a generator seeded inside ``f``, so
    every call draws the same masks) and unpacked again for the conv1d; so the
    sublayers' input gradients are checked through ``w``, which feeds them.
    The lstm's input, the bce logits and targets, the gather table, the
    attention's queries, keys and values and the element-wise ops' input are
    parameters of their own."""
    rng = np.random.default_rng(0)
    p = Module()  # the parameters, named by their attributes
    p.w = pt.Parameter(rng.normal(size=(6, 6)))
    p.gain = pt.Parameter(np.ones(6))
    p.bias = pt.Parameter(np.zeros(6))
    p.lconv_taps = pt.Parameter(rng.normal(size=(2, 3)))
    p.conv1d_weight = pt.Parameter(rng.normal(size=(3, 6, 4)) * 0.5)
    p.conv1d_bias = pt.Parameter(rng.normal(size=4))
    p.lstm_input = pt.Parameter(rng.normal(size=(2, 4, 3)))
    p.lstm_w_x = pt.Parameter(rng.normal(size=(3, 12)) * 0.5)
    p.lstm_w_h = pt.Parameter(rng.normal(size=(3, 12)) * 0.5)
    p.lstm_b = pt.Parameter(rng.normal(size=12))
    x = Tensor(rng.normal(size=(2, 5, 6)))
    mix = Tensor(rng.normal(size=(2, 5, 6)))
    mask = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]], dtype=float)
    rng_extra = np.random.default_rng(38)
    p.bce_logits = pt.Parameter(rng_extra.normal(size=(2, 5)) * 2.0)
    p.bce_targets = pt.Parameter(rng_extra.random((2, 5)))
    p.gather_table = pt.Parameter(rng_extra.normal(size=(4, 3)))
    ids = np.array([[0, 2, -1, 2], [3, -1, 1, 0]])
    valid_rows = np.flatnonzero(mask)
    rng_attn = np.random.default_rng(42)
    p.attn_q = pt.Parameter(rng_attn.normal(size=(2, 3, 4)))
    p.attn_k = pt.Parameter(rng_attn.normal(size=(2, 4, 4)))
    p.attn_v = pt.Parameter(rng_attn.normal(size=(2, 4, 6)))
    key_mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=float)
    # zero, as a Linear's bias starts, so every other parameter's check keeps its bits
    p.matmul_bias = pt.Parameter(np.zeros(6))
    rng_sub = np.random.default_rng(45)
    p.lconv_gain = pt.Parameter(rng_sub.uniform(0.5, 1.5, size=6))
    p.lconv_bias = pt.Parameter(rng_sub.normal(size=6) * 0.1)
    p.lconv_w = pt.Parameter(rng_sub.normal(size=(6, 12)) * 0.5)
    p.lconv_b = pt.Parameter(rng_sub.normal(size=12) * 0.1)
    p.ff_gain = pt.Parameter(rng_sub.uniform(0.5, 1.5, size=6))
    p.ff_bias = pt.Parameter(rng_sub.normal(size=6) * 0.1)
    p.ff_w1 = pt.Parameter(rng_sub.normal(size=(6, 8)) * 0.5)
    p.ff_b1 = pt.Parameter(rng_sub.normal(size=8) * 0.1)
    p.ff_w2 = pt.Parameter(rng_sub.normal(size=(8, 6)) * 0.5)
    p.ff_b2 = pt.Parameter(rng_sub.normal(size=6) * 0.1)
    p.elementwise = pt.Parameter(rng_sub.normal(size=(2, 4)))

    def f():
        drop = np.random.default_rng(44)
        h = pt.matmul(x, p.w, p.matmul_bias)
        h = pt.layer_norm(h, p.gain, p.bias)
        h = pt.softmax(h, axis=-1) + pt.sigmoid(h) + pt.softplus(h) + pt.tanh(h)
        c = pt.lconv_sublayer(pt.move_rows(h, valid_rows), p.lconv_gain, p.lconv_bias, p.lconv_w,
                              p.lconv_b, pt.softmax(p.lconv_taps, axis=1), valid_rows, mask.shape,
                              0.2, drop)
        c = pt.ff_sublayer(c, p.ff_gain, p.ff_bias, p.ff_w1, p.ff_b1, p.ff_w2, p.ff_b2, 0.2, drop)
        s = pt.conv1d(pt.move_rows(c, valid_rows, mask.shape), p.conv1d_weight, p.conv1d_bias,
                      stride=2)
        r = pt.lstm(p.lstm_input, p.lstm_w_x, p.lstm_w_h, p.lstm_b)
        ce = pt.bce_with_logits(p.bce_logits, p.bce_targets)
        rows = pt.gather_rows(p.gather_table, ids)
        att = pt.attention(p.attn_q, p.attn_k, p.attn_v, 2, key_mask)
        e = p.elementwise
        el = pt.concat([pt.exp(e) - pt.abs_(e), pt.relu(e, 0.3, drop) / (e * e + 1.5)], axis=1)
        el = pt.expand(pt.reshape(el[:, ::2], (2, 1, 4)), (2, 3, 4))
        return (h * mix).sum() + _weighted(s, 31) + _weighted(r, 37) + _weighted(ce, 39) \
            + _weighted(rows, 40) + _weighted(att, 43) + pt.dropout(el, 0.3, drop).mean()

    return grad_check(f, dict(p.named_parameters()))


def check_blocks() -> GradCheckReport:
    rng_w = np.random.default_rng(1)
    lconv = blocks.LConvBlock(16, 4, 3, rng_w)
    tf = blocks.TransformerBlock(16, 4, rng_w)
    conv = blocks.ConvBlock(16, 16, 3, rng_w)
    x = Tensor(np.random.default_rng(30).normal(size=(2, 5, 16)))
    mask = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]], dtype=float)

    def f():
        out = lconv(x, mask)
        out = tf(out, mask)
        out = conv(out, mask)
        return _weighted(out, 3)

    params = (dict(lconv.named_parameters("lconv_block."))
              | dict(tf.named_parameters("transformer_block."))
              | dict(conv.named_parameters("conv_block.")))
    return grad_check(f, params, max_entries=24)


def check_encoder() -> GradCheckReport:
    enc = TextEncoder(vocab_size=8, d_model=16, heads=4, conv_blocks=1, conv_kernel=3,
                      transformer_blocks=1, rng=np.random.default_rng(4))
    ids = np.array([[0, 1, 2, 3, 4], [5, 6, 7, 1, 0]])
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=float)

    def f():
        return _weighted(enc(ids, mask).phonemes, 5)

    return grad_check(f, dict(enc.named_parameters("encoder.")), max_entries=24)


def check_vae() -> GradCheckReport:
    rng = np.random.default_rng(6)
    gp = vae.GlobalPosterior(8, 2, 3, 4, np.random.default_rng(7), pre_blocks=1, strided_blocks=1)
    fp = vae.FinePosterior(8, 16, 8, 16, 4, 3, 4, np.random.default_rng(8), blocks=1)
    prior = vae.FinePriorLSTM(16, 8, 4, 8, np.random.default_rng(9))
    proj_g = vae.LatentProjector(4, 8, np.random.default_rng(10))
    proj_f = vae.LatentProjector(4, 8, np.random.default_rng(11), context_dim=8 + 16)
    mel = Tensor(rng.normal(size=(2, 9, 8)))
    frame_mask = np.ones((2, 9))
    frames = np.array([[3, 2, 4], [2, 4, 3]])
    feats = upsample.positional_features(upsample.frame_layout(frames), 16)
    spk = Tensor(rng.normal(size=(2, 8)))
    enc = EncoderOutput(Tensor(rng.normal(size=(2, 3, 16))), np.ones((2, 3)))
    prior_mean = Tensor(rng.normal(size=(2, 4)))
    # the prior teacher is frozen at the unperturbed point: the stop-gradient
    # contract makes the live teacher's value-dependence invisible to backward
    teacher0 = Tensor(fp(mel, feats, spk, enc).mean.data.copy())

    def f():
        # the sample training draws, with the same noise on every call
        post_g = gp(mel, frame_mask)
        z_g = post_g.sample(np.random.default_rng(41))
        post_f = fp(mel, feats, spk, enc)
        z_f = post_f.sample(np.random.default_rng(42))
        _, prior_loss = prior.teacher_forced(enc, spk, teacher0)
        kl_g = vae.kl_divergence(post_g, prior_mean).sum()
        kl_f = vae.kl_divergence(post_f, Tensor(np.zeros(4))).sum()
        out = _weighted(proj_g(z_g), 12) + _weighted(proj_f(z_f, spk, enc), 13)
        return out + kl_g + kl_f + prior_loss

    params = (dict(gp.named_parameters("global_posterior."))
              | dict(fp.named_parameters("fine_posterior."))
              | dict(prior.named_parameters("prior_lstm."))
              | dict(proj_g.named_parameters("latent_proj_global."))
              | dict(proj_f.named_parameters("latent_proj_fine.")))
    return grad_check(f, params, max_entries=12)


def check_duration() -> GradCheckReport:
    pred = duration.DurationPredictor(16, 4, np.random.default_rng(14), blocks=1)
    x = Tensor(np.random.default_rng(15).normal(size=(2, 5, 16)))
    mask = np.ones((2, 5))
    frames = np.random.default_rng(16).integers(0, 4, size=(2, 5))

    def f():
        out = pred(x, mask)
        ce, l1 = duration.duration_loss(out, frames, 80.0, mask)
        return ce + l1 + _weighted(out.hidden, 17)

    return grad_check(f, dict(pred.named_parameters("duration_predictor.")), max_entries=24)


def check_upsampler() -> GradCheckReport:
    comb = upsample.FeatureCombiner(16, np.random.default_rng(18))
    comb.logits.data[:] = np.random.default_rng(19).normal(size=(3, 16))
    hidden = pt.Parameter(np.random.default_rng(20).normal(size=(2, 4, 16)))
    layout = upsample.frame_layout(np.array([[2, 0, 3, 1], [1, 2, 2, 2]]))
    feats = upsample.positional_features(layout, 16)

    def f():
        # the decoder reads the valid frames only
        out = comb(upsample.upsample(hidden, layout), feats)
        return _weighted(blocks.apply_mask(out, layout.mask), 21)

    return grad_check(f, {"hidden": hidden} | dict(comb.named_parameters("combiner.")),
                      max_entries=24)


def check_decoder() -> GradCheckReport:
    lc = decoder.SpectrogramDecoder("lconv", 16, 8, blocks=2, heads=4, kernel_size=3,
                                    rng=np.random.default_rng(22))
    tf = decoder.SpectrogramDecoder("transformer", 16, 8, blocks=2, heads=4, kernel_size=3,
                                    rng=np.random.default_rng(23))
    x = Tensor(np.random.default_rng(24).normal(size=(2, 6, 16)))
    mask = np.ones((2, 6))
    target = Tensor(np.random.default_rng(25).random((2, 6, 8)))

    def f():
        a = decoder.spectrogram_loss(lc(x, mask), target, mask)
        b = decoder.spectrogram_loss(tf(x, mask), target, mask)
        return a + b

    params = (dict(lc.named_parameters("lconv_decoder."))
              | dict(tf.named_parameters("transformer_decoder.")))
    return grad_check(f, params, max_entries=16)


def _tiny_model_config(variant: str) -> ModelConfig:
    return ModelConfig(
        vocab_size=8, num_speakers=2, variant=variant, d_model=16, speaker_dim=8,
        latent_dim=4, latent_proj_dim=8, enc_conv_blocks=1, enc_conv_kernel=3,
        enc_transformer_blocks=1, enc_heads=4, dur_blocks=1, dur_kernel=3, dur_heads=4,
        dec_blocks=1, dec_heads=4, dec_kernel=3, mel_bins=8,
        frame_rate=80.0, post_pre_blocks=1, post_strided_blocks=1, post_heads=2,
        post_kernel=3, fine_width=16, fine_blocks=1, fine_heads=4, fine_kernel=3,
        prior_hidden=8)


def _tiny_batch(seed: int = 26) -> Batch:
    rng = np.random.default_rng(seed)
    frames = np.array([[3, 0, 2, 3, 1], [2, 2, 0, 3, 0]])
    mask = upsample.frame_layout(frames).mask
    mel = rng.random(mask.shape + (8,)) * mask[:, :, None]
    return Batch(tokens=rng.integers(0, 8, size=(2, 5)), token_mask=np.ones((2, 5)),
                 speakers=np.array([0, 1]), frames=frames, mel=mel.astype(pt.active_dtype()))


def _check_assembled(variant: str, seed: int, batch_seed: int = 26) -> GradCheckReport:
    model = SynthesisModel(_tiny_model_config(variant), np.random.default_rng(seed))
    batch = _tiny_batch(batch_seed)
    beta = 0.5
    teacher0 = None
    if variant == "fine":
        # freeze the teacher sequence: teacher forcing stops gradient by contract,
        # so finite differences must not see the teacher's parameter dependence
        out0 = model.forward_train(batch, sample_rng=np.random.default_rng(99))
        teacher0 = Tensor(out0.posterior.mean.data.copy())

    def f():
        # reseeding per call fixes the reparameterization noise, keeping f deterministic
        out = model.forward_train(batch, sample_rng=np.random.default_rng(99),
                                  prior_teacher=teacher0)
        return total_loss(out, 1.0, beta)

    return grad_check(f, dict(model.named_parameters()), max_entries=4)


def check_loss_global() -> GradCheckReport:
    return _check_assembled("global", seed=27, batch_seed=40)


def check_loss_fine() -> GradCheckReport:
    return _check_assembled("fine", seed=30, batch_seed=26)


REGISTRY = {
    "tensor": check_tensor_ops,
    "blocks": check_blocks,
    "encoder": check_encoder,
    "vae": check_vae,
    "duration": check_duration,
    "upsampler": check_upsampler,
    "decoder": check_decoder,
    "losses-global": check_loss_global,
    "losses-fine": check_loss_fine,
}


def run_checks(module: str = "all"):
    """Run one registry entry or all of them in high precision; yields (name, report)."""
    names = list(REGISTRY) if module == "all" else [module]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown check module(s) {unknown}; available: {sorted(REGISTRY)}")
    with pt.precision("high"):
        for name in names:
            yield name, REGISTRY[name]()
