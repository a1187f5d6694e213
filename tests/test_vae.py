import numpy as np
import pytest

import paravox.tensor as pt
from paravox import vae
from paravox.encoder import EncoderOutput
from paravox.errors import ShapeError
from paravox.tensor import Tensor
from paravox.upsample import frame_layout, positional_features


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def make_posterior(shape, seed=0):
    rng = np.random.default_rng(seed)
    return vae.LatentPosterior(Tensor(rng.normal(size=shape)),
                               Tensor(rng.normal(size=shape) * 0.5))


# -- KL divergence ---------------------------------------------------------------

def test_kl_zero_when_posterior_equals_prior():
    mean = np.random.default_rng(0).normal(size=(3, 8))
    post = vae.LatentPosterior(Tensor(mean), Tensor(np.zeros((3, 8))))
    kl = vae.kl_divergence(post, Tensor(mean))
    assert np.allclose(kl.data, 0.0, atol=1e-12)


def test_kl_unit_shift_eight_dims():
    post = vae.LatentPosterior(Tensor(np.ones((1, 8))), Tensor(np.zeros((1, 8))))
    kl = vae.kl_divergence(post, Tensor(np.zeros((1, 8))))
    assert kl.data[0] == pytest.approx(4.0)


def test_kl_matches_monte_carlo():
    # oracle: E_q[log q(z) - log p(z)] estimated over 100K reparameterized samples
    rng = np.random.default_rng(42)
    mu_q = rng.normal(size=8) * 0.8
    lv_q = rng.normal(size=8) * 0.4
    mu_p = rng.normal(size=8) * 0.5
    n = 100_000
    eps = np.random.default_rng(7).standard_normal((n, 8))
    z = mu_q + np.exp(lv_q / 2) * eps
    log_q = -0.5 * ((z - mu_q) ** 2 / np.exp(lv_q) + lv_q + np.log(2 * np.pi)).sum(axis=1)
    log_p = -0.5 * ((z - mu_p) ** 2 + np.log(2 * np.pi)).sum(axis=1)
    mc = (log_q - log_p).mean()
    post = vae.LatentPosterior(Tensor(mu_q[None]), Tensor(lv_q[None]))
    analytic = float(vae.kl_divergence(post, Tensor(mu_p[None])).data[0])
    assert abs(analytic - mc) / abs(analytic) < 0.02


def test_kl_nonnegative_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        post = vae.LatentPosterior(Tensor(rng.normal(size=(1, 8)) * 3),
                                   Tensor(rng.normal(size=(1, 8)) * 2))
        kl = vae.kl_divergence(post, Tensor(rng.normal(size=(1, 8)) * 3))
        assert kl.data[0] >= -1e-12


def test_kl_fine_padded_tokens_add_exactly_zero():
    # the fine posterior's padded tokens are the standard-normal prior itself,
    # so the KL sums every token without a mask
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    mel, feats, spk_emb, _ = fine_inputs(b=2)
    post = make_fine()(mel, feats, spk_emb, make_enc(2, 3, 8, seed=4, mask=mask))

    def kl(tokens):
        part = vae.LatentPosterior(post.mean[:, tokens], post.log_variance[:, tokens])
        return vae.kl_divergence(part, np.zeros(4)).data

    assert kl(slice(2, 3))[0] == 0.0
    assert kl(slice(None))[0] == kl(slice(0, 2))[0]
    assert kl(slice(2, 3))[1] > 0.0


# -- reparameterized sampling ------------------------------------------------------

def test_sample_gradient_wrt_mean_is_identity():
    mean = pt.Parameter(np.random.default_rng(0).normal(size=(2, 8)))
    post = vae.LatentPosterior(mean, Tensor(np.zeros((2, 8))))
    sample = post.sample(np.random.default_rng(1))
    pt.backward(sample.sum())
    assert np.allclose(mean.grad, 1.0, atol=1e-15)


def test_sample_reproducible_for_seed():
    post = make_posterior((2, 8))
    s1 = post.sample(np.random.default_rng(9))
    s2 = post.sample(np.random.default_rng(9))
    assert np.array_equal(s1.data, s2.data)


# -- global posterior ----------------------------------------------------------------

def make_global(mel_bins=8, seed=0, pre=1, strided=2):
    return vae.GlobalPosterior(mel_bins, heads=2, kernel_size=3, latent_dim=4,
                               rng=np.random.default_rng(seed), pre_blocks=pre,
                               strided_blocks=strided)


def test_global_posterior_single_frame_pool_identity():
    gp = make_global(strided=0, pre=0)
    mel = np.random.default_rng(2).normal(size=(1, 1, 8))
    post = gp(Tensor(mel), np.ones((1, 1)))
    direct_mean = gp.mean_proj(Tensor(mel[:, 0, :]))
    assert np.allclose(post.mean.data, direct_mean.data, atol=1e-12)


def test_global_posterior_masked_padding_invariance():
    gp = make_global()
    rng = np.random.default_rng(3)
    mel = rng.normal(size=(1, 9, 8))
    base = gp(Tensor(mel), np.ones((1, 9)))
    padded = np.concatenate([mel, rng.normal(size=(1, 4, 8))], axis=1)
    mask = np.concatenate([np.ones((1, 9)), np.zeros((1, 4))], axis=1)
    out = gp(Tensor(padded), mask)
    assert np.allclose(out.mean.data, base.mean.data, atol=1e-9)
    assert np.allclose(out.log_variance.data, base.log_variance.data, atol=1e-9)


def test_five_stride_two_stages_reduce_64_to_2():
    x = Tensor(np.zeros((1, 64, 2)))
    weight, bias = Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros(2))
    for _ in range(5):
        x = pt.conv1d(x, weight, bias, stride=2)
    assert x.shape == (1, 2, 2)


def test_global_posterior_rejects_empty():
    gp = make_global()
    with pytest.raises(ShapeError):
        gp(Tensor(np.zeros((1, 4, 8))), np.zeros((1, 4)))


# -- fine posterior -------------------------------------------------------------------

def make_enc(b, n, d_model, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    mask = np.ones((b, n)) if mask is None else mask
    phon = rng.normal(size=(b, n, d_model)) * mask[:, :, None]
    return EncoderOutput(Tensor(phon), mask)


def make_fine(mel_bins=6, d_model=8, spk=4, width=8, seed=0, blocks=1):
    return vae.FinePosterior(mel_bins, d_model, spk, width, heads=2, kernel_size=3,
                             latent_dim=4, rng=np.random.default_rng(seed),
                             blocks=blocks)


def fine_inputs(b=1, n=3, mel_bins=6, d_model=8, spk=4, seed=1, frames=None):
    rng = np.random.default_rng(seed)
    frames = np.array([[3, 2, 4]] * b) if frames is None else frames
    t = int(frames.sum(axis=1).max())
    mel = Tensor(rng.normal(size=(b, t, mel_bins)))
    feats = positional_features(frame_layout(frames), d_model)
    spk_emb = Tensor(rng.normal(size=(b, spk)))
    enc = make_enc(b, n, d_model, seed + 1)
    return mel, feats, spk_emb, enc


def test_fine_posterior_attention_rows_sum_to_one():
    # tokens [B, N, d] attend over frames [B, T, d] under the frame mask, as in
    # FinePosterior; with identity values the output is the weights
    rng = np.random.default_rng(0)
    feats = positional_features(frame_layout(np.array([[3, 2, 4], [1, 2, 0]])), 8)
    q = Tensor(rng.normal(size=(2, 3, 8)))
    k = Tensor(rng.normal(size=(2, 9, 8)))
    weights = pt.attention(q, k, np.tile(np.eye(9), (2, 1, 1)), 1, feats.frame_mask).data
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    assert np.array_equal(weights[1, :, 3:], np.zeros((3, 6)))


def test_fine_posterior_single_token_pools_all_frames():
    fp = make_fine()
    frames = np.array([[5]])
    mel, feats, spk_emb, enc = fine_inputs(n=1, frames=frames)
    q = Tensor(np.random.default_rng(0).normal(size=(1, 1, 8)))
    k = Tensor(np.random.default_rng(1).normal(size=(1, 5, 8)))
    weights = pt.attention(q, k, np.eye(5)[None], 1, feats.frame_mask)  # values: the weights
    assert weights.shape == (1, 1, 5)
    assert weights.data.sum() == pytest.approx(1.0)
    assert np.all(weights.data > 0.0)
    assert fp(mel, feats, spk_emb, enc).mean.shape == (1, 1, 4)


def test_fine_posterior_length_mismatch_rejected():
    fp = make_fine()
    mel, feats, spk_emb, enc = fine_inputs()
    short = Tensor(mel.data[:, :-2, :])
    with pytest.raises(ShapeError):
        fp(short, feats, spk_emb, enc)


def test_fine_posterior_masked_rows_zero():
    fp = make_fine()
    mask = np.array([[1.0, 1.0, 0.0]])
    mel, feats, spk_emb, _ = fine_inputs()
    enc = make_enc(1, 3, 8, seed=4, mask=mask)
    post = fp(mel, feats, spk_emb, enc)
    assert np.allclose(post.mean.data[0, 2], 0.0)
    assert np.allclose(post.log_variance.data[0, 2], 0.0)


# -- learned prior ---------------------------------------------------------------------

def make_prior(d_model=8, spk=4, latent=4, hidden=6, seed=0):
    return vae.FinePriorLSTM(d_model, spk, latent, hidden, np.random.default_rng(seed))


def test_prior_zero_teacher_zero_projection_gives_zero_loss():
    prior = make_prior()
    prior.out_proj.weight.data[:] = 0.0
    prior.out_proj.bias.data[:] = 0.0
    enc = make_enc(2, 3, 8, seed=2)
    spk_emb = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
    teacher = Tensor(np.zeros((2, 3, 4)))
    _, loss = prior.teacher_forced(enc, spk_emb, teacher)
    assert loss.data == pytest.approx(0.0)


def test_prior_loss_gradient_does_not_reach_posterior():
    fp = make_fine()
    prior = make_prior()
    mel, feats, spk_emb, enc = fine_inputs()
    post = fp(mel, feats, spk_emb, enc)
    _, loss = prior.teacher_forced(enc, spk_emb, post.mean)
    fp.zero_grad()
    prior.zero_grad()
    pt.backward(loss)
    for name, p in fp.named_parameters():
        assert p.grad is None or np.all(p.grad == 0.0), f"gradient leaked into {name}"
    assert any(p.grad is not None and np.any(p.grad != 0.0) for p in prior.parameters())


def test_prior_rollout_deterministic():
    prior = make_prior()
    enc = make_enc(1, 4, 8, seed=5)
    spk_emb = Tensor(np.random.default_rng(6).normal(size=(1, 4)))
    r1 = prior.rollout(enc, spk_emb)
    r2 = prior.rollout(enc, spk_emb)
    assert np.array_equal(r1.data, r2.data)


def test_prior_teacher_forced_on_own_rollout_reproduces_it():
    prior = make_prior()
    enc = make_enc(2, 5, 8, seed=7)
    spk_emb = Tensor(np.random.default_rng(8).normal(size=(2, 4)))
    rolled = prior.rollout(enc, spk_emb)
    preds, _ = prior.teacher_forced(enc, spk_emb, rolled)
    assert preds.shape == (2, 5, 4)
    assert np.allclose(preds.data, rolled.data, rtol=1e-12, atol=1e-15)


def test_prior_missing_teacher_rejected():
    prior = make_prior()
    enc = make_enc(1, 2, 8)
    spk_emb = Tensor(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        prior.teacher_forced(enc, spk_emb, None)


# -- latent projection -------------------------------------------------------------------

def test_latent_project_output_width_and_linearity():
    rng = np.random.default_rng(0)
    proj = vae.LatentProjector(8, 32, rng)
    z = Tensor(rng.normal(size=(2, 8)))
    out = proj(z)
    assert out.shape == (2, 32)
    doubled = proj(z * 2.0)
    zero = proj(Tensor(np.zeros((2, 8))))
    assert np.allclose(doubled.data - zero.data, 2 * (out.data - zero.data), atol=1e-9)


def test_latent_project_fine_concatenates():
    rng = np.random.default_rng(1)
    proj = vae.LatentProjector(4, 32, rng, context_dim=4 + 8)
    enc = make_enc(2, 3, 8)
    z = Tensor(rng.normal(size=(2, 3, 4)))
    spk_emb = Tensor(rng.normal(size=(2, 4)))
    out = proj(z, spk_emb, enc)
    assert out.shape == (2, 3, 32)


def test_speaker_prior_rows():
    prior = vae.SpeakerPrior(4, 8)
    prior.means.data[:] = np.arange(32.0).reshape(4, 8)
    out = prior(np.array([2, 0]))
    assert np.array_equal(out.data[0], prior.means.data[2])
    assert np.array_equal(out.data[1], prior.means.data[0])
