import numpy as np
import pytest

import paravox.tensor as pt
from paravox import decoder
from paravox.errors import ShapeError
from paravox.tensor import Tensor


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def make_decoder(kind="lconv", blocks=3, d=8, mel=6, heads=2, k=3, seed=0):
    return decoder.SpectrogramDecoder(kind, d, mel, blocks, heads, k, np.random.default_rng(seed))


def every_frame(target):
    return np.ones(target.shape[:2])


def test_decode_output_list_shapes():
    dec = make_decoder(blocks=6)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
    preds = dec(x)
    assert len(preds) == 6
    assert all(p.shape == (2, 5, 6) for p in preds)


@pytest.mark.parametrize("kind", ["lconv", "transformer"])
def test_masking_invariance_at_valid_frames(kind):
    dec = make_decoder(kind=kind, blocks=2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 5, 8))
    base = dec(Tensor(x), np.ones((1, 5)))
    padded = np.concatenate([x, rng.normal(size=(1, 3, 8))], axis=1)
    mask = np.concatenate([np.ones((1, 5)), np.zeros((1, 3))], axis=1)
    out = dec(Tensor(padded), mask)
    for b, p in zip(base, out):
        assert np.allclose(p.data[:, :5], b.data, atol=1e-9)


def scalar_loop_l1(preds, target, mask):
    """Oracle: plain loops over blocks, batch, frames, bins."""
    total = 0.0
    frames = 0.0
    for b in range(target.shape[0]):
        for t in range(target.shape[1]):
            frames += mask[b, t]
    for pred in preds:
        for b in range(target.shape[0]):
            for t in range(target.shape[1]):
                if mask[b, t] == 0:
                    continue
                for k in range(target.shape[2]):
                    total += abs(pred[b, t, k] - target[b, t, k])
    return total / (target.shape[2] * frames)


def test_iterative_loss_zero_for_perfect_prediction():
    target = np.random.default_rng(5).normal(size=(1, 4, 6))
    preds = [Tensor(target.copy()) for _ in range(3)]
    loss = decoder.spectrogram_loss(preds, target, every_frame(target))
    assert loss.data == pytest.approx(0.0)


def test_single_block_constant_offset_normalization():
    target = np.zeros((1, 4, 6))
    c = 0.37
    preds = [Tensor(np.full((1, 4, 6), c))]
    assert decoder.spectrogram_loss(preds, target, every_frame(target)).data == pytest.approx(c)


def test_losses_match_scalar_oracle():
    rng = np.random.default_rng(6)
    target = rng.normal(size=(2, 5, 4))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
    preds = [Tensor(rng.normal(size=(2, 5, 4))) for _ in range(3)]
    it = decoder.spectrogram_loss(preds, target, mask)
    oracle = scalar_loop_l1([p.data for p in preds], target, mask)
    assert abs(float(it.data) - oracle) < 1e-10
    single = decoder.spectrogram_loss(preds[-1:], target, mask)
    oracle_single = scalar_loop_l1([preds[-1].data], target, mask)
    assert abs(float(single.data) - oracle_single) < 1e-10


def test_single_equals_iterative_for_one_block():
    rng = np.random.default_rng(7)
    target = rng.normal(size=(1, 3, 4))
    preds = [Tensor(rng.normal(size=(1, 3, 4)))]
    mask = every_frame(target)
    # one head sums no terms, so its loss is the masked L1 times the normalizer, bit for bit
    loss = decoder.spectrogram_loss(preds, target, mask)
    direct = (pt.abs_(preds[0] - target) * mask[:, :, None]).sum() * (1.0 / (4 * mask.sum()))
    assert loss.data == direct.data


def test_single_equals_last_summand_of_iterative():
    rng = np.random.default_rng(8)
    target = rng.normal(size=(2, 4, 5))
    preds = [Tensor(rng.normal(size=(2, 4, 5))) for _ in range(4)]
    mask = every_frame(target)
    partials = [float(decoder.spectrogram_loss([p], target, mask).data) for p in preds]
    it = float(decoder.spectrogram_loss(preds, target, mask).data)
    assert it == pytest.approx(sum(partials), abs=1e-12)
    assert float(decoder.spectrogram_loss(preds[-1:], target, mask).data) == partials[-1]


def test_iterative_decomposition_identity_high_precision():
    rng = np.random.default_rng(9)
    for _ in range(5):
        target = rng.normal(size=(2, 6, 8))
        mask = (rng.random((2, 6)) > 0.2).astype(float)
        mask[:, 0] = 1.0
        preds = [Tensor(rng.normal(size=(2, 6, 8))) for _ in range(6)]
        it = float(decoder.spectrogram_loss(preds, target, mask).data)
        parts = sum(float(decoder.spectrogram_loss(preds[i:i + 1], target, mask).data)
                    for i in range(6))
        assert abs(it - parts) < 1e-10


def test_projections_are_independent_per_block():
    dec = make_decoder(blocks=3)
    x = Tensor(np.random.default_rng(10).normal(size=(1, 4, 8)))
    target = np.random.default_rng(11).normal(size=(1, 4, 6))
    mask = every_frame(target)
    base = [float(decoder.spectrogram_loss([p], target, mask).data) for p in dec(x)]
    dec.projections[1].weight.data[:] = 0.0
    dec.projections[1].bias.data[:] = 0.0
    changed = [float(decoder.spectrogram_loss([p], target, mask).data) for p in dec(x)]
    assert changed[0] == pytest.approx(base[0], abs=1e-15)
    assert changed[2] == pytest.approx(base[2], abs=1e-15)
    assert changed[1] != pytest.approx(base[1])


def test_unknown_kind_rejected():
    with pytest.raises(ShapeError):
        make_decoder(kind="other")


def opcount(dec, t):
    x = Tensor(np.random.default_rng(0).normal(size=(1, t, dec.d_model)))
    pt.reset_madds()
    with pt.no_grad():
        dec(x)
    return pt.madds()


def test_lconv_cost_linear_transformer_superlinear():
    lconv = make_decoder("lconv", blocks=2)
    tf = make_decoder("transformer", blocks=2)
    t0, dt = 16, 16
    lc = [opcount(lconv, t0 + i * dt) for i in range(3)]
    tfc = [opcount(tf, t0 + i * dt) for i in range(3)]
    # second difference: exactly zero for lconv (affine in T), positive for attention
    assert lc[2] - 2 * lc[1] + lc[0] == 0
    assert tfc[2] - 2 * tfc[1] + tfc[0] > 0
