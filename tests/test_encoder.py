import numpy as np
import pytest

import paravox.tensor as pt
from paravox import encoder
from paravox.errors import VocabularyError
from paravox.tensor import Tensor


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def make_encoder(vocab=10, d=8, conv=1, tf=1, heads=2, seed=0):
    return encoder.TextEncoder(vocab, d, heads, conv_blocks=conv, conv_kernel=3,
                               transformer_blocks=tf, rng=np.random.default_rng(seed))


def test_out_of_range_id_rejected_with_index():
    enc = make_encoder()
    with pytest.raises(VocabularyError) as exc:
        enc(np.array([[1, 2, 99]]))
    assert "99" in str(exc.value)


def test_single_token_depends_only_on_its_embedding():
    enc = make_encoder()
    out1 = enc(np.array([[3]]))
    out2 = enc(np.array([[3]]))
    assert np.array_equal(out1.phonemes.data, out2.phonemes.data)
    enc.embedding.data[4] += 1.0  # a different row: must not matter
    out3 = enc(np.array([[3]]))
    assert np.array_equal(out1.phonemes.data, out3.phonemes.data)
    enc.embedding.data[3] += 1.0
    out4 = enc(np.array([[3]]))
    assert not np.array_equal(out1.phonemes.data, out4.phonemes.data)


def test_masking_invariance_and_zero_rows():
    enc = make_encoder()
    ids = np.array([[1, 2, 3]])
    base = enc(ids, np.ones((1, 3)))
    padded = np.array([[1, 2, 3, 7, 8]])
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    out = enc(padded, mask)
    assert np.allclose(out.phonemes.data[0, :3], base.phonemes.data[0], atol=1e-9)
    assert np.allclose(out.phonemes.data[0, 3:], 0.0)


def test_batch_permutation_equivariance():
    enc = make_encoder()
    ids = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = enc(ids)
    perm = [2, 0, 1]
    out_p = enc(ids[perm])
    assert np.allclose(out_p.phonemes.data, out.phonemes.data[perm], atol=1e-12)


def test_attach_conditioning_channel_layout():
    enc = make_encoder()
    out = enc(np.array([[1, 2, 3]]))
    spk = Tensor(np.random.default_rng(1).normal(size=(1, 4)))
    latent = Tensor(np.random.default_rng(2).normal(size=(1, 5)))
    cond = encoder.attach_conditioning(out, spk, latent)
    assert cond.shape == (1, 3, 8 + 4 + 5)
    # global latent is tiled identically across tokens
    assert np.array_equal(cond.data[0, 0, 12:], cond.data[0, 2, 12:])
    assert np.array_equal(cond.data[0, 1, 8:12], spk.data[0])


def test_attach_conditioning_speaker_only_differs_in_speaker_channels():
    enc = make_encoder()
    ids = np.array([[1, 2], [1, 2]])
    out = enc(ids)
    table = encoder.SpeakerTable(3, 4, np.random.default_rng(3))
    spk = table(np.array([0, 2]))
    latent = Tensor(np.zeros((2, 5)))
    cond = encoder.attach_conditioning(out, spk, latent)
    assert np.allclose(cond.data[0, :, :8], cond.data[1, :, :8], atol=1e-12)
    assert not np.allclose(cond.data[0, :, 8:12], cond.data[1, :, 8:12])
    assert np.allclose(cond.data[0, :, 12:], cond.data[1, :, 12:], atol=1e-12)


def test_attach_conditioning_per_phoneme_latent():
    enc = make_encoder()
    out = enc(np.array([[1, 2, 3]]))
    spk = Tensor(np.zeros((1, 4)))
    latent = Tensor(np.random.default_rng(4).normal(size=(1, 3, 5)))
    cond = encoder.attach_conditioning(out, spk, latent)
    assert np.array_equal(cond.data[0, :, 12:], latent.data[0])


def test_attach_conditioning_masked_encoder_channels_zero():
    enc = make_encoder()
    mask = np.array([[1.0, 1.0, 0.0]])
    out = enc(np.array([[1, 2, 3]]), mask)
    cond = encoder.attach_conditioning(out, Tensor(np.ones((1, 4))), Tensor(np.ones((1, 5))))
    assert np.allclose(cond.data[0, 2, :8], 0.0)


def test_speaker_table_out_of_range():
    table = encoder.SpeakerTable(3, 4, np.random.default_rng(5))
    with pytest.raises(VocabularyError):
        table(np.array([3]))
