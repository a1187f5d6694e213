import numpy as np
import pytest

import paravox.tensor as pt
from paravox import upsample
from paravox.errors import ShapeError
from paravox.tensor import Parameter, Tensor, backward


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def upsampled(hidden, frames, pad_to=None):
    return upsample.upsample(hidden, upsample.frame_layout(frames, pad_to))


def features(frames, dim):
    return upsample.positional_features(upsample.frame_layout(frames), dim)


def test_upsample_index_map_and_skipped_token():
    hidden = Tensor(np.arange(9.0).reshape(1, 3, 3))
    layout = upsample.frame_layout(np.array([[2, 0, 3]]))
    out = upsample.upsample(hidden, layout)
    assert out.shape == (1, 5, 3)
    assert layout.index_map.tolist() == [[0, 0, 2, 2, 2]]
    assert np.array_equal(layout.mask, np.ones((1, 5)))
    assert np.array_equal(out.data[0, 0], hidden.data[0, 0])
    assert np.array_equal(out.data[0, 2], hidden.data[0, 2])


def test_upsample_all_ones_is_identity():
    rng = np.random.default_rng(0)
    hidden = Tensor(rng.normal(size=(2, 4, 5)))
    layout = upsample.frame_layout(np.ones((2, 4), dtype=int))
    out = upsample.upsample(hidden, layout)
    assert np.array_equal(out.data, hidden.data)
    assert np.array_equal(layout.index_map, np.tile(np.arange(4), (2, 1)))


def test_upsample_gradient_counts_frames():
    hidden = Parameter(np.random.default_rng(1).normal(size=(1, 3, 2)))
    frames = np.array([[2, 0, 3]])
    pt.backward(upsampled(hidden, frames).sum())
    assert np.allclose(hidden.grad, frames[0][:, None] * np.ones((1, 3, 2)))


def test_upsample_rejects_negative_and_empty():
    with pytest.raises(ShapeError):
        upsample.frame_layout(np.array([[1, -1]]))
    with pytest.raises(ShapeError):
        upsample.frame_layout(np.array([[0, 0]]))
    with pytest.raises(ShapeError, match="pad_to"):
        upsample.frame_layout(np.array([[2, 1]]), pad_to=2)


def test_upsample_padding_between_batch_elements():
    hidden = Tensor(np.ones((2, 2, 3)))
    layout = upsample.frame_layout(np.array([[2, 1], [1, 1]]))
    out = upsample.upsample(hidden, layout)
    assert out.shape == (2, 3, 3)
    assert layout.mask.tolist() == [[1, 1, 1], [1, 1, 0]]
    assert layout.index_map[1].tolist() == [0, 1, -1]
    assert np.allclose(out.data[1, 2], 0.0)


def test_upsample_padded_layout_gives_zero_rows_and_no_padding_gradient():
    rng = np.random.default_rng(3)
    hidden = Parameter(rng.normal(size=(2, 3, 4)))
    frames = np.array([[2, 0, 1], [1, 1, 0]])
    out = upsampled(hidden, frames, pad_to=6)
    assert out.shape == (2, 6, 4)
    unpadded = upsampled(hidden, frames).data
    assert np.array_equal(out.data, np.pad(unpadded, ((0, 0), (0, 3), (0, 0))))
    assert np.array_equal(out.data[0, 3:], np.zeros((3, 4)))
    assert np.array_equal(out.data[1, 2:], np.zeros((4, 4)))
    backward((out * rng.normal(size=out.shape)).sum())
    emitted = frames > 0
    assert np.all(hidden.grad[emitted] != 0.0)
    assert np.array_equal(hidden.grad[~emitted], np.zeros((2, 4)))


def test_positional_first_frame_and_fraction():
    feats = features(np.array([[1, 4]]), 6)
    assert np.allclose(feats.within.data[0, 0], [0, 1, 0, 1, 0, 1])
    assert np.allclose(feats.within.data[0, 1], [0, 1, 0, 1, 0, 1])  # first frame of token 1
    assert np.allclose(feats.fraction.data[0, 1:, 0], [0.0, 0.25, 0.5, 0.75])


def test_positional_duration_constant_within_phoneme():
    feats = features(np.array([[3, 2]]), 4)
    d0 = feats.duration.data[0, 0]
    assert np.allclose(feats.duration.data[0, 1], d0)
    assert np.allclose(feats.duration.data[0, 2], d0)
    assert not np.allclose(feats.duration.data[0, 3], d0)  # different f
    assert np.allclose(feats.duration.data[0, 3], feats.duration.data[0, 4])


def test_positional_zero_duration_tokens_emit_nothing():
    layout = upsample.frame_layout(np.array([[2, 0, 1]]))
    feats = upsample.positional_features(layout, 4)
    assert feats.within.shape[1] == 3
    assert layout.index_map.tolist() == [[0, 0, 2]]


def test_combiner_equal_logits_weight_one_third():
    comb = upsample.FeatureCombiner(4, np.random.default_rng(0))
    w = comb.weights()
    assert np.allclose(w.data, 1 / 3, atol=1e-12)
    assert np.allclose(w.data.sum(axis=0), 1.0, atol=1e-12)


def test_combiner_saturated_logits_select_one_source():
    comb = upsample.FeatureCombiner(4, np.random.default_rng(0))
    comb.logits.data[0, :] = 50.0
    comb.logits.data[1:, :] = -50.0
    comb.coord_proj.weight.data[:] = 0.0
    comb.coord_proj.bias.data[:] = 0.0
    feats = features(np.array([[2, 2]]), 4)
    up = Tensor(np.random.default_rng(1).normal(size=(1, 4, 4)))
    out = comb(up, feats)
    assert np.allclose(out.data, up.data + feats.within.data, atol=1e-12)


def test_combiner_weights_form_simplex_per_channel():
    comb = upsample.FeatureCombiner(6, np.random.default_rng(2))
    comb.logits.data[:] = np.random.default_rng(3).normal(size=(3, 6)) * 4
    w = comb.weights()
    assert np.allclose(w.data.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(w.data > 0)


def test_output_frame_count_matches_totals_exactly():
    rng = np.random.default_rng(8)
    for _ in range(25):
        frames = rng.integers(0, 5, size=(3, 6))
        frames[:, 0] = np.maximum(frames[:, 0], 1)
        hidden = Tensor(rng.normal(size=(3, 6, 2)))
        layout = upsample.frame_layout(frames)
        out = upsample.upsample(hidden, layout)
        assert out.shape[1] == frames.sum(axis=1).max()
        assert np.array_equal(layout.mask.sum(axis=1), frames.sum(axis=1))


def test_upsample_independent_of_batch_composition():
    rng = np.random.default_rng(9)
    hidden = rng.normal(size=(1, 3, 4))
    frames = np.array([[2, 1, 2]])
    solo = upsampled(Tensor(hidden), frames)
    other = rng.normal(size=(1, 3, 4))
    both = upsampled(Tensor(np.concatenate([hidden, other])), np.concatenate([frames, [[3, 3, 3]]]))
    assert np.allclose(both.data[0, :5], solo.data[0], atol=1e-15)


def reference_frame_layout(frames, pad_to=None):
    """The per-row loop frame_layout replaced; frames are assumed valid."""
    frames = np.asarray(frames, dtype=int)
    totals = frames.sum(axis=1)
    t_max = int(totals.max()) if pad_to is None else pad_to
    b, n = frames.shape
    index_map = np.full((b, t_max), -1, dtype=int)
    offsets = np.zeros((b, t_max), dtype=int)
    mask = np.zeros((b, t_max), dtype=float)
    for bi in range(b):
        index_map[bi, :totals[bi]] = np.repeat(np.arange(n), frames[bi])
        offsets[bi, :totals[bi]] = np.arange(totals[bi]) - np.repeat(
            np.concatenate([[0], np.cumsum(frames[bi])[:-1]]), frames[bi])
        mask[bi, :totals[bi]] = 1.0
    return index_map, offsets, mask


def test_frame_layout_matches_per_row_loop():
    rng = np.random.default_rng(12)
    for trial in range(60):
        b, n = rng.integers(1, 5), rng.integers(1, 9)
        frames = rng.integers(0, 6, size=(b, n)) * (rng.random((b, n)) > 0.3)  # zero-frame tokens
        frames[:, rng.integers(0, n)] += 1  # every row emits at least one frame
        pad_to = None if trial % 2 else int(frames.sum(axis=1).max()) + int(rng.integers(0, 4))
        got = upsample.frame_layout(frames, pad_to)
        want = reference_frame_layout(frames, pad_to)
        for g, w in zip((got.index_map, got.offsets, got.mask), want):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def test_upsample_matches_one_hot_matmul():
    """The gather equals the dense one-hot selection it replaced, forward and
    gradient, with zero-frame tokens and padding rows."""
    rng = np.random.default_rng(13)
    frames = np.array([[2, 0, 3, 1], [1, 1, 0, 0], [0, 4, 1, 2]])
    arrays = rng.normal(size=(3, 4, 5))
    layout = upsample.frame_layout(frames)
    index_map = layout.index_map
    select = np.zeros(index_map.shape + (4,))
    bi, ti = np.nonzero(index_map >= 0)
    select[bi, ti, index_map[bi, ti]] = 1.0
    weights = rng.normal(size=index_map.shape + (5,))
    hidden = Parameter(arrays)
    out = upsample.upsample(hidden, layout)
    backward((out * weights).sum())
    out, grad = out.data, hidden.grad
    ref_out, ref_grad = select @ arrays, np.swapaxes(select, 1, 2) @ weights
    assert np.array_equal(out, ref_out) and np.array_equal(grad, ref_grad)
    assert np.array_equal(out[1, 2:], np.zeros((5, 5)))
    assert np.array_equal(grad[0, 1], np.zeros(5)) and np.array_equal(grad[1, 2:], np.zeros((2, 5)))

