import numpy as np
import pytest

import paravox.tensor as pt
from paravox import blocks
from paravox.errors import ShapeError
from paravox.tensor import Tensor


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


# -- sinusoidal embedding ------------------------------------------------------

def test_sinusoid_at_zero_alternates():
    emb = blocks.sinusoidal_embedding(np.array(0.0), 8)
    assert np.allclose(emb.data, [0, 1, 0, 1, 0, 1, 0, 1])


def test_sinusoid_bounded():
    emb = blocks.sinusoidal_embedding(np.linspace(0, 500, 37), 16)
    assert emb.data.min() >= -1.0 and emb.data.max() <= 1.0


def test_sinusoid_known_values():
    emb = blocks.sinusoidal_embedding(np.array(1.0), 4)
    expected = [np.sin(1.0), np.cos(1.0), np.sin(10000.0 ** -0.5), np.cos(10000.0 ** -0.5)]
    assert np.allclose(emb.data, expected, atol=1e-12)


@pytest.mark.parametrize("mode", ["standard", "high"])
def test_sinusoid_of_repeated_positions_equals_direct_formula(mode):
    positions = np.array([[0.0, 3.0, 3.0, 1.5], [7.0, 0.0, 3.0, 7.0]])
    with pt.precision(mode):
        emb = blocks.sinusoidal_embedding(positions, 6)
        angles = positions[..., None] / 10000.0 ** (2.0 * np.arange(3) / 6)
        direct = np.empty(positions.shape + (6,), dtype=pt.active_dtype())
        direct[..., 0::2] = np.sin(angles)
        direct[..., 1::2] = np.cos(angles)
    assert emb.const and emb.data.dtype == direct.dtype
    assert np.array_equal(emb.data, direct)


def test_sinusoid_odd_dim_rejected():
    with pytest.raises(ShapeError):
        blocks.sinusoidal_embedding(np.array(1.0), 5)


# -- lightweight convolution ----------------------------------------------------

def lconv(conv, x):
    """The module's softmax-normalized taps over [B, T, d] rows, zero padded."""
    return pt._lconv(pt._lconv_pad(x, conv.kernel_size), conv.normalized_kernel().data)


def test_lconv_kernel_width_one_is_identity():
    rng = np.random.default_rng(0)
    conv = blocks.LightweightConv(6, 2, 1, rng)
    x = rng.normal(size=(2, 4, 6))
    assert np.array_equal(lconv(conv, x), x)


def test_lconv_uniform_kernel_averages_constant_input():
    rng = np.random.default_rng(0)
    conv = blocks.LightweightConv(4, 2, 3, rng)
    conv.kernel.data[:] = 0.0  # softmax -> 1/3 per tap
    c = 1.8
    out = lconv(conv, np.full((1, 6, 4), c))
    assert np.allclose(out[0, 1:-1], c, atol=1e-12)
    assert np.allclose(out[0, 0], 2 * c / 3, atol=1e-12)
    assert np.allclose(out[0, -1], 2 * c / 3, atol=1e-12)


def test_lconv_taps_sum_to_one():
    rng = np.random.default_rng(1)
    conv = blocks.LightweightConv(8, 4, 5, rng)
    w = conv.normalized_kernel()
    assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-12)


def test_lconv_heads_must_divide():
    with pytest.raises(ShapeError):
        blocks.LightweightConv(6, 4, 3, np.random.default_rng(0))


def test_lconv_even_kernel_rejected():
    with pytest.raises(ShapeError):
        blocks.LightweightConv(8, 4, 4, np.random.default_rng(0))


def test_lconv_parameter_count_ratio():
    light = blocks.LightweightConv(128, 8, 17, np.random.default_rng(0)).kernel.size
    standard = blocks.ConvBlock(128, 128, 17, np.random.default_rng(0)).weight.size
    assert light == 136
    assert standard == 278528
    assert standard / light == 2048.0
    assert standard / light > 2000


def test_lconv_block_padding_does_not_contribute():
    # the block hands its conv zero rows at padding, whatever the input holds there
    rng = np.random.default_rng(2)
    blk = blocks.LConvBlock(4, 2, 3, rng)
    x = rng.normal(size=(1, 5, 4))
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    out = blk(Tensor(x), mask)
    x[0, 3:] = rng.normal(size=(2, 4)) * 100.0
    changed = blk(Tensor(x), mask)
    assert np.array_equal(changed.data[0, :3], out.data[0, :3])
    assert np.array_equal(changed.data[0, 3:], np.zeros((2, 4)))


# -- LConv block -----------------------------------------------------------------

def test_lconv_block_zero_weights_degenerate_to_identity():
    # with zero projections both residual branches vanish: pre-norm passthrough
    blk = blocks.LConvBlock(8, 2, 3, np.random.default_rng(0))
    for name, p in blk.named_parameters():
        if name.endswith(("weight", "bias")) and "norm" not in name:
            p.data[:] = 0.0
    x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 8)))
    out = blk(x)
    assert np.allclose(out.data, x.data, atol=1e-12)


@pytest.mark.parametrize("shape,heads", [((1, 3, 4), 2), ((2, 6, 8), 4), ((3, 2, 6), 3)])
def test_lconv_block_preserves_shape(shape, heads):
    blk = blocks.LConvBlock(shape[2], heads, 3, np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).normal(size=shape))
    assert blk(x).shape == shape


# -- attention and the transformer block ---------------------------------------------

# (batch, queries, keys, heads, per-head width): one head, as FinePosterior
# attends, and several, as MultiHeadSelfAttention does
ATTENTION_SHAPES = [(2, 4, 5, 1, 6), (2, 4, 5, 3, 2)]


def attention_weights(q, k, heads, key_mask=None):
    """[B, Tq, heads, Tk]: with identity values, pt.attention returns its weights."""
    b, tk = k.shape[0], k.shape[1]
    out = pt.attention(q, k, np.tile(np.eye(tk), (b, 1, heads)), heads, key_mask)
    return out.data.reshape(b, q.shape[1], heads, tk)


def test_attention_weights_single_key_gets_weight_one():
    rng = np.random.default_rng(2)
    for b, tq, _, heads, d in ATTENTION_SHAPES:
        q = Tensor(rng.normal(size=(b, tq, heads * d)))
        k = Tensor(rng.normal(size=(b, 1, heads * d)))
        assert np.array_equal(attention_weights(q, k, heads), np.ones((b, tq, heads, 1)))


def test_attention_single_position_uses_value_projection():
    rng = np.random.default_rng(0)
    attn = blocks.MultiHeadSelfAttention(8, 2, rng)
    x = Tensor(rng.normal(size=(1, 1, 8)))
    expected = attn.out(attn.v(x))
    assert np.allclose(attn(x).data, expected.data, atol=1e-12)


def test_attention_rows_sum_to_one_over_valid_keys():
    rng = np.random.default_rng(1)
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
    for b, tq, tk, heads, d in ATTENTION_SHAPES:
        q = Tensor(rng.normal(size=(b, tq, heads * d)))
        k = Tensor(rng.normal(size=(b, tk, heads * d)))
        weights = attention_weights(q, k, heads, mask)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        assert np.array_equal(weights[0, ..., 3:], np.zeros(weights[0, ..., 3:].shape))
        assert np.all(weights[0, ..., :3] > 0.0) and np.all(weights[1] > 0.0)


def test_transformer_block_preserves_shape():
    blk = blocks.TransformerBlock(8, 4, np.random.default_rng(9))
    x = Tensor(np.random.default_rng(10).normal(size=(3, 7, 8)))
    assert blk(x).shape == (3, 7, 8)


# -- conv block ------------------------------------------------------------------------

def test_conv_block_preserves_shape():
    blk = blocks.ConvBlock(6, 6, 3, np.random.default_rng(11))
    x = Tensor(np.random.default_rng(12).normal(size=(2, 4, 6)))
    assert blk(x).shape == (2, 4, 6)


def test_conv1d_strided_length():
    rng = np.random.default_rng(13)
    w = Tensor(rng.normal(size=(3, 4, 5)))
    b = Tensor(np.zeros(5))
    for t, stride, expected in [(64, 2, 32), (9, 2, 5), (7, 1, 7), (5, 3, 2)]:
        x = Tensor(rng.normal(size=(1, t, 4)))
        assert blocks.conv1d(x, w, b, stride=stride).shape == (1, expected, 5)


# -- packed rows -------------------------------------------------------------------------

def op_counts(out: Tensor) -> dict:
    """Op nodes of the graph behind ``out``, by the op that made them."""
    counts = {}
    for node in pt._topo_order(out):
        if node._backward is not None:
            op = node._backward.__qualname__.split(".")[0]
            counts[op] = counts.get(op, 0) + 1
    return counts


@pytest.mark.parametrize("kind", ["lconv", "transformer"])
def test_blocks_without_padding_add_no_pack_node_and_no_mask_multiply(kind):
    # op nodes with mask None, with an all-ones mask and with padding (a pack
    # and an unpack, plus two more around the transformer's attention; the
    # lightweight-conv sublayer reads packed rows); each sublayer but the
    # attention's is one node, and the attention is one node with or without a
    # mask
    expected = {"lconv": (3, 3, 5), "transformer": (8, 8, 12)}[kind]
    if kind == "lconv":
        blk = blocks.LConvBlock(8, 2, 3, np.random.default_rng(40))
    else:
        blk = blocks.TransformerBlock(8, 2, np.random.default_rng(40))
    x = Tensor(np.random.default_rng(41).normal(size=(2, 5, 8)))
    padded = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=float)
    counts = [op_counts(blk(x, mask)) for mask in (None, np.ones((2, 5)), padded)]
    assert tuple(sum(c.values()) for c in counts) == expected
    for c in counts[:2]:
        assert "move_rows" not in c and "mul" not in c
    moves = {"lconv": 2, "transformer": 4}[kind]
    assert counts[2]["move_rows"] == moves and "mul" not in counts[2]


# -- cross-block invariants -------------------------------------------------------------

def pad_batch(x, extra, rng):
    junk = rng.normal(size=(x.shape[0], extra, x.shape[2]))
    return np.concatenate([x, junk], axis=1)


@pytest.mark.parametrize("kind", ["lconv", "transformer", "conv"])
def test_masking_invariance(kind):
    rng = np.random.default_rng(21)
    d = 8
    if kind == "lconv":
        blk = blocks.LConvBlock(d, 2, 3, np.random.default_rng(20))
    elif kind == "transformer":
        blk = blocks.TransformerBlock(d, 2, np.random.default_rng(20))
    else:
        blk = blocks.ConvBlock(d, d, 3, np.random.default_rng(20))
    x = rng.normal(size=(2, 5, d))
    base = blk(Tensor(x), np.ones((2, 5)))
    padded = pad_batch(x, 3, rng)
    mask = np.concatenate([np.ones((2, 5)), np.zeros((2, 3))], axis=1)
    out = blk(Tensor(padded), mask)
    assert np.allclose(out.data[:, :5], base.data, atol=1e-5)
    assert np.allclose(out.data[:, 5:], 0.0)


@pytest.mark.parametrize("kind", ["lconv", "transformer"])
def test_batch_order_invariance(kind):
    rng = np.random.default_rng(31)
    if kind == "lconv":
        blk = blocks.LConvBlock(8, 2, 3, np.random.default_rng(30))
    else:
        blk = blocks.TransformerBlock(8, 2, np.random.default_rng(30))
    x = rng.normal(size=(3, 4, 8))
    perm = [2, 0, 1]
    out = blk(Tensor(x))
    out_p = blk(Tensor(x[perm]))
    assert np.allclose(out_p.data, out.data[perm], atol=1e-12)
