"""Reusable network blocks.

The workhorse is the lightweight-convolution block: a gated linear unit, a
depthwise convolution whose kernel taps are softmax-normalized over time and
shared across channel groups ("heads"), then a 4x feedforward.  Both it and
the self-attention block use pre-norm residual sublayers.  Masks are float
[B, T] arrays (1 = valid).

Each feed-forward sublayer is one graph node (``pt.ff_sublayer``), and so is
the lightweight-convolution sublayer (``pt.lconv_sublayer``); only the taps'
softmax stays a node of its own.  The modules keep their parameters
(``norm1``, ``glu_proj``, ``conv.kernel``, ``norm2``, ``ff1``, ``ff2``) and
pass them to the fused op.  The two sequence blocks run on the valid rows
only, packed into [M, d] by ``Rows``.  The lightweight-conv sublayer reads the
packed rows too: it scatters them into its own zero-padded window buffer and
returns packed rows.  Only the attention unpacks to [B, T, d] (and packs its
context again), and both blocks unpack once on exit; unpacking leaves exact
zero rows at padding, so padding never leaks and is never masked again.
Without padding, packing is the identity.
"""

from __future__ import annotations

import numpy as np

from . import tensor as pt
from .errors import ShapeError
from .module import Linear, Module
from .tensor import Parameter, Tensor, conv1d


def apply_mask(x: Tensor, mask) -> Tensor:
    if mask is None:
        return x
    return x * np.asarray(mask)[:, :, None]


class Rows:
    """The valid rows of a [B, T] mask (1 = valid), as flat ids into B * T.

    ``pack`` takes [B, T, d] to the [M, d] valid rows and ``unpack`` takes them
    back, with zero rows at padding.  With no mask, or a mask without a zero,
    both are the identity and add no graph node.
    """

    def __init__(self, mask):
        self.mask = mask
        valid = None if mask is None else np.asarray(mask)
        self.ids = None if valid is None or valid.all() else np.flatnonzero(valid)
        self.padded = None if valid is None else valid.shape

    def pack(self, x: Tensor) -> Tensor:
        return x if self.ids is None else pt.move_rows(x, self.ids)

    def unpack(self, x: Tensor) -> Tensor:
        return x if self.ids is None else pt.move_rows(x, self.ids, self.padded)


def repeat_over_positions(x: Tensor, n: int) -> Tensor:
    """[B, d] -> [B, n, d]: a per-utterance vector repeated at every position."""
    b, d = x.shape
    return pt.expand(pt.reshape(x, (b, 1, d)), (b, n, d))


def sinusoidal_embedding(positions, dim: int) -> Tensor:
    """Interleaved sin/cos embedding; accepts real-valued positions.

    Channel 2i is sin(p / 10000^(2i/dim)), channel 2i+1 the matching cos.
    """
    if dim % 2 != 0:
        raise ShapeError(f"sinusoidal embedding dim must be even, got {dim}")
    pos = np.asarray(positions, dtype=np.float64)
    distinct, inverse = np.unique(pos, return_inverse=True)  # frame positions repeat
    i = np.arange(dim // 2, dtype=np.float64)
    rates = 10000.0 ** (2.0 * i / dim)
    angles = distinct[:, None] / rates
    table = np.empty((distinct.size, dim), dtype=pt.active_dtype())
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return pt.constant(table[inverse.reshape(-1)].reshape(pos.shape + (dim,)))


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6):
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return pt.layer_norm(x, self.gain, self.bias, self.eps)


class LightweightConv(Module):
    """The taps of a depthwise conv sharing one kernel per head, softmax-normalized
    over a centered (non-causal) window; ``pt.lconv_sublayer`` applies them."""

    def __init__(self, dim: int, heads: int, kernel_size: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"heads ({heads}) must divide channel count ({dim})")
        if kernel_size % 2 != 1:
            raise ShapeError(f"kernel width must be odd for a centered window, got {kernel_size}")
        self.kernel_size = kernel_size
        self.kernel = Parameter(rng.normal(0.0, 0.1, size=(heads, kernel_size)))

    def normalized_kernel(self) -> Tensor:
        return pt.softmax(self.kernel, axis=1)


def feed_forward(block, x: Tensor, rng) -> Tensor:
    """x + FF(LN(x)) over a block's ``norm2``, ``ff1`` and ``ff2``, as one node."""
    return pt.ff_sublayer(x, block.norm2.gain, block.norm2.bias, block.ff1.weight, block.ff1.bias,
                          block.ff2.weight, block.ff2.bias, block.dropout, rng, block.norm2.eps)


class LConvBlock(Module):
    """Pre-norm GLU -> lightweight conv sublayer, then pre-norm 4x FF sublayer.

    Pre-norm residuals: x + Conv(GLU(LN(x))), then x + FF(LN(x)).  A post-norm
    arrangement (norm after each residual add) plateaus far short of an overfit
    at desk scale, so normalization feeds each sublayer instead.
    """

    def __init__(self, dim: int, heads: int, kernel_size: int, rng: np.random.Generator,
                 dropout: float = 0.1):
        self.norm1 = LayerNorm(dim)
        self.glu_proj = Linear(dim, 2 * dim, rng)
        self.conv = LightweightConv(dim, heads, kernel_size, rng)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, 4 * dim, rng)
        self.ff2 = Linear(4 * dim, dim, rng)
        self.dropout = dropout

    def __call__(self, x: Tensor, mask=None, rng=None) -> Tensor:
        rows = Rows(mask)
        x = pt.lconv_sublayer(rows.pack(x), self.norm1.gain, self.norm1.bias, self.glu_proj.weight,
                              self.glu_proj.bias, self.conv.normalized_kernel(), rows.ids,
                              rows.padded, self.dropout, rng, self.norm1.eps)
        return rows.unpack(feed_forward(self, x, rng))


class MultiHeadSelfAttention(Module):
    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeError(f"heads ({heads}) must divide model dim ({dim})")
        self.q = Linear(dim, dim, rng)
        # A key bias shifts every score in a row equally, which softmax cancels;
        # leaving it out avoids carrying an unlearnable null direction.
        self.k = Linear(dim, dim, rng, bias=False)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.heads = heads

    def __call__(self, x: Tensor, rows: Rows | None = None) -> Tensor:
        """Packed rows in and out: ``rows`` unpacks ``x`` to [B, T, d] for the
        q/k/v projections and the attention over its mask, then packs the
        context for the output projection.  Without ``rows``, x is [B, T, d]
        with no padding."""
        rows = Rows(None) if rows is None else rows
        x = rows.unpack(x)
        ctx = pt.attention(self.q(x), self.k(x), self.v(x), self.heads, rows.mask)
        return self.out(rows.pack(ctx))


class TransformerBlock(Module):
    """Pre-norm self-attention block: x + Attn(LN(x)), then x + FF(LN(x))."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, dropout: float = 0.1):
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, 4 * dim, rng)
        self.ff2 = Linear(4 * dim, dim, rng)
        self.dropout = dropout

    def __call__(self, x: Tensor, mask=None, rng=None) -> Tensor:
        rows = Rows(mask)
        x = rows.pack(x)
        x = x + pt.dropout(self.attn(self.norm1(x), rows), self.dropout, rng)
        return rows.unpack(feed_forward(self, x, rng))


class ConvBlock(Module):
    """Encoder convolution: conv1d (odd k, SAME) -> layer norm -> ReLU -> dropout."""

    def __init__(self, d_in: int, d_out: int, kernel_size: int, rng: np.random.Generator,
                 dropout: float = 0.1):
        if kernel_size % 2 != 1:
            raise ShapeError(f"conv block kernel width must be odd, got {kernel_size}")
        scale = np.sqrt(6.0 / (kernel_size * d_in + d_out))
        self.weight = Parameter(rng.uniform(-scale, scale, size=(kernel_size, d_in, d_out)))
        self.bias = Parameter(np.zeros(d_out))
        self.norm = LayerNorm(d_out)
        self.dropout = dropout

    def __call__(self, x: Tensor, mask=None, rng=None) -> Tensor:
        h = conv1d(apply_mask(x, mask), self.weight, self.bias)
        h = pt.relu(self.norm(h), self.dropout, rng)
        return apply_mask(h, mask)
