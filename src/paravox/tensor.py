"""Dense tensors with reverse-mode automatic differentiation.

Every differentiable operation records its parents and a closure that maps
the output gradient to parent-gradient contributions.  ``backward`` walks the
graph once in reverse topological order, so fan-out accumulates correctly.
The sweep frees intermediates as it goes: once a node's closure has run, the
node drops its gradient and its closure (and with it every array the closure
held).  Only leaves (Parameters and input tensors) keep ``.grad``, and a swept
graph cannot be swept again.

Constants carry no gradient.  A raw numpy array or scalar passed to an op is
lifted to a constant, as is the result of ``constant``; closures skip
constant parents, and an op whose parents are all constants returns a
constant with no parents and no closure.  Its madds are counted all the same.
A ``Tensor(x)`` built by the caller is not a constant: it is a differentiable
leaf and receives ``.grad``.

Gradient ownership: a node with parents keeps the first gradient array it
receives without copying it.  That array may be shared with other nodes, so it
is read-only: only the node's own closure reads it, and a second contribution
is summed into a new array laid out like the first.  Leaves own a private copy,
because the optimizer and gradient clipping update ``.grad`` in place.

The hot network ops are fused: ``softmax``, ``layer_norm``, ``conv1d``
(im2col and one matmul), ``lstm`` (one input GEMM over all steps, then the
recurrence in numpy), ``attention`` (every head's scores, mask, softmax and
context), ``dropout`` and ``bce_with_logits`` are each a single graph node
with a hand-written numpy backward.  So are the two residual sublayers of the
sequence blocks: ``ff_sublayer`` (layer norm, a dense layer, ReLU with its
dropout, a dense layer and the residual add) and ``lconv_sublayer`` (layer
norm, the GLU's dense layer, the GLU, a lightweight convolution as a sliding
window and one contraction, dropout and the residual add).  ``matmul`` takes
an optional bias, added in place to the fresh product, so a Linear layer is
one node too; its backward reduces the output gradient to the bias as a
separate add node would.  A fused op evaluates every expression of the
composite it replaces in that composite's order, so its values, gradients
and madds are the composite's bit for bit.  A contraction raises ShapeError
naming its operands' shapes when they do not fit.  The module holds only the
ops that some command runs.

What a node keeps for its backward sets what a training step holds, so the
fused nodes keep little: ``dropout`` keeps its boolean keep mask, one byte
per element, and rebuilds the scaled mask where a product needs it; ``relu``
given a rate and a generator is the ReLU and the dropout after it in one
node, keeping that mask and its input.  ``ff_sublayer`` keeps the norm's
normalized rows and inverse deviations, the ReLU output (for the second
weight's gradient) and one boolean mask, kept and positive; its [M, 4d]
pre-activation, norm output and residual sum are never held.
``lconv_sublayer`` keeps the norm's normalized rows and inverse deviations,
the GLU projection, its zero-padded window buffer (into which it scatters
packed [M, d] rows directly, so no [B, T, d] unpacked input or output is held
beside it) and the dropout's keep mask.  Both recompute the norm output in
backward, and the conv sublayer the GLU sigmoid, by the forward's
expressions.

The logistic sigmoid (in ``sigmoid``, the GLU, softplus's backward, the lstm
and ``bce_with_logits``) is branch-free and exact: with s = 1 / (1 + e^-|z|)
in [0.5, 1], s - 0.5 and 1 - s are exact (Sterbenz), so 0.5 + copysign(s -
0.5, z) is exactly the s or 1 - s that a select on the sign of z would pick.

Two run-level precisions exist: "standard" (float32) for training and "high"
(float64) for finite-difference gradient checks.  The precision is a global
switch; it applies to tensors created after the switch.

Multiply-add counting: each forward op adds its cost to a global counter so
callers can compare decoder variants by exact operation counts instead of
wall clock.  Contractions count their multiply-adds: ``matmul`` k*n per row
plus one per output element for a bias, ``conv1d`` k*d_in*d_out per output
frame, the lightweight convolution k per element of the padded [B, T, d] grid
(also when it reads packed rows), ``lstm`` B*N*4H*(d_in+H) for its input and
recurrent projections, and ``attention`` B*h*Tq*Tk*(dk+dv) plus one per score
for each of its scale, key mask and softmax.  Element-wise ops
(``bce_with_logits`` among them), ``softmax``, ``layer_norm`` and
``gather_rows`` count one per output element, so the upsampler's frame gather
costs T*d per utterance; ``relu`` with dropout counts two, its max and its
mask product, and so does the GLU, its sigmoid and its product.  A fused
sublayer counts what its composite's nodes count.  ``sum_`` counts one per
input element, and shape ops (reshape, concat, slicing, expand,
``move_rows``) nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError, ShapeError

_PRECISIONS = {"standard": np.float32, "high": np.float64}
_state = {"dtype": np.float32, "grad": True, "madds": 0}


def active_dtype():
    return _state["dtype"]


class precision:
    """Switch the run-level precision inside the block."""

    def __init__(self, mode: str):
        if mode not in _PRECISIONS:
            raise ValueError(f"unknown precision {mode!r}; expected one of {sorted(_PRECISIONS)}")
        self.mode = mode

    def __enter__(self):
        self.saved = _state["dtype"]
        _state["dtype"] = _PRECISIONS[self.mode]
        return self

    def __exit__(self, *exc):
        _state["dtype"] = self.saved
        return False


class no_grad:
    """Disable graph construction inside the block (inference / benchmarks)."""

    def __enter__(self):
        self.saved = _state["grad"]
        _state["grad"] = False
        return self

    def __exit__(self, *exc):
        _state["grad"] = self.saved
        return False


def reset_madds() -> None:
    _state["madds"] = 0


def madds() -> int:
    return _state["madds"]


def _count(n: int) -> None:
    _state["madds"] += int(n)


class Tensor:
    """A node in the reverse-mode computation graph.

    ``data`` is a contiguous numpy array; ``grad`` has the same shape and is
    set on first accumulation (a private copy for a leaf, the received array
    for a node with parents).  ``backward`` resets the ``grad`` and
    ``_backward`` of every non-leaf node it sweeps to None.  ``const`` marks a
    constant, which no closure gives a gradient.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "const")
    __array_ufunc__ = None  # ``array * tensor`` defers to Tensor.__rmul__

    def __init__(self, data, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_state["dtype"])
        self.grad = None
        self._parents = _parents if _state["grad"] else ()
        self._backward = _backward if _state["grad"] else None
        self.const = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name})"

    def _accum(self, g):
        if self.grad is None:
            if (self._parents and isinstance(g, np.ndarray) and g.dtype == self.data.dtype
                    and (g.flags.c_contiguous or g.flags.f_contiguous)):
                self.grad = g  # a read-only alias: only this node's closure reads it
            else:
                self.grad = np.array(g, dtype=self.data.dtype)  # a private copy, as a leaf needs
        elif self._parents:
            # never write into an alias; keep the first contribution's layout,
            # which fixes the summation order of later reductions
            self.grad = np.add(self.grad, g, out=np.empty_like(self.grad))
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, key):
        return slice_(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self):
        return mean(self)


class Parameter(Tensor):
    """A leaf tensor that the optimizer updates.

    Its name is its path in the module tree (``Module.named_parameters``).
    """

    __slots__ = ()

    def __init__(self, data):
        # Parameters are leaves regardless of the no_grad state at creation.
        super().__init__(np.asarray(data, dtype=_state["dtype"]))


def constant(data) -> Tensor:
    """A leaf that carries no gradient (a mask, noise, a target, fixed features).

    Ops skip a constant parent in their backward, and an op whose parents are
    all constants returns a constant with no graph behind it.
    """
    out = Tensor(data)
    out.const = True
    return out


def _lift(x) -> Tensor:
    """Tensors pass through; anything else (a numpy array, a scalar) is a constant."""
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient ``g`` back to ``shape`` after trailing-dim broadcasting."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _not_broadcastable(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} are not broadcast-compatible")


def _binary(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """``ufunc(a, b)`` on the data; numpy's own broadcast check raises the ShapeError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise _not_broadcastable(op, a, b) from None


def _make(out_data, parents, backward, madds=None) -> Tensor:
    """Count the op's multiply-adds (default: one per output element) and wrap
    its result; under ``no_grad`` the node keeps neither parents nor closure,
    and over constant parents only it is a constant."""
    _count(out_data.size if madds is None else madds)
    if all(p.const for p in parents):
        return constant(out_data)
    return Tensor(out_data, parents, backward)


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = _binary("add", np.add, a, b)

    def bw(g):
        if not a.const:
            a._accum(_unbroadcast(g, a.data.shape))
        if not b.const:
            b._accum(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = _binary("sub", np.subtract, a, b)

    def bw(g):
        if not a.const:
            a._accum(_unbroadcast(g, a.data.shape))
        if not b.const:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = _binary("mul", np.multiply, a, b)

    def bw(g):
        if not a.const:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if not b.const:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out_data = _binary("div", np.divide, a, b)

    def bw(g):
        if not a.const:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if not b.const:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bw)


def exp(a) -> Tensor:
    a = _lift(a)
    out_data = np.exp(a.data)

    def bw(g):
        a._accum(g * out_data)

    return _make(out_data, (a,), bw)


def abs_(a) -> Tensor:
    a = _lift(a)
    out_data = np.abs(a.data)

    def bw(g):
        a._accum(g * np.sign(a.data))

    return _make(out_data, (a,), bw)


def relu(a, rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """max(a, 0); with a generator and a positive rate, followed by dropout in
    the same node: forward ``max(a, 0) * keep``, backward ``g * keep * (a > 0)``,
    the mask drawn as ``dropout`` draws it and kept as one byte per element."""
    a = _lift(a)
    out_data = np.maximum(a.data, 0.0)
    if rng is None or rate <= 0.0:
        return _make(out_data, (a,), lambda g: a._accum(g * (a.data > 0)))
    kept, scale = _draw_keep(a.shape, rate, rng)

    def bw(g):
        a._accum(g * (kept * scale) * (a.data > 0))

    return _make(out_data * (kept * scale), (a,), bw, madds=2 * out_data.size)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow (exp only ever sees -|z|) and
    without a per-element branch on the sign; exact, as the module says."""
    s = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return 0.5 + np.copysign(s - 0.5, z)


def sigmoid(a) -> Tensor:
    a = _lift(a)
    out_data = _sigmoid(a.data)

    def bw(g):
        a._accum(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


def _softplus(z: np.ndarray) -> np.ndarray:
    """ln(1 + e^z), computed branch-free stably as max(z,0) + log1p(e^-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus(a) -> Tensor:
    a = _lift(a)
    out_data = _softplus(a.data)

    def bw(g):
        a._accum(g * _sigmoid(a.data))

    return _make(out_data, (a,), bw)


def tanh(a) -> Tensor:
    a = _lift(a)
    out_data = np.tanh(a.data)

    def bw(g):
        a._accum(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


# -- contractions and reductions ----------------------------------------------

def matmul(a, b, bias=None) -> Tensor:
    """``a`` [..., k] times a [k, n] weight, as 2-D GEMMs over a's rows, plus
    an optional [n] ``bias`` added in place to the product, so that a Linear
    layer is one node."""
    a, b = _lift(a), _lift(b)
    bias = None if bias is None else _lift(bias)
    if (a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]
            or (bias is not None and bias.shape != b.shape[1:])):
        raise ShapeError(f"matmul needs a rank >= 2 operand [..., k], a [k, n] weight and an "
                         f"optional [n] bias, got {a.shape}, {b.shape} and "
                         f"{None if bias is None else bias.shape}")
    out_data = _dense(a.data, b, bias)

    def bw(g):
        g_a = _dense_backward(g, a.data, b, bias, not a.const)
        if g_a is not None:
            a._accum(g_a)

    if bias is None:
        return _make(out_data, (a, b), bw, madds=out_data.size * a.shape[-1])
    return _make(out_data, (a, b, bias), bw, madds=out_data.size * (a.shape[-1] + 1))


def _dense(a: np.ndarray, w: Tensor, bias: Tensor | None) -> np.ndarray:
    """``a`` [..., k] times a [k, n] weight as one 2-D GEMM over a's rows, plus
    an optional [n] bias added in place to the product."""
    out = a.reshape(-1, a.shape[-1]) @ w.data
    if bias is not None:
        out += bias.data
    return out.reshape(a.shape[:-1] + w.shape[-1:])


def _dense_backward(g, a: np.ndarray, w: Tensor, bias: Tensor | None, need_input: bool):
    """Accumulate the weight and bias gradients of ``_dense(a, w, bias)`` for
    the output gradient ``g``, the bias's reduced as a separate add node's
    would be; returns the input gradient when asked for it."""
    g_rows = g.reshape(-1, g.shape[-1])
    if not w.const:
        w._accum(a.reshape(-1, a.shape[-1]).T @ g_rows)
    if bias is not None and not bias.const:
        bias._accum(_unbroadcast(g, bias.data.shape))
    return (g_rows @ w.data.T).reshape(a.shape) if need_input else None


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _lift(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), bw, madds=a.size)


def mean(a) -> Tensor:
    """The mean over every element, as a sum scaled by 1 / size."""
    a = _lift(a)
    return sum_(a) * (1.0 / a.size)


# -- shape manipulation --------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _lift(a)
    out_data = a.data.reshape(shape)

    def bw(g):
        a._accum(g.reshape(a.data.shape))

    return _make(out_data, (a,), bw, madds=0)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.const:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _make(out_data, tuple(tensors), bw, madds=0)


def slice_(a, key) -> Tensor:
    """Basic (possibly strided) slicing; gradient scatters back through the view."""
    a = _lift(a)
    out_data = a.data[key]

    def bw(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        a._accum(buf)

    return _make(out_data, (a,), bw, madds=0)


def expand(a, shape) -> Tensor:
    """Broadcast to ``shape``; gradient sums over the broadcast axes."""
    a = _lift(a)
    out_data = np.broadcast_to(a.data, shape).copy()

    def bw(g):
        a._accum(_unbroadcast(g, a.data.shape))

    return _make(out_data, (a,), bw, madds=0)


def _scatter_add(buf: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``buf[ids] += rows`` for 1-D ``ids``, summing the rows of a repeated id
    one after another in their order, as ``np.add.at`` does.

    Runs in rounds: round r adds the r-th occurrence of every id, so no index
    repeats within one vectorized add.  There are as many rounds as the most
    frequent id has occurrences, and the whole is several times faster than
    ``np.add.at``.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    rank = np.arange(ids.size) - np.repeat(starts, np.diff(np.r_[starts, ids.size]))
    by_rank = np.argsort(rank, kind="stable")
    order, rank = order[by_rank], rank[by_rank]
    bounds = np.flatnonzero(np.r_[True, rank[1:] != rank[:-1], True])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        round_rows = order[lo:hi]
        buf[ids[round_rows]] += rows[round_rows]


def gather_rows(table, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` (an embedding, or the upsampler's frame
    gather); a negative id gives a zero row.  The gradient scatter-adds each
    output row into its table row, skipping the zero rows."""
    table = _lift(table)
    ids = np.asarray(ids)
    keep = ids >= 0
    out_data = table.data[np.where(keep, ids, 0)]
    out_data[~keep] = 0.0

    def bw(g):
        buf = np.zeros_like(table.data)
        _scatter_add(buf, ids[keep], g[keep])
        table._accum(buf)

    return _make(out_data, (table,), bw)


def move_rows(x, ids: np.ndarray, padded=None) -> Tensor:
    """Copy rows between a padded layout and the packed rows ``ids`` pick.

    ``ids`` are distinct flat ids into the leading axes of the padded layout.
    Without ``padded`` this packs: ``x`` is [..., d] and the result is the
    [M, d] rows ``x.reshape(-1, d)[ids]``.  With ``padded`` (the padded
    layout's leading shape) it unpacks: ``x`` is [M, d] and the result is
    ``padded + (d,)``, zero except at ``ids``, which hold the rows of ``x``.
    The backward is the reverse indexed copy; the ids are distinct, so unlike
    ``gather_rows`` nothing is summed.
    """
    x = _lift(x)
    d = x.shape[-1]
    if padded is None:
        out_data = x.data.reshape(-1, d)[ids]

        def bw(g):
            buf = np.zeros_like(x.data)
            buf.reshape(-1, d)[ids] = g
            x._accum(buf)
    else:
        flat = np.zeros((int(np.prod(padded)), d), dtype=x.data.dtype)
        flat[ids] = x.data
        out_data = flat.reshape(tuple(padded) + (d,))

        def bw(g):
            x._accum(g.reshape(-1, d)[ids])

    return _make(out_data, (x,), bw, madds=0)


# -- fused neural ops --------------------------------------------------------------

def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Max-stabilized softmax of an array along ``axis``."""
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output ``p`` for output gradient ``g``."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(a, axis: int) -> Tensor:
    """Max-stabilized softmax; outputs form a probability simplex along ``axis``."""
    a = _lift(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    out_data = _softmax(a.data, axis)
    return _make(out_data, (a,), lambda g: a._accum(_softmax_grad(out_data, g, axis)))


def attention(q, k, v, heads: int, key_mask=None) -> Tensor:
    """Multi-head scaled dot-product attention of ``q`` [B, Tq, h*dk] over ``k``
    [B, Tk, h*dk] and ``v`` [B, Tk, h*dv], heads being contiguous channel
    groups; returns [B, Tq, h*dv].  A [B, Tk] ``key_mask`` (1 = valid) adds
    (mask - 1) * 1e9 to the scaled scores.  Seeded runs depend on the order:
    scale, mask, softmax, and in backward the softmax before the scale."""
    q, k, v = _lift(q), _lift(k), _lift(v)
    if (q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or heads < 1 or q.shape[0] != k.shape[0]
            or k.shape[:2] != v.shape[:2] or q.shape[2] != k.shape[2] or q.shape[2] % heads
            or v.shape[2] % heads or (key_mask is not None and np.shape(key_mask) != k.shape[:2])):
        raise ShapeError(f"attention ({heads} heads) needs q [B, Tq, h*dk], k [B, Tk, h*dk], "
                         f"v [B, Tk, h*dv], mask [B, Tk]; got {q.shape}, {k.shape}, {v.shape}")
    (b, tq, _), tk = q.shape, k.shape[1]
    dk, dv = q.shape[2] // heads, v.shape[2] // heads

    def split(z, t):  # [B, T, h*d] -> a [B, h, T, d] view
        return z.reshape(b, t, heads, -1).transpose(0, 2, 1, 3)

    def merge(z, t):  # [B, h, T, d] -> [B, T, h*d]
        return z.transpose(0, 2, 1, 3).reshape(b, t, -1)

    qh, kh, vh = split(q.data, tq), split(k.data, tk), split(v.data, tk)
    scale = dk ** -0.5
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    if key_mask is not None:
        scores = scores + ((np.asarray(key_mask, dtype=active_dtype()) - 1.0) * 1e9)[:, None, None]
    weights = _softmax(scores, -1)
    out_data = merge(weights @ vh, tq)

    def bw(g):
        g_ctx = split(g, tq)
        g_scores = _softmax_grad(weights, g_ctx @ vh.transpose(0, 1, 3, 2), -1) * scale
        if not v.const:
            v._accum(merge(weights.transpose(0, 1, 3, 2) @ g_ctx, tk))
        if not q.const:
            q._accum(merge(g_scores @ kh, tq))
        if not k.const:
            k._accum(merge(g_scores.transpose(0, 1, 3, 2) @ qh, tk))

    per_score = dk + dv + 2 + (key_mask is not None)  # the scale, the mask, the softmax
    return _make(out_data, (q, k, v), bw, madds=b * heads * tq * tk * per_score)


def _mean_last(z: np.ndarray) -> np.ndarray:
    """``z.mean(axis=-1, keepdims=True)`` by the arithmetic numpy's Python
    ``_mean`` runs, a sum and then a division by the count as an intp, cast
    back in place, so the bits match without that function's overhead."""
    total = np.add.reduce(z, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(z.shape[-1]), out=total, casting="unsafe")


def _norm(x: np.ndarray, eps: float):
    """Layer norm's normalized rows and inverse deviations, (x - mean) * inv."""
    normed = x - _mean_last(x)
    inv = (_mean_last(normed * normed) + eps) ** -0.5
    normed *= inv
    return normed, inv


def _affine(normed: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    out = normed * gain.data
    out += bias.data
    return out


def _norm_backward(g, normed, inv, x: Tensor, gain: Tensor, bias: Tensor) -> None:
    """Accumulate layer norm's gradients for the output gradient ``g``."""
    if not x.const:
        gn = g * gain.data
        x._accum(inv * (gn - _mean_last(gn) - normed * _mean_last(gn * normed)))
    if not gain.const:
        gain._accum(_unbroadcast(g * normed, gain.data.shape))
    if not bias.const:
        bias._accum(_unbroadcast(g, bias.data.shape))


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    if gain.shape[-1] != x.shape[-1]:
        raise ShapeError(f"layer_norm gain extent {gain.shape} does not match feature extent {x.shape[-1]}")
    normed, inv = _norm(x.data, eps)
    return _make(_affine(normed, gain, bias), (x, gain, bias),
                 lambda g: _norm_backward(g, normed, inv, x, gain, bias))


def ff_sublayer(x, gain, bias, w1, b1, w2, b2, rate: float = 0.0,
                rng: np.random.Generator | None = None, eps: float = 1e-6) -> Tensor:
    """The pre-norm feed-forward residual sublayer as one node:
    ``x + relu_dropout(LN(x) @ w1 + b1) @ w2 + b2``, ``x`` being [..., d].

    It runs the layer_norm, matmul, relu (with its dropout), matmul and add
    composite's expressions in that order, draws and counts as it does, and
    gives ``x`` the residual gradient before the norm path's.  It keeps what
    the module docstring lists and recomputes the norm output for ``w1``'s
    gradient.
    """
    x, gain, bias, w1, b1, w2, b2 = (_lift(t) for t in (x, gain, bias, w1, b1, w2, b2))
    d = x.shape[-1] if x.ndim else 0
    if (x.ndim < 2 or gain.shape != (d,) or bias.shape != (d,) or w1.ndim != 2
            or w1.shape[0] != d or b1.shape != w1.shape[1:] or w2.shape != w1.shape[::-1]
            or b2.shape != (d,)):
        raise ShapeError(f"ff_sublayer needs x [..., d], norm gain and bias [d], w1 [d, n], "
                         f"b1 [n], w2 [n, d] and b2 [d]; got {x.shape}, {gain.shape}, "
                         f"{bias.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}")
    normed, inv = _norm(x.data, eps)
    hidden = _dense(_affine(normed, gain, bias), w1, b1)
    positive = hidden > 0 if _state["grad"] else None  # under no_grad the node keeps nothing
    np.maximum(hidden, 0.0, out=hidden)  # the pre-activation is read only for its sign
    dropping = rng is not None and rate > 0.0
    if dropping:
        kept, scale = _draw_keep(hidden.shape, rate, rng)
        hidden *= kept * scale
        if positive is not None:
            positive &= kept
    out_data = _dense(hidden, w2, b2)
    np.add(x.data, out_data, out=out_data)
    # the norm and the add, the first matmul and the relu, the second matmul
    madds = 2 * x.size + hidden.size * (d + 2 + dropping) + out_data.size * (w1.shape[1] + 1)

    def bw(g):
        if not x.const:
            x._accum(g)
        norm_path = not (x.const and gain.const and bias.const)
        g_hidden = _dense_backward(g, hidden, w2, b2, norm_path or not (w1.const and b1.const))
        if g_hidden is None:
            return
        g_hidden *= positive * scale if dropping else positive
        g_normed = _dense_backward(g_hidden, _affine(normed, gain, bias), w1, b1, norm_path)
        if g_normed is not None:
            _norm_backward(g_normed, normed, inv, x, gain, bias)

    return _make(out_data, (x, gain, bias, w1, b1, w2, b2), bw, madds=madds)


def _pad_time(z: np.ndarray, left: int, right: int) -> np.ndarray:
    """[B, T, d] -> a [B, left + T + right, d] copy, zero at both ends."""
    b, t, d = z.shape
    zp = np.zeros((b, left + t + right, d), dtype=z.dtype)
    zp[:, left:left + t] = z
    return zp


def _time_windows(zp: np.ndarray, k: int) -> np.ndarray:
    """A zero-padded [B, T', d] buffer -> its read-only [B, T' - k + 1, d, k]
    view of every k-frame window."""
    b, tp, d = zp.shape
    s_b, s_t, s_d = zp.strides
    return np.lib.stride_tricks.as_strided(zp, (b, tp - k + 1, d, k), (s_b, s_t, s_d, s_t),
                                           writeable=False)


def _lconv_pad(z: np.ndarray, k: int, ids=None, padded=None) -> np.ndarray:
    """The zero-padded [B, T + k - 1, d] window buffer of a centered width-k
    convolution over [B, T, d] rows ``z``, or over the packed [M, d] rows
    ``z`` that ``ids`` pick from a ``padded`` = (B, T) grid, scattered
    straight into the buffer."""
    if ids is None:
        return _pad_time(z, k // 2, k // 2)
    (b, t), d = padded, z.shape[-1]
    zp = np.zeros((b, t + k - 1, d), dtype=z.dtype)
    zp.reshape(-1, d)[ids + ids // t * (k - 1) + k // 2] = z
    return zp


def _lconv_windows(zp: np.ndarray, heads: int, k: int) -> np.ndarray:
    """A window buffer -> its [B, T, h, d/h, k] view of every k-frame window."""
    b, tp, d = zp.shape
    return _time_windows(zp, k).reshape(b, tp - k + 1, heads, d // heads, k)


def _lconv(zp: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The centered depthwise convolution, [B, T, d], of a window buffer with
    per-head taps [h, k]: channel c uses the taps of head c // (d / h), so
    out[:, t] = sum_j taps[head, j] * z[:, t + j - k // 2]."""
    h, k = taps.shape
    b, tp, d = zp.shape
    return np.matmul(_lconv_windows(zp, h, k), taps[:, :, None]).reshape(b, tp - k + 1, d)


def lconv_sublayer(x, gain, bias, w, b, taps, ids=None, padded=None, rate: float = 0.0,
                   rng: np.random.Generator | None = None, eps: float = 1e-6) -> Tensor:
    """The pre-norm lightweight-convolution residual sublayer as one node:
    ``x + dropout(lconv(glu(LN(x) @ w + b)))``, with softmax-normalized taps
    [h, k] (h dividing d, k odd) and the GLU a * sigmoid(c) over the halves
    [a | c] of the projection.

    ``x`` is [B, T, d], or with ``ids`` and ``padded`` = (B, T), as
    ``move_rows`` takes them, the packed [M, d] rows, and the result is laid
    out as ``x``; the taps' gradient and the conv's madds cover the whole
    [B, T, d] grid.  It runs the layer_norm, matmul, glu, lightweight conv,
    dropout and add composite's expressions in that order, draws and counts
    as it does, and gives ``x`` the residual gradient before the norm path's.
    It keeps what the module docstring lists and recomputes the norm output
    and the GLU sigmoid.
    """
    x, gain, bias, w, b, taps = (_lift(t) for t in (x, gain, bias, w, b, taps))
    d = x.shape[-1] if x.ndim else 0
    if (x.ndim != (3 if ids is None else 2) or gain.shape != (d,) or bias.shape != (d,)
            or w.shape != (d, 2 * d) or b.shape != (2 * d,) or taps.ndim != 2
            or taps.shape[0] < 1 or d % taps.shape[0] or taps.shape[1] % 2 != 1
            or (ids is not None and len(ids) != x.shape[0])):
        raise ShapeError(f"lconv_sublayer needs x [B, T, d] or [M, d] packed rows, norm gain and "
                         f"bias [d], w [d, 2d], b [2d] and taps [h, k], h dividing d and k odd; "
                         f"got {x.shape}, {gain.shape}, {bias.shape}, {w.shape}, {b.shape}, "
                         f"{taps.shape} and {None if ids is None else len(ids)} row ids")
    h, k = taps.shape
    grid = x.shape[:2] if ids is None else tuple(padded)
    normed, inv = _norm(x.data, eps)
    proj = _dense(_affine(normed, gain, bias), w, b)
    zp = _lconv_pad(proj[..., :d] * _sigmoid(proj[..., d:]), k, ids, grid)  # the GLU
    conv = _lconv(zp, taps.data)
    if ids is not None:
        conv = conv.reshape(-1, d)[ids]
    dropping = rng is not None and rate > 0.0
    if dropping:
        kept, scale = _draw_keep(conv.shape, rate, rng)
        conv *= kept * scale
    out_data = np.add(x.data, conv, out=conv)
    # the norm, the glu's sigmoid and product, the add and the dropout; the matmul;
    # the conv over the grid
    madds = x.size * (4 + dropping) + proj.size * (d + 1) + grid[0] * grid[1] * d * k

    def bw(g):
        if not x.const:
            x._accum(g)
        g_conv = g * (kept * scale) if dropping else g
        if ids is not None:  # the gradient rows on the [B, T, d] grid, zero at padding
            full = np.zeros((grid[0] * grid[1], d), dtype=g_conv.dtype)
            full[ids] = g_conv
            g_conv = full
        g_conv = g_conv.reshape(grid + (d,))
        if not taps.const:
            g_taps = np.matmul(g_conv.reshape(grid + (h, 1, d // h)), _lconv_windows(zp, h, k))
            taps._accum(g_taps.sum(axis=(0, 1)).reshape(h, k))
        norm_path = not (x.const and gain.const and bias.const)
        if not norm_path and w.const and b.const:
            return
        # glu[:, s] reaches out[:, s - j + k // 2] through tap j: correlate the
        # padded gradient with the tap-reversed kernel
        flipped = np.ascontiguousarray(taps.data[:, ::-1, None])
        g_glu = np.matmul(_lconv_windows(_pad_time(g_conv, k // 2, k // 2), h, k), flipped)
        g_glu = g_glu.reshape(grid + (d,)) if ids is None else g_glu.reshape(-1, d)[ids]
        a = proj[..., :d]
        s = _sigmoid(proj[..., d:])
        g_proj = np.empty_like(proj)
        g_proj[..., :d] = g_glu * s
        g_proj[..., d:] = g_glu * a * s * (1.0 - s)
        g_normed = _dense_backward(g_proj, _affine(normed, gain, bias), w, b, norm_path)
        if g_normed is not None:
            _norm_backward(g_normed, normed, inv, x, gain, bias)

    return _make(out_data, (x, gain, bias, w, b, taps), bw, madds=madds)


def conv1d(x, weight, bias, stride: int = 1) -> Tensor:
    """Time-axis convolution of [B, T, d_in] with [k, d_in, d_out], SAME zero padding.

    Output length is ceil(T / stride).  Left padding is fixed at k // 2 so the
    window alignment at valid positions never depends on how much trailing
    padding a batch carries.  Computed as im2col: one strided window over the
    padded input, then one matmul against the weight viewed as [k*d_in, d_out].
    """
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if (x.ndim != 3 or weight.ndim != 3 or weight.shape[1] != x.shape[-1]
            or weight.shape[0] % 2 != 1 or bias.shape != weight.shape[2:] or stride < 1):
        raise ShapeError(f"conv1d needs x [B, T, d_in], an odd-width weight [k, d_in, d_out], "
                         f"bias [d_out] and stride >= 1; got {x.shape}, {weight.shape}, "
                         f"{bias.shape} and stride {stride}")
    b, t, d_in = x.shape
    k, _, d_out = weight.shape
    t_out = -(-t // stride)
    left = k // 2
    right = max((t_out - 1) * stride + k - left - t, 0)
    cols = _time_windows(_pad_time(x.data, left, right), k)[:, ::stride][:, :t_out]
    cols = cols.transpose(0, 1, 3, 2).reshape(b * t_out, k * d_in)  # tap-major columns
    w2 = weight.data.reshape(k * d_in, d_out)
    out_data = (cols @ w2 + bias.data).reshape(b, t_out, d_out)

    def bw(g):
        g2 = g.reshape(b * t_out, d_out)
        if not weight.const:
            weight._accum((cols.T @ g2).reshape(k, d_in, d_out))
        if not bias.const:
            bias._accum(_unbroadcast(g, bias.data.shape))
        if x.const:
            return
        g_cols = (g2 @ w2.T).reshape(b, t_out, k, d_in)
        g_padded = np.zeros((b, left + t + right, d_in), dtype=g_cols.dtype)
        span = (t_out - 1) * stride + 1
        for j in range(k):  # col2im: each tap's column block lands on its input frames
            g_padded[:, j:j + span:stride] += g_cols[:, :, j]
        x._accum(g_padded[:, left:left + t])

    return _make(out_data, (x, weight, bias), bw, madds=cols.size * d_out)


def lstm_cell(z: np.ndarray, c: np.ndarray):
    """One LSTM step in numpy from the preactivations z [B, 4H] (gate blocks
    input, forget, candidate, output) and the cell state c [B, H].

    Returns (gates [B, 4H] after their nonlinearities, new c, new h).
    """
    n = c.shape[-1]
    gates = _sigmoid(z)
    gates[:, 2 * n:3 * n] = np.tanh(z[:, 2 * n:3 * n])
    i, f, g, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n], gates[:, 3 * n:]
    c = f * c + i * g
    return gates, c, o * np.tanh(c)


def lstm(x, w_x, w_h, b) -> Tensor:
    """Single-layer LSTM over [B, N, d_in] from zero state; returns every step's
    hidden state [B, N, H].

    ``w_x`` [d_in, 4H], ``w_h`` [H, 4H] and ``b`` [4H] hold the gate blocks in
    ``lstm_cell`` order.  The forward projects all steps' inputs with one GEMM
    and runs the recurrence in numpy; the backward is backpropagation through
    time for the per-step preactivation gradients, then one GEMM each for the
    x, w_x and w_h gradients over all steps.
    """
    x, w_x, w_h, b = _lift(x), _lift(w_x), _lift(w_h), _lift(b)
    bsz, steps, d_in = x.shape
    hidden = w_h.shape[0]
    if w_x.shape != (d_in, 4 * hidden) or w_h.shape != (hidden, 4 * hidden) or b.shape != (4 * hidden,):
        raise ShapeError(f"lstm weights {w_x.shape}, {w_h.shape}, {b.shape} do not fit input "
                         f"{x.shape}: expected ({d_in}, 4H), (H, 4H), (4H,)")
    x_rows = x.data.transpose(1, 0, 2).reshape(steps * bsz, d_in)  # time-major rows
    xz = (x_rows @ w_x.data + b.data).reshape(steps, bsz, 4 * hidden)
    gates = np.empty_like(xz)
    cs = np.zeros((steps + 1, bsz, hidden), dtype=xz.dtype)  # cs[t + 1], hs[t + 1]: after step t
    hs = np.zeros_like(cs)
    for t in range(steps):
        gates[t], cs[t + 1], hs[t + 1] = lstm_cell(xz[t] + hs[t] @ w_h.data, cs[t])
    out_data = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def bw(g):
        n = hidden
        dz = np.empty_like(gates)  # preactivation gradients, time-major like gates
        dh_next = np.zeros((bsz, n), dtype=gates.dtype)
        dc_next = np.zeros_like(dh_next)
        for t in reversed(range(steps)):
            i, f, gg, o = (gates[t, :, k * n:(k + 1) * n] for k in range(4))
            tanh_c = np.tanh(cs[t + 1])
            dh = g[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            dz[t, :, :n] = dc * gg * i * (1.0 - i)
            dz[t, :, n:2 * n] = dc * cs[t] * f * (1.0 - f)
            dz[t, :, 2 * n:3 * n] = dc * i * (1.0 - gg * gg)
            dz[t, :, 3 * n:] = dh * tanh_c * o * (1.0 - o)
            dc_next = dc * f
            dh_next = dz[t] @ w_h.data.T
        dz_rows = dz.reshape(steps * bsz, 4 * n)
        if not x.const:
            x._accum((dz_rows @ w_x.data.T).reshape(steps, bsz, d_in).transpose(1, 0, 2))
        if not w_x.const:
            w_x._accum(x_rows.T @ dz_rows)
        if not w_h.const:
            w_h._accum(hs[:-1].reshape(steps * bsz, n).T @ dz_rows)
        if not b.const:
            b._accum(dz_rows.sum(axis=0))

    return _make(out_data, (x, w_x, w_h, b), bw, madds=bsz * steps * 4 * hidden * (d_in + hidden))


def _draw_keep(shape, rate: float, rng: np.random.Generator):
    """Dropout's draw: the boolean keep mask and the inverted scale, both in the
    active dtype's arithmetic; ``kept * scale`` is the scaled float mask."""
    dtype = active_dtype()
    return rng.random(shape, dtype=dtype) >= rate, dtype(1.0 / (1.0 - rate))


def dropout(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted-scaling dropout; the identity without a generator or at rate 0.

    A generator is what switches dropout on: training passes one, evaluation
    and inference pass None.  The node keeps the boolean mask, one byte per
    element, and rebuilds the scaled mask where a product needs it: forward
    ``x * (kept * scale)``, backward ``g * (kept * scale)``.
    """
    x = _lift(x)
    if rng is None or rate <= 0.0:
        return x
    kept, scale = _draw_keep(x.shape, rate, rng)

    def bw(g):
        x._accum(g * (kept * scale))

    return _make(x.data * (kept * scale), (x,), bw)


def bce_with_logits(logits, targets) -> Tensor:
    """Per-element binary cross-entropy from logits, one node:
    t * softplus(-x) + (1 - t) * softplus(x), each softplus in its stable form.

    The logit gradient is g * (-t * sigmoid(-x) + (1 - t) * sigmoid(x)).  Each
    term is evaluated in the order the same expression built from primitive
    ops evaluates it, so values and gradients match that composite bit for bit.
    """
    logits, targets = _lift(logits), _lift(targets)
    x, t = logits.data, targets.data
    neg_x, one_minus_t = -x, 1.0 - t
    sp_neg, sp_pos = _softplus(neg_x), _softplus(x)
    try:
        out_data = t * sp_neg + one_minus_t * sp_pos
    except ValueError:
        raise _not_broadcastable("bce_with_logits", logits, targets) from None

    def bw(g):
        if not logits.const:
            g_x = -((g * t) * _sigmoid(neg_x)) + (g * one_minus_t) * _sigmoid(x)
            logits._accum(_unbroadcast(g_x, x.shape))
        if not targets.const:
            targets._accum(_unbroadcast(g * sp_neg - g * sp_pos, t.shape))

    return _make(out_data, (logits, targets), bw)


# -- backward sweep ---------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss, accumulating into the leaves' ``.grad``.

    Each non-leaf node's gradient and closure are dropped as soon as the
    closure has run, so intermediates are freed during the sweep.  Leaf
    gradients (Parameters and input tensors) stay and accumulate across calls
    over separate graphs.  A graph can be swept only once: a sweep that
    reaches an already-swept node raises GraphError instead of silently
    stopping there; run the forward pass again to get a fresh graph.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if any(node._parents and node._backward is None for node in order):
        raise GraphError("backward reached a node whose graph was already swept; "
                         "rebuild the graph with a new forward pass")
    loss._accum(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None


def _topo_order(root: Tensor):
    """Iterative post-order over parents; each node appears exactly once."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order
