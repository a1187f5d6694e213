"""Engine-level tests: forward values, backward correctness, broadcasting."""

import math
import re

import numpy as np
import pytest

import paravox.tensor as pt
from paravox.errors import GraphError, ShapeError
from paravox.tensor import Parameter, Tensor, backward


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def numeric_grad(f, x, step=1e-6):
    """Central differences of scalar f at array x, element by element."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        up = f()
        flat[i] = saved - step
        down = f()
        flat[i] = saved
        g.reshape(-1)[i] = (up - down) / (2 * step)
    return g


def test_softplus_at_zero():
    out = pt.softplus(Tensor([0.0]))
    assert out.data[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_relu_values():
    out = pt.relu(Tensor([-3.5, 2.0]))
    assert out.data.tolist() == [0.0, 2.0]


def test_sigmoid_value_and_gradient_at_zero():
    x = Tensor(0.0)
    y = pt.sigmoid(x)
    assert y.data == pytest.approx(0.5)
    backward(y)
    assert x.grad == pytest.approx(0.25)


def reference_sigmoid(z):
    """The sign select that the branch-free ``_sigmoid`` reproduces bit for bit."""
    s = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return np.where(z >= 0, s, 1.0 - s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_sign_select_bit_for_bit(dtype):
    info = np.finfo(dtype)
    edges = np.array([0.0, np.inf, info.smallest_subnormal, info.smallest_normal / 3,
                      info.smallest_normal, 88.7, 104.0, 745.0], dtype=dtype)
    rng = np.random.default_rng(97)
    if dtype == np.float32:
        sample = rng.integers(0, 2 ** 32, size=1_000_000, dtype=np.uint32).view(np.float32)
    else:
        sample = rng.normal(scale=20.0, size=1_000_000)
    z = np.concatenate([edges, -edges, sample[~np.isnan(sample)]])
    uint = np.uint32 if dtype == np.float32 else np.uint64
    assert np.array_equal(pt._sigmoid(z).view(uint), reference_sigmoid(z).view(uint))


def test_add_broadcast_and_reduction():
    a = Parameter(np.ones((2, 3)))
    b = Parameter(np.ones((3,)))
    out = (a + b).sum()
    backward(out)
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full((3,), 2.0))


def test_incompatible_shapes_report_both():
    with pytest.raises(ShapeError) as exc:
        pt.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


@pytest.mark.parametrize("op", [pt.sub, pt.mul, pt.div, pt.bce_with_logits])
def test_binary_ops_reject_incompatible_shapes(op):
    with pytest.raises(ShapeError) as exc:
        op(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_matmul_rejects_a_right_operand_that_is_not_a_weight():
    with pytest.raises(ShapeError) as exc:
        pt.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))
    assert "(2, 3, 4)" in str(exc.value) and "(2, 4, 5)" in str(exc.value)


def test_matmul_identity():
    v = np.array([1.5, -2.0, 0.25])
    out = pt.matmul(Tensor(np.eye(3)), Tensor(v.reshape(3, 1)))
    assert np.allclose(out.data.reshape(-1), v)


def test_matmul_hand_contraction():
    out = pt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Parameter(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=(5, 3)))
    out = pt.matmul(a, b).sum()
    backward(out)
    expected = np.ones((4, 3)) @ b.data.T
    assert np.allclose(a.grad, expected, atol=1e-12)
    numeric = numeric_grad(lambda: float((a.data @ b.data).sum()), a.data, step=1e-5)
    assert np.max(np.abs(a.grad - numeric)) < 1e-8


def test_matmul_inner_mismatch_rejected():
    with pytest.raises(ShapeError):
        pt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError, match=re.escape("(3,)")):
        pt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("a_shape", [(4, 5), (2, 3, 5)])
def test_matmul_bias_is_matmul_plus_add_bit_for_bit(a_shape, with_bias):
    """One node, with the values, gradients and madds of a matmul node and an add node."""
    rng = np.random.default_rng(6)
    a_data, w_data, b_data = rng.normal(size=a_shape), rng.normal(size=(5, 3)), rng.normal(size=3)
    weights = rng.normal(size=a_shape[:-1] + (3,))

    def run(fused):
        a, w, b = Parameter(a_data), Parameter(w_data), Parameter(b_data)
        pt.reset_madds()
        if fused:
            out = pt.matmul(a, w, b if with_bias else None)
        else:
            out = pt.matmul(a, w) + b if with_bias else pt.matmul(a, w)
        madds = pt.madds()
        backward((out * weights).sum())
        return out, madds, [p.grad for p in (a, w, b)]

    fused, fused_madds, fused_grads = run(True)
    composite, composite_madds, composite_grads = run(False)
    assert len(fused._parents) == (3 if with_bias else 2)
    assert np.array_equal(fused.data, composite.data)
    assert fused_madds == composite_madds == fused.size * (5 + with_bias)
    for got, want in zip(fused_grads, composite_grads):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert (fused_grads[2] is None) == (not with_bias)


def test_softmax_uniform_and_overflow():
    out = pt.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)
    big = pt.softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.all(np.isfinite(big.data))
    assert np.allclose(big.data, [0.5, 0.5])


def test_softmax_simplex_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = Tensor(rng.normal(size=(2, 5, 4)) * 3)
        s = pt.softmax(x, axis=-1)
        assert np.all(s.data > 0) and np.all(s.data < 1)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_jacobian_matches_finite_differences():
    x0 = np.array([0.1, 0.2, 0.3])
    step = 1e-5
    for k in range(3):
        x = Parameter(x0.copy())
        out = pt.softmax(x, axis=0)
        backward(out[k].sum())
        numeric = numeric_grad(
            lambda: float(np.exp(x.data - x.data.max())[k] / np.exp(x.data - x.data.max()).sum()),
            x.data, step=step)
        assert np.max(np.abs(x.grad - numeric)) < 1e-9


def test_layer_norm_constant_input_is_zero():
    x = Tensor(np.full((4,), 7.0))
    out = pt.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_two_point():
    out = pt.layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_gradient():
    rng = np.random.default_rng(1)
    x = Parameter(rng.normal(size=(2, 4, 8)))
    gain = Parameter(rng.normal(size=(8,)) * 0.5 + 1.0)
    bias = Parameter(rng.normal(size=(8,)) * 0.1)
    weights = Tensor(rng.normal(size=(2, 4, 8)))

    def value():
        return float((pt.layer_norm(Tensor(x.data), Tensor(gain.data), Tensor(bias.data)).data * weights.data).sum())

    out = (pt.layer_norm(x, gain, bias) * weights).sum()
    backward(out)
    for p in (x, gain, bias):
        numeric = numeric_grad(value, p.data, step=1e-6)
        rel = np.abs(p.grad - numeric) / np.maximum(np.maximum(np.abs(p.grad), np.abs(numeric)), 1e-8)
        assert rel.max() < 1e-4


def test_backward_requires_scalar():
    with pytest.raises(GraphError):
        backward(Tensor(np.ones(3)))


def test_backward_sum_gives_ones():
    p = Parameter(np.arange(6.0).reshape(2, 3))
    backward(p.sum())
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_quadratic():
    p = Parameter(np.array([1.0, -2.0, 3.0]))
    backward((p * p).sum())
    assert np.allclose(p.grad, 2 * p.data)


def test_backward_accumulates_on_repeated_calls():
    p = Parameter(np.array([2.0]))
    loss1 = (p * p).sum()
    backward(loss1)
    loss2 = (p * p).sum()
    backward(loss2)
    assert p.grad[0] == pytest.approx(8.0)


def test_fanout_accumulation_hand_case():
    # y = x*x + 3x uses x twice: dy/dx = 2x + 3
    x = Parameter(np.array([4.0]))
    y = x * x + 3.0 * x
    backward(y.sum())
    assert x.grad[0] == pytest.approx(11.0)


def test_deep_fanout_graph():
    x = Parameter(np.array([1.5]))
    h = x
    for _ in range(50):
        h = h + x  # h_n = (n+1) x
    backward(h.sum())
    assert x.grad[0] == pytest.approx(51.0)


@pytest.mark.parametrize("seed", range(10))
def test_registered_ops_match_finite_differences(seed):
    """Property: every differentiable op's analytic grad tracks central differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(2, 3)) + 0.1 * np.sign(rng.normal(size=(2, 3)))  # keep away from kinks
    y0 = rng.normal(size=(2, 3)) * 0.5 + 1.7  # positive-ish for div
    weights = rng.normal(size=(2, 3))

    cases = {
        "add": (lambda x, y: pt.add(x, y), True),
        "sub": (lambda x, y: pt.sub(x, y), True),
        "mul": (lambda x, y: pt.mul(x, y), True),
        "div": (lambda x, y: pt.div(x, y), True),
        "relu": (lambda x, y: pt.relu(x), False),
        "sigmoid": (lambda x, y: pt.sigmoid(x), False),
        "softplus": (lambda x, y: pt.softplus(x), False),
        "tanh": (lambda x, y: pt.tanh(x), False),
        "exp": (lambda x, y: pt.exp(x), False),
        "abs": (lambda x, y: pt.abs_(x), False),
        "softmax": (lambda x, y: pt.softmax(x, axis=-1), False),
    }
    for name, (op, binary) in cases.items():
        x = Parameter(x0.copy())
        y = Parameter(y0.copy())
        out = (op(x, y) * Tensor(weights)).sum()
        backward(out)

        def value():
            return float((op(Tensor(x.data), Tensor(y.data)).data * weights).sum())

        for p in (x, y) if binary else (x,):
            numeric = numeric_grad(value, p.data)
            rel = np.abs(p.grad - numeric) / np.maximum(np.maximum(np.abs(p.grad), np.abs(numeric)), 1e-8)
            assert rel.max() < 1e-4, f"{name}: max rel err {rel.max():.2e}"


def test_shape_ops_gradients():
    rng = np.random.default_rng(7)
    x2 = Parameter(rng.normal(size=(6,)))
    out2 = pt.reshape(x2, (2, 3))[0, 1:].sum()
    backward(out2)
    assert np.array_equal(x2.grad, np.array([0, 1, 1, 0, 0, 0.0]))

    a = Parameter(rng.normal(size=(2, 2)))
    b = Parameter(rng.normal(size=(2, 3)))
    out3 = pt.concat([a, b], axis=1).sum()
    backward(out3)
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((2, 3)))


def test_strided_slice_gradient():
    x = Parameter(np.arange(10.0))
    out = x[1::3].sum()
    backward(out)
    expected = np.zeros(10)
    expected[1::3] = 1.0
    assert np.array_equal(x.grad, expected)


def test_gather_rows_scatter_adds():
    table = Parameter(np.arange(12.0).reshape(4, 3))
    out = pt.gather_rows(table, np.array([0, 2, 2])).sum()
    backward(out)
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 2.0
    assert np.array_equal(table.grad, expected)


def test_expand_gradient_sums():
    x = Parameter(np.array([[1.0], [2.0]]))
    out = pt.expand(x, (2, 5)).sum()
    backward(out)
    assert np.array_equal(x.grad, np.full((2, 1), 5.0))


def test_stop_gradient_blocks():
    x = Parameter(np.array([3.0]))
    out = (pt.constant(x) * x).sum()
    backward(out)
    assert x.grad[0] == pytest.approx(3.0)  # only the live branch contributes


def test_bce_with_logits_values():
    # p = 0.5 at logit 0 -> ce = ln 2 for either label
    out = pt.bce_with_logits(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))
    assert np.allclose(out.data, math.log(2.0))


def test_dropout_inference_noop_and_training_scaling():
    x = Tensor(np.ones((1000,)))
    assert pt.dropout(x, 0.3, None) is x  # no generator: off
    assert pt.dropout(x, 0.0, np.random.default_rng(5)) is x
    rng = np.random.default_rng(5)
    y = pt.dropout(x, 0.25, rng)
    kept = y.data[y.data != 0]
    assert np.allclose(kept, 1 / 0.75)
    assert abs((y.data == 0).mean() - 0.25) < 0.05
    # same seed -> same mask
    y2 = pt.dropout(x, 0.25, np.random.default_rng(5))
    assert np.array_equal(y.data, y2.data)


def test_no_grad_builds_no_graph():
    p = Parameter(np.ones(3))
    with pt.no_grad():
        out = (p * 2.0).sum()
    assert out._parents == () and out._backward is None


def test_precision_switch():
    with pt.precision("standard"):
        assert Tensor([1.0]).data.dtype == np.float32
    with pt.precision("high"):
        assert Tensor([1.0]).data.dtype == np.float64


def test_madd_counter_matmul():
    pt.reset_madds()
    with pt.no_grad():
        pt.matmul(Tensor(np.ones((3, 4, 5))), Tensor(np.ones((5, 6))))
    assert pt.madds() == 3 * 4 * 5 * 6


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    p = Parameter(np.array([1.0, -2.0, 3.0]))
    x = Tensor(np.array([0.5, 0.25, 2.0]))
    h = p * x
    loss = (h * h).sum()
    backward(loss)
    assert np.allclose(p.grad, 2 * p.data * x.data ** 2)
    assert np.allclose(x.grad, 2 * x.data * p.data ** 2)
    for node in (h, loss):
        assert node.grad is None and node._backward is None
        assert node._parents  # the graph structure itself is kept


def test_leaf_grad_is_a_private_copy():
    p = Parameter(np.array([1.0, 2.0]))
    h = p * 1.0
    backward(h.sum())
    g = p.grad
    backward((p * 3.0).sum())
    assert p.grad is g and np.array_equal(g, [4.0, 4.0])
    q = Parameter(np.array([5.0]))
    upstream = np.array([7.0])
    q._accum(upstream)
    q._accum(upstream)
    assert upstream[0] == 7.0 and q.grad[0] == 14.0


def test_non_leaf_gradient_is_an_alias_and_fan_out_keeps_its_layout():
    p = Parameter(np.ones((2, 3)))
    y = p * 2.0
    first = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    y._accum(first)
    assert y.grad is first  # no copy for a node with parents
    y._accum(np.ones((2, 3)))
    assert y.grad is not first and np.array_equal(first, np.arange(6.0).reshape(2, 3))
    assert y.grad.flags.f_contiguous and np.array_equal(y.grad, np.arange(6.0).reshape(2, 3) + 1)
    z = p * 3.0
    strided = np.ones((2, 6))[:, ::2]
    z._accum(strided)
    assert z.grad is not strided and z.grad.flags.c_contiguous


def test_fan_out_into_a_non_leaf_mutates_no_upstream_array(monkeypatch):
    rng = np.random.default_rng(3)
    x = Parameter(rng.normal(size=(3, 4)))
    c, w = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    seen = []
    accum = Tensor._accum

    def recording_accum(node, g):
        seen.append((g, np.array(g, copy=True)))
        accum(node, g)

    monkeypatch.setattr(Tensor, "_accum", recording_accum)
    y = x * c
    backward(((pt.add(y, y) + pt.mul(y, y)) * w).sum())
    assert np.allclose(x.grad, (2.0 + 2.0 * y.data) * w * c, rtol=1e-13, atol=0)
    assert len(seen) > 5 and all(np.array_equal(g, snapshot) for g, snapshot in seen)


def test_raw_arrays_are_constants_and_caller_tensors_are_leaves():
    x = Tensor(np.array([1.0, 2.0]))  # a caller-built leaf: differentiable
    mask = np.array([1.0, 0.0])
    out = x * mask
    const = out._parents[1]
    assert not x.const and const.const
    backward((out * 3.0).sum())
    assert np.array_equal(x.grad, [3.0, 0.0]) and const.grad is None
    pt.reset_madds()
    folded = pt.mul(np.ones(3), pt.exp(np.zeros(3)))
    assert folded.const and folded._parents == () and folded._backward is None
    assert pt.madds() == 6  # the ops are counted although they build no graph
    assert pt.constant(x).const


def _uniform(rng, *shape):
    return rng.uniform(0.5, 1.5, size=shape)


MULTI_PARENT_OPS = {
    "add": (pt.add, [(2, 3), (3,)]),
    "attention": (lambda q, k, v: pt.attention(q, k, v, 2, np.array([[1, 1, 0], [1, 1, 1]])),
                  [(2, 4, 4), (2, 3, 4), (2, 3, 6)]),
    "sub": (pt.sub, [(2, 3), (2, 3)]),
    "mul": (pt.mul, [(2, 3), (2, 1)]),
    "div": (pt.div, [(2, 3), (2, 3)]),
    "matmul": (pt.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_bias": (pt.matmul, [(2, 3, 4), (4, 5), (5,)]),
    "concat": (lambda a, b: pt.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "conv1d": (lambda x, w, b: pt.conv1d(x, w, b, stride=2), [(2, 5, 3), (3, 3, 4), (4,)]),
    "layer_norm": (pt.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "ff_sublayer": (lambda *a: pt.ff_sublayer(*a, 0.2, np.random.default_rng(3)),
                    [(2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,)]),
    "lconv_sublayer": (lambda *a: pt.lconv_sublayer(*a, np.array([0, 1, 3, 4]), (2, 3), 0.2,
                                                    np.random.default_rng(3)),
                       [(4, 4), (4,), (4,), (4, 8), (8,), (2, 3)]),
    "lstm": (pt.lstm, [(2, 3, 2), (2, 8), (2, 8), (8,)]),
    "bce_with_logits": (pt.bce_with_logits, [(2, 3), (2, 3)]),
}


@pytest.mark.parametrize("name", sorted(MULTI_PARENT_OPS))
def test_constant_parents_get_no_gradient(name):
    """With one input passed as a raw array, that input gets no gradient and
    every other input gets exactly the gradient it gets when all are leaves."""
    op, shapes = MULTI_PARENT_OPS[name]
    rng = np.random.default_rng(5)
    arrays = [_uniform(rng, *shape) for shape in shapes]
    full = [Parameter(a) for a in arrays]
    out = op(*full)
    weights = rng.normal(size=out.shape)
    backward((out * weights).sum())
    for i in range(len(arrays)):
        inputs = [a if j == i else Parameter(a) for j, a in enumerate(arrays)]
        out = op(*inputs)
        backward((out * weights).sum())
        assert out._parents[i].const and out._parents[i].grad is None
        for j, p in enumerate(inputs):
            if j != i:
                assert np.array_equal(p.grad, full[j].grad), (name, i, j)
    assert op(*arrays).const


def reference_bce(logits, targets):
    """The composite bce_with_logits was built from before it was one node."""
    return pt.add(pt.mul(targets, pt.softplus(pt.mul(logits, -1.0))),
                  pt.mul(pt.sub(1.0, targets), pt.softplus(logits)))


@pytest.mark.parametrize("mode", ["standard", "high"])
def test_bce_with_logits_matches_its_composite_bit_for_bit(mode):
    with pt.precision(mode):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 5)) * 4.0
        targets = np.where(rng.random((3, 5)) > 0.3, rng.random((3, 5)), 1.0)
        weights = rng.normal(size=(3, 5))
        results = []
        for op in (pt.bce_with_logits, reference_bce):
            x, t = Parameter(logits), Parameter(targets)
            out = op(x, t)
            backward((out * weights).sum())
            results.append((out.data, x.grad, t.grad))
        (out, gx, gt), (ref_out, ref_gx, ref_gt) = results
        assert np.array_equal(out, ref_out) and np.array_equal(gx, ref_gx)
        assert np.allclose(gt, ref_gt, rtol=1e-6, atol=0)


def test_gather_rows_negative_id_gives_a_zero_row_and_no_gradient():
    table = Parameter(np.arange(1.0, 13.0).reshape(4, 3))
    out = pt.gather_rows(table, np.array([[1, -1], [3, 1]]))
    assert np.array_equal(out.data[0, 1], np.zeros(3))
    assert np.array_equal(out.data[1], table.data[[3, 1]])
    backward(out.sum())
    # row 3 is read once: the -1 does not wrap around to the last row
    assert np.array_equal(table.grad[:, 0], [0.0, 2.0, 0.0, 1.0])


def test_gather_rows_gradient_sums_repeated_ids_in_order_like_add_at():
    rng = np.random.default_rng(21)
    with pt.precision("standard"):  # float32, where summation order shows
        table = Parameter(np.zeros((7, 5)))
        ids = rng.integers(-1, 7, size=(6, 40))
        ids[0, :30] = 2  # one id repeated many times
        out = pt.gather_rows(table, ids)
        weights = rng.normal(size=out.shape).astype(np.float32)
        backward((out * weights).sum())
        expected = np.zeros((7, 5), dtype=np.float32)
        np.add.at(expected, ids[ids >= 0], weights[ids >= 0])
    assert np.array_equal(table.grad, expected)


def test_second_sweep_over_a_swept_graph_raises():
    p = Parameter(np.array([2.0]))
    h = p * p
    loss = h.sum()
    backward(loss)
    with pytest.raises(GraphError):
        backward(loss)
    with pytest.raises(GraphError):  # a new loss on top of the swept part
        backward((h * 3.0).sum())
    assert p.grad[0] == pytest.approx(4.0)  # neither failed sweep touched the leaf


# -- fused ops against plain numpy tap loops ------------------------------------------

def reference_lightweight_conv(x, taps):
    b, t, d = x.shape
    h, k = taps.shape
    xp = np.pad(x, ((0, 0), (k // 2, k // 2), (0, 0)))
    per_channel = np.repeat(taps, d // h, axis=0)  # [d, k]
    out = np.zeros_like(x)
    for j in range(k):
        out += xp[:, j:j + t] * per_channel[:, j]
    return out


def reference_conv1d(x, weight, bias, stride):
    b, t, _ = x.shape
    k = weight.shape[0]
    t_out = -(-t // stride)
    xp = np.pad(x, ((0, 0), (k // 2, k), (0, 0)))
    out = np.tile(bias, (b, t_out, 1))
    for s in range(t_out):
        for j in range(k):
            out[:, s] += xp[:, s * stride + j] @ weight[j]
    return out


def reference_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def reference_attention(q, k, v, heads, key_mask=None):
    b, tq, _ = q.shape
    dk, dv = q.shape[2] // heads, v.shape[2] // heads
    out = np.zeros((b, tq, heads * dv))
    for i in range(b):
        for h in range(heads):
            qh, kh = q[i, :, h * dk:(h + 1) * dk], k[i, :, h * dk:(h + 1) * dk]
            scores = qh @ kh.T / math.sqrt(dk)
            if key_mask is not None:
                scores = np.where(key_mask[i] > 0, scores, -np.inf)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = e / e.sum(axis=1, keepdims=True)
            out[i, :, h * dv:(h + 1) * dv] = weights @ v[i, :, h * dv:(h + 1) * dv]
    return out


def check_fused(op, reference, inputs, seed):
    """Forward equals the numpy reference; every input's gradient matches
    central differences of the reference."""
    params = [Parameter(a.copy()) for a in inputs]
    out = op(*params)
    expected = reference(*inputs)
    assert out.shape == expected.shape
    assert np.allclose(out.data, expected, atol=1e-12)
    weights = np.random.default_rng(seed).normal(size=expected.shape)
    backward((out * Tensor(weights)).sum())
    for p in params:
        numeric = numeric_grad(lambda: float((reference(*[q.data for q in params]) * weights).sum()),
                               p.data)
        assert np.allclose(p.grad, numeric, atol=1e-7)


@pytest.mark.parametrize("k,stride,t", [(3, 1, 5), (5, 1, 4), (3, 2, 7), (3, 2, 6), (1, 3, 5)])
def test_conv1d_matches_tap_loop(k, stride, t):
    rng = np.random.default_rng(10 * k + stride)
    x = rng.normal(size=(2, t, 3))
    weight = rng.normal(size=(k, 3, 4))
    bias = rng.normal(size=4)
    check_fused(lambda a, w, c: pt.conv1d(a, w, c, stride=stride),
                lambda a, w, c: reference_conv1d(a, w, c, stride), [x, weight, bias], seed=2)


@pytest.mark.parametrize("x_shape, w_shape, stride", [
    ((2, 5, 3), (3, 4, 4), 1),  # the weight's d_in differs from the input's
    ((2, 5, 3), (3, 3, 4), 0),
    ((5, 3), (3, 3, 4), 1),
    ((2, 5, 3), (2, 3, 4), 1),  # an even kernel has no centre tap
], ids=["d_in", "stride-0", "rank-2", "even-kernel"])
def test_conv1d_rejects_misfit_shapes(x_shape, w_shape, stride):
    with pytest.raises(ShapeError, match=re.escape(f"{x_shape}, {w_shape}")):
        pt.conv1d(np.ones(x_shape), np.ones(w_shape), np.zeros(w_shape[-1]), stride=stride)


def test_layer_norm_matches_reference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 5)) * 3.0 + 1.0
    gain = rng.normal(size=5)
    bias = rng.normal(size=5)
    check_fused(pt.layer_norm, reference_layer_norm, [x, gain, bias], seed=3)


def reference_lstm(x, w_x, w_h, b):
    """Per-step LSTM cell from primitive Tensor ops: concat of the step outputs."""
    bsz, steps, _ = x.shape
    n = w_h.shape[0]
    h = Tensor(np.zeros((bsz, n)))
    c = Tensor(np.zeros((bsz, n)))
    outputs = []
    for t in range(steps):
        z = pt.matmul(x[:, t, :], w_x) + pt.matmul(h, w_h) + b
        i, f = pt.sigmoid(z[:, :n]), pt.sigmoid(z[:, n:2 * n])
        g, o = pt.tanh(z[:, 2 * n:3 * n]), pt.sigmoid(z[:, 3 * n:])
        c = f * c + i * g
        h = o * pt.tanh(c)
        outputs.append(pt.reshape(h, (bsz, 1, n)))
    return pt.concat(outputs, axis=1)


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_lstm_matches_per_step_cell(steps):
    rng = np.random.default_rng(steps)
    d_in, n = 3, 4
    arrays = [rng.normal(size=(2, steps, d_in)), rng.normal(size=(d_in, 4 * n)),
              rng.normal(size=(n, 4 * n)) * 0.5, rng.normal(size=4 * n)]
    weights = Tensor(rng.normal(size=(2, steps, n)))
    grads = []
    for op in (pt.lstm, reference_lstm):
        params = [Parameter(a.copy()) for a in arrays]
        out = op(*params)
        backward((out * weights).sum())
        grads.append((out.data, [p.grad for p in params]))
    (fused, fused_grads), (expected, expected_grads) = grads
    assert fused.shape == (2, steps, n)
    assert np.allclose(fused, expected, rtol=1e-12, atol=0)
    for got, want in zip(fused_grads, expected_grads):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    pt.reset_madds()
    with pt.no_grad():
        pt.lstm(*[Tensor(a) for a in arrays])
    assert pt.madds() == 2 * steps * 4 * n * (d_in + n)


def test_lstm_rejects_mismatched_weights():
    with pytest.raises(ShapeError):
        pt.lstm(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 12))),
                Tensor(np.zeros(12)))


def test_move_rows_packs_and_unpacks_like_numpy_indexing():
    rng = np.random.default_rng(4)
    padded = rng.normal(size=(2, 3, 4))
    ids = np.array([0, 2, 3, 5])  # rows 1 and 4 are padding
    x = Parameter(padded.copy())
    packed = pt.move_rows(x, ids)
    assert np.array_equal(packed.data, padded.reshape(6, 4)[ids])
    w = rng.normal(size=(4, 4))
    backward((packed * Tensor(w)).sum())
    want = np.zeros((6, 4))
    want[ids] = w
    assert np.array_equal(x.grad, want.reshape(2, 3, 4))

    rows = Parameter(rng.normal(size=(4, 4)))
    unpacked = pt.move_rows(rows, ids, (2, 3))
    assert unpacked.shape == (2, 3, 4)
    flat = unpacked.data.reshape(6, 4)
    assert np.array_equal(flat[ids], rows.data)
    assert np.array_equal(flat[[1, 4]], np.zeros((2, 4)))
    assert not np.signbit(flat[[1, 4]]).any()  # +0.0, not -0.0
    w = rng.normal(size=(2, 3, 4))
    backward((unpacked * Tensor(w)).sum())
    assert np.array_equal(rows.grad, w.reshape(6, 4)[ids])
    pt.reset_madds()
    pt.move_rows(rows, ids, (2, 3))
    assert pt.madds() == 0


@pytest.mark.parametrize("mode", ["standard", "high"])
def test_dropout_is_one_node_drawing_in_the_active_dtype(mode):
    with pt.precision(mode):
        x = Parameter(np.random.default_rng(6).normal(size=(3, 5, 4)))
        y = pt.dropout(x, 0.25, np.random.default_rng(9))
        dtype = pt.active_dtype()
        keep = (np.random.default_rng(9).random((3, 5, 4), dtype=dtype) >= 0.25) \
            * dtype(1.0 / 0.75)
        assert y._parents == (x,) and y.data.dtype == dtype
        assert np.array_equal(y.data, x.data * keep)
        g = np.random.default_rng(7).normal(size=(3, 5, 4))
        backward((y * Tensor(g)).sum())
        assert np.array_equal(x.grad, g.astype(dtype) * keep)


def test_relu_with_dropout_is_the_relu_then_dropout_arithmetic_bit_for_bit():
    """One node for max(x, 0) and the dropout after it: forward max(x, 0) * keep,
    backward g * keep * (x > 0), the same draw, and two madds per element."""
    rng = np.random.default_rng(11)
    x_data, g = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    x = Parameter(x_data.copy())
    draw = np.random.default_rng(12)
    pt.reset_madds()
    y = pt.relu(x, 0.3, draw)
    madds = pt.madds()
    backward((y * Tensor(g)).sum())
    twin = np.random.default_rng(12)
    keep = (twin.random((6, 8), dtype=np.float64) >= 0.3) * np.float64(1.0 / 0.7)
    assert y._parents == (x,)
    assert np.array_equal(y.data, np.maximum(x_data, 0.0) * keep)
    assert np.array_equal(x.grad, g * keep * (x_data > 0))
    assert madds == 2 * x_data.size
    assert draw.bit_generator.state == twin.bit_generator.state
    # without a generator, or at rate 0, it is the plain ReLU and draws nothing
    for rate, gen in ((0.3, None), (0.0, np.random.default_rng(12))):
        x = Parameter(x_data.copy())
        pt.reset_madds()
        y = pt.relu(x, rate, gen)
        assert pt.madds() == x_data.size
        backward((y * Tensor(g)).sum())
        assert np.array_equal(y.data, np.maximum(x_data, 0.0))
        assert np.array_equal(x.grad, g * (x_data > 0))
    assert gen.bit_generator.state == np.random.default_rng(12).bit_generator.state


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("masked", [False, True])
def test_attention_matches_per_head_loop(heads, masked):
    rng = np.random.default_rng(heads + 2 * masked)
    b, tq, tk, dk, dv = 2, 3, 4, 3, 2  # dk != dv: values need not be as wide as keys
    q, k = rng.normal(size=(b, tq, heads * dk)), rng.normal(size=(b, tk, heads * dk))
    v = rng.normal(size=(b, tk, heads * dv))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=float) if masked else None
    check_fused(lambda *qkv: pt.attention(*qkv, heads, mask),
                lambda *qkv: reference_attention(*qkv, heads, mask), [q, k, v], seed=8)
    pt.reset_madds()
    with pt.no_grad():
        pt.attention(Tensor(q), Tensor(k), Tensor(v), heads, mask)
    # both contractions, then the scale, the mask add and the softmax per score
    assert pt.madds() == b * heads * tq * tk * (dk + dv + 2 + masked)


@pytest.mark.parametrize("shapes, heads, mask", [
    ([(2, 3), (2, 3), (2, 3)], 1, None),
    ([(2, 3, 4), (2, 5, 4), (2, 5, 6)], 3, None),
    ([(2, 3, 4), (2, 5, 4), (2, 5, 6)], 0, None),
    ([(2, 3, 4), (2, 5, 6), (2, 5, 6)], 2, None),
    ([(2, 3, 4), (2, 5, 4), (2, 4, 6)], 2, None),
    ([(2, 3, 4), (1, 5, 4), (1, 5, 6)], 2, None),
    ([(2, 3, 4), (2, 5, 4), (2, 5, 6)], 2, np.ones((2, 4))),
], ids=["rank", "heads-do-not-divide", "zero-heads", "q-k-widths", "k-v-lengths", "batch",
        "mask"])
def test_attention_rejects_misfit_shapes(shapes, heads, mask):
    with pytest.raises(ShapeError):
        pt.attention(*(Tensor(np.ones(shape)) for shape in shapes), heads, mask)


# -- the fused block sublayers against their composites ------------------------------------

def glu_node(u):
    """The glu op the lightweight-conv sublayer fuses: a * sigmoid(c) for the
    halves [a | c], one node whose backward writes both halves into one buffer."""
    d = u.shape[-1] // 2
    a, s = u.data[..., :d], pt._sigmoid(u.data[..., d:])

    def bw(g):
        buf = np.empty_like(u.data)
        buf[..., :d] = g * s
        buf[..., d:] = g * a * s * (1.0 - s)
        u._accum(buf)

    out = a * s
    return pt._make(out, (u,), bw, madds=2 * out.size)


def lconv_node(x, taps, ids=None, padded=None):
    """The lightweight_conv op the sublayer fuses, over [B, T, d] or the packed
    rows ``ids`` pick from a ``padded`` (B, T) grid: a sliding window and one
    contraction each way, counting k madds per element of the grid."""
    h, k = taps.shape
    d = x.shape[-1]
    b, t = x.shape[:2] if ids is None else padded
    if ids is None:
        zp = pt._pad_time(x.data, k // 2, k // 2)
    else:
        zp = np.zeros((b, t + k - 1, d), dtype=x.data.dtype)
        zp.reshape(-1, d)[ids + ids // t * (k - 1) + k // 2] = x.data

    def windows(z):
        return pt._time_windows(z, k).reshape(b, t, h, d // h, k)

    win = windows(zp)
    out = np.matmul(win, taps.data[:, :, None]).reshape(b, t, d)

    def bw(g):
        if ids is not None:
            full = np.zeros((b * t, d), dtype=g.dtype)
            full[ids] = g
            g = full.reshape(b, t, d)
        if not taps.const:
            taps._accum(np.matmul(g.reshape(b, t, h, 1, d // h), win).sum(axis=(0, 1)).reshape(h, k))
        if not x.const:
            flipped = np.ascontiguousarray(taps.data[:, ::-1, None])
            g_x = np.matmul(windows(pt._pad_time(g, k // 2, k // 2)), flipped)
            x._accum(g_x.reshape(b, t, d) if ids is None else g_x.reshape(-1, d)[ids])

    madds = out.size * k
    if ids is not None:
        out = out.reshape(-1, d)[ids]
    return pt._make(out, (x, taps), bw, madds=madds)


def ff_composite(x, gain, bias, w1, b1, w2, b2, rate=0.0, rng=None, eps=1e-6):
    """The layer_norm, matmul, relu-with-dropout, matmul and add nodes that
    ``ff_sublayer`` fuses."""
    return x + pt.matmul(pt.relu(pt.matmul(pt.layer_norm(x, gain, bias, eps), w1, b1), rate, rng),
                         w2, b2)


def lconv_composite(x, gain, bias, w, b, taps, ids=None, padded=None, rate=0.0, rng=None,
                    eps=1e-6, unpack=False):
    """The layer_norm, matmul, glu, lightweight_conv, dropout and add nodes that
    ``lconv_sublayer`` fuses; with ``unpack`` the conv runs on the [B, T, d]
    grid between an unpack and a pack instead of on the packed rows."""
    v = glu_node(pt.matmul(pt.layer_norm(x, gain, bias, eps), w, b))
    if ids is not None and unpack:
        c = pt.move_rows(lconv_node(pt.move_rows(v, ids, padded), taps), ids)
    else:
        c = lconv_node(v, taps, ids, padded)
    return x + pt.dropout(c, rate, rng)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_op(op, arrays, rate=0.0, seed=None, **kwargs):
    """Forward, madds and backward against fixed weights: returns the output,
    the madds, the generator's next draw, and every input's gradient."""
    params = [Parameter(a) for a in arrays]
    rng = None if seed is None else np.random.default_rng(seed)
    pt.reset_madds()
    out = op(*params, rate=rate, rng=rng, **kwargs)
    madds = pt.madds()
    weights = np.random.default_rng(99).normal(size=out.shape)
    backward((out * Tensor(weights)).sum())
    draw = None if rng is None else rng.random()
    return out.data, madds, draw, [p.grad for p in params]


def assert_same_run(fused, composite, exact=same_bits):
    (out, madds, draw, grads), (ref_out, ref_madds, ref_draw, ref_grads) = fused, composite
    assert exact(out, ref_out)
    assert madds == ref_madds and draw == ref_draw
    assert len(grads) == len(ref_grads)
    for got, want in zip(grads, ref_grads):
        assert exact(got, want)


def sublayer_inputs(kind, lead, d, rng, heads=2, k=5):
    """x [*lead, d] and the sublayer's parameters, as a block holds them."""
    x = rng.normal(size=lead + (d,)) * 2.0 + 0.5
    norm = [rng.uniform(0.5, 1.5, size=d), rng.normal(size=d) * 0.1]
    if kind == "ff":
        return [x, *norm, rng.normal(size=(d, 4 * d)) * 0.5, rng.normal(size=4 * d) * 0.1,
                rng.normal(size=(4 * d, d)) * 0.5, rng.normal(size=d) * 0.1]
    taps = pt._softmax(rng.normal(size=(heads, k)), 1)
    return [x, *norm, rng.normal(size=(d, 2 * d)) * 0.5, rng.normal(size=2 * d) * 0.1, taps]


# the valid rows of a [3, 3] grid: full, one, and two of three; T = 3 is below k = 5
PACKED_MASK = np.array([[1, 1, 1], [1, 0, 0], [1, 1, 0]])


@pytest.mark.parametrize("mode", ["standard", "high"])
@pytest.mark.parametrize("packed", [False, True], ids=["unpadded", "packed"])
@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("k", [3, 5])
def test_sublayers_equal_their_composites_bit_for_bit(mode, packed, rate, k):
    """Each fused sublayer against the nodes it replaces: the forward, every
    input's gradient (x's too), the madds and the generator's next draw."""
    ids = np.flatnonzero(PACKED_MASK) if packed else None
    lead = (ids.size,) if packed else PACKED_MASK.shape
    seed = 17 if rate else None
    with pt.precision(mode):
        for kind in ("ff", "lconv"):
            arrays = [np.asarray(a, dtype=pt.active_dtype())
                      for a in sublayer_inputs(kind, lead, 4, np.random.default_rng(k), k=k)]
            if kind == "ff":
                fused = run_op(pt.ff_sublayer, arrays, rate, seed)
                composite = run_op(ff_composite, arrays, rate, seed)
            else:
                extra = {"ids": ids, "padded": PACKED_MASK.shape}
                fused = run_op(pt.lconv_sublayer, arrays, rate, seed, **extra)
                composite = run_op(lconv_composite, arrays, rate, seed, **extra)
            assert fused[0].dtype == pt.active_dtype()
            assert_same_run(fused, composite)


@pytest.mark.parametrize("kind", ["ff", "lconv"])
def test_sublayers_keep_nothing_under_no_grad(kind):
    arrays = sublayer_inputs(kind, (2, 3), 4, np.random.default_rng(1))
    op = pt.ff_sublayer if kind == "ff" else pt.lconv_sublayer
    with pt.no_grad():
        out = op(*[Tensor(a) for a in arrays], rate=0.3, rng=np.random.default_rng(2))
    assert out._parents == () and out._backward is None


def reference_lconv_sublayer(x, gain, bias, w, b, taps):
    """x + lconv(glu(LN(x) @ w + b)) in plain numpy, the conv as a tap loop."""
    u = reference_layer_norm(x, gain, bias) @ w + b
    d = x.shape[-1]
    return x + reference_lightweight_conv(u[..., :d] / (1.0 + np.exp(-u[..., d:])), taps)


@pytest.mark.parametrize("heads,k,t", [(2, 3, 5), (3, 5, 4), (1, 1, 3), (2, 7, 2)])
def test_lightweight_conv_matches_tap_loop(heads, k, t):
    """The conv sublayer (its conv a window contraction) against numpy with a
    tap loop: the forward, every gradient by central differences, and the
    composite's madds."""
    rng = np.random.default_rng(k + t)
    arrays = [rng.normal(size=(2, t, 6)), rng.uniform(0.5, 1.5, size=6), rng.normal(size=6),
              rng.normal(size=(6, 12)) * 0.5, rng.normal(size=12), rng.normal(size=(heads, k))]
    check_fused(pt.lconv_sublayer, reference_lconv_sublayer, arrays, seed=1)
    counts = []
    for op in (pt.lconv_sublayer, lconv_composite):
        pt.reset_madds()
        with pt.no_grad():
            op(*[Tensor(a) for a in arrays])
        counts.append(pt.madds())
    assert counts[0] == counts[1]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_lightweight_conv_on_packed_rows_is_unpack_conv_pack_bit_for_bit(k):
    """The conv sublayer on packed rows against the composite whose conv runs
    between move_rows unpack and pack: the forward, every gradient and the
    madds; the last batch row is all padding, and T = 3 is below the widest
    kernel."""
    mask = np.array([[1, 1, 1], [1, 0, 0], [0, 0, 0]])
    ids = np.flatnonzero(mask)
    arrays = sublayer_inputs("lconv", (ids.size,), 6, np.random.default_rng(13), k=k)
    extra = {"ids": ids, "padded": mask.shape}
    fused = run_op(pt.lconv_sublayer, arrays, **extra)
    assert fused[0].shape == (ids.size, 6)
    assert_same_run(fused, run_op(lconv_composite, arrays, unpack=True, **extra), np.array_equal)
    with pytest.raises(ShapeError, match="3 row ids"):
        pt.lconv_sublayer(*arrays, ids=ids[1:], padded=mask.shape)
    with pytest.raises(ShapeError):
        pt.lconv_sublayer(*arrays)  # [M, d] rows without their ids


@pytest.mark.parametrize("shape", [(2, 3, 8), (5, 4)])
def test_glu_matches_slice_sigmoid_product(shape):
    """Through a width-one tap, which passes rows through unchanged, the conv
    sublayer is x + glu(LN(x) @ w + b): equal to the slice, sigmoid and
    product composite in value and every gradient; the composite's madds plus
    one per element of the conv's grid.  (5, 4) runs on packed rows."""
    rng = np.random.default_rng(len(shape))
    d = shape[-1] // 2
    arrays = [rng.normal(size=shape[:-1] + (d,)), rng.uniform(0.5, 1.5, size=d),
              rng.normal(size=d), rng.normal(size=(d, 2 * d)) * 3.0, rng.normal(size=2 * d)]
    unit_tap = np.ones((1, 1))
    ids, grid = (np.array([0, 1, 2, 4, 5]), (2, 3)) if len(shape) == 2 else (None, shape[:2])

    def slice_sigmoid_product(x, gain, bias, w, b, rate, rng):
        u = pt.matmul(pt.layer_norm(x, gain, bias), w, b)
        return x + u[..., :d] * pt.sigmoid(u[..., d:])

    fused = run_op(lambda *a, rate, rng: pt.lconv_sublayer(*a, unit_tap, ids, grid, rate, rng),
                   arrays)
    composite = run_op(slice_sigmoid_product, arrays)
    assert np.array_equal(fused[0], composite[0])
    assert fused[1] == composite[1] + grid[0] * grid[1] * d
    for got, want in zip(fused[3], composite[3]):
        assert np.array_equal(got, want)


def test_glu_rejects_odd_width():
    x = np.zeros((2, 3, 4))
    with pytest.raises(ShapeError, match=re.escape("(4, 7), (7,)")):
        pt.lconv_sublayer(x, np.ones(4), np.zeros(4), np.zeros((4, 7)), np.zeros(7), np.ones((2, 3)))


@pytest.mark.parametrize("kind, shapes", [
    ("ff", [(2, 3, 4), (4,), (4,), (5, 16), (16,), (16, 4), (4,)]),
    ("ff", [(2, 3, 4), (4,), (4,), (4, 16), (8,), (16, 4), (4,)]),
    ("ff", [(2, 3, 4), (4,), (4,), (4, 16), (16,), (16, 5), (4,)]),
    ("ff", [(2, 3, 4), (3,), (4,), (4, 16), (16,), (16, 4), (4,)]),
    ("ff", [(4,), (4,), (4,), (4, 16), (16,), (16, 4), (4,)]),
    ("lconv", [(2, 3, 4), (4,), (4,), (4, 6), (6,), (2, 3)]),
    ("lconv", [(2, 3, 4), (4,), (5,), (4, 8), (8,), (2, 3)]),
    ("lconv", [(2, 3, 4), (4,), (4,), (4, 8), (8,), (3, 3)]),
    ("lconv", [(2, 3, 4), (4,), (4,), (4, 8), (8,), (2, 4)]),
    ("lconv", [(2, 3, 4), (4,), (4,), (4, 8), (8,), (6,)]),
    ("lconv", [(6, 4), (4,), (4,), (4, 8), (8,), (2, 3)]),
], ids=["ff-w1-rows", "ff-b1", "ff-w2", "ff-gain", "ff-rank-1", "lconv-w", "lconv-bias",
        "lconv-heads-do-not-divide", "lconv-even-taps", "lconv-taps-rank", "lconv-rank-2"])
def test_sublayers_reject_misfit_shapes(kind, shapes):
    op = pt.ff_sublayer if kind == "ff" else pt.lconv_sublayer
    with pytest.raises(ShapeError, match=re.escape("got " + ", ".join(str(s) for s in shapes[:-1]))):
        op(*(np.ones(shape) for shape in shapes))
