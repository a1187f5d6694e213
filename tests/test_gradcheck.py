import inspect

import numpy as np
import pytest

import paravox.tensor as pt
from paravox import checks
from paravox.errors import NonDeterministicError
from paravox.gradcheck import grad_check
from paravox.tensor import Parameter, Tensor


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def test_linear_model_l2_loss_is_exact():
    # quadratic in the weights: central differences are exact up to round-off
    rng = np.random.default_rng(0)
    w = Parameter(rng.normal(size=(3, 2)))
    b = Parameter(np.zeros(2))
    x = Tensor(rng.normal(size=(5, 3)))
    y = Tensor(rng.normal(size=(5, 2)))

    def loss():
        resid = pt.matmul(x, w) + b - y
        return (resid * resid).sum()

    report = grad_check(loss, {"w": w, "b": b})
    assert report.passed
    assert report.max_rel_error < 1e-8


def test_corrupted_backward_is_flagged():
    w = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    x = Tensor(np.array([[0.5, -1.0]]))

    def loss():
        out = pt.matmul(x, _scaled(w))
        return (out * out).sum()

    def _scaled(p):
        # deliberately wrong backward: scales the gradient by 1.01
        out = Tensor(p.data.copy(), (p,), lambda g: p._accum(1.01 * g))
        return out

    report = grad_check(loss, {"w": w})
    assert not report.passed
    assert report.failures()[0].max_rel_error > 1e-3


def test_nondeterministic_target_rejected():
    w = Parameter(np.ones(2))
    state = {"n": 0}

    def loss():
        state["n"] += 1
        return (w * float(state["n"])).sum()

    with pytest.raises(NonDeterministicError):
        grad_check(loss, {"w": w})


def test_entry_sampling_caps_work():
    rng = np.random.default_rng(1)
    w = Parameter(rng.normal(size=(10, 10)))

    def loss():
        return (w * w).sum()

    report = grad_check(loss, {"w": w}, max_entries=7)
    assert report.entries[0].checked == 7
    assert report.passed


def test_report_table_formatting():
    w = Parameter(np.ones(2))
    report = grad_check(lambda: (w * w).sum(), {"w": w})
    table = report.format_table()
    assert "parameter" in table and "w" in table and "ok" in table


def differentiable_ops():
    """The public functions of paravox.tensor that build a graph node: those
    annotated to return a Tensor, except ``constant``, which makes a leaf."""
    return sorted(name for name, f in vars(pt).items()
                  if inspect.isfunction(f) and f.__module__ == pt.__name__
                  and not name.startswith("_") and name != "constant"
                  and inspect.signature(f).return_annotation == "Tensor")


def test_tensor_check_reaches_every_differentiable_op(monkeypatch):
    """The finite-difference registry covers every op: ``check_tensor_ops``
    calls each one, directly, through another op or through operator sugar."""
    ops = differentiable_ops()
    assert {"matmul", "relu", "dropout", "ff_sublayer", "lconv_sublayer"} <= set(ops)
    calls = dict.fromkeys(ops, 0)
    for name in ops:
        def counted(*args, _name=name, _op=getattr(pt, name), **kwargs):
            calls[_name] += 1
            return _op(*args, **kwargs)
        monkeypatch.setattr(pt, name, counted)
    report = checks.check_tensor_ops()
    assert report.passed
    assert [name for name, n in calls.items() if n == 0] == []
