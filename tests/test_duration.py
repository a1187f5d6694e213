import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paravox.tensor as pt
from paravox import duration
from paravox.errors import DegenerateSynthesisError, ShapeError
from paravox.tensor import Tensor


@pytest.fixture(autouse=True)
def high_precision():
    with pt.precision("high"):
        yield


def make_predictor(d=8, heads=2, blocks=2, seed=0):
    return duration.DurationPredictor(d, heads, np.random.default_rng(seed), blocks=blocks)


def test_seconds_head_strictly_positive():
    pred = make_predictor()
    x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)) * 5)
    out = pred(x)
    assert np.all(out.seconds.data > 0)
    assert np.all((out.p_z.data > 0) & (out.p_z.data < 1))


def test_masked_tokens_do_not_change_loss():
    pred = make_predictor()
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 8))
    frames = np.array([[3, 0, 2, 4]])
    mask = np.ones((1, 4))
    out = pred(Tensor(x), mask)
    ce, l1 = duration.duration_loss(out, frames, 80.0, mask)

    padded = np.concatenate([x, rng.normal(size=(1, 3, 8))], axis=1)
    pmask = np.concatenate([mask, np.zeros((1, 3))], axis=1)
    pframes = np.concatenate([frames, rng.integers(1, 5, size=(1, 3))], axis=1)
    pout = pred(Tensor(padded), pmask)
    pce, pl1 = duration.duration_loss(pout, pframes, 80.0, pmask)
    assert pce.data == pytest.approx(ce.data, rel=1e-9)
    assert pl1.data == pytest.approx(l1.data, rel=1e-9)


# -- finalize -----------------------------------------------------------------------

def test_finalize_confident_token():
    frames = duration.finalize_durations(np.array([[0.995]]), np.array([[0.10]]), 80.0)
    assert frames.tolist() == [[8]]


def test_finalize_gate_zeroes_low_confidence():
    frames = duration.finalize_durations(np.array([[0.5, 0.999]]), np.array([[5.0, 0.05]]), 80.0)
    assert frames.tolist() == [[0, 4]]


def test_finalize_cumulative_rounding_table():
    # each token exactly one frame; naive rounding of 0.99*s would drift
    frames = duration.finalize_durations(
        np.array([[1.0, 1.0, 1.0]]), np.array([[0.0125, 0.0125, 0.0125]]), 80.0)
    assert frames.tolist() == [[1, 1, 1]]
    # hand-computed: cumulative 0.6, 1.2, 1.8 -> rounded 1, 1, 2 -> diffs 1, 0, 1
    frames = duration.finalize_durations(
        np.array([[1.0, 1.0, 1.0]]), np.array([[0.0075, 0.0075, 0.0075]]), 80.0)
    assert frames.tolist() == [[1, 0, 1]]


def test_finalize_all_gated_off_raises():
    with pytest.raises(DegenerateSynthesisError):
        duration.finalize_durations(np.array([[0.1, 0.2]]), np.array([[1.0, 1.0]]), 80.0)


@st.composite
def gated_batches(draw):
    """(p_z, seconds) of 1-4 rows of 1-12 tokens; about half the gates clear
    the threshold, short seconds make all-zero rows common, and half-frame
    seconds (0.5 and 1.5 frames at 80 Hz) land on the rounding ties."""
    rows, tokens = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    gate = st.one_of(st.floats(0.0, 1.0), st.floats(duration.GATE_THRESHOLD, 1.0))
    seconds = st.one_of(st.floats(0.0, 0.2), st.floats(0.0, 0.01),
                        st.sampled_from([0.00625, 0.01875]))
    row = st.lists(st.tuples(gate, seconds), min_size=tokens, max_size=tokens)
    cells = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    return cells[..., 0], cells[..., 1]


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gated_batches())
def test_finalize_length_preservation_fuzz(batch):
    p_z, seconds = batch
    gated_off = p_z < duration.GATE_THRESHOLD
    totals = []
    for row in np.where(gated_off, 0.0, seconds):
        gated_seconds = 0.0
        for s in row:  # left to right, as the cumulative rounding adds them
            gated_seconds += s
        totals.append(math.floor(80.0 * gated_seconds + 0.5))
    if 0 in totals:
        with pytest.raises(DegenerateSynthesisError):
            duration.finalize_durations(p_z, seconds, 80.0)
        return
    frames = duration.finalize_durations(p_z, seconds, 80.0)
    assert frames.sum(axis=1).tolist() == totals
    assert np.all(frames >= 0)
    assert np.all(frames[gated_off] == 0)


# -- losses ---------------------------------------------------------------------------

def scalar_loop_duration_loss(p_z, seconds, frames, rate, mask):
    """Independent oracle: plain double loops, no vectorization."""
    ce = 0.0
    l1 = 0.0
    for b in range(p_z.shape[0]):
        for n in range(p_z.shape[1]):
            if mask[b, n] == 0:
                continue
            y = 1.0 if frames[b, n] > 0 else 0.0
            p = p_z[b, n]
            ce += -(y * math.log(p) + (1 - y) * math.log(1 - p))
            l1 += abs(seconds[b, n] - frames[b, n] / rate)
    return ce, l1


def test_duration_loss_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    pred = make_predictor(seed=8)
    x = Tensor(rng.normal(size=(2, 6, 8)))
    mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=float)
    frames = rng.integers(0, 5, size=(2, 6))
    out = pred(x, mask)
    ce, l1 = duration.duration_loss(out, frames, 80.0, mask)
    oce, ol1 = scalar_loop_duration_loss(out.p_z.data, out.seconds.data, frames, 80.0, mask)
    assert ce.data == pytest.approx(oce, rel=1e-10)
    assert l1.data == pytest.approx(ol1, rel=1e-10)


def test_perfect_prediction_l1_zero_and_ce_floor():
    frames = np.array([[2, 0, 3]])
    logits = Tensor(np.array([[30.0, -30.0, 30.0]]))
    pred = duration.DurationPrediction(
        logits, Tensor(frames / 80.0), hidden=Tensor(np.zeros((1, 3, 2))))
    ce, l1 = duration.duration_loss(pred, frames, 80.0)
    assert l1.data == pytest.approx(0.0)
    assert ce.data < 1e-8


def test_half_probability_ce_is_ln2_per_token():
    frames = np.array([[1, 0, 4, 2]])
    logits = Tensor(np.zeros((1, 4)))
    pred = duration.DurationPrediction(
        logits, Tensor(frames / 80.0), hidden=Tensor(np.zeros((1, 4, 2))))
    ce, _ = duration.duration_loss(pred, frames, 80.0)
    assert ce.data == pytest.approx(4 * math.log(2.0))


def test_l1_translation_detection():
    # when every prediction already exceeds its target, +delta adds N_valid * delta
    frames = np.array([[2, 1, 3]])
    base = frames / 80.0 + 0.5
    logits = Tensor(np.zeros((1, 3)))
    delta = 0.125

    def l1_of(seconds):
        pred = duration.DurationPrediction(
            logits, Tensor(seconds), hidden=Tensor(np.zeros((1, 3, 2))))
        _, l1 = duration.duration_loss(pred, frames, 80.0)
        return float(l1.data)

    assert l1_of(base + delta) - l1_of(base) == pytest.approx(3 * delta)


def test_shape_mismatch_rejected():
    frames = np.array([[1, 2]])
    logits = Tensor(np.zeros((1, 3)))
    pred = duration.DurationPrediction(
        logits, Tensor(np.zeros((1, 3))), hidden=Tensor(np.zeros((1, 3, 2))))
    with pytest.raises(ShapeError, match="prediction"):
        duration.duration_loss(pred, frames, 80.0)


def test_negative_target_frames_rejected():
    logits = Tensor(np.zeros((1, 2)))
    pred = duration.DurationPrediction(
        logits, Tensor(np.zeros((1, 2))), hidden=Tensor(np.zeros((1, 2, 2))))
    with pytest.raises(ShapeError, match="non-negative"):
        duration.duration_loss(pred, np.array([[1, -2]]), 80.0)
