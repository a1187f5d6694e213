import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import paravox.tensor as pt
from paravox import duration, training
from paravox.corpus import generate
from paravox.errors import ConfigError, DegenerateSynthesisError, TrainingDiverged
from paravox.fileformats import read_mel
from paravox.model import (ForwardOutputs, ModelConfig, ModelHyperparams, SynthesisModel,
                           make_batch)
from paravox.module import Linear, RandomSource
from paravox.tensor import Parameter, Tensor, backward
from paravox.training import (NesterovMomentum, TrainConfig, TrainState,
                              beta_schedule, build_state, clip_global_norm, load_state,
                              lr_multiplier, total_loss, train, train_step)

from conftest import tiny_model_config_kwargs, tiny_train_config
from test_acceptance import OVERFIT_SPEC, overfit_config


# -- schedules -----------------------------------------------------------------

def test_lr_schedule_endpoints():
    assert lr_multiplier(0, 100, 200, 1000) == pytest.approx(0.1)
    assert lr_multiplier(100, 100, 200, 1000) == pytest.approx(1.0)
    assert lr_multiplier(150, 100, 200, 1000) == pytest.approx(1.0)
    assert lr_multiplier(1000, 100, 200, 1000) == pytest.approx(0.01)
    assert lr_multiplier(5000, 100, 200, 1000) == pytest.approx(0.01)


def test_lr_schedule_geometric_midpoint():
    assert lr_multiplier(600, 100, 200, 1000) == pytest.approx(0.1)


def test_lr_schedule_continuous_at_boundaries():
    for boundary in (100, 200, 1000):
        lo = lr_multiplier(boundary - 1, 100, 200, 1000)
        hi = lr_multiplier(boundary + 1, 100, 200, 1000)
        at = lr_multiplier(boundary, 100, 200, 1000)
        assert abs(lo - at) < 0.02 and abs(hi - at) < 0.02


def test_beta_schedule_shape():
    assert beta_schedule(0, 60, 500) == 0.0
    assert beta_schedule(60, 60, 500) == 0.0
    assert beta_schedule(280, 60, 500) == pytest.approx(0.5)
    assert beta_schedule(500, 60, 500) == 1.0
    assert beta_schedule(9000, 60, 500) == 1.0
    values = [beta_schedule(s, 60, 500) for s in range(0, 600, 7)]
    assert all(b <= a for a, b in zip(values[1:], values)) or values == sorted(values)


# -- clipping -------------------------------------------------------------------

def test_clip_rescales_large_gradient_exactly():
    p = Parameter(np.zeros(4))
    p.grad = np.array([6.0, 8.0, 0.0, 0.0])  # norm 10
    pre = clip_global_norm([p], 0.2)
    assert pre == pytest.approx(10.0)
    assert np.linalg.norm(p.grad) == pytest.approx(0.2)
    assert np.allclose(p.grad, [0.12, 0.16, 0.0, 0.0])


def test_clip_leaves_small_gradient_alone():
    p = Parameter(np.zeros(2))
    p.grad = np.array([0.1, 0.0])
    clip_global_norm([p], 0.2)
    assert np.allclose(p.grad, [0.1, 0.0])


def test_clip_norm_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = [Parameter(np.zeros(5)), Parameter(np.zeros(3))]
        for p in params:
            p.grad = rng.normal(size=p.data.shape) * rng.uniform(0, 30)
        clip_global_norm(params, 0.2)
        total = sum(float((p.grad ** 2).sum()) for p in params)
        assert math.sqrt(total) <= 0.2 + 1e-9


# -- Nesterov update ----------------------------------------------------------------

def hand_nesterov_quadratic(x0, a, lr, mu, steps):
    """Oracle: scalar loop applying v<-mu*v+g, x<-x-lr*(g+mu*v) on f(x)=a*x^2/2."""
    x, v = x0, 0.0
    trace = []
    for _ in range(steps):
        g = a * x
        v = mu * v + g
        x = x - lr * (g + mu * v)
        trace.append(x)
    return trace


def test_nesterov_matches_hand_stepped_reference():
    with pt.precision("high"):
        p = Parameter(np.array([2.0]))
        opt = NesterovMomentum([("p", p)], momentum=0.9)
        got = []
        for _ in range(5):
            p.zero_grad()
            backward((p * p * 1.5).sum())  # f = 1.5 x^2 -> a = 3
            opt.step(0.05)
            got.append(float(p.data[0]))
        expected = hand_nesterov_quadratic(2.0, 3.0, 0.05, 0.9, 5)
        assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("mode", ["standard", "high"])
def test_nesterov_step_matches_the_plain_formula_bit_for_bit(mode):
    rng = np.random.default_rng(4)
    with pt.precision(mode):
        p = Parameter(rng.normal(size=(5, 7)))
        opt = NesterovMomentum([("p", p)], momentum=0.99)
        opt.velocity["p"][:] = rng.normal(size=(5, 7))
        p.grad = rng.normal(size=(5, 7)).astype(p.data.dtype)
        v = opt.velocity["p"] * 0.99 + p.grad
        expected = p.data - (0.037 * (p.grad + 0.99 * v)).astype(p.data.dtype)
        opt.step(0.037)
        assert p.data.dtype == pt.active_dtype()
    assert np.array_equal(opt.velocity["p"], v)
    assert np.array_equal(p.data, expected)


# -- total_loss assembly ---------------------------------------------------------------

LAMBDA_DUR, BETA = 1.5, 0.7


def make_outputs(variant, n=5.0, seed=0):
    """Forward outputs carrying only the loss terms, in the variant's shape."""
    rng = np.random.default_rng(seed)
    spec = Tensor(abs(rng.normal()) * 3)
    kl = Tensor(np.abs(rng.normal(size=2))) if variant != "novae" else None
    prior = Tensor(abs(rng.normal())) if variant == "fine" else None
    return ForwardOutputs(spec_loss=spec, predictions=[], dur_ce=Tensor(abs(rng.normal())),
                          dur_l1=Tensor(abs(rng.normal())), kl_per_utterance=kl,
                          prior_loss=prior, duration_pred=None, layout=None, n_tokens=n)


def scalar_total(variant, out):
    total = float(out.spec_loss.data)
    total += LAMBDA_DUR * (float(out.dur_ce.data) + float(out.dur_l1.data)) / out.n_tokens
    if variant != "novae":
        total += BETA * float(out.kl_per_utterance.data.mean())
    if variant == "fine":
        total += float(out.prior_loss.data) / out.n_tokens
    return total


@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_total_loss_matches_scalar_oracle(variant):
    with pt.precision("high"):
        out = make_outputs(variant)
        got = float(total_loss(out, LAMBDA_DUR, BETA).data)
        assert got == pytest.approx(scalar_total(variant, out), rel=1e-12)


def test_total_loss_zero_terms_give_zero():
    out = ForwardOutputs(spec_loss=Tensor(0.0), predictions=[], dur_ce=Tensor(0.0),
                         dur_l1=Tensor(0.0), kl_per_utterance=Tensor(np.zeros(2)),
                         prior_loss=None, duration_pred=None, layout=None, n_tokens=5.0)
    assert float(total_loss(out, 1.0, 1.0).data) == 0.0


def test_total_loss_linear_in_spec_terms():
    with pt.precision("high"):
        out = make_outputs("novae")
        base = float(total_loss(out, LAMBDA_DUR, BETA).data)
        doubled = replace(out, spec_loss=out.spec_loss * 2.0)
        got = float(total_loss(doubled, LAMBDA_DUR, BETA).data)
        assert got == pytest.approx(base + float(out.spec_loss.data), rel=1e-12)


def test_beta_zero_global_equals_novae_objective():
    out_g = make_outputs("global")
    out_n = replace(out_g, kl_per_utterance=None)
    assert float(total_loss(out_g, LAMBDA_DUR, 0.0).data) == pytest.approx(
        float(total_loss(out_n, LAMBDA_DUR, 0.0).data), abs=1e-15)


# -- config ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys_and_bad_values_all_at_once():
    with pytest.raises(ConfigError) as exc:
        TrainConfig.from_mapping({"bogus": "1", "total_steps": "soon", "decay_start": "5",
                                  "warmup_steps": "50", "decay_end": "40"})
    text = str(exc.value)
    assert "bogus" in text and "total_steps" in text


def test_config_schedule_ordering_enforced():
    with pytest.raises(ConfigError) as exc:
        TrainConfig.from_mapping({"warmup_steps": "300", "decay_start": "200",
                                  "decay_end": "1000"})
    assert "decay_start" in str(exc.value)


def test_fine_variant_requires_beta_keys():
    with pytest.raises(ConfigError) as exc:
        TrainConfig.from_mapping({"variant": "fine"})
    assert "kl_beta" in str(exc.value)
    cfg = TrainConfig.from_mapping({"variant": "fine", "kl_beta_start": "10",
                                    "kl_beta_end": "50"})
    assert cfg.kl_beta_end == 50


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nvariant = global\nbase_lr = 0.25\n"
                    "iterative_loss = off  # trailing comment\n")
    cfg = TrainConfig.from_file(path)
    assert cfg.variant == "global"
    assert cfg.base_lr == 0.25
    assert cfg.iterative_loss is False


def test_model_config_carries_every_shared_field():
    changed = {"variant": "fine", "decoder": "transformer"}
    for f in fields(ModelHyperparams):
        if f.name not in changed:
            changed[f.name] = f.default + (1 if isinstance(f.default, int) else 0.25)
    model_cfg = TrainConfig(**changed).model_config(30, 5, 16, 50.0)
    for name, value in changed.items():
        assert getattr(model_cfg, name) == value != getattr(ModelHyperparams(), name), name
    assert (model_cfg.vocab_size, model_cfg.num_speakers, model_cfg.mel_bins,
            model_cfg.frame_rate) == (30, 5, 16, 50.0)


def test_config_overrides_count_as_provided():
    cfg = TrainConfig.from_mapping({}, overrides={"variant": "fine", "kl_beta_start": 5,
                                                  "kl_beta_end": 9})
    assert cfg.variant == "fine"


# -- end-to-end step behaviour -----------------------------------------------------------

def build_tiny_model(tiny_spec, variant, seed=0):
    cfg = ModelConfig(variant=variant, **tiny_model_config_kwargs(tiny_spec))
    return SynthesisModel.build(cfg, seed)


def test_spec_loss_gradient_never_reaches_duration_heads(tiny_spec, tiny_corpus):
    model = build_tiny_model(tiny_spec, "novae")
    batch = make_batch(tiny_corpus)
    out = model.forward_train(batch, sample_rng=np.random.default_rng(0))
    model.zero_grad()
    backward(out.spec_loss)
    for name, p in model.duration_predictor.named_parameters("duration_predictor."):
        if "gate_proj" in name or "seconds_proj" in name:
            assert p.grad is None or np.all(p.grad == 0.0), f"spec loss leaked into {name}"
    block_has_grad = any(
        p.grad is not None and np.any(p.grad != 0.0)
        for n, p in model.duration_predictor.named_parameters() if "blocks" in n)
    assert block_has_grad  # the upsampled hidden path must carry gradient


@pytest.mark.parametrize("variant, iterative", [
    pytest.param(variant, iterative, id=variant if iterative else f"{variant}-single")
    for iterative in (True, False) for variant in ("novae", "global", "fine")])
def test_training_step_builds_only_nodes_its_loss_reaches(tiny_spec, tiny_corpus, monkeypatch,
                                                          variant, iterative):
    built, losses = [], []
    make = pt._make

    def recording_make(*args, **kwargs):
        out = make(*args, **kwargs)
        if not out.const:
            built.append((out, sys._getframe(1).f_code.co_name))
        return out

    def recording_backward(loss):
        losses.append(loss)
        backward(loss)

    monkeypatch.setattr(pt, "_make", recording_make)
    monkeypatch.setattr(training, "backward", recording_backward)
    model = build_tiny_model(tiny_spec, variant)
    cfg = tiny_train_config(variant=variant, iterative_loss=iterative)
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    train_step(state, make_batch(tiny_corpus[:3]), cfg, np.random.default_rng(0))
    reached = {id(node) for node in pt._topo_order(losses[0])}
    assert built
    assert [op for node, op in built if id(node) not in reached] == []


def test_padding_leaves_total_loss_unchanged(tiny_spec, tiny_corpus):
    model = build_tiny_model(tiny_spec, "global")
    batch = make_batch(tiny_corpus[:3])
    out = model.forward_train(batch)
    loss = float(total_loss(out, 1.0, 1.0).data)

    padded = make_batch(tiny_corpus[:3])
    b, n = padded.tokens.shape
    padded.tokens = np.concatenate([padded.tokens, np.zeros((b, 2), dtype=int)], axis=1)
    padded.token_mask = np.concatenate([padded.token_mask, np.zeros((b, 2))], axis=1)
    padded.frames = np.concatenate([padded.frames, np.zeros((b, 2), dtype=int)], axis=1)
    t = padded.mel.shape[1]
    padded.mel = np.concatenate([padded.mel, np.full((b, 3, padded.mel.shape[2]), 0.7,
                                                     dtype=padded.mel.dtype)], axis=1)
    out2 = model.forward_train(padded)
    loss2 = float(total_loss(out2, 1.0, 1.0).data)
    assert loss2 == pytest.approx(loss, rel=1e-5)


def test_checkpoint_every_resumes_the_uninterrupted_trajectory(tiny_spec, tiny_corpus, tmp_path):
    k = 4
    cfg = tiny_train_config(variant="fine", total_steps=2 * k, checkpoint_every=k)

    def fresh():
        return build_state(cfg, tiny_spec.vocab_size, tiny_spec.num_speakers,
                           tiny_spec.mel_bins, tiny_spec.frame_rate)

    train(fresh(), cfg, tiny_corpus, tmp_path / "full")

    class Interrupted(Exception):
        pass

    def crash_after_next_step(state, row):
        if state.step == k + 1:
            raise Interrupted
        return False

    with pytest.raises(Interrupted):
        train(fresh(), cfg, tiny_corpus, tmp_path / "cut", stop_check=crash_after_next_step)
    resumed = fresh()
    load_state(resumed, tmp_path / "cut" / "state.ckpt")
    assert resumed.step == k
    train(resumed, cfg, tiny_corpus, tmp_path / "resumed")
    full = (tmp_path / "full" / "metrics.csv").read_text().splitlines()
    rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [str(i) for i in range(k + 1, 2 * k + 1)]
    assert rows == full[:1] + full[k + 1:]


def test_train_step_decreases_loss_on_tiny_problem(tiny_spec, tiny_corpus):
    model = build_tiny_model(tiny_spec, "novae")
    cfg = tiny_train_config(variant="novae", total_steps=60, base_lr=0.4)
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    batch = make_batch(tiny_corpus)
    first = None
    for _ in range(60):
        row = train_step(state, batch, cfg, np.random.default_rng(state.step + 1))
        first = first if first is not None else row["total"]
    assert row["total"] < 0.6 * first


@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_train_step_releases_every_gradient_after_the_update(tiny_spec, tiny_corpus, variant):
    model = build_tiny_model(tiny_spec, variant)
    cfg = tiny_train_config(variant=variant)
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    before = [p.data.copy() for p in model.parameters()]
    train_step(state, make_batch(tiny_corpus), cfg, np.random.default_rng(0))
    assert all(p.grad is None for p in model.parameters())
    assert any(not np.array_equal(p.data, old) for p, old in zip(model.parameters(), before))
    assert any(np.any(v != 0.0) for v in state.optimizer.velocity.values())


# Nodes and node-data bytes one training step's graph holds at ``backward`` (the
# ``tensor.nodes_per_step`` and ``tensor.graph_mb`` of perfbench), for the
# acceptance config on its 16-utterance corpus.  A change that grows either
# fails here; one that shrinks them updates the pin.
GRAPH_PINS = {"novae": (249, 24_080_308), "global": (367, 32_669_784), "fine": (378, 34_933_544)}


def test_train_step_graph_nodes_and_bytes_are_pinned(monkeypatch):
    held = []

    def recording_backward(loss):
        nodes = pt._topo_order(loss)
        held.append((len(nodes), sum(node.data.nbytes for node in nodes)))
        backward(loss)

    monkeypatch.setattr(training, "backward", recording_backward)
    batch = make_batch(generate(OVERFIT_SPEC, 16))
    for variant in GRAPH_PINS:
        cfg = overfit_config(variant)
        state = build_state(cfg, OVERFIT_SPEC.vocab_size, OVERFIT_SPEC.num_speakers,
                            OVERFIT_SPEC.mel_bins, OVERFIT_SPEC.frame_rate)
        train_step(state, batch, cfg, RandomSource(cfg.seed).for_step(1))
    assert dict(zip(GRAPH_PINS, held)) == GRAPH_PINS


def test_train_step_aborts_on_nonfinite(tiny_spec, tiny_corpus):
    model = build_tiny_model(tiny_spec, "novae")
    model.decoder.projections[0].bias.data[:] = np.nan
    cfg = tiny_train_config(variant="novae")
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    with pytest.raises(TrainingDiverged) as exc:
        train_step(state, make_batch(tiny_corpus), cfg, np.random.default_rng(0))
    assert "step 1" in str(exc.value)


def test_hundred_steps_bit_identical(tiny_spec, tiny_corpus):
    rows = []
    for _ in range(2):
        model = build_tiny_model(tiny_spec, "global", seed=7)
        cfg = tiny_train_config(variant="global", total_steps=100, batch_size=4)
        state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
        trace = []
        from paravox.module import RandomSource
        src = RandomSource(cfg.seed)
        from paravox.training import select_batch
        for _ in range(100):
            rng = src.for_step(state.step + 1)
            batch = select_batch(tiny_corpus, cfg, rng)
            trace.append(train_step(state, batch, cfg, rng)["total"])
        rows.append(trace)
    assert rows[0] == rows[1]  # exact float equality, all 100 steps


def test_evaluate_dump_files_match_independent_recount(tiny_spec, tiny_corpus, tmp_path):
    from paravox.fileformats import read_mel
    from paravox.training import evaluate
    model = build_tiny_model(tiny_spec, "novae")
    metrics = evaluate(model, tiny_corpus[:4], mode="teacher", dump_dir=tmp_path)
    total = 0.0
    cells = 0.0
    for i, utt in enumerate(tiny_corpus[:4]):
        pred = read_mel(tmp_path / f"utt_{i:04d}.mel")
        assert pred.shape[0] == utt.mel.shape[0]
        total += np.abs(pred - utt.mel).sum()
        cells += pred.size
    assert metrics["spec_l1"] == pytest.approx(total / cells, rel=1e-5)


def test_evaluate_untrained_gate_accuracy_far_from_perfect(tiny_spec, tiny_corpus):
    # an untrained gate sits near chance level; a perfect model would be 1.0
    from paravox.training import evaluate
    model = build_tiny_model(tiny_spec, "novae")
    metrics = evaluate(model, tiny_corpus, mode="teacher")
    assert 0.05 <= metrics["gate_accuracy"] <= 0.95
    assert metrics["frame_mae"] > 0.5


@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_free_evaluate_decodes_each_row_as_synthesize_does(tiny_spec, tiny_corpus, tmp_path,
                                                            monkeypatch, variant):
    # one batch of unequal lengths whose second row is forced degenerate
    model = build_tiny_model(tiny_spec, variant)
    model.duration_predictor.gate_proj.bias.data[:] = 8.0
    utts = tiny_corpus[:4]
    assert len({len(u.tokens) for u in utts}) > 1
    finalize = duration.finalize_durations
    calls = []

    def second_row_degenerate(p_z, seconds, frame_rate):
        calls.append(p_z.shape)
        if len(calls) == 2:
            raise DegenerateSynthesisError("forced")
        return finalize(p_z, seconds, frame_rate)

    monkeypatch.setattr(duration, "finalize_durations", second_row_degenerate)
    metrics = training.evaluate(model, utts, mode="free", batch_size=4, dump_dir=tmp_path)
    monkeypatch.undo()
    assert len(calls) == 4
    assert metrics["degenerate"] == 1
    assert not (tmp_path / "utt_0001.mel").exists()

    batch = make_batch(utts)
    dur = model.predict_durations_free(batch.tokens, batch.speakers, batch.token_mask)
    total, cells = 0.0, 0
    for i in (0, 2, 3):
        utt = utts[i]
        mel, frames = model.synthesize(utt.tokens, utt.speaker)
        n = len(utt.tokens)
        batched = finalize(dur.p_z.data[i:i + 1, :n], dur.seconds.data[i:i + 1, :n],
                           tiny_spec.frame_rate)[0]
        assert np.array_equal(batched, frames)
        dumped = read_mel(tmp_path / f"utt_{i:04d}.mel")
        assert dumped.shape == mel.shape
        np.testing.assert_allclose(dumped, mel, rtol=1e-5, atol=1e-5)
        t = min(len(mel), len(utt.mel))
        total += np.abs(dumped[:t] - utt.mel[:t]).sum()
        cells += t * utt.mel.shape[1]
    assert metrics["spec_l1"] == total / cells


@pytest.mark.parametrize("caller", ["synthesize", "teacher", "free"])
def test_inference_projects_only_the_last_decoder_head(tiny_spec, tiny_corpus, monkeypatch,
                                                       caller):
    model = build_tiny_model(tiny_spec, "global")
    model.duration_predictor.gate_proj.bias.data[:] = 8.0
    heads = {id(proj): i for i, proj in enumerate(model.decoder.projections)}
    assert len(heads) > 1
    projected = []
    call = Linear.__call__

    def recording_call(self, x):
        if id(self) in heads:
            projected.append(heads[id(self)])
        return call(self, x)

    monkeypatch.setattr(Linear, "__call__", recording_call)
    if caller == "synthesize":
        model.synthesize(tiny_corpus[0].tokens, tiny_corpus[0].speaker)
    else:
        training.evaluate(model, tiny_corpus[:4], mode=caller, batch_size=4)
    assert projected == [len(heads) - 1]
