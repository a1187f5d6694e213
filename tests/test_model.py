import re

import numpy as np
import pytest

import paravox.tensor as pt
from paravox.decoder import spectrogram_loss
from paravox.errors import ConfigError, FormatError, ShapeError, VocabularyError
from paravox.fileformats import read_arrays, write_arrays
from paravox.model import ModelConfig, SynthesisModel, make_batch
from paravox.training import (NesterovMomentum, TrainState, load_state, save_state,
                              select_batch, train_step)

from conftest import tiny_model_config_kwargs, tiny_train_config


def build(tiny_spec, variant, seed=0):
    cfg = ModelConfig(variant=variant, **tiny_model_config_kwargs(tiny_spec))
    return SynthesisModel.build(cfg, seed)


def force_confident_gate(model):
    # untrained gates sit near 0.5 and zero out everything; push p_z past 0.99
    model.duration_predictor.gate_proj.bias.data[:] = 8.0
    return model


def test_config_validation_collects_problems(tiny_spec):
    kw = tiny_model_config_kwargs(tiny_spec)
    kw.update(d_model=7, dur_heads=5, variant="bogus")
    problems = ModelConfig(**kw).validate()
    assert len(problems) >= 3
    assert any("variant" in p for p in problems)


@pytest.mark.parametrize("changes, expected", [
    ({"d_model": 7}, "d_model (7) must be even"),
    ({"enc_heads": 3}, "enc_heads (3) must divide d_model (8)"),
    ({"decoder": "wavenet"}, "decoder must be one of"),
    ({"dec_heads": 3}, "dec_heads (3) must divide d_cond (16)"),
    ({"vocab_size": 0}, "vocab_size must be positive"),
    ({"enc_transformer_blocks": 0}, "enc_transformer_blocks must be positive"),
    ({"dec_blocks": -1}, "dec_blocks must be positive"),
    ({"enc_heads": 0}, "enc_heads must be positive"),
    ({"dur_kernel": 4}, "dur_kernel must be odd"),
    ({"latent_dim": 0}, "latent_dim must be positive"),
    ({"variant": "fine", "prior_hidden": 0}, "prior_hidden must be positive"),
    ({"dropout": 1.0}, "dropout must lie in [0, 1)"),
], ids=["odd-d_model", "enc_heads", "decoder", "dec_heads", "vocab_size", "enc-blocks",
        "dec_blocks", "zero-heads", "even-kernel", "latent_dim", "prior_hidden", "dropout"])
def test_config_validation_names_config_keys(tiny_spec, changes, expected):
    kw = tiny_model_config_kwargs(tiny_spec)
    assert not ModelConfig(**kw).validate()
    kw.update(changes)
    problems = ModelConfig(**kw).validate()
    assert any(expected in p for p in problems), problems
    with pytest.raises(ConfigError, match=re.escape(expected)):
        SynthesisModel.build(ModelConfig(**kw), 0)


def test_parameter_names_unique_and_hierarchical(tiny_spec):
    model = build(tiny_spec, "fine")
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert any(n.startswith("encoder.") for n in names)
    assert any(n.startswith("prior_lstm.") for n in names)


@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_forward_shapes(tiny_spec, tiny_corpus, variant):
    model = build(tiny_spec, variant)
    batch = make_batch(tiny_corpus[:4])
    rng = np.random.default_rng(0)
    out = model.forward_train(batch, dropout_rng=rng, sample_rng=rng)
    assert len(out.predictions) == model.cfg.dec_blocks
    assert out.spec_loss.shape == ()
    for pred in out.predictions:
        assert pred.shape == batch.mel.shape
    if variant == "novae":
        assert out.kl_per_utterance is None and out.prior_loss is None
    if variant == "global":
        assert out.kl_per_utterance.shape == (4,)
        assert out.prior_loss is None
    if variant == "fine":
        assert out.kl_per_utterance.shape == (4,)
        assert out.prior_loss is not None


def test_variant_submodules_exist_only_when_needed(tiny_spec):
    novae = build(tiny_spec, "novae")
    assert not hasattr(novae, "posterior")
    glob = build(tiny_spec, "global")
    assert hasattr(glob, "speaker_prior") and not hasattr(glob, "prior_lstm")
    fine = build(tiny_spec, "fine")
    assert hasattr(fine, "prior_lstm") and not hasattr(fine, "speaker_prior")


def test_training_upsampling_always_uses_ground_truth(tiny_spec, tiny_corpus):
    # corrupting the duration heads must not change training-mode spectrograms
    model = build(tiny_spec, "novae")
    batch = make_batch(tiny_corpus[:2])
    out1 = model.forward_train(batch)
    model.duration_predictor.gate_proj.weight.data[:] = 9.0
    model.duration_predictor.seconds_proj.weight.data[:] = -9.0
    out2 = model.forward_train(batch)
    for a, b in zip(out1.predictions, out2.predictions):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("variant", ["global", "fine"])
def test_forward_without_generators_is_the_deterministic_teacher_pass(tiny_spec, tiny_corpus,
                                                                      variant):
    model = build(tiny_spec, variant)
    batch = make_batch(tiny_corpus[:3])
    plain = model.forward_train(batch)
    again = model.forward_train(batch)
    with pt.no_grad():
        teacher = model.forward_train(batch, iterative=False)
    assert np.array_equal(again.spec_loss.data, plain.spec_loss.data)
    single = spectrogram_loss(plain.predictions[-1:], batch.mel, plain.layout.mask)
    assert np.array_equal(teacher.spec_loss.data, single.data)
    assert len(teacher.predictions) == 1  # the single loss projects the last head only
    for out in (again, teacher):
        assert np.array_equal(out.kl_per_utterance.data, plain.kl_per_utterance.data)
        for a, b in zip(out.predictions, plain.predictions[-len(out.predictions):]):
            assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("variant", ["global", "fine"])
def test_sample_generator_alone_draws_the_latent(tiny_spec, tiny_corpus, variant):
    model = build(tiny_spec, variant)
    batch = make_batch(tiny_corpus[:3])
    first = model.forward_train(batch, sample_rng=np.random.default_rng(5))
    second = model.forward_train(batch, sample_rng=np.random.default_rng(5))
    mean = model.forward_train(batch)
    assert np.array_equal(first.spec_loss.data, second.spec_loss.data)
    for a, b in zip(first.predictions, second.predictions):
        assert np.array_equal(a.data, b.data)
    # the posterior is the same with and without sampling: dropout stayed off
    assert np.array_equal(first.posterior.mean.data, mean.posterior.mean.data)
    assert not np.array_equal(first.predictions[-1].data, mean.predictions[-1].data)


def test_synthesize_deterministic(tiny_spec, tiny_corpus):
    model = force_confident_gate(build(tiny_spec, "global"))
    utt = tiny_corpus[0]
    mel1, frames1 = model.synthesize(utt.tokens, utt.speaker)
    mel2, frames2 = model.synthesize(utt.tokens, utt.speaker)
    assert np.array_equal(mel1, mel2)
    assert np.array_equal(frames1, frames2)


@pytest.mark.parametrize("tokens", [[], [0, -1], [0, 10 ** 6]])
def test_synthesize_rejects_empty_or_unknown_tokens(tiny_spec, tokens):
    model = force_confident_gate(build(tiny_spec, "novae"))
    with pytest.raises(VocabularyError):
        model.synthesize(np.array(tokens, dtype=int), 0)


def test_fine_inference_uses_prior_rollout(tiny_spec, tiny_corpus):
    model = force_confident_gate(build(tiny_spec, "fine"))
    utt = tiny_corpus[0]
    mel1, _ = model.synthesize(utt.tokens, utt.speaker)
    model.prior_lstm.out_proj.bias.data[:] += 2.0
    mel2, _ = model.synthesize(utt.tokens, utt.speaker)
    assert not np.array_equal(mel1, mel2)


def test_global_inference_uses_speaker_prior_mean(tiny_spec, tiny_corpus):
    model = force_confident_gate(build(tiny_spec, "global"))
    utt = tiny_corpus[0]
    mel1, _ = model.synthesize(utt.tokens, utt.speaker)
    model.speaker_prior.means.data[utt.speaker] += 1.5
    mel2, _ = model.synthesize(utt.tokens, utt.speaker)
    assert not np.array_equal(mel1, mel2)
    other = (utt.speaker + 1) % model.cfg.num_speakers
    model.speaker_prior.means.data[other] += 3.0  # unrelated row: no effect
    mel3, _ = model.synthesize(utt.tokens, utt.speaker)
    assert np.array_equal(mel2, mel3)


def test_model_checkpoint_round_trip(tiny_spec, tiny_corpus, tmp_path):
    model = force_confident_gate(build(tiny_spec, "global", seed=1))
    path = tmp_path / "model.ckpt"
    write_arrays(path, model.state_arrays())
    clone = force_confident_gate(build(tiny_spec, "global", seed=2))
    utt = tiny_corpus[0]
    before, _ = clone.synthesize(utt.tokens, utt.speaker)
    clone.load_state_arrays(read_arrays(path))
    after, _ = clone.synthesize(utt.tokens, utt.speaker)
    reference, _ = model.synthesize(utt.tokens, utt.speaker)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, reference)


def test_checkpoint_keeps_each_array_at_its_width(tiny_spec, tmp_path):
    standard = build(tiny_spec, "fine", seed=1)
    write_arrays(tmp_path / "standard.ckpt", standard.state_arrays())
    back = read_arrays(tmp_path / "standard.ckpt")
    for name, own in standard.state_arrays().items():
        assert back[name].dtype == np.float32
        assert back[name].tobytes() == own.tobytes(), name

    with pt.precision("high"):
        high = build(tiny_spec, "fine", seed=2)
        write_arrays(tmp_path / "high.ckpt", high.state_arrays())
        back = read_arrays(tmp_path / "high.ckpt")
        for name, own in high.state_arrays().items():
            assert back[name].dtype == np.float64
            assert np.array_equal(back[name], own), name

        high.load_state_arrays(read_arrays(tmp_path / "standard.ckpt"))
        for name, own in high.state_arrays().items():
            assert own.dtype == np.float64
            assert np.array_equal(own, standard.state_arrays()[name]), name


def test_checkpoint_name_mismatch_rejected(tiny_spec, tmp_path):
    model = build(tiny_spec, "novae")
    arrays = model.state_arrays()
    arrays.pop(next(iter(arrays)))
    with pytest.raises(FormatError):
        model.load_state_arrays(arrays)


def test_checkpoint_shape_mismatch_rejected(tiny_spec):
    model = build(tiny_spec, "novae")
    arrays = dict(model.state_arrays())
    name = next(iter(arrays))
    arrays[name] = np.zeros(arrays[name].shape + (2,))
    with pytest.raises(FormatError, match=name):
        model.load_state_arrays(arrays)


def test_failed_load_leaves_every_parameter_unchanged(tiny_spec):
    model = build(tiny_spec, "novae")
    before = {name: arr.copy() for name, arr in model.state_arrays().items()}
    arrays = {name: arr + 1.0 for name, arr in before.items()}
    last = list(arrays)[-1]
    arrays[last] = np.zeros(arrays[last].shape + (2,))
    with pytest.raises(FormatError, match=last):
        model.load_state_arrays(arrays)
    for name, arr in model.state_arrays().items():
        assert np.array_equal(arr, before[name]), name


@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_train_step_graph_leaves_are_parameters_or_constants(tiny_spec, tiny_corpus, variant,
                                                             monkeypatch):
    from paravox import training
    model = build(tiny_spec, variant)
    cfg = tiny_train_config(variant=variant)
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    swept = {}

    def recording_backward(loss):
        swept["nodes"] = pt._topo_order(loss)
        pt.backward(loss)

    monkeypatch.setattr(training, "backward", recording_backward)
    train_step(state, make_batch(tiny_corpus), cfg, np.random.default_rng(1))
    leaves = [node for node in swept["nodes"] if not node._parents]
    constants = [node for node in leaves if node.const]
    assert constants and all(isinstance(node, pt.Parameter) or node.const for node in leaves)
    assert all(node.grad is None for node in constants)
    assert not any(isinstance(node, pt.Parameter) for node in constants)


def test_training_state_resume_is_bit_exact(tiny_spec, tiny_corpus, tmp_path):
    cfg = tiny_train_config(variant="global", total_steps=12, batch_size=4)

    def fresh_state():
        kw = tiny_model_config_kwargs(tiny_spec)
        model = SynthesisModel.build(ModelConfig(variant="global", **kw), cfg.seed)
        return TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))

    from paravox.module import RandomSource
    src = RandomSource(cfg.seed)

    straight = fresh_state()
    losses_straight = []
    for _ in range(12):
        rng = src.for_step(straight.step + 1)
        batch = select_batch(tiny_corpus, cfg, rng)
        losses_straight.append(train_step(straight, batch, cfg, rng)["total"])

    half = fresh_state()
    for _ in range(6):
        rng = src.for_step(half.step + 1)
        batch = select_batch(tiny_corpus, cfg, rng)
        train_step(half, batch, cfg, rng)
    save_state(half, tmp_path / "state.ckpt")

    resumed = fresh_state()
    load_state(resumed, tmp_path / "state.ckpt")
    assert resumed.step == 6
    losses_resumed = []
    for _ in range(6):
        rng = src.for_step(resumed.step + 1)
        batch = select_batch(tiny_corpus, cfg, rng)
        losses_resumed.append(train_step(resumed, batch, cfg, rng)["total"])
    assert losses_resumed == losses_straight[6:]


def test_failed_state_load_changes_nothing(tiny_spec, tiny_corpus, tmp_path):
    cfg = tiny_train_config(variant="global", batch_size=4)
    model = build(tiny_spec, "global")
    state = TrainState(model, NesterovMomentum(model.named_parameters(), cfg.momentum))
    for step in (1, 2):
        rng = np.random.default_rng(step)
        train_step(state, select_batch(tiny_corpus, cfg, rng), cfg, rng)
    save_state(state, tmp_path / "state.ckpt")
    good = read_arrays(tmp_path / "state.ckpt")
    before = {name: arr.copy() for name, arr in {**state.model.state_arrays(),
                                                 **state.optimizer.state_arrays()}.items()}
    # every entry differs from the state in memory, and one of them is malformed
    shifted = {name: arr + 1.0 for name, arr in good.items()}
    last = list(state.optimizer.state_arrays())[-1]
    for culprit, value in [(last, np.zeros(good[last].shape + (2,))),
                           ("meta/step", np.zeros(2)), ("meta/step", np.array(np.nan))]:
        write_arrays(tmp_path / "bad.ckpt", {**shifted, culprit: value})
        with pytest.raises(FormatError, match=re.escape(culprit)):
            load_state(state, tmp_path / "bad.ckpt")
        assert state.step == 2
        for name, arr in {**state.model.state_arrays(), **state.optimizer.state_arrays()}.items():
            assert np.array_equal(arr, before[name]), name


def test_mel_longer_than_frames_rejected_when_shorter(tiny_spec, tiny_corpus):
    model = build(tiny_spec, "novae")
    batch = make_batch(tiny_corpus[:2])
    batch.mel = batch.mel[:, :-3]
    with pytest.raises(ShapeError):
        model.forward_train(batch)
