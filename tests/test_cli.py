import json
import shutil
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from paravox import bench
from paravox.cli import EXIT_CHECK, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, main
from paravox.corpus import CorpusHeader, read_corpus
from paravox.fileformats import read_arrays, read_mel, write_arrays
from paravox.model import MAX_MEL_BINS, MAX_SPEAKERS
from paravox.training import METRIC_COLUMNS, TrainConfig, read_settings

from conftest import TINY_TRAIN_KW, ZERO_EXTENT_CKPT


def write_tiny_corpus_spec(path: Path, seed=3):
    path.write_text(
        f"num_speakers = 3\nmin_tokens = 5\nmax_tokens = 8\nmel_bins = 8\nseed = {seed}\n"
        "frame_rate = 80\n")
    return path


def write_tiny_train_config(path: Path, **overrides):
    kw = dict(TINY_TRAIN_KW)
    kw.update(total_steps=12, batch_size=4)
    kw.update(overrides)
    path.write_text("\n".join(f"{k} = {v}" for k, v in kw.items()) + "\n")
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    spec = write_tiny_corpus_spec(tmp_path / "corpus.spec")
    out = tmp_path / "corpus"
    assert main(["gen", "--spec", str(spec), "--count", "6", "--out", str(out)]) == EXIT_OK
    return out


def test_gen_outputs_and_manifest(corpus_dir):
    assert (corpus_dir / "corpus.bin").exists()
    assert (corpus_dir / "corpus.txt").exists()
    assert (corpus_dir / "phonemes.txt").exists()
    manifests = list(corpus_dir.glob("manifest*"))
    assert len(manifests) == 1
    manifest = json.loads(manifests[0].read_text())
    assert manifest["command"] == "gen"
    assert manifest["final_metrics"]["utterances"] == 6


def test_gen_same_seed_identical_files(tmp_path, corpus_dir):
    spec = write_tiny_corpus_spec(tmp_path / "again.spec")
    out2 = tmp_path / "corpus2"
    assert main(["gen", "--spec", str(spec), "--count", "6", "--out", str(out2)]) == EXIT_OK
    assert (out2 / "corpus.bin").read_bytes() == (corpus_dir / "corpus.bin").read_bytes()


def test_gen_zero_count_usage_error(tmp_path):
    rc = main(["gen", "--count", "0", "--out", str(tmp_path / "x")])
    assert rc == EXIT_USAGE


def test_gen_refuses_nonempty_out_without_force(tmp_path, corpus_dir):
    rc = main(["gen", "--count", "2", "--out", str(corpus_dir)])
    assert rc == EXIT_USAGE
    rc = main(["gen", "--count", "2", "--out", str(corpus_dir), "--force"])
    assert rc == EXIT_OK


def test_gen_bad_spec_key_is_config_error(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("bogus_key = 3\nmel_bins = owl\n")
    rc = main(["gen", "--spec", str(spec), "--count", "2", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE


def test_gen_spec_integer_field_rejects_a_float(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("seed = 1.0\n")
    rc = main(["gen", "--spec", str(spec), "--count", "2", "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "seed: expected an integer" in err and str(spec) in err


@pytest.mark.parametrize("text, named", [
    ("num_speakers = 0\nmel_bins = 0\nframe_rate = 0\nzero_duration_prob = 1.5\n",
     ["num_speakers", "mel_bins", "frame_rate", "zero_duration_prob"]),
    ("min_tokens = 0\n", ["min_tokens"]),
    ("min_tokens = 9\nmax_tokens = 4\n", ["min_tokens (9)", "max_tokens (4)"]),
], ids=["counts-and-rates", "min-tokens-zero", "min-above-max"])
def test_gen_spec_problems_listed_all_at_once(tmp_path, capsys, text, named):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    out = tmp_path / "o"
    rc = main(["gen", "--spec", str(spec), "--count", "2", "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(name in err for name in named)
    assert not out.exists()


@pytest.mark.parametrize("key, cap", [("num_speakers", MAX_SPEAKERS), ("mel_bins", MAX_MEL_BINS)])
def test_gen_spec_beyond_a_size_cap_exits_1(tmp_path, capsys, key, cap):
    spec = tmp_path / "big.spec"
    spec.write_text(f"{key} = {cap + 1}\n")
    out = tmp_path / "o"
    rc = main(["gen", "--spec", str(spec), "--count", "2", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert f"{key} must be at most {cap}, got {cap + 1}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    ("num_speakers = 1\nmin_tokens = 1\nmax_tokens = 1\n", ["max_tokens", "num_speakers"]),
    ("mel_bins = 1\nnum_speakers = 50\n", ["mel_bins", "num_speakers"]),
], ids=["too-few-distinct-utterances", "alike-templates"])
def test_gen_spec_that_cannot_give_the_count_exits_1(tmp_path, capsys, text, named):
    """Specs that pass validation but cannot yield --count utterances: a config
    error naming the keys to change, no traceback, and no --out made."""
    spec = tmp_path / "thin.spec"
    spec.write_text(text)
    out = tmp_path / "o"
    rc = main(["gen", "--spec", str(spec), "--count", "200", "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = next(line for line in err.splitlines() if line.startswith("error:"))
    assert all(name in line for name in named)
    assert not out.exists()


def test_train_synth_round_trip(tmp_path, corpus_dir):
    cfg = write_tiny_train_config(tmp_path / "run.cfg")
    run = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
               "--variant", "novae", "--out", str(run)])
    assert rc == EXIT_OK
    assert (run / "metrics.csv").exists()
    assert (run / "model.ckpt").exists()
    assert (run / "config.txt").exists()
    assert (run / "dataset.txt").exists()
    assert len(list(run.glob("manifest*"))) == 1
    rows = (run / "metrics.csv").read_text().splitlines()
    assert rows[0].startswith("step,lr,beta,total")
    assert len(rows) == 13  # header + 12 steps

    # untrained gates block synthesis: runtime error, not a crash
    mel_out = tmp_path / "synth" / "utt.mel"
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b sil k .",
               "--speaker", "1", "--out", str(mel_out)])
    assert rc == EXIT_RUNTIME

    # force the gate open by editing the checkpoint, then synthesis works
    from paravox.fileformats import read_arrays, write_arrays
    arrays = read_arrays(run / "model.ckpt")
    arrays["duration_predictor.gate_proj.bias"][:] = 8.0
    write_arrays(run / "model.ckpt", arrays)
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b sil k .",
               "--speaker", "1", "--out", str(mel_out)])
    assert rc == EXIT_OK
    mel = read_mel(mel_out)
    assert mel.shape[1] == 8
    assert mel_out.with_suffix(".mel.txt").exists()

    # bit-identical repetition
    mel_out2 = tmp_path / "synth" / "utt2.mel"
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b sil k .",
               "--speaker", "1", "--out", str(mel_out2)])
    assert rc == EXIT_OK
    assert mel_out.read_bytes()[9:] == mel_out2.read_bytes()[9:]

    # unknown phoneme symbol: usage error naming the symbol
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa qq",
               "--speaker", "1", "--out", str(tmp_path / "x.mel")])
    assert rc == EXIT_USAGE

    # empty text: usage error, not a traceback from a zero-length sequence
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "",
               "--speaker", "1", "--out", str(tmp_path / "x.mel")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "x.mel").exists()


def test_train_fine_requires_beta_keys(tmp_path, corpus_dir):
    cfg = tmp_path / "run.cfg"
    kw = {k: v for k, v in TINY_TRAIN_KW.items() if not k.startswith("kl_beta")}
    kw.update(total_steps=4, batch_size=4)
    cfg.write_text("\n".join(f"{k} = {v}" for k, v in kw.items()) + "\n")
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
               "--variant", "fine", "--out", str(tmp_path / "runf")])
    assert rc == EXIT_USAGE


def test_train_config_problems_listed_all_at_once(tmp_path, corpus_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\ntotal_steps = soon\nwarmup_steps = 50\n"
                   "decay_start = 10\ndecay_end = 40\n")
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
               "--out", str(tmp_path / "r")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bogus" in err and "total_steps" in err


def test_train_model_shape_problems_listed_before_writing(tmp_path, corpus_dir, capsys):
    # d_cond = 8 + 4 + 4 = 16 is divisible by neither 7 nor 3
    cfg = write_tiny_train_config(tmp_path / "run.cfg", dur_heads=7, dec_heads=3)
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "dur_heads (7)" in err and "heads (3)" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("d_model", 100000), ("enc_transformer_blocks", 5000000)])
def test_train_model_beyond_a_size_cap_exits_1_before_building(tmp_path, corpus_dir, capsys,
                                                               key, value):
    cfg = write_tiny_train_config(tmp_path / "run.cfg", **{key: value})
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir), "--out", str(out)])
    assert rc == EXIT_USAGE
    assert f"{key} must be at most" in capsys.readouterr().err
    assert not out.exists()


def test_train_unknown_variant_named_once_before_writing(tmp_path, corpus_dir, capsys):
    cfg = write_tiny_train_config(tmp_path / "run.cfg", variant="foo")
    out = tmp_path / "r"
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus_dir), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("variant must be one of") == 1 and "'foo'" in err
    assert not out.exists()


@pytest.mark.parametrize("target, code", [
    ("train-config", EXIT_USAGE), ("gen-spec", EXIT_USAGE), ("inventory", EXIT_RUNTIME),
], ids=["train-config", "gen-spec", "inventory"])
def test_non_utf8_text_file_is_typed_error(tmp_path, corpus_dir, capsys, target, code):
    if target == "gen-spec":
        bad = write_tiny_corpus_spec(tmp_path / "bad.spec")
        args = ["gen", "--spec", str(bad), "--count", "2"]
    else:
        cfg = write_tiny_train_config(tmp_path / "run.cfg")
        bad = cfg if target == "train-config" else corpus_dir / "phonemes.txt"
        args = ["train", "--config", str(cfg), "--corpus", str(corpus_dir)]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err
    assert not out.exists()


def test_resume_with_misshapen_velocity_is_runtime_error(tmp_path, novae_run, capsys):
    corpus, run = novae_run
    arrays = read_arrays(run / "state.ckpt")
    arrays["velocity/encoder.embedding"] = np.zeros(1)
    state = tmp_path / "state.ckpt"
    write_arrays(state, arrays)
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=4)
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus), "--variant", "novae",
               "--out", str(tmp_path / "again"), "--resume", str(state)])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(state) in err and "velocity/encoder.embedding" in err and "(1,)" in err


def test_rejected_resume_state_leaves_no_run_directory(tmp_path, novae_run, capsys):
    corpus, run = novae_run
    arrays = read_arrays(run / "state.ckpt")
    arrays["encoder.embedding"] = np.zeros(3)
    bad = tmp_path / "bad.ckpt"
    write_arrays(bad, arrays)
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=4)
    out = tmp_path / "again"
    args = ["train", "--config", str(cfg), "--corpus", str(corpus), "--variant", "novae",
            "--out", str(out), "--resume"]
    capsys.readouterr()
    assert main(args + [str(bad)]) == EXIT_RUNTIME
    assert "encoder.embedding" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + [str(run / "state.ckpt")]) == EXIT_OK
    assert (out / "state.ckpt").exists()


def assert_bad_checkpoint_exits_2(tmp_path, novae_run, capsys, data: bytes, named: str):
    """``synth --ckpt`` and ``train --resume`` of ``data`` both exit 2 naming
    the file and ``named``, and write nothing."""
    corpus, run = novae_run
    run = shutil.copytree(run, tmp_path / "run")
    (run / "model.ckpt").write_bytes(data)
    capsys.readouterr()
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b",
               "--speaker", "0", "--out", str(tmp_path / "x.mel")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(run / "model.ckpt") in err and named in err
    assert not (tmp_path / "x.mel").exists()

    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=4)
    out = tmp_path / "again"
    rc = main(["train", "--config", str(cfg), "--corpus", str(corpus), "--variant", "novae",
               "--out", str(out), "--resume", str(run / "model.ckpt")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(run / "model.ckpt") in err and named in err
    assert not out.exists()


def test_checkpoint_of_impossible_extents_exits_2(tmp_path, novae_run, capsys):
    assert_bad_checkpoint_exits_2(tmp_path, novae_run, capsys, ZERO_EXTENT_CKPT, "record 'w'")


def test_version_1_checkpoint_exits_2(tmp_path, novae_run, capsys):
    current = (novae_run[1] / "state.ckpt").read_bytes()
    assert_bad_checkpoint_exits_2(tmp_path, novae_run, capsys,
                                  current[:8] + bytes([1]) + current[9:], "version 1")


def test_train_resume_from_model_checkpoint_is_runtime_error(tmp_path, corpus_dir, capsys):
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=2)
    run = tmp_path / "run"
    args = ["train", "--config", str(cfg), "--corpus", str(corpus_dir), "--variant", "novae"]
    assert main(args + ["--out", str(run)]) == EXIT_OK
    rc = main(args + ["--out", str(tmp_path / "again"), "--resume", str(run / "model.ckpt")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(run / "model.ckpt") in err and "meta/step" in err


def test_checkpoint_of_another_variant_is_runtime_error(tmp_path, corpus_dir, capsys):
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=2)
    args = ["train", "--config", str(cfg), "--corpus", str(corpus_dir)]
    novae, glob = tmp_path / "novae", tmp_path / "global"
    assert main(args + ["--variant", "novae", "--out", str(novae)]) == EXIT_OK
    assert main(args + ["--variant", "global", "--out", str(glob)]) == EXIT_OK
    capsys.readouterr()

    rc = main(args + ["--variant", "novae", "--out", str(tmp_path / "again"),
                      "--resume", str(glob / "state.ckpt")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(glob / "state.ckpt") in err and "unexpected" in err

    (novae / "model.ckpt").write_bytes((glob / "model.ckpt").read_bytes())
    rc = main(["synth", "--ckpt", str(novae / "model.ckpt"), "--text", "aa b",
               "--speaker", "0", "--out", str(tmp_path / "x.mel")])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert str(novae / "model.ckpt") in err and "unexpected" in err
    assert not (tmp_path / "x.mel").exists()


def test_synth_validates_run_config(tmp_path, corpus_dir, capsys):
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=2)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus_dir),
                 "--variant", "novae", "--out", str(run)]) == EXIT_OK
    config = run / "config.txt"
    lines = config.read_text().splitlines()
    edits = {"dur_heads": "7", "dec_heads": "3"}
    config.write_text("\n".join(
        f"{key} = {edits[key]}" if (key := line.split(" = ")[0]) in edits else line
        for line in lines) + "\n")
    capsys.readouterr()
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b",
               "--speaker", "0", "--out", str(tmp_path / "x.mel")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "dur_heads (7)" in err and "heads (3)" in err and str(config) in err


@pytest.fixture(scope="module")
def novae_run(tmp_path_factory):
    """A two-step novae run directory; tests copy it before editing."""
    root = tmp_path_factory.mktemp("novae_run")
    corpus = root / "corpus"
    spec = write_tiny_corpus_spec(root / "corpus.spec")
    assert main(["gen", "--spec", str(spec), "--count", "6", "--out", str(corpus)]) == EXIT_OK
    cfg = write_tiny_train_config(root / "run.cfg", total_steps=2)
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                 "--variant", "novae", "--out", str(run)]) == EXIT_OK
    return corpus, run


def test_train_writes_settings_that_read_back(novae_run):
    corpus, run = novae_run
    expected = TrainConfig(**dict(TINY_TRAIN_KW, total_steps=2, batch_size=4, variant="novae"))
    assert (run / "config.txt").read_text() == "".join(
        f"{f.name} = {getattr(expected, f.name)}\n" for f in fields(TrainConfig))
    assert TrainConfig.from_file(run / "config.txt") == expected
    _, header = read_corpus(corpus / "corpus.bin")
    assert (run / "dataset.txt").read_text() == (
        "frame_rate = 80.0\nmel_bins = 8\nvocab_size = 28\nnum_speakers = 3\n")
    assert read_settings(run / "dataset.txt", CorpusHeader) == header


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace("vocab_size = 28\n", ""), "missing required keys ['vocab_size']"),
    (lambda text: text.replace("mel_bins = 8", "mel_bins = eight"), "mel_bins: expected an integer"),
    (lambda text: text + "sample_rate = 16000\n", "unknown key 'sample_rate'"),
    (lambda text: text.replace("frame_rate = 80.0", "frame_rate = nan"),
     "frame_rate: expected a finite number"),
], ids=["missing-key", "not-a-number", "unknown-key", "not-finite"])
def test_synth_rejects_bad_dataset_file(tmp_path, novae_run, capsys, edit, named):
    run = shutil.copytree(novae_run[1], tmp_path / "run")
    dataset = run / "dataset.txt"
    dataset.write_text(edit(dataset.read_text()))
    out = tmp_path / "synth"
    capsys.readouterr()
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b",
               "--speaker", "0", "--out", str(out / "x.mel")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(dataset) in err and named in err
    assert not out.exists()


def test_resume_into_fresh_out_writes_metrics_header(tmp_path, novae_run):
    corpus, run = novae_run  # stopped after step 2
    cfg = write_tiny_train_config(tmp_path / "run.cfg", total_steps=4)
    out = tmp_path / "again"
    assert main(["train", "--config", str(cfg), "--corpus", str(corpus), "--variant", "novae",
                 "--out", str(out), "--resume", str(run / "state.ckpt")]) == EXIT_OK
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


def test_train_on_corpus_with_wrong_duration_sum_exits_2(tmp_path, corpus_dir, capsys):
    path = corpus_dir / "corpus.bin"
    utts, _ = read_corpus(path)
    first, second = utts[0], utts[1]
    # header (33 bytes), utterance 0, then utterance 1's speaker, count and tokens
    offset = 33 + 12 + 8 * len(first.tokens) + 8 * first.mel.size + 8 + 4 * len(second.tokens)
    data = bytearray(path.read_bytes())
    data[offset] ^= 1  # flip the low bit of utterance 1's first duration
    path.write_bytes(bytes(data))
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus_dir), "--out", str(out), "--steps", "2"])
    assert rc == EXIT_RUNTIME
    assert "utterance 1 " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("offset, value, named", [(0, 5, "speaker 5"), (8, 200, "token 200")])
def test_train_on_corpus_with_out_of_range_id_exits_2(tmp_path, corpus_dir, capsys, offset,
                                                      value, named):
    path = corpus_dir / "corpus.bin"
    data = bytearray(path.read_bytes())
    # utterance 0 starts after the 33-byte header: speaker, token count, then tokens
    struct.pack_into("<I", data, 33 + offset, value)
    path.write_bytes(bytes(data))
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus_dir), "--out", str(out), "--steps", "2"])
    assert rc == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "utterance 0 " in err and named in err
    assert not out.exists()


def test_train_on_corpus_with_implausible_speaker_count_exits_1(tmp_path, corpus_dir, capsys):
    path = corpus_dir / "corpus.bin"
    data = bytearray(path.read_bytes())
    # num_speakers follows the magic, version, frame rate, mel_bins and vocab_size
    struct.pack_into("<I", data, 25, 2 ** 31 - 1)
    path.write_bytes(bytes(data))
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--corpus", str(corpus_dir), "--out", str(out), "--steps", "2"])
    assert rc == EXIT_USAGE
    assert f"num_speakers must be at most {MAX_SPEAKERS}, got {2 ** 31 - 1}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, cap", [("num_speakers", MAX_SPEAKERS), ("mel_bins", MAX_MEL_BINS)])
def test_synth_with_implausible_dataset_size_exits_1(tmp_path, novae_run, capsys, key, cap):
    run = shutil.copytree(novae_run[1], tmp_path / "run")
    dataset = run / "dataset.txt"
    settings = dict(line.split(" = ") for line in dataset.read_text().splitlines())
    settings[key] = str(2 ** 31 - 1)
    dataset.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    out = tmp_path / "synth"
    capsys.readouterr()
    rc = main(["synth", "--ckpt", str(run / "model.ckpt"), "--text", "aa b",
               "--speaker", "0", "--out", str(out / "x.mel")])
    assert rc == EXIT_USAGE
    assert f"{key} must be at most {cap}, got {2 ** 31 - 1}" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_reproduces_trajectory(tmp_path, corpus_dir):
    cfg_full = write_tiny_train_config(tmp_path / "full.cfg", total_steps=12)
    run_a = tmp_path / "run_a"
    assert main(["train", "--config", str(cfg_full), "--corpus", str(corpus_dir),
                 "--variant", "novae", "--out", str(run_a)]) == EXIT_OK

    cfg_half = write_tiny_train_config(tmp_path / "half.cfg", total_steps=6)
    run_b1 = tmp_path / "run_b1"
    assert main(["train", "--config", str(cfg_half), "--corpus", str(corpus_dir),
                 "--variant", "novae", "--out", str(run_b1)]) == EXIT_OK

    run_b2 = tmp_path / "run_b2"
    assert main(["train", "--config", str(cfg_full), "--corpus", str(corpus_dir),
                 "--variant", "novae", "--out", str(run_b2),
                 "--resume", str(run_b1 / "state.ckpt")]) == EXIT_OK

    def rows_by_step(path):
        lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("step,")]
        return {line.split(",")[0]: line for line in lines}

    full_rows = rows_by_step(run_a / "metrics.csv")
    resumed_rows = rows_by_step(run_b2 / "metrics.csv")
    assert set(resumed_rows) == {"7", "8", "9", "10", "11", "12"}
    for step, line in resumed_rows.items():
        assert full_rows[step] == line


def test_gradcheck_scoped_module(capsys):
    rc = main(["gradcheck", "--module", "upsampler"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "upsampler" in out and "ok" in out
    assert "decoder" not in out


def test_gradcheck_injected_fault_exits_nonzero(monkeypatch, capsys):
    # corrupt one backward closure: the checker must flag it and exit 3
    import paravox.checks as checks
    import paravox.tensor as pt
    from paravox.gradcheck import grad_check
    from paravox.tensor import Parameter, Tensor

    def broken_check():
        w = Parameter(np.array([[1.0, 2.0]]))
        x = Tensor(np.array([[0.5], [1.5]]))

        def scaled(p):  # backward deliberately off by 1%
            return Tensor(p.data.copy(), (p,), lambda g: p._accum(1.01 * g))

        def loss():
            y = pt.matmul(x, scaled(w))
            return (y * y).sum()

        return grad_check(loss, {"w": w})

    monkeypatch.setitem(checks.REGISTRY, "upsampler", broken_check)
    rc = main(["gradcheck", "--module", "upsampler"])
    assert rc == EXIT_CHECK
    assert "FAIL" in capsys.readouterr().out


def test_bench_csv_and_validation(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--decoder", "lconv,ar-sim", "--frames", "8,16", "--repeats", "2",
               "--d-model", "16", "--blocks", "1", "--kernel", "3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "decoder,frames,mean_ms,stddev_ms,madds"
    assert len(lines) == 5
    rc = main(["bench", "--decoder", "wavenet", "--frames", "8"])
    assert rc == EXIT_USAGE
    rc = main(["bench", "--frames", "8", "--repeats", "0", "--d-model", "16"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("flags, named", [
    (["--d-model", "7"], ["--d-model"]),
    (["--blocks", "0"], ["--blocks"]),
    (["--kernel", "4"], ["--kernel"]),
    (["--d-model", "0", "--blocks", "-1", "--kernel", "0"], ["--d-model", "--blocks", "--kernel"]),
    (["--d-model", "100000"], ["--d-model"]),
    (["--blocks", "65"], ["--blocks"]),
    (["--kernel", "67"], ["--kernel"]),
    (["--d-model", "2056", "--blocks", "5000000", "--kernel", "99", "--frames", "100001"],
     ["--d-model", "--blocks", "--kernel", "--frames"]),
], ids=["d-model", "blocks", "kernel", "all-three", "d-model-cap", "blocks-cap", "kernel-cap",
        "all-caps"])
def test_bench_rejects_bad_sizes_together(flags, named, capsys):
    rc = main(["bench", "--decoder", "ar-sim", "--frames", "8", "--repeats", "1"] + flags)
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and all(flag in err for flag in named)


@pytest.mark.parametrize("frames", ["abc", "-3", "0", "8,0", "8,", "", "100001", "8,100000000"])
@pytest.mark.parametrize("decoder", ["lconv", "transformer", "ar-sim"])
def test_bench_rejects_bad_frame_counts(decoder, frames, capsys):
    rc = main(["bench", "--decoder", decoder, "--frames", frames, "--repeats", "1",
               "--d-model", "16", "--blocks", "1", "--kernel", "3"])
    assert rc == EXIT_USAGE
    assert "--frames" in capsys.readouterr().err


@pytest.mark.parametrize("decoder, frames", [
    ("transformer", "4097"), ("transformer", "100000"), ("lconv,transformer", "8,4097"),
])
def test_bench_caps_transformer_frames_by_its_score_budget(decoder, frames, capsys):
    # one float32 [1, 8, T, T] score array stays within bench.SCORE_BUDGET_BYTES
    assert bench.MAX_TRANSFORMER_FRAMES == 4096
    assert bench.HEADS * 4 * bench.MAX_TRANSFORMER_FRAMES ** 2 <= bench.SCORE_BUDGET_BYTES
    assert bench.HEADS * 4 * (bench.MAX_TRANSFORMER_FRAMES + 1) ** 2 > bench.SCORE_BUDGET_BYTES
    defaults = build_parser().parse_args(["bench"]).frames.split(",")
    assert max(map(int, defaults)) <= bench.MAX_TRANSFORMER_FRAMES
    rc = main(["bench", "--decoder", decoder, "--frames", frames, "--repeats", "1",
               "--d-model", "7", "--blocks", "1", "--kernel", "1"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--d-model" in err
    assert "--frames must be at most 4096 for the transformer" in err


def test_missing_corpus_is_runtime_error(tmp_path):
    rc = main(["train", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "r"),
               "--steps", "2"])
    assert rc == EXIT_RUNTIME


def test_unknown_subcommand_usage(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
