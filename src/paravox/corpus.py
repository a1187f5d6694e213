"""Deterministic synthetic phoneme -> mel-spectrogram corpus.

Each (phoneme, speaker) pair owns a smooth spectral template and a base
duration; silence and punctuation tokens get zero duration with a configured
probability, decided as a pure function of (seed, token, speaker, position)
so identical (text, speaker) inputs always reproduce identical targets.
Targets are template concatenations with 2-frame linear cross-fades and a
mild speaker-dependent amplitude envelope, clipped to [0, 1] and rounded to
float32, the precision the model trains in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, VocabularyError
from .fileformats import CORPUS_MAGIC, VERSION, _Reader, _check_header, _u32
from .model import size_cap_problems

PHONEMES = ["aa", "ae", "ah", "ao", "aw", "ay", "eh", "er", "ey", "ih", "iy", "ow",
            "oy", "uh", "uw", "b", "d", "f", "g", "k", "m", "n", "s", "t"]
SILENCE = "sil"
PUNCTUATION = [".", ",", "?"]


@dataclass
class CorpusSpec:
    num_speakers: int = 4
    min_tokens: int = 6
    max_tokens: int = 14
    frame_rate: float = 80.0
    mel_bins: int = 128
    seed: int = 0
    zero_duration_prob: float = 0.3
    envelope_depth: float = 0.04

    def validate(self) -> list[str]:
        problems = [f"{name} must be >= 1" for name in ("num_speakers", "mel_bins", "min_tokens")
                    if getattr(self, name) < 1]
        if self.min_tokens > self.max_tokens:
            problems.append(f"min_tokens ({self.min_tokens}) must not exceed "
                            f"max_tokens ({self.max_tokens})")
        if self.frame_rate <= 0:
            problems.append("frame_rate must be positive")
        if not 0.0 <= self.zero_duration_prob <= 1.0:
            problems.append(f"zero_duration_prob must lie in [0, 1], got {self.zero_duration_prob}")
        return problems + size_cap_problems(self)

    @property
    def vocabulary(self) -> list[str]:
        return PHONEMES + [SILENCE] + PUNCTUATION

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)

    @property
    def silence_id(self) -> int:
        return len(PHONEMES)

    @property
    def optional_ids(self) -> list[int]:
        """Silence and punctuation: the tokens that may carry zero duration."""
        return list(range(len(PHONEMES), self.vocab_size))


@dataclass
class Utterance:
    tokens: np.ndarray     # [N] ints
    speaker: int
    durations: np.ndarray  # [N] ints, frames per token (0 allowed)
    mel: np.ndarray        # [sum(durations), mel_bins] float32 in [0, 1]

    def __eq__(self, other):
        return (np.array_equal(self.tokens, other.tokens)
                and self.speaker == other.speaker
                and np.array_equal(self.durations, other.durations)
                and np.array_equal(self.mel, other.mel))


@dataclass
class SyntheticRules:
    spec: CorpusSpec
    templates: np.ndarray      # [V, S, bins]
    base_frames: np.ndarray    # [V] ints
    speaker_scale: np.ndarray  # [S]
    envelope: list = field(default_factory=list)  # per speaker (period, phase)

    @classmethod
    def build(cls, spec: CorpusSpec) -> "SyntheticRules":
        rng = np.random.default_rng((spec.seed, 1))
        v, s, bins = spec.vocab_size, spec.num_speakers, spec.mel_bins
        centers = rng.uniform(0, bins, size=(v, s, 3))
        widths = rng.uniform(max(1.0, 0.03 * bins), max(2.0, 0.15 * bins), size=(v, s, 3))
        amps = rng.uniform(0.25, 0.8, size=(v, s, 3))
        grid = np.arange(bins)[None, None, None, :]
        bumps = amps[..., None] * np.exp(-0.5 * ((grid - centers[..., None]) / widths[..., None]) ** 2)
        templates = np.clip(0.05 + bumps.sum(axis=2), 0.0, 1.0)
        base = rng.integers(2, 7, size=v)
        base[len(PHONEMES):] = rng.integers(1, 4, size=v - len(PHONEMES))
        scale = rng.uniform(0.8, 1.25, size=s)
        envelope = [(rng.uniform(30, 70), rng.uniform(0, 2 * np.pi)) for _ in range(s)]
        return cls(spec, templates, base, scale, envelope)

    def min_template_distance(self) -> float:
        flat = self.templates.reshape(-1, self.spec.mel_bins)
        best = np.inf
        for i in range(len(flat)):
            d = np.abs(flat[i + 1:] - flat[i]).mean(axis=1)
            if d.size:
                best = min(best, d.min())
        return float(best)

    def zero_decision(self, token: int, speaker: int, position: int) -> bool:
        if token not in self.spec.optional_ids:
            return False
        draw = np.random.default_rng((self.spec.seed, 3, int(token), int(speaker),
                                      int(position))).random()
        return bool(draw < self.spec.zero_duration_prob)

    def duration_of(self, token: int, speaker: int, position: int) -> int:
        if self.zero_decision(token, speaker, position):
            return 0
        return max(1, round(float(self.base_frames[token]) * float(self.speaker_scale[speaker])))

    def render(self, tokens: np.ndarray, speaker: int) -> tuple[np.ndarray, np.ndarray]:
        """Durations and target mel for a token sequence: the corpus is a function."""
        durations = np.array([self.duration_of(t, speaker, i) for i, t in enumerate(tokens)])
        segments = [(self.templates[t, speaker], d) for t, d in zip(tokens, durations) if d > 0]
        rows = []
        for idx, (profile, d) in enumerate(segments):
            block = np.tile(profile, (d, 1))
            if idx > 0:
                prev = segments[idx - 1][0]
                block[0] = (prev + 2 * profile) / 3.0
                rows[-1] = (2 * segments[idx - 1][0] + profile) / 3.0
            rows.extend(block)
        mel = np.array(rows) if rows else np.zeros((0, self.spec.mel_bins))
        period, phase = self.envelope[speaker]
        t = np.arange(mel.shape[0])
        amp = 1.0 + self.spec.envelope_depth * np.sin(2 * np.pi * t / period + phase)
        return durations, np.clip(mel * amp[:, None], 0.0, 1.0).astype(np.float32)


def generate(spec: CorpusSpec, count: int) -> list[Utterance]:
    """Sample utterances: words joined by silences, closed by punctuation.

    ConfigError when the spec cannot give ``count`` utterances: two spectral
    templates too alike to tell apart, or no fresh utterance left to sample.
    """
    if count < 1:
        raise ValueError(f"corpus size must be >= 1, got {count}")
    rules = SyntheticRules.build(spec)
    distance = rules.min_template_distance()
    if distance < 0.005:
        raise ConfigError([
            f"two spectral templates are alike (mean distance {distance:.2g} < 0.005); "
            f"raise mel_bins, lower num_speakers or change seed"])
    utterances = []
    seen = set()
    for index in range(count):
        for attempt in range(100):
            rng = np.random.default_rng((spec.seed, 2, index, attempt))
            tokens = _sample_tokens(spec, rng)
            speaker = int(rng.integers(0, spec.num_speakers))
            key = (tuple(tokens), speaker)
            if key in seen:
                continue
            durations, mel = rules.render(tokens, speaker)
            if durations.sum() == 0:
                continue
            seen.add(key)
            utterances.append(Utterance(tokens, speaker, durations, mel))
            break
        else:
            raise ConfigError([
                f"no fresh utterance for #{index + 1} of {count} after 100 attempts; raise "
                f"max_tokens or num_speakers, lower zero_duration_prob or ask for fewer "
                f"utterances"])
    return utterances


def _sample_tokens(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    target = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
    tokens: list[int] = []
    while len(tokens) < target - 1:
        word_len = int(rng.integers(1, 5))
        tokens.extend(int(rng.integers(0, len(PHONEMES))) for _ in range(word_len))
        tokens.append(spec.silence_id)
    if tokens and tokens[-1] == spec.silence_id:
        tokens.pop()
    punct = len(PHONEMES) + 1 + int(rng.integers(0, len(PUNCTUATION)))
    tokens.append(punct)
    return np.array(tokens, dtype=int)


def tokens_to_symbols(tokens, spec: CorpusSpec) -> list[str]:
    vocab = spec.vocabulary
    return [vocab[t] for t in tokens]


def symbols_to_tokens(symbols: list[str], vocabulary: list[str]) -> np.ndarray:
    index = {s: i for i, s in enumerate(vocabulary)}
    ids = []
    for s in symbols:
        if s not in index:
            raise VocabularyError(f"unknown phoneme symbol {s!r}")
        ids.append(index[s])
    return np.array(ids, dtype=int)


# -- inventory file (one symbol per line; index = line number) ---------------------

def write_inventory(path, vocabulary: list[str]) -> None:
    Path(path).write_text("\n".join(vocabulary) + "\n", encoding="utf-8")


def read_inventory(path) -> list[str]:
    """One symbol per non-empty line of UTF-8 text; FormatError otherwise."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return [line for line in text.splitlines() if line != ""]


# -- corpus container ----------------------------------------------------------------

def write_corpus(path, utterances: list[Utterance], spec: CorpusSpec) -> None:
    chunks = [CORPUS_MAGIC, bytes([VERSION]), struct.pack("<d", spec.frame_rate),
              _u32(spec.mel_bins), _u32(spec.vocab_size), _u32(spec.num_speakers),
              _u32(len(utterances))]
    for utt in utterances:
        if utt.mel.shape != (int(utt.durations.sum()), spec.mel_bins):
            raise FormatError(
                f"utterance mel shape {utt.mel.shape} does not match durations/bins")
        chunks.append(_u32(utt.speaker))
        chunks.append(_u32(len(utt.tokens)))
        chunks.append(np.asarray(utt.tokens, dtype="<u4").tobytes())
        chunks.append(np.asarray(utt.durations, dtype="<u4").tobytes())
        chunks.append(_u32(utt.mel.shape[0]))
        chunks.append(np.asarray(utt.mel, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


@dataclass
class CorpusHeader:
    frame_rate: float
    mel_bins: int
    vocab_size: int
    num_speakers: int


def read_corpus(path) -> tuple[list[Utterance], CorpusHeader]:
    r = _Reader(Path(path).read_bytes(), f"corpus {path}")
    _check_header(r, CORPUS_MAGIC)
    header = CorpusHeader(r.f64(), r.u32(), r.u32(), r.u32())
    out = []
    for i in range(r.u32()):
        speaker = r.u32()
        n = r.u32()
        tokens = r.u32_array(n)
        durations = r.u32_array(n)
        frames = r.u32()
        if speaker >= header.num_speakers:
            raise FormatError(f"{r.label}: utterance {i} has speaker {speaker} but the header "
                              f"declares {header.num_speakers} speakers")
        if n and tokens.max() >= header.vocab_size:
            raise FormatError(f"{r.label}: utterance {i} has token {tokens.max()} outside the "
                              f"vocabulary of {header.vocab_size}")
        if durations.sum() != frames:
            raise FormatError(f"{r.label}: utterance {i} has durations summing to "
                              f"{durations.sum()} frames but {frames} mel frames")
        mel = r.float_array((frames, header.mel_bins), f"utterance {i}", dtype=np.float32)
        out.append(Utterance(tokens, speaker, durations, mel))
    return out, header


def write_corpus_text(path, utterances: list[Utterance], spec: CorpusSpec) -> None:
    """Human-readable dump: symbols, durations, frame totals per utterance."""
    with open(path, "w") as fh:
        for i, utt in enumerate(utterances):
            fh.write(f"utterance {i} speaker {utt.speaker} frames {int(utt.durations.sum())}\n")
            fh.write("  tokens:    " + " ".join(tokens_to_symbols(utt.tokens, spec)) + "\n")
            fh.write("  durations: " + " ".join(str(int(d)) for d in utt.durations) + "\n")
