"""The four workloads, each built from the workload seed through paravox's public API.

Every workload is a closed loop over a fixed cycle of operations (see
``harness.closed_loop``).  ``setup`` picks the inputs from a corpus pool and
builds the models, reading checkpoints for the forward-only workloads; it is
what ``setup_s`` times.  The pool and the checkpoints depend on no workload
seed, so each process makes them once, in a first set-up that is not timed.  Each operation's ``check`` judges its output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from paravox import corpus, fileformats, training
from paravox.corpus import CorpusSpec
from paravox.model import SynthesisModel
from paravox.module import RandomSource
from paravox.training import TrainConfig

from harness import Op, Outcome

VARIANTS = ("novae", "global", "fine")
MEL_BINS = 128
NUM_SPEAKERS = 4


def _acceptance_gate():
    """tests/test_acceptance.py, loaded as a module for its ``overfit_config``."""
    path = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


overfit_config = _acceptance_gate().overfit_config

# Training restarts every variant from its fresh seeded state after this many
# steps.  Every run then trains the same steps, and the check that a round's
# last loss is below its first never lands in the loss spike that the fine
# variant's KL warm-up (from step 60) causes.
ROUND_STEPS = 30

# The corpus rules (spectral templates and the per-phoneme duration table) come
# from this seed, the acceptance corpus seed.  Rules drawn from the workload
# seed would change frames per token by up to +-20% between seeds (2.7 to 4.2
# over seeds 1-20), so the seed, not the code, would move every timing.
RULES_SEED = 7
POOL_PER_PICK = 8
SIZE_TOLERANCE = 0.02   # a pick may differ from its target size by this share

# Fixed duration heads for the forward-only workloads: the gate always passes
# (sigmoid(10) > the 0.99 threshold) and every token lasts FRAMES_PER_TOKEN
# frames, so output length depends on the input alone.
FRAMES_PER_TOKEN = 4
GATE_BIAS = 10.0


def train_config(variant: str, batch_size: int) -> TrainConfig:
    """The acceptance overfit model and schedule with the lconv decoder."""
    return dataclasses.replace(overfit_config(variant), decoder="lconv", batch_size=batch_size)


def corpus_spec(min_tokens: int, max_tokens: int) -> CorpusSpec:
    return CorpusSpec(num_speakers=NUM_SPEAKERS, min_tokens=min_tokens, max_tokens=max_tokens,
                      mel_bins=MEL_BINS, seed=RULES_SEED)


def n_frames(utt) -> int:
    return int(utt.durations.sum())


def n_tokens(utt) -> int:
    return len(utt.tokens)


@dataclass(frozen=True)
class Inputs:
    """A workload's utterances: ``count`` of them, with ``min_tokens`` to
    ``max_tokens`` tokens, spread evenly over ``size`` (frames or tokens)."""
    min_tokens: int
    max_tokens: int
    count: int
    size: Callable

    def spec(self) -> CorpusSpec:
        return corpus_spec(self.min_tokens, self.max_tokens)

    @cache
    def pool(self) -> list:
        """The corpus the seed picks from; it depends on RULES_SEED alone."""
        return corpus.generate(self.spec(), POOL_PER_PICK * self.count)

    def draw(self, seed: int) -> list:
        """One utterance at each of ``count`` evenly spaced quantiles of ``size``
        over the pool; the seed picks among those within SIZE_TOLERANCE of it.

        The sizes, and so the work, barely change from seed to seed.
        """
        pool = self.pool()
        sizes = np.array([self.size(u) for u in pool])
        targets = np.sort(sizes)[POOL_PER_PICK // 2::POOL_PER_PICK]
        rng = np.random.default_rng(seed)
        free = np.ones(len(pool), dtype=bool)
        picked = []
        for target in targets:
            gap = np.where(free, np.abs(sizes - target), np.iinfo(np.int64).max)
            candidates = np.flatnonzero(gap <= max(gap.min(), SIZE_TOLERANCE * target))
            choice = int(candidates[rng.integers(len(candidates))])
            free[choice] = False
            picked.append(pool[choice])
        return picked


@dataclass
class Job:
    """One set-up workload: its operation cycle and the utterances the seed picked."""
    cycle: list[Op]
    inputs: list


# -- training -------------------------------------------------------------------------

class TrainRun:
    """One variant trained in rounds of ROUND_STEPS steps, each round from a
    fresh seeded state; one step per call."""

    def __init__(self, variant: str, utts, spec: CorpusSpec, batch_size: int):
        self.cfg = train_config(variant, batch_size)
        self.utts = utts
        self.spec = spec
        self.restart()

    def restart(self) -> None:
        spec = self.spec
        self.state = training.build_state(self.cfg, spec.vocab_size, spec.num_speakers,
                                          spec.mel_bins, spec.frame_rate)
        self.source = RandomSource(self.cfg.seed)
        self.losses: list[float] = []

    def step(self):
        rng = self.source.for_step(self.state.step + 1)
        batch = training.select_batch(self.utts, self.cfg, rng)
        return batch, training.train_step(self.state, batch, self.cfg, rng)

    def check(self, out) -> Outcome:
        """Every loss is finite; at the end of a round, the last loss is below the
        first, and the next round starts (untimed) from a fresh state."""
        batch, row = out
        loss = row["total"]
        self.losses.append(loss)
        variant = self.cfg.variant
        if not np.isfinite(loss):
            return Outcome(error=f"{variant}: non-finite loss {loss!r} at step {row['step']}")
        if len(self.losses) == ROUND_STEPS:
            first = self.losses[0]
            self.restart()
            if not loss < first:
                return Outcome(error=f"{variant}: loss {loss!r} at step {ROUND_STEPS} is not "
                                     f"below the step-1 loss {first!r}")
        return Outcome(frames=batch.n_valid_frames, utts=len(batch.speakers), fingerprint=loss)


@dataclass
class TrainWorkload:
    name: str
    inputs: Inputs
    batch_size: int
    kind: str = "train"

    def setup(self, seed: int, workdir: Path) -> Job:
        utts = self.inputs.draw(seed)
        runs = [TrainRun(v, utts, self.inputs.spec(), self.batch_size) for v in VARIANTS]
        return Job([Op(r.cfg.variant, r.step, r.check) for r in runs], utts)


# -- forward-only: synthesis and evaluation ----------------------------------------------

def fixed_head_arrays(model: SynthesisModel) -> dict[str, np.ndarray]:
    """Duration-head parameters for a constant gate pass and FRAMES_PER_TOKEN frames."""
    rate = model.cfg.frame_rate
    own = dict(model.named_parameters())
    head = "duration_predictor."
    return {
        head + "gate_proj.weight": np.zeros_like(own[head + "gate_proj.weight"].data),
        head + "gate_proj.bias": np.full_like(own[head + "gate_proj.bias"].data, GATE_BIAS),
        head + "seconds_proj.weight": np.zeros_like(own[head + "seconds_proj.weight"].data),
        # softplus(bias) = FRAMES_PER_TOKEN / rate seconds
        head + "seconds_proj.bias": np.full(own[head + "seconds_proj.bias"].shape,
                                            np.log(np.expm1(FRAMES_PER_TOKEN / rate))),
    }


def model_config(variant: str):
    spec = corpus_spec(5, 60)
    return train_config(variant, 16).model_config(spec.vocab_size, spec.num_speakers,
                                                  spec.mel_bins, spec.frame_rate)


@cache
def checkpoints(workdir: Path) -> dict[str, Path]:
    """One seeded model per variant, written to ``workdir`` as training writes a
    checkpoint.  They depend on no workload seed, so a process writes them once."""
    paths = {}
    for variant in VARIANTS:
        paths[variant] = workdir / f"{variant}.ckpt"
        model = SynthesisModel.build(model_config(variant), overfit_config(variant).seed)
        fileformats.write_arrays(paths[variant], model.state_arrays())
    return paths


def fixed_head_models(workdir: Path) -> dict[str, SynthesisModel]:
    """One model per variant, loaded from its checkpoint as ``paravox synth``
    loads one, with fixed duration heads."""
    models = {}
    for variant, path in checkpoints(workdir).items():
        arrays = fileformats.read_arrays(path)
        model = SynthesisModel.build(model_config(variant), overfit_config(variant).seed)
        arrays.update(fixed_head_arrays(model))
        model.load_state_arrays(arrays)
        models[variant] = model
    return models


def fingerprint(mel: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(mel).tobytes(), digest_size=16).hexdigest()


# The entry points are looked up on each call, so a run set up before tracing
# starts never calls a wrapper, and one set up under tracing never misses one.
def _synthesize(model, tokens, speaker):
    return model.synthesize(tokens, speaker)


def _evaluate(model, chunk, mode):
    return training.evaluate(model, chunk, mode=mode, batch_size=len(chunk))


def check_synth(tokens: int, out) -> Outcome:
    mel, frames = out
    want = FRAMES_PER_TOKEN * tokens
    if mel.shape != (want, MEL_BINS) or frames.tolist() != [FRAMES_PER_TOKEN] * tokens:
        return Outcome(error=f"synth: {tokens} tokens gave mel {mel.shape} and durations "
                             f"{frames.tolist()}; expected {want} frames")
    if not np.isfinite(mel).all():
        return Outcome(error="synth: non-finite mel values")
    return Outcome(frames=float(want), utts=1, fingerprint=fingerprint(mel))


@dataclass
class SynthWorkload:
    name: str = "synth"
    kind: str = "synth"
    inputs: Inputs = Inputs(5, 60, 12 * len(VARIANTS), n_tokens)

    def setup(self, seed: int, workdir: Path) -> Job:
        models = fixed_head_models(workdir)
        utts = self.inputs.draw(seed)
        cycle = []
        for i, utt in enumerate(utts):
            variant = VARIANTS[i % len(VARIANTS)]
            run = partial(_synthesize, models[variant], utt.tokens, utt.speaker)
            cycle.append(Op(variant, run, partial(check_synth, n_tokens(utt))))
        return Job(cycle, utts)


def expected_eval(chunk) -> dict:
    """Metrics ``training.evaluate`` must report for fixed heads, by the same arithmetic."""
    tokens = sum(n_tokens(u) for u in chunk)
    hits = sum(int((u.durations > 0).sum()) for u in chunk)
    frame_err = 0.0
    length_err = 0.0
    for u in chunk:
        frame_err += float(np.abs(FRAMES_PER_TOKEN - u.durations).sum())
        length_err += abs(FRAMES_PER_TOKEN * n_tokens(u) - n_frames(u))
    return {"gate_accuracy": hits / tokens, "frame_mae": frame_err / tokens,
            "length_error_mean": length_err / len(chunk), "degenerate": 0}


def check_eval(chunk, mode: str, out) -> Outcome:
    want = expected_eval(chunk)
    if mode == "teacher":
        want["length_error_mean"] = 0.0
    wrong = {k: (out[k], v) for k, v in want.items() if out[k] != v}
    if wrong or not np.isfinite(out["spec_l1"]):
        return Outcome(error=f"evaluate[{mode}]: got vs expected {wrong}, spec_l1 {out['spec_l1']}")
    return Outcome(frames=float(sum(n_frames(u) for u in chunk)), utts=len(chunk),
                   fingerprint=tuple(sorted(out.items())))


@dataclass
class EvalWorkload:
    name: str = "eval"
    kind: str = "eval"
    inputs: Inputs = Inputs(5, 60, 24, n_frames)
    chunks: int = 3          # evaluate calls per model and mode in one cycle

    def setup(self, seed: int, workdir: Path) -> Job:
        models = fixed_head_models(workdir)
        utts = self.inputs.draw(seed)
        cycle = []
        for c in range(self.chunks):
            chunk = utts[c::self.chunks]    # every chunk spans all sizes
            for variant in VARIANTS:
                for mode in ("teacher", "free"):
                    run = partial(_evaluate, models[variant], chunk, mode)
                    cycle.append(Op(f"{variant}.{mode}", run, partial(check_eval, chunk, mode)))
        return Job(cycle, utts)


WORKLOADS = {
    "train-short": TrainWorkload("train-short", Inputs(5, 8, 16, n_frames), batch_size=16),
    "train-long": TrainWorkload("train-long", Inputs(40, 60, 16, n_frames), batch_size=4),
    "synth": SynthWorkload(),
    "eval": EvalWorkload(),
}
