"""Objective assembly, Nesterov optimizer, schedules, and the training loop.

The minimized objective is

    (1 / K*T) * sum_i spec_i  +  (lambda_dur / N) * (ce + l1)
        [+ beta * KL]  [+ (1 / N) * prior]

with T the total valid frames in the batch, K the mel bins, and N the total
valid tokens.  The spectrogram term sums the L1 of every decoder block's
prediction (the iterative loss) or keeps only the last block's; the model
computes it with ``decoder.spectrogram_loss`` over all heads or the last.
The KL weight beta is constant for the utterance-level VAE and linearly
annealed for the per-phoneme one.  Gradients are clipped by global norm
before the momentum update.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import duration
from .errors import ConfigError, DegenerateSynthesisError, FormatError, TrainingDiverged
from .fileformats import read_arrays, write_arrays, write_mel
from .model import (Batch, ForwardOutputs, ModelConfig, ModelHyperparams,
                    SynthesisModel, make_batch)
from .module import RandomSource, load_checked
from .tensor import Parameter, Tensor, backward, constant, no_grad
from .upsample import frame_layout


def total_loss(out: ForwardOutputs, lambda_dur: float, beta: float) -> Tensor:
    """The scalar objective from one forward pass.  The KL and prior terms enter
    where the variant has them: ``forward_train`` leaves them None otherwise."""
    n = out.n_tokens
    loss = out.spec_loss + (out.dur_ce + out.dur_l1) * (lambda_dur / n)
    if out.kl_per_utterance is not None:
        loss = loss + out.kl_per_utterance.mean() * beta
    if out.prior_loss is not None:
        loss = loss + out.prior_loss * (1.0 / n)
    return loss


# -- schedules ------------------------------------------------------------------

def lr_multiplier(step: int, warmup_steps: int, decay_start: int, decay_end: int,
                  floor: float = 0.01) -> float:
    """Linear 0.1 -> 1.0 warmup, flat 1.0, exponential decay to the floor."""
    if step <= warmup_steps:
        return 0.1 + 0.9 * step / warmup_steps
    if step <= decay_start:
        return 1.0
    if step >= decay_end:
        return floor
    frac = (step - decay_start) / (decay_end - decay_start)
    return float(np.exp(np.log(floor) * frac))


def beta_schedule(step: int, start: int, end: int, final: float = 1.0) -> float:
    """Zero before ``start``, linear to ``final`` at ``end``, constant after."""
    if step <= start:
        return 0.0
    if step >= end:
        return final
    return final * (step - start) / (end - start)


# -- optimizer -------------------------------------------------------------------

def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most ``max_norm``; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.square(p.grad, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class NesterovMomentum:
    """v <- mu*v + g ; p <- p - lr*(g + mu*v), per parameter."""

    def __init__(self, named_params, momentum: float):
        self.named_params = list(named_params)
        self.momentum = momentum
        self.velocity = {n: np.zeros_like(p.data) for n, p in self.named_params}

    def step(self, lr: float) -> None:
        mu = self.momentum
        for name, p in self.named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            v = self.velocity[name]
            v *= mu
            v += g
            u = v * mu
            u += g
            u *= lr
            p.data -= u

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"velocity/{n}": v for n, v in self.velocity.items()}


# -- run configuration --------------------------------------------------------------


@dataclass(kw_only=True)
class TrainConfig(ModelHyperparams):
    """Model hyper-parameters plus the run's training settings."""
    seed: int = 0
    iterative_loss: bool = True
    base_lr: float = 0.1
    momentum: float = 0.99
    warmup_steps: int = 100
    decay_start: int = 200
    decay_end: int = 1000
    min_lr_factor: float = 0.01
    clip_norm: float = 0.2
    batch_size: int = 16
    total_steps: int = 1200
    lambda_dur: float = 1.0
    beta: float = 1.0
    kl_beta_start: int = 60
    kl_beta_end: int = 500
    kl_beta_final: float = 1.0
    sample_posterior: bool = True
    checkpoint_every: int = 0

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], overrides: dict | None = None) -> "TrainConfig":
        """Build from string key/values (config file), collecting every problem.

        Model fields are checked by ``ModelConfig.validate`` once the corpus
        sizes are known; only the training settings are checked here.
        """
        values = typed_fields(cls, mapping)
        provided = set(values)
        if overrides:
            values.update(overrides)
            provided |= set(overrides)
        cfg = cls(**values)
        problems = []
        if not cfg.warmup_steps <= cfg.decay_start < cfg.decay_end:
            problems.append(
                f"need warmup_steps <= decay_start < decay_end, got "
                f"{cfg.warmup_steps}/{cfg.decay_start}/{cfg.decay_end}")
        for positive in ("base_lr", "clip_norm", "batch_size", "total_steps", "warmup_steps"):
            if getattr(cfg, positive) <= 0:
                problems.append(f"{positive} must be positive")
        if cfg.variant == "fine":
            missing = [k for k in ("kl_beta_start", "kl_beta_end") if k not in provided]
            if missing:
                problems.append(
                    f"fine variant requires explicit KL schedule keys: missing {missing}")
            elif not cfg.kl_beta_start < cfg.kl_beta_end:
                problems.append("kl_beta_start must be < kl_beta_end")
        if problems:
            raise ConfigError(problems)
        return cfg

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "TrainConfig":
        mapping = parse_config_file(path)
        with _naming(path):
            return cls.from_mapping(mapping, overrides)

    def model_config(self, vocab_size: int, num_speakers: int, mel_bins: int,
                     frame_rate: float) -> ModelConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(ModelHyperparams)}
        return ModelConfig(vocab_size=vocab_size, num_speakers=num_speakers,
                           mel_bins=mel_bins, frame_rate=frame_rate, **shared)

    def beta_at(self, step: int) -> float:
        if self.variant == "novae":
            return 0.0
        if self.variant == "global":
            return self.beta
        return beta_schedule(step, self.kl_beta_start, self.kl_beta_end, self.kl_beta_final)

    def lr_at(self, step: int) -> float:
        return self.base_lr * lr_multiplier(step, self.warmup_steps, self.decay_start,
                                            self.decay_end, self.min_lr_factor)


def _coerce(raw: str, annotation) -> object:
    kind = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", str(annotation))
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "on", "1", "yes"):
            return True
        if raw.lower() in ("false", "off", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}")
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got {raw!r}")
        if not np.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    return raw


def parse_config_file(path) -> dict[str, str]:
    """Plain-text UTF-8 ``key = value`` lines; '#' starts a comment.  Every
    problem in the ConfigError names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    mapping = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
    if problems:
        raise ConfigError([f"{path}: {p}" for p in problems])
    return mapping


def typed_fields(cls, mapping: dict[str, str]) -> dict:
    """Keyword arguments for dataclass ``cls`` from string key/values.

    Each value is coerced to its field's declared type.  Unknown keys, values
    that do not coerce and missing keys of fields without a default are
    reported together in one ConfigError.
    """
    known = {f.name: f for f in fields(cls)}
    problems = [f"unknown key {key!r}" for key in mapping if key not in known]
    values = {}
    for key, raw in mapping.items():
        if key in known:
            try:
                values[key] = _coerce(raw, known[key].type)
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
    missing = [name for name, f in known.items() if name not in mapping
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        problems.append(f"missing required keys {missing}")
    if problems:
        raise ConfigError(problems)
    return values


@contextmanager
def _naming(path):
    """Prefix every problem of a ConfigError raised inside with ``path``."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError([f"{path}: {p}" for p in exc.problems]) from None


def read_settings(path, cls):
    """Read a ``key = value`` file into dataclass ``cls``; every problem names the file."""
    mapping = parse_config_file(path)
    with _naming(path):
        return cls(**typed_fields(cls, mapping))


def write_settings(path, settings) -> None:
    """Write a dataclass as ``key = value`` lines in field order, as read_settings reads them."""
    Path(path).write_text("".join(f"{f.name} = {getattr(settings, f.name)}\n"
                                  for f in fields(settings)), encoding="utf-8")


# -- training loop -------------------------------------------------------------------

METRIC_COLUMNS = ["step", "lr", "beta", "total", "spec", "dur_ce", "dur_l1", "kl",
                  "prior", "grad_norm"]


def select_batch(utterances, cfg: TrainConfig, rng: np.random.Generator) -> Batch:
    if cfg.batch_size >= len(utterances):
        return make_batch(utterances)
    idx = rng.choice(len(utterances), size=cfg.batch_size, replace=False)
    return make_batch(utterances, sorted(int(i) for i in idx))


@dataclass
class TrainState:
    model: SynthesisModel
    optimizer: NesterovMomentum
    step: int = 0


def build_state(cfg: TrainConfig, vocab_size: int, num_speakers: int, mel_bins: int,
                frame_rate: float) -> TrainState:
    model_cfg = cfg.model_config(vocab_size, num_speakers, mel_bins, frame_rate)
    model = SynthesisModel.build(model_cfg, cfg.seed)
    opt = NesterovMomentum(model.named_parameters(), cfg.momentum)
    return TrainState(model, opt)


def save_state(state: TrainState, path) -> None:
    arrays = dict(state.model.state_arrays())
    arrays.update(state.optimizer.state_arrays())
    arrays["meta/step"] = np.array(float(state.step))
    write_arrays(path, arrays)


def load_state(state: TrainState, path) -> None:
    """Restore the model, optimizer and step, all or nothing; FormatError names
    the file and the mismatch when ``path`` is not a training state of this
    model, and then nothing of ``state`` has changed."""
    arrays = read_arrays(path)
    count = arrays.get("meta/step")
    if count is not None and np.ndim(count) == 0 and not (count >= 0 and float(count).is_integer()):
        raise FormatError(f"{path}: meta/step {float(count)!r} is not a step count")
    step = np.zeros(())
    try:
        load_checked({**state.model.state_arrays(), **state.optimizer.state_arrays(),
                      "meta/step": step}, arrays)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    state.step = int(step)


def train_step(state: TrainState, batch: Batch, cfg: TrainConfig,
               rng: np.random.Generator) -> dict:
    """One forward, backward, clip and momentum update; returns the metrics row.

    The gradients are released once the optimizer has applied them, so the
    step returns with every parameter's ``.grad`` None and the next forward
    runs without the last step's gradients beside it.
    """
    step = state.step + 1
    beta = cfg.beta_at(step)
    out = state.model.forward_train(batch, dropout_rng=rng,
                                    sample_rng=rng if cfg.sample_posterior else None,
                                    iterative=cfg.iterative_loss)
    loss = total_loss(out, cfg.lambda_dur, beta)
    if not np.isfinite(loss.data):
        raise TrainingDiverged(f"non-finite loss {loss.data!r} at step {step}")
    backward(loss)
    grad_norm = clip_global_norm(state.model.parameters(), cfg.clip_norm)
    state.optimizer.step(cfg.lr_at(step))
    state.model.zero_grad()
    state.step = step
    return {
        "step": step, "lr": cfg.lr_at(step), "beta": beta, "total": float(loss.data),
        "spec": float(out.spec_loss.data), "dur_ce": float(out.dur_ce.data) / out.n_tokens,
        "dur_l1": float(out.dur_l1.data) / out.n_tokens,
        "kl": float(out.kl_per_utterance.data.mean()) if out.kl_per_utterance is not None else 0.0,
        "prior": float(out.prior_loss.data) / out.n_tokens if out.prior_loss is not None else 0.0,
        "grad_norm": grad_norm,
    }


def format_metrics_row(row: dict) -> str:
    return ",".join(repr(row[c]) if c != "step" else str(row[c]) for c in METRIC_COLUMNS)


def train(state: TrainState, cfg: TrainConfig, utterances, out_dir, log=None,
          stop_check=None) -> dict:
    """Run the loop from ``state`` (fresh from ``build_state``, or loaded by
    ``load_state`` to resume); writes metrics.csv, with its header when the
    state is at step 0 or the file is new, and state/model checkpoints under
    out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    source = RandomSource(cfg.seed)
    metrics_path = out_dir / "metrics.csv"
    if state.step == 0 or not metrics_path.exists():
        metrics_path.write_text(",".join(METRIC_COLUMNS) + "\n")
    last = {}
    with open(metrics_path, "a") as metrics:
        while state.step < cfg.total_steps:
            rng = source.for_step(state.step + 1)
            batch = select_batch(utterances, cfg, rng)
            last = train_step(state, batch, cfg, rng)
            metrics.write(format_metrics_row(last) + "\n")
            if log is not None and (state.step % 50 == 0 or state.step == cfg.total_steps):
                log(f"step {last['step']:5d}  loss {last['total']:.5f}  spec {last['spec']:.5f}")
            if cfg.checkpoint_every and state.step % cfg.checkpoint_every == 0:
                save_state(state, out_dir / "state.ckpt")
            if stop_check is not None and stop_check(state, last):
                break
    save_state(state, out_dir / "state.ckpt")
    write_arrays(out_dir / "model.ckpt", state.model.state_arrays())
    return {"state": state, "final": last}


# -- evaluation ------------------------------------------------------------------------

def _chunks(n: int, size: int):
    for lo in range(0, n, size):
        yield list(range(lo, min(lo + size, n)))


def _decode_rows(model: SynthesisModel, hidden: Tensor, frames_by_row: dict) -> list:
    """One decoder pass over the chosen batch rows; returns each row's mel, unpadded."""
    frames = np.zeros((len(frames_by_row), hidden.shape[1]), dtype=int)
    for i, row_frames in enumerate(frames_by_row.values()):
        frames[i, :len(row_frames)] = row_frames
    with no_grad():
        mels = model.decode(constant(hidden.data[list(frames_by_row)]),
                            frame_layout(frames), every_head=False)[-1].data
    return [mel[:total] for mel, total in zip(mels, frames.sum(axis=1))]


def evaluate(model: SynthesisModel, utterances, mode: str = "teacher",
             batch_size: int = 16, dump_dir=None) -> dict:
    """Corpus-level metrics.

    teacher mode: ground-truth durations and posterior-mean latents isolate
    spectrogram quality.  free mode: the duration gate decides frame counts,
    and spectrogram L1 is compared on length-matched crops.  Utterances whose
    every token is gated to zero are counted as degenerate and not decoded.
    """
    if mode not in ("teacher", "free"):
        raise ValueError(f"mode must be teacher or free, got {mode!r}")
    dump_dir = Path(dump_dir) if dump_dir is not None else None
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
    abs_err = 0.0
    n_cells = 0.0
    gate_hits = 0
    frame_err = 0.0
    n_tokens = 0
    length_err = 0.0
    degenerate = 0
    for idx in _chunks(len(utterances), batch_size):
        batch = make_batch(utterances, idx)
        if mode == "teacher":
            with no_grad():  # reads only the last head, the layout and the duration heads
                out = model.forward_train(batch, iterative=False)
            pred = out.predictions[-1].data
            mask = out.layout.mask
            abs_err += float((np.abs(pred - batch.mel) * mask[:, :, None]).sum())
            n_cells += float(mask.sum()) * batch.mel.shape[2]
            dur = out.duration_pred
            if dump_dir is not None:
                for row, utt_i in enumerate(idx):
                    write_mel(dump_dir / f"utt_{utt_i:04d}.mel", pred[row][mask[row] > 0])
        else:
            dur = model.predict_durations_free(batch.tokens, batch.speakers, batch.token_mask)
        p_z = dur.p_z.data
        seconds = dur.seconds.data
        valid = batch.token_mask > 0
        gate_hits += int((((p_z > 0.5) == (batch.frames > 0)) & valid).sum())
        n_tokens += int(valid.sum())
        decided = {}    # batch row -> frames, for rows that are not degenerate
        for row, utt_i in enumerate(idx):
            utt = utterances[utt_i]
            n = len(utt.tokens)
            try:
                frames = duration.finalize_durations(p_z[row:row + 1, :n], seconds[row:row + 1, :n],
                                                     model.cfg.frame_rate)
            except DegenerateSynthesisError:
                degenerate += 1
                frame_err += float(np.abs(utt.durations).sum())
                length_err += float(utt.durations.sum())
                continue
            frame_err += float(np.abs(frames[0] - utt.durations).sum())
            decided[row] = frames[0]
        if mode == "free" and decided:
            for row, mel in zip(decided, _decode_rows(model, dur.hidden, decided)):
                utt = utterances[idx[row]]
                t = min(mel.shape[0], utt.mel.shape[0])
                abs_err += float(np.abs(np.subtract(mel[:t], utt.mel[:t], dtype=np.float64)).sum())
                n_cells += t * utt.mel.shape[1]
                length_err += abs(mel.shape[0] - utt.mel.shape[0])
                if dump_dir is not None:
                    write_mel(dump_dir / f"utt_{idx[row]:04d}.mel", mel)
    return {
        "spec_l1": abs_err / max(n_cells, 1.0),
        "gate_accuracy": gate_hits / max(n_tokens, 1),
        "frame_mae": frame_err / max(n_tokens, 1),
        "length_error_mean": length_err / max(len(utterances), 1),
        "degenerate": degenerate,
    }
