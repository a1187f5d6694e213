"""Operator entry points: corpus generation, training, synthesis, checks, benchmarks.

Exit codes: 0 success, 1 usage or configuration problem, 2 runtime failure,
3 check failure.  Every run directory gets exactly one manifest.json recording
the config snapshot, seed, git description, timestamps, and final metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .bench import (BENCH_KINDS, HEADS, MAX_FRAMES, MAX_TRANSFORMER_FRAMES, SCORE_BUDGET_BYTES,
                    format_csv, run_benchmark)
from .checks import REGISTRY, run_checks
from .decoder import KINDS as DECODER_KINDS
from .errors import (ConfigError, DegenerateSynthesisError, FormatError,
                     TrainingDiverged, VocabularyError)
from .fileformats import read_arrays, write_mel, write_mel_text
from .model import MAX_BLOCKS, MAX_KERNEL, MAX_WIDTH, VARIANTS, SynthesisModel
from .training import (TrainConfig, build_state, evaluate, load_state, read_settings, train,
                       write_settings)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                   started: float, final_metrics: dict) -> None:
    manifest = {
        "command": command,
        "config": {k: str(v) for k, v in config.items()},
        "seed": seed,
        "git_describe": git_describe(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "final_metrics": final_metrics,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _prepare_out_dir(path: str, force: bool) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} is not empty; pass --force to reuse it")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- gen ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    spec = corpus_mod.CorpusSpec()
    if args.spec:
        spec = read_settings(args.spec, corpus_mod.CorpusSpec)
    problems = spec.validate()
    if problems:
        raise ConfigError(problems)
    started = time.time()
    out = _prepare_out_dir(args.out, args.force)
    utterances = corpus_mod.generate(spec, args.count)
    corpus_mod.write_corpus(out / "corpus.bin", utterances, spec)
    corpus_mod.write_corpus_text(out / "corpus.txt", utterances, spec)
    corpus_mod.write_inventory(out / "phonemes.txt", spec.vocabulary)
    total_frames = int(sum(u.durations.sum() for u in utterances))
    write_manifest(out, "gen", spec.__dict__, spec.seed, started,
                   {"utterances": len(utterances), "total_frames": total_frames})
    print(f"wrote {len(utterances)} utterances ({total_frames} frames) to {out}")
    return EXIT_OK


# -- train --------------------------------------------------------------------------

def _load_corpus(path: str):
    corpus_path = Path(path)
    if corpus_path.is_dir():
        corpus_path = corpus_path / "corpus.bin"
    utterances, header = corpus_mod.read_corpus(corpus_path)
    inventory_path = corpus_path.parent / "phonemes.txt"
    if not inventory_path.exists():
        raise FormatError(f"missing phoneme inventory next to corpus: {inventory_path}")
    vocabulary = corpus_mod.read_inventory(inventory_path)
    if len(vocabulary) != header.vocab_size:
        raise FormatError(
            f"inventory lists {len(vocabulary)} symbols but corpus header says "
            f"{header.vocab_size}")
    return utterances, header, vocabulary


def cmd_train(args) -> int:
    overrides = {}
    if args.variant:
        overrides["variant"] = args.variant
    if args.decoder:
        overrides["decoder"] = args.decoder
    if args.iterative_loss:
        overrides["iterative_loss"] = args.iterative_loss == "on"
    if args.steps is not None:
        overrides["total_steps"] = args.steps
    if args.config:
        cfg = TrainConfig.from_file(args.config, overrides)
    else:
        cfg = TrainConfig.from_mapping({}, overrides)
    utterances, header, vocabulary = _load_corpus(args.corpus)
    started = time.time()
    state = build_state(cfg, header.vocab_size, header.num_speakers, header.mel_bins,
                        header.frame_rate)
    if args.resume:
        load_state(state, args.resume)
    out = _prepare_out_dir(args.out, args.force)
    write_settings(out / "config.txt", cfg)
    write_settings(out / "dataset.txt", header)
    corpus_mod.write_inventory(out / "phonemes.txt", vocabulary)
    result = train(state, cfg, utterances, out, log=print)
    metrics = evaluate(result["state"].model, utterances, mode="teacher",
                       batch_size=cfg.batch_size)
    write_manifest(out, "train", vars(cfg), cfg.seed, started, metrics)
    print("teacher-mode evaluation:", json.dumps(metrics))
    return EXIT_OK


# -- synth ---------------------------------------------------------------------------

def _model_from_run_dir(ckpt_path: str) -> tuple[SynthesisModel, list[str], TrainConfig]:
    ckpt = Path(ckpt_path)
    run_dir = ckpt.parent
    config_path = run_dir / "config.txt"
    dataset_path = run_dir / "dataset.txt"
    inventory_path = run_dir / "phonemes.txt"
    for required in (ckpt, config_path, dataset_path, inventory_path):
        if not required.exists():
            raise FormatError(f"missing run file {required}")
    cfg = TrainConfig.from_file(config_path)
    dataset = read_settings(dataset_path, corpus_mod.CorpusHeader)
    vocabulary = corpus_mod.read_inventory(inventory_path)
    model_cfg = cfg.model_config(dataset.vocab_size, dataset.num_speakers, dataset.mel_bins,
                                 dataset.frame_rate)
    if len(vocabulary) != model_cfg.vocab_size:
        raise FormatError(
            f"inventory lists {len(vocabulary)} symbols but dataset.txt says "
            f"{model_cfg.vocab_size}")
    try:
        model = SynthesisModel.build(model_cfg, cfg.seed)
    except ConfigError as exc:
        raise ConfigError([f"{config_path} with {dataset_path.name}: {p}"
                           for p in exc.problems]) from None
    arrays = read_arrays(ckpt)  # its errors name the file already
    try:
        model.load_state_arrays(arrays)
    except FormatError as exc:
        raise FormatError(f"{ckpt}: {exc}") from exc
    return model, vocabulary, cfg


def cmd_synth(args) -> int:
    model, vocabulary, _ = _model_from_run_dir(args.ckpt)
    tokens = corpus_mod.symbols_to_tokens(args.text.split(), vocabulary)
    if not 0 <= args.speaker < model.cfg.num_speakers:
        raise UsageError(f"--speaker must be in [0, {model.cfg.num_speakers}), got {args.speaker}")
    mel, frames = model.synthesize(tokens, args.speaker)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_mel(out, mel)
    write_mel_text(out.with_suffix(out.suffix + ".txt"), mel)
    print(f"synthesized {mel.shape[0]} frames "
          f"(durations: {' '.join(str(int(f)) for f in frames)}) -> {out}")
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    failures = 0
    for name, report in run_checks(args.module):
        status = "ok" if report.passed else "FAIL"
        print(f"== {name}: {status} (max relative error {report.max_rel_error:.3e})")
        print(report.format_table())
        failures += 0 if report.passed else 1
    if failures:
        print(f"{failures} check suite(s) failed")
        return EXIT_CHECK
    return EXIT_OK


# -- bench ------------------------------------------------------------------------------

def cmd_bench(args) -> int:
    kinds = [k.strip() for k in args.decoder.split(",")]
    frames = args.frames.split(",")
    problems = [f"unknown decoder {kind!r}; choose from {','.join(BENCH_KINDS)}"
                for kind in kinds if kind not in BENCH_KINDS]
    if not all(f.strip().isdecimal() and 0 < int(f) <= MAX_FRAMES for f in frames):
        problems.append(f"--frames must be comma-separated integers from 1 to {MAX_FRAMES}, "
                        f"got {args.frames!r}")
    elif "transformer" in kinds and max(map(int, frames)) > MAX_TRANSFORMER_FRAMES:
        problems.append(f"--frames must be at most {MAX_TRANSFORMER_FRAMES} for the transformer "
                        f"decoder, whose float32 [1, {HEADS}, T, T] attention scores would "
                        f"exceed {SCORE_BUDGET_BYTES // 2**20} MiB; got {args.frames!r}")
    if args.repeats < 1:
        problems.append("--repeats must be >= 1")
    if not 1 <= args.d_model <= MAX_WIDTH or args.d_model % HEADS:
        problems.append(f"--d-model must be a positive multiple of the {HEADS} heads and at "
                        f"most {MAX_WIDTH}, got {args.d_model}")
    if not 1 <= args.blocks <= MAX_BLOCKS:
        problems.append(f"--blocks must be from 1 to {MAX_BLOCKS}, got {args.blocks}")
    if not 1 <= args.kernel <= MAX_KERNEL or args.kernel % 2 == 0:
        problems.append(f"--kernel must be odd and from 1 to {MAX_KERNEL}, got {args.kernel}")
    if problems:
        raise UsageError("; ".join(problems))
    frames = [int(f) for f in frames]
    rows = run_benchmark(kinds, frames, repeats=args.repeats, d_model=args.d_model,
                         blocks=args.blocks, kernel_size=args.kernel)
    csv = format_csv(rows)
    if args.out:
        Path(args.out).write_text(csv + "\n")
    print(csv)
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="paravox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--spec", help="corpus spec file (key = value)")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a synthesizer")
    tr.add_argument("--config", help="training config file (key = value)")
    tr.add_argument("--corpus", required=True, help="corpus container or its directory")
    tr.add_argument("--variant", choices=VARIANTS)
    tr.add_argument("--decoder", choices=DECODER_KINDS)
    tr.add_argument("--iterative-loss", choices=["on", "off"], dest="iterative_loss")
    tr.add_argument("--steps", type=int, help="override total_steps")
    tr.add_argument("--resume", help="state checkpoint to resume from")
    tr.add_argument("--out", required=True)
    tr.add_argument("--force", action="store_true")
    tr.set_defaults(func=cmd_train)

    sy = sub.add_parser("synth", help="free-running synthesis from a checkpoint")
    sy.add_argument("--ckpt", required=True, help="model.ckpt inside a run directory")
    sy.add_argument("--text", required=True, help="space-separated phoneme symbols")
    sy.add_argument("--speaker", type=int, required=True)
    sy.add_argument("--out", required=True, help="mel container output path")
    sy.set_defaults(func=cmd_synth)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    gc.add_argument("--module", default="all", choices=["all"] + sorted(REGISTRY))
    gc.set_defaults(func=cmd_gradcheck)

    be = sub.add_parser("bench", help="decoder speed comparison")
    be.add_argument("--decoder", default="lconv,transformer,ar-sim",
                    help="comma-separated: lconv, transformer, ar-sim")
    be.add_argument("--frames", default="400,800,1600", help="comma-separated frame counts")
    be.add_argument("--repeats", type=int, default=3)
    be.add_argument("--d-model", type=int, default=64, dest="d_model")
    be.add_argument("--blocks", type=int, default=2)
    be.add_argument("--kernel", type=int, default=17)
    be.add_argument("--out", help="write the CSV here as well as stdout")
    be.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, VocabularyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, DegenerateSynthesisError, TrainingDiverged, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
