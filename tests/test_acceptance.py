"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in captured
output).  The expensive overfit runs train all three variants once, shared
across the duration and reconstruction criteria.

Run just this gate with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import paravox.tensor as pt
from paravox import bench, blocks, decoder, duration, vae
from paravox.checks import run_checks
from paravox.corpus import CorpusSpec, generate
from paravox.model import ModelConfig, SynthesisModel, make_batch
from paravox.module import RandomSource
from paravox.tensor import Tensor, backward
from paravox.training import (NesterovMomentum, TrainConfig, TrainState, build_state,
                              clip_global_norm, evaluate, lr_multiplier, select_batch,
                              train, train_step)

OVERFIT_SPEC = CorpusSpec(num_speakers=4, min_tokens=5, max_tokens=8, mel_bins=128, seed=7)
OVERFIT_STEPS_CAP = 1200          # well under the 5K-step budget
OVERFIT_TARGET_RATIO = 0.10       # >= 90% reduction of untrained teacher-mode L1


def overfit_config(variant: str) -> TrainConfig:
    return TrainConfig(
        variant=variant, seed=0, d_model=64, speaker_dim=64, latent_dim=8,
        latent_proj_dim=32, enc_conv_blocks=1, enc_conv_kernel=5,
        enc_transformer_blocks=2, enc_heads=8, dur_blocks=2, dur_kernel=3, dur_heads=8,
        dec_blocks=2, dec_heads=8, dec_kernel=17, post_pre_blocks=1,
        post_strided_blocks=2, post_heads=8, post_kernel=17, fine_width=128,
        fine_blocks=2, fine_heads=8, fine_kernel=17, prior_hidden=64,
        base_lr=0.1, warmup_steps=100, decay_start=1000, decay_end=4000,
        batch_size=16, total_steps=OVERFIT_STEPS_CAP, kl_beta_start=60, kl_beta_end=500)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def corpus16():
    return generate(OVERFIT_SPEC, 16)


@pytest.fixture(scope="module")
def overfit_runs(corpus16, tmp_path_factory):
    """Train all three variants with early stopping; returns metrics per variant."""
    results = {}
    started = time.time()
    for variant in ("novae", "global", "fine"):
        cfg = overfit_config(variant)
        state = build_state(cfg, OVERFIT_SPEC.vocab_size, OVERFIT_SPEC.num_speakers,
                            OVERFIT_SPEC.mel_bins, OVERFIT_SPEC.frame_rate)
        untrained = evaluate(state.model, corpus16, mode="teacher")["spec_l1"]
        snapshots = {}

        def stop_check(state, row, _untrained=untrained, _snaps=snapshots):
            if state.step % 100 != 0 or state.step < 200:
                return False
            metrics = evaluate(state.model, corpus16, mode="teacher")
            _snaps[state.step] = metrics
            return (metrics["spec_l1"] / _untrained <= 0.085
                    and metrics["gate_accuracy"] == 1.0
                    and metrics["frame_mae"] <= 0.9)

        out_dir = tmp_path_factory.mktemp(f"overfit_{variant}")
        result = train(state, cfg, corpus16, out_dir, stop_check=stop_check)
        model = result["state"].model
        teacher = evaluate(model, corpus16, mode="teacher")
        free = evaluate(model, corpus16, mode="free")
        results[variant] = {
            "untrained_l1": untrained,
            "teacher": teacher,
            "free": free,
            "ratio": teacher["spec_l1"] / untrained,
            "steps": result["state"].step,
        }
    results["elapsed_s"] = time.time() - started
    return results


# -- criterion: gradient integrity ---------------------------------------------------

def test_gradient_integrity_all_modules():
    started = time.time()
    failures = []
    worst = 0.0
    for name, rep in run_checks("all"):
        worst = max(worst, rep.max_rel_error)
        if not rep.passed:
            failures.append(name)
    elapsed = time.time() - started
    ok = not failures and elapsed <= 300.0
    report("gradient-integrity", ok,
           f"max rel err {worst:.2e} over all modules, {elapsed:.0f}s")
    assert not failures, f"gradient check failed for {failures}"
    assert worst <= 1e-4
    assert elapsed <= 300.0, f"gradient checks took {elapsed:.0f}s (> 5 min)"


# -- criterion: overfit reconstruction --------------------------------------------------

@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_overfit_reconstruction(overfit_runs, variant):
    run = overfit_runs[variant]
    ok = run["ratio"] <= OVERFIT_TARGET_RATIO
    report(f"overfit-reconstruction[{variant}]", ok,
           f"teacher L1 {run['teacher']['spec_l1']:.4f} = {run['ratio']:.1%} of untrained "
           f"{run['untrained_l1']:.4f} after {run['steps']} steps")
    assert run["steps"] <= 5000
    assert ok, f"{variant}: ratio {run['ratio']:.3f} > {OVERFIT_TARGET_RATIO}"


def test_overfit_runtime_budget(overfit_runs):
    elapsed = overfit_runs["elapsed_s"]
    ok = elapsed <= 1800.0
    report("overfit-runtime", ok, f"{elapsed:.0f}s for all three variants")
    assert ok, f"overfit runs took {elapsed:.0f}s (> 30 min)"


# -- criterion: duration model -----------------------------------------------------------

@pytest.mark.parametrize("variant", ["novae", "global", "fine"])
def test_duration_model_after_overfit(overfit_runs, variant):
    free = overfit_runs[variant]["free"]
    ok = free["gate_accuracy"] == 1.0 and free["frame_mae"] <= 1.0
    report(f"duration-model[{variant}]", ok,
           f"gate accuracy {free['gate_accuracy']:.3f}, frame MAE {free['frame_mae']:.3f}")
    assert free["gate_accuracy"] == 1.0
    assert free["frame_mae"] <= 1.0


def test_duration_length_preservation_fuzz():
    from paravox.errors import DegenerateSynthesisError
    rng = np.random.default_rng(123)
    checked = 0
    degenerate = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 14))
        # half the gates confident, and some sitting right at the threshold
        p = np.where(rng.random(n) < 0.5, rng.uniform(0.985, 1.0, n), rng.random(n))
        p[rng.random(n) < 0.05] = duration.GATE_THRESHOLD
        s = rng.random(n) * 0.25
        gated = np.where(p < duration.GATE_THRESHOLD, 0.0, s)
        expected = math.floor(gated.sum() * 80.0 + 0.5)
        if expected == 0:
            with pytest.raises(DegenerateSynthesisError):
                duration.finalize_durations(p[None], s[None], 80.0)
            degenerate += 1
        else:
            frames = duration.finalize_durations(p[None], s[None], 80.0)
            assert frames.sum() == expected
            assert np.all(frames >= 0)
        checked += 1
    ok = checked == 10_000
    report("duration-length-preservation", ok,
           f"{checked} fuzzed inputs exact ({degenerate} degenerate rejections)")
    assert ok


# -- criterion: VAE correctness ------------------------------------------------------------

def test_vae_kl_monte_carlo_and_nonnegativity():
    with pt.precision("high"):
        rng = np.random.default_rng(42)
        mu_q = rng.normal(size=8) * 0.8
        lv_q = rng.normal(size=8) * 0.4
        mu_p = rng.normal(size=8) * 0.5
        eps = np.random.default_rng(7).standard_normal((100_000, 8))
        z = mu_q + np.exp(lv_q / 2) * eps
        log_q = -0.5 * ((z - mu_q) ** 2 / np.exp(lv_q) + lv_q + np.log(2 * np.pi)).sum(axis=1)
        log_p = -0.5 * ((z - mu_p) ** 2 + np.log(2 * np.pi)).sum(axis=1)
        mc = float((log_q - log_p).mean())
        post = vae.LatentPosterior(Tensor(mu_q[None]), Tensor(lv_q[None]))
        analytic = float(vae.kl_divergence(post, Tensor(mu_p[None])).data[0])
        rel = abs(analytic - mc) / abs(analytic)

        neg = 0
        check_rng = np.random.default_rng(11)
        for _ in range(1000):
            p = vae.LatentPosterior(Tensor(check_rng.normal(size=(1, 8)) * 3),
                                    Tensor(check_rng.normal(size=(1, 8)) * 2))
            if float(vae.kl_divergence(p, Tensor(check_rng.normal(size=(1, 8)) * 3)).data[0]) < -1e-12:
                neg += 1
    ok = rel < 0.02 and neg == 0
    report("vae-kl-correctness", ok,
           f"analytic {analytic:.4f} vs MC {mc:.4f} ({rel:.2%}); {neg} negative KLs in 1000")
    assert rel < 0.02
    assert neg == 0


def test_prior_gradient_exactly_zero_into_posterior():
    with pt.precision("high"):
        from paravox.upsample import frame_layout, positional_features
        from paravox.encoder import EncoderOutput
        rng = np.random.default_rng(0)
        fp = vae.FinePosterior(8, 16, 8, 16, 2, 3, 8, np.random.default_rng(1), blocks=1)
        prior = vae.FinePriorLSTM(16, 8, 8, 8, np.random.default_rng(2))
        frames = np.array([[3, 2, 4]])
        mel = Tensor(rng.normal(size=(1, 9, 8)))
        feats = positional_features(frame_layout(frames), 16)
        spk = Tensor(rng.normal(size=(1, 8)))
        enc = EncoderOutput(Tensor(rng.normal(size=(1, 3, 16))), np.ones((1, 3)))
        post = fp(mel, feats, spk, enc)
        _, loss = prior.teacher_forced(enc, spk, post.mean)
        fp.zero_grad()
        prior.zero_grad()
        backward(loss)
        leaks = [n for n, p in fp.named_parameters()
                 if p.grad is not None and np.any(p.grad != 0.0)]
        prior_live = any(p.grad is not None and np.any(p.grad != 0.0)
                         for p in prior.parameters())
    ok = not leaks and prior_live
    report("vae-prior-stop-gradient", ok,
           "no gradient reached the posterior; prior itself trains" if ok else f"leaked: {leaks}")
    assert not leaks
    assert prior_live


# -- criterion: iterative-loss identity --------------------------------------------------------

def test_iterative_loss_decomposition_identity():
    with pt.precision("high"):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            target = rng.normal(size=(2, 7, 9))
            mask = (rng.random((2, 7)) > 0.25).astype(float)
            mask[:, 0] = 1.0
            preds = [Tensor(rng.normal(size=(2, 7, 9))) for _ in range(6)]
            it = float(decoder.spectrogram_loss(preds, target, mask).data)
            parts = sum(float(decoder.spectrogram_loss(preds[i:i + 1], target, mask).data)
                        for i in range(6))
            worst = max(worst, abs(it - parts))
    ok = worst < 1e-10
    report("iterative-loss-identity", ok, f"max |iterative - sum of singles| = {worst:.2e}")
    assert worst < 1e-10


# -- criterion: speed ordering -------------------------------------------------------------------

def test_speed_ordering_table_analogue():
    par_ms, par_madds = None, None
    dec_lc = bench.bench_decoder("lconv")
    par_s, par_madds = bench.parallel_pass(dec_lc, 1600)
    ar_s, ar_madds = bench.ar_sim_pass(dec_lc, 1600)
    ratio = ar_madds / par_madds

    lc = [bench.decoder_madds("lconv", t, d_model=32, blocks=2, kernel_size=5)
          for t in (64, 128, 192)]
    tf = [bench.decoder_madds("transformer", t, d_model=32, blocks=2)
          for t in (64, 128, 192, 256)]
    lconv_linear = (lc[2] - 2 * lc[1] + lc[0] == 0) and lc[1] > lc[0]
    tf_second = [tf[i + 2] - 2 * tf[i + 1] + tf[i] for i in range(2)]
    tf_quadratic = tf_second[0] == tf_second[1] > 0

    ok = ratio >= 5.0 and lconv_linear and tf_quadratic
    wall = "parallel < ar-sim" if par_s < ar_s else "parallel >= ar-sim (advisory only)"
    report("speed-ordering", ok,
           f"op-count ratio {ratio:.1f}x at 1600 frames; lconv linear, transformer "
           f"quadratic; wall clock {par_s*1e3:.0f}ms vs {ar_s*1e3:.0f}ms ({wall})")
    assert ratio >= 5.0
    assert lconv_linear
    assert tf_quadratic


# -- criterion: parameter-count claim ----------------------------------------------------------------

def test_parameter_count_claim():
    light = blocks.LightweightConv(128, 8, 17, np.random.default_rng(0)).kernel.size
    standard = blocks.ConvBlock(128, 128, 17, np.random.default_rng(0)).weight.size
    ratio = standard / light
    ok = light == 136 and standard == 278528 and ratio == 2048.0 and ratio >= 2048
    report("parameter-count-claim", ok, f"{standard} / {light} = {ratio:.0f}x")
    assert light == 136 and standard == 278528
    assert ratio == 2048.0
    assert ratio >= 2048


# -- criterion: masking / determinism suites ------------------------------------------------------------

def test_masking_invariance_suite():
    with pt.precision("high"):
        rng = np.random.default_rng(2)
        worst = 0.0
        zero_padding = True
        builders = {
            "lconv": lambda r: blocks.LConvBlock(8, 2, 3, r),
            "transformer": lambda r: blocks.TransformerBlock(8, 2, r),
            "conv": lambda r: blocks.ConvBlock(8, 8, 3, r),
        }
        for name, make in builders.items():
            blk = make(np.random.default_rng(1))
            x = rng.normal(size=(2, 6, 8))
            base = blk(Tensor(x), np.ones((2, 6)))
            padded = np.concatenate([x, rng.normal(size=(2, 3, 8))], axis=1)
            mask = np.concatenate([np.ones((2, 6)), np.zeros((2, 3))], axis=1)
            out = blk(Tensor(padded), mask)
            worst = max(worst, float(np.abs(out.data[:, :6] - base.data).max()))
            worst = max(worst, float(np.abs(out.data[:, 6:]).max()))
            # a 3-row batch whose padded row sits in the middle: each row as if
            # run alone, and exact zeros at the padding
            mid = np.random.default_rng(3).normal(size=(3, 6, 8))
            mid_mask = np.ones((3, 6))
            mid_mask[1, 4:] = 0.0
            out = blk(Tensor(mid), mid_mask).data
            for i, n in enumerate((6, 4, 6)):
                alone = blk(Tensor(mid[i:i + 1, :n]), np.ones((1, n))).data
                worst = max(worst, float(np.abs(out[i, :n] - alone[0]).max()))
            zero_padding = zero_padding and np.array_equal(out[1, 4:], np.zeros((2, 8)))
    ok = worst < 1e-5 and zero_padding
    report("masking-invariance", ok, f"max deviation {worst:.2e} across block types; "
                                     f"padding rows exactly zero: {zero_padding}")
    assert worst < 1e-5
    assert zero_padding


def test_simplex_invariants():
    with pt.precision("high"):
        rng = np.random.default_rng(3)
        conv = blocks.LightweightConv(8, 4, 5, np.random.default_rng(4))
        conv.kernel.data[:] = rng.normal(size=(4, 5)) * 3
        tap_err = float(np.abs(conv.normalized_kernel().data.sum(axis=1) - 1.0).max())
        from paravox.upsample import FeatureCombiner
        comb = FeatureCombiner(16, np.random.default_rng(5))
        comb.logits.data[:] = rng.normal(size=(3, 16)) * 4
        w_err = float(np.abs(comb.weights().data.sum(axis=0) - 1.0).max())
        s = pt.softmax(Tensor(rng.normal(size=(3, 7)) * 5), axis=-1)
        s_err = float(np.abs(s.data.sum(axis=-1) - 1.0).max())
    worst = max(tap_err, w_err, s_err)
    ok = worst < 1e-12
    report("simplex-invariants", ok, f"max deviation from 1 = {worst:.2e}")
    assert worst < 1e-12


def test_schedule_continuity_and_clip_bound():
    # continuity at warmup end, decay start, decay end
    jumps = []
    for boundary in (100, 200, 1000):
        left = lr_multiplier(boundary - 1, 100, 200, 1000)
        right = lr_multiplier(boundary + 1, 100, 200, 1000)
        jumps.append(abs(lr_multiplier(boundary, 100, 200, 1000) - left))
        jumps.append(abs(lr_multiplier(boundary, 100, 200, 1000) - right))
    betas = [TrainConfig(variant="fine", kl_beta_start=60, kl_beta_end=500).beta_at(s)
             for s in range(0, 700, 5)]
    nondecreasing = all(b >= a - 1e-15 for a, b in zip(betas, betas[1:]))

    rng = np.random.default_rng(6)
    clip_ok = True
    for _ in range(200):
        params = [pt.Parameter(np.zeros(7)), pt.Parameter(np.zeros(3))]
        for p in params:
            p.grad = rng.normal(size=p.data.shape) * rng.uniform(0, 50)
        clip_global_norm(params, 0.2)
        norm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        clip_ok &= norm <= 0.2 + 1e-9
    ok = max(jumps) < 0.01 and nondecreasing and clip_ok
    report("schedules-and-clipping", ok,
           f"max boundary jump {max(jumps):.4f}; beta nondecreasing; clip bound held")
    assert max(jumps) < 0.01
    assert nondecreasing
    assert clip_ok


def test_hundred_step_determinism(corpus16):
    traces = []
    for _ in range(2):
        cfg = overfit_config("global")
        cfg = TrainConfig(**{**cfg.__dict__, "d_model": 16, "speaker_dim": 8,
                             "latent_proj_dim": 8, "dec_kernel": 3, "post_kernel": 3,
                             "enc_conv_kernel": 3, "total_steps": 100, "batch_size": 4})
        state = build_state(cfg, OVERFIT_SPEC.vocab_size, OVERFIT_SPEC.num_speakers,
                            OVERFIT_SPEC.mel_bins, OVERFIT_SPEC.frame_rate)
        src = RandomSource(cfg.seed)
        trace = []
        for _ in range(100):
            rng = src.for_step(state.step + 1)
            batch = select_batch(corpus16, cfg, rng)
            trace.append(train_step(state, batch, cfg, rng)["total"])
        traces.append(trace)
    ok = traces[0] == traces[1]
    report("hundred-step-determinism", ok, "two seeded runs bit-identical for 100 steps")
    assert ok
