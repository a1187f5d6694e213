import numpy as np
import pytest

from paravox.corpus import CorpusSpec, generate
from paravox.training import TrainConfig

TINY_MODEL_KW = dict(
    d_model=8, speaker_dim=4, latent_dim=4, latent_proj_dim=4,
    enc_conv_blocks=1, enc_conv_kernel=3, enc_transformer_blocks=1, enc_heads=2,
    dur_blocks=1, dur_kernel=3, dur_heads=2,
    dec_blocks=2, dec_heads=2, dec_kernel=3,
    post_pre_blocks=1, post_strided_blocks=1, post_heads=2, post_kernel=3,
    fine_width=8, fine_blocks=1, fine_heads=2, fine_kernel=3, prior_hidden=8,
)

# A 36-byte checkpoint: one f64 record "w" of rank 3 with extents
# (0, 2**32 - 1, 2**32 - 1), so no values, and 8 stray bytes after it.  The
# record holds no data, but numpy refuses its shape.
ZERO_EXTENT_CKPT = (b"PVOXCKPT" + bytes([2]) + (1).to_bytes(4, "little") + b"w" + bytes([8, 3])
                    + (0).to_bytes(4, "little") + (2 ** 32 - 1).to_bytes(4, "little") * 2
                    + bytes(8))

TINY_TRAIN_KW = dict(
    **TINY_MODEL_KW,
    warmup_steps=10, decay_start=20, decay_end=100, batch_size=8, total_steps=40,
    kl_beta_start=5, kl_beta_end=30,
)


@pytest.fixture(scope="session")
def tiny_spec():
    return CorpusSpec(num_speakers=3, min_tokens=5, max_tokens=8, mel_bins=8, seed=3)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_spec):
    return generate(tiny_spec, 8)


def tiny_train_config(**overrides) -> TrainConfig:
    kw = dict(TINY_TRAIN_KW)
    kw.update(overrides)
    return TrainConfig(**kw)


def tiny_model_config_kwargs(spec: CorpusSpec) -> dict:
    kw = dict(TINY_MODEL_KW)
    kw.update(vocab_size=spec.vocab_size, num_speakers=spec.num_speakers,
              mel_bins=spec.mel_bins, frame_rate=spec.frame_rate)
    return kw


def rng(seed=0) -> np.random.Generator:
    return np.random.default_rng(seed)
