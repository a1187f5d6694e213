import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paravox import corpus
from paravox import fileformats as ff
from paravox.errors import FormatError

from conftest import ZERO_EXTENT_CKPT


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "encoder.embedding": rng.normal(size=(10, 4)),
        "decoder.blocks.0.conv.kernel": rng.normal(size=(2, 3)).astype(np.float32),
        "meta/step": np.array(42.0),
        "transposed": rng.normal(size=(3, 2)).T,
    }
    path = tmp_path / "model.ckpt"
    ff.write_arrays(path, arrays)
    back = ff.read_arrays(path)
    assert set(back) == set(arrays)
    assert all(a.flags.writeable and a.flags.c_contiguous for a in back.values())
    assert back["meta/step"].shape == ()
    assert np.array_equal(back["transposed"], arrays["transposed"])
    assert np.array_equal(back["encoder.embedding"], arrays["encoder.embedding"])
    assert np.array_equal(back["decoder.blocks.0.conv.kernel"],
                          arrays["decoder.blocks.0.conv.kernel"])
    assert back["meta/step"] == 42.0


def test_checkpoint_layout_is_as_documented(tmp_path):
    path = tmp_path / "two.ckpt"
    ff.write_arrays(path, {"w": np.array([[1.0, 2.0]]), "h": np.array([0.5], dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:8] == b"PVOXCKPT"
    assert raw[8] == 2
    assert int.from_bytes(raw[9:13], "little") == 1       # name length
    assert raw[13:14] == b"w"
    assert raw[14] == 8                                    # value width: f64
    assert raw[15] == 2                                    # rank
    assert int.from_bytes(raw[16:20], "little") == 1      # extent 0
    assert int.from_bytes(raw[20:24], "little") == 2      # extent 1
    assert np.frombuffer(raw[24:40], dtype="<f8").tolist() == [1.0, 2.0]
    assert int.from_bytes(raw[40:44], "little") == 1
    assert raw[44:45] == b"h"
    assert raw[45] == 4                                    # value width: f32
    assert raw[46] == 1
    assert int.from_bytes(raw[47:51], "little") == 1
    assert np.frombuffer(raw[51:], dtype="<f4").tolist() == [0.5]


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "model.ckpt"
    ff.write_arrays(path, {"w": np.ones((4, 4))})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError) as exc:
        ff.read_arrays(path)
    assert "truncated" in str(exc.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOTMAGIC" + bytes([1]))
    with pytest.raises(FormatError):
        ff.read_arrays(path)


def test_mel_round_trip_and_text(tmp_path):
    mel = np.random.default_rng(1).random((7, 5))
    path = tmp_path / "out.mel"
    ff.write_mel(path, mel)
    assert np.array_equal(ff.read_mel(path), mel)
    ff.write_mel_text(tmp_path / "out.txt", mel)
    lines = (tmp_path / "out.txt").read_text().splitlines()
    assert lines[0] == "# frames=7 bins=5"
    assert len(lines) == 8


def test_mel_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        ff.write_mel(tmp_path / "bad.mel", np.zeros(5))


def test_mel_unknown_version(tmp_path):
    path = tmp_path / "out.mel"
    ff.write_mel(path, np.zeros((2, 2)))
    raw = bytearray(path.read_bytes())
    raw[8] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        ff.read_mel(path)
    assert "version 9" in str(exc.value)


def test_checkpoint_of_version_1_is_format_error(tmp_path):
    path = tmp_path / "old.ckpt"
    ff.write_arrays(path, {"w": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[8] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        ff.read_arrays(path)
    assert str(path) in str(exc.value)
    assert "version 1" in str(exc.value) and "reads 2" in str(exc.value)


def ckpt_record(name: bytes, extents, width: int = 8) -> bytes:
    return (len(name).to_bytes(4, "little") + name + bytes([width, len(extents)])
            + b"".join(e.to_bytes(4, "little") for e in extents))


@pytest.mark.parametrize("record, named", [
    (ckpt_record(b"\xff\xfe", (1,)) + bytes(8), "not UTF-8"),
    (ckpt_record(b"w", (65536,) * 4) + bytes(8), "truncated"),  # 2**64 values: wraps to 0 in int64
    (ZERO_EXTENT_CKPT[9:], "record 'w'"),  # no values, but a shape numpy refuses
    (ckpt_record(b"w", (1,), width=2) + bytes(8), "record 'w' has value width 2"),
    (2 * (ckpt_record(b"w", (1,), width=4) + bytes(4)), "record 'w' appears twice"),
], ids=["name-not-utf8", "extents-overflow", "zero-extent-too-big", "bad-width", "duplicate-name"])
def test_checkpoint_bad_record_is_format_error(tmp_path, record, named):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PVOXCKPT" + bytes([2]) + record)
    with pytest.raises(FormatError) as exc:
        ff.read_arrays(path)
    assert str(path) in str(exc.value) and named in str(exc.value)


# -- a seeded fuzz of the container readers -------------------------------------------

READERS = {"checkpoint": ff.read_arrays, "mel": ff.read_mel, "corpus": corpus.read_corpus}
# where the valid checkpoint's records keep their value width: "w" [2, 3] f32,
# then "b" [3] f64, then "meta/step" [] f64
CKPT_WIDTH_AT = (14, 53, 96)


@functools.cache
def valid_containers() -> dict[str, bytes]:
    """A small valid file of each container, as bytes."""
    rng = np.random.default_rng(0)
    spec = corpus.CorpusSpec(num_speakers=2, min_tokens=2, max_tokens=3, mel_bins=8, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ff.write_arrays(root / "checkpoint", {"w": rng.normal(size=(2, 3)).astype(np.float32),
                                              "b": rng.normal(size=3), "meta/step": np.array(4.0)})
        ff.write_mel(root / "mel", rng.random((3, 4)))
        corpus.write_corpus(root / "corpus", corpus.generate(spec, 2), spec)
        out = {name: (root / name).read_bytes() for name in READERS}
    assert [out["checkpoint"][at] for at in CKPT_WIDTH_AT] == [4, 8, 8]
    return out


@st.composite
def corrupt_containers(draw):
    """(reader, bytes): a valid container cut short, bit-flipped, or with a
    u32 (a count or an extent) or a checkpoint record's value width written
    over it, at one to three places; most places fall in the first 64 bytes,
    where the headers are."""
    reader = draw(st.sampled_from(sorted(READERS)))
    buf = bytearray(valid_containers()[reader])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, 63) | st.integers(0, 2 ** 16)) % max(len(buf), 1)
        kind = draw(st.sampled_from(["truncate", "flip", "overwrite", "width"]))
        if kind == "width" and reader == "checkpoint":
            at = draw(st.sampled_from(CKPT_WIDTH_AT))
            if at < len(buf):
                buf[at] = draw(st.sampled_from([0, 4, 8, 255]) | st.integers(0, 255))
        elif kind == "truncate":
            del buf[at:]
        elif kind == "flip" and buf:
            buf[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "overwrite":
            value = draw(st.sampled_from([0, 1, 2 ** 31 - 1, 2 ** 32 - 1])
                         | st.integers(0, 2 ** 32 - 1))
            buf[at:at + 4] = value.to_bytes(4, "little")
    return reader, bytes(buf)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=corrupt_containers())
@example(case=("checkpoint", ZERO_EXTENT_CKPT))
def test_corrupt_containers_raise_only_format_error(fuzz_dir, case):
    reader, data = case
    path = fuzz_dir / reader
    path.write_bytes(data)
    try:
        READERS[reader](path)
    except FormatError:
        pass
