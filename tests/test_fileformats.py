import numpy as np
import pytest

from paravox import fileformats as ff
from paravox.errors import FormatError


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "encoder.embedding": rng.normal(size=(10, 4)),
        "decoder.blocks.0.conv.kernel": rng.normal(size=(2, 3)).astype(np.float32),
        "meta/step": np.array(42.0),
    }
    path = tmp_path / "model.ckpt"
    ff.write_arrays(path, arrays)
    back = ff.read_arrays(path)
    assert set(back) == set(arrays)
    assert np.array_equal(back["encoder.embedding"], arrays["encoder.embedding"])
    # float32 values survive the float64 container exactly
    assert np.array_equal(back["decoder.blocks.0.conv.kernel"].astype(np.float32),
                          arrays["decoder.blocks.0.conv.kernel"])
    assert back["meta/step"] == 42.0


def test_checkpoint_layout_is_as_documented(tmp_path):
    path = tmp_path / "one.ckpt"
    ff.write_arrays(path, {"w": np.array([[1.0, 2.0]])})
    raw = path.read_bytes()
    assert raw[:8] == b"PVOXCKPT"
    assert raw[8] == 1
    assert int.from_bytes(raw[9:13], "little") == 1       # name length
    assert raw[13:14] == b"w"
    assert raw[14] == 2                                    # rank
    assert int.from_bytes(raw[15:19], "little") == 1      # extent 0
    assert int.from_bytes(raw[19:23], "little") == 2      # extent 1
    assert np.frombuffer(raw[23:], dtype="<f8").tolist() == [1.0, 2.0]


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


def ckpt_record(name: bytes, extents) -> bytes:
    return (len(name).to_bytes(4, "little") + name + bytes([len(extents)])
            + b"".join(e.to_bytes(4, "little") for e in extents))


@pytest.mark.parametrize("record", [
    ckpt_record(b"\xff\xfe", (1,)) + bytes(8),
    ckpt_record(b"w", (65536,) * 4) + bytes(8),     # 2**64 values: wraps to 0 in int64
], ids=["name-not-utf8", "extents-overflow"])
def test_checkpoint_bad_record_is_format_error(tmp_path, record):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PVOXCKPT" + bytes([1]) + record)
    with pytest.raises(FormatError) as exc:
        ff.read_arrays(path)
    assert str(path) in str(exc.value)
