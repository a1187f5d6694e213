"""Versioned binary containers and text dumps.

All containers start with an 8-byte magic and a one-byte format version;
readers reject unknown magics/versions and raise FormatError on truncation
and on extents no array can hold.
Integers are little-endian unsigned; floats are little-endian float64 unless
a record says otherwise.

Parameter checkpoint (magic ``PVOXCKPT``, version 2)
    magic[8] version[u8] then records until EOF:
        name_len[u32] name[name_len bytes, UTF-8] width[u8] rank[u8]
        extents[rank x u32] values[prod(extents) x f32 if width is 4, f64 if 8]
    A float32 array is stored as f32 and every other array as f64; the reader
    returns each in the dtype its record names.  A width other than 4 or 8 and
    a name that appears twice are format errors naming the record.

Mel container (magic ``PVOXMELS``, version 1)
    magic[8] version[u8] frames[u32] bins[u32] values[frames*bins x f64, row-major]

Corpus container (magic ``PVOXCORP``, version 1)
    magic[8] version[u8] frame_rate[f64] mel_bins[u32] vocab_size[u32]
    num_speakers[u32] count[u32] then per utterance:
        speaker[u32] n_tokens[u32] tokens[n x u32] durations[n x u32]
        frames[u32] values[frames*mel_bins x f64]
    An utterance's durations sum to its frames; the reader rejects one that
    does not.  The values are widened float32 and load as float32.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

CKPT_MAGIC = b"PVOXCKPT"
MEL_MAGIC = b"PVOXMELS"
CORPUS_MAGIC = b"PVOXCORP"
CKPT_VERSION = 2
VERSION = 1  # the mel and corpus containers


class _Reader:
    def __init__(self, data: bytes, label: str):
        self.data = data
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated {self.label}: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def float_array(self, shape, what: str, width: int = 8, dtype=None) -> np.ndarray:
        """``prod(shape)`` floats of ``width`` bytes, copied once into ``dtype``
        (by default the stored width's)."""
        count = math.prod(shape)  # Python ints: a numpy product of large extents wraps around
        raw = self.take(width * count)
        try:
            values = np.frombuffer(raw, dtype=f"<f{width}", count=count).reshape(shape)
        except ValueError:  # numpy refuses extents whose product overflows, even beside a 0
            raise FormatError(f"{self.label}: {what} has impossible extents {shape}") from None
        return values.astype(dtype or values.dtype)

    def u32_array(self, count: int) -> np.ndarray:
        raw = self.take(4 * count)
        return np.frombuffer(raw, dtype="<u4", count=count).astype(int)

    def done(self) -> bool:
        return self.pos >= len(self.data)


def _check_header(r: _Reader, magic: bytes, expected: int = VERSION):
    got = r.take(8)
    if got != magic:
        raise FormatError(f"bad magic in {r.label}: {got!r}, expected {magic!r}")
    version = r.u8()
    if version != expected:
        raise FormatError(f"unknown {r.label} format version {version}; this build reads {expected}")


def _u32(n: int) -> bytes:
    return struct.pack("<I", int(n))


# -- parameter checkpoints -----------------------------------------------------

def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write each record straight to the open file, a float32 array as f32 and
    any other as f64; only an array that is not already C-ordered little-endian
    at its stored width is converted, one at a time."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + bytes([CKPT_VERSION]))
        for name, arr in arrays.items():
            encoded = name.encode("utf-8")
            width = 4 if arr.dtype == np.float32 else 8
            values = np.require(arr, dtype=f"<f{width}", requirements="C")
            fh.write(_u32(len(encoded)) + encoded + bytes([width, values.ndim])
                     + b"".join(_u32(extent) for extent in values.shape))
            fh.write(values.data)


def read_arrays(path) -> dict[str, np.ndarray]:
    r = _Reader(Path(path).read_bytes(), f"checkpoint {path}")
    _check_header(r, CKPT_MAGIC, CKPT_VERSION)
    out = {}
    while not r.done():
        raw_name = r.take(r.u32())
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{r.label}: parameter name {raw_name!r} is not UTF-8") from exc
        if name in out:
            raise FormatError(f"{r.label}: record {name!r} appears twice")
        width = r.u8()
        if width not in (4, 8):
            raise FormatError(f"{r.label}: record {name!r} has value width {width}; "
                              f"expected 4 or 8")
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        out[name] = r.float_array(shape, f"record {name!r}", width)
    return out


# -- mel containers ---------------------------------------------------------------

def write_mel(path, mel: np.ndarray) -> None:
    mel = np.asarray(mel, dtype=np.float64)
    if mel.ndim != 2:
        raise ValueError(f"mel must be [frames, bins], got shape {mel.shape}")
    payload = [MEL_MAGIC, bytes([VERSION]), _u32(mel.shape[0]), _u32(mel.shape[1]),
               mel.astype("<f8").tobytes()]
    Path(path).write_bytes(b"".join(payload))


def read_mel(path) -> np.ndarray:
    r = _Reader(Path(path).read_bytes(), f"mel container {path}")
    _check_header(r, MEL_MAGIC)
    frames, bins = r.u32(), r.u32()
    return r.float_array((frames, bins), "the mel")


def write_mel_text(path, mel: np.ndarray) -> None:
    """Plain-text dump for plotting: one frame per line, space-separated bins."""
    mel = np.asarray(mel)
    with open(path, "w") as fh:
        fh.write(f"# frames={mel.shape[0]} bins={mel.shape[1]}\n")
        for row in mel:
            fh.write(" ".join(f"{v:.6f}" for v in row) + "\n")
