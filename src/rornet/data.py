"""Dataset ingestion and the binary checkpoint container.

Covers the canonical CIFAR binary record layout (both the 10-class and
100-class variants), a deterministic synthetic blob dataset for desk-scale
runs, and a little-endian checkpoint format with a whole-file checksum that
round-trips byte-exactly.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (CheckpointError, ChecksumError, DataError, StateNameError,
                         VersionError)

C10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
C10_TEST_FILES = ["test_batch.bin"]
C100_TRAIN_FILES = ["train.bin"]
C100_TEST_FILES = ["test.bin"]

_PIXELS = 3 * 32 * 32


@dataclass
class Dataset:
    """Images in N x 3 x 32 x 32 layout scaled to [0, 1], with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    split: str
    digest: str

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] == 0:
            raise DataError(f"dataset {self.split!r} is empty or misshapen: {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise DataError(f"dataset {self.split!r}: {len(self.images)} images "
                            f"vs {len(self.labels)} labels")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DataError(f"dataset {self.split!r}: labels outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)


def _parse_cifar_bytes(raw: bytes, variant: str, source: str) -> tuple[np.ndarray, np.ndarray]:
    label_bytes = 1 if variant == "c10" else 2
    rec = label_bytes + _PIXELS
    if len(raw) == 0 or len(raw) % rec != 0:
        good = (len(raw) // rec) * rec
        raise DataError(f"{source}: truncated or misaligned records "
                        f"(file has {len(raw)} bytes, record size {rec}, "
                        f"first bad byte at offset {good})")
    n = len(raw) // rec
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(n, rec)
    # c100 stores a coarse label byte first; the fine label is what we keep
    labels = arr[:, label_bytes - 1].astype(np.int64)
    pixels = arr[:, label_bytes:].reshape(n, 3, 32, 32)
    images = pixels.astype(np.float32) / 255.0
    return images, labels


def load_cifar(path, variant: str = "c10") -> tuple[Dataset, Dataset]:
    """Load the binary shards under ``path`` into (train, test) datasets."""
    return load_cifar_split(path, variant, "train"), load_cifar_split(path, variant, "test")


def load_cifar_split(path, variant: str, split: str) -> Dataset:
    """Load one split ("train" or "test") from the binary shards under ``path``."""
    if variant not in ("c10", "c100"):
        raise DataError(f"variant must be 'c10' or 'c100', got {variant!r}")
    files = {("c10", "train"): C10_TRAIN_FILES, ("c10", "test"): C10_TEST_FILES,
             ("c100", "train"): C100_TRAIN_FILES, ("c100", "test"): C100_TEST_FILES}[variant, split]
    images, labels, digest = [], [], hashlib.sha256()
    for fname in files:
        fpath = Path(path) / fname
        if not fpath.exists():
            raise DataError(f"missing dataset file: {fpath}")
        raw = fpath.read_bytes()
        digest.update(raw)
        im, lb = _parse_cifar_bytes(raw, variant, str(fpath))
        images.append(im)
        labels.append(lb)
    return Dataset(np.concatenate(images), np.concatenate(labels),
                   10 if variant == "c10" else 100, split, digest.hexdigest())


def synthetic_dataset(seed: int, classes: int = 10, n: int = 500,
                      difficulty: str = "easy", split: str = "train") -> Dataset:
    """Class-conditional Gaussian blob images, deterministic per seed.

    Labels are assigned round-robin so the histogram is balanced to within
    one sample. Difficulty trades prototype contrast against pixel noise.
    """
    try:
        proto_scale, noise_scale = {
            "easy": (0.25, 0.02),
            "medium": (0.15, 0.08),
            "hard": (0.08, 0.15),
        }[difficulty]
    except KeyError:
        raise DataError(f"difficulty must be easy, medium or hard, got {difficulty!r}") from None
    if n < classes:
        raise DataError(f"need at least one sample per class: n={n}, classes={classes}")
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(0.0, 1.0, size=(classes, 3, 32, 32))
    labels = np.arange(n, dtype=np.int64) % classes
    noise = rng.normal(0.0, 1.0, size=(n, 3, 32, 32))
    images = 0.5 + proto_scale * prototypes[labels] + noise_scale * noise
    images = np.clip(images, 0.0, 1.0).astype(np.float32)
    digest = hashlib.sha256(images.astype("<f4").tobytes()
                            + labels.astype("<i8").tobytes()).hexdigest()
    return Dataset(images, labels, classes, split, digest)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"RORCKPT\x00"
_VERSION = 1
_DTYPES = {0: "<f4", 1: "<f8"}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CHUNK = 1 << 20  # bytes per read of the load's checksum pass


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open ``<path>.tmp`` beside ``path`` for writing, then rename it over
    ``path``: a failed or interrupted write leaves an earlier file intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after the rename


def save_checkpoint(path, state: dict[str, np.ndarray], config_text: str = "") -> None:
    """Write named tensors plus a config echo; trailing CRC32 over everything.
    Streams through :func:`atomic_write`."""
    crc = 0
    with atomic_write(path, "wb") as f:
        def put(chunk) -> None:
            nonlocal crc
            crc = zlib.crc32(chunk, crc)
            f.write(chunk)

        config_bytes = config_text.encode()
        put(_MAGIC + struct.pack("<II", _VERSION, len(config_bytes)) + config_bytes)
        names = sorted(state)
        put(struct.pack("<I", len(names)))
        for name in names:
            arr = np.asarray(state[name])
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float32)
            nb, code = name.encode(), _DTYPE_CODES[arr.dtype]
            put(struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb, code, arr.ndim, *arr.shape))
            put(np.ascontiguousarray(arr, dtype=_DTYPES[code]).data)
        f.write(struct.pack("<I", crc))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint, validating magic, version and checksum first.

    The checksum pass reads the file in fixed-size chunks; then each tensor
    is read straight into its own array, so no whole-file buffer is held.
    Every field read is bounds-checked against the file size; a malformed
    field raises :class:`CheckpointError` naming it.
    """
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4  # the body, before the CRC
        if end < len(_MAGIC) + 8:
            raise VersionError(f"{path}: too short to be a checkpoint")
        crc = 0
        for start in range(0, end, _CHUNK):
            crc = zlib.crc32(f.read(min(_CHUNK, end - start)), crc)
        if crc != struct.unpack("<I", f.read(4))[0]:
            raise ChecksumError(f"{path}: checksum mismatch, file is corrupt")
        f.seek(0)
        if f.read(len(_MAGIC)) != _MAGIC:
            raise VersionError(f"{path}: bad magic, not a checkpoint file")
        off = len(_MAGIC)

        def fault(what: str, tensor, problem: str) -> CheckpointError:
            owner = "" if tensor is None else f" of tensor {tensor!r}"
            return CheckpointError(f"{path}: {what}{owner} {problem}")

        def claim(size: int, what: str, tensor=None) -> int:
            nonlocal off
            if off + size > end:
                raise fault(what, tensor, "runs past the end of the file")
            off += size
            return size

        def number(fmt: str, what: str, tensor=None):
            vals = struct.unpack(fmt, f.read(claim(struct.calcsize(fmt), what, tensor)))
            return vals if len(vals) > 1 else vals[0]

        def text(size: int, what: str, tensor=None) -> str:
            try:
                return f.read(claim(size, what, tensor)).decode()
            except UnicodeDecodeError:
                raise fault(what, tensor, "is not UTF-8") from None

        version = number("<I", "version")
        if version != _VERSION:
            raise VersionError(f"{path}: unsupported checkpoint version {version}")
        config_text = text(number("<I", "config length"), "config text")
        count = number("<I", "tensor count")
        state: dict[str, np.ndarray] = {}
        for i in range(count):
            name = text(number("<H", "name length", i), "name", i)
            code, ndim = number("<BB", "dtype", name)
            if code not in _DTYPES:
                raise VersionError(f"{path}: unknown dtype code {code} for tensor {name!r}")
            shape = tuple(number("<I", "shape", name) for _ in range(ndim))
            dtype = np.dtype(_DTYPES[code])
            claim(math.prod(shape) * dtype.itemsize, "data", name)
            arr = np.empty(shape, dtype=dtype)
            if f.readinto(arr) != arr.nbytes:
                raise fault("data", name, "was cut short while reading")
            if name in state:
                raise StateNameError(f"{path}: duplicate tensor name {name!r}")
            state[name] = arr
    return state, config_text
