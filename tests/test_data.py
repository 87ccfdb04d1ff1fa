"""Dataset parsing against hand-built fixtures, synthetic data properties,
and checkpoint container round-trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rornet
from rornet.data import (Dataset, load_cifar, load_checkpoint, save_checkpoint,
                         synthetic_dataset)
from rornet.exceptions import (CheckpointError, ChecksumError, DataError,
                               StateNameError, VersionError)


def write_c10_fixture(path, records):
    """records: list of (label, pixel_fn(channel, row, col) -> byte)."""
    blob = bytearray()
    for label, pixel in records:
        blob.append(label)
        for c in range(3):
            for r in range(32):
                for col in range(32):
                    blob.append(pixel(c, r, col))
    path.write_bytes(bytes(blob))


class TestCifarLoader:
    def test_two_record_fixture_exact_recovery(self, tmp_path):
        recs = [
            (7, lambda c, r, col: (c * 37 + r * 5 + col) % 256),
            (2, lambda c, r, col: (200 - c - r + 3 * col) % 256),
        ]
        for name in ("data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                     "data_batch_4.bin", "data_batch_5.bin"):
            write_c10_fixture(tmp_path / name, recs)
        write_c10_fixture(tmp_path / "test_batch.bin", recs[:1])

        train, test = load_cifar(tmp_path, "c10")
        assert len(train) == 10 and len(test) == 1
        assert train.labels[0] == 7 and train.labels[1] == 2
        # exact pixel recovery, channel-planar row-major
        for c in range(3):
            for r, col in [(0, 0), (5, 9), (31, 31)]:
                want = ((c * 37 + r * 5 + col) % 256) / 255.0
                assert train.images[0, c, r, col] == pytest.approx(want, abs=1e-7)

    def test_pixel_scaling_bijective(self, tmp_path):
        recs = [(0, lambda c, r, col: (c + r + col) % 256)]
        for name in ("data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                     "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"):
            write_c10_fixture(tmp_path / name, recs)
        train, _ = load_cifar(tmp_path, "c10")
        recovered = np.round(train.images[0] * 255).astype(np.uint8)
        want = np.array([[[(c + r + col) % 256 for col in range(32)]
                          for r in range(32)] for c in range(3)], dtype=np.uint8)
        np.testing.assert_array_equal(recovered, want)

    def test_c100_keeps_fine_label(self, tmp_path):
        blob = bytearray()
        blob.append(13)   # coarse, discarded
        blob.append(91)   # fine, kept
        blob.extend([0] * 3072)
        (tmp_path / "train.bin").write_bytes(bytes(blob))
        (tmp_path / "test.bin").write_bytes(bytes(blob))
        train, test = load_cifar(tmp_path, "c100")
        assert train.labels[0] == 91
        assert train.class_count == 100

    def test_truncated_file_reports_offset(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(bytes(3074 + 100))
        (tmp_path / "test.bin").write_bytes(bytes(3074))
        with pytest.raises(DataError, match="3074"):
            load_cifar(tmp_path, "c100")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            load_cifar(tmp_path, "c10")

    def test_digest_stable(self, tmp_path):
        recs = [(1, lambda c, r, col: 17)]
        for name in ("data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                     "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"):
            write_c10_fixture(tmp_path / name, recs)
        a, _ = load_cifar(tmp_path, "c10")
        b, _ = load_cifar(tmp_path, "c10")
        assert a.digest == b.digest


def train_reference_classifier(images, labels, classes, hidden=32, epochs=200):
    """Tiny two-layer network trained with plain numpy gradient descent.

    Deliberately independent of the library's autodiff: forward and backward
    are written out by hand.
    """
    rng = np.random.default_rng(0)
    x = images.reshape(len(images), -1).astype(np.float64)
    x = (x - x.mean(0)) / (x.std(0) + 1e-8)
    n, d = x.shape
    w1 = rng.normal(0, np.sqrt(2.0 / d), size=(d, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0, np.sqrt(2.0 / hidden), size=(hidden, classes))
    b2 = np.zeros(classes)
    onehot = np.eye(classes)[labels]
    lr = 0.1
    for _ in range(epochs):
        h = np.maximum(x @ w1 + b1, 0.0)
        logits = h @ w2 + b2
        z = logits - logits.max(1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(1, keepdims=True)
        g = (p - onehot) / n
        gw2 = h.T @ g
        gb2 = g.sum(0)
        gh = g @ w2.T * (h > 0)
        gw1 = x.T @ gh
        gb1 = gh.sum(0)
        w1 -= lr * gw1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2 -= lr * gb2
    h = np.maximum(x @ w1 + b1, 0.0)
    pred = (h @ w2 + b2).argmax(1)
    return 100.0 * float((pred == labels).mean())


class TestSyntheticDataset:
    def test_easy_set_separable_by_reference_model(self):
        ds = synthetic_dataset(seed=1, classes=10, n=500, difficulty="easy")
        acc = train_reference_classifier(ds.images, ds.labels, 10)
        assert acc > 99.0

    def test_same_seed_identical(self):
        a = synthetic_dataset(seed=3, classes=10, n=100)
        b = synthetic_dataset(seed=3, classes=10, n=100)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.digest == b.digest

    def test_label_histogram_balanced(self):
        ds = synthetic_dataset(seed=2, classes=7, n=100)
        counts = np.bincount(ds.labels, minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_pixels_in_unit_range(self):
        ds = synthetic_dataset(seed=4, classes=10, n=50, difficulty="hard")
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            synthetic_dataset(seed=0, classes=10, n=5)


class TestCheckpoint:
    def _state(self, rng):
        return {
            "group1.block001.conv1.weight": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
            "group1.block001.bn1.gamma": rng.normal(size=4).astype(np.float32),
            "head.fc.bias": rng.normal(size=10).astype(np.float64),
        }

    def test_round_trip_bytes_identical(self, tmp_path, rng):
        state = self._state(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, state, "depth=20\n")
        loaded, cfg = load_checkpoint(p1)
        assert cfg == "depth=20\n"
        save_checkpoint(p2, loaded, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_and_dtypes_survive(self, tmp_path, rng):
        state = self._state(rng)
        save_checkpoint(tmp_path / "c.bin", state)
        loaded, _ = load_checkpoint(tmp_path / "c.bin")
        assert set(loaded) == set(state)
        for name in state:
            assert loaded[name].dtype == state[name].dtype
            np.testing.assert_array_equal(loaded[name], state[name])

    def test_corrupt_payload_byte_rejected(self, tmp_path, rng):
        path = tmp_path / "d.bin"
        save_checkpoint(path, self._state(rng))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path, rng):
        path = tmp_path / "e.bin"
        save_checkpoint(path, self._state(rng))
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field follows the 8-byte magic
        # refresh the trailing checksum so only the version is wrong
        import struct
        import zlib
        body = bytes(raw[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        import struct
        import zlib
        body = b"NOTACKPT" + b"\x00" * 16
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_malformed_fields_rejected(self, tmp_path, rng):
        import re
        import struct
        import zlib
        path = tmp_path / "k.bin"
        save_checkpoint(path, self._state(rng), "depth=20\n")
        body = path.read_bytes()[:-4]
        name0 = 8 + 4 + 4 + len("depth=20\n") + 4  # magic, version, config, count
        crafted = {
            "config text": body[:12] + struct.pack("<I", len(body)) + body[16:],
            "name of tensor 0": body[:name0] + struct.pack("<H", 0xFFFF) + body[name0 + 2:],
            "data of tensor 'head.fc.bias'": body[:-8],  # last tensor in name order
            "name of tensor 0 is not UTF-8": body[:name0 + 2] + b"\xff" + body[name0 + 3:],
        }
        for field, bad in crafted.items():
            path.write_bytes(bad + struct.pack("<I", zlib.crc32(bad)))
            with pytest.raises(CheckpointError, match=re.escape(field)):
                load_checkpoint(path)

    def test_failed_overwrite_keeps_the_old_file(self, tmp_path, rng):
        # the writer's process may not grow a file past half a checkpoint,
        # so overwriting a good checkpoint fails part way through
        path = tmp_path / "ckpt.bin"
        good = {"w": rng.normal(size=(64, 1024)).astype(np.float32)}
        save_checkpoint(path, good, "depth=20\n")
        limit = path.stat().st_size // 2
        script = (
            "import resource, signal, sys\n"
            "import numpy as np\n"
            "from rornet.data import save_checkpoint\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "try:\n"
            "    save_checkpoint(sys.argv[1], {'w': np.zeros((64, 1024), np.float32)})\n"
            "except OSError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
        src = str(Path(rornet.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded, cfg = load_checkpoint(path)
        assert cfg == "depth=20\n"
        np.testing.assert_array_equal(loaded["w"], good["w"])
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_load_into_mismatched_model_lists_difference(self, tmp_path, rng):
        from rornet.arch import ArchConfig, build
        g14 = build(ArchConfig(depth=14, levels_m=1))
        g20 = build(ArchConfig(depth=20, levels_m=1))
        path = tmp_path / "g.bin"
        save_checkpoint(path, g14.state_dict())
        state, _ = load_checkpoint(path)
        with pytest.raises(StateNameError, match="group1.block003"):
            g20.load_state(state)

    def test_model_state_round_trip(self, tmp_path, rng):
        from rornet.arch import ArchConfig, build
        from rornet.graph import forward
        g = build(ArchConfig(depth=14, levels_m=3), seed=1)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        forward(g, x, mode="train")  # move the BN running stats off their init
        before = forward(g, x, mode="eval").data
        path = tmp_path / "h.bin"
        save_checkpoint(path, g.state_dict())
        g2 = build(ArchConfig(depth=14, levels_m=3), seed=999)
        state, _ = load_checkpoint(path)
        g2.load_state(state)
        after = forward(g2, x, mode="eval").data
        np.testing.assert_array_equal(before, after)
