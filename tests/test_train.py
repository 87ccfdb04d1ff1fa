"""Learning-rate schedule, optimizer semantics, augmentation, normalization,
evaluation, and small end-to-end training runs."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rornet
from rornet import tensor as T
from rornet.arch import ArchConfig, build, config_from_text
from rornet.data import load_checkpoint, synthetic_dataset
from rornet.exceptions import ConfigError, NumericError
from rornet.train import (CIFAR_MILESTONES, SVHN_MILESTONES, MetricsLog,
                          MetricsRow, TrainConfig, augment, evaluate, hflip,
                          lr_at, normalize_dataset, pad_crop, sgd_step,
                          top1_error, train)


class TestLrSchedule:
    def test_cifar_schedule(self):
        cfg = TrainConfig(milestones=CIFAR_MILESTONES, max_epochs=500)
        assert lr_at(cfg, 0) == 0.1
        assert lr_at(cfg, 249) == 0.1
        assert lr_at(cfg, 250) == pytest.approx(0.01)
        assert lr_at(cfg, 251) == pytest.approx(0.01)
        assert lr_at(cfg, 375) == pytest.approx(0.001)
        assert lr_at(cfg, 376) == pytest.approx(0.001)
        assert lr_at(cfg, 499) == pytest.approx(0.001)

    def test_svhn_schedule(self):
        cfg = TrainConfig(milestones=SVHN_MILESTONES, max_epochs=50)
        assert lr_at(cfg, 29) == 0.1
        assert lr_at(cfg, 31) == pytest.approx(0.01)
        assert lr_at(cfg, 36) == pytest.approx(0.001)

    def test_bad_milestones_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(10, 5), max_epochs=20)
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(10, 30), max_epochs=20)

    @pytest.mark.parametrize("bad", [dict(batch_size=1), dict(momentum=1.0), dict(momentum=-0.1),
                                     dict(weight_decay=-1e-4), dict(base_lr=float("nan")),
                                     dict(base_lr=float("inf")), dict(lr_factor=float("nan")),
                                     dict(weight_decay=float("nan")), dict(weight_decay=float("inf"))])
    def test_bad_hyperparameters_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
        TrainConfig(batch_size=2, momentum=0.0, weight_decay=0.0)


def make_param(name, values):
    p = T.Parameter(name, np.array(values, dtype=np.float64))
    return p


class TestSgdStep:
    def test_vanilla_limit(self):
        p = make_param("w", [1.0, 2.0])
        p.tensor.grad = np.array([0.5, -1.0])
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [0.95, 2.1])

    def test_fixed_point(self):
        p = make_param("w", [3.0])
        p.tensor.grad = np.zeros(1)
        sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_scalar_quadratic_trajectory_oracle(self):
        # three scripted steps on f(w) = w^2 / 2, so grad = w; the oracle
        # below replays the update equations with plain floats
        lr, mu, wd = 0.1, 0.9, 1e-4
        p = make_param("w", [1.0])
        for _ in range(3):
            p.tensor.grad = p.data.copy()
            sgd_step([p], lr=lr, momentum=mu, weight_decay=wd)

        w, v = 1.0, 0.0
        for _ in range(3):
            g = w + wd * w
            v = mu * v + g
            w = w - lr * (g + mu * v)
        assert abs(float(p.data[0]) - w) < 1e-12

    def test_weight_decay_shrinks_magnitude(self):
        p = make_param("w", [2.0, -3.0])
        p.tensor.grad = np.zeros(2)
        before = np.abs(p.data).copy()
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.01)
        assert (np.abs(p.data) < before).all()

    def test_missing_grad_rejected(self):
        p = make_param("w", [1.0])
        with pytest.raises(NumericError, match="w"):
            sgd_step([p], lr=0.1)

    def test_non_finite_grad_rejected_before_any_update(self):
        a, b = make_param("a", [1.0, 2.0]), make_param("b", [3.0])
        a.tensor.grad = np.array([0.5, -1.0])
        a.momentum_buffer = np.array([0.1, 0.2])
        b.tensor.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="'b' in backward"):
            sgd_step([a, b], lr=0.1, momentum=0.9, weight_decay=1e-4)
        np.testing.assert_array_equal(a.data, [1.0, 2.0])
        np.testing.assert_array_equal(a.momentum_buffer, [0.1, 0.2])
        np.testing.assert_array_equal(b.data, [3.0])
        assert b.momentum_buffer is None

    def test_momentum_buffer_persists(self):
        p = make_param("w", [1.0])
        p.tensor.grad = np.array([1.0])
        sgd_step([p], lr=0.1, momentum=0.9)
        first = p.momentum_buffer.copy()
        p.tensor.grad = np.array([0.0])
        sgd_step([p], lr=0.1, momentum=0.9)
        np.testing.assert_allclose(p.momentum_buffer, 0.9 * first)


class TestAugment:
    def test_double_flip_is_identity(self, rng):
        img = rng.normal(size=(3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(hflip(hflip(img)), img)

    def test_center_crop_recovers_original(self, rng):
        img = rng.normal(size=(3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(pad_crop(img, 4, 4), img)

    def test_crop_pixels_subset_of_padded(self, rng):
        img = (rng.random((3, 8, 8)) * 255).astype(np.uint8).astype(np.float32)
        padded = np.zeros((3, 16, 16), dtype=np.float32)
        padded[:, 4:12, 4:12] = img
        padded_multiset = Counter(padded.reshape(-1).tolist())
        for oy in range(9):
            for ox in range(9):
                crop = pad_crop(img, oy, ox)
                crop_multiset = Counter(crop.reshape(-1).tolist())
                assert all(crop_multiset[v] <= padded_multiset[v] for v in crop_multiset)

    def test_deterministic_per_seed(self, rng):
        img = rng.normal(size=(3, 32, 32)).astype(np.float32)
        a = augment(img, np.random.default_rng(5))
        b = augment(img, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestNormalize:
    def _noisy_dataset(self, seed, mean, std, n=64):
        rng = np.random.default_rng(seed)
        images = rng.normal(mean, std, size=(n, 3, 32, 32)).astype(np.float32)
        labels = np.arange(n, dtype=np.int64) % 10
        from rornet.data import Dataset
        return Dataset(np.clip(images, 0, 1), labels, 10, "train", "x")

    def test_statistics_recomputation_oracle(self):
        train_set = self._noisy_dataset(0, 0.5, 0.1)
        test_set = self._noisy_dataset(1, 0.5, 0.1)
        normed, _, _ = normalize_dataset(train_set, test_set)
        assert np.abs(normed.images.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(normed.images.std(axis=(0, 2, 3)) - 1).max() < 1e-3

    def test_idempotent_up_to_tolerance(self):
        train_set = self._noisy_dataset(2, 0.5, 0.12)
        test_set = self._noisy_dataset(3, 0.5, 0.12)
        once_train, once_test, _ = normalize_dataset(train_set, test_set)
        twice_train, _, stats = normalize_dataset(once_train, once_test)
        assert np.abs(np.asarray(stats["mean"])).max() < 1e-5
        assert np.abs(np.asarray(stats["std"]) - 1).max() < 1e-2

    def test_test_split_uses_train_statistics(self):
        train_set = self._noisy_dataset(4, 0.3, 0.05)
        test_set = self._noisy_dataset(5, 0.7, 0.05)
        _, normed_test, stats = normalize_dataset(train_set, test_set)
        # reconstruct: the transform must use the train stats, not test's own
        mean = np.asarray(stats["mean"], dtype=np.float32)[None, :, None, None]
        std = np.asarray(stats["std"], dtype=np.float32)[None, :, None, None]
        want = (test_set.images - mean) / std
        np.testing.assert_allclose(normed_test.images, want, atol=1e-6)
        assert np.abs(normed_test.images.mean()) > 0.5  # test mean stays offset

    def test_zero_std_channel_rejected(self):
        from rornet.data import Dataset
        images = np.zeros((8, 3, 32, 32), dtype=np.float32)
        images[:, (0, 2)] = np.random.default_rng(0).random((8, 2, 32, 32))
        ds = Dataset(images, np.zeros(8, dtype=np.int64), 10, "train", "x")
        with pytest.raises(NumericError, match="1"):
            normalize_dataset(ds, ds)


class TestEvaluate:
    def test_onehot_logits_zero_error(self):
        labels = np.array([0, 3, 9, 1])
        logits = np.eye(10)[labels] * 5.0
        assert top1_error(logits, labels) == 0.0

    def test_chance_level_for_random_model(self):
        # untrained network on many random labels: error near 1 - 1/K
        ds = synthetic_dataset(seed=8, classes=10, n=400, difficulty="hard")
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=1), seed=123)
        err = evaluate(g, ds)
        assert 80.0 < err < 98.0

    def test_pure_and_does_not_touch_running_stats(self):
        ds = synthetic_dataset(seed=9, classes=10, n=60)
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3), seed=5)
        stats_before = {k: (st.running_mean.copy(), st.running_var.copy())
                        for k, st in g.bn.items()}
        first = evaluate(g, ds)
        second = evaluate(g, ds)
        assert first == second
        for k, st in g.bn.items():
            np.testing.assert_array_equal(st.running_mean, stats_before[k][0])
            np.testing.assert_array_equal(st.running_var, stats_before[k][1])


def tiny_run(seed=0, epochs=4, sd=None, out_dir=None):
    train_set = synthetic_dataset(seed=20, classes=4, n=48, difficulty="easy")
    test_set = synthetic_dataset(seed=21, classes=4, n=16, difficulty="easy", split="test")
    train_set, test_set, _ = normalize_dataset(train_set, test_set)
    cfg = ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3, num_classes=4, sd_p_l=sd)
    g = build(cfg, seed=seed)
    tc = TrainConfig(batch_size=16, max_epochs=epochs, milestones=(),
                     pad_crop=False, hflip=False, sd_p_l=sd, seed=seed)
    log = train(g, train_set, test_set, tc, out_dir=out_dir)
    return g, log


class TestTrainLoop:
    def test_descent_on_separable_data(self):
        train_set = synthetic_dataset(seed=30, classes=4, n=64, difficulty="easy")
        test_set = synthetic_dataset(seed=31, classes=4, n=16, difficulty="easy")
        train_set, test_set, _ = normalize_dataset(train_set, test_set)
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3, num_classes=4), seed=1)
        tc = TrainConfig(batch_size=16, max_epochs=11, milestones=(),
                         pad_crop=False, hflip=False, seed=1)
        log = train(g, train_set, test_set, tc)
        assert log.rows[10].train_loss < log.rows[0].train_loss

    def test_lr_column_matches_schedule(self):
        _, log = tiny_run(epochs=4)
        tc = TrainConfig(batch_size=16, max_epochs=4, milestones=(),
                         pad_crop=False, hflip=False)
        for row in log.rows:
            assert row.lr == lr_at(tc, row.epoch)

    def test_deterministic_given_seed(self):
        _, log_a = tiny_run(seed=7, epochs=3)
        _, log_b = tiny_run(seed=7, epochs=3)
        for ra, rb in zip(log_a.rows, log_b.rows):
            assert ra.train_loss == rb.train_loss
            assert ra.train_err == rb.train_err
            assert ra.test_err == rb.test_err
            assert ra.gate_seed == rb.gate_seed

    def test_sd_run_completes_and_logs_gate_seeds(self):
        _, log = tiny_run(seed=3, epochs=3, sd=0.5)
        assert len(log.rows) == 3
        assert len({r.gate_seed for r in log.rows}) == 3

    def test_outputs_written(self, tmp_path):
        tiny_run(epochs=2, out_dir=tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "checkpoint.bin").exists()
        log = MetricsLog.from_csv(tmp_path / "metrics.csv")
        assert [r.epoch for r in log.rows] == [0, 1]
        _, config_text = load_checkpoint(tmp_path / "checkpoint.bin")
        # the config tiny_run built the model from
        assert config_from_text(config_text) == ArchConfig(
            blocks_per_group=(1, 1, 1), levels_m=3, num_classes=4)

    def test_csv_round_trip(self, tmp_path):
        log = MetricsLog()
        log.append(MetricsRow(0, 2.5, 90.0, 91.0, 0.1, 1.25, 42))
        log.append(MetricsRow(1, 1.5, 60.0, 70.0, 0.1, 2.5, 43))
        path = tmp_path / "m.csv"
        log.to_csv(path)
        back = MetricsLog.from_csv(path)
        assert back.rows == log.rows

    def test_a_rewrite_cut_short_leaves_the_previous_csv(self, tmp_path):
        # the file-size limit makes the rewrite fail part way through, as a
        # full disk or a killed run would; the earlier file must still parse
        path = tmp_path / "metrics.csv"
        log = MetricsLog()
        for epoch in range(40):
            log.append(MetricsRow(epoch, 2.5 / (epoch + 1), 90.0 - epoch, 91.0 - epoch, 0.1,
                                  1.25 * epoch, 1000 + epoch))
        log.to_csv(path)
        before = path.read_bytes()
        limit = len(before) // 2
        script = (
            "import resource, signal, sys\n"
            "from rornet.train import MetricsLog, MetricsRow\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "log = MetricsLog()\n"
            "for epoch in range(41):\n"
            "    log.append(MetricsRow(epoch, 9.0, 9.0, 9.0, 0.01, 9.0, 7))\n"
            "try:\n"
            "    log.to_csv(sys.argv[1])\n"
            "except OSError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n")
        src = str(Path(rornet.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == before
        back = MetricsLog.from_csv(path)
        assert [(r.epoch, r.gate_seed) for r in back.rows] == [(r.epoch, r.gate_seed) for r in log.rows]
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_non_monotone_epoch_rejected(self):
        log = MetricsLog()
        log.append(MetricsRow(0, 1, 1, 1, 0.1, 0.0, 0))
        with pytest.raises(ConfigError):
            log.append(MetricsRow(2, 1, 1, 1, 0.1, 0.0, 0))


STEP_SCRIPT = """
import sys
import numpy as np
from rornet import tensor as T
from rornet.arch import ArchConfig, build
from rornet.graph import forward

g = build(ArchConfig(blocks_per_group=(3, 3, 3), levels_m=3), seed=7)
r = np.random.default_rng(3)
x = r.normal(size=(16, 3, 32, 32)).astype(np.float32)
logits = forward(g, x, mode="train")
loss = T.softmax_cross_entropy(logits, r.integers(0, 10, size=16))
T.backward(loss)
out = {"loss": loss.data, "logits": logits.data}
out.update({"grad:" + name: p.tensor.grad for name, p in g.params.items()})
np.savez(sys.argv[1], **out)
"""


class TestThreadCount:
    def test_train_step_is_bitwise_equal_at_one_and_two_blas_threads(self, tmp_path):
        # one RoR-3-20 train step at batch 16; the stride-1 convolutions'
        # weight gradients used to differ with the BLAS thread count
        src = str(Path(rornet.__file__).resolve().parent.parent)
        results = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            path = tmp_path / f"step{threads}.npz"
            subprocess.run([sys.executable, "-c", STEP_SCRIPT, str(path)], env=env, check=True)
            results.append(np.load(path))
        one, two = results
        assert len(one.files) == 2 + 65
        assert sorted(one.files) == sorted(two.files)
        for name in one.files:
            assert np.array_equal(one[name], two[name]), name
