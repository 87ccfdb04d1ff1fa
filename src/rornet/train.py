"""SGD training loop: Nesterov momentum, weight decay, step schedules,
augmentation, per-epoch evaluation and CSV metrics logging.

The protocol follows the common residual-network recipe: learning rate 0.1
divided by 10 at fixed epoch milestones, momentum 0.9 with zero dampening,
weight decay 1e-4 folded into the gradient, mini-batches of 128, pad-4
random crops and horizontal flips, per-channel mean/std normalization
computed on the training split only.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import tensor as T
from .arch import config_to_text, parse_field
from .data import Dataset, atomic_write, save_checkpoint
from .exceptions import ConfigError, DataError, NumericError
from .graph import Graph, forward
from .stochastic_depth import (SurvivalSchedule, batch_gate_seeds, sample_gates,
                               survival_schedule)

CIFAR_MILESTONES = (250, 375)
SVHN_MILESTONES = (30, 35)


@dataclass
class TrainConfig:
    base_lr: float = 0.1
    milestones: tuple[int, ...] = CIFAR_MILESTONES
    lr_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 128
    max_epochs: int = 500
    pad_crop: bool = True
    hflip: bool = True
    sd_p_l: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite((self.base_lr, self.lr_factor, self.weight_decay)).all():
            raise ConfigError("base_lr, lr_factor and weight_decay must be finite numbers")
        if self.base_lr <= 0 or self.lr_factor <= 0 or self.max_epochs < 1:
            raise ConfigError("learning rates and epoch count must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2: train-mode batch norm "
                              "cannot normalize a single sample")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight decay must be non-negative, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        ms = tuple(self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if ms and ms[-1] >= self.max_epochs:
            raise ConfigError(f"milestones {ms} must precede max_epochs={self.max_epochs}")
        self.milestones = ms


@dataclass
class MetricsRow:
    epoch: int
    train_loss: float
    train_err: float
    test_err: float
    lr: float
    wall_seconds: float
    gate_seed: int


@dataclass
class MetricsLog:
    rows: list[MetricsRow] = field(default_factory=list)

    CSV_HEADER = tuple(f.name for f in fields(MetricsRow))

    def append(self, row: MetricsRow) -> None:
        if self.rows and row.epoch != self.rows[-1].epoch + 1:
            raise ConfigError(f"non-monotone epoch index {row.epoch}")
        self.rows.append(row)

    def to_csv(self, path) -> None:
        with atomic_write(path) as f:
            w = csv.writer(f)
            w.writerow(self.CSV_HEADER)
            for r in self.rows:
                w.writerow([r.epoch, f"{r.train_loss:.6f}", f"{r.train_err:.4f}",
                            f"{r.test_err:.4f}", f"{r.lr:.6g}", f"{r.wall_seconds:.3f}",
                            r.gate_seed])

    @classmethod
    def from_csv(cls, path) -> "MetricsLog":
        log = cls()
        with open(path, newline="", errors="replace") as f:  # a bad byte fails its cell's parse
            reader = csv.DictReader(f)
            missing = [key for key in cls.CSV_HEADER if key not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}, line 1: missing column(s) {', '.join(missing)}")
            for rec in reader:
                where = f"{path}, line {reader.line_num}"
                try:  # a missing cell is None, which reads as ""
                    log.append(MetricsRow(*(parse_field(MetricsRow, k, rec[k] or "", where)
                                            for k in cls.CSV_HEADER)))
                except ConfigError as e:  # a bad cell names its line, an epoch out of order does not
                    raise DataError(str(e) if str(e).startswith(where) else f"{where}: {e}") from None
        return log


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Step schedule: epochs at or past a milestone use the next decayed rate."""
    passed = sum(1 for m in config.milestones if epoch >= m)
    return config.base_lr * config.lr_factor ** passed


def sgd_step(params, lr: float, momentum: float = 0.9, weight_decay: float = 0.0) -> None:
    """One Nesterov update with zero dampening; decay folds into the gradient.

        v <- mu * v + (g + lambda * w)
        w <- w - lr * (g + lambda * w + mu * v)

    Momentum buffers persist on the parameters across steps. Every gradient
    is checked before any update, so a missing or non-finite one raises
    :class:`NumericError` and leaves every parameter and buffer untouched.
    """
    params = list(params)
    for p in params:
        if p.tensor.grad is None:
            raise NumericError(f"missing gradient for parameter {p.name!r}")
        if not np.isfinite(p.tensor.grad).all():
            raise NumericError(f"non-finite gradient for parameter {p.name!r} in backward")
    for p in params:
        g = p.tensor.grad
        if weight_decay:
            g = g + weight_decay * p.data
        if p.momentum_buffer is None:
            p.momentum_buffer = np.zeros_like(p.data)
        p.momentum_buffer *= momentum
        p.momentum_buffer += g
        p.tensor.data = p.data - lr * (g + momentum * p.momentum_buffer)


def zero_grads(params) -> None:
    for p in params:
        p.tensor.grad = None


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def hflip(image: np.ndarray) -> np.ndarray:
    return image[:, :, ::-1]


def pad_crop(image: np.ndarray, offset_y: int, offset_x: int, pad: int = 4) -> np.ndarray:
    """Zero-pad by ``pad`` on every side, then crop at the given offset.

    Offsets of (pad, pad) recover the original image exactly.
    """
    c, h, w = image.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad:pad + h, pad:pad + w] = image
    return padded[:, offset_y:offset_y + h, offset_x:offset_x + w]


def augment(image: np.ndarray, rng: np.random.Generator,
            use_pad_crop: bool = True, use_hflip: bool = True, pad: int = 4) -> np.ndarray:
    """Random pad-crop then coin-flip horizontal mirror, deterministic per rng."""
    out = image
    if use_pad_crop:
        oy, ox = rng.integers(0, 2 * pad + 1, size=2)
        out = pad_crop(out, int(oy), int(ox), pad)
    if use_hflip and rng.random() < 0.5:
        out = hflip(out)
    return out


def normalize_dataset(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, dict]:
    """Standardize both splits by per-channel stats of the training split only."""
    mean = train.images.mean(axis=(0, 2, 3))
    std = train.images.std(axis=(0, 2, 3))
    if np.any(std == 0):
        dead = np.nonzero(std == 0)[0].tolist()
        raise NumericError(f"zero standard deviation in channel(s) {dead}; cannot normalize")
    stats = {"mean": mean.tolist(), "std": std.tolist()}
    return standardize(train, stats), standardize(test, stats), stats


def standardize(ds: Dataset, stats: dict) -> Dataset:
    """Apply stored per-channel ``stats`` (from :func:`normalize_dataset`) to ``ds``."""
    mean = np.asarray(stats["mean"], dtype=ds.images.dtype)[None, :, None, None]
    std = np.asarray(stats["std"], dtype=ds.images.dtype)[None, :, None, None]
    return replace(ds, images=((ds.images - mean) / std).astype(np.float32))


def evaluate(graph: Graph, dataset: Dataset, batch_size: int = 256,
             schedule: Optional[SurvivalSchedule] = None) -> float:
    """Top-1 error in eval mode (running BN statistics, no stochastic state)."""
    wrong = 0
    for start in range(0, len(dataset), batch_size):
        batch = dataset.images[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        logits = forward(graph, batch, mode="eval", schedule=schedule)
        wrong += int((logits.data.argmax(axis=1) != labels).sum())
    return 100.0 * wrong / len(dataset)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def train(graph: Graph, train_set: Dataset, test_set: Dataset, config: TrainConfig,
          out_dir=None, stop_fn=None) -> MetricsLog:
    """Run the full schedule and return the per-epoch metrics log.

    When ``out_dir`` is given, rewrites metrics.csv as epochs finish and
    writes ``checkpoint_epochNNNN.bin`` at every milestone and
    ``checkpoint.bin`` at the end of the run, each carrying the config text
    that rebuilds ``graph``. ``stop_fn(log)`` is consulted after each epoch;
    returning True ends the run early (checkpoint still written).
    """
    if len(train_set) < 2:
        raise ConfigError("training needs at least two samples (batch statistics)")
    params = graph.parameters()
    rng = np.random.default_rng(config.seed)
    schedule = None
    if config.sd_p_l is not None:
        schedule = survival_schedule(graph.meta["num_blocks"], config.sd_p_l)

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    log = MetricsLog()
    start_time = time.perf_counter()
    n = len(train_set)

    def write_checkpoint(name: str) -> None:
        if out_dir is not None:
            save_checkpoint(out_dir / name, graph.state_dict(),
                            config_to_text(graph.meta["plan"].config))

    batches_per_epoch = (n + config.batch_size - 1) // config.batch_size
    for epoch in range(config.max_epochs):
        lr = lr_at(config, epoch)
        gate_seed = int(rng.integers(0, 2 ** 31))
        batch_seeds = batch_gate_seeds(gate_seed, batches_per_epoch)
        order = rng.permutation(n)

        epoch_loss = 0.0
        epoch_wrong = 0
        seen = 0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            if len(idx) < 2:
                continue  # train-mode BN cannot normalize a single sample
            images = train_set.images[idx]
            labels = train_set.labels[idx]
            if config.pad_crop or config.hflip:
                images = np.stack([
                    augment(im, rng, config.pad_crop, config.hflip) for im in images])

            gates = None
            if schedule is not None:
                gates = sample_gates(schedule, batch_seeds[batch_no])

            logits = forward(graph, images, mode="train", gates=gates)
            loss = T.softmax_cross_entropy(logits, labels)
            T.backward(loss)
            if gates is not None:
                # dropped branches saw no data this batch: zero gradient, so
                # weight decay and momentum still apply as usual
                for p in params:
                    if p.tensor.grad is None:
                        p.tensor.grad = np.zeros_like(p.data)
            sgd_step(params, lr, config.momentum, config.weight_decay)
            zero_grads(params)

            epoch_loss += float(loss.data) * len(idx)
            epoch_wrong += int((logits.data.argmax(axis=1) != labels).sum())
            seen += len(idx)

        test_err = evaluate(graph, test_set, schedule=schedule)
        row = MetricsRow(epoch, epoch_loss / seen, 100.0 * epoch_wrong / seen,
                         test_err, lr, time.perf_counter() - start_time, gate_seed)
        log.append(row)
        if out_dir is not None:
            log.to_csv(out_dir / "metrics.csv")
        if epoch + 1 in config.milestones:
            write_checkpoint(f"checkpoint_epoch{epoch + 1:04d}.bin")
        if stop_fn is not None and stop_fn(log):
            break

    write_checkpoint("checkpoint.bin")
    return log
