"""Correctness checks and the attempted/failed tally that feeds fail_ratio.

Each check is a pure function of values the run produced, so the self-tests
can hand it a corrupted value and see the failure counted.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

# float32 training step against a float64 rebuild of the same model and batch.
# Measured on RoR-3-20 and RoR-3-110: loss differs by under 1e-7 relative, the
# stem gradient by under 4e-3 in relative L2 norm; a wrong gradient is off by O(1).
LOSS_RTOL = 1e-5
GRAD_RTOL = 2e-2


class Tally:
    """Counts attempted and failed operations; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def run(self, what: str, fn, *args, count: int = 1, **kwargs):
        """Call ``fn`` as ``count`` operations; returns (ok, result or None).

        An exception fails all ``count`` of them, is printed to stderr and
        does not propagate: the benchmark reports failures, it does not stop.
        """
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.record(False, f"{what}: raised", count)
            return False, None
        self.record(True, what, count)
        return True, result

    @property
    def fail_ratio(self) -> float:
        return self.failed / max(self.attempted, 1)


def log_softmax_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy in float64, independent of the library."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def first_step_matches(loss32: float, grad32: np.ndarray, logits64: np.ndarray,
                       labels: np.ndarray, grad64: np.ndarray) -> tuple[bool, str]:
    """The float32 step's loss and stem gradient agree with the float64 rebuild."""
    loss64 = log_softmax_loss(logits64, labels)
    loss_err = abs(loss32 - loss64) / max(abs(loss64), 1e-12)
    grad_err = float(np.linalg.norm(grad32 - grad64) / max(np.linalg.norm(grad64), 1e-30))
    ok = bool(np.isfinite(loss32) and loss_err <= LOSS_RTOL and grad_err <= GRAD_RTOL)
    return ok, (f"loss {loss32:.8g} vs float64 {loss64:.8g} (rel {loss_err:.2e} <= {LOSS_RTOL:g}); "
                f"stem grad rel L2 {grad_err:.2e} <= {GRAD_RTOL:g}")


def states_equal(saved: dict, loaded: dict) -> bool:
    """Checkpoint round trip is bitwise: same names, dtypes, shapes and bytes."""
    if sorted(saved) != sorted(loaded):
        return False
    for name, arr in saved.items():
        a, b = np.asarray(arr), loaded[name]
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def shards_match(pixels: np.ndarray, labels: np.ndarray, images: np.ndarray,
                 parsed_labels: np.ndarray) -> bool:
    """Parsed CIFAR shards equal the source uint8 pixels / 255 and the labels."""
    expected = pixels.astype(np.float32) / np.float32(255.0)
    return (images.dtype == np.float32 and images.shape == expected.shape
            and images.tobytes() == expected.tobytes()
            and np.array_equal(parsed_labels, labels))


def histogram_matches(count: int, histogram: dict[int, int]) -> bool:
    return sum(histogram.values()) == count


def cli_path_count(output: str) -> int | None:
    """The ``paths.total`` row printed by ``rornet analyze``."""
    for line in output.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "paths.total":
            return int(parts[1])
    return None
