"""Shared helpers for the test suite."""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from rornet import tensor as T
from rornet.tensor import Tensor, backward


def central_diff(loss_fn, array: np.ndarray, indices, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of ``loss_fn()`` w.r.t. selected flat indices.

    Perturbs ``array`` in place and restores it, so ``loss_fn`` must read the
    array by reference.
    """
    flat = array.reshape(-1)
    out = np.empty(len(indices), dtype=np.float64)
    for pos, idx in enumerate(indices):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        out[pos] = (up - down) / (2.0 * h)
    return out


def relative_errors(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Fixed random linear functional of an op output.

    Gives the finite-difference check a generic downstream direction instead
    of all-ones (which e.g. batch norm maps to nearly zero). Built the same
    way the library's own primitives record themselves on the tape.
    """
    w = np.asarray(weights, dtype=x.data.dtype)
    out = Tensor(np.asarray((x.data * w).sum()), requires_grad=x.requires_grad)
    if out.requires_grad:
        out._parents = (x,)
        out._vjp = lambda g: (g * w,)
    return out


def check_gradient(op_fn, arrays, h: float = 1e-5, samples: int = 6,
                   seed: int = 0, exclude=None) -> float:
    """Compare taped gradients of a random functional of ``op_fn(*tensors)``
    against central finite differences.

    Returns the worst relative error over sampled elements of every input.
    ``exclude(array, idx)`` can veto indices (e.g. near a ReLU kink).
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    probe = None

    def run():
        nonlocal probe
        out = op_fn(*tensors)
        if probe is None:
            probe = np.random.default_rng(seed + 99).normal(size=out.data.shape)
        return weighted_sum(out, probe)

    loss = run()
    backward(loss)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "input did not receive a gradient"
        count = min(samples, t.data.size)
        indices = rng.choice(t.data.size, size=count, replace=False)
        if exclude is not None:
            indices = [i for i in indices if not exclude(t.data, i)]
        if not len(indices):
            continue
        fd = central_diff(lambda: float(run().data), t.data, indices, h)
        ad = t.grad.reshape(-1)[list(indices)]
        worst = max(worst, float(relative_errors(ad, fd).max()))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def four_mib_machine(monkeypatch):
    """Report 4 MiB of physical memory to :func:`rornet.tensor.check_memory`."""
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda key: (4 << 20) // sysconf("SC_PAGE_SIZE")
                        if key == "SC_PHYS_PAGES" else sysconf(key))


@contextmanager
def workers(count):
    """Run convolutions and weight draws with ``count`` pool workers, even on a 1-CPU machine.

    The pool started here is shut down on exit. The calling thread runs its
    own GEMMs on one BLAS thread too, as the pool's workers do, so an inline
    run and a split run make the same calls.
    """
    blas = T._blas_threads_local()
    if blas is None:
        pytest.skip("the worker pool needs numpy linked against OpenBLAS")
    saved = T.worker_count, T._pool
    T.worker_count, T._pool = (lambda: count), None
    previous = blas(1)
    try:
        yield
    finally:
        if T._pool is not None:
            T._pool.shutdown()
        T.worker_count, T._pool = saved
        blas(previous)
