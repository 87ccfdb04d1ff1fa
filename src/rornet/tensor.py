"""Dense tensors with taped reverse-mode automatic differentiation.

Every network primitive lives here: convolution, batch normalization, ReLU,
n-ary addition, pooling, the affine classifier head and the classification
loss. Ops compute eagerly with numpy and record a tape node on the output
so :func:`backward` can sweep the graph in reverse topological order;
inside :func:`no_tape` they record nothing.

Conventions:
  * image layout is N x C x H x W at every op boundary; a stride-1
    convolution works on zero-padded NHWC rows inside the op (one GEMM per
    kernel tap, see :func:`_conv2d_shift`) split across :func:`worker_count`
    threads of one BLAS thread each, so its results do not depend on the
    thread count; other strides and max pooling unfold windows with im2col,
  * convolutions use cross-correlation semantics and carry no bias,
  * default precision is float32; gradient checking runs at float64,
  * every op validates that its output is finite and raises
    :class:`NumericError` otherwise, so NaN/Inf never propagate silently.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import ConfigError, NumericError

__all__ = [
    "Tensor",
    "Parameter",
    "BatchNormState",
    "conv2d",
    "batch_norm",
    "relu",
    "add_n",
    "scale",
    "reduce_sum",
    "global_avg_pool",
    "max_pool2d",
    "linear",
    "softmax_cross_entropy",
    "backward",
    "he_init",
    "enable_buffer_reuse",
    "no_tape",
    "worker_count",
]

@lru_cache(maxsize=None)
def enable_buffer_reuse() -> bool:
    """Keep large numpy buffers on the heap so repeated calls reuse pages.

    By default glibc serves multi-megabyte allocations with fresh mmap
    regions and unmaps them on free, so each call faults in its buffers'
    pages again. Keeping them on the heap saves those faults, which matters
    most for checkpoint save and load of a large model. Sets process-wide
    glibc ``mallopt`` knobs. Idempotent; returns False when the allocator
    does not support the knobs (non-glibc).
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        m_mmap_max, m_trim_threshold = -4, -1
        return libc.mallopt(m_mmap_max, 0) == 1 and libc.mallopt(m_trim_threshold, -1) == 1
    except OSError:
        return False


_taping = True


@contextmanager
def no_tape():
    """Record no tape inside the block: op outputs get no parents or vjp, so
    each intermediate array is freed once nothing else refers to it."""
    global _taping
    prev, _taping = _taping, False
    try:
        yield
    finally:
        _taping = prev


class Tensor:
    """A dense n-dimensional array that can participate in the gradient tape.

    ``grad`` accumulates across repeated backward passes; callers reset it
    explicitly (the optimizer does this after each step).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter:
    """A named, trainable tensor plus its optimizer momentum buffer.

    Names are hierarchical paths ("group2.block003.conv1.weight"); a model's
    parameter table iterates them lexicographically so runs are reproducible.
    """

    __slots__ = ("name", "tensor", "momentum_buffer")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)
        self.momentum_buffer: Optional[np.ndarray] = None

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class BatchNormState:
    """Per-channel affine parameters and running statistics for one BN node."""

    __slots__ = ("gamma", "beta", "running_mean", "running_var", "momentum", "epsilon")

    def __init__(self, name: str, channels: int, dtype=np.float32,
                 momentum: float = 0.1, epsilon: float = 1e-5):
        if not 0.0 < momentum < 1.0:
            raise ConfigError(f"batch norm momentum must lie in (0, 1), got {momentum}")
        self.gamma = Parameter(name + ".gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(name + ".beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.momentum = momentum
        self.epsilon = epsilon

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad=_taping and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# im2col machinery for convolution and max pooling
# ---------------------------------------------------------------------------

def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            fill: float = 0.0) -> np.ndarray:
    """Unfold x (N,C,H,W) into sliding-window columns (N, C*kh*kw, OH*OW)."""
    n, c, h, w = x.shape
    oh = _out_extent(h, kh, stride, pad)
    ow = _out_extent(w, kw, stride, pad)
    if pad:
        xp = np.full((n, c, h + 2 * pad, w + 2 * pad), fill, dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
            stride: int, pad: int) -> np.ndarray:
    """Fold columns back onto the input grid, summing overlapping windows."""
    n, c, h, w = x_shape
    oh = _out_extent(h, kh, stride, pad)
    ow = _out_extent(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    if pad:
        return xp[:, :, pad:pad + h, pad:pad + w].copy()
    return xp


# ---------------------------------------------------------------------------
# shift-GEMM convolution (stride 1)
# ---------------------------------------------------------------------------

def _pad_flat(x: np.ndarray, pad: int, dtype, channel_major: bool = False) -> np.ndarray:
    """Zero-pad x (N,C,H,W) and flatten its pixels to rows: NHWC (N*Hp*Wp, C).

    ``channel_major`` gives the transpose, (C, N*Hp*Wp), for the grad-w GEMMs,
    which run faster with the long pixel axis contiguous on both operands.
    """
    n, c, h, w = x.shape
    if channel_major:
        xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
        return xp.reshape(c, -1)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    xp[:, pad:pad + h, pad:pad + w, :] = x.transpose(0, 2, 3, 1)
    return xp.reshape(-1, c)


_TAP_BLOCK = 2048  # output rows per block: a block's partial sums stay in cache
_pool: Optional[ThreadPoolExecutor] = None


@lru_cache(maxsize=None)
def _blas_threads_local():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.rsplit("/", 1)[-1]})
        setter = next((lib.openblas_set_num_threads_local for lib in map(ctypes.CDLL, libs)
                       if hasattr(lib, "openblas_set_num_threads_local")), None)
    except OSError:
        return None
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@lru_cache(maxsize=None)
def worker_count() -> int:
    """Threads a stride-1 convolution splits its GEMMs across: the BLAS thread
    setting (``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``) up to the usable
    CPUs, else those CPUs; 1 without OpenBLAS. Workers run one BLAS thread each,
    a setting a pthreads OpenBLAS applies to the whole process once the pool starts."""
    cpus = len(os.sched_getaffinity(0))
    setting = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    wanted = int(setting) if setting.isdigit() else 0  # 0 or unset means every CPU, as in OpenBLAS
    return min(wanted or cpus, cpus) if _blas_threads_local() else 1


def _parallel(fn: Callable, items: Sequence, span: int) -> None:
    """Run ``fn`` over contiguous runs of ``items``, one per pool worker, when each
    worker gets a full block of the ``span`` GEMM rows, else ``fn(items)`` inline.
    Waits for every run before re-raising the first failure: no worker outlives it."""
    global _pool
    n = min(len(items), worker_count()) if span // _TAP_BLOCK >= worker_count() else 1
    if n == 1:
        return fn(items)
    if _pool is None:
        _pool = ThreadPoolExecutor(worker_count(), initializer=_blas_threads_local(), initargs=(1,))
    futures = [_pool.submit(fn, items[len(items) * i // n:len(items) * (i + 1) // n]) for i in range(n)]
    wait(futures)
    for future in futures:
        future.result()


def _tap_gemm(src: np.ndarray, mats: Sequence[np.ndarray], offsets: Sequence[int],
              rows: int, span: int) -> np.ndarray:
    """Sum of shifted GEMMs: out[r] = sum_k src[r + offsets[k]] @ mats[k].

    Returns ``rows`` output rows of which only the first ``span`` are
    computed; the rest are left uninitialised for the caller to crop away.
    Workers take contiguous runs of blocks; each block makes the same GEMM calls.
    """
    out = np.empty((rows, mats[0].shape[1]), dtype=src.dtype)

    def run(blocks: range) -> None:
        part = np.empty((min(_TAP_BLOCK, span), out.shape[1]), dtype=src.dtype)
        for lo in blocks:
            hi = min(lo + _TAP_BLOCK, span)
            acc = out[lo:hi]
            np.matmul(src[lo + offsets[0]:hi + offsets[0]], mats[0], out=acc)
            for off, m in zip(offsets[1:], mats[1:]):
                np.matmul(src[lo + off:hi + off], m, out=part[:hi - lo])
                acc += part[:hi - lo]

    _parallel(run, range(0, span, _TAP_BLOCK), span)
    return out


def _conv2d_shift(x: Tensor, weight: Tensor, pad: int) -> Tensor:
    """Stride-1 conv2d as one GEMM per kernel tap, with no im2col buffer.

    In the flat padded NHWC layout, pixel (n, r, c) is row (n*Hp + r)*Wp + c,
    so tap (i, j) of every output pixel is the contiguous row slice starting
    at i*Wp + j. Summing the taps' GEMMs gives a "wide" output on the padded
    grid; rows whose window wraps past a row or image edge fall outside the
    crop back to (OH, OW). Only the first ``span`` rows are computed: every
    later row lies outside the crop, and stopping there keeps each tap's
    slice inside the padded input. Grad-x is the same sum over the output
    gradient, shifted the other way, with transposed tap weights.
    """
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = hp - kh + 1, wp - kw + 1
    rows = n * hp * wp
    lead = (kh - 1) * wp + (kw - 1)  # the largest tap offset
    span = rows - lead
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    dtype = np.result_type(x.data, weight.data)

    def crop(flat: np.ndarray, top: int, height: int, width: int) -> np.ndarray:
        grid = flat.reshape(n, hp, wp, -1)[:, top:top + height, top:top + width, :]
        return np.ascontiguousarray(grid.transpose(0, 3, 1, 2))

    # the padded input and the per-tap weights are rebuilt on backward
    # instead of being pinned on the tape
    taps = weight.data.transpose(2, 3, 1, 0).reshape(kh * kw, cin, cout).astype(dtype)
    out = crop(_tap_gemm(_pad_flat(x.data, pad, dtype), taps, offsets, rows, span), 0, oh, ow)

    def vjp(g: np.ndarray):
        # output gradient on the padded grid, behind ``lead`` zero rows so
        # grad-x can read it at non-negative offsets
        gbig = np.zeros((lead + rows, cout), dtype=dtype)
        gbig[lead:].reshape(n, hp, wp, cout)[:, :oh, :ow, :] = g.transpose(0, 2, 3, 1)
        gx = gw = None
        if weight.requires_grad:
            xc = _pad_flat(x.data, pad, dtype, channel_major=True)
            gf = gbig[lead:lead + span]
            gw = np.empty((kh * kw, cin, cout), dtype=dtype)

            def run(ks: range) -> None:
                for k in ks:
                    np.matmul(xc[:, offsets[k]:offsets[k] + span], gf, out=gw[k])

            _parallel(run, range(kh * kw), span)
            gw = np.ascontiguousarray(gw.reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1))
            del xc
        if x.requires_grad:
            taps_t = weight.data.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin).astype(dtype)
            gxf = _tap_gemm(gbig, taps_t, [lead - off for off in offsets], rows, rows)
            gx = crop(gxf, pad, h, w)
        return gx, gw

    return _make(out, "conv2d", (x, weight), vjp)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Bias-free 2-D cross-correlation.

    x: (N, Cin, H, W); weight: (Cout, Cin, kh, kw) with odd kernel extents;
    the output is NCHW. Stride 1 runs as shift-GEMM on NHWC rows
    (:func:`_conv2d_shift`), with no im2col buffer and no col2im; any other
    stride unfolds windows with im2col. Both recompute their unfolded or
    padded input on backward instead of keeping it on the tape.
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ConfigError("conv2d expects 4-d input and weight")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ConfigError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    oh = _out_extent(h, kh, stride, padding)
    ow = _out_extent(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ConfigError(f"conv2d output would be empty for input {h}x{w}, kernel {kh}x{kw}, "
                          f"stride {stride}, padding {padding}")

    if stride == 1:
        return _conv2d_shift(x, weight, padding)

    cols = _im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(cout, -1)
    out = np.matmul(w2, cols).reshape(n, cout, oh, ow)
    del cols  # recomputed on backward: cheaper than pinning ~100MB per conv

    def vjp(g: np.ndarray):
        gm = g.reshape(n, cout, oh * ow)
        gx = gw = None
        if weight.requires_grad:
            cols_b = _im2col(x.data, kh, kw, stride, padding)
            gw = np.matmul(gm, cols_b.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
            del cols_b
        if x.requires_grad:
            gcols = np.matmul(w2.T, gm)
            gx = _col2im(gcols, x.shape, kh, kw, stride, padding)
        return gx, gw

    return _make(out, "conv2d", (x, weight), vjp)


def batch_norm(x: Tensor, state: BatchNormState, mode: str = "train") -> Tensor:
    """Channel-wise batch normalization with affine transform.

    Train mode normalizes by batch statistics and folds them into the running
    averages; eval mode normalizes by the stored running statistics, folded
    into one per-channel affine ``x * a + b``. The running variance uses the
    same biased estimator as normalization, so freezing the running stats to
    a batch's statistics reproduces that batch's train-mode output to
    rounding. Reductions run over an (N, C, H*W) view, along H*W first. The
    tape keeps only the per-channel mean and inverse std: the backward
    rebuilds the normalized input from ``x``.
    """
    x = _as_tensor(x)
    if mode not in ("train", "eval"):
        raise ConfigError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4:
        raise ConfigError("batch_norm expects N,C,H,W input")
    n, c, h, w = x.shape
    if c != state.channels:
        raise ConfigError(f"batch_norm channel mismatch: input has {c}, state has {state.channels}")
    gamma, beta = state.gamma.tensor, state.beta.tensor
    m = n * h * w

    def centered() -> np.ndarray:
        return x.data.reshape(n, c, h * w) - mean[:, None]

    def per_channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ncs,ncs->nc", a, b).sum(axis=0)

    if mode == "train":
        if m < 2:
            raise NumericError("batch_norm in train mode needs N*H*W >= 2 (variance undefined)")
        mean = x.data.reshape(n, c, h * w).sum(axis=2).sum(axis=0) / m
        out = centered()
        var = per_channel_dot(out, out) / m
        mom = state.momentum
        state.running_mean = ((1.0 - mom) * state.running_mean + mom * mean).astype(x.dtype)
        state.running_var = ((1.0 - mom) * state.running_var + mom * var).astype(x.dtype)
        inv_std = 1.0 / np.sqrt(var + state.epsilon)
        out *= (gamma.data * inv_std)[:, None]
        out += beta.data[:, None]
    else:
        mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
        a = gamma.data * inv_std
        out = x.data.reshape(n, c, h * w) * a[:, None]
        out += (beta.data - mean * a)[:, None]

    def vjp(g: np.ndarray):
        g = g.reshape(n, c, h * w)
        xc = centered()  # xhat / inv_std
        gbeta = g.sum(axis=2).sum(axis=0)
        ggamma = per_channel_dot(g, xc) * inv_std
        gx = None
        if x.requires_grad and mode == "eval":
            gx = g * (gamma.data * inv_std)[:, None]
        elif x.requires_grad:
            # gx = (gamma * inv_std / m) * (m * g - gbeta - xhat * ggamma), in xc's buffer
            xc *= (ggamma * inv_std / m)[:, None]
            xc += gbeta[:, None] / m
            np.subtract(g, xc, out=xc)
            xc *= (gamma.data * inv_std)[:, None]
            gx = xc
        return gx, ggamma, gbeta

    return _make(out.reshape(n, c, h, w), "batch_norm", (x, gamma, beta), vjp)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly zero is zero."""
    x = _as_tensor(x)
    out = np.maximum(x.data, 0)

    def vjp(g: np.ndarray):
        return (g * (x.data > 0),)

    return _make(out, "relu", (x,), vjp)


def add_n(inputs: Sequence[Tensor]) -> Tensor:
    """Sum two or more same-shape tensors; gradients pass through unchanged."""
    tensors = [_as_tensor(t) for t in inputs]
    if len(tensors) < 2:
        raise ConfigError("add_n needs at least two inputs")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ConfigError(f"add_n shape mismatch: {shape} vs {t.shape}")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out += t.data

    def vjp(g: np.ndarray):
        return tuple(g if t.requires_grad else None for t in tensors)

    return _make(out, "add_n", tuple(tensors), vjp)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (used for survival-probability scaling)."""
    x = _as_tensor(x)
    out = x.data * factor

    def vjp(g: np.ndarray):
        return (g * factor,)

    return _make(out, "scale", (x,), vjp)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum all elements to a scalar; the gradient broadcasts back as ones."""
    x = _as_tensor(x)
    out = np.asarray(x.data.sum())

    def vjp(g: np.ndarray):
        return (np.broadcast_to(g, x.shape),)

    return _make(out, "reduce_sum", (x,), vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: (N,C,H,W) -> (N,C)."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ConfigError("global_avg_pool expects N,C,H,W input")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def vjp(g: np.ndarray):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), x.shape)
        return (np.ascontiguousarray(gx),)

    return _make(out, "global_avg_pool", (x,), vjp)


def max_pool2d(x: Tensor, kernel: int = 3, stride: int = 2, padding: int = 1) -> Tensor:
    """Max pooling over square windows; gradient routes to the window argmax."""
    x = _as_tensor(x)
    n, c, h, w = x.shape
    oh = _out_extent(h, kernel, stride, padding)
    ow = _out_extent(w, kernel, stride, padding)
    neg = np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else -np.inf
    cols = _im2col(x.data, kernel, kernel, stride, padding, fill=neg)
    cols = cols.reshape(n, c, kernel * kernel, oh * ow)
    arg = cols.argmax(axis=2)
    out = np.take_along_axis(cols, arg[:, :, None, :], axis=2)[:, :, 0, :].reshape(n, c, oh, ow)

    def vjp(g: np.ndarray):
        gcols = np.zeros((n, c, kernel * kernel, oh * ow), dtype=g.dtype)
        np.put_along_axis(gcols, arg[:, :, None, :], g.reshape(n, c, 1, oh * ow), axis=2)
        gx = _col2im(gcols.reshape(n, c * kernel * kernel, oh * ow),
                     x.shape, kernel, kernel, stride, padding)
        return (gx,)

    return _make(out, "max_pool2d", (x,), vjp)


def subsample_pad(x: Tensor, stride: int, out_channels: int) -> Tensor:
    """Parameter-free projection: spatial subsampling plus zero channel padding.

    Keeps rows/columns at indices {0, stride, 2*stride, ...} and appends
    zero-filled channels up to ``out_channels``.
    """
    x = _as_tensor(x)
    n, c, h, w = x.shape
    if out_channels < c:
        raise ConfigError(f"zero-padding projection cannot shrink channels ({c} -> {out_channels})")
    sub = x.data[:, :, ::stride, ::stride]
    out = np.zeros((n, out_channels) + sub.shape[2:], dtype=x.dtype)
    out[:, :c] = sub

    def vjp(g: np.ndarray):
        gx = np.zeros(x.shape, dtype=g.dtype)
        gx[:, :, ::stride, ::stride] = g[:, :c]
        return (gx,)

    return _make(out, "subsample_pad", (x,), vjp)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map (N,D) @ (K,D)^T + (K,)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ConfigError("linear expects 2-d input and weight")
    n, d = x.shape
    k, d_w = weight.shape
    if d != d_w:
        raise ConfigError(f"linear dimension mismatch: input has {d} features, weight expects {d_w}")
    if bias.shape != (k,):
        raise ConfigError(f"linear bias must have shape ({k},), got {bias.shape}")
    out = x.data @ weight.data.T + bias.data

    def vjp(g: np.ndarray):
        gx = g @ weight.data if x.requires_grad else None
        gw = g.T @ x.data if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return _make(out, "linear", (x, weight, bias), vjp)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Stabilized by max subtraction; the backward pass is (softmax - onehot)/N.
    """
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ConfigError("softmax_cross_entropy expects (N, K) logits")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ConfigError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ConfigError(f"labels must lie in [0, {k}), got range "
                          f"[{labels.min()}, {labels.max()}]")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -logp[np.arange(n), labels].mean()

    def vjp(g: np.ndarray):
        soft = np.exp(logp)
        soft[np.arange(n), labels] -= 1.0
        return (g * soft / n,)

    return _make(np.asarray(loss), "softmax_cross_entropy", (logits,), vjp)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor (Parameters) reachable from ``loss``.

    Repeated calls without clearing grads accumulate; a leaf that does not
    feed the loss keeps ``grad`` as None. Traversal is iterative, so very
    deep tapes do not hit the recursion limit.
    """
    if loss.data.size != 1:
        raise NumericError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # iterative post-order DFS; reversed, it visits every node before its parents
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    owned: set[int] = set()  # grads whose buffer this sweep allocated
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = np.array(g) if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pg = pg.reshape(parent.data.shape)
            key = id(parent)
            if key not in grads:
                grads[key] = pg
            elif key in owned:
                grads[key] += pg
            else:
                # a vjp's array may be shared with other parents or read-only
                grads[key] = grads[key] + pg
                owned.add(key)


def he_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator,
            dtype=np.float32) -> np.ndarray:
    """Zero-mean normal draw with variance 2/fan_in, deterministic per rng state."""
    if fan_in <= 0:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)
