"""Dense tensors with taped reverse-mode automatic differentiation.

Every network primitive lives here: convolution, batch normalization, ReLU,
n-ary addition, pooling, the affine classifier head and the classification
loss. Ops compute eagerly with numpy and record a tape node on the output
so :func:`backward` can sweep the graph in reverse topological order;
inside :func:`no_tape` they record nothing.

Conventions:
  * image layout is N x C x H x W at every op boundary; a convolution of
    any stride works on the zero-padded input's stride phases in NHWC rows
    inside the op (one GEMM per kernel tap, see :func:`conv2d`) split across
    :func:`worker_count` threads of one BLAS thread each, so its results do
    not depend on the thread count,
  * convolutions use cross-correlation semantics and carry no bias,
  * default precision is float32; gradient checking runs at float64,
  * every op validates that its output is finite, and :func:`backward`
    every vjp output, raising :class:`NumericError` otherwise, so NaN/Inf
    never propagate silently,
  * a taped op marks the tensors its vjp reads (``Tensor._read``). The
    graph executor lends :func:`relu` and :func:`add_n` (``out=``) the
    buffers of unmarked inputs, and drops from its training tape what is
    unmarked or what :func:`backward` can rebuild (a train-mode batch norm
    output, or a ReLU of one): its ``data`` becomes a :func:`placeholder`,
    rebuilt just before a vjp that may read it. :func:`backward` frees the
    tape it builds as it sweeps.
"""

from __future__ import annotations

import ctypes
import inspect
import math
import os
import weakref
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
    "no_tape",
    "placeholder",
    "worker_count",
]

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
    explicitly (the optimizer does this after each step). ``node`` is the id
    of the graph node that made the tensor, set by :func:`rornet.graph.forward`
    (None op by op). Those marks make a single-use tape that :func:`backward`
    owns and releases as it sweeps; a tape made op by op belongs to its
    caller and can be swept again.

    ``_read`` is True once a taped op's vjp reads ``data``: the graph
    executor neither writes into nor drops such a value without a rebuild.
    ``_rebuild``, set on a taped output that is cheap to recompute from what
    the tape keeps anyway (train-mode :func:`batch_norm`, and a :func:`relu`
    of such a value), returns that output again. When the graph executor
    drops the value, ``data`` becomes a :func:`placeholder` and
    :func:`backward` calls ``_rebuild`` before a vjp that may read it.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "_parents", "_vjp", "_rebuild", "_read",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[str] = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None
        self._rebuild: Optional[Callable[[], np.ndarray]] = None
        self._read = False

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


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp, rebuild=None, reads=()) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data, requires_grad=_taping and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
        out._rebuild = rebuild
        for p in reads:  # the parents the vjp reads
            p._read = True
    return out


def placeholder(arr: np.ndarray) -> np.ndarray:
    """The ``data`` of a dropped value: a read-only zero-stride view of a NaN
    scalar with ``arr``'s shape and dtype. It holds no buffer. Arithmetic on
    a stray read gives NaN, which the finite checks catch where zeros would
    slip through; a comparison such as ReLU's mask turns NaN into False."""
    return np.broadcast_to(np.array(np.nan, dtype=arr.dtype), arr.shape)


# ---------------------------------------------------------------------------
# shift-GEMM machinery for convolution
# ---------------------------------------------------------------------------

def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _phase_axis(a: int, stride: int, pad: int, size: int, extent: int) -> tuple[slice, slice]:
    """Along one axis: the positions of phase ``a`` on a grid of ``extent``
    that hold input pixels, and the input slice they hold. Phase position r
    is padded pixel stride*r + a, that is input pixel stride*r + a - pad."""
    lo = max(0, -((a - pad) // stride))
    hi = max(lo, min(extent, -((a - pad - size) // stride)))
    return slice(lo, hi), slice(stride * lo + a - pad, stride * hi + a - pad, stride)


def _phase_flat(x: np.ndarray, stride: int, pad: int, phases: tuple[int, int],
                grid: tuple[int, int], dtype, channel_major: bool = False) -> np.ndarray:
    """Zero-pad x (N,C,H,W), split it into stride phases and flatten the
    phase pixels to rows: (N*Hq*Wq, Ph*Pw*C), channels ordered (a, b, c).

    Phase (a, b) holds padded pixels (stride*r + a, stride*c + b) on a
    ``grid`` of (Hq, Wq); grid pixels past the padded input stay zero. At
    stride 1 this is the zero-padded input in NHWC rows. ``channel_major``
    gives the transpose, (Ph*Pw*C, N*Hq*Wq), for the grad-w GEMMs, which run
    faster with the long pixel axis contiguous on both operands.
    """
    n, c, h, w = x.shape
    (ph, pw), (hq, wq) = phases, grid
    rows = [_phase_axis(a, stride, pad, h, hq) for a in range(ph)]
    cols = [_phase_axis(b, stride, pad, w, wq) for b in range(pw)]
    covered = all(q.stop - q.start == hq for q, _ in rows) and all(q.stop - q.start == wq for q, _ in cols)
    if channel_major:
        xq = (np.empty if covered else np.zeros)((ph, pw, c, n, hq, wq), dtype=dtype)
        src = x.transpose(1, 0, 2, 3)
    else:
        xq = (np.empty if covered else np.zeros)((n, hq, wq, ph, pw, c), dtype=dtype)
        src = x.transpose(0, 2, 3, 1)
    for a, (rq, rx) in enumerate(rows):
        for b, (cq, cx) in enumerate(cols):
            if channel_major:
                xq[a, b, :, :, rq, cq] = src[:, :, rx, cx]
            else:
                xq[:, rq, cq, a, b] = src[:, rx, cx]
    return xq.reshape(ph * pw * c, -1) if channel_major else xq.reshape(-1, ph * pw * c)


def _unphase(flat: np.ndarray, stride: int, pad: int, phases: tuple[int, int],
             grid: tuple[int, int], shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_phase_flat`: phase rows back onto the (N, C, H, W)
    input grid, padding dropped. Pixels no phase holds are zero; at stride 1,
    and wherever P = stride, every pixel is held."""
    n, c, h, w = shape
    (ph, pw), (hq, wq) = phases, grid
    gq = flat.reshape(n, hq, wq, ph, pw, c)
    rows = [_phase_axis(a, stride, pad, h, hq) for a in range(ph)]
    cols = [_phase_axis(b, stride, pad, w, wq) for b in range(pw)]
    # phases hold disjoint pixels, one per phase position: when their counts
    # add up to the input extent on both axes, every pixel is written
    held = sum(q.stop - q.start for q, _ in rows) == h and sum(q.stop - q.start for q, _ in cols) == w
    out = (np.empty if held else np.zeros)(shape, dtype=flat.dtype)
    for a, (rq, rx) in enumerate(rows):
        for b, (cq, cx) in enumerate(cols):
            out[:, :, rx, cx] = gq[:, rq, cq, a, b].transpose(0, 3, 1, 2)
    return out


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


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Bias-free 2-D cross-correlation as one GEMM per kernel tap on NHWC rows.

    x: (N, Cin, H, W); weight: (Cout, Cin, kh, kw) with odd kernel extents;
    the output is NCHW. Every stride takes this one path: a stride-s conv is
    a stride-1 conv over the stride phases of the padded input
    (:func:`_phase_flat`). With P = min(s, k) phases per axis, the kernel
    regroups into ceil(k/s) taps per axis over Cin*P*P phase channels, so a
    strided 1x1 conv is a subsample and a 1x1 conv; stride 1 is P = 1.

    In the flat phase layout, pixel (n, r, c) is row (n*Hq + r)*Wq + c, so
    tap (i, j) of every output pixel is the contiguous row slice starting
    at i*Wq + j. Summing the taps' GEMMs gives a "wide" output on the phase
    grid; rows whose window wraps past a row or image edge fall outside the
    crop back to (OH, OW). Only the first ``span`` rows are computed: every
    later row lies outside the crop, and stopping there keeps each tap's
    slice inside the grid. Grad-x is the same sum over the output gradient,
    shifted the other way, with transposed tap weights, then un-shuffled
    back to the input grid (:func:`_unphase`).
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

    ph, pw = min(stride, kh), min(stride, kw)
    th, tw = -(-kh // stride), -(-kw // stride)  # taps per axis
    hq, wq = oh + th - 1, ow + tw - 1
    cq = ph * pw * cin  # phase channels
    rows = n * hq * wq
    lead = (th - 1) * wq + (tw - 1)  # the largest tap offset
    span = rows - lead
    offsets = [i * wq + j for i in range(th) for j in range(tw)]
    dtype = np.result_type(x.data, weight.data)

    def phase_kernel() -> np.ndarray:
        # (Cout, Cq, th, tw): tap (i, j) on phase channel (a, b, c) is
        # weight (stride*i + a, stride*j + b), zero past the kernel's edge
        wz = np.zeros((cout, cin, th * ph, tw * pw), dtype=weight.dtype)
        wz[:, :, :kh, :kw] = weight.data
        return wz.reshape(cout, cin, th, ph, tw, pw).transpose(0, 3, 5, 1, 2, 4).reshape(cout, cq, th, tw)

    # the phase layout and the per-tap weights are rebuilt on backward
    # instead of being pinned on the tape
    taps = phase_kernel().transpose(2, 3, 1, 0).reshape(th * tw, cq, cout).astype(dtype)
    wide = _tap_gemm(_phase_flat(x.data, stride, padding, (ph, pw), (hq, wq), dtype),
                     taps, offsets, rows, span)
    out = _unphase(wide, 1, 0, (1, 1), (hq, wq), (n, cout, oh, ow))  # the crop to (OH, OW)
    del wide

    def vjp(g: np.ndarray):
        # output gradient on the phase grid, behind ``lead`` zero rows so
        # grad-x can read it at non-negative offsets
        gbig = np.zeros((lead + rows, cout), dtype=dtype)
        gbig[lead:].reshape(n, hq, wq, cout)[:, :oh, :ow, :] = g.transpose(0, 2, 3, 1)
        gx = gw = None
        if weight.requires_grad:
            xc = _phase_flat(x.data, stride, padding, (ph, pw), (hq, wq), dtype, channel_major=True)
            gf = gbig[lead:lead + span]
            gw = np.empty((th * tw, cq, cout), dtype=dtype)

            def run(ks: range) -> None:
                for k in ks:
                    np.matmul(xc[:, offsets[k]:offsets[k] + span], gf, out=gw[k])

            _parallel(run, range(th * tw), span)
            gw = gw.reshape(th, tw, ph, pw, cin, cout).transpose(5, 4, 0, 2, 1, 3)
            gw = np.ascontiguousarray(gw.reshape(cout, cin, th * ph, tw * pw)[:, :, :kh, :kw])
            del xc
        if x.requires_grad:
            taps_t = phase_kernel().transpose(2, 3, 0, 1).reshape(th * tw, cout, cq).astype(dtype)
            gxf = _tap_gemm(gbig, taps_t, [lead - off for off in offsets], rows, rows)
            gx = _unphase(gxf, stride, padding, (ph, pw), (hq, wq), x.shape)
        return gx, gw

    return _make(out, "conv2d", (x, weight), vjp, reads=(x,))


def batch_norm(x: Tensor, state: BatchNormState, mode: str = "train") -> Tensor:
    """Channel-wise batch normalization with affine transform.

    Train mode normalizes by batch statistics and folds them into the running
    averages; eval mode normalizes by the stored running statistics, folded
    into one per-channel affine ``x * a + b``. The running variance uses the
    same biased estimator as normalization, so freezing the running stats to
    a batch's statistics reproduces that batch's train-mode output to
    rounding. Reductions run over an (N, C, H*W) view, along H*W first. The
    tape keeps only the per-channel mean and inverse std: the backward
    rebuilds the normalized input from ``x``. A train-mode output can be
    rebuilt too (``Tensor._rebuild``), by the same arithmetic from ``x`` and
    the forward-time scale and shift, unless ``x`` can itself be dropped.
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
        scale, shift = gamma.data * inv_std, beta.data.copy()

        def affine(xc: np.ndarray) -> np.ndarray:
            xc *= scale[:, None]
            xc += shift[:, None]
            return xc.reshape(n, c, h, w)

        out = affine(out)
        rebuild = None if x._rebuild is not None else lambda: affine(centered())
    else:
        mean = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
        a = gamma.data * inv_std
        out = x.data.reshape(n, c, h * w) * a[:, None]
        out += (beta.data - mean * a)[:, None]
        rebuild = None

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

    return _make(out.reshape(n, c, h, w), "batch_norm", (x, gamma, beta), vjp, rebuild, reads=(x,))


def relu(x: Tensor, out: Optional[np.ndarray] = None) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly zero is zero. The vjp
    masks by the output, so ``out`` may be the buffer of ``x``; it reads the
    result through a weak reference, so it sees a rebuilt value and makes no
    reference cycle. When ``x`` can be rebuilt, so can the result."""
    x = _as_tensor(x)
    src = x._rebuild

    def vjp(g: np.ndarray):
        return (g * (result().data > 0),)

    def rebuild() -> np.ndarray:
        y = src()
        return np.maximum(y, 0, out=y)

    y = _make(np.maximum(x.data, 0, out=out), "relu", (x,), vjp, rebuild if src is not None else None)
    y._read = y.requires_grad  # its vjp masks by the output
    result = weakref.ref(y)
    return y


def add_n(inputs: Sequence[Tensor], out: Optional[np.ndarray] = None) -> Tensor:
    """Sum two or more same-shape tensors as ((t0 + t1) + t2) + ...; gradients
    pass through unchanged. ``out`` may be t0's or t1's buffer, no later term's."""
    tensors = [_as_tensor(t) for t in inputs]
    if len(tensors) < 2:
        raise ConfigError("add_n needs at least two inputs")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ConfigError(f"add_n shape mismatch: {shape} vs {t.shape}")
    if out is not None and any(np.may_share_memory(out, t.data) for t in tensors[2:]):
        raise ConfigError("add_n cannot write into the buffer of its third or later term")
    out = np.add(tensors[0].data, tensors[1].data, out=out)
    for t in tensors[2:]:
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
    """Max pooling over square windows: the max over the kernel*kernel
    strided views of the padded input. The gradient routes to the window
    argmax, the first maximum in window order on ties."""
    x = _as_tensor(x)
    n, c, h, w = x.shape
    oh = _out_extent(h, kernel, stride, padding)
    ow = _out_extent(w, kernel, stride, padding)
    padded = (n, c, h + 2 * padding, w + 2 * padding)
    inner = (slice(None), slice(None), slice(padding, padding + h), slice(padding, padding + w))
    windows = [(slice(None), slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))
               for i in range(kernel) for j in range(kernel)]
    xp = np.full(padded, np.finfo(x.dtype).min if np.issubdtype(x.dtype, np.floating) else -np.inf,
                 dtype=x.dtype)
    xp[inner] = x.data
    out = xp[windows[0]].copy()
    arg = np.zeros(out.shape, dtype=np.intp)
    for k, window in enumerate(windows[1:], 1):
        arg[xp[window] > out] = k
        np.maximum(out, xp[window], out=out)
    del xp

    def vjp(g: np.ndarray):
        gp = np.zeros(padded, dtype=g.dtype)
        for k, window in enumerate(windows):
            gp[window] += np.where(arg == k, g, 0)
        return (np.ascontiguousarray(gp[inner]),)

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

    return _make(out, "linear", (x, weight, bias), vjp, reads=(x,))


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

def _released(g: np.ndarray):
    raise NumericError("its tape was released by an earlier backward")


def _op_name(vjp) -> str:
    """The op that recorded ``vjp``: every op defines its vjp inside itself."""
    return inspect.unwrap(vjp).__qualname__.split(".")[0]


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor (Parameters) reachable from ``loss``.

    A leaf that does not feed the loss keeps ``grad`` as None. Traversal is
    iterative, so very deep tapes do not hit the recursion limit. A
    non-finite vjp output raises :class:`NumericError` naming the graph node
    (the op, on a tape made op by op) and the phase.

    Once a node ``graph.forward`` marked has run its vjp, the sweep drops its
    parents, vjp and rebuild, so each activation is freed when nothing later
    in the sweep reads it; a second call that reaches a released node raises
    :class:`NumericError` naming it. A tape made op by op stays whole, and
    repeated calls without clearing grads accumulate.

    ``graph.forward`` leaves a :func:`placeholder` with a ``_rebuild`` only on
    values a vjp reads (``_read``). The sweep rebuilds one just before the
    first vjp that may read it, its own or that of a node whose first input
    it is (every op that reads an input reads its first); node release frees it.
    """
    if loss.data.size != 1:
        raise NumericError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    # iterative post-order DFS; popped from the end, it yields every node
    # before its parents
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
    while order:
        node = order.pop()  # the sweep's own reference goes with it
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = np.array(g) if node.grad is None else node.grad + g
            continue
        for t in (node,) + node._parents[:1]:
            if t._rebuild is not None and not t.data.flags.writeable:  # a placeholder
                t.data, t._rebuild = t._rebuild(), None
        try:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if pg is not g:  # a gradient passed on unchanged was checked where it was made
                    _check_finite(pg, "a vjp")
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
        except NumericError as e:
            where = f"node {node.node!r}" if node.node is not None else f"op {_op_name(node._vjp)!r}"
            raise NumericError(f"{e} (at {where}, in backward)") from e
        if node.node is not None:
            node._parents, node._vjp, node._rebuild = (), _released, None


def he_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator,
            dtype=np.float32) -> np.ndarray:
    """Zero-mean normal draw with variance 2/fan_in, deterministic per rng state."""
    if fan_in <= 0:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)
