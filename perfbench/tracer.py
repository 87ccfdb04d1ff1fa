"""Spans recorded from outside the library, and the per-layer numbers made from them.

The benchmark never edits ``src/``. Instead :class:`Patcher` swaps a public
function for a wrapper on every loaded ``rornet`` module that holds it (so
``rornet.train.forward``, the name the training loop calls, is covered along
with ``rornet.graph.forward``) and puts the originals back afterwards.
:class:`Tracer` uses it to time the calls into each layer and the ``_vjp``
closure each tensor op records on its output; the spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import bisect
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MIB = float(1 << 20)

# (module, function, span name); tensor ops get "tensor.<op>" and "tensor.<op>.bwd"
LAYER_FUNCTIONS = [
    ("rornet.train", "train", "train.train"),
    ("rornet.train", "evaluate", "train.evaluate"),
    ("rornet.train", "augment", "train.augment"),
    ("rornet.train", "sgd_step", "train.sgd_step"),
    ("rornet.graph", "forward", "graph.forward"),
    ("rornet.tensor", "backward", "tensor.backward"),
    ("rornet.stochastic_depth", "sample_gates", "stochastic_depth.sample_gates"),
    ("rornet.arch", "build", "arch.build"),
    ("rornet.arch", "resolve_config", "arch.resolve_config"),
    ("rornet.analysis", "count_params", "analysis.count_params"),
    ("rornet.analysis", "count_paths", "analysis.count_paths"),
    ("rornet.data", "save_checkpoint", "data.save_checkpoint"),
    ("rornet.data", "load_checkpoint", "data.load_checkpoint"),
    ("rornet.data", "load_cifar", "data.load_cifar"),
    ("rornet.data", "synthetic_dataset", "data.synthetic_dataset"),
    ("rornet.cli", "main", "cli.main"),
]
TENSOR_OPS = ["conv2d", "batch_norm", "relu", "add_n", "scale", "subsample_pad",
              "global_avg_pool", "max_pool2d", "linear", "softmax_cross_entropy", "reduce_sum"]
# what a training step spends on compute; the rest of the step is data handling
STEP_COMPUTE = ("graph.forward", "tensor.softmax_cross_entropy", "tensor.backward",
                "train.sgd_step", "stochastic_depth.sample_gates")


class Patcher:
    """Replace attributes and put the originals back, last replaced first restored."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, name: str, wrapper) -> None:
        """Swap ``module.name`` for ``wrapper`` wherever a rornet module holds it."""
        orig = current(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "rornet" or mod_name.startswith("rornet.")) \
                    and vars(mod).get(name) is orig:
                self.replace_attr(mod, name, wrapper)

    def replace_attr(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def restore(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def current(module: str, name: str):
    """The function ``module.name`` as callers see it now (possibly a wrapper)."""
    return getattr(importlib.import_module(module), name)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "flops", "nbytes", "value")

    def __init__(self, sid, name, start, end, parent, flops=0, nbytes=0, value=None):
        self.id, self.name, self.start, self.end, self.parent = sid, name, start, end, parent
        self.flops, self.nbytes, self.value = flops, nbytes, value

    @property
    def dur(self) -> float:
        return self.end - self.start


def _conv_flops(args, kwargs, out) -> tuple[int, int]:
    x = args[0] if args else kwargs["x"]
    w = args[1] if len(args) > 1 else kwargs["weight"]
    n, cout, oh, ow = out.data.shape
    _, cin, kh, kw = w.data.shape
    fwd = 2 * n * cout * oh * ow * cin * kh * kw
    grads = int(getattr(x, "requires_grad", False)) + int(getattr(w, "requires_grad", False))
    return fwd, fwd * grads


def _linear_flops(args, kwargs, out) -> tuple[int, int]:
    x = args[0] if args else kwargs["x"]
    w = args[1] if len(args) > 1 else kwargs["weight"]
    n, k = out.data.shape
    fwd = 2 * n * k * w.data.shape[1]
    grads = int(getattr(x, "requires_grad", False)) + int(getattr(w, "requires_grad", False))
    return fwd, fwd * grads


_FLOPS = {"conv2d": _conv_flops, "linear": _linear_flops}


class Tracer:
    """In-memory spans around every layer boundary the benchmark can reach."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        self._patcher = Patcher()
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _timed(self, name: str, fn, args=(), kwargs=None, after=None):
        kwargs = kwargs or {}
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        span = Span(sid, name, start, end, parent)
        self.spans.append(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one of its phases."""
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append(Span(sid, name, start, time.perf_counter(), parent))

    def _function_wrapper(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            return self._timed(name, fn, args, kwargs, after)
        traced.__wrapped__ = fn
        return traced

    def _op_after(self, op: str):
        flops_of = _FLOPS.get(op)
        bwd_name = f"tensor.{op}.bwd"

        def after(span, args, kwargs, out):
            bwd_flops = 0
            if flops_of is not None:
                span.flops, bwd_flops = flops_of(args, kwargs, out)
            span.nbytes = out.data.nbytes
            if out._vjp is not None:
                out._vjp = self._vjp_wrapper(bwd_name, out._vjp, bwd_flops)
        return after

    def _vjp_wrapper(self, name: str, vjp, flops: int):
        def after(span, args, kwargs, grads):
            span.flops = flops
            span.nbytes = sum(g.nbytes for g in grads if g is not None)

        def traced_vjp(g):
            return self._timed(name, vjp, (g,), None, after)
        traced_vjp.__wrapped__ = vjp
        return traced_vjp

    @staticmethod
    def _gates_after(span, args, kwargs, gates):
        schedule = args[0] if args else kwargs["schedule"]
        span.value = gates.active / schedule.expected_active

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for module, fn_name, span_name in LAYER_FUNCTIONS:
            after = self._gates_after if fn_name == "sample_gates" else None
            self._patcher.replace(module, fn_name,
                                  self._function_wrapper(span_name, current(module, fn_name), after))
        for op in TENSOR_OPS:
            self._patcher.replace("rornet.tensor", op, self._function_wrapper(
                f"tensor.{op}", current("rornet.tensor", op), self._op_after(op)))
        graph_cls = importlib.import_module("rornet.graph").Graph
        to_jsonl = graph_cls.to_jsonl
        self._patcher.replace_attr(graph_cls, "to_jsonl", self._function_wrapper("graph.to_jsonl", to_jsonl))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                    "start_s": s.start - self.origin, "end_s": s.end - self.origin,
                                    "flops": s.flops, "bytes": s.nbytes, "value": s.value}) + "\n")


# ---------------------------------------------------------------------------
# tape size
# ---------------------------------------------------------------------------

def tape_bytes(loss, model_arrays) -> int:
    """Bytes of every array the tape keeps alive behind ``loss``.

    Walks the recorded parents and each ``_vjp`` closure; counts each
    underlying buffer once and skips the model's own parameter arrays.
    """
    skip = {id(a) for a in model_arrays}
    seen_buffers: set[int] = set()
    seen_objects: set[int] = set()
    total = 0

    def count(arr):
        nonlocal total
        root = arr
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) in skip or id(root) in seen_buffers:
            return
        seen_buffers.add(id(root))
        total += root.nbytes

    def closure_arrays(fn):
        stack = [fn]
        while stack:
            f = stack.pop()
            if id(f) in seen_objects:
                continue
            seen_objects.add(id(f))
            for cell in getattr(f, "__closure__", None) or ():
                try:
                    v = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if isinstance(v, np.ndarray):
                    yield v
                elif callable(v) and hasattr(v, "__closure__"):
                    stack.append(v)
                elif hasattr(v, "data") and isinstance(getattr(v, "data", None), np.ndarray) \
                        and hasattr(v, "_vjp"):
                    yield v.data

    pending = [loss]
    visited: set[int] = set()
    while pending:
        t = pending.pop()
        if id(t) in visited:
            continue
        visited.add(id(t))
        count(t.data)
        if t._vjp is not None:
            for arr in closure_arrays(t._vjp):
                count(arr)
        pending.extend(t._parents)
    return total


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class _Windows:
    """Training steps as [start, end) intervals, in time order."""

    def __init__(self, intervals):
        self.starts = [a for a, _ in intervals]
        self.ends = [b for _, b in intervals]

    def __len__(self):
        return len(self.starts)

    def index(self, t: float) -> int:
        i = bisect.bisect_right(self.starts, t) - 1
        return i if i >= 0 and t < self.ends[i] else -1

    def durations(self):
        return [b - a for a, b in zip(self.starts, self.ends)]


def layer_metrics(tracer: Tracer, facts: dict) -> dict[str, float]:
    """Per-layer numbers from the spans plus facts the workload recorded.

    ``facts``: ``step_bounds`` (timed steps as (start, end) pairs),
    ``first_step`` (the untimed first step, whose gate pattern is fixed, for
    the exact counts),
    ``tape_bytes``, ``arch_nodes``, ``checkpoint_bytes``, ``shard_bytes``.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur

    def self_time(s: Span) -> float:
        return s.dur - child_time.get(s.id, 0.0)

    def parent_name(s: Span) -> str:
        p = by_id.get(s.parent)
        return p.name if p is not None else ""

    steps = _Windows(facts["step_bounds"])
    first = _Windows(facts["first_step"])

    def per_step(names, value=lambda s: s.dur, where=lambda s: True) -> list[float]:
        sums = [0.0] * len(steps)
        for s in spans:
            if s.name in names and where(s):
                i = steps.index(s.start)
                if i >= 0:
                    sums[i] += value(s)
        return sums

    def step_ms(*names, value=lambda s: s.dur, where=lambda s: True) -> float:
        return 1e3 * _median(per_step(set(names), value, where))

    def calls_ms(name, where=lambda s: True) -> float:
        return 1e3 * _median(s.dur for s in spans if s.name == name and where(s))

    m: dict[str, float] = {}
    for op in ("conv2d", "batch_norm", "relu", "add_n"):
        m[f"tensor.{op}.fwd_ms"] = step_ms(f"tensor.{op}")
        m[f"tensor.{op}.bwd_ms"] = step_ms(f"tensor.{op}.bwd")

    conv_names = {"tensor.conv2d", "tensor.conv2d.bwd"}
    m["tensor.conv2d.gflop"] = 1e-9 * sum(s.flops for s in spans
                                          if s.name in conv_names and first.index(s.start) == 0)
    conv_flops = sum(per_step(conv_names, value=lambda s: s.flops))
    conv_time = sum(per_step(conv_names))
    m["tensor.conv2d.gflop_per_s"] = 1e-9 * conv_flops / conv_time if conv_time else 0.0
    m["tensor.backward.self_ms"] = step_ms("tensor.backward", value=self_time)
    m["tensor.tape_mb"] = facts.get("tape_bytes", 0) / MIB

    m["graph.forward.ms"] = step_ms("graph.forward")
    m["graph.forward.self_ms"] = step_ms("graph.forward", value=self_time)
    m["graph.nodes_run"] = float(sum(
        1 for s in spans
        if s.name.startswith("tensor.") and not s.name.endswith(".bwd")
        and parent_name(s) == "graph.forward" and first.index(s.start) == 0))

    gate_spans = [s for s in spans if s.name == "stochastic_depth.sample_gates"
                  and steps.index(s.start) >= 0]
    m["stochastic_depth.sample_gates.ms"] = step_ms("stochastic_depth.sample_gates")
    # no drop-path means every block is live, which is the expectation itself
    m["stochastic_depth.live_ratio"] = (statistics.fmean(s.value for s in gate_spans)
                                        if gate_spans else 1.0)

    step_durs = steps.durations()
    m["train.step.ms"] = 1e3 * _median(step_durs)
    m["train.augment.ms"] = step_ms("train.augment")
    m["train.sgd_step.ms"] = step_ms("train.sgd_step")
    m["train.evaluate.ms"] = calls_ms("train.evaluate", where=lambda s: parent_name(s) == "bench.eval")
    compute = per_step(set(STEP_COMPUTE), where=lambda s: parent_name(s) == "train.train")
    m["train.data_wait_share"] = _median((d - c) / d for d, c in zip(step_durs, compute) if d > 0)

    m["arch.build.ms"] = calls_ms("arch.build")
    m["arch.resolve_config.ms"] = calls_ms("arch.resolve_config")
    m["arch.nodes"] = float(facts.get("arch_nodes", 0))
    m["analysis.count_params.ms"] = calls_ms("analysis.count_params")
    m["analysis.count_paths.ms"] = calls_ms("analysis.count_paths")

    m["data.save_checkpoint.ms"] = calls_ms("data.save_checkpoint")
    m["data.load_checkpoint.ms"] = calls_ms("data.load_checkpoint")
    m["data.checkpoint_mb"] = facts.get("checkpoint_bytes", 0) / MIB
    load_s = calls_ms("data.load_cifar") / 1e3
    m["data.load_cifar.mb_per_s"] = facts.get("shard_bytes", 0) / MIB / load_s if load_s else 0.0
    m["data.synthetic_dataset.ms"] = calls_ms("data.synthetic_dataset")

    cli_spans = [s for s in spans if s.name == "cli.main"]
    m["cli.analyze.ms"] = calls_ms("cli.main")
    m["cli.analyze.builds"] = float(sum(
        1 for s in spans if s.name == "arch.build" and cli_spans and s.parent == cli_spans[0].id))
    return m


def op_rollup(tracer: Tracer) -> list[dict]:
    """Calls, forward and backward ms, GFLOP and MiB written per op kind, whole run."""
    rows: dict[str, dict] = {}
    for s in tracer.spans:
        if not s.name.startswith("tensor.") or s.name == "tensor.backward":
            continue
        op = s.name[len("tensor."):]
        bwd = op.endswith(".bwd")
        op = op[:-4] if bwd else op
        row = rows.setdefault(op, {"op": op, "calls": 0, "fwd_ms": 0.0, "bwd_ms": 0.0,
                                   "gflop": 0.0, "mib_written": 0.0})
        if bwd:
            row["bwd_ms"] += 1e3 * s.dur
        else:
            row["calls"] += 1
            row["fwd_ms"] += 1e3 * s.dur
        row["gflop"] += 1e-9 * s.flops
        row["mib_written"] += s.nbytes / MIB
    return sorted(rows.values(), key=lambda r: -(r["fwd_ms"] + r["bwd_ms"]))
