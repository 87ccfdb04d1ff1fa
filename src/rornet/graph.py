"""Computation-graph IR: topologically ordered nodes plus an executor.

The builder in :mod:`rornet.arch` emits this representation; everything
downstream (forward execution, parameter counting, path enumeration,
JSON-lines export) consumes it. Node ids are hierarchical paths, which
doubles as the error-reporting locus when execution fails.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, NumericError, StateNameError

OPS = ("input", "conv", "bn", "relu", "add", "pad_project", "maxpool", "gap", "linear")


@dataclass
class Node:
    """One operation in the graph.

    attrs carry op-specific settings: conv has ``param``, ``stride``,
    ``padding``; bn has ``state``; add may mark one input as the gated
    residual branch via ``branch`` and its block index via ``block``.
    ``shape`` is the per-sample output shape (channels first, batch implied).
    """

    id: str
    op: str
    inputs: list[str]
    attrs: dict = field(default_factory=dict)
    shape: tuple[int, ...] = ()


class Graph:
    """Acyclic, topologically ordered node list with its parameter table."""

    def __init__(self, family: str, input_shape: tuple[int, int, int], meta: Optional[dict] = None):
        self.family = family
        self.input_shape = input_shape
        self.nodes: list[Node] = []
        self.by_id: dict[str, Node] = {}
        self.params: dict[str, T.Parameter] = {}
        self.bn: dict[str, T.BatchNormState] = {}
        self.input_id: Optional[str] = None
        self.output_id: Optional[str] = None
        self.meta: dict = meta or {}

    # -- construction ------------------------------------------------------

    def add_node(self, node_id: str, op: str, inputs: Iterable[str],
                 attrs: Optional[dict] = None, shape: tuple[int, ...] = ()) -> Node:
        if node_id in self.by_id:
            raise ConfigError(f"duplicate node id {node_id!r}")
        if op not in OPS:
            raise ConfigError(f"unknown op kind {op!r} at {node_id!r}")
        inputs = list(inputs)
        for i in inputs:
            if i not in self.by_id:
                raise ConfigError(f"node {node_id!r} references undefined input {i!r}")
        node = Node(node_id, op, inputs, dict(attrs or {}), tuple(shape))
        self.nodes.append(node)
        self.by_id[node_id] = node
        return node

    def add_param(self, name: str, data: np.ndarray) -> T.Parameter:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = T.Parameter(name, data)
        self.params[name] = p
        return p

    def add_bn_state(self, name: str, channels: int, dtype) -> T.BatchNormState:
        if name in self.bn:
            raise ConfigError(f"duplicate batch-norm state {name!r}")
        state = T.BatchNormState(name, channels, dtype=dtype)
        self.bn[name] = state
        self.params[state.gamma.name] = state.gamma
        self.params[state.beta.name] = state.beta
        return state

    # -- introspection -----------------------------------------------------

    def parameters(self) -> list[T.Parameter]:
        """Parameter table in deterministic lexicographic order."""
        return [self.params[k] for k in sorted(self.params)]

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def add_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.op == "add"]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters plus BN running statistics, keyed by name."""
        out = {name: p.data for name, p in sorted(self.params.items())}
        for name, st in sorted(self.bn.items()):
            out[name + ".running_mean"] = st.running_mean
            out[name + ".running_var"] = st.running_var
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Install a state dict into the live buffers of the parameters and BN
        running statistics; names and shapes must match exactly. Every array is
        checked before any is written, so a rejected state changes nothing."""
        live = self.state_dict()
        if set(live) != set(state):
            missing = sorted(set(live) - set(state))
            extra = sorted(set(state) - set(live))
            raise StateNameError(
                f"state name mismatch: missing {missing or 'none'}, unexpected {extra or 'none'}")
        pairs = [(name, dst, np.asarray(state[name], dtype=dst.dtype)) for name, dst in live.items()]
        for name, dst, arr in pairs:
            if arr.shape != dst.shape:
                raise StateNameError(f"shape mismatch for {name}: {arr.shape} vs {dst.shape}")
        for _, dst, arr in pairs:
            dst[...] = arr

    def to_jsonl(self) -> str:
        """One JSON object per node, in topological order."""
        lines = []
        for n in self.nodes:
            rec = {"id": n.id, "op": n.op, "inputs": n.inputs, "shape": list(n.shape)}
            rec.update({k: v for k, v in n.attrs.items() if v is not None})
            lines.append(json.dumps(rec))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def forward(graph: Graph, x, mode: str = "train", gates=None, schedule=None,
            capture: Optional[Iterable[str]] = None):
    """Execute the graph on a batch and return the logits tensor.

    ``gates`` (train mode) drops residual branches for this mini-batch;
    ``schedule`` (eval mode) scales each residual branch by its survival
    probability. Level shortcuts are never gated or scaled. When ``capture``
    names node ids, returns ``(logits, {id: ndarray})`` instead.
    One sweep over the nodes in reverse, from the output, plans the call: the
    nodes that run (a dropped block's branch is never reached), the terms
    each addition sums, and each value's last consumer, which is the first
    one the sweep meets. A relu or addition writes into the buffer of a value
    it consumes once and last if no taped vjp reads it (``Tensor._read``).
    After its last consumer, each value goes to :meth:`rornet.tensor.Tensor.drop`,
    which holds the tape's memory rule; eval mode records no tape, so there
    each activation is simply freed. The input, captured values and what an
    addition passes on are neither written into nor dropped.
    Each tensor a node creates carries the node's id (``Tensor.node``), which
    makes the training tape single-use: :func:`rornet.tensor.backward` frees
    it as it sweeps, and names the node when a gradient is non-finite.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if graph.output_id is None:
        raise ConfigError("graph has no output node")
    data = x.data if isinstance(x, T.Tensor) else np.asarray(x)
    if data.ndim != 4 or tuple(data.shape[1:]) != graph.input_shape:
        raise ConfigError(
            f"input must have shape (N, {', '.join(map(str, graph.input_shape))}), got {data.shape}")
    dtype = graph.meta.get("dtype", np.float32)
    xt = T.Tensor(np.ascontiguousarray(data, dtype=dtype))

    num_blocks = graph.meta.get("num_blocks", 0)
    if gates is not None:
        if mode != "train":
            raise ConfigError("gates are a train-mode mechanism; use schedule in eval mode")
        if len(gates.gates) != num_blocks:
            raise ConfigError(f"gate vector has length {len(gates.gates)}, "
                              f"model has {num_blocks} residual blocks")
    if schedule is not None and len(schedule.probs) != num_blocks:
        raise ConfigError(f"survival schedule has length {len(schedule.probs)}, "
                          f"model has {num_blocks} residual blocks")

    dropped = {l + 1 for l, g in enumerate(gates.gates) if g == 0} if gates is not None else set()

    capture = set(capture or ())
    whole = capture | {graph.input_id}  # never written into, nor dropped from the tape
    reached = {graph.output_id}
    run, terms, ends = [], {}, {}  # what runs; a dropped addition's live terms; id -> values it consumes last
    for node in reversed(graph.nodes):
        if node.id not in reached:
            continue
        run.append(node)
        live = node.inputs
        if node.op == "add" and node.attrs.get("block") in dropped:
            live = terms[node.id] = [i for i in live if i != node.attrs.get("branch")]
            whole.update([node.id, *node.inputs])  # it may return its one term itself
        for i in live:
            if i not in reached:
                reached.add(i)
                ends.setdefault(node.id, []).append(i)
    run.reverse()
    # an addition passing a term on joins ``whole`` after its consumers are met
    ends = {nid: [i for i in ids if i not in whole] for nid, ids in ends.items()}

    captured: dict[str, np.ndarray] = {}
    vals: dict[str, T.Tensor] = {}
    with T.no_tape() if mode == "eval" else contextlib.nullcontext():
        for node in run:
            last = ends.get(node.id, ())
            try:
                t = _eval_node(graph, node, vals, xt, mode, terms.get(node.id, node.inputs),
                               schedule, last)
            except NumericError as e:
                raise NumericError(f"{e} (at node {node.id!r}, in forward)") from e
            if t.node is None:  # not an addition passing a term on
                t.node = node.id
            vals[node.id] = t
            if node.id in capture:
                captured[node.id] = vals[node.id].data
            for i in last:
                vals.pop(i).drop()
    out = vals[graph.output_id]
    return (out, captured) if capture else out


def _eval_node(graph: Graph, node: Node, vals: dict, xt: T.Tensor, mode: str,
               live: Sequence[str], schedule, last: Sequence[str]) -> T.Tensor:
    """The node's output. An addition sums ``live``; a relu or addition may write into an unread ``last``."""
    a = node.attrs
    if node.op == "input":
        return xt
    if node.op == "conv":
        w = graph.params[a["param"]].tensor
        return T.conv2d(vals[node.inputs[0]], w, stride=a["stride"], padding=a["padding"])
    if node.op == "bn":
        return T.batch_norm(vals[node.inputs[0]], graph.bn[a["state"]], mode)
    if node.op == "relu":
        x = vals[node.inputs[0]]
        return T.relu(x, out=x.data if last and not x._read else None)
    if node.op == "pad_project":
        return T.subsample_pad(vals[node.inputs[0]], a["stride"], a["out_channels"])
    if node.op == "maxpool":
        return T.max_pool2d(vals[node.inputs[0]], a["kernel"], a["stride"], a["padding"])
    if node.op == "gap":
        return T.global_avg_pool(vals[node.inputs[0]])
    if node.op == "linear":
        w = graph.params[a["weight"]].tensor
        b = graph.params[a["bias"]].tensor
        return T.linear(vals[node.inputs[0]], w, b)
    if node.op == "add":
        block_index = a.get("block")
        scaled = mode == "eval" and schedule is not None and block_index is not None
        terms, out = [], None
        for i in live:
            t = vals[i]
            if scaled and i == a.get("branch"):
                t = T.scale(t, float(schedule.probs[block_index - 1]))
            if (out is None and len(terms) < 2 and i in last and not t._read
                    and node.inputs.count(i) == 1):
                out = t.data  # add_n keeps its order by writing only into t0 or t1
            terms.append(t)
        return terms[0] if len(terms) == 1 else T.add_n(terms, out=out)
    raise ConfigError(f"unknown op {node.op!r} at {node.id!r}")
