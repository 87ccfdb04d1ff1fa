"""The names the benchmark patches and reads must exist in the library.

``perfbench/tracer.py`` swaps library functions for timing wrappers by name,
and ``perfbench/workload.py`` reads ``graph.meta["num_blocks"]``, passes
keywords to the library's builder, trainer and evaluator, and calls
``rornet analyze`` with the flags its ``arch_flags`` builds. Renaming or
deleting any of these breaks a benchmark run, which the rest of the suite
would not notice. The tracer is read as text here; the workload table and
its flag builder are imported. The tracer's ``tape_bytes`` reads ``.data``
on every tensor of a training tape, so a value dropped from the tape must
keep an array there.
"""

import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rornet.arch import ArchConfig, build
from rornet.cli import _arch_config, _build_parser, main
from rornet.data import synthetic_dataset
from rornet.graph import forward
from rornet.stochastic_depth import sample_gates, survival_schedule
from rornet.tensor import backward, softmax_cross_entropy
from rornet.train import TrainConfig, evaluate, train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


def _bench_module(name: str):
    """A module of the benchmark harness, which imports its siblings by bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


WORKLOADS = _bench_module("spec").WORKLOADS


def _tracer_constants() -> dict:
    constants = {}
    for stmt in ast.parse(TRACER.read_text()).body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            if stmt.targets[0].id in ("LAYER_FUNCTIONS", "TENSOR_OPS"):
                constants[stmt.targets[0].id] = ast.literal_eval(stmt.value)
    return constants


def test_every_name_the_benchmark_uses_exists():
    constants = _tracer_constants()
    wanted = [(module, name) for module, name, _ in constants["LAYER_FUNCTIONS"]]
    wanted += [("rornet.tensor", op) for op in constants["TENSOR_OPS"]]
    assert len(wanted) > 20  # both lists were found and parsed
    missing = [f"{module}.{name}" for module, name in wanted
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    assert build(ArchConfig(blocks_per_group=(1, 2), levels_m=3)).meta["num_blocks"] == 3


def test_every_attribute_and_keyword_the_benchmark_uses_exists():
    # tracer.py's gate ratio, and the keywords and attributes workload.py
    # passes to build, TrainConfig, train, evaluate and forward and reads back
    g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3), seed=5, dtype=np.float64)
    schedule = survival_schedule(g.meta["num_blocks"], 0.5)
    gates = sample_gates(schedule, 0)
    assert 0 <= gates.active <= 3 and schedule.expected_active == pytest.approx(2.0)
    ds = synthetic_dataset(seed=0, classes=4, n=4)
    cfg = TrainConfig(base_lr=0.05, milestones=(), max_epochs=1, batch_size=4, sd_p_l=0.5, seed=6)
    rows = train(g, ds, ds, cfg).rows
    assert len(rows) == 1 and np.isfinite(rows[0].train_loss)
    assert 0.0 <= evaluate(g, ds, batch_size=2, schedule=schedule) <= 100.0
    logits = forward(g, ds.images.astype(np.float64), mode="train", gates=gates)
    backward(softmax_cross_entropy(logits, ds.labels))
    grad = g.params["stem.conv.weight"].tensor.grad
    assert grad.dtype == np.float64 and grad.shape == g.params["stem.conv.weight"].data.shape


def test_every_tensor_on_a_training_tape_keeps_an_array():
    g = build(ArchConfig(depth=20, levels_m=3))
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
    loss = softmax_cross_entropy(forward(g, x, mode="train"), np.arange(2))
    seen, stack, marked = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        assert isinstance(t.data, np.ndarray)
        if t.node is not None:
            assert t.data.shape == (2, *g.by_id[t.node].shape), t.node
            marked += 1
        stack.extend(t._parents)
    assert marked > 50


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rornet_analyze_takes_each_workloads_arch_flags(name, capsys):
    w = WORKLOADS[name]
    flags = _bench_module("workload").Workload.arch_flags(SimpleNamespace(w=w, seed=0))
    cfg = _arch_config(_build_parser().parse_args(["analyze", *flags]))
    assert {key: getattr(cfg, key) for key in w["arch"]} == w["arch"]
    assert cfg.sd_p_l == w["sd_p_l"]
    assert main(["analyze", "--params", "--format", "csv", *flags]) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
    assert int(rows["params.total"]) == w.get("expected_params", int(rows["params.total"]))
