"""The names the benchmark patches and reads must exist in the library.

``perfbench/tracer.py`` swaps library functions for timing wrappers by name,
and ``perfbench/workload.py`` reads ``graph.meta["num_blocks"]``. Renaming or
deleting any of these breaks a benchmark run, which the rest of the suite
would not notice. The tracer is read as text, never imported. Its
``tape_bytes`` reads ``.data`` on every tensor of a training tape, so a
value dropped from the tape must keep an array there.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from rornet.arch import ArchConfig, build
from rornet.graph import forward
from rornet.tensor import softmax_cross_entropy

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
