"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spec  # noqa: E402
import workload  # noqa: E402
from checks import Tally, first_step_matches, states_equal  # noqa: E402
from tracer import LAYER_FUNCTIONS, TENSOR_OPS, Patcher, Tracer, current  # noqa: E402

for _name in workload.MODULES:
    importlib.import_module(f"rornet.{_name}")
arch = importlib.import_module("rornet.arch")
data = importlib.import_module("rornet.data")
graph_mod = importlib.import_module("rornet.graph")
tensor = importlib.import_module("rornet.tensor")
train = importlib.import_module("rornet.train")

TINY_ARCH = {"depth": 8, "levels_m": 3}
TINY = {
    "why": "test",
    "arch": TINY_ARCH,
    "batch": 8,
    "eval_batch": 8,
    "eval_images": 16,
    "sd_p_l": 0.5,
    "base_lr": 0.01,
    "train_pool": 32,
    "check_float64": True,
    "shares": {"train": 0.3, "eval": 0.2, "build": 0.1, "analyze": 0.1, "checkpoint": 0.1},
    "fastest_of": ("build_s",),
}


def all_rornet_attributes():
    """Every function attribute of every loaded rornet module, plus Graph.to_jsonl."""
    attrs = {}
    for name, mod in list(sys.modules.items()):
        if name == "rornet" or name.startswith("rornet."):
            for key, value in vars(mod).items():
                if callable(value):
                    attrs[(name, key)] = value
    attrs[("Graph", "to_jsonl")] = graph_mod.Graph.to_jsonl
    return attrs


def tiny_training(seed=0):
    cfg = arch.ArchConfig(**TINY_ARCH)
    g = arch.build(cfg, seed=seed)
    ds = data.synthetic_dataset(seed, 10, 16, "medium")
    test = data.synthetic_dataset(seed + 1, 10, 10, "medium", "test")
    log = train.train(g, ds, test, train.TrainConfig(
        milestones=(), max_epochs=2, batch_size=8, sd_p_l=0.5, seed=3))
    return log, g


def test_wrappers_restore_the_original_functions():
    before = all_rornet_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        assert current("rornet.train", "forward") is not before[("rornet.train", "forward")]
        assert current("rornet.graph", "forward") is current("rornet.train", "forward")
        with Patcher() as patch:  # a nested patch, as the step clock makes
            inner = current("rornet.train", "sgd_step")
            patch.replace("rornet.train", "sgd_step", lambda *a, **k: inner(*a, **k))
        assert current("rornet.train", "sgd_step") is inner
    finally:
        tracer.uninstall()
    after = all_rornet_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    wrapped = {(m, f) for m, f, _ in LAYER_FUNCTIONS} | {("rornet.tensor", op) for op in TENSOR_OPS}
    assert all(not hasattr(before[key], "__wrapped__") for key in wrapped)


def test_traced_and_untraced_losses_are_bitwise_identical():
    plain_log, plain_graph = tiny_training()
    tracer = Tracer()
    tracer.install()
    try:
        traced_log, traced_graph = tiny_training()
    finally:
        tracer.uninstall()
    assert [r.train_loss for r in traced_log.rows] == [r.train_loss for r in plain_log.rows]
    assert [r.test_err for r in traced_log.rows] == [r.test_err for r in plain_log.rows]
    assert states_equal(plain_graph.state_dict(), traced_graph.state_dict())
    names = {s.name for s in tracer.spans}
    assert {"tensor.conv2d", "tensor.conv2d.bwd", "tensor.backward", "graph.forward",
            "stochastic_depth.sample_gates"} <= names


def test_a_corrupted_checkpoint_byte_is_counted(tmp_path):
    state = arch.build(arch.ArchConfig(**TINY_ARCH)).state_dict()
    path = tmp_path / "model.ckpt"
    data.save_checkpoint(path, state)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    tally = Tally()
    ok, loaded = tally.run("checkpoint save+load", data.load_checkpoint, path)
    assert not ok and (tally.attempted, tally.failed) == (1, 1)
    # a flipped value that still loads is caught by the bitwise comparison
    data.save_checkpoint(path, state)
    loaded, _ = data.load_checkpoint(path)
    name = sorted(loaded)[0]
    loaded[name].reshape(-1)[0] += 1
    assert not tally.record(states_equal(state, loaded), "checkpoint round trip")
    assert tally.fail_ratio == 1.0


def test_a_perturbed_logit_is_counted():
    cfg = arch.ArchConfig(**TINY_ARCH)
    x = data.synthetic_dataset(0, 10, 10, "medium").images[:8]
    labels = np.arange(8) % 10
    runs = {}
    for dtype in (np.float32, np.float64):
        g = arch.build(cfg, seed=0, dtype=dtype)
        logits = graph_mod.forward(g, x.astype(dtype), mode="train")
        loss = tensor.softmax_cross_entropy(logits, labels)
        tensor.backward(loss)
        runs[dtype] = (float(loss.data), logits.data, g.params["stem.conv.weight"].tensor.grad)
    loss32, _, grad32 = runs[np.float32]
    _, logits64, grad64 = runs[np.float64]
    tally = Tally()
    assert tally.record(first_step_matches(loss32, grad32, logits64, labels, grad64)[0], "clean")
    perturbed = logits64.copy()
    perturbed[0, 0] += 1e-2
    assert not tally.record(first_step_matches(loss32, grad32, perturbed, labels, grad64)[0],
                            "perturbed logit")
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(spec.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(workload, "OUT_DIR", tmp_path)
    return "tiny"


def test_a_traced_run_reports_every_metric_and_exact_counts_repeat(tiny_workload):
    reports = [workload.Workload(tiny_workload, seed, 1.0, trace=True).run() for seed in (1, 2)]
    for report in reports:
        assert report["failed"] == 0, report["failures"]
        assert set(report["e2e"]) == {name for name, *_ in spec.END_TO_END}
        assert set(report["per_layer"]) == {name for name, *_ in spec.PER_LAYER}
        assert all(e["value"] > 0 for e in report["e2e"].values())
    exact = ["tensor.conv2d.gflop", "graph.nodes_run", "arch.nodes", "cli.analyze.builds",
             "tensor.tape_mb"]
    first, second = (r["per_layer"] for r in reports)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["cli.analyze.builds"] == 2
    assert first["arch.nodes"] == len(arch.build(arch.ArchConfig(**TINY_ARCH)).nodes)
    assert 0 < first["train.data_wait_share"] < 1
    assert first["stochastic_depth.live_ratio"] > 0
