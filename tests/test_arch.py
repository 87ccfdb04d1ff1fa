"""Architecture resolution and graph construction.

The frozen parameter totals below were derived by hand from the layer
arithmetic (conv = cin*cout*k*k, BN affine = 2*channels, fc = feat*classes
+ classes) before the builder existed; they pin the construction exactly.
"""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rornet.arch import (ArchConfig, ProjectionSpec, build, config_from_text,
                         config_to_text, resolve_config)
from rornet.exceptions import ConfigError, NumericError
from rornet.graph import Graph, forward
from rornet.stochastic_depth import GateVector, survival_schedule
from rornet.tensor import backward, softmax_cross_entropy


def zero_level_params(graph):
    for name, p in graph.params.items():
        if name.startswith("level"):
            p.tensor.data = np.zeros_like(p.data)


def zero_branch_convs(graph):
    """Zero every residual-branch conv so F == 0 with default BN state."""
    for name, p in graph.params.items():
        if ".conv" in name and name.endswith(".weight"):
            p.tensor.data = np.zeros_like(p.data)


class TestResolveConfig:
    def test_depth_110(self):
        plan = resolve_config(ArchConfig(depth=110))
        assert [g.blocks for g in plan.groups] == [18, 18, 18]
        assert plan.num_blocks == 54

    def test_depth_164(self):
        plan = resolve_config(ArchConfig(depth=164))
        assert [g.blocks for g in plan.groups] == [27, 27, 27]

    def test_wrn40_2(self):
        plan = resolve_config(ArchConfig(depth=40, width_k=2, block_order="pre_act"))
        assert [g.blocks for g in plan.groups] == [6, 6, 6]
        assert [g.width for g in plan.groups] == [32, 64, 128]

    def test_b333_depth(self):
        plan = resolve_config(ArchConfig(depth=164, block_size="b333"))
        assert [g.blocks for g in plan.groups] == [18, 18, 18]

    @pytest.mark.parametrize("kwargs, rule", [
        (dict(depth=111), "b33: depth must be 6n\\+2"),
        (dict(depth=110, width_k=2), "wide \\(k>1\\) network: depth must be 6n\\+4"),
        (dict(depth=30, block_size="b333"), "b333: depth must be 9n\\+2"),
        (dict(family="imagenet", depth=50), "imagenet depth must be one of \\[18, 34, 101, 152\\]"),
        (dict(blocks_per_group=(2, 0, 2)), "at least one positive entry"),
        (dict(family="imagenet", blocks_per_group=(2, 0)), "at least one positive entry"),
    ], ids=["b33", "wide", "b333", "imagenet", "cifar-zero-group", "imagenet-zero-group"])
    def test_invalid_size_cites_rule(self, kwargs, rule):
        with pytest.raises(ConfigError, match=rule):
            resolve_config(ArchConfig(**kwargs))

    def test_group_strides(self):
        plan = resolve_config(ArchConfig(depth=20))
        assert [g.stride for g in plan.groups] == [1, 2, 2]

    def test_level_shortcut_counts(self):
        plan = resolve_config(ArchConfig(depth=20, levels_m=3))
        by_level = {}
        for ls in plan.level_shortcuts:
            by_level[ls.level] = by_level.get(ls.level, 0) + 1
        assert by_level == {1: 1, 2: 3}

    def test_m2_root_only(self):
        plan = resolve_config(ArchConfig(depth=20, levels_m=2))
        assert [ls.level for ls in plan.level_shortcuts] == [1]

    def test_root_projection_geometry(self):
        plan = resolve_config(ArchConfig(depth=20, levels_m=3))
        root = [ls for ls in plan.level_shortcuts if ls.level == 1][0]
        assert (root.src_block, root.dst_block) == (0, 9)
        assert (root.spec.in_channels, root.spec.out_channels, root.spec.stride) == (16, 64, 4)

    def test_m4_needs_even_split(self):
        with pytest.raises(ConfigError, match="divisible"):
            resolve_config(ArchConfig(blocks_per_group=(3, 3, 3), levels_m=4))
        plan = resolve_config(ArchConfig(blocks_per_group=(4, 4, 4), levels_m=4))
        assert sum(1 for ls in plan.level_shortcuts if ls.level == 3) == 6

    def test_m5_recursive_split(self):
        plan = resolve_config(ArchConfig(blocks_per_group=(8, 8, 8), levels_m=5))
        counts = {}
        for ls in plan.level_shortcuts:
            counts[ls.level] = counts.get(ls.level, 0) + 1
        assert counts == {1: 1, 2: 3, 3: 6, 4: 12}

    def test_bottleneck_rejected_for_cifar(self):
        with pytest.raises(ConfigError):
            resolve_config(ArchConfig(depth=20, block_size="bottleneck"))

    def test_sd_rejected_for_imagenet(self):
        with pytest.raises(ConfigError):
            resolve_config(ArchConfig(family="imagenet", depth=18, sd_p_l=0.5))

    def test_imagenet_depth_map(self):
        plan = resolve_config(ArchConfig(family="imagenet", depth=34, num_classes=1000))
        assert [g.blocks for g in plan.groups] == [3, 4, 6, 3]
        plan = resolve_config(ArchConfig(family="imagenet", depth=152, num_classes=1000))
        assert [g.blocks for g in plan.groups] == [3, 8, 36, 3]
        assert plan.blocks[-1].out_channels == 2048

    def test_final_shortcut_defaults(self):
        plan10 = resolve_config(ArchConfig(depth=20, num_classes=10))
        plan100 = resolve_config(ArchConfig(depth=20, num_classes=100))
        kinds10 = {b.shortcut.kind for b in plan10.blocks if b.shortcut}
        kinds100 = {b.shortcut.kind for b in plan100.blocks if b.shortcut}
        assert kinds10 == {"B"} and kinds100 == {"A"}


class TestProjections:
    def test_type_a_parameter_free(self):
        assert ProjectionSpec("A", 16, 32, 2).param_count == 0

    def test_type_b_parameter_count(self):
        assert ProjectionSpec("B", 16, 32, 2).param_count == 512

    def test_type_a_cannot_shrink(self):
        with pytest.raises(ConfigError):
            ProjectionSpec("A", 32, 16, 2)


class TestResidualBlocks:
    def _single_block_graph(self, order, final="B", dtype=np.float64, classes=10):
        cfg = ArchConfig(blocks_per_group=(1,), levels_m=1, block_order=order,
                         final_shortcut=final, num_classes=classes)
        return build(cfg, seed=3, dtype=dtype)

    def test_post_act_zero_branch_is_relu_of_input(self, rng):
        g = self._single_block_graph("post_act")
        zero_branch_convs(g)
        x = rng.normal(0.0, 1.0, size=(2, 3, 32, 32))
        _, caps = forward(g, x, mode="eval",
                          capture=["stem.relu", "group1.block001.relu_out"])
        np.testing.assert_allclose(caps["group1.block001.relu_out"],
                                   np.maximum(caps["stem.relu"], 0.0), atol=1e-12)

    def test_pre_act_zero_branch_is_exact_passthrough(self, rng):
        g = self._single_block_graph("pre_act")
        zero_branch_convs(g)
        x = rng.normal(size=(2, 3, 32, 32))
        _, caps = forward(g, x, mode="eval",
                          capture=["stem.conv", "group1.block001.add"])
        np.testing.assert_array_equal(caps["group1.block001.add"], caps["stem.conv"])

    def test_dimension_increase_type_a_zero_branch(self, rng):
        # 16 -> 32 channels at stride 2: first 16 channels carry the strided
        # input, the padded 16 are exactly zero (inspected before the ReLU)
        cfg = ArchConfig(blocks_per_group=(1, 1), levels_m=1, block_order="post_act",
                         final_shortcut="A")
        g = build(cfg, seed=0, dtype=np.float64)
        zero_branch_convs(g)
        x = rng.normal(size=(1, 3, 32, 32))
        _, caps = forward(g, x, mode="eval",
                          capture=["group1.block001.relu_out", "group2.block001.add"])
        prev = caps["group1.block001.relu_out"]
        added = caps["group2.block001.add"]
        np.testing.assert_array_equal(added[:, :16], prev[:, :, ::2, ::2])
        np.testing.assert_array_equal(added[:, 16:], 0.0)


class TestLevelShortcuts:
    def test_m3_fan_ins(self):
        g = build(ArchConfig(depth=20, levels_m=3))
        fan_ins = {n.id: len(n.inputs) for n in g.add_nodes()}
        assert fan_ins["group3.block003.add"] == 4    # h + F + root + middle
        assert fan_ins["group1.block003.add"] == 3    # h + F + middle
        assert fan_ins["group2.block003.add"] == 3
        others = [v for k, v in fan_ins.items() if not k.endswith("003.add")]
        assert set(others) == {2}

    def test_m1_plain_chain(self):
        g = build(ArchConfig(depth=20, levels_m=1))
        assert all(len(n.inputs) == 2 for n in g.add_nodes())
        assert not any(name.startswith("level") for name in g.params)

    @pytest.mark.parametrize("order", ["post_act", "pre_act"])
    @pytest.mark.parametrize("final", ["A", "B"])
    def test_zero_projection_equivalence(self, order, final, rng):
        base = dict(depth=20, block_order=order, final_shortcut=final)
        g3 = build(ArchConfig(levels_m=3, **base), seed=11, dtype=np.float64)
        g1 = build(ArchConfig(levels_m=1, **base), seed=11, dtype=np.float64)
        zero_level_params(g3)
        x = rng.normal(0.5, 0.3, size=(2, 3, 32, 32))
        y3 = forward(g3, x, mode="eval").data
        y1 = forward(g1, x, mode="eval").data
        assert np.abs(y3 - y1).max() < 1e-12

    def test_shared_base_parameters_across_levels(self):
        g3 = build(ArchConfig(depth=14, levels_m=3), seed=5)
        g1 = build(ArchConfig(depth=14, levels_m=1), seed=5)
        for name, p in g1.params.items():
            np.testing.assert_array_equal(p.data, g3.params[name].data)

    def test_pre_act_zero_branch_matches_path_walk_oracle(self, rng):
        # With every residual branch zeroed, the output before pooling is the
        # sum of the identity/projection paths. Walk them directly with plain
        # numpy as an independent check.
        cfg = ArchConfig(blocks_per_group=(2, 2, 2), levels_m=3,
                         block_order="pre_act", final_shortcut="A", upper_shortcut="B")
        g = build(cfg, seed=9, dtype=np.float64)
        zero_branch_convs(g)
        x = rng.normal(size=(1, 3, 32, 32))
        _, caps = forward(
            g, x, mode="eval",
            capture=["stem.conv", "group3.block002.add"])
        stem = caps["stem.conv"]

        def conv1x1(v, w, stride):
            # v: N,C,H,W; w: Cout,Cin,1,1
            sub = v[:, :, ::stride, ::stride]
            return np.einsum("oc,nchw->nohw", w[:, :, 0, 0], sub)

        def pad_a(v, stride, out_c):
            sub = v[:, :, ::stride, ::stride]
            out = np.zeros((v.shape[0], out_c) + sub.shape[2:], dtype=v.dtype)
            out[:, :v.shape[1]] = sub
            return out

        w = {k: p.data for k, p in g.params.items()}
        # trunk: branches are zero, so only the final-level shortcuts act;
        # group transitions use type A projections, in-group blocks identity
        t1 = stem                                    # group 1 output (16ch)
        t2 = pad_a(t1, 2, 32)                        # group 2 output
        t3 = pad_a(t2, 2, 64)                        # group 3 trunk value
        mid1 = conv1x1(stem, w["level2.group1.proj.weight"], 1)
        t1 = t1 + mid1
        t2 = pad_a(t1, 2, 32)
        mid2 = conv1x1(t1, w["level2.group2.proj.weight"], 2)
        t2 = t2 + mid2
        t3 = pad_a(t2, 2, 64)
        mid3 = conv1x1(t2, w["level2.group3.proj.weight"], 2)
        root = conv1x1(stem, w["level1.root.proj.weight"], 4)
        expected = t3 + mid3 + root
        assert np.abs(caps["group3.block002.add"] - expected).max() < 1e-10


class TestBuild:
    # frozen hand-derived totals (BN affine and fc bias included)
    HAND_COUNTS = [
        (dict(depth=110, levels_m=1, final_shortcut="A"), 1_727_962),
        (dict(depth=110, levels_m=1, final_shortcut="B"), 1_730_522),
        (dict(depth=164, levels_m=3, final_shortcut="B"), 2_609_306),
        (dict(depth=40, width_k=2, levels_m=3, block_order="pre_act",
              final_shortcut="A"), 2_245_594),
        (dict(depth=40, width_k=4, levels_m=3, block_order="pre_act",
              final_shortcut="A"), 8_953_306),
        (dict(depth=1202, levels_m=3, block_order="pre_act",
              final_shortcut="A"), 19_425_114),
    ]

    @pytest.mark.parametrize("kwargs,total", HAND_COUNTS)
    def test_parameter_totals_frozen(self, kwargs, total):
        g = build(ArchConfig(**kwargs))
        assert g.num_params() == total

    def test_logits_shape(self, rng):
        g = build(ArchConfig(depth=14, levels_m=3, num_classes=7))
        out = forward(g, rng.normal(size=(4, 3, 32, 32)).astype(np.float32), mode="eval")
        assert out.shape == (4, 7)

    def test_rebuild_bitwise_deterministic(self):
        a = build(ArchConfig(depth=20, levels_m=3), seed=21)
        b = build(ArchConfig(depth=20, levels_m=3), seed=21)
        assert sorted(a.params) == sorted(b.params)
        for name in a.params:
            assert (a.params[name].data == b.params[name].data).all()

    def test_parameters_iterate_lexicographically(self):
        g = build(ArchConfig(depth=14))
        names = [p.name for p in g.parameters()]
        assert names == sorted(names)

    def test_each_parameter_referenced_exactly_once(self):
        g = build(ArchConfig(depth=20, levels_m=3))
        used: list[str] = []
        for n in g.nodes:
            if n.op == "conv":
                used.append(n.attrs["param"])
            elif n.op == "linear":
                used.extend([n.attrs["weight"], n.attrs["bias"]])
            elif n.op == "bn":
                used.extend([n.attrs["state"] + ".gamma", n.attrs["state"] + ".beta"])
        assert sorted(used) == sorted(g.params)

    def test_input_shape_validated(self, rng):
        g = build(ArchConfig(depth=14))
        with pytest.raises(ConfigError):
            forward(g, rng.normal(size=(2, 3, 16, 16)), mode="eval")

    def test_wrong_mode_rejected(self, rng):
        g = build(ArchConfig(depth=14))
        with pytest.raises(ConfigError):
            forward(g, rng.normal(size=(1, 3, 32, 32)), mode="predict")

    def test_imagenet_structural_build(self):
        g = build(ArchConfig(family="imagenet", depth=18, levels_m=3, num_classes=1000))
        total = g.num_params()
        assert 11_500_000 < total < 12_100_000  # resnet-18 scale plus level projections
        fan_ins = [len(n.inputs) for n in g.add_nodes()]
        assert fan_ins.count(4) == 1    # final block: h + F + root + middle
        assert fan_ins.count(3) == 3    # remaining group-final blocks
        # root shortcut spans maxpool output to the 7x7 feature map
        root = g.by_id["level1.root.proj"]
        assert root.attrs["stride"] == 8

    def test_imagenet_forward_executes(self, rng):
        g = build(ArchConfig(family="imagenet", depth=18, levels_m=3, num_classes=5))
        x = rng.normal(size=(1, 3, 224, 224)).astype(np.float32)
        out, caps = forward(g, x, mode="eval", capture=["stem.pool"])
        assert out.shape == (1, 5)
        assert caps["stem.pool"].shape == (1, 64, 56, 56)

    def test_gate_identity_with_frozen_stats(self, rng):
        # running statistics frozen to a batch's statistics make the eval
        # forward match the train-mode forward on that batch exactly
        from rornet.stochastic_depth import survival_schedule, sample_gates
        cfg = ArchConfig(depth=14, levels_m=3, sd_p_l=0.5)
        g = build(cfg, seed=2, dtype=np.float64)
        sched = survival_schedule(g.meta["num_blocks"], 1.0)
        gates = sample_gates(sched, seed=0)
        assert gates.active == len(gates)
        x = rng.normal(size=(4, 3, 32, 32))
        bn_inputs = {name: g.by_id[name].inputs[0] for name in g.bn}
        y_train, caps = forward(g, x, mode="train", gates=gates,
                                capture=list(bn_inputs.values()))
        for name, st in g.bn.items():
            val = caps[bn_inputs[name]]
            st.running_mean = val.mean(axis=(0, 2, 3))
            st.running_var = val.var(axis=(0, 2, 3))
        y_eval = forward(g, x, mode="eval").data
        np.testing.assert_allclose(y_eval, y_train.data, atol=1e-10)


class TestTapeFreeEval:
    def test_eval_output_has_no_tape(self, rng):
        g = build(ArchConfig(depth=14, levels_m=3))
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        out = forward(g, x, mode="eval")
        assert out.requires_grad is False
        assert out._parents == ()
        assert forward(g, x, mode="train").requires_grad

    def test_eval_frees_activations_after_last_use(self, rng):
        # RoR-3-56 has 149 first-group activations; a taped forward keeps
        # them all alive, a tape-free one only those still to be consumed
        g = build(ArchConfig(depth=56, levels_m=3))
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        activation = 8 * 16 * 32 * 32 * 4
        tracemalloc.start()
        try:
            forward(g, x, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * activation

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_eval_restores_taping(self, rng):
        g = build(ArchConfig(depth=14, levels_m=3))
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        state = next(iter(g.bn.values()))
        saved = state.running_var
        state.running_var = np.full_like(saved, -1e9)
        with pytest.raises(NumericError):
            forward(g, x, mode="eval")
        state.running_var = saved
        backward(softmax_cross_entropy(forward(g, x, mode="train"), np.arange(4) % 10))
        assert all(p.tensor.grad is not None for p in g.parameters())


class TestTrainTape:
    def test_tape_holds_only_node_outputs(self, rng):
        # every taped op's vjp rebuilds what it needs from its inputs, so a
        # train forward allocates nothing beyond the node outputs themselves
        g = build(ArchConfig(depth=20, levels_m=3))
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        ids = [node.id for node in g.nodes if node.op != "input"]
        tracemalloc.start()
        try:
            out, caps = forward(g, x, mode="train", capture=ids)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        buffers = {}
        for arr in caps.values():
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        assert kept <= 1.02 * sum(buffers.values())

    def test_shared_buffers_keep_under_two_thirds_of_node_outputs(self, rng):
        # in each post-act block the BN output before a ReLU, the branch and
        # the addition are read by no vjp, so their consumers write in place
        g = build(ArchConfig(depth=20, levels_m=3))
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        node_bytes = sum(8 * int(np.prod(n.shape)) * 4 for n in g.nodes if n.op != "input")
        tracemalloc.start()
        try:
            out = forward(g, x, mode="train")
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert kept <= 0.65 * node_bytes

    def test_backward_frees_the_tape(self, rng):
        # the sweep drops each node once its vjp has run: with the loss and
        # logits still held, only the parameter gradients stay behind
        g = build(ArchConfig(depth=20, levels_m=3))
        x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            logits = forward(g, x, mode="train")
            loss = softmax_cross_entropy(logits, np.arange(8) % 10)
            added = tracemalloc.get_traced_memory()[0] - base
            backward(loss)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        grads = sum(p.tensor.grad.nbytes for p in g.parameters())
        assert logits.data.shape == (8, 10) and loss.data.size == 1
        assert kept - grads < 0.1 * added

    def test_a_released_tape_cannot_be_swept_again(self, rng):
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3))
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        logits = forward(g, x, mode="train")
        loss = softmax_cross_entropy(logits, np.arange(4))
        backward(loss)
        grads = {p.name: p.tensor.grad.copy() for p in g.parameters()}
        with pytest.raises(NumericError, match=re.escape(f"at node {g.output_id!r}, in backward")):
            backward(loss)
        assert logits.grad is None  # not taken for a leaf
        for p in g.parameters():
            assert p.tensor.grad.tobytes() == grads[p.name].tobytes(), p.name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_names_its_node(self, rng):
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=3))
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        logits = forward(g, x, mode="train")
        bn = [n for n in g.nodes if n.op == "bn"][3]
        g.bn[bn.attrs["state"]].gamma.data[0] = np.inf  # after the forward: only the vjp sees it
        with pytest.raises(NumericError, match=re.escape(f"at node {bn.id!r}, in backward")):
            backward(softmax_cross_entropy(logits, np.arange(4)))


def run_step(g, x, labels, gates, capture):
    """Train forward and backward, then a scheduled eval forward; every result."""
    got = forward(g, x, mode="train", gates=gates, capture=capture)
    logits, caps = got if capture else (got, {})
    loss = softmax_cross_entropy(logits, labels)
    backward(loss)
    schedule = survival_schedule(g.meta["num_blocks"], 0.5) if gates is not None else None
    state = {"loss": loss.data, "logits": logits.data, "eval": forward(g, x, mode="eval", schedule=schedule).data}
    state.update({"grad." + p.name: p.tensor.grad for p in g.parameters() if p.tensor.grad is not None})
    state.update({"bn." + k: v for k, v in g.state_dict().items() if k.endswith(("_mean", "_var"))})
    return state, caps


class TestBufferDonation:
    """Writing relu and addition results into their inputs' buffers changes no bit."""

    @settings(max_examples=12, deadline=None)
    @given(blocks=st.tuples(*[st.integers(1, 2)] * 3), m=st.integers(1, 3),
           order=st.sampled_from(["post_act", "pre_act"]), final=st.sampled_from(["A", "B"]),
           upper=st.sampled_from(["A", "B"]),
           bits=st.none() | st.lists(st.booleans(), min_size=6, max_size=6))
    def test_matches_a_run_that_shares_no_buffer(self, blocks, m, order, final, upper, bits):
        cfg = ArchConfig(blocks_per_group=blocks, levels_m=m, block_order=order,
                         final_shortcut=final, upper_shortcut=upper)
        g, ref = build(cfg, seed=4), build(cfg, seed=4)
        gates = None if bits is None else GateVector(np.array(bits[:sum(blocks)], dtype=np.uint8), 0)
        r = np.random.default_rng(sum(blocks) * 10 + m)
        x = r.normal(size=(3, 3, 32, 32)).astype(np.float32)
        x0, labels = x.copy(), r.integers(0, 10, size=3)
        every = [n.id for n in ref.nodes]  # nothing captured is written into
        want, _ = run_step(ref, x, labels, gates, every)
        got, _ = run_step(g, x, labels, gates, None)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k
        assert x.tobytes() == x0.tobytes()

    def test_each_rule_guards_a_buffer_here(self, rng):
        # the input feeds only a relu; r1 is a relu output that an addition
        # consumes last; m is taken twice by a three-term addition; with its
        # branch dropped, p passes r1 itself on to an addition
        g = Graph("cifar", (3, 8, 8), meta={"dtype": np.float64, "num_blocks": 1})
        g.input_id, g.output_id = "input", "fc"
        g.add_param("c0.w", rng.normal(size=(4, 3, 3, 3)))
        g.add_param("fc.w", rng.normal(size=(2, 4)))
        g.add_param("fc.b", np.zeros(2))
        for nid, op, inputs, attrs in [
                ("input", "input", [], {}),
                ("r0", "relu", ["input"], {}),
                ("c0", "conv", ["r0"], {"param": "c0.w", "stride": 1, "padding": 1}),
                ("r1", "relu", ["c0"], {}),
                ("m", "maxpool", ["r1"], {"kernel": 3, "stride": 1, "padding": 1}),
                ("d", "add", ["m", "r1", "m"], {}),
                ("br", "maxpool", ["r1"], {"kernel": 3, "stride": 1, "padding": 1}),
                ("p", "add", ["r1", "br"], {"block": 1, "branch": "br"}),
                ("a", "add", ["p", "d"], {}),
                ("gap", "gap", ["a"], {}),
                ("fc", "linear", ["gap"], {"weight": "fc.w", "bias": "fc.b"})]:
            g.add_node(nid, op, inputs, attrs)
        x = rng.normal(size=(2, 3, 8, 8))
        x0 = x.copy()
        for gates in (None, GateVector(np.zeros(1, dtype=np.uint8), 0)):
            grads = []
            for capture in (None, [n.id for n in g.nodes]):
                got = forward(g, x, mode="train", gates=gates, capture=capture)
                backward(softmax_cross_entropy(got[0] if capture else got, np.array([0, 1])))
                grads.append(g.params["c0.w"].tensor.grad)
                g.params["c0.w"].tensor.grad = None
            assert grads[0].tobytes() == grads[1].tobytes()
            assert x.tobytes() == x0.tobytes()

    def test_captured_arrays_are_never_written(self, rng):
        # BN outputs, branches and additions would lend their buffers, were
        # they not captured; a run capturing every node shares none
        cfg = ArchConfig(depth=20, levels_m=3)
        g, ref = build(cfg), build(cfg)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        labels = np.arange(4)
        picked = [n.id for n in g.nodes if n.op in ("bn", "add")]
        _, want = run_step(ref, x, labels, None, [n.id for n in ref.nodes])
        _, caps = run_step(g, x, labels, None, picked)
        assert caps.keys() == set(picked)
        for k, v in caps.items():
            assert v.tobytes() == want[k].tobytes(), k
        roots = []
        for arr in want.values():
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            roots.append(id(arr))
        assert len(set(roots)) == len(roots)  # the reference lent no buffer

class TestConfigText:
    def test_round_trip(self):
        cfg = ArchConfig(depth=58, width_k=4, levels_m=3, block_order="pre_act",
                         final_shortcut="A", num_classes=100, sd_p_l=0.5)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_blocks_per_group_round_trip(self):
        cfg = ArchConfig(blocks_per_group=(2, 2, 2), levels_m=2)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("depth=20\nwidth=4\n")

    def test_jsonl_dump_is_valid_and_topological(self):
        g = build(ArchConfig(depth=14, levels_m=3))
        seen = set()
        for line in g.to_jsonl().strip().splitlines():
            rec = json.loads(line)
            assert all(i in seen for i in rec["inputs"])
            seen.add(rec["id"])
        assert g.output_id in seen


class TestGoldenBuild:
    """The IR text and the initial state of every block variant, pinned by digest.

    Any change to node names, node order, add inputs, attributes, parameter
    names or initial values changes a digest. Refresh the table only for a
    deliberate change to what ``build`` emits.
    """

    GOLDEN = [
        (dict(depth=20, levels_m=1),
         "bbc4a4fa97bd07f4443b6724261e0dbcf9d3d2499260e7dc39867b9b2a490390",
         "ace32cc7723b354f1c2eae2218c5627fcf4e2d7c9193f1d250fd20f902a6a7a2"),
        (dict(depth=20, levels_m=2),
         "cec0f5347fa17248896c8141424a295db5be4f7b0f422a1c1d160d9a7a9b4713",
         "a4e0d306451d7ca855b2a3cf6ac6757c44a0d76136b2d67e8331c7d04cd84972"),
        (dict(depth=20, levels_m=3),
         "b132fd24db79093e3c3b2e0f24c47d53139dd7657606eabcdb715cf7e706c34e",
         "607a9773d55f311ff2e3291dc295f33bbf7f07ad1964fd1d58038ca3abc48e49"),
        (dict(depth=26, levels_m=4),
         "2b0f4bd50efc73fa7a6743e4e7fa2da1a3e423d31cb79ec01207c8625850c211",
         "d455365800d3abcee862cf8c2ca171262bb5606b58c19a96eebb5ae33dd6b4f3"),
        (dict(depth=20, levels_m=3, block_order="pre_act"),
         "0822237fffdce8798c054af78d2059893564cad2c7085f7f257855b1da525c8e",
         "c9c17f0728d77e4643d992df70b6b2717622dba25b0753121052ad4e1ce213e0"),
        (dict(depth=26, levels_m=4, block_order="pre_act"),
         "508da8dc3d380bf3bf3af3878182a7dba0e31b453d5001c3971d5f82ce6d99b3",
         "a69bc9b6a9ab6eba03b684ebeed6ef7c35229984bf4ed3ee84fd680d595c7580"),
        (dict(depth=29, block_size="b333", levels_m=3),
         "90ae5687824f8f6ed1cfd1044d66bfab8290dd27aa0277fc0b549c305ca64314",
         "bf05cbd368570453ced2a479ec52671e98bf1d903a170d58d046da92daf82c61"),
        (dict(depth=29, block_size="b333", levels_m=3, block_order="pre_act"),
         "9287979067d967939254907c17a959f3782a4db9c26fa89fdf05bd1e3a00e26b",
         "bede50a2711810dbd2b37d1f9bf5fd9e14bd94c61e870ceb56a3f15460012630"),
        (dict(depth=16, width_k=2, levels_m=3, block_order="pre_act"),
         "8fbe952ed5ccf7e6a79eaeb6aef0a7da034104d55505699bad6d9ba8eba21131",
         "518cf19f014d2b41639ce45d8b39bb37d8ab75d29c9cec35155182a5e4c906ae"),
        (dict(depth=20, levels_m=3, final_shortcut="A"),
         "eb04e7fb829592f1852a953e41204b0515289aec0fae228e6324fe0263396ce5",
         "3fcb25a63294c67a5c0be764846ac8ea25590b8e9c848e1ae1a13564d70cae51"),
        (dict(depth=20, levels_m=3, upper_shortcut="A"),
         "fd00a9f9da0b807628fc3d9ae24285f25df8ef21e8879691b65a96cc04f93f02",
         "ace32cc7723b354f1c2eae2218c5627fcf4e2d7c9193f1d250fd20f902a6a7a2"),
        (dict(depth=20, levels_m=3, block_order="pre_act", final_shortcut="A", upper_shortcut="A"),
         "088a65801436dae6c23ccc0831a97a4b854bc0ea90c9bc9934a609e192c1faf1",
         "498510de328a0346902531a3adfb13508ae3f26666dd3051823b91417378df7a"),
        (dict(blocks_per_group=(1, 2, 4), levels_m=3),
         "bf7b835181ae010e097425924f3bf8bd93ea65051dff2c975c04b66c0e9fed80",
         "3716df5864c08cbed9ead54cff78de7de303fbe4ae09aafe966fe8d9f1723775"),
        (dict(blocks_per_group=(4, 4), levels_m=4, block_order="pre_act"),
         "cefe80ed8b948935cb6ef6962ec1cedf60d138014f4921a53be8fbcdc3d88634",
         "50113c28e8cf4035c16c0f7f57fa26bd34ebf51d7243d27ec5690d7c598638da"),
        (dict(family="imagenet", depth=18, levels_m=3),
         "6557c035822aa861bafb04a9e2d29ca5ad0af0e8f13805181bdae25f314a5cbb",
         "be45be8c2fcbcfbb6781b6152bc5ba40a4476d7a65d7169a0e295a5726f7588a"),
        (dict(family="imagenet", depth=18, levels_m=3, block_order="pre_act"),
         "cc281e0e0a5b9f54fda008b5fc37a0b1b5d080979f2f2bf4880f07e234a28225",
         "af7e2eae0510e7d537cf81d69681e1f1ddd1ce667604fb276b8a904a81b22aab"),
        (dict(family="imagenet", depth=101, levels_m=3),
         "4d5fb7868d6836bd275160574f2f5d9d690f1d178959bc17d033c2c486795d89",
         "8fe9f4b110d6b5441bcbc14f7e0e54c588e0802d44cd77716c0aa12555ab27b7"),
        (dict(family="imagenet", depth=101, levels_m=3, block_order="pre_act"),
         "c9a075a896e5309ad716416ff1d7e88d48e4bb5c93071f4c26bfc17638297ac1",
         "bf8258acb3d0ac8231f8f825ef10bbc660a246c3445d927fba8fd2f0b89f17fe"),
    ]

    @pytest.mark.parametrize("kwargs, ir_digest, state_digest", GOLDEN, ids=[
        ",".join(f"{k}={v}" for k, v in kwargs.items()).replace(" ", "") for kwargs, _, _ in GOLDEN])
    def test_build_is_bitwise_pinned(self, kwargs, ir_digest, state_digest):
        g = build(ArchConfig(**kwargs), seed=5)
        assert hashlib.sha256(g.to_jsonl().encode()).hexdigest() == ir_digest
        h = hashlib.sha256()
        for name, arr in g.state_dict().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == state_digest
