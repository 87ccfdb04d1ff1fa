"""Architecture resolution and graph construction.

The frozen parameter totals below were derived by hand from the layer
arithmetic (conv = cin*cout*k*k, BN affine = 2*channels, fc = feat*classes
+ classes) before the builder existed; they pin the construction exactly.
"""

import json
import tracemalloc

import numpy as np
import pytest

from rornet.arch import (ArchConfig, ProjectionSpec, build, config_from_text,
                         config_to_text, resolve_config)
from rornet.exceptions import ConfigError, NumericError
from rornet.graph import forward
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

    def test_invalid_depth_cites_rule(self):
        with pytest.raises(ConfigError, match="6n\\+2"):
            resolve_config(ArchConfig(depth=111))

    def test_invalid_wide_depth_cites_rule(self):
        with pytest.raises(ConfigError, match="6n\\+4"):
            resolve_config(ArchConfig(depth=110, width_k=2))

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
