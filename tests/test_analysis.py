"""Parameter reports, additive path enumeration, expected active depth."""

import numpy as np
import pytest

from rornet.analysis import (count_params, count_paths, expected_saving_ratio,
                             params_millions)
from rornet.arch import ArchConfig, build
from rornet.stochastic_depth import survival_schedule


def dfs_paths(graph):
    """Brute-force enumeration of additive input-to-output paths (oracle)."""
    paths = []

    def walk(node_id, branches):
        node = graph.by_id[node_id]
        if node.op == "input":
            paths.append(branches)
            return
        if node.op == "add":
            for i in node.inputs:
                walk(i, branches + (1 if i == node.attrs.get("branch") else 0))
        else:
            walk(node.inputs[0], branches)

    walk(graph.output_id, 0)
    return paths


class TestCountParams:
    def test_single_conv(self):
        g = build(ArchConfig(blocks_per_group=(1,), levels_m=1, final_shortcut="A"))
        report = count_params(g)
        scopes = dict(report.scopes)
        # one block: two 16->16 convs of 2304 params each plus BN affine
        assert scopes["group1"] == 2 * 2304 + 2 * 32

    def test_breakdown_sums_to_total(self):
        g = build(ArchConfig(depth=20, levels_m=3))
        report = count_params(g)
        assert sum(c for _, c in report.scopes) == report.total == g.num_params()

    def test_wrn40_2_hundred_classes(self):
        cfg = ArchConfig(depth=40, width_k=2, levels_m=3, block_order="pre_act",
                         final_shortcut="A", num_classes=100)
        assert count_params(build(cfg)).millions() == 2.2

    def test_wrn40_4_hundred_classes(self):
        cfg = ArchConfig(depth=40, width_k=4, levels_m=3, block_order="pre_act",
                         final_shortcut="A", num_classes=100)
        assert count_params(build(cfg)).millions() == 8.9

    def test_level_cost_is_exactly_projection_sizes(self):
        base = dict(depth=20, final_shortcut="B")
        total3 = build(ArchConfig(levels_m=3, **base)).num_params()
        total1 = build(ArchConfig(levels_m=1, **base)).num_params()
        # root 16->64 plus middles 16->16, 16->32, 32->64, all 1x1
        assert total3 - total1 == 16 * 64 + 16 * 16 + 16 * 32 + 32 * 64

    def test_type_a_levels_cost_nothing(self):
        base = dict(depth=20, final_shortcut="B", upper_shortcut="A")
        total3 = build(ArchConfig(levels_m=3, **base)).num_params()
        total1 = build(ArchConfig(levels_m=1, **base)).num_params()
        assert total3 == total1

    def test_final_type_b_exceeds_a_by_projection_sum(self):
        a = build(ArchConfig(depth=20, levels_m=3, final_shortcut="A")).num_params()
        b = build(ArchConfig(depth=20, levels_m=3, final_shortcut="B")).num_params()
        assert b - a == 16 * 32 + 32 * 64  # the two dimension-changing blocks

    def test_width_scaling_roughly_quadratic(self):
        def conv_params(k):
            cfg = ArchConfig(depth=40, width_k=k, levels_m=3, block_order="pre_act",
                             final_shortcut="A")
            g = build(cfg)
            return sum(p.data.size for name, p in g.params.items()
                       if name.endswith(".weight") and p.data.ndim == 4)

        ratio = conv_params(4) / conv_params(2)
        assert 3.5 <= ratio <= 4.0

    def test_millions_truncates(self):
        assert params_millions(1_727_962) == 1.7
        assert params_millions(8_953_306) == 8.9
        assert params_millions(2_999_999) == 2.9

    def test_report_text_renders(self):
        text = count_params(build(ArchConfig(depth=14))).as_text()
        assert "total" in text and "group1" in text


class TestCountPaths:
    def test_plain_chain_powers_of_two(self):
        g = build(ArchConfig(blocks_per_group=(1, 1, 1), levels_m=1))
        assert count_paths(g).count == 8

    def test_single_block_with_root(self):
        g = build(ArchConfig(blocks_per_group=(1,), levels_m=2))
        stats = count_paths(g)
        assert stats.count == 3  # identity, residual branch, root shortcut

    def test_matches_dfs_oracle_on_small_ror3(self):
        g = build(ArchConfig(blocks_per_group=(2, 2, 2), levels_m=3))
        stats = count_paths(g)
        oracle = dfs_paths(g)
        assert stats.count == len(oracle)
        hist = {}
        for length in oracle:
            hist[length] = hist.get(length, 0) + 1
        assert stats.length_histogram == hist

    def test_matches_dfs_oracle_on_three_by_three(self):
        g = build(ArchConfig(blocks_per_group=(3, 3, 3), levels_m=3, block_order="pre_act"))
        assert count_paths(g).count == len(dfs_paths(g))

    def test_invariant_under_parameter_values(self, rng):
        g = build(ArchConfig(blocks_per_group=(2, 2, 2), levels_m=3), seed=0)
        before = count_paths(g)
        for p in g.parameters():
            p.tensor.data = rng.normal(size=p.data.shape).astype(np.float32)
        after = count_paths(g)
        assert before == after

    def test_deep_count_is_exact_big_integer(self):
        g = build(ArchConfig(depth=110, levels_m=1))
        assert count_paths(g).count == 2 ** 54

    def test_histogram_of_plain_chain_is_binomial(self):
        from math import comb
        g = build(ArchConfig(blocks_per_group=(2, 2, 2), levels_m=1))
        hist = count_paths(g).length_histogram
        assert hist == {k: comb(6, k) for k in range(7)}


class TestExpectedDepth:
    def test_direct_sum_54(self):
        sched = survival_schedule(54, 0.5)
        assert sched.expected_active == pytest.approx(40.25, abs=1e-12)

    def test_certain_survival_gives_all_blocks(self):
        sched = survival_schedule(33, 1.0)
        assert sched.expected_active == 33

    def test_saving_ratio_near_one_quarter(self):
        # exact ratio is (1-p)(L+1)/(2L); approaches (1-p)/2 = 0.25 from above
        for blocks in (18, 54, 200):
            sched = survival_schedule(blocks, 0.5)
            ratio = expected_saving_ratio(sched)
            exact = 0.5 * (blocks + 1) / (2 * blocks)
            assert ratio == pytest.approx(exact, abs=1e-12)
            assert abs(ratio - 0.25) <= 0.25 / blocks + 1e-12
