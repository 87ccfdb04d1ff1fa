"""Primitive ops: forward semantics against independent oracles, and
taped gradients against central finite differences at float64."""

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import central_diff, check_gradient, relative_errors, weighted_sum
from rornet import tensor as T
from rornet.exceptions import ConfigError, NumericError


def naive_conv2d(x, w, stride, pad):
    """Direct seven-loop cross-correlation; the independent oracle."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(cout):
            for ci in range(cin):
                for i in range(oh):
                    for j in range(ow):
                        for u in range(kh):
                            for v in range(kw):
                                out[b, co, i, j] += (xp[b, ci, i * stride + u, j * stride + v]
                                                     * w[co, ci, u, v])
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = T.conv2d(x, w, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_cifar_stem_shape(self):
        x = T.Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
        w = T.Tensor(np.zeros((16, 3, 3, 3), dtype=np.float32))
        assert T.conv2d(x, w, stride=1, padding=1).shape == (2, 16, 32, 32)

    def test_matches_naive_oracle(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        # two images, so stride-1 rows that straddle the image seam must be
        # cropped; H != W, Cin != Cout, a non-square kernel and 1x1 kernels
        x2 = rng.normal(size=(2, 3, 5, 7))
        w3 = rng.normal(size=(4, 3, 3, 3))
        w53 = rng.normal(size=(2, 3, 5, 3))
        w1 = rng.normal(size=(5, 3, 1, 1))
        for x, w, stride, pad in [(x, w, 1, 0), (x, w, 1, 1), (x, w, 2, 1),
                                  (x2, w3, 1, 0), (x2, w3, 1, 1), (x2, w3, 1, 2), (x2, w3, 2, 1),
                                  (x2, w53, 1, 1), (x2, w1, 1, 0), (x2, w1, 1, 1), (x2, w1, 2, 0),
                                  (x2, w1, 4, 0)]:
            got = T.conv2d(T.Tensor(x), T.Tensor(w), stride, pad).data
            want = naive_conv2d(x, w, stride, pad)
            assert np.abs(got - want).max() < 1e-6

    def test_channel_mismatch_rejected(self):
        x = T.Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, 1, 1)

    def test_even_kernel_rejected(self):
        x = T.Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        w = T.Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ConfigError):
            T.conv2d(x, w, 1, 0)

    def test_gradients(self, rng):
        # every stride runs on the phases of the padded input; odd extents
        # leave phase pixels past the input, and a strided 1x1 reads one phase
        for stride, pad, x_shape, w_shape in [(2, 1, (2, 3, 6, 6), (4, 3, 3, 3)),
                                              (1, 1, (2, 3, 5, 6), (4, 3, 3, 3)),
                                              (1, 0, (2, 3, 5, 6), (4, 3, 1, 1)),
                                              (2, 1, (2, 3, 5, 7), (4, 3, 3, 3)),
                                              (2, 0, (2, 3, 5, 7), (4, 3, 1, 1)),
                                              (4, 0, (2, 3, 5, 7), (4, 3, 1, 1))]:
            err = check_gradient(lambda x, w: T.conv2d(x, w, stride, pad),
                                 [rng.normal(size=x_shape), rng.normal(size=w_shape)])
            assert err < 1e-4

    def test_strided_1x1_grad_x_is_zero_where_no_phase_holds(self, rng):
        # stride 2 with one phase per axis reads only the even pixels, so the
        # grad-x scatter must zero the rest; a 3x3 stride-2 conv holds every pixel
        x = T.Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 3, 1, 1)), requires_grad=True)
        T.backward(T.reduce_sum(T.conv2d(x, w, stride=2, padding=0)))
        held = np.zeros(x.shape, dtype=bool)
        held[:, :, ::2, ::2] = True
        assert (x.grad[~held] == 0).all()
        np.testing.assert_allclose(x.grad[held].reshape(2, 3, -1),
                                   np.broadcast_to(w.data.sum(axis=0).reshape(1, 3, 1), (2, 3, 12)))


class TestBatchNorm:
    def test_train_mode_standardizes(self, rng):
        state = T.BatchNormState("bn", 3)
        x = T.Tensor(rng.normal(2.0, 3.0, size=(4, 3, 5, 5)).astype(np.float32))
        out = T.batch_norm(x, state, "train").data
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1).max() < 1e-4

    def test_eval_identity_statistics(self, rng):
        state = T.BatchNormState("bn", 3, epsilon=1e-12)
        x = T.Tensor(rng.normal(size=(2, 3, 4, 4)))
        out = T.batch_norm(x, state, "eval").data
        assert np.abs(out - x.data).max() < 1e-6

    def test_two_pass_statistics_oracle(self, rng):
        x = rng.normal(1.0, 2.0, size=(4, 3, 5, 5))
        state = T.BatchNormState("bn", 3, dtype=np.float64)
        got = T.batch_norm(T.Tensor(x), state, "train").data
        # independent two-pass normalization per channel
        want = np.empty_like(x)
        for c in range(3):
            vals = x[:, c]
            mu = vals.sum() / vals.size
            var = ((vals - mu) ** 2).sum() / vals.size
            want[:, c] = (vals - mu) / math.sqrt(var + state.epsilon)
        assert np.abs(got - want).max() < 1e-5

    def test_running_stats_update(self, rng):
        state = T.BatchNormState("bn", 2)
        x = rng.normal(3.0, 2.0, size=(8, 2, 4, 4)).astype(np.float32)
        T.batch_norm(T.Tensor(x), state, "train")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(state.running_mean, 0.1 * mean, rtol=1e-5)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * var, rtol=1e-5)

    def test_single_value_rejected(self):
        state = T.BatchNormState("bn", 2)
        x = T.Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
        with pytest.raises(NumericError):
            T.batch_norm(x, state, "train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients(self, rng, mode):
        state = T.BatchNormState("bn", 3, dtype=np.float64)
        state.gamma.tensor.data = rng.normal(1.0, 0.2, size=3)
        state.beta.tensor.data = rng.normal(0.0, 0.2, size=3)
        if mode == "eval":
            state.running_mean = rng.normal(size=3)
            state.running_var = rng.uniform(0.5, 2.0, size=3)
        x = rng.normal(size=(3, 3, 4, 4))

        def op(xt, gamma, beta):
            state.gamma.tensor = gamma
            state.beta.tensor = beta
            frozen_mean, frozen_var = state.running_mean.copy(), state.running_var.copy()
            out = T.batch_norm(xt, state, mode)
            state.running_mean, state.running_var = frozen_mean, frozen_var
            return out

        err = check_gradient(op, [x, state.gamma.data.copy(), state.beta.data.copy()])
        assert err < 1e-4


    def test_float32_matches_float64(self, rng):
        # a large mean over a small spread: a one-pass E[x^2] - E[x]^2
        # variance loses most of its float32 digits here
        x = rng.normal(4.0, 0.05, size=(64, 16, 32, 32)).astype(np.float32)
        probe = rng.normal(size=x.shape)
        results = {}
        for dtype in (np.float32, np.float64):
            state = T.BatchNormState("bn", 16, dtype=dtype)
            state.gamma.tensor.data = np.linspace(0.5, 1.5, 16, dtype=dtype)
            xt = T.Tensor(x.astype(dtype), requires_grad=True)
            out = T.batch_norm(xt, state, "train")
            T.backward(weighted_sum(out, probe))
            results[dtype] = out.data, xt.grad, state.gamma.tensor.grad
        for got, want in zip(results[np.float32], results[np.float64]):
            assert got.dtype == np.float32
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-4

    def test_train_tape_keeps_only_the_output(self, rng):
        x = T.Tensor(rng.normal(size=(8, 16, 32, 32)).astype(np.float32), requires_grad=True)
        state = T.BatchNormState("bn", 16)
        tracemalloc.start()
        try:
            out = T.batch_norm(x, state, "train")
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._vjp is not None
        assert kept <= 1.05 * x.data.nbytes

class TestRelu:
    def test_definition(self):
        out = T.relu(T.Tensor(np.array([[-1.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_identity_on_nonnegative(self, rng):
        x = np.abs(rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(T.relu(T.Tensor(x)).data, x)

    def test_gradients_away_from_kink(self, rng):
        x = rng.normal(size=(4, 5, 3, 3))
        err = check_gradient(T.relu, [x],
                             exclude=lambda arr, i: abs(arr.reshape(-1)[i]) < 1e-3)
        assert err < 1e-4

    def test_writes_into_its_input_and_masks_by_its_output(self, rng):
        data = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        want = T.relu(T.Tensor(data.copy(), requires_grad=True))
        x = T.Tensor(data, requires_grad=True)
        out = T.relu(x, out=x.data)
        assert out.data is data
        np.testing.assert_array_equal(out.data, want.data)
        g = rng.normal(size=data.shape).astype(np.float32)
        np.testing.assert_array_equal(out._vjp(g)[0], want._vjp(g)[0])


class TestAddN:
    def test_additive_identity(self, rng):
        x = rng.normal(size=(2, 3))
        zero = np.zeros_like(x)
        out = T.add_n([T.Tensor(x), T.Tensor(zero), T.Tensor(zero), T.Tensor(zero)])
        np.testing.assert_array_equal(out.data, x)

    def test_commutativity(self, rng):
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        ab = T.add_n([T.Tensor(a), T.Tensor(b)]).data
        ba = T.add_n([T.Tensor(b), T.Tensor(a)]).data
        np.testing.assert_array_equal(ab, ba)

    def test_four_way_matches_pairwise_oracle(self, rng):
        parts = [rng.normal(size=(3, 3)).astype(np.float32) for _ in range(4)]
        got = T.add_n([T.Tensor(p) for p in parts]).data
        want = parts[0]
        for p in parts[1:]:  # sequential pairwise sums
            want = want + p
        assert np.abs(got - want).max() < 1e-7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            T.add_n([T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((2, 3)))])

    def test_writes_into_its_first_or_second_term_only(self, rng):
        parts = [rng.normal(size=(3, 5)).astype(np.float32) for _ in range(3)]
        want = T.add_n([T.Tensor(p) for p in parts]).data
        for k in (0, 1):
            terms = [T.Tensor(p.copy()) for p in parts]
            out = T.add_n(terms, out=terms[k].data)
            assert out.data is terms[k].data
            assert out.data.tobytes() == want.tobytes()  # the same association order
        terms = [T.Tensor(p) for p in parts]
        with pytest.raises(ConfigError):
            T.add_n(terms, out=terms[2].data)

    def test_gradient_routes_unchanged(self, rng):
        a = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        T.backward(T.reduce_sum(T.add_n([a, b])))
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


class TestGlobalAvgPool:
    def test_constant_channel(self):
        x = np.full((2, 3, 4, 4), 0.0)
        for c, val in enumerate((1.5, -2.0, 7.0)):
            x[:, c] = val
        out = T.global_avg_pool(T.Tensor(x)).data
        np.testing.assert_allclose(out, np.tile([1.5, -2.0, 7.0], (2, 1)))

    def test_single_pixel_passthrough(self, rng):
        x = rng.normal(size=(3, 5, 1, 1))
        np.testing.assert_array_equal(T.global_avg_pool(T.Tensor(x)).data, x[:, :, 0, 0])

    def test_matches_summation_oracle(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        got = T.global_avg_pool(T.Tensor(x)).data
        want = np.zeros((2, 3))
        for n in range(2):
            for c in range(3):
                total = 0.0
                for i in range(8):
                    for j in range(8):
                        total += x[n, c, i, j]
                want[n, c] = total / 64.0
        assert np.abs(got - want).max() < 1e-6

    def test_gradients(self, rng):
        err = check_gradient(T.global_avg_pool, [rng.normal(size=(2, 3, 4, 4))])
        assert err < 1e-4


class TestSubsamplePad:
    def test_ones_pad_to_double_channels(self):
        x = T.Tensor(np.ones((1, 16, 8, 8), dtype=np.float32))
        out = T.subsample_pad(x, stride=2, out_channels=32)
        assert out.shape == (1, 32, 4, 4)
        np.testing.assert_array_equal(out.data[:, :16], 1.0)
        np.testing.assert_array_equal(out.data[:, 16:], 0.0)

    def test_takes_even_indices(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = T.subsample_pad(T.Tensor(x), stride=2, out_channels=1).data
        np.testing.assert_array_equal(out[0, 0], [[0, 2], [8, 10]])

    def test_channel_shrink_rejected(self):
        with pytest.raises(ConfigError):
            T.subsample_pad(T.Tensor(np.zeros((1, 8, 4, 4))), 1, 4)

    def test_gradients(self, rng):
        err = check_gradient(lambda x: T.subsample_pad(x, 2, 5),
                             [rng.normal(size=(2, 3, 6, 6))])
        assert err < 1e-4


class TestMaxPool:
    def test_matches_naive(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        got = T.max_pool2d(T.Tensor(x), 3, 2, 1).data
        xp = np.full((2, 3, 10, 10), -np.inf)
        xp[:, :, 1:9, 1:9] = x
        want = np.empty((2, 3, 4, 4))
        for i in range(4):
            for j in range(4):
                want[:, :, i, j] = xp[:, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3].max(axis=(2, 3))
        np.testing.assert_allclose(got, want)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))
        err = check_gradient(lambda t: T.max_pool2d(t, 3, 2, 1), [x])
        assert err < 1e-4

    def test_ties_route_to_the_first_valid_element(self):
        # on equal inputs every window's gradient lands on its first element
        # inside the input: padding never wins, and neither does a later tie
        x = T.Tensor(np.zeros((1, 1, 5, 5)), requires_grad=True)
        out = T.max_pool2d(x, 3, 2, 1)
        g = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        (gx,) = out._vjp(g)
        want = np.zeros((5, 5))
        for i in range(3):
            for j in range(3):
                want[max(2 * i - 1, 0), max(2 * j - 1, 0)] += g[0, 0, i, j]
        np.testing.assert_array_equal(gx[0, 0], want)


class TestLinear:
    def test_identity_map(self, rng):
        x = rng.normal(size=(3, 4))
        out = T.linear(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x)

    def test_hand_arithmetic(self):
        out = T.linear(T.Tensor(np.array([[2.0, 3.0]])),
                       T.Tensor(np.array([[1.0, 1.0]])),
                       T.Tensor(np.array([1.0])))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5))),
                     T.Tensor(np.zeros(4)))

    def test_gradients(self, rng):
        err = check_gradient(T.linear,
                             [rng.normal(size=(3, 5)), rng.normal(size=(4, 5)),
                              rng.normal(size=4)])
        assert err < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((2, 10)))
        loss = T.softmax_cross_entropy(logits, np.array([0, 5]))
        assert abs(float(loss.data) - math.log(10)) < 1e-6

    def test_saturated_correct_prediction(self):
        logits = np.zeros((1, 10))
        logits[0, 3] = 1e4
        loss = T.softmax_cross_entropy(T.Tensor(logits), np.array([3]))
        assert float(loss.data) < 1e-6

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            logits = rng.normal(scale=10.0, size=(4, 7))
            labels = rng.integers(0, 7, size=4)
            assert float(T.softmax_cross_entropy(T.Tensor(logits), labels).data) >= 0.0

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ConfigError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_gradients(self, rng):
        logits = rng.normal(size=(4, 10))
        labels = rng.integers(0, 10, size=4)
        t = T.Tensor(np.array(logits), requires_grad=True)
        loss = T.softmax_cross_entropy(t, labels)
        T.backward(loss)
        fd = central_diff(
            lambda: float(T.softmax_cross_entropy(T.Tensor(t.data), labels).data),
            t.data, list(range(t.data.size)))
        assert relative_errors(t.grad.reshape(-1), fd).max() < 1e-4


class TestBackward:
    def test_sum_gives_unit_gradients(self, rng):
        w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        T.backward(T.reduce_sum(w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_unreachable_parameter_has_no_grad(self, rng):
        used = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        unused = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        T.backward(T.reduce_sum(T.relu(used)))
        assert used.grad is not None
        assert unused.grad is None

    def test_repeated_backward_accumulates(self, rng):
        w = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        loss = T.reduce_sum(w)
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(w.grad, 2 * np.ones(4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_names_the_op(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        w = T.Tensor(np.ones((4, 3)), requires_grad=True)
        loss = T.reduce_sum(T.linear(x, w, T.Tensor(np.zeros(4))))
        w.data[0, 0] = np.inf  # after the forward: only the vjp sees it
        with pytest.raises(NumericError, match="at op 'linear', in backward"):
            T.backward(loss)
        assert x.grad is None and w.grad is None

    def test_nonscalar_rejected(self, rng):
        w = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(NumericError):
            T.backward(T.relu(w))

    def test_shared_subexpression(self, rng):
        # x feeds the addition twice: gradient must double, not alias
        x = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        T.backward(T.reduce_sum(T.add_n([x, x])))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_two_block_network_matches_finite_differences(self, rng):
        # conv -> relu -> conv -> pool -> linear -> loss, all float64
        x = rng.normal(size=(2, 2, 6, 6))
        w1 = T.Tensor(rng.normal(scale=0.5, size=(3, 2, 3, 3)), requires_grad=True)
        w2 = T.Tensor(rng.normal(scale=0.5, size=(3, 3, 3, 3)), requires_grad=True)
        wf = T.Tensor(rng.normal(scale=0.5, size=(4, 3)), requires_grad=True)
        bf = T.Tensor(np.zeros(4), requires_grad=True)
        labels = np.array([1, 3])

        def loss_fn():
            h = T.conv2d(T.Tensor(x), w1, 1, 1)
            h = T.relu(h)
            h = T.conv2d(h, w2, 1, 1)
            h = T.global_avg_pool(h)
            h = T.linear(h, wf, bf)
            return T.softmax_cross_entropy(h, labels)

        loss = loss_fn()
        T.backward(loss)
        for t in (w1, w2, wf, bf):
            idx = np.random.default_rng(0).choice(t.data.size, size=min(6, t.data.size),
                                                  replace=False)
            fd = central_diff(lambda: float(loss_fn().data), t.data, idx)
            ad = t.grad.reshape(-1)[idx]
            assert relative_errors(ad, fd).max() < 1e-4


class TestFiniteGuards:
    def test_overflow_surfaces_as_error(self):
        big = np.full((2, 2), 3e38, dtype=np.float32)  # 2x exceeds float32 max
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.add_n([T.Tensor(big), T.Tensor(big)])


class TestHeInit:
    def test_sample_variance(self):
        rng = np.random.default_rng(5)
        draws = T.he_init((10_000,), fan_in=50, rng=rng)
        assert abs(draws.var() - 0.04) < 0.004

    def test_deterministic_per_seed(self):
        a = T.he_init((4, 4), 16, np.random.default_rng(7))
        b = T.he_init((4, 4), 16, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_unit_variance_at_fan_in_two(self):
        draws = T.he_init((50_000,), fan_in=2, rng=np.random.default_rng(3))
        assert abs(draws.var() - 1.0) < 0.02


class TestDeterminism:
    def test_bitwise_identical_forward_and_grads(self, rng):
        def run():
            r = np.random.default_rng(42)
            x = T.Tensor(r.normal(size=(2, 3, 8, 8)).astype(np.float32))
            w = T.Tensor(r.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
            out = T.conv2d(x, w, 1, 1)
            T.backward(T.reduce_sum(out))
            return out.data.copy(), w.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert (o1 == o2).all() and (g1 == g2).all()


@contextmanager
def workers(count):
    """Run convolutions with ``count`` pool workers, even on a 1-CPU machine.

    The pool started here is shut down on exit. The calling thread runs its
    own GEMMs on one BLAS thread too, as the pool's workers do, so an inline
    run and a split run make the same calls.
    """
    blas = T._blas_threads_local()
    if blas is None:
        pytest.skip("the worker pool needs numpy linked against OpenBLAS")
    saved = T.worker_count, T._pool
    T.worker_count, T._pool = (lambda: count), None
    previous = blas(1)
    try:
        yield
    finally:
        if T._pool is not None:
            T._pool.shutdown()
        T.worker_count, T._pool = saved
        blas(previous)


def conv_and_grads(x, w, pad, g, stride=1):
    xt, wt = T.Tensor(x, requires_grad=True), T.Tensor(w, requires_grad=True)
    out = T.conv2d(xt, wt, stride=stride, padding=pad)
    gx, gw = out._vjp(g.astype(x.dtype).reshape(out.shape))
    return out.data, gx, gw


class TestConvWorkerPool:
    """Splitting the shift-GEMM work across workers changes no bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), cin=st.integers(1, 6), cout=st.integers(1, 6),
           h=st.integers(1, 40), w=st.integers(1, 40), k=st.sampled_from([1, 3]),
           pad=st.sampled_from([0, 1]), dtype=st.sampled_from([np.float32, np.float64]),
           pool=st.sampled_from([2, 3]), stride=st.sampled_from([1, 2]))
    # spans just below, at and just above two blocks, and spans that are no
    # multiple of a block; the forward span is the padded rows minus the
    # largest tap offset, and grad-x spans every padded row. A strided conv
    # works on a phase grid: 31x31 rows (3x3) or 30x30 (1x1) per image here
    @example(n=6, cin=3, cout=4, h=60, w=59, k=3, pad=1, dtype=np.float32, pool=2, stride=2)  # 5734
    @example(n=6, cin=5, cout=2, h=60, w=60, k=1, pad=0, dtype=np.float64, pool=2, stride=2)  # 5400
    @example(n=1, cin=2, cout=3, h=65, w=63, k=1, pad=0, dtype=np.float32, pool=2, stride=1)  # 4095
    @example(n=4, cin=3, cout=2, h=32, w=32, k=1, pad=0, dtype=np.float64, pool=2, stride=1)  # 4096
    @example(n=17, cin=2, cout=5, h=241, w=1, k=1, pad=0, dtype=np.float32, pool=2, stride=1)  # 4097
    @example(n=1, cin=3, cout=4, h=241, w=15, k=3, pad=1, dtype=np.float32, pool=2, stride=1)  # 4095, grad-x 4131
    @example(n=1, cin=4, cout=3, h=683, w=4, k=3, pad=1, dtype=np.float64, pool=2, stride=1)  # 4096, grad-x 4110
    @example(n=1, cin=2, cout=6, h=100, w=39, k=3, pad=1, dtype=np.float32, pool=2, stride=1)  # 4098, grad-x 4182
    @example(n=4, cin=5, cout=4, h=30, w=30, k=3, pad=1, dtype=np.float32, pool=2, stride=1)  # 4030, grad-x 4096
    @example(n=1, cin=5, cout=2, h=63, w=61, k=3, pad=1, dtype=np.float64, pool=2, stride=1)  # 3967, grad-x 4095
    @example(n=6, cin=6, cout=3, h=40, w=40, k=3, pad=0, dtype=np.float32, pool=2, stride=1)  # 9518, grad-x 9600
    @example(n=6, cin=6, cout=3, h=40, w=40, k=3, pad=0, dtype=np.float64, pool=3, stride=1)  # more workers than CPUs
    def test_pool_matches_inline_bitwise(self, n, cin, cout, h, w, k, pad, dtype, pool, stride):
        if cin == cout:
            cout += 1
        if min(h, w) + 2 * pad < k:
            h, w = h + k, w + k
        r = np.random.default_rng(n * 1000 + cin * 100 + cout * 10 + h + w)
        x = r.normal(size=(n, cin, h, w)).astype(dtype)
        wt = r.normal(size=(cout, cin, k, k)).astype(dtype)
        g = r.normal(size=n * cout * ((h + 2 * pad - k) // stride + 1) * ((w + 2 * pad - k) // stride + 1))
        with workers(1):
            inline = conv_and_grads(x, wt, pad, g, stride)
        with workers(pool):
            split = conv_and_grads(x, wt, pad, g, stride)
        for a, b in zip(inline, split):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)

    def test_short_span_runs_inline(self):
        # batch 2 at 8x8 is 200 padded rows, far below one block per worker
        x = np.ones((2, 4, 8, 8), dtype=np.float32)
        with workers(2):
            conv_and_grads(x, np.ones((4, 4, 3, 3), dtype=np.float32), 1, np.ones(2 * 4 * 8 * 8))
            assert T._pool is None

    def test_failed_part_reaches_the_caller_after_every_part_ends(self):
        finished = []

        def part(blocks):
            if 0 in blocks:
                raise ValueError("part with block 0")
            time.sleep(0.05)
            finished.append(blocks)

        with workers(2):
            with pytest.raises(ValueError, match="block 0"):
                T._parallel(part, range(4), 4 * T._TAP_BLOCK)
            # the other part ran to its end before the exception came back
            assert finished == [range(2, 4)]

            def fail(blocks):
                raise ValueError(f"part from {blocks[0]}")

            with pytest.raises(ValueError, match="part from 0"):
                T._parallel(fail, range(4), 4 * T._TAP_BLOCK)
            # the pool still works
            r = np.random.default_rng(5)
            x, w = r.normal(size=(3, 4, 40, 40)), r.normal(size=(5, 4, 3, 3))
            got = conv_and_grads(x, w, 1, np.ones(3 * 5 * 40 * 40))
            assert T._pool is not None
        with workers(1):
            want = conv_and_grads(x, w, 1, np.ones(3 * 5 * 40 * 40))
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)


def _op_with_inputs(op, rng):
    """``op``'s output on fresh float64 tensors, and those tensors by name."""
    x = T.Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    flat = T.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    ins = {"x": x}
    if op == "conv2d":
        ins["w"] = T.Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
        return T.conv2d(x, ins["w"], padding=1), ins
    if op == "batch_norm":
        state = T.BatchNormState("bn", 3, dtype=np.float64)
        ins.update(gamma=state.gamma.tensor, beta=state.beta.tensor)
        return T.batch_norm(x, state), ins
    if op == "linear":
        ins = {"x": flat, "w": T.Tensor(rng.normal(size=(4, 6)), requires_grad=True),
               "b": T.Tensor(rng.normal(size=4), requires_grad=True)}
        return T.linear(flat, ins["w"], ins["b"]), ins
    if op == "add_n":
        ins["y"] = T.Tensor(rng.normal(size=x.shape), requires_grad=True)
        return T.add_n([x, ins["y"]]), ins
    if op == "softmax_cross_entropy":
        return T.softmax_cross_entropy(flat, np.array([0, 5])), {"x": flat}
    calls = {"relu": lambda: T.relu(x), "scale": lambda: T.scale(x, 0.5),
             "subsample_pad": lambda: T.subsample_pad(x, 2, 4), "max_pool2d": lambda: T.max_pool2d(x),
             "global_avg_pool": lambda: T.global_avg_pool(x)}
    return calls[op](), ins


# op -> the tensors its vjp reads, so the graph executor must not write into or drop them
READ_MARKS = {"conv2d": {"x"}, "batch_norm": {"x"}, "linear": {"x"}, "relu": {"out"},
              "add_n": set(), "scale": set(), "subsample_pad": set(), "max_pool2d": set(),
              "global_avg_pool": set(), "softmax_cross_entropy": set()}


class TestReadMarks:
    @pytest.mark.parametrize("op", sorted(READ_MARKS))
    def test_a_taped_op_marks_exactly_what_its_vjp_reads(self, op, rng):
        out, ins = _op_with_inputs(op, rng)
        tensors = {**ins, "out": out}
        assert {name for name, t in tensors.items() if t._read} == READ_MARKS[op]

    @pytest.mark.parametrize("op", sorted(READ_MARKS))
    def test_nothing_is_marked_without_a_tape(self, op, rng):
        with T.no_tape():
            out, ins = _op_with_inputs(op, rng)
        assert not any(t._read for t in [*ins.values(), out])

    def test_an_input_off_the_gradient_path_is_marked_when_the_op_is_taped(self, rng):
        # the first conv of a network reads the image to form its weight gradient
        image = T.Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = T.Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
        T.conv2d(image, w, padding=1)
        assert image._read and not w._read
        frozen = T.Tensor(rng.normal(size=(5, 3, 3, 3)))
        other = T.Tensor(rng.normal(size=(2, 3, 4, 4)))
        T.conv2d(other, frozen, padding=1)  # nothing requires grad: no tape
        assert not other._read
