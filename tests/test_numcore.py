import ctypes
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import ctgformer
from ctgformer.errors import GradCheckError, GraphError, NumcoreError, ShapeError
from ctgformer import numcore as nc
from ctgformer.numcore import Graph, Tensor, backward, grad_check, param_init


def scalar_loss(t):
    return nc.tsum(t)


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this ctgformer."""
    return {**os.environ, "PYTHONPATH": str(Path(ctgformer.__file__).resolve().parents[1])}


class TestParamInit:
    def test_zeros(self):
        t = param_init([2, 2], "zeros", seed=0)
        assert np.array_equal(t.data, np.zeros((2, 2)))
        assert t.requires_grad

    def test_deterministic(self):
        a = param_init([4, 4], "uniform_fan", seed=7)
        b = param_init([4, 4], "uniform_fan", seed=7)
        assert np.array_equal(a.data, b.data)

    def test_fan_bound(self):
        # fan_in = 64 so every draw must land in [-1/8, 1/8]
        t = param_init([64, 64], "uniform_fan", seed=1)
        assert np.all(np.abs(t.data) <= 1.0 / 8.0)
        assert np.max(np.abs(t.data)) > 1.0 / 16.0  # actually spread out

    def test_empty_shape_rejected(self):
        with pytest.raises(ShapeError):
            param_init([], "zeros", seed=0)

    def test_unknown_scheme(self):
        with pytest.raises(NumcoreError):
            param_init([2], "xavier", seed=0)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nc.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_hand_product(self):
        out = nc.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        report = grad_check(lambda: scalar_loss(nc.matmul(a, b)), [a, b], eps=1e-5, tol=1e-5)
        assert report.passed, report.max_rel_err

    def test_batched_broadcast(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(5, 2))
        out = nc.matmul(Tensor(a), Tensor(b))
        assert out.shape == (4, 3, 2)
        assert np.allclose(out.data, a @ b)

    def test_batched_gradient(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        report = grad_check(lambda: scalar_loss(nc.matmul(a, b)), [a, b], eps=1e-5, tol=1e-5)
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("view", ["4d", "transposed"])
    def test_2d_weight_on_any_a_matches_numpy(self, view):
        rng = np.random.default_rng(9)
        if view == "4d":
            leaf = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
            make_a = lambda: leaf
        else:
            # matmul sees a non-contiguous (2, 4, 5) view of a contiguous leaf
            leaf = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
            make_a = lambda: nc.transpose(leaf, (0, 2, 1))
        b = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        a_data = make_a().data
        assert view == "4d" or not a_data.flags.c_contiguous
        assert np.allclose(nc.matmul(make_a(), b).data, np.matmul(a_data, b.data), rtol=0, atol=1e-12)
        w = Tensor(rng.normal(size=a_data.shape[:-1] + (3,)))   # not a plain sum, so grad_a varies
        report = grad_check(lambda: scalar_loss(nc.mul(nc.matmul(make_a(), b), w)), [leaf, b],
                            eps=1e-5, tol=1e-5)
        assert report.passed, report.max_rel_err

    def test_stacked_3d_by_3d_gradient_matches_einsum(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        w = rng.normal(size=(3, 4, 2))
        with Graph() as g:
            loss = scalar_loss(nc.mul(nc.matmul(a, b), Tensor(w)))
        backward(loss, g)
        assert np.allclose(a.grad, np.einsum("bij,bkj->bik", w, b.data), rtol=0, atol=1e-12)
        assert np.allclose(b.grad, np.einsum("bji,bjk->bik", a.data, w), rtol=0, atol=1e-12)

    def test_weight_gradient_backward_memory(self):
        # the weight gradient must not materialise one (d_in, d_out) block
        # per leading index: 64 of them are 32 MiB here
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(64, 60, 256)), requires_grad=True)
        b = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        with Graph() as g:
            loss = scalar_loss(nc.matmul(a, b))
        tracemalloc.start()
        try:
            backward(loss, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        assert peak < 4 * a.data.nbytes, peak


class TestSoftmax:
    def test_symmetry(self):
        out = nc.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_logit_stability(self):
        out = nc.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-12
        assert out.data[1] < 1e-12

    def test_hand_values(self):
        out = nc.softmax(Tensor([1.0, 2.0, 3.0]))
        assert np.allclose(out.data, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=(4, 7))
            out = nc.softmax(Tensor(x))
            assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
            shifted = nc.softmax(Tensor(x + rng.normal()))
            assert np.allclose(out.data, shifted.data, atol=1e-12)

    def test_minus_inf_gets_zero_weight(self):
        out = nc.softmax(Tensor([0.0, -np.inf, 1.0]))
        assert out.data[1] == 0.0
        assert np.isclose(out.data.sum(), 1.0)

    def test_gone_keys_get_zero_weight_and_scale_applies(self):
        x = np.array([[0.0, 5.0, 1.0], [2.0, -1.0, 0.5]])
        gone = np.array([False, True, False])
        out = nc.softmax(Tensor(x), gone, 0.5).data
        assert np.all(out[:, 1] == 0.0)
        kept = np.exp(0.5 * x[:, [0, 2]])
        assert np.allclose(out[:, [0, 2]], kept / kept.sum(axis=1, keepdims=True), atol=1e-15)

    def test_mask_bias_gives_the_bits_of_filling_minus_inf(self):
        rng = np.random.default_rng(13)
        for dtype in (np.float32, np.float64):
            a = rng.normal(scale=4.0, size=(6, 4, 9, 9)).astype(dtype)
            a[rng.random(a.shape) < 0.1] = -np.inf
            gone = rng.random((6, 1, 1, 9)) < 0.3
            gone[0] = True            # a batch row with every key gone
            with np.errstate(invalid="ignore"):   # -inf - -inf in the all-gone row
                out = a * np.asarray(0.3, dtype=dtype)
                np.copyto(out, -np.inf, where=gone)
                out -= np.max(out, axis=-1, keepdims=True)
                np.exp(out, out=out)
                out /= (out.reshape(-1, 9) @ np.ones(9, dtype=dtype)).reshape(out.shape[:-1] + (1,))
                got = nc.softmax(Tensor(a), gone, 0.3).data
            assert got.dtype == dtype and got.tobytes() == out.tobytes()

    def test_key_gone_and_scale_gradients(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gone = np.array([[[True, False, True, False, True]],
                         [[True, True, False, True, True]]])   # batch 1: one attended key
        w = Tensor(rng.normal(size=(2, 3, 5)))
        report = grad_check(lambda: scalar_loss(nc.mul(nc.softmax(x, gone, 0.7), w)),
                            [x], eps=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_err

    def test_single_attended_key_gets_weight_one_and_no_gradient(self):
        x = Tensor(np.array([[3.0, -2.0, 0.5]]), requires_grad=True)
        with Graph() as g:
            out = nc.softmax(x, np.array([True, False, True]), 0.25)
            loss = nc.tsum(nc.mul(out, Tensor([[1.0, 2.0, 3.0]])))
        assert np.array_equal(out.data, [[0.0, 1.0, 0.0]])
        backward(loss, g)
        assert np.array_equal(x.grad, np.zeros((1, 3)))

    def test_float32_matches_float64_reference_of_old_chain(self):
        # attention-sized block at the model's score scale: the old chain was
        # mul(scale), masked_fill(-inf), softmax, here in float64
        rng = np.random.default_rng(12)
        scale = 1.0 / np.sqrt(32)
        s32 = rng.normal(size=(4, 4, 60, 60)).astype(np.float32)
        gone = rng.random((4, 1, 1, 60)) < 0.3
        g32 = rng.normal(size=s32.shape).astype(np.float32)
        x = Tensor(s32, requires_grad=True)
        with Graph() as g:
            out = nc.softmax(x, gone, scale)
            loss = nc.tsum(nc.mul(out, g32))
        backward(loss, g)
        a = np.where(gone, -np.inf, s32.astype(np.float64) * scale)
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        ref = e / e.sum(axis=-1, keepdims=True)
        g64 = g32.astype(np.float64)
        gref = ref * (g64 - (g64 * ref).sum(axis=-1, keepdims=True)) * scale
        assert out.data.dtype == np.float32 and x.grad.dtype == np.float32
        assert np.abs(out.data - ref).max() <= 2e-8
        assert np.linalg.norm(x.grad - gref) / np.linalg.norm(gref) <= 1e-7
        # the float64 form of the fused op against the same reference
        out64 = nc.softmax(Tensor(s32.astype(np.float64)), gone, scale).data
        assert np.abs(out64 - ref).max() <= 2e-15


class TestLayerNorm:
    def gb(self, d):
        return Tensor(np.ones(d)), Tensor(np.zeros(d))

    def test_constant_vector_zeroed(self):
        g, b = self.gb(5)
        out = nc.layer_norm(Tensor(np.full((5,), 3.7)), g, b)
        assert np.allclose(out.data, 0.0)

    def test_standardized_unchanged(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=16)
        x = (x - x.mean()) / x.std()
        g, b = self.gb(16)
        out = nc.layer_norm(Tensor(x), g, b, eps=1e-10)
        assert np.allclose(out.data, x, atol=1e-6)

    def test_two_point_hand_case(self):
        g, b = self.gb(2)
        out = nc.layer_norm(Tensor([1.0, 3.0]), g, b, eps=1e-5)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_mean_var_property(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 5.0), size=(3, 9))
            assert np.all(x.var(axis=-1) >= 1e-3)  # property scope: non-degenerate rows
            g, b = self.gb(9)
            out = nc.layer_norm(Tensor(x), g, b, eps=1e-10).data
            assert np.all(np.abs(out.mean(axis=-1)) < 1e-10)
            assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-6)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 6)))  # weigh outputs so grads are not symmetric
        report = grad_check(lambda: scalar_loss(nc.mul(nc.layer_norm(x, g, b), w)),
                            [x, g, b], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_branch_with_dropout_gradients(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        branch = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        g = Tensor(rng.normal(size=8), requires_grad=True)
        b = Tensor(rng.normal(size=8), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 8)))

        def f():   # a fresh generator per evaluation: the same mask every time
            out = nc.layer_norm(x, g, b, 1e-5, branch, 0.4, np.random.default_rng(5))
            return scalar_loss(nc.mul(out, w))

        report = grad_check(f, [x, branch, g, b], eps=1e-6, tol=1e-5)
        assert report.passed, report.max_rel_err

    def test_branch_without_dropout_is_the_residual_sum(self):
        rng = np.random.default_rng(8)
        x, branch = rng.normal(size=(2, 4, 8)), rng.normal(size=(2, 4, 8))
        g, b = self.gb(8)
        fused = nc.layer_norm(Tensor(x), g, b, 1e-5, Tensor(branch), 0.3)   # no generator
        assert np.array_equal(fused.data, nc.layer_norm(Tensor(x + branch), g, b, 1e-5).data)

    def test_branch_dropout_zeroes_branch_where_dropped(self):
        x = Tensor(np.arange(64.0).reshape(8, 8), requires_grad=True)
        branch = Tensor(np.ones((8, 8)), requires_grad=True)
        g, b = self.gb(8)
        with Graph() as tape:
            loss = nc.tsum(nc.mul(nc.layer_norm(x, g, b, 1e-5, branch, 0.5,
                                                np.random.default_rng(2)), x.data))
        backward(loss, tape)
        keep = nc.dropout(Tensor(np.ones((8, 8))), 0.5, np.random.default_rng(2)).data != 0.0
        assert 0 < keep.sum() < 64
        assert np.array_equal(branch.grad, np.where(keep, x.grad * 2.0, 0.0))

    def test_branch_shape_must_match(self):
        g, b = self.gb(4)
        with pytest.raises(ShapeError, match="branch"):
            nc.layer_norm(Tensor(np.ones((2, 4))), g, b, 1e-5, Tensor(np.ones((1, 4))))

    def test_float32_matches_float64_reference_of_old_chain(self):
        # the old chain was layer_norm(x + dropout(branch)), here in float64
        rng = np.random.default_rng(14)
        x32 = (rng.normal(size=(4, 60, 128)) * 2.0 + 0.5).astype(np.float32)
        br32 = rng.normal(size=x32.shape).astype(np.float32)
        gain32 = rng.normal(1.0, 0.1, size=128).astype(np.float32)
        bias32 = rng.normal(0.0, 0.1, size=128).astype(np.float32)
        g32 = rng.normal(size=x32.shape).astype(np.float32)
        ts = [Tensor(a, requires_grad=True) for a in (x32, gain32, bias32, br32)]
        with Graph() as tape:
            out = nc.layer_norm(*ts[:3], 1e-5, ts[3], 0.1, np.random.default_rng(4))
            loss = nc.tsum(nc.mul(out, g32))
        backward(loss, tape)
        keep = nc.dropout(Tensor(np.ones(x32.shape)), 0.1, np.random.default_rng(4)).data != 0.0
        s = x32.astype(np.float64) + br32.astype(np.float64) * keep / 0.9
        xc = s - s.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat, gain, g64 = xc * inv, gain32.astype(np.float64), g32.astype(np.float64)
        ref = xhat * gain + bias32
        gx = g64 * gain
        gx = (gx - gx.mean(axis=-1, keepdims=True)
              - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv
        refs = (gx, (g64 * xhat).sum(axis=(0, 1)), g64.sum(axis=(0, 1)), gx * keep / 0.9)
        assert np.abs(out.data - ref).max() <= 1e-6
        for t, r in zip(ts, refs):
            assert t.grad.dtype == np.float32
            assert np.linalg.norm(t.grad - r) / np.linalg.norm(r) <= 5e-7
        # the float64 form of the fused op against the same reference
        out64 = nc.layer_norm(Tensor(x32.astype(np.float64)), Tensor(gain32), Tensor(bias32),
                              1e-5, Tensor(br32.astype(np.float64)), 0.1,
                              np.random.default_rng(4)).data
        assert np.abs(out64 - ref).max() <= 2e-15


class TestActivations:
    def test_relu_points(self):
        out = nc.activation(Tensor([-1.0, 2.0]), "relu")
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_gelu_zero(self):
        assert nc.activation(Tensor([0.0]), "gelu").data[0] == 0.0

    def test_gelu_one(self):
        # x * Phi(x) at x=1 is the standard normal CDF at 1
        assert abs(nc.gelu(Tensor([1.0])).data[0] - 0.8413) < 1e-3

    def test_elu_negative_branch(self):
        out = nc.elu(Tensor([-1.0, 0.5]))
        assert np.allclose(out.data, [np.expm1(-1.0), 0.5])

    def test_unknown_kind(self):
        with pytest.raises(NumcoreError):
            nc.activation(Tensor([1.0]), "swish")

    @pytest.mark.parametrize("kind", ["relu", "gelu", "elu"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(13)
        # keep relu inputs away from the kink at 0
        x = rng.normal(size=12)
        x[np.abs(x) < 0.05] += 0.1
        t = Tensor(x, requires_grad=True)
        report = grad_check(lambda: scalar_loss(nc.activation(t, kind)), [t],
                            eps=1e-6, tol=1e-4)
        assert report.passed, report.max_rel_err


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0))
        out = nc.dropout(x, 0.0, np.random.default_rng(1))
        assert np.array_equal(out.data, x.data)

    def test_inference_passthrough(self):
        x = Tensor(np.arange(6.0))
        out = nc.dropout(x, 0.9)   # no generator: inference
        assert np.array_equal(out.data, x.data)

    def test_rate_one_rejected(self):
        with pytest.raises(NumcoreError):
            nc.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_survivor_statistics(self):
        n = 100_000
        x = Tensor(np.full(n, 2.0))
        out = nc.dropout(x, 0.5, np.random.default_rng(42)).data
        survivors = out != 0.0
        assert abs(survivors.mean() - 0.5) < 0.01
        assert abs(out.mean() - 2.0) / 2.0 < 0.02  # expectation preserved

    def test_seeded_replay_bit_identical(self):
        x = Tensor(np.linspace(-1, 1, 64))
        a = nc.dropout(x, 0.3, np.random.default_rng(7)).data
        b = nc.dropout(x, 0.3, np.random.default_rng(7)).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.4, 0.5])
    def test_mask_keeps_uint16_draws_at_or_above_threshold(self, rate):
        n = 1_000_001   # not a multiple of 4: the last raw word is cut short
        kept = nc.dropout(Tensor(np.ones(n)), rate, np.random.default_rng(3)).data != 0.0
        bits = np.random.default_rng(3).bit_generator.random_raw(250_001).view(np.uint16)[:n]
        threshold = round(rate * 65536)
        assert np.any(bits == threshold)   # a draw on the threshold is kept
        assert np.array_equal(kept, bits >= threshold)

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.4])
    def test_kept_share_within_binomial_tolerance(self, rate):
        n = 10 ** 6
        kept = nc.dropout(Tensor(np.ones(n, dtype=np.float32)), rate,
                          np.random.default_rng(11)).data != 0.0
        p = 1.0 - round(rate * 65536) / 65536
        assert abs(p - (1.0 - rate)) <= 2.0 ** -17
        assert abs(kept.mean() - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)

    def test_mask_does_not_depend_on_dtype(self):
        masks = [nc.dropout(Tensor(np.ones((6, 50), dtype=dtype)), 0.2,
                            np.random.default_rng(13)).data != 0.0
                 for dtype in (np.float32, np.float64)]
        assert np.array_equal(masks[0], masks[1])

    def test_layer_norm_branch_draws_the_same_mask(self):
        # the fused residual dropout and dropout share one mask rule
        x = np.linspace(0.0, 1.0, 40).reshape(5, 8)
        gain, bias = Tensor(np.ones(8)), Tensor(np.zeros(8))
        fused = nc.layer_norm(Tensor(x), gain, bias, 1e-5, Tensor(x), 0.3,
                              np.random.default_rng(6)).data
        dropped = nc.dropout(Tensor(x), 0.3, np.random.default_rng(6))
        assert np.array_equal(fused, nc.layer_norm(nc.add(x, dropped), gain, bias, 1e-5).data)


    def test_float32_mask_reused_by_backward(self):
        x = Tensor(np.linspace(1.0, 2.0, 64, dtype=np.float32), requires_grad=True)
        with Graph() as g:
            out = nc.dropout(x, 0.25, np.random.default_rng(3))
            loss = nc.tsum(out)
        assert out.data.dtype == np.float32
        backward(loss, g)
        keep = out.data != 0.0
        assert 0 < keep.sum() < 64
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, np.where(keep, np.float32(1 / 0.75), 0.0))
        assert np.array_equal(out.data[keep], x.data[keep] * np.float32(1 / 0.75))


class TestPrecision:
    """float32 stays float32 through every op; astype's adjoint casts back."""

    def test_tensor_keeps_float32_and_makes_the_rest_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        for data in ([1, 2], np.ones(2, dtype=np.float16), 3.0, np.ones(2, dtype=bool)):
            assert Tensor(data).data.dtype == np.float64

    def test_astype_adjoint_casts_back(self):
        x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        with Graph() as g:
            y = nc.astype(x, np.float32)
            loss = nc.tsum(nc.mul(y, y))
        assert y.data.dtype == np.float32 and loss.data.dtype == np.float32
        backward(loss, g)
        assert x.grad.dtype == np.float64
        assert np.array_equal(x.grad, 2.0 * x.data)

    @pytest.mark.parametrize("build", [
        lambda t: t * 0.125, lambda t: 0.125 * t, lambda t: nc.add(1.0, t), lambda t: t + 1,
        lambda t: t + np.float64(2.0), lambda t: nc.mul(t, np.ones(3)),
    ], ids=["mul", "rmul", "add_const_left", "add_int", "add_np_scalar", "mul_array"])
    def test_constants_do_not_promote(self, build):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with Graph() as g:
            out = build(t)
            loss = nc.tsum(out)
        assert out.data.dtype == np.float32
        backward(loss, g)
        assert t.grad.dtype == np.float32

    def test_bce_loss_float64_adjoint_in_logit_dtype(self):
        z = Tensor(np.array([-3.0, 0.5, 40.0], dtype=np.float32), requires_grad=True)
        labels = np.array([0.0, 1.0, 0.0])
        with Graph() as g:
            loss = nc.bce_with_logits(z, labels)
        assert loss.data.dtype == np.float64
        ref = nc.bce_with_logits(Tensor(z.data.astype(np.float64)), labels)
        assert loss.item() == ref.item()
        backward(loss, g)
        assert z.grad.dtype == np.float32
        z64 = z.data.astype(np.float64)
        expected = (1.0 / (1.0 + np.exp(-z64)) - labels) / 3
        assert np.allclose(z.grad, expected, rtol=1e-6, atol=0)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(x)
        backward(loss, g)
        assert np.array_equal(x.grad, np.ones(4))

    def test_elementwise_square(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(nc.mul(x, x))
        backward(loss, g)
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Graph() as g:
            y = nc.add(x, x)  # dy/dx = 2
            loss = nc.tsum(nc.mul(y, y))  # d/dx (2x)^2 = 8x = 24
        backward(loss, g)
        assert np.allclose(x.grad, [24.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            y = nc.mul(x, x)
        with pytest.raises(ShapeError):
            backward(y, g)

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(x)
        backward(loss, g)
        with pytest.raises(GraphError):
            backward(loss, g)

    def test_record_after_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(x)
            backward(loss, g)
            with pytest.raises(GraphError):
                nc.tsum(x)

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        for _ in range(2):
            with Graph() as g:
                loss = nc.tsum(x)
            backward(loss, g)
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_no_graph_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = nc.mul(x, x)
        assert not y.requires_grad  # inference path builds no tape

    def test_len_counts_branch_subtapes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Graph() as g:
            h = nc.parallel_concat([lambda: nc.relu(nc.mul(x, x)),   # 2 nodes
                                    lambda: nc.mul(x, -1.0)], axis=-1)   # 1 node
            loss = nc.tsum(h)
        assert len(g) == 2 + 1 + 1 + 1   # branches, the branch node, the sum
        backward(loss, g)
        assert len(g) == 0


class TestSkippedAdjoints:
    """An operand that does not require gradients gets None, not a discarded array."""

    def last_node_grads(self, op, a, b):
        with Graph() as g:
            op(a, b)
        node = g._nodes[-1]
        return node.backward_fn(np.ones(node.shape))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        both = self.last_node_grads(nc.matmul, Tensor(a, requires_grad=True),
                                    Tensor(b, requires_grad=True))
        ga, gb = self.last_node_grads(nc.matmul, Tensor(a), Tensor(b, requires_grad=True))
        assert ga is None and np.array_equal(gb, both[1])
        ga, gb = self.last_node_grads(nc.matmul, Tensor(a, requires_grad=True), Tensor(b))
        assert gb is None and np.array_equal(ga, both[0])

    def test_mul_by_constant(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        gx, gc = self.last_node_grads(nc.mul, x, 0.5)
        assert gc is None and np.array_equal(gx, np.full((2, 3), 0.5))


class TestLeanTape:
    """The tape holds only what adjoint rules read: tensors are named by key,
    not held, so an intermediate the caller drops dies during the forward."""

    def test_dropped_intermediates_are_freed_while_graph_lives(self):
        # no rule holds a Tensor: a rule that needs an operand's data (the
        # matmul reads relu's output) keeps the array, not the tensor
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def grads(drop):
            for p in (x, w, gain, bias):
                p.zero_grad()
            with Graph() as g:
                chain = [nc.add(x, 1.0)]
                chain.append(nc.mul(chain[-1], 2.0))
                chain.append(nc.layer_norm(chain[-1], gain, bias))
                chain.append(nc.relu(chain[-1]))
                chain.append(nc.matmul(chain[-1], w))
                chain.append(nc.reshape(chain[-1], (8,)))
                loss = nc.tsum(chain[-1])
                refs = [weakref.ref(t) for t in chain]
                if drop:
                    del chain
            assert all((r() is None) == drop for r in refs)
            assert len(g) == 7
            backward(loss, g)
            return [p.grad for p in (x, w, gain, bias)]

        for dropped, held in zip(grads(True), grads(False)):
            assert np.array_equal(dropped, held)

    def test_only_leaves_get_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        held = []

        def branch():
            held.append(nc.mul(x, 3.0))
            return nc.add(held[-1], 1.0)

        with Graph() as g:
            y = nc.mul(x, x)
            z = nc.add(y, 1.0)
            p = nc.parallel_concat([branch, lambda: nc.mul(x, -1.0)], axis=-1)
            loss = nc.add(nc.tsum(nc.mul(z, 3.0)), nc.tsum(p))
        backward(loss, g)
        for t in (y, z, held[0], p, loss):   # held[0] is on a branch sub-tape
            assert t.grad is None
        assert np.array_equal(x.grad, 6.0 * x.data + 3.0 - 1.0)

    def test_retain_intermediate_grads_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(nc.mul(x, x))
        with pytest.raises(GraphError, match="leaves only"):
            backward(loss, g, retain_intermediate_grads=True)
        assert x.grad is None
        backward(loss, g, retain_intermediate_grads=False)
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_keys_stay_unique_across_threads(self):
        keys = [[] for _ in range(4)]

        def make(out):
            out.extend(Tensor(0.0).key for _ in range(5000))

        workers = [threading.Thread(target=make, args=(out,)) for out in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        flat = [k for out in keys for k in out]
        assert len(flat) == 20000 and len(set(flat)) == 20000

    def test_many_dropped_tensors_pass_grad_check(self):
        # every step makes and drops several tensors, so CPython reuses
        # their ids while the tape is live; adjoints must still route right
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)) / np.sqrt(8), requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=(8,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(8,)), requires_grad=True)

        def f():
            h = x
            for _ in range(40):
                h = nc.layer_norm(nc.add(nc.matmul(nc.relu(h), w), nc.mul(h, 0.5)), gain, bias)
                h = nc.reshape(nc.reshape(h, (16,)), (2, 8))
            return nc.tsum(nc.mul(h, x))

        report = grad_check(f, [x, w, gain, bias])
        assert report.passed, report.worst


def two_layer_branch(x, w, c):
    """relu(x @ w) * c: w is read once, c twice."""
    return lambda: nc.mul(nc.mul(nc.relu(nc.matmul(x, w)), c), c)


class TestParallelConcat:
    def leaves(self, seed=0):
        rng = np.random.default_rng(seed)
        x0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        x1 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        c = Tensor(rng.normal(size=(5,)), requires_grad=True)
        head = Tensor(rng.normal(size=(10, 1)), requires_grad=True)
        return x0, x1, w, c, head

    def grads(self, join, seed=0):
        x0, x1, w, c, head = ts = self.leaves(seed)
        with Graph() as g:
            h = join([two_layer_branch(x0, w, c), two_layer_branch(x1, w, c)])
            loss = nc.tsum(nc.matmul(h, head))
        backward(loss, g)
        return h.data, loss.data, [t.grad for t in ts]

    def test_matches_sequential_concat(self):
        for seed in range(5):
            h_par, loss_par, par = self.grads(nc.parallel_concat, seed)
            h_seq, loss_seq, seq = self.grads(
                lambda branches: nc.concat([b() for b in branches], axis=-1), seed)
            assert np.array_equal(h_par, h_seq) and np.array_equal(loss_par, loss_seq)
            x0, x1, w, _, head = range(5)
            for i in (x0, x1, w, head):        # at most two contributions: same bits
                assert np.array_equal(par[i], seq[i]), i
            # c gets four contributions, summed in another order
            assert np.allclose(par[3], seq[3], rtol=1e-14, atol=0)

    def test_gradient_matches_finite_differences(self):
        x0, x1, w, c, head = ts = self.leaves(1)

        def f():
            h = nc.parallel_concat([two_layer_branch(x0, w, c), two_layer_branch(x1, w, c)])
            return nc.tsum(nc.matmul(h, head))

        report = grad_check(f, list(ts), eps=1e-6, tol=1e-6)
        assert report.passed, report.max_rel_err

    def test_intermediate_grads_inside_branches(self):
        x = Tensor(np.array([[1.0, -2.0, 3.0]]), requires_grad=True)
        inner = {}

        def branch(k):
            def run():
                inner[k] = nc.mul(x, float(k + 2))
                return nc.relu(inner[k])
            return run

        with Graph() as g:
            loss = nc.tsum(nc.parallel_concat([branch(0), branch(1)], axis=-1))
        backward(loss, g)
        assert inner[0].grad is None and inner[1].grad is None
        assert np.array_equal(x.grad, [[5.0, 0.0, 5.0]])

    def test_branch_returning_a_leaf(self):
        x = Tensor(np.ones((1, 2)), requires_grad=True)
        with Graph() as g:
            loss = nc.tsum(nc.parallel_concat([lambda: x, lambda: nc.mul(x, 3.0)]))
        backward(loss, g)
        assert np.array_equal(x.grad, [[4.0, 4.0]])

    def test_outside_graph_runs_branch_one_on_another_thread(self):
        seen = {}

        def branch(k):
            def run():
                seen[k] = threading.get_ident()
                return Tensor(np.full((2, 1), float(k)))
            return run

        out = nc.parallel_concat([branch(0), branch(1)], axis=-1)
        assert np.array_equal(out.data, [[0.0, 1.0], [0.0, 1.0]])
        assert not out.requires_grad
        assert seen[0] == threading.get_ident() != seen[1]

    def test_errors(self):
        def fail(msg):
            def run():
                raise ValueError(msg)
            return run

        def ok():
            return Tensor(np.ones((1, 1)))

        with pytest.raises(ValueError, match="second"):
            nc.parallel_concat([ok, fail("second")])
        with pytest.raises(ValueError, match="first"):
            nc.parallel_concat([fail("first"), fail("second")])
        with Graph():
            with pytest.raises(ValueError, match="first"):
                nc.parallel_concat([fail("first"), ok])
        assert np.array_equal(nc.parallel_concat([ok, ok]).data, [[1.0, 1.0]])
        with pytest.raises(NumcoreError):
            nc.parallel_concat([ok, ok, ok])

    def test_nested_op_runs_inline(self):
        x = Tensor(np.arange(3.0)[None], requires_grad=True)

        def inner():
            return nc.parallel_concat([lambda: nc.mul(x, 2.0), lambda: nc.mul(x, 3.0)])

        result = {}

        def run():
            with Graph() as g:
                h = nc.parallel_concat([inner, inner])   # nested in both branches
                loss = nc.tsum(h)
            result["len"] = len(g)
            backward(loss, g)
            result["grad"] = x.grad

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive(), "nested parallel_concat deadlocked"
        assert result["len"] == 2 * (2 + 1) + 1 + 1
        assert np.array_equal(result["grad"], [[10.0, 10.0, 10.0]])

    def test_worker_thread_starts_on_first_use(self):
        # a fresh interpreter, so no earlier test has started the worker
        script = (
            "import threading\n"
            "before = set(threading.enumerate())\n"
            "import numpy as np\n"
            "import ctgformer.numcore as nc\n"
            "print(len(set(threading.enumerate()) - before))\n"
            "one = lambda: nc.Tensor(np.ones((1, 1)))\n"
            "nc.parallel_concat([one, one])\n"
            "print(sorted(t.name for t in set(threading.enumerate()) - before))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0", "['numcore-branch_0']"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_working_worker(self):
        # the parent's worker has run once; the child must not wait on it
        script = (
            "import os, signal\n"
            "import numpy as np\n"
            "import ctgformer.numcore as nc\n"
            "one = lambda: nc.Tensor(np.ones((1, 1)))\n"
            "nc.parallel_concat([one, one])\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(10)\n"
            "    out = nc.parallel_concat([one, lambda: nc.Tensor(np.full((1, 1), 2.0))])\n"
            "    os._exit(0 if out.data.tolist() == [[1.0, 2.0]] else 1)\n"
            "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0"]


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        rng = np.random.default_rng(1)
        # inputs bounded away from zero keep every gradient coordinate O(1)
        x = Tensor(rng.uniform(0.5, 1.5, size=16), requires_grad=True)
        report = grad_check(lambda: nc.tsum(nc.mul(x, x)), [x], eps=1e-5, tol=1e-7)
        assert report.passed, report.max_rel_err

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(1, 5)))

        def f():
            h = nc.softmax(nc.matmul(v, w))
            return nc.tsum(nc.mul(h, h))

        report = grad_check(f, [w], eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_err

    def test_dropout_left_on_rejected(self):
        # distinct values so two different masks cannot sum to the same loss
        x = Tensor(np.random.default_rng(0).normal(size=64), requires_grad=True)
        counter = {"n": 0}

        def f():
            counter["n"] += 1
            return nc.tsum(nc.dropout(x, 0.5, np.random.default_rng(counter["n"])))

        with pytest.raises(GradCheckError, match="nondeterministic"):
            grad_check(f, [x])

    def test_transposed_view_leaf(self):
        # the leaf's data is a non-contiguous view; perturbations must reach it
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)
        assert not a.data.flags.c_contiguous
        w = Tensor(rng.normal(size=(4, 2)))
        report = grad_check(lambda: scalar_loss(nc.matmul(a, w)), [a], eps=1e-5, tol=1e-6)
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("where", ["param", "function"])
    def test_float32_rejected(self, where):
        # a central difference at eps=1e-5 is below float32 resolution
        data = np.linspace(0.5, 1.5, 4)
        if where == "param":
            x = Tensor(data.astype(np.float32), requires_grad=True)
            f = lambda: nc.tsum(nc.mul(x, x))  # noqa: E731
        else:
            x = Tensor(data, requires_grad=True)
            f = lambda: nc.tsum(nc.mul(nc.astype(x, np.float32), x.data.astype(np.float32)))  # noqa: E731
        with pytest.raises(GradCheckError, match="float64"):
            grad_check(f, [x])

    def test_bad_eps_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(GradCheckError):
            grad_check(lambda: nc.tsum(x), [x], eps=0.0)


@pytest.mark.parametrize("op_name", ["add", "mul", "softmax", "sigmoid",
                                     "reshape", "transpose", "concat",
                                     "bce_with_logits"])
def test_every_op_matches_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))   # same inputs every run
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)))  # fixed mixing so the loss is not symmetric
    logit_scale = 50.0 / np.abs(a.data).max()   # logits reach |z| = 50
    # beyond |z| = 8 every label is a confident mistake: a saturated correct
    # logit has a gradient too small for a central difference to resolve
    labels = np.where(np.abs(a.data) * logit_scale > 8.0, a.data < 0, rng.random((3, 4)) < 0.5)

    builders = {
        "add": lambda: nc.add(a, b),
        "mul": lambda: nc.mul(a, b),
        "softmax": lambda: nc.softmax(a),
        "sigmoid": lambda: nc.sigmoid(a),
        "reshape": lambda: nc.reshape(a, (4, 3)),
        "transpose": lambda: nc.transpose(a, (1, 0)),
        "concat": lambda: nc.concat([a, b], axis=1),
        "bce_with_logits": lambda: nc.bce_with_logits(nc.mul(a, logit_scale), labels),
    }

    def f():
        out = builders[op_name]()
        flat = nc.reshape(out, (1, out.size))
        return nc.tsum(nc.mul(flat, Tensor(np.resize(w.data, (1, out.size)))))

    report = grad_check(f, [a, b], eps=1e-6, tol=1e-4)
    assert report.passed, (op_name, report.max_rel_err)


def test_forward_values_finite_on_finite_inputs():
    rng = np.random.default_rng(21)
    x = rng.normal(scale=50.0, size=(4, 8))
    checks = [
        nc.softmax(Tensor(x)),
        nc.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))),
        nc.gelu(Tensor(x)),
        nc.sigmoid(Tensor(x)),
        nc.elu(Tensor(x)),
    ]
    for out in checks:
        assert np.all(np.isfinite(out.data))


def _glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator policy applies on glibc only")
def test_freed_activations_stay_in_the_process():
    # 64 activations of a (48, 60, 128) float32 block, about 90 MiB, made
    # and dropped per round: after two warm rounds the heap keeps the pages
    script = (
        "import resource\n"
        "import numpy as np\n"
        "import ctgformer.numcore\n"
        "def step():\n"
        "    acts = [np.ones((48, 60, 128), np.float32) for _ in range(64)]\n"
        "    del acts\n"
        "for _ in range(2):\n"
        "    step()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    step()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000
