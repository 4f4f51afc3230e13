import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from ctgformer.errors import GradCheckError, GraphError, NumcoreError, ShapeError
from ctgformer import numcore as nc
from ctgformer.numcore import Graph, Tensor, backward, grad_check, param_init


def scalar_loss(t):
    return nc.tsum(t)


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
            out = nc.softmax(Tensor(x), axis=-1)
            assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
            shifted = nc.softmax(Tensor(x + rng.normal()), axis=-1)
            assert np.allclose(out.data, shifted.data, atol=1e-12)

    def test_minus_inf_gets_zero_weight(self):
        out = nc.softmax(Tensor([0.0, -np.inf, 1.0]))
        assert out.data[1] == 0.0
        assert np.isclose(out.data.sum(), 1.0)


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
                                    lambda: nc.neg(x)], axis=-1)     # 1 node
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
        return node.backward_fn(np.ones(node.output.shape))

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
        assert np.array_equal(inner[0].grad, [[1.0, 0.0, 1.0]])
        assert np.array_equal(inner[1].grad, [[1.0, 0.0, 1.0]])
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
            h = nc.softmax(nc.matmul(v, w), axis=-1)
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

    def test_bad_eps_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(GradCheckError):
            grad_check(lambda: nc.tsum(x), [x], eps=0.0)


@pytest.mark.parametrize("op_name", ["add", "sub", "mul", "softmax", "sigmoid",
                                     "reshape", "transpose", "concat",
                                     "bce_with_logits", "masked_fill"])
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
        "sub": lambda: nc.sub(a, b),
        "mul": lambda: nc.mul(a, b),
        "softmax": lambda: nc.softmax(a, axis=-1),
        "sigmoid": lambda: nc.sigmoid(a),
        "reshape": lambda: nc.reshape(a, (4, 3)),
        "transpose": lambda: nc.transpose(a, (1, 0)),
        "concat": lambda: nc.concat([a, b], axis=1),
        "bce_with_logits": lambda: nc.bce_with_logits(nc.mul(a, logit_scale), labels),
        "masked_fill": lambda: nc.masked_fill(a, a.data > 0.5, -1.0),
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
