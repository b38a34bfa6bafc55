import weakref

import numpy as np
import pytest

from pathovc import diffcore as dc

from oracles import (adam_ref, conv1d_ref, conv_transpose1d_ref,
                     finite_difference_grad, max_relative_error)

TOL = 1e-4
STEP = 1e-4


def check_grads(build, *arrays, n_cases=10, seed=0, margin=None):
    """Compare autodiff gradients of build(*tensors) against central differences.

    build receives Tensors and must return a scalar Tensor. arrays are
    shape templates; fresh values are drawn per case. margin, if given,
    redraws a case whenever any intermediate the builder flags sits within
    margin of a ReLU kink (builder returns (loss, preacts) in that mode).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < n_cases:
        vals = [rng.normal(size=a).astype(np.float64) for a in arrays]
        tensors = [dc.Tensor(v.copy(), requires_grad=True) for v in vals]
        out = build(*tensors)
        if margin is not None:
            out, preacts = out
            if any(np.min(np.abs(p)) < margin for p in preacts):
                continue
        out.backward()
        for i, v in enumerate(vals):
            def f(x, i=i):
                args = [dc.Tensor(vals[j] if j != i else x) for j in range(len(vals))]
                r = build(*args)
                if margin is not None:
                    r = r[0]
                return r.item()
            fd = finite_difference_grad(f, v.copy(), STEP)
            worst = max(worst, max_relative_error(tensors[i].grad, fd))
        done += 1
    assert worst <= TOL, f"max relative gradient error {worst:.3e}"


class TestBasics:
    @pytest.mark.parametrize("value, want", [
        (np.arange(3), np.float64),
        (np.array([True, False]), np.float64),
        ([1, 2], np.float64),
        (np.ones(2, dtype=np.float16), np.float16),
        (np.ones(2, dtype=np.float32), np.float32),
        (np.ones(2, dtype=np.float64), np.float64),
    ])
    def test_floats_keep_their_dtype_others_become_float64(self, value, want):
        t = dc.Tensor(value)
        assert t.data.dtype == want
        np.testing.assert_array_equal(t.data, np.asarray(value, dtype=want))

    def test_sum_gradient_all_ones(self):
        x = dc.Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        dc.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        v = np.array([1.5, -2.0, 0.5])
        x = dc.Tensor(v.copy(), requires_grad=True)
        dc.tsum(dc.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, 2 * v)

    def test_backward_rejects_non_scalar(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            dc.add(x, x).backward()

    def test_fanout_accumulates_by_summation(self):
        x = dc.Tensor(np.array([2.0]), requires_grad=True)
        y = dc.add(dc.mul(x, x), x)
        dc.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_linear_in_upstream_gradient(self):
        v = np.random.default_rng(3).normal(size=(4, 4))
        x1 = dc.Tensor(v.copy(), requires_grad=True)
        dc.mean(dc.relu(x1)).backward()
        x2 = dc.Tensor(v.copy(), requires_grad=True)
        dc.mul(dc.Tensor(np.asarray(7.0)), dc.mean(dc.relu(x2))).backward()
        np.testing.assert_allclose(x2.grad, 7.0 * x1.grad)

    def test_graph_evaluation_deterministic(self):
        v = np.random.default_rng(4).normal(size=(3, 5))
        k = np.random.default_rng(5).normal(size=(2, 3, 3))
        outs = []
        for _ in range(2):
            y = dc.conv1d(dc.Tensor(v.copy()), dc.Tensor(k.copy()), 1, 1)
            outs.append(y.data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestNoGraphWithoutGradients:
    """An op whose inputs need no gradient records nothing: inference
    builds no graph and frees each input once the caller drops it."""

    OPS = {
        "add": lambda a, b: dc.add(a, b),
        "mul": lambda a, b: dc.mul(a, b),
        "matmul": lambda a, b: dc.matmul(a, dc.transpose(b)),
        "relu": lambda a, b: dc.relu(a),
        "transpose": lambda a, b: dc.transpose(a),
        "concat": lambda a, b: dc.concat([a, b], axis=-1),
        "crop": lambda a, b: dc.crop(a, 2),
        "conv1d": lambda a, b: dc.conv1d(a, dc.Tensor(np.ones((2, 3, 3))), 2, 1),
        "conv_transpose1d": lambda a, b: dc.conv_transpose1d(
            a, dc.Tensor(np.ones((3, 2, 4))), 2, 1),
        "embedding": lambda a, b: dc.embedding(a, [0, 2]),
        "straight_through": lambda a, b: dc.straight_through(a, b),
        "tsum": lambda a, b: dc.tsum(a),
        "mean": lambda a, b: dc.mean(a),
        "squared_error": lambda a, b: dc.squared_error(a, b),
        "abs_error": lambda a, b: dc.abs_error(a, b),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_result_holds_no_reference_to_its_inputs(self, op):
        rng = np.random.default_rng(0)
        a, b = (dc.Tensor(rng.normal(size=(3, 5))) for _ in range(2))
        refs = [weakref.ref(a), weakref.ref(b)]
        out = self.OPS[op](a, b)
        del a, b
        assert [r() for r in refs] == [None, None]
        assert (out._parents, out._backward, out.requires_grad) == ((), None, False)
        assert np.all(np.isfinite(out.data))

    def test_gradient_still_recorded_through_one_input(self):
        a = dc.Tensor(np.ones(3), requires_grad=True)
        b = dc.Tensor(np.full(3, 2.0))
        out = dc.mul(a, b)
        assert out.requires_grad and out._parents == (a, b)
        dc.tsum(out).backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])


class TestConv1d:
    def test_hand_example(self):
        x = dc.Tensor(np.array([[1.0, 2.0, 3.0]]))
        k = dc.Tensor(np.array([[[1.0, 1.0]]]))
        np.testing.assert_array_equal(dc.conv1d(x, k, 1, 0).data, [[3.0, 5.0]])

    def test_identity_kernel(self):
        v = np.random.default_rng(0).normal(size=(2, 9))
        x = dc.Tensor(v)
        k = dc.Tensor(np.stack([np.eye(2)[:, i][:, None] for i in range(2)]))
        np.testing.assert_array_equal(dc.conv1d(x, k, 1, 0).data, v)

    def test_shape_errors(self):
        x = dc.Tensor(np.ones((2, 5)))
        with pytest.raises(dc.ShapeError, match="channel mismatch"):
            dc.conv1d(x, dc.Tensor(np.ones((4, 3, 3))), 1, 0)
        with pytest.raises(dc.ShapeError, match="empty"):
            dc.conv1d(x, dc.Tensor(np.ones((1, 2, 7))), 1, 0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 1), (2, 2), (3, 0)])
    def test_gradients(self, stride, padding):
        check_grads(
            lambda x, k: dc.tsum(dc.conv1d(x, k, stride, padding)),
            (3, 11), (4, 3, 5), n_cases=6, seed=stride * 10 + padding)


class TestConvTranspose1d:
    # the model's (stride, padding, W): the encoder's strided and plain
    # convs, its 1x1 projection, and the decoder's up-conv
    MODEL_CASES = [(2, 2, 5), (1, 2, 5), (1, 0, 1), (2, 1, 4)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,), (1,), (8,)],
                             ids=["unbatched", "batched", "batch_of_one", "training_batch"])
    @pytest.mark.parametrize("stride,padding,w", MODEL_CASES)
    def test_adjoint_of_conv(self, stride, padding, w, lead, dtype):
        # Each op's forward pass is the other's input gradient, bit for
        # bit: the (Cout, Cin, W) kernel of conv1d reads as (Cin, Cout, W)
        # on the transposed side, and both run the same GEMM and the same
        # gather or scatter.  T is the length conv_transpose1d gives from n
        # frames, so the two geometries match exactly.
        rng = np.random.default_rng(stride * 100 + padding * 10 + w)
        cin, cout, n = 6, 4, 13
        t = (n - 1) * stride + w - 2 * padding
        k = dc.Tensor(rng.normal(size=(cout, cin, w)).astype(dtype))
        p = rng.normal(size=lead + (cout, n)).astype(dtype)
        g = rng.normal(size=lead + (cin, t)).astype(dtype)

        x = dc.Tensor(np.zeros_like(g), requires_grad=True)
        dc.tsum(dc.mul(dc.conv1d(x, k, stride, padding), dc.Tensor(p))).backward()
        want = dc.conv_transpose1d(dc.Tensor(p), k, stride, padding).data
        assert want.dtype == dtype and want.shape == x.grad.shape
        assert np.array_equal(want, x.grad)

        q = dc.Tensor(np.zeros_like(p), requires_grad=True)
        dc.tsum(dc.mul(dc.conv_transpose1d(q, k, stride, padding), dc.Tensor(g))).backward()
        want = dc.conv1d(dc.Tensor(g), k, stride, padding).data
        assert want.dtype == dtype and want.shape == q.grad.shape
        assert np.array_equal(want, q.grad)

    def test_exact_doubling_geometry(self):
        x = dc.Tensor(np.ones((1, 8)))
        k = dc.Tensor(np.ones((1, 1, 4)))
        y = dc.conv_transpose1d(x, k, stride=2, padding=1)
        assert y.data.shape == (1, 16)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0), (3, 1)])
    def test_gradients(self, stride, padding):
        check_grads(
            lambda x, k: dc.tsum(dc.conv_transpose1d(x, k, stride, padding)),
            (3, 7), (3, 2, 4), n_cases=6, seed=stride * 100 + padding)


class TestConvAgainstEinsum:
    """The GEMM-lowered convs against the einsum oracle, forward and both
    gradients, at the model's (stride, padding) pairs plus odd lengths.

    Summation order differs from einsum's, so results agree to a
    tolerance set by the dtype, not bit for bit.
    """

    RTOL = {np.float32: 1e-5, np.float64: 1e-12}
    # (op, stride, padding, W, T): conv1d's W=5 and W=1 and the up-conv's
    # W=4 are the model's kernels; T=13 is an odd length
    CASES = [
        ("conv1d", 2, 2, 5, 64), ("conv1d", 1, 2, 5, 32), ("conv1d", 1, 0, 1, 16),
        ("conv1d", 2, 1, 4, 32), ("conv1d", 2, 2, 5, 13), ("conv1d", 1, 2, 5, 13),
        ("conv_transpose1d", 2, 1, 4, 32), ("conv_transpose1d", 2, 2, 5, 16),
        ("conv_transpose1d", 1, 2, 5, 32), ("conv_transpose1d", 1, 0, 1, 16),
        ("conv_transpose1d", 2, 1, 4, 13),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,stride,padding,w,t", CASES)
    def test_matches_oracle(self, op, stride, padding, w, t, dtype):
        self._check(op, stride, padding, w, t, dtype, lead=())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,stride,padding,w,t", CASES)
    def test_batch_matches_oracle_per_item(self, op, stride, padding, w, t, dtype):
        self._check(op, stride, padding, w, t, dtype, lead=(3,))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,stride,padding,w,t", CASES)
    @pytest.mark.parametrize("lead", [(1,), (8,)], ids=["batch_of_one", "training_batch"])
    def test_batch_sizes_match_oracle_per_item(self, lead, op, stride, padding, w, t, dtype):
        # a batch of one, and the training loop's batch of eight, whose
        # columns make the widest GEMMs
        self._check(op, stride, padding, w, t, dtype, lead=lead)

    def _check(self, op, stride, padding, w, t, dtype, lead):
        """x of shape lead + (Cin, T); the oracle runs item by item, and
        the wanted dk is the sum of the items' dk."""
        rng = np.random.default_rng(stride * 1000 + padding * 100 + w * 10 + t)
        cin, cout = 40, 64
        kshape = (cout, cin, w) if op == "conv1d" else (cin, cout, w)
        xv = rng.normal(size=lead + (cin, t)).astype(dtype)
        kv = rng.normal(size=kshape).astype(dtype)
        ref = {"conv1d": conv1d_ref, "conv_transpose1d": conv_transpose1d_ref}[op]
        ys, grads = zip(*(ref(xi, kv, stride, padding) for xi in xv.reshape(-1, cin, t)))
        want_y = np.stack(ys).reshape(lead + ys[0].shape)
        g = rng.normal(size=want_y.shape).astype(dtype)
        dxs, dks = zip(*(fn(gi) for fn, gi in zip(grads, g.reshape((-1,) + ys[0].shape))))
        want_dx = np.stack(dxs).reshape(xv.shape)
        want_dk = sum(dks)

        x = dc.Tensor(xv.copy(), requires_grad=True)
        k = dc.Tensor(kv.copy(), requires_grad=True)
        y = getattr(dc, op)(x, k, stride, padding)
        dc.tsum(dc.mul(y, dc.Tensor(g))).backward()
        for got, want in ((y.data, want_y), (x.grad, want_dx), (k.grad, want_dk)):
            assert got.dtype == dtype and got.shape == want.shape
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= self.RTOL[dtype], f"relative error {err:.2e}"


class TestElementwiseAndShape:
    def test_add_broadcast_bias_gradients(self):
        check_grads(
            lambda x, b: dc.mean(dc.mul(dc.add(x, b), dc.add(x, b))),
            (4, 9), (4, 1), n_cases=8, seed=11)

    def test_mul_gradients(self):
        check_grads(
            lambda a, b: dc.tsum(dc.mul(a, b)),
            (5, 7), (5, 7), n_cases=8, seed=12)

    def test_matmul_gradients(self):
        check_grads(
            lambda a, b: dc.mean(dc.matmul(a, b)),
            (4, 6), (6, 3), n_cases=8, seed=13)

    def test_matmul_shape_error(self):
        with pytest.raises(dc.ShapeError, match="conform"):
            dc.matmul(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((4, 2))))

    def test_relu_gradients_away_from_kink(self):
        def build(x):
            return dc.mean(dc.relu(x)), [x.data]
        check_grads(build, (6, 6), n_cases=8, seed=14, margin=1e-3)

    def test_transpose_and_crop_gradients(self):
        check_grads(
            lambda x: dc.tsum(dc.crop(dc.transpose(x), 3, axis=-1)),
            (5, 4), n_cases=6, seed=15)

    def test_crop_bounds(self):
        with pytest.raises(dc.ShapeError, match="crop"):
            dc.crop(dc.Tensor(np.ones((2, 3))), 4, axis=-1)

    def test_concat_gradients(self):
        check_grads(
            lambda a, b: dc.mean(dc.concat([a, b], axis=0)),
            (2, 5), (3, 5), n_cases=6, seed=16)

    def test_mean_sum_reductions(self):
        check_grads(lambda x: dc.mean(x), (3, 8), n_cases=4, seed=17)
        check_grads(lambda x: dc.tsum(x), (3, 8), n_cases=4, seed=18)

    def test_squared_error_gradients(self):
        check_grads(lambda a, b: dc.squared_error(a, b), (4, 7), (4, 7), n_cases=8, seed=19)

    def test_squared_error_weighted(self):
        rng = np.random.default_rng(20)
        w = (rng.uniform(size=(4, 7)) > 0.3).astype(np.float64)
        check_grads(
            lambda a, b: dc.squared_error(a, b, weight=w),
            (4, 7), (4, 7), n_cases=8, seed=20)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("loss", [dc.squared_error, dc.abs_error])
    def test_default_weight_is_unit_weight(self, loss, dtype):
        rng = np.random.default_rng(23)
        a0, b0 = (rng.normal(size=(3, 5, 7)).astype(dtype) for _ in range(2))
        results = []
        # a weight is broadcast to the operands' shape before it is summed
        for kwargs in ({}, {"weight": np.ones(a0.shape, dtype=dtype)},
                       {"weight": np.ones(a0.shape[-1:], dtype=dtype)}):
            a = dc.Tensor(a0.copy(), requires_grad=True)
            b = dc.Tensor(b0.copy(), requires_grad=True)
            y = loss(a, b, **kwargs)
            y.backward()
            results.append([(t.dtype, t.tobytes()) for t in (y.data, a.grad, b.grad)])
        assert results[0] == results[1] == results[2]
        assert results[0][0][0] == dtype

    def test_abs_error_gradients_away_from_kink(self):
        def build(a, b):
            return dc.abs_error(a, b), [a.data - b.data]
        check_grads(build, (4, 7), (4, 7), n_cases=8, seed=21, margin=1e-3)

    def test_embedding_gradients(self):
        idx = np.array([0, 2, 2, 1])

        def build(table):
            return dc.mean(dc.embedding(table, idx))
        check_grads(build, (4, 3), n_cases=6, seed=22)

    def test_embedding_out_of_range(self):
        with pytest.raises(IndexError):
            dc.embedding(dc.Tensor(np.ones((2, 3))), [0, 5])


class TestStraightThrough:
    def test_forward_is_bit_equal_to_q(self):
        rng = np.random.default_rng(30)
        z = dc.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        q = dc.Tensor(rng.normal(size=(6, 4)))
        out = dc.straight_through(z, q)
        np.testing.assert_array_equal(out.data, q.data)

    def test_gradient_bypasses_to_z(self):
        rng = np.random.default_rng(31)
        zv = rng.normal(size=(6, 4))
        qv = rng.normal(size=(6, 4))
        tv = rng.normal(size=(6, 4))

        z = dc.Tensor(zv.copy(), requires_grad=True)
        st = dc.straight_through(z, dc.Tensor(qv.copy()))
        dc.squared_error(st, dc.Tensor(tv.copy())).backward()

        # identical downstream graph fed q directly
        q2 = dc.Tensor(qv.copy(), requires_grad=True)
        dc.squared_error(q2, dc.Tensor(tv.copy())).backward()
        np.testing.assert_allclose(z.grad, q2.grad)

    def test_no_gradient_reaches_q(self):
        rng = np.random.default_rng(32)
        z = dc.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        q = dc.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        dc.tsum(dc.straight_through(z, q)).backward()
        assert q.grad is None
        np.testing.assert_array_equal(z.grad, np.ones((3, 2)))

    def test_z_equals_q_identity(self):
        v = np.random.default_rng(33).normal(size=(4, 4))
        z = dc.Tensor(v.copy(), requires_grad=True)
        out = dc.straight_through(z, dc.Tensor(v.copy()))
        np.testing.assert_array_equal(out.data, v)
        dc.mean(out).backward()
        np.testing.assert_allclose(z.grad, np.full((4, 4), 1 / 16))

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeError, match="straight_through"):
            dc.straight_through(dc.Tensor(np.ones((2, 3))), dc.Tensor(np.ones((3, 2))))


class TestComposite:
    def test_conv_relu_mean_pipeline_matches_fd(self):
        def build(x, k, b):
            h = dc.relu(dc.add(dc.conv1d(x, k, 2, 2), b))
            pre = dc.add(dc.conv1d(x, k, 2, 2), b).data
            return dc.mean(dc.mul(h, h)), [pre]
        check_grads(build, (3, 16), (4, 3, 5), (4, 1), n_cases=6, seed=40, margin=1e-3)

    def test_deep_graph_does_not_recurse(self):
        x = dc.Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = dc.add(y, dc.Tensor(np.array([0.001])))
        dc.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = dc.Adam([p], lr=0.1)
        for _ in range(5):
            opt.zero_grad()
            p.grad = np.zeros(2)
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        p = dc.Tensor(np.array([0.0]), requires_grad=True)
        opt = dc.Adam([p], lr=0.05)
        p.grad = np.array([3.7])
        opt.step()
        # bias-corrected first step is lr * g/(|g| + eps') ~= lr
        np.testing.assert_allclose(np.abs(p.data), [0.05], rtol=1e-6)

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(50)
        target = rng.normal(size=8)
        p = dc.Tensor(target + rng.uniform(0.5, 1.5, size=8), requires_grad=True)
        opt = dc.Adam([p], lr=1e-2)
        t = dc.Tensor(target)

        def loss_value():
            return dc.squared_error(p, t)

        first = loss_value().item()
        for _ in range(500):
            opt.zero_grad()
            loss = loss_value()
            loss.backward()
            opt.step()
        final = loss_value().item()
        assert final <= 0.01 * first

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_allocating_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(51)
        shapes = [(6, 4, 5), (3, 1), (7,), (2, 9)]
        params = [dc.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for s in shapes]
        opt = dc.Adam(params, lr=3e-3)
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for p in params]
        for t in range(1, 7):
            opt.zero_grad()
            for i, p in enumerate(params):
                # the last parameter gets no gradient on every other step
                if i == len(params) - 1 and t % 2:
                    continue
                p.grad = rng.normal(scale=10.0 ** -i, size=p.data.shape).astype(dtype)
                data, m, v = ref[i]
                ref[i] = adam_ref(data, p.grad, m, v, t, lr=3e-3)
            opt.step()
            for i, p in enumerate(params):
                assert p.data.dtype == dtype
                assert p.data.tobytes() == ref[i][0].tobytes(), (t, i)
                assert opt._m[i].tobytes() == ref[i][1].tobytes(), (t, i)
                assert opt._v[i].tobytes() == ref[i][2].tobytes(), (t, i)
