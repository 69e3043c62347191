"""Adjoint correctness for every op, plus tape semantics."""

import numpy as np
import pytest

from riskclr import autodiff as ad
from riskclr.autodiff import AutodiffError, Tape, Tensor, grad_check

RNG = np.random.default_rng(20240811)

TOL = 1e-4
EPS = 1e-5


def scalarize(t):
    return ad.mean(t) if t.data.size != 1 else t


class TestOpAdjoints:
    """Every adjoint passes central-difference checks at random points."""

    @pytest.mark.parametrize("trial", range(10))
    def test_elementwise_chain(self, trial):
        rng = np.random.default_rng(100 + trial)
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 4))

        def f(xt, yt):
            z = ad.add(ad.mul(xt, yt), ad.square(ad.sub(xt, 0.5)))
            z = ad.add(z, ad.exp(ad.mul(xt, 0.3)))
            z = ad.add(z, ad.log(ad.add(ad.square(yt), 1.0)))
            return ad.mean(z)

        assert grad_check(f, [x, y], eps=EPS) < TOL

    @pytest.mark.parametrize(
        "op",
        [ad.sigmoid, ad.swish, ad.softplus, ad.exp, ad.square],
    )
    def test_unary(self, op):
        x = RNG.normal(size=(5, 3))
        assert grad_check(lambda t: ad.mean(op(t)), [x], eps=EPS) < TOL

    def test_abs_away_from_kink(self):
        x = RNG.normal(size=(4, 4))
        x[np.abs(x) < 0.1] += 0.5
        assert grad_check(lambda t: ad.mean(ad.abs_(t)), [x], eps=EPS) < TOL

    def test_log(self):
        x = RNG.uniform(0.5, 3.0, size=(4, 3))
        assert grad_check(lambda t: ad.mean(ad.log(t)), [x], eps=EPS) < TOL

    def test_matmul_transpose(self):
        a = RNG.normal(size=(3, 5))
        b = RNG.normal(size=(5, 2))

        def f(at, bt):
            return ad.mean(ad.matmul(at, bt))

        assert grad_check(f, [a, b], eps=EPS) < TOL
        assert grad_check(lambda t: ad.mean(ad.matmul(ad.transpose(t), t)), [a], eps=EPS) < TOL

    def test_dense(self):
        x = RNG.normal(size=(4, 6))
        w = RNG.normal(size=(6, 3))
        b = RNG.normal(size=(3,))
        assert grad_check(lambda xt, wt, bt: ad.mean(ad.dense(xt, wt, bt)), [x, w, b], eps=EPS) < TOL

    def test_reductions(self):
        x = RNG.normal(size=(4, 5))
        assert grad_check(lambda t: ad.sum_(t), [x], eps=EPS) < TOL
        assert grad_check(lambda t: ad.mean(ad.sum_(t, axis=1)), [x], eps=EPS) < TOL
        assert grad_check(lambda t: ad.mean(ad.mean(t, axis=0)), [x], eps=EPS) < TOL

    def test_broadcast_mul(self):
        x = RNG.normal(size=(2, 6, 3))
        g = RNG.normal(size=(2, 1, 3))
        assert grad_check(lambda a, b: ad.mean(ad.mul(a, b)), [x, g], eps=EPS) < TOL

    def test_row_l2_normalize(self):
        x = RNG.normal(size=(4, 6)) + 0.1
        assert grad_check(lambda t: ad.mean(ad.row_l2_normalize(t)), [x], eps=EPS) < TOL

    def test_row_l2_normalize_rejects_zero_row(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(AutodiffError):
            ad.row_l2_normalize(Tensor(x))

    def test_reshape(self):
        a = RNG.normal(size=(2, 8))
        assert grad_check(lambda at: ad.mean(ad.square(ad.reshape(at, (4, 4)))), [a],
                          eps=EPS) < TOL

    @pytest.mark.parametrize("stride,groups", [(1, 1), (2, 1), (1, 2), (2, 4), (1, 4)])
    def test_conv1d(self, stride, groups):
        c_in, c_out, k = 4, 8, 5
        x = RNG.normal(size=(2, 12, c_in))
        w = RNG.normal(size=(k, c_in // groups, c_out))
        b = RNG.normal(size=(c_out,))

        def f(xt, wt, bt):
            return ad.mean(ad.square(ad.conv1d(xt, wt, bt, stride=stride, groups=groups)))

        assert grad_check(f, [x, w, b], eps=EPS) < TOL

    def test_conv1d_output_length(self):
        x = Tensor(RNG.normal(size=(1, 11, 2)))
        w = Tensor(RNG.normal(size=(4, 2, 3)))
        assert ad.conv1d(x, w, stride=2).data.shape == (1, 6, 3)
        assert ad.conv1d(x, w, stride=1).data.shape == (1, 11, 3)

    def test_conv1d_depthwise_identity(self):
        # groups == channels with 1-tap identity kernels is the identity map
        x = RNG.normal(size=(2, 9, 3))
        w = np.ones((1, 1, 3))
        out = ad.conv1d(Tensor(x), Tensor(w), stride=1, groups=3)
        np.testing.assert_allclose(out.data, x)

    def test_conv1d_rejects_bad_groups(self):
        x = Tensor(np.zeros((1, 8, 3)))
        w = Tensor(np.zeros((3, 1, 4)))
        with pytest.raises(AutodiffError):
            ad.conv1d(x, w, groups=2)


def _f32(*shape, low=None):
    x = RNG.normal(size=shape) if low is None else RNG.uniform(low, low + 1.0, size=shape)
    return ad.parameter(x.astype(np.float32))


class TestFloat32Storage:
    """float32 inputs keep float32 data and gradients through every op."""

    @staticmethod
    def _run(op, *inputs):
        with Tape() as tape:
            out = op(*inputs)
            loss = ad.sum_(out)
        tape.backward(loss)
        assert out.data.dtype == np.float32
        assert loss.data.dtype == np.float32
        for t in inputs:
            if isinstance(t, Tensor):
                assert t.grad is not None and t.grad.dtype == np.float32
        return out

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    @pytest.mark.parametrize("operand", [
        lambda: 0.5,
        lambda: 3,
        lambda: np.float64(0.5),
        lambda: np.float32(0.5),
        lambda: RNG.normal(size=(3, 4)).astype(np.float32),
        lambda: RNG.normal(size=(1, 4)),  # float64 array, broadcast
        lambda: _f32(3, 4),
        lambda: _f32(1, 4),  # tensor, broadcast
    ], ids=["float", "int", "np-float64", "np-float32", "f32-array", "f64-array",
            "tensor", "broadcast-tensor"])
    def test_binary(self, op, operand):
        self._run(op, _f32(3, 4), operand())

    @pytest.mark.parametrize("op", [
        ad.sigmoid, ad.swish, ad.softplus, ad.exp, ad.square, ad.abs_, ad.transpose,
        ad.row_l2_normalize, ad.sum_, ad.mean,
        lambda t: ad.sum_(t, axis=1), lambda t: ad.mean(t, axis=0),
        lambda t: ad.reshape(t, (4, 3)),
    ])
    def test_unary(self, op):
        self._run(op, _f32(3, 4))

    def test_log(self):
        self._run(ad.log, _f32(3, 4, low=0.5))

    def test_matmul_and_dense(self):
        self._run(ad.matmul, _f32(3, 4), _f32(4, 2))
        self._run(ad.dense, _f32(3, 4), _f32(4, 2), _f32(2))

    @pytest.mark.parametrize("kernel,stride,groups", [(1, 1, 1), (5, 1, 2), (4, 2, 1)])
    def test_conv1d(self, kernel, stride, groups):
        op = lambda x, w, b: ad.conv1d(x, w, b, stride=stride, groups=groups)  # noqa: E731
        self._run(op, _f32(2, 9, 4), _f32(kernel, 4 // groups, 6), _f32(6))


class TestBackwardSemantics:
    def test_simple_square(self):
        x = ad.parameter(np.array([3.0]))
        with Tape() as tape:
            y = ad.square(x)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_log_exp_identity(self):
        x = ad.parameter(RNG.normal(size=(5,)))
        with Tape() as tape:
            y = ad.mean(ad.log(ad.exp(x)))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, np.full(5, 0.2), atol=1e-12)

    def test_three_layer_net_matches_fd(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4))
        w1, b1 = rng.normal(size=(4, 6)), rng.normal(size=(6,))
        w2, b2 = rng.normal(size=(6, 5)), rng.normal(size=(5,))
        w3, b3 = rng.normal(size=(5, 1)), rng.normal(size=(1,))

        def f(*ts):
            xt, w1t, b1t, w2t, b2t, w3t, b3t = ts
            h = ad.swish(ad.dense(xt, w1t, b1t))
            h = ad.swish(ad.dense(h, w2t, b2t))
            return ad.mean(ad.dense(h, w3t, b3t))

        assert grad_check(f, [x, w1, b1, w2, b2, w3, b3], eps=EPS) < TOL

    def test_backward_rejects_nonscalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.square(x)
        with pytest.raises(AutodiffError):
            tape.backward(y)

    def test_tape_single_use(self):
        x = ad.parameter(np.array([2.0]))
        with Tape() as tape:
            y = ad.square(x)
        tape.backward(y)
        with pytest.raises(AutodiffError):
            tape.backward(y)
        tape.reset()  # explicit reset allows reuse of the object

    def test_fanout_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        with Tape() as tape:
            y = ad.add(ad.square(x), ad.mul(x, 3.0))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_tape_records_nothing(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.square(x)
        assert y.requires_grad is False
        assert x.grad is None

    def test_backward_linearity(self):
        rng = np.random.default_rng(11)
        x0 = rng.normal(size=(4,))
        a, b = 2.5, -1.25

        def run(fn):
            x = ad.parameter(x0.copy())
            with Tape() as tape:
                out = fn(x)
            tape.backward(out)
            return x.grad

        gf = run(lambda x: ad.mean(ad.square(x)))
        gg = run(lambda x: ad.mean(ad.exp(x)))
        gsum = run(lambda x: ad.add(ad.mul(ad.mean(ad.square(x)), a), ad.mul(ad.mean(ad.exp(x)), b)))
        np.testing.assert_allclose(gsum, a * gf + b * gg, atol=1e-12)

    def test_forward_determinism(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 32, 4))
        w = rng.normal(size=(7, 4, 8))
        a = ad.conv1d(Tensor(x), Tensor(w), stride=2).data
        b = ad.conv1d(Tensor(x), Tensor(w), stride=2).data
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_debug_finite_mode(self):
        ad.set_debug_finite(True)
        try:
            with pytest.raises(AutodiffError):
                ad.log(Tensor(np.array([0.0])))
        finally:
            ad.set_debug_finite(False)


class TestGradCheckHarness:
    def test_linear_is_exact(self):
        x = RNG.normal(size=(6,))
        err = grad_check(lambda t: ad.sum_(ad.mul(t, 3.0)), [x], eps=EPS)
        assert err < 1e-9

    def test_swish_composition(self):
        x = RNG.normal(size=(8,))
        err = grad_check(lambda t: ad.mean(ad.swish(ad.swish(t))), [x], eps=EPS)
        assert err < TOL

    def test_flags_wrong_adjoint(self):
        # negative control: an op with a deliberately wrong vjp must be caught
        def bad_square(t):
            data = t.data * t.data
            return ad._make_out(data, (t,), lambda g: [(t, g * (3.0 * t.data))])  # wrong factor

        x = RNG.normal(size=(4,)) + 2.0
        err = grad_check(lambda t: ad.mean(bad_square(t)), [x], eps=EPS)
        assert err > 1e-2

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: ad.mean(t), [np.ones(2)], eps=0.0)
