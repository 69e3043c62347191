"""Adjoint correctness for every op, tape semantics, and bit-identical
results for any number of batch slices."""

import ctypes
import gc
import math
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

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
        """An operand that is neither a number nor of the other's shape is
        refused, not broadcast."""
        x = Tensor(RNG.normal(size=(2, 6, 3)))
        with pytest.raises(AutodiffError, match=r"\(2, 6, 3\) and \(2, 1, 3\)"):
            ad.mul(x, RNG.normal(size=(2, 1, 3)))

    def test_gate(self):
        h = RNG.normal(size=(2, 3, 5))
        g = RNG.uniform(0.1, 0.9, size=(2, 3))
        assert grad_check(lambda ht, gt: ad.mean(ad.square(ad.gate(ht, gt))), [h, g],
                          eps=EPS) < TOL

    def test_gate_is_h_plus_h_times_gate(self):
        h = RNG.normal(size=(3, 4, 7))
        g = RNG.uniform(0.0, 1.0, size=(3, 4))
        np.testing.assert_allclose(ad.gate(Tensor(h), Tensor(g)).data, h + h * g[:, :, None],
                                   rtol=1e-14)

    def test_gate_rejects_bad_shapes(self):
        with pytest.raises(AutodiffError):
            ad.gate(Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((2, 3, 1))))
        with pytest.raises(AutodiffError):
            ad.gate(Tensor(np.zeros((2, 3, 5))), Tensor(np.zeros((3, 3))))

    def test_concat(self):
        parts = [RNG.normal(size=(rows, 3, 2)) for rows in (2, 1, 4)]
        assert grad_check(lambda *ts: ad.mean(ad.square(ad.concat(ts))), parts, eps=EPS) < TOL

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

    @pytest.mark.parametrize("stride,groups,length,k", [
        pytest.param(stride, groups, 12, 5, id=f"{stride}-{groups}")
        for stride, groups in [(1, 1), (2, 1), (1, 2), (2, 4), (1, 4)]
    ] + [  # 1x1 stride 2 on an even length: the dilated gradient is shorter than x
        pytest.param(stride, 1, length, k, id=f"{stride}-1-L{length}-K{k}")
        for length, k, stride in [(10, 1, 2), (9, 2, 4), (12, 3, 3), (2, 16, 2)]
    ])
    def test_conv1d(self, stride, groups, length, k):
        c_in, c_out = 4, 8
        x = RNG.normal(size=(2, c_in, length))
        w = RNG.normal(size=(k, c_in // groups, c_out))
        b = RNG.normal(size=(c_out,))

        def f(xt, wt, bt):
            return ad.mean(ad.square(ad.conv1d(xt, wt, bt, stride=stride, groups=groups)))

        assert grad_check(f, [x, w, b], eps=EPS) < TOL
        out_len = -(-length // stride)
        upstream = RNG.normal(size=(2, c_out, out_len))
        got = _op_and_grads(lambda xt, wt, bt: ad.conv1d(xt, wt, bt, stride=stride, groups=groups),
                            [x, w, b], upstream)
        expected = _conv1d_by_loops(x, w, b, stride, groups, upstream)
        for name, a, e in zip(("out", "dx", "dw", "db"), got, expected):
            np.testing.assert_allclose(a, e, rtol=0, atol=1e-12, err_msg=name)

    def test_conv1d_output_length(self):
        x = Tensor(RNG.normal(size=(1, 2, 11)))
        w = Tensor(RNG.normal(size=(4, 2, 3)))
        assert ad.conv1d(x, w, stride=2).data.shape == (1, 3, 6)
        assert ad.conv1d(x, w, stride=1).data.shape == (1, 3, 11)

    def test_conv1d_depthwise_identity(self):
        # groups == channels with 1-tap identity kernels is the identity map
        x = RNG.normal(size=(2, 3, 9))
        w = np.ones((1, 1, 3))
        out = ad.conv1d(Tensor(x), Tensor(w), stride=1, groups=3)
        np.testing.assert_allclose(out.data, x)

    def test_conv1d_rejects_bad_groups(self):
        x = Tensor(np.zeros((1, 3, 8)))
        w = Tensor(np.zeros((3, 1, 4)))
        with pytest.raises(AutodiffError):
            ad.conv1d(x, w, groups=2)


def _conv1d_by_loops(x, w, b, stride, groups, g):
    """conv1d's output and its x, w and b gradients under the loss
    sum(out * g), in float64 loops over samples, groups and taps: tap ``k``
    of output step ``j`` reads padded input step ``j * stride + k``."""
    batch, c_in, length = x.shape
    kernel, cg, c_out = w.shape
    og = c_out // groups
    out_len = -(-length // stride)
    pad_total = max((out_len - 1) * stride + kernel - length, 0)
    xp = np.zeros((batch, c_in, length + pad_total))
    xp[:, :, pad_total // 2 : pad_total // 2 + length] = x
    out = np.zeros((batch, c_out, out_len))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(batch):
        for gi in range(groups):
            ins, outs = slice(gi * cg, (gi + 1) * cg), slice(gi * og, (gi + 1) * og)
            for k in range(kernel):
                taps = slice(k, k + (out_len - 1) * stride + 1, stride)
                out[i, outs] += w[k, :, outs].T @ xp[i, ins, taps]
                dxp[i, ins, taps] += w[k, :, outs] @ g[i, outs]
                dw[k, :, outs] += xp[i, ins, taps] @ g[i, outs].T
    return (out + b[:, None], dxp[:, :, pad_total // 2 : pad_total // 2 + length], dw,
            g.sum(axis=(0, 2)))


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
        lambda: RNG.normal(size=(1, 4)),  # float64 array of another shape: refused
        lambda: _f32(3, 4),
        lambda: _f32(1, 4),  # tensor of another shape: refused
    ], ids=["float", "int", "np-float64", "np-float32", "f32-array", "f64-array",
            "tensor", "broadcast-tensor"])
    def test_binary(self, op, operand):
        b = operand()
        if np.shape(b.data if isinstance(b, Tensor) else b) == (1, 4):
            with pytest.raises(AutodiffError, match=r"\(3, 4\) and \(1, 4\)"):
                op(_f32(3, 4), b)
            return
        self._run(op, _f32(3, 4), b)

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

    def test_gate(self):
        self._run(ad.gate, _f32(2, 3, 5), _f32(2, 3))

    def test_matmul_and_dense(self):
        self._run(ad.matmul, _f32(3, 4), _f32(4, 2))
        self._run(ad.dense, _f32(3, 4), _f32(4, 2), _f32(2))

    @pytest.mark.parametrize("kernel,stride,groups", [(1, 1, 1), (5, 1, 2), (4, 2, 1)])
    def test_conv1d(self, kernel, stride, groups):
        op = lambda x, w, b: ad.conv1d(x, w, b, stride=stride, groups=groups)  # noqa: E731
        self._run(op, _f32(2, 4, 9), _f32(kernel, 4 // groups, 6), _f32(6))


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

    def test_fanout_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        with Tape() as tape:
            y = ad.add(ad.square(x), ad.mul(x, 3.0))
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [7.0])

    @pytest.mark.parametrize("shape", [(3,), (5, 3001, 3)])  # one call; split over blocks
    def test_shared_first_contribution_is_not_written(self, shape):
        """add's VJP hands one array to both operands, so x's later sum must
        not land in the array y's gradient still is."""
        x, y = ad.parameter(RNG.normal(size=shape)), ad.parameter(RNG.normal(size=shape))
        upstream = RNG.normal(size=shape)
        with Tape() as tape:
            loss = ad.sum_(ad.mul(ad.add(ad.add(x, y), x), upstream))
        tape.backward(loss)
        assert np.array_equal(y.grad, upstream) and np.array_equal(x.grad, upstream + upstream)

    def test_backward_frees_intermediates(self):
        x = ad.parameter(RNG.normal(size=(3,)))
        with Tape() as tape:
            y = ad.exp(x)
            loss = ad.sum_(ad.square(y))
        kept = weakref.ref(y.data)
        del y
        tape.backward(loss)
        assert kept() is None
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_op_output_grad_stays_none(self):
        x = ad.parameter(RNG.normal(size=(3,)))
        with Tape() as tape:
            y = ad.exp(x)
            loss = ad.sum_(ad.square(y))
        tape.backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_gradient_stops_at_an_outer_tapes_output(self):
        x = ad.parameter(RNG.normal(size=(3,)))
        with Tape():
            y = ad.exp(x)
            with Tape() as inner:
                loss = ad.sum_(ad.square(y))
        inner.backward(loss)
        assert y.grad is None and x.grad is None

    def test_leaf_unwatched_after_forward_gets_no_grad(self):
        x, w = ad.parameter(RNG.normal(size=(3,))), ad.parameter(RNG.normal(size=(3,)))
        with Tape() as tape:
            loss = ad.sum_(ad.mul(x, w))
        w.requires_grad = False
        tape.backward(loss)
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, w.data)

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
        x = rng.normal(size=(2, 4, 32))
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


def _op_and_grads(op, arrays, upstream, watched=None):
    """Output and every watched input's gradient (every input's by default)
    of ``op`` under the loss sum(op * upstream)."""
    watched = [True] * len(arrays) if watched is None else watched
    leaves = [Tensor(a.copy(), requires_grad=want) for a, want in zip(arrays, watched)]
    with Tape() as tape:
        out = op(*leaves)
        loss = ad.sum_(ad.mul(out, upstream))
    tape.backward(loss)
    assert all(leaf.grad is None for leaf, want in zip(leaves, watched) if not want)
    return [out.data] + [leaf.grad for leaf, want in zip(leaves, watched) if want]


class TestWorkerCount:
    """Every op that splits its work over the CPUs gives the same bits
    whatever the number of slices."""

    CONVS = {  # name: (x shape, w shape, stride, groups)
        "pointwise": ((5, 6, 37), (1, 6, 4), 1, 1),
        "grouped": ((5, 8, 37), (16, 2, 8), 1, 4),
        "strided-stem": ((5, 1, 41), (16, 1, 4), 2, 1),
        "pointwise-strided": ((5, 6, 10), (1, 6, 4), 2, 1),
        "pointwise-wide": ((5, 6, 1000), (1, 6, 4), 1, 1),  # output over one _BLOCK
    }

    @staticmethod
    def _across_workers(monkeypatch, op, arrays, upstream, watched=None):
        runs = []
        for workers in (1, 2, 3):  # 3 slices an odd batch of 5 unevenly
            for products_bytes in (ad._PRODUCTS_BYTES, 0):  # 0: weight-VJP rounds of `workers`
                monkeypatch.setattr(ad, "_WORKERS", workers)
                monkeypatch.setattr(ad, "_PRODUCTS_BYTES", products_bytes)
                runs.append(_op_and_grads(op, arrays, upstream, watched))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        return runs[0]

    def _conv1d_case(self, name, bias, dtype):
        """The op, its arrays and the upstream gradient of one ``CONVS`` case."""
        x_shape, w_shape, stride, groups = self.CONVS[name]
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=x_shape).astype(dtype), rng.normal(size=w_shape).astype(dtype)]
        if bias:
            arrays.append(rng.normal(size=w_shape[-1:]).astype(dtype))
        out_len = -(-x_shape[2] // stride)
        upstream = rng.normal(size=(x_shape[0], w_shape[-1], out_len)).astype(dtype)

        def op(*t):
            return ad.conv1d(*t, stride=stride, groups=groups)

        return op, arrays, upstream

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("name", sorted(CONVS))
    def test_conv1d(self, monkeypatch, name, bias, dtype):
        self._across_workers(monkeypatch, *self._conv1d_case(name, bias, dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("only", [1, 2])  # the weight's or the bias's gradient alone
    @pytest.mark.parametrize("name", sorted(CONVS))
    def test_conv1d_one_parameter_gradient(self, monkeypatch, name, only, dtype):
        """A gradient asked for alone has the bits it has beside the others."""
        op, arrays, upstream = self._conv1d_case(name, True, dtype)
        watched = [k == only for k in range(3)]
        out, grad = self._across_workers(monkeypatch, op, arrays, upstream, watched)
        every = _op_and_grads(op, arrays, upstream)
        assert np.array_equal(out, every[0]) and np.array_equal(grad, every[1 + only])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 3001, 3), (5, 7)])  # many blocks; under one block
    def test_swish(self, monkeypatch, shape, dtype):
        rng = np.random.default_rng(8)
        x = (rng.normal(size=shape) * 40).astype(dtype)  # saturates both tails too
        upstream = rng.normal(size=shape).astype(dtype)
        self._across_workers(monkeypatch, ad.swish, [x], upstream)

    # (B, C, L): many blocks; under one block; one channel over more steps than
    # numpy's 8,192-element cast buffer
    SHAPES = [(5, 3, 3001), (5, 2, 7), (3, 1, 9000)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_same_shape_binary(self, monkeypatch, op, shape, dtype):
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=shape).astype(dtype) for _ in range(2)]
        upstream = rng.normal(size=shape).astype(dtype)
        self._across_workers(monkeypatch, op, arrays, upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("op", [ad.mean, ad.sum_])
    def test_time_reduction(self, monkeypatch, op, shape, dtype):
        rng = np.random.default_rng(12)
        x = (rng.normal(size=shape) * 100).astype(dtype)
        upstream = rng.normal(size=shape[:2]).astype(dtype)
        self._across_workers(monkeypatch, lambda t: op(t, axis=2), [x], upstream)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float32_time_mean_accumulates_in_float64(self, monkeypatch, shape):
        rng = np.random.default_rng(13)
        x = (1e4 + rng.normal(size=shape)).astype(np.float32)  # float32 running sums drift
        expected = np.mean(x, axis=2, dtype=np.float64).astype(np.float32)
        for workers in (1, 2, 3):
            monkeypatch.setattr(ad, "_WORKERS", workers)
            got = ad.mean(Tensor(x), axis=2).data
            assert got.dtype == np.float32 and np.array_equal(got, expected)
        if shape == self.SHAPES[1]:  # float32 sums over time give other bits
            assert not np.array_equal(expected, np.mean(x, axis=2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gate(self, monkeypatch, shape, dtype):
        rng = np.random.default_rng(14)
        arrays = [rng.normal(size=shape).astype(dtype),
                  rng.uniform(size=shape[:2]).astype(dtype)]
        upstream = rng.normal(size=shape).astype(dtype)
        self._across_workers(monkeypatch, ad.gate, arrays, upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_three_consumers(self, monkeypatch, shape, dtype):
        """x feeds both operands of mul and then add: the tape stores the
        first contribution, allocates the first sum, accumulates the third."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=shape).astype(dtype)
        upstream = rng.normal(size=shape).astype(dtype)
        self._across_workers(monkeypatch, lambda t: ad.add(ad.mul(t, t), t), [x], upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_ops_match_one_numpy_call(self, monkeypatch, dtype):
        """On three slices, each split op gives the bits of the single numpy
        call it replaces."""
        monkeypatch.setattr(ad, "_WORKERS", 3)
        rng = np.random.default_rng(16)
        h, other, g = (rng.normal(size=(5, 3, 3001)).astype(dtype) for _ in range(3))
        gate = rng.uniform(size=(5, 3)).astype(dtype)
        wide = {"dtype": np.float64} if dtype == np.float32 else {}
        scale = (1.0 + gate)[:, :, None]
        leaves = [ad.parameter(h.copy()), ad.parameter(gate.copy())]
        with Tape() as tape:
            loss = ad.sum_(ad.mul(ad.gate(*leaves), g))
        tape.backward(loss)
        upstream = rng.normal(size=(5, 3)).astype(dtype)
        dmean = _op_and_grads(lambda t: ad.mean(t, axis=2), [h], upstream)[1]
        w, b = rng.normal(size=(1, 3, 4)).astype(dtype), rng.normal(size=4).astype(dtype)
        g4 = rng.normal(size=(5, 4, 3001)).astype(dtype)
        _, _, dw, db = _op_and_grads(ad.conv1d, [h, w, b], g4)
        dw_by_sample, db_by_sample = np.zeros((4, 3), dtype), np.zeros(4)
        for i in range(5):  # per-sample products and float64 sums, in sample order
            dw_by_sample += g4[i] @ h[i].T
            db_by_sample += g4[i].sum(axis=1, dtype=np.float64)
        acc = h.copy()
        pairs = [
            (ad.add(h, other).data, h + other),
            (ad.mul(h, other).data, h * other),
            (ad._multiply(g, other), g * other),
            (ad.sum_(h, axis=2).data, np.sum(h, axis=2, **wide).astype(dtype)),
            (ad.gate(h, gate).data, h * scale),
            (leaves[0].grad, g * scale),
            (leaves[1].grad, np.einsum("bcl,bcl->bc", g, h)),
            (ad._ufunc(np.add, acc, g, out=acc), h + g),  # the tape's in-place sum
            (dmean, np.broadcast_to((upstream / 3001)[:, :, None], h.shape).copy()),
            (dw, dw_by_sample.T.reshape(w.shape)),
            (db, db_by_sample.astype(dtype)),
        ]
        for got, expected in pairs:
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_nested_split_runs_in_the_pool_thread(self, monkeypatch):
        """A slice that itself splits runs every inner slice in its own
        thread, in order, and does not wait on the one-thread pool it runs in."""
        monkeypatch.setattr(ad, "_WORKERS", 2)
        monkeypatch.setattr(ad, "_pool", None)  # a fresh pool of one thread
        outer_threads, inner = {}, []

        def outer(lo, hi):
            outer_threads[lo] = threading.get_ident()
            ad._parallel(4, lambda a, b: inner.append((lo, threading.get_ident(), a, b)))

        caller = threading.Thread(target=ad._parallel, args=(2, outer), daemon=True)
        caller.start()
        caller.join(timeout=30)
        stuck = caller.is_alive()
        ad._pool[1].shutdown(wait=False, cancel_futures=True)  # also frees a deadlocked pool
        assert not stuck, "a nested split waited on its own pool"
        in_pool = [(t, a, b) for lo, t, a, b in inner if lo == 0]
        assert outer_threads[0] != outer_threads[1]
        assert in_pool == [(outer_threads[0], 0, 2), (outer_threads[0], 2, 4)]
        assert sorted((a, b) for lo, _, a, b in inner if lo == 1) == [(0, 2), (2, 4)]

    @staticmethod
    def _bias_grad(g):
        """conv1d's bias gradient for the upstream gradient ``g`` (B, C, L)
        of a 1x1 convolution from one input channel."""
        batch, channels, length = g.shape
        arrays = [np.ones((batch, 1, length), g.dtype), np.ones((1, 1, channels), g.dtype),
                  np.zeros(channels, g.dtype)]
        return _op_and_grads(ad.conv1d, arrays, g, watched=[False, False, True])[1]

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 40_000])
    def test_bias_grad_is_the_float64_channel_sum(self, rows):
        """Each sample's channel rows sum in float64, and the samples add in
        order; the result rounds once to float32."""
        g = np.random.default_rng(rows).normal(size=(2, 16, rows)).astype(np.float32)
        expected = (g[0].sum(axis=1, dtype=np.float64) + g[1].sum(axis=1, dtype=np.float64))
        assert np.array_equal(self._bias_grad(g), expected.astype(np.float32))

    @pytest.mark.parametrize("channels", [1, 8, 48, 600])
    @pytest.mark.parametrize("rows", [1, 33, 5001])
    def test_bias_grad_float64_is_near_the_exact_sum(self, rows, channels):
        g = np.random.default_rng(rows * channels).normal(size=(1, channels, rows))
        exact = np.array([math.fsum(row) for row in g[0]])
        got = self._bias_grad(g)
        assert got.dtype == np.float64 and got.shape == (channels,)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-14 * np.abs(g).sum(axis=2).max())

    @staticmethod
    def _weight_vjp_peak(batch: int, kernel: int, channels: int, groups: int = 1,
                         length: int = 8) -> int:
        """Peak bytes traced while the weight VJP of a conv of ``kernel``
        taps, ``channels`` channels in and out and ``groups`` groups runs on
        a batch of float64 samples of ``length`` steps."""
        rng = np.random.default_rng(batch)
        x = Tensor(rng.normal(size=(batch, channels, length)))
        w = ad.parameter(rng.normal(size=(kernel, channels // groups, channels)))
        with Tape() as tape:
            loss = ad.sum_(ad.conv1d(x, w, groups=groups))
        tracemalloc.start()
        try:
            tape.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_weight_products_do_not_grow_with_the_batch(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        # 16 taps of 64 channels: a 512 KiB product, and the batch's own
        # arrays grow by 60 * 4 KiB from 4 samples to 64; 1x1 at the M width
        # (1,024 channels): an 8 MiB product, and they grow by 60 * 64 KiB
        for kernel, channels in ((16, 64), (1, 1024)):
            product = kernel * channels * channels * 8
            # 64 samples hold 64 products at once if nothing bounds them
            monkeypatch.setattr(ad, "_PRODUCTS_BYTES", 0)  # rounds of _WORKERS samples
            grown = (self._weight_vjp_peak(64, kernel, channels)
                     - self._weight_vjp_peak(4, kernel, channels))
            assert grown < 2 * product
            monkeypatch.setattr(ad, "_PRODUCTS_BYTES", 4 * product)  # rounds of 4 samples
            # 4 products, weights, scratch, g
            assert self._weight_vjp_peak(64, kernel, channels) < 8 * product

    def test_grouped_weight_products_are_the_weights_size(self, monkeypatch):
        """A grouped conv's per-sample weight product holds the grouped
        weight's K * (C_in/groups) * C_out entries, not a dense kernel's
        ``groups`` times as many."""
        kernel, channels, groups = 16, 64, 4
        product = kernel * (channels // groups) * channels * 8
        monkeypatch.setattr(ad, "_PRODUCTS_BYTES", 64 * product)  # one round of every sample
        grown = (self._weight_vjp_peak(64, kernel, channels, groups, length=2)
                 - self._weight_vjp_peak(4, kernel, channels, groups, length=2))
        # 60 more products, and the 2-step samples' own arrays (1 KiB each)
        assert 60 * product <= grown < 61 * product

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 3)  # more slices than this host may have cores
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(7, 8, 300)).astype(np.float32),
                  rng.normal(size=(16, 2, 8)).astype(np.float32)]
        upstream = rng.normal(size=(7, 8, 300)).astype(np.float32)

        def op(x, w):
            return ad.swish(ad.conv1d(x, w, groups=4))

        expected = _op_and_grads(op, arrays, upstream)
        results = [None] * 4

        def caller(k):
            results[k] = [_op_and_grads(op, arrays, upstream) for _ in range(5)]

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for runs in results:
            for run in runs:
                assert all(np.array_equal(a, b) for a, b in zip(expected, run))

    def test_slices_are_released_by_the_calling_thread(self, monkeypatch):
        """A pool thread may keep a finished work item for a while; the
        slice's function and scratch must not depend on it to be freed."""
        from concurrent.futures import Future

        class KeepingPool:  # runs each slice at once and keeps what it was given
            def __init__(self):
                self.kept = []

            def submit(self, fn, *args):
                self.kept.append((fn, args))
                fn(*args)
                done = Future()
                done.set_result(None)
                return done

        class Scratch:
            pass

        monkeypatch.setattr(ad, "_WORKERS", 3)
        pool = KeepingPool()
        monkeypatch.setattr(ad, "_pool", (os.getpid(), pool))
        made = []

        def scratch():
            made.append(Scratch())
            return made[-1]

        def fn(lo, hi, buffer):
            assert isinstance(buffer, Scratch)

        ad._parallel(3, fn, scratch)
        assert len(pool.kept) == 2 and len(made) == 3
        refs = [weakref.ref(obj) for obj in made] + [weakref.ref(fn)]
        del made, fn
        assert all(ref() is None for ref in refs)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork of a threaded process
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 4, 40)).astype(np.float32))
        w = Tensor(rng.normal(size=(16, 4, 4)).astype(np.float32))
        expected = ad.conv1d(x, w).data  # the parent's pool now exists
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = np.array_equal(ad.conv1d(x, w).data, expected)
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert os.waitstatus_to_exitcode(status) == 0
                return
            time.sleep(0.05)
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("forked child did not finish conv1d within 60 s")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity and at least two CPUs")
    def test_pretrain_on_one_cpu_matches_all_cpus(self, tmp_path):
        from riskclr.data import SyntheticConfig, generate_synthetic, save
        from riskclr.encoder import load_checkpoint

        pre, _ = generate_synthetic(SyntheticConfig(n_subjects=12, n_downstream=0, duration=4.0,
                                                    seed=3))
        save(pre, tmp_path / "pre.rds")
        # affinity first: the worker count is read when riskclr.autodiff loads
        code = textwrap.dedent("""
            import os, sys
            if sys.argv[1] == "one":
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from riskclr import autodiff
            from riskclr.cli import main
            assert autodiff._WORKERS == (1 if sys.argv[1] == "one" else len(os.sched_getaffinity(0)))
            main(sys.argv[2:])
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        runs = {}
        for cpus in ("one", "all"):
            run = tmp_path / cpus
            proc = subprocess.run(
                [sys.executable, "-c", code, cpus, "pretrain", "--data", str(tmp_path / "pre.rds"),
                 "--run-dir", str(run), "--epochs", "1", "--batch-size", "8"],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            params = load_checkpoint(run / "last.ckpt")[0].state_arrays()
            runs[cpus] = ((run / "metrics.csv").read_bytes(),
                          {k: v.tobytes() for k, v in params.items()})
        assert runs["one"] == runs["all"]


def _captured(fn):
    """Every object a function's closure holds, also inside the tuples and
    lists it holds and the closures of the functions it holds."""
    stack = [cell.cell_contents for cell in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        yield obj
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)


def _channels_read_by_vjps(config) -> int:
    """Channels of the full-size (B, C, L) arrays that the VJPs of an
    encoder forward read: each swish keeps s and y; a block after the first
    of its stage reads its input (the last block's sum) in conv1; a gated
    stage's gate keeps its input, and its output is the next stage's conv
    input. Conv outputs and the last stage's sums are read by no VJP."""
    channels = 2 * config.hidden_dim  # the stem's swish
    for si, (ch, blocks) in enumerate(config.stages):
        channels += blocks * 2 * 2 * config.stage_width(ch) + (blocks - 1) * ch
        if si < len(config.stages) - 1:
            channels += 2 * ch
    return channels


def _channels_read_by_no_vjp(config) -> int:
    """Channels of the full-size arrays of an encoder forward that no VJP
    reads: the stem's conv output; each block's three conv outputs and its
    projection; and the last stage's last sum."""
    channels = config.hidden_dim
    in_ch = config.hidden_dim
    for ch, blocks in config.stages:
        channels += blocks * (2 * config.stage_width(ch) + ch) + (ch if in_ch != ch else 0)
        in_ch = ch
    return channels + config.stages[-1][0]


class TestHeldArrays:
    """Between an encoder's forward and backward passes the tape keeps only
    the arrays some VJP reads. With one CPU every slice runs inline, and
    with more they go through the pool, so both paths are covered."""

    @staticmethod
    def _tiny(batch, t):
        from riskclr.encoder import STANDARD_CONFIGS, build

        config = STANDARD_CONFIGS["tiny"]
        x = np.random.default_rng(batch).normal(size=(batch, t)).astype(np.float32)
        return config, build(config, seed=0, dtype=np.float32), x

    def test_unread_activations_freed_before_backward(self, monkeypatch):
        _, enc, x = self._tiny(4, 1000)
        convs, means = {}, []
        conv1d, mean = ad.conv1d, ad.mean
        names = {id(p): name for name, p in enc.params.items()}

        def spy_conv1d(x, w, *args, **kwargs):
            out = conv1d(x, w, *args, **kwargs)
            convs[names[id(w)]] = weakref.ref(out.data)
            return out

        def spy_mean(a, axis=None):
            means.append(weakref.ref(a.data))
            return mean(a, axis)

        monkeypatch.setattr(ad, "conv1d", spy_conv1d)
        monkeypatch.setattr(ad, "mean", spy_mean)
        with Tape() as tape:
            z = enc.forward(x)
            loss = ad.sum_(z)
        # stem, conv1 and conv2 feed a swish; conv3 and proj the residual add
        assert {name.split(".")[-2] for name in convs} == {"stem", "conv1", "conv2", "conv3", "proj"}
        assert [name for name, ref in convs.items() if ref() is not None] == []
        assert means[-1]() is None  # the last stage's output, which only its mean read
        assert means[0]() is not None  # the first stage's, which its gate reads
        tape.backward(loss)
        assert all(p.grad is not None for p in enc.params.values())

    def test_no_vjp_holds_an_op_output(self):
        _, enc, x = self._tiny(2, 200)
        with Tape() as tape:
            enc.forward(x)
        held = [obj for _, vjp in tape._nodes for obj in _captured(vjp)]
        params = {id(p) for p in enc.params.values()}
        # the only leaves that need gradients are the parameters
        assert [t for t in held if isinstance(t, Tensor) and id(t) not in params] == []
        assert {id(t) for t in held if isinstance(t, Tensor)} == params
        assert any(isinstance(obj, ad._Node) for obj in held)

    def test_bytes_held_after_forward(self):
        from riskclr.encoder import STEM_STRIDE

        config, enc, x = self._tiny(16, 5000)
        enc.forward(x)  # builds the pool outside the count
        tracemalloc.start()
        try:
            with Tape():
                enc.forward(x)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        channel = x.shape[0] * -(-x.shape[1] // STEM_STRIDE) * x.itemsize  # one (B, L) float32 slab
        read = _channels_read_by_vjps(config) * channel
        # one more full-size array, even the narrowest, is too many
        narrowest = min(config.stage_width(ch) for ch, _ in config.stages) * channel
        assert read <= held < read + narrowest

    def test_peaks_held_to_one_chunk(self):
        """A batch of 4 chunks peaks, in its forward and in its backward
        pass, under what the VJPs read plus the transients of one chunk."""
        from riskclr.encoder import BLOCK_KERNEL, CHUNK, STEM_STRIDE

        config, enc, x = self._tiny(4 * CHUNK, 2000)
        enc.forward(x[:2])  # builds the pool outside the count
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = ad.sum_(enc.forward(x))
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        length = -(-x.shape[1] // STEM_STRIDE)
        channel = CHUNK * length * x.itemsize  # one (CHUNK, L) float32 slab
        # each slice's im2col columns of the widest 16-tap conv
        scratch = (min(ad._WORKERS, CHUNK) * BLOCK_KERNEL * length * x.itemsize
                   * max(config.stage_width(ch) for ch, _ in config.stages))
        bound = held + _channels_read_by_no_vjp(config) * channel + scratch
        assert forward_peak < bound
        assert backward_peak < bound

    @pytest.mark.parametrize("backward", [False, True])
    def test_dropped_encoder_freed_by_refcount(self, backward):
        """No reference cycle: a leaf is its own handle, and an op output's
        handle refers to nothing."""
        _, enc, x = self._tiny(2, 200)
        gc.disable()
        try:
            with Tape() as tape:
                z = enc.forward(x)
                loss = ad.sum_(z)
            if backward:
                tape.backward(loss)
            refs = [weakref.ref(a) for p in enc.params.values()
                    for a in (p.data, p.grad) if a is not None] + [weakref.ref(z.data)]
            assert len(refs) == len(enc.params) * (1 + backward) + 1
            del enc, tape, z, loss
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()


class TestHeapPolicy:
    """Importing riskclr.autodiff keeps the heap a backward pass frees in the
    process, so a repeated training step reuses its pages."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    def test_repeated_step_takes_no_new_pages(self):
        # A fresh interpreter: glibc's dynamic thresholds rise with the
        # largest block a process has freed, so earlier tests would hide it.
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from riskclr import autodiff as ad
            from riskclr.encoder import STANDARD_CONFIGS, build

            enc = build(STANDARD_CONFIGS["tiny"], seed=0, dtype=np.float32)
            x = np.random.default_rng(8).normal(size=(8, 2500)).astype(np.float32)

            def step():
                with ad.Tape() as tape:
                    loss = ad.sum_(enc.forward(x))
                tape.backward(loss)
                for p in enc.params.values():
                    p.grad = None

            for _ in range(3):
                step()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # under glibc's own dynamic thresholds the fourth step trims the
        # freed activations and faults about 5,000 pages back in
        assert int(proc.stdout) < 100

    def test_libc_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert ad._keep_freed_heap() is None
