"""Adjoint correctness for every op, tape semantics, and bit-identical
results for any number of batch slices."""

import math
import os
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
        x = RNG.normal(size=(2, 6, 3))
        g = RNG.normal(size=(2, 1, 3))
        assert grad_check(lambda a, b: ad.mean(ad.mul(a, b)), [x, g], eps=EPS) < TOL

    def test_gate(self):
        h = RNG.normal(size=(2, 5, 3))
        g = RNG.uniform(0.1, 0.9, size=(2, 3))
        assert grad_check(lambda ht, gt: ad.mean(ad.square(ad.gate(ht, gt))), [h, g],
                          eps=EPS) < TOL

    def test_gate_is_h_plus_h_times_gate(self):
        h = RNG.normal(size=(3, 7, 4))
        g = RNG.uniform(0.0, 1.0, size=(3, 4))
        np.testing.assert_allclose(ad.gate(Tensor(h), Tensor(g)).data, h + h * g[:, None, :],
                                   rtol=1e-14)

    def test_gate_rejects_bad_shapes(self):
        with pytest.raises(AutodiffError):
            ad.gate(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((2, 1, 3))))
        with pytest.raises(AutodiffError):
            ad.gate(Tensor(np.zeros((2, 5, 3))), Tensor(np.zeros((3, 3))))

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

    def test_gate(self):
        self._run(ad.gate, _f32(2, 5, 3), _f32(2, 3))

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


def _op_and_grads(op, arrays, upstream):
    """Output and every input's gradient of ``op`` under the loss sum(op * upstream)."""
    leaves = [ad.parameter(a.copy()) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
        loss = ad.sum_(ad.mul(out, upstream))
    tape.backward(loss)
    return [out.data] + [leaf.grad for leaf in leaves]


class TestWorkerCount:
    """conv1d and swish give the same bits whatever the number of batch slices."""

    CONVS = {  # name: (x shape, w shape, stride, groups)
        "pointwise": ((5, 37, 6), (1, 6, 4), 1, 1),
        "grouped": ((5, 37, 8), (16, 2, 8), 1, 4),
        "strided-stem": ((5, 41, 1), (16, 1, 4), 2, 1),
    }

    @staticmethod
    def _across_workers(monkeypatch, op, arrays, upstream):
        runs = []
        for workers in (1, 2, 3):  # 3 slices an odd batch of 5 unevenly
            for products_bytes in (ad._PRODUCTS_BYTES, 0):  # 0: weight-VJP rounds of `workers`
                monkeypatch.setattr(ad, "_WORKERS", workers)
                monkeypatch.setattr(ad, "_PRODUCTS_BYTES", products_bytes)
                runs.append(_op_and_grads(op, arrays, upstream))
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("name", sorted(CONVS))
    def test_conv1d(self, monkeypatch, name, bias, dtype):
        x_shape, w_shape, stride, groups = self.CONVS[name]
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=x_shape).astype(dtype), rng.normal(size=w_shape).astype(dtype)]
        if bias:
            arrays.append(rng.normal(size=w_shape[-1:]).astype(dtype))
        out_len = -(-x_shape[1] // stride)
        upstream = rng.normal(size=(x_shape[0], out_len, w_shape[-1])).astype(dtype)

        def op(*t):
            return ad.conv1d(*t, stride=stride, groups=groups)

        self._across_workers(monkeypatch, op, arrays, upstream)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 3001, 3), (5, 7)])  # many blocks; under one block
    def test_swish(self, monkeypatch, shape, dtype):
        rng = np.random.default_rng(8)
        x = (rng.normal(size=shape) * 40).astype(dtype)  # saturates both tails too
        upstream = rng.normal(size=shape).astype(dtype)
        self._across_workers(monkeypatch, ad.swish, [x], upstream)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 40_000])
    def test_bias_grad_is_the_float64_channel_sum(self, rows):
        g = np.random.default_rng(rows).normal(size=(rows, 16)).astype(np.float32)
        expected = g.sum(axis=0, dtype=np.float64).astype(np.float32)
        assert np.array_equal(ad._channel_sum(g.reshape(1, rows, 16)), expected)

    @pytest.mark.parametrize("channels", [1, 8, 48, 600])  # 48: 10 groups of 480; 600: one group
    @pytest.mark.parametrize("rows", [1, 33, 5001])
    def test_bias_grad_float64_is_near_the_exact_sum(self, rows, channels):
        g = np.random.default_rng(rows * channels).normal(size=(rows, channels))
        exact = np.array([math.fsum(column) for column in g.T])
        got = ad._channel_sum(g.reshape(1, rows, channels))
        assert got.dtype == np.float64 and got.shape == (channels,)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-14 * np.abs(g).sum(axis=0).max())

    @staticmethod
    def _weight_vjp_peak(batch: int) -> int:
        """Peak bytes traced while the weight VJP of a 16-tap conv whose
        per-sample product (1024, 64) float64 is 512 KiB runs on a batch."""
        rng = np.random.default_rng(batch)
        x = Tensor(rng.normal(size=(batch, 8, 64)))
        w = ad.parameter(rng.normal(size=(16, 64, 64)))
        with Tape() as tape:
            loss = ad.sum_(ad.conv1d(x, w))
        tracemalloc.start()
        try:
            tape.backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_weight_products_do_not_grow_with_the_batch(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        product = 16 * 64 * 64 * 8
        # 64 samples hold 32 MiB of products at once if nothing bounds them;
        # the batch's own arrays grow by 60 * 4 KiB from 4 samples to 64
        monkeypatch.setattr(ad, "_PRODUCTS_BYTES", 0)  # rounds of _WORKERS samples
        assert self._weight_vjp_peak(64) - self._weight_vjp_peak(4) < 2 * product
        monkeypatch.setattr(ad, "_PRODUCTS_BYTES", 4 * product)  # rounds of 4 samples
        assert self._weight_vjp_peak(64) < 8 * product  # 4 products, weights, scratch, g

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 3)  # more slices than this host may have cores
        rng = np.random.default_rng(10)
        arrays = [rng.normal(size=(7, 300, 8)).astype(np.float32),
                  rng.normal(size=(16, 2, 8)).astype(np.float32)]
        upstream = rng.normal(size=(7, 300, 8)).astype(np.float32)

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
        x = Tensor(rng.normal(size=(6, 40, 4)).astype(np.float32))
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
