"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Design notes:
  * Eager execution. Ops run immediately on numpy data; when a ``Tape`` is
    active and an input requires gradients, the op records its VJP
    (vector-Jacobian product) on the tape. ``Tape.backward`` replays the
    VJPs in reverse execution order, which is a valid reverse topological
    order because execution order itself is topological.
  * Layout convention for sequence data is channels-last ``(batch, length,
    channels)`` so 1x1 convolutions and dense layers map onto single BLAS
    calls.
  * Storage is float64, or float32 when the inputs are float32; reductions
    accumulate float32 in float64.
  * The hot ops (``conv1d`` and ``swish``) split their batch over the
    process's CPUs: each slice runs the same numpy calls on the same rows
    as one worker would, and only sums across samples run in the calling
    thread, in sample order. Results are therefore bit-identical for any
    CPU count, provided the BLAS thread count is fixed: OpenBLAS sizes its
    own pool from the CPU affinity unless OPENBLAS_NUM_THREADS is set.

Adding an op: compute the output array ``data`` from the inputs' ``.data``,
then ``return _make_out(data, inputs, vjp)``. ``vjp(g)`` receives the
gradient of the output and returns ``(input, grad)`` pairs, each ``grad``
shaped like its input; it may skip inputs that do not require gradients.
A VJP that needs the output reads ``data`` from its closure, and neither
the op nor its VJP writes to another op's arrays in place.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# Debug switch: verify every op output is finite (slow; used in tests and
# when chasing NaN aborts).
_DEBUG_FINITE = False


def set_debug_finite(enabled: bool) -> None:
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


class AutodiffError(ValueError):
    """Raised for invalid tape usage or op preconditions."""


class Tensor:
    """Dense floating array plus gradient slot.

    Storage is float64 by default; float32 arrays are kept as-is (the
    optional 32-bit storage mode — reductions still accumulate in 64-bit).
    ``requires_grad`` marks leaves (parameters, watched inputs). Tensors
    produced by ops inherit the flag whenever a tape is recording.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


VJP = Callable[[Array], list[tuple[Tensor, Array]]]


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_open_tapes = _TapeStack()


class Tape:
    """Ordered op record for one forward/backward pair.

    A tape is single-use: ``backward`` may run once unless ``reset`` is
    called. Tapes are confined to the thread that opened them; separate
    threads may run separate tapes concurrently.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, VJP]] = []  # (output, its VJP)
        self._spent = False

    def __enter__(self) -> "Tape":
        _open_tapes.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _open_tapes.tapes.pop()

    def reset(self) -> None:
        self._nodes.clear()
        self._spent = False

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into ``leaf.grad`` for all leaves.

        ``output`` must be scalar (size 1); its seed gradient is 1. Each
        node leaves the tape once its VJP has run, so the arrays that only
        the tape kept alive are freed while the pass goes on.
        """
        if output.data.size != 1:
            raise AutodiffError(f"backward requires a scalar output, got shape {output.data.shape}")
        if self._spent:
            raise AutodiffError("tape already consumed by backward; call reset() to reuse")
        self._spent = True

        # grads maps tensor id -> [array, owned]; the first contribution is
        # stored as-is (it may alias an array shared with another consumer),
        # later ones allocate once and then accumulate in place.
        grads: dict[int, list] = {id(output): [np.ones_like(output.data), True]}
        tensors: dict[int, Tensor] = {id(output): output}
        nodes = self._nodes
        while nodes:
            out, vjp = nodes.pop()
            slot = grads.pop(id(out), None)
            tensors.pop(id(out), None)
            if slot is None:
                continue  # this intermediate does not influence the output
            for tensor, contrib in vjp(slot[0]):
                key = id(tensor)
                seen = grads.get(key)
                if seen is None:
                    grads[key] = [contrib, False]
                    tensors[key] = tensor
                elif seen[1]:
                    seen[0] += contrib
                else:
                    seen[0] = seen[0] + contrib
                    seen[1] = True
        for key, (g, _) in grads.items():
            leaf = tensors[key]
            if leaf.requires_grad:
                leaf.grad = g if leaf.grad is None else leaf.grad + g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_out(data: Array, inputs: Sequence[Tensor], vjp: VJP) -> Tensor:
    """Wrap ``data`` as the op's output and, while a tape is open and an
    input requires gradients, record ``vjp`` on that tape."""
    if _DEBUG_FINITE and not np.all(np.isfinite(data)):
        raise AutodiffError("non-finite values produced by op (debug finite check)")
    tapes = _open_tapes.tapes
    tracked = bool(tapes) and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        tapes[-1]._nodes.append((out, vjp))
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# batch slices over the process's CPUs


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


_WORKERS = _cpu_count()
_pool = None  # (pid, executor) of the process that built it; built on first use
_BLOCK = 4096  # elements per slice unit of an elementwise pass
_PRODUCTS_BYTES = 16 << 20  # weight-VJP products held at once (at least _WORKERS of them)


def _parallel(n: int, fn: Callable[..., None], scratch: Callable[[], object] | None = None) -> None:
    """Run ``fn(lo, hi)`` over up to ``_WORKERS`` contiguous slices of
    ``range(n)``; the calling thread runs the last slice itself.

    With ``scratch``, each slice runs ``fn(lo, hi, scratch())``: ``scratch``
    runs in the calling thread, once per slice, so every buffer is allocated
    there. ``fn`` runs numpy only: no op, ``_make_out`` or tape.
    """
    parts = max(min(_WORKERS, n), 1)
    bounds = [n * k // parts for k in range(parts + 1)]
    calls = [(lo, hi) if scratch is None else (lo, hi, scratch())
             for lo, hi in zip(bounds, bounds[1:])]
    if parts == 1:
        fn(*calls[0])
        return
    global _pool
    if _pool is None or _pool[0] != os.getpid():  # a forked child builds its own
        from concurrent.futures import ThreadPoolExecutor

        _pool = (os.getpid(), ThreadPoolExecutor(max(_WORKERS - 1, 1)))
    # A finished slice's work item can outlive this call in the pool thread;
    # it holds only `job`, which is emptied here, so `fn`, its arrays and the
    # scratch are always released by the calling thread, at a fixed point.
    job = [fn, calls]
    futures = [_pool[1].submit(_run_slice, job, k) for k in range(parts - 1)]
    try:
        fn(*calls[-1])
    finally:
        errors = [f.exception() for f in futures]  # waits for every slice
        job.clear()
    for exc in errors:
        if exc is not None:
            raise exc


def _run_slice(job: list, k: int) -> None:
    fn, calls = job
    fn(*calls[k])


def _elementwise(size: int, fn: Callable[[slice], None]) -> None:
    """Run ``fn(sl)`` over slices of ``range(size)`` that start on
    ``_BLOCK`` boundaries; arrays under two blocks stay in one slice."""
    _parallel(-(-size // _BLOCK), lambda lo, hi: fn(slice(lo * _BLOCK, hi * _BLOCK)))


# ---------------------------------------------------------------------------
# elementwise ops


def _binary(a, b, forward, grad_a, grad_b) -> Tensor:
    """Broadcasting elementwise op ``forward(a, b)``.

    A Python number ``b`` stays a raw float, so numpy's weak promotion keeps
    float32 storage, and only ``a`` is recorded as an input; an array ``b``
    is cast to ``a``'s dtype. ``grad_a(g, b)`` and ``grad_b(g, a)`` map the
    output gradient to each operand's before unbroadcasting.
    """
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        bv = float(b)
        operands = ((a, grad_a, bv),)
    else:
        b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))
        bv = b.data
        operands = ((a, grad_a, bv), (b, grad_b, a.data))

    def vjp(g):
        return [(t, _unbroadcast(grad(g, other), t.data.shape))
                for t, grad, other in operands if t.requires_grad]

    return _make_out(forward(a.data, bv), [t for t, _, _ in operands], vjp)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, _: g, lambda g, _: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, _: g, lambda g, _: -g)


def mul(a, b) -> Tensor:
    """Elementwise (and broadcast) multiply; covers scalar and mask scaling."""
    return _binary(a, b, np.multiply, np.multiply, np.multiply)


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _make_out(a.data * a.data, (a,), lambda g: [(a, g * (2.0 * a.data))])


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)
    return _make_out(data, (a,), lambda g: [(a, g * data)])


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _make_out(np.log(a.data), (a,), lambda g: [(a, g / a.data)])


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = _sigmoid_stable(a.data)

    def vjp(g):
        da = 1.0 - data
        da *= data
        da *= g
        return [(a, da)]

    return _make_out(data, (a,), vjp)


def swish(a) -> Tensor:
    """x * sigmoid(x), the activation used throughout the encoder.

    With s = sigmoid(x) and y = x * s the derivative is s + y * (1 - s), so
    the VJP reads (s, y) and not the input.
    """
    a = _as_tensor(a)
    x = a.data.reshape(-1)
    s = np.empty_like(x)
    data = np.empty_like(x)

    def forward(sl):
        _sigmoid_stable(x[sl], out=s[sl])
        np.multiply(x[sl], s[sl], out=data[sl])

    _elementwise(x.size, forward)

    def vjp(g):
        g = g.reshape(-1)
        da = np.empty_like(s)

        def slice_vjp(sl):
            d = da[sl]
            np.subtract(1.0, s[sl], out=d)
            d *= data[sl]
            d += s[sl]
            d *= g[sl]

        _elementwise(g.size, slice_vjp)
        return [(a, da.reshape(a.data.shape))]

    return _make_out(data.reshape(a.data.shape), (a,), vjp)


def gate(h, gate) -> Tensor:
    """Channel gating ``h + h * gate`` of ``h`` (B, L, C) by ``gate`` (B, C),
    computed as ``h * (1 + gate)`` in one pass."""
    h, gate = _as_tensor(h), _as_tensor(gate)
    if h.data.ndim != 3 or gate.data.shape != (h.data.shape[0], h.data.shape[2]):
        raise AutodiffError(f"gate expects h (B,L,C) and gate (B,C), got {h.data.shape} "
                            f"and {gate.data.shape}")
    scale = (1.0 + gate.data)[:, None, :]

    def vjp(g):
        pairs = []
        if h.requires_grad:
            pairs.append((h, g * scale))
        if gate.requires_grad:
            pairs.append((gate, np.einsum("blc,blc->bc", g, h.data)))
        return pairs

    return _make_out(h.data * scale, (h, gate), vjp)


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    return _make_out(np.abs(a.data), (a,), lambda g: [(a, g * np.sign(a.data))])


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; adjoint is sigmoid(x)."""
    a = _as_tensor(a)
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _make_out(data, (a,), lambda g: [(a, g * _sigmoid_stable(x))])


def _sigmoid_stable(x: Array, out: Array | None = None) -> Array:
    # exp(-x) overflow for very negative x saturates to inf, giving an exact
    # 0 after the reciprocal — correct under IEEE semantics, so only the
    # warning needs suppressing. Avoids branch masks (two extra passes).
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


# ---------------------------------------------------------------------------
# shape / reduction ops


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _make_out(a.data.reshape(shape), (a,), lambda g: [(a, g.reshape(old))])


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("transpose expects a 2-D tensor")
    return _make_out(a.data.T.copy(), (a,), lambda g: [(a, g.T)])


def _reduce(a, axis: int | None, fn) -> Tensor:
    """``np.sum`` or ``np.mean`` over ``axis`` (all axes when None);
    float32 storage accumulates in float64."""
    a = _as_tensor(a)
    x = a.data
    if x.dtype == np.float32:
        data = fn(x, axis=axis, dtype=np.float64).astype(np.float32)
    else:
        data = fn(x, axis=axis)
    count = 1 if fn is np.sum else x.size if axis is None else x.shape[axis]

    def vjp(g):
        g = g / count
        if axis is not None:
            g = np.expand_dims(g, axis)
        return [(a, np.broadcast_to(g, x.shape).copy())]

    return _make_out(data, (a,), vjp)


def sum_(a, axis: int | None = None) -> Tensor:
    return _reduce(a, axis, np.sum)


def mean(a, axis: int | None = None) -> Tensor:
    return _reduce(a, axis, np.mean)


def matmul(a, b) -> Tensor:
    return _affine(a, b, None)


def dense(x, w, b=None) -> Tensor:
    """Affine layer ``x @ w + b`` for 2-D ``x``."""
    return _affine(x, w, b)


def _affine(x, w, b) -> Tensor:
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise AutodiffError("dense/matmul expect 2-D tensors")
    data = x.data @ w.data
    inputs = [x, w]
    if b is not None:
        b = _as_tensor(b)
        data = data + b.data
        inputs.append(b)

    def vjp(g):
        pairs = []
        if x.requires_grad:
            pairs.append((x, g @ w.data.T))
        if w.requires_grad:
            pairs.append((w, x.data.T @ g))
        if b is not None and b.requires_grad:
            pairs.append((b, g.sum(axis=0)))
        return pairs

    return _make_out(data, inputs, vjp)


def row_l2_normalize(a) -> Tensor:
    """Normalize each row of a 2-D tensor to unit L2 norm.

    Zero rows signal a degenerate embedding and raise.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("row_l2_normalize expects a 2-D tensor")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    if np.any(norms <= 0.0):
        raise AutodiffError("zero row passed to row_l2_normalize (degenerate embedding)")
    data = a.data / norms

    def vjp(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        return [(a, (g - data * dot) / norms)]

    return _make_out(data, (a,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _same_padding(length: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out_len = -(-length // stride)  # ceil
    pad_total = max((out_len - 1) * stride + kernel - length, 0)
    left = pad_total // 2
    return out_len, left, pad_total - left


def _im2col_scratch(row_len: int, c: int, kernel: int, stride: int, at: int,
                    start: int, count: int, dtype) -> Callable[[Array], Array]:
    """One slice's scratch: a zero row (row_len, c) and a (count, kernel*c)
    column matrix, allocated by the caller.

    The returned ``cols_of(sample)`` copies ``sample`` into the row at offset
    ``at`` (the zeros around it are the padding) and returns the columns of
    the ``count`` windows that start at ``start``, ``start + stride``, ...
    The window view is built once per buffer, not once per sample.
    """
    row = np.zeros((row_len, c), dtype=dtype)
    cols = np.empty((count, kernel * c), dtype=dtype)
    win = np.lib.stride_tricks.sliding_window_view(row, kernel, axis=0)  # (L', c, K)
    win = win[start : start + (count - 1) * stride + 1 : stride].transpose(0, 2, 1)
    cols3 = cols.reshape(count, kernel, c)

    def cols_of(sample: Array) -> Array:
        row[at : at + len(sample)] = sample
        np.copyto(cols3, win)
        return cols

    return cols_of


def _channel_sum(g: Array) -> Array:
    """Sum of ``g`` (..., C) over all but the last axis, accumulated in
    float64: (N, C) is viewed as wide rows (N/R, R*C) with R*C about 512,
    summed down, and the R groups folded, then the N % R rows left over
    added."""
    c = g.shape[-1]
    flat = g.reshape(-1, c)
    r = max(512 // c, 1)
    m = flat.shape[0] // r
    acc = flat[: m * r].reshape(m, r * c).sum(axis=0, dtype=np.float64).reshape(r, c).sum(axis=0)
    acc += flat[m * r :].sum(axis=0, dtype=np.float64)
    return acc.astype(g.dtype)


def _conv1d_weight_grad(xd: Array, g: Array, w2: Array, im2col: Callable[[], Callable]) -> Array:
    """d(loss)/d(w2) for a conv1d that is not 1x1: the sum over samples of
    ``cols_i.T @ g_i``, with ``im2col()`` allocating one slice's scratch.

    The batch runs in rounds: the slices write each sample's product, then
    the calling thread adds them in sample order. The products buffer holds
    at least ``_WORKERS`` of them and otherwise stays under
    ``_PRODUCTS_BYTES``, whatever the batch size.
    """
    batch = len(xd)
    dtype = np.result_type(xd, g)
    step = max(_WORKERS, _PRODUCTS_BYTES // (w2.size * dtype.itemsize))
    products = np.empty((min(step, batch),) + w2.shape, dtype=dtype)
    buffers = [im2col() for _ in range(min(_WORKERS, len(products)))]
    dw2 = np.zeros_like(w2)
    for start in range(0, batch, step):
        count = min(step, batch - start)

        def weight_products(lo, hi, cols_of, start=start):
            for i in range(lo, hi):
                np.matmul(cols_of(xd[start + i]).T, g[start + i], out=products[i])

        _parallel(count, weight_products, iter(buffers).__next__)  # reused each round
        for p in products[:count]:
            dw2 += p
    return dw2


def _conv1d_input_grad(g: Array, w2: Array, kernel: int, stride: int, length: int) -> Array:
    """d(loss)/d(x) for conv1d from the output gradient ``g`` (B, out_len,
    C_out) and the dense (K*C_in, C_out) weight ``w2``.

    kernel 1 and stride 1: one GEMM per slice of samples. Other stride 1: the
    adjoint is itself a correlation ("full" conv of the output gradient with
    the flipped kernel), run as one im2col GEMM per sample over the rows of
    ``x``. stride > 1 falls back to strided scatter-adds into a padded row.
    """
    batch, out_len, c_out = g.shape
    c_in = w2.shape[0] // kernel
    _, pad_l, pad_r = _same_padding(length, kernel, stride)
    dx = np.empty((batch, length, c_in), dtype=g.dtype)
    if kernel == 1 and stride == 1:
        def rows(lo, hi):
            np.matmul(g[lo:hi].reshape(-1, c_out), w2.T, out=dx[lo:hi].reshape(-1, c_in))

        _parallel(batch, rows)
    elif stride == 1:
        # w2 rows are ordered (k, c_in); flip k and swap to (k, c_out) rows
        wf = np.ascontiguousarray(
            w2.reshape(kernel, c_in, c_out)[::-1].transpose(0, 2, 1)
        ).reshape(kernel * c_out, c_in)

        def correlate(lo, hi, cols_of):
            for i in range(lo, hi):
                np.matmul(cols_of(g[i]), wf, out=dx[i])

        _parallel(batch, correlate, lambda: _im2col_scratch(
            out_len + 2 * (kernel - 1), c_out, kernel, 1, kernel - 1, pad_l, length, g.dtype))
    else:
        span = (out_len - 1) * stride + 1

        def scatter(lo, hi, buffers):
            row, dcol = buffers
            dcol3 = dcol.reshape(out_len, kernel, c_in)
            for i in range(lo, hi):
                row.fill(0)
                np.matmul(g[i], w2.T, out=dcol)
                for k in range(kernel):
                    row[k : k + span : stride] += dcol3[:, k, :]
                dx[i] = row[pad_l : pad_l + length]

        _parallel(batch, scatter, lambda: (np.empty((length + pad_l + pad_r, c_in), dtype=g.dtype),
                                           np.empty((out_len, kernel * c_in), dtype=g.dtype)))
    return dx


def conv1d(x, w, b=None, stride: int = 1, groups: int = 1) -> Tensor:
    """Grouped 1-D convolution over channels-last input.

    x: (B, L, C_in); w: (K, C_in // groups, C_out); b: (C_out,) or None.
    "same"-style zero padding keeps the output length at ceil(L / stride).
    Output channel block ``o`` in group ``o // (C_out/groups)`` sees only its
    group's input channels.

    The grouped kernel runs as a dense GEMM with a block-diagonal weight.
    Forward, weight VJP and input VJP split the batch over the process's
    CPUs (see ``_parallel``). Each sample is padded into a scratch row and
    its column matrix built there, so it stays cache-resident and no padded
    copy of the batch exists; 1x1 convs run one GEMM per slice of samples.
    Per-sample weight products are summed in sample order by the calling
    thread, a bounded round of samples at a time, so every result is
    bit-identical for any CPU count (at a fixed BLAS thread count).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise AutodiffError("conv1d expects x (B,L,C) and w (K,C_in/groups,C_out)")
    batch, length, c_in = x.data.shape
    kernel, c_in_g, c_out = w.data.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise AutodiffError(f"groups={groups} must divide in/out channels ({c_in}, {c_out})")
    if c_in_g != c_in // groups:
        raise AutodiffError(f"weight expects {c_in // groups} channels per group, got {c_in_g}")

    out_len, pad_l, pad_r = _same_padding(length, kernel, stride)
    xd = x.data
    wd = _expand_grouped(w.data, c_in, c_out, groups)
    w2 = np.ascontiguousarray(wd.reshape(kernel * c_in, c_out))
    pointwise = kernel == 1 and stride == 1
    inputs = [x, w]
    bias = None
    if b is not None:
        b = _as_tensor(b)
        bias = b.data
        inputs.append(b)

    def im2col():
        return _im2col_scratch(length + pad_l + pad_r, c_in, kernel, stride, pad_l, 0, out_len,
                               xd.dtype)

    data = np.empty((batch, out_len, c_out), dtype=xd.dtype)
    if pointwise:
        def forward(lo, hi):
            out = data[lo:hi].reshape(-1, c_out)
            np.matmul(xd[lo:hi].reshape(-1, c_in), w2, out=out)
            if bias is not None:
                out += bias

        _parallel(batch, forward)
    else:
        def forward(lo, hi, cols_of):
            for i in range(lo, hi):
                np.matmul(cols_of(xd[i]), w2, out=data[i])
                if bias is not None:
                    data[i] += bias

        _parallel(batch, forward, im2col)

    def vjp(g):
        pairs = []
        if w.requires_grad:
            if pointwise:
                dw2 = xd.reshape(-1, c_in).T @ g.reshape(-1, c_out)
            else:
                dw2 = _conv1d_weight_grad(xd, g, w2, im2col)
            pairs.append((w, _collapse_grouped(dw2.reshape(kernel, c_in, c_out), c_in, c_out, groups)))
        if x.requires_grad:
            pairs.append((x, _conv1d_input_grad(g, w2, kernel, stride, length)))
        if b is not None and b.requires_grad:
            pairs.append((b, _channel_sum(g)))
        return pairs

    return _make_out(data, inputs, vjp)


def _expand_grouped(w: Array, c_in: int, c_out: int, groups: int) -> Array:
    if groups == 1:
        return w
    kernel = w.shape[0]
    cg, og = c_in // groups, c_out // groups
    dense_w = np.zeros((kernel, c_in, c_out), dtype=w.dtype)
    for g in range(groups):
        dense_w[:, g * cg : (g + 1) * cg, g * og : (g + 1) * og] = w[:, :, g * og : (g + 1) * og]
    return dense_w


def _collapse_grouped(dw_dense: Array, c_in: int, c_out: int, groups: int) -> Array:
    if groups == 1:
        return dw_dense
    kernel = dw_dense.shape[0]
    cg, og = c_in // groups, c_out // groups
    dw = np.empty((kernel, cg, c_out), dtype=dw_dense.dtype)
    for g in range(groups):
        dw[:, :, g * og : (g + 1) * og] = dw_dense[:, g * cg : (g + 1) * cg, g * og : (g + 1) * og]
    return dw


# ---------------------------------------------------------------------------
# finite-difference validation harness


def grad_check(
    f: Callable[..., Tensor],
    points: Sequence[Array],
    eps: float = 1e-5,
    floor: float = 1e-3,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps one Tensor per entry of ``points`` to a scalar Tensor. Every
    coordinate of every point is perturbed by ±eps; the worst relative error
    ``|a - n| / max(|a|, |n|, floor)`` across coordinates is returned.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    leaves = [Tensor(np.asarray(p, dtype=np.float64).copy(), requires_grad=True) for p in points]
    with Tape() as tape:
        out = f(*leaves)
    tape.backward(out)
    analytic = [np.zeros_like(l.data) if l.grad is None else l.grad for l in leaves]

    raw = [l.data for l in leaves]
    worst = 0.0
    for pi, arr in enumerate(raw):
        flat = arr.reshape(-1)
        for ci in range(flat.size):
            keep = flat[ci]
            flat[ci] = keep + eps
            hi = f(*[Tensor(r) for r in raw]).item()
            flat[ci] = keep - eps
            lo = f(*[Tensor(r) for r in raw]).item()
            flat[ci] = keep
            numeric = (hi - lo) / (2.0 * eps)
            a = analytic[pi].reshape(-1)[ci]
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if err > worst:
                worst = err
    return worst


def parameter(data, name: str | None = None) -> Tensor:
    """Leaf tensor with gradients enabled; float32 storage is preserved."""
    return Tensor(data, requires_grad=True, name=name)
