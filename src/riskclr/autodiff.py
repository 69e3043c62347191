"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Design notes:
  * Eager execution. Ops run immediately on numpy data; when a ``Tape`` is
    active and an input requires gradients, the op records its VJP
    (vector-Jacobian product) on the tape. ``Tape.backward`` replays the
    VJPs in reverse execution order, which is a valid reverse topological
    order because execution order itself is topological.
  * Layout convention for sequence data is channels-first ``(batch,
    channels, length)``: each channel's time row is contiguous, so a grouped
    convolution of one sample is one batched GEMM over its groups whose
    im2col copies whole rows, and the time mean, the bias sum and the gate's
    dot products are contiguous last-axis reductions.
  * Storage is float64, or float32 when the inputs are float32; reductions
    accumulate float32 in float64.
  * Every full-size pass of the encoder splits over the process's CPUs
    (``_parallel``): ``conv1d`` and ``gate`` by samples, ``swish`` and
    same-shape ``add``, ``sub`` and ``mul`` by blocks of elements, forward
    and VJP, and so do the gradient sums in ``Tape.backward``. Each slice
    runs the numpy calls one worker would, on the same rows and in the same
    order, or one call per sample; only ``conv1d``'s per-sample weight
    products and bias sums are added across samples, in the calling thread,
    in sample order. Results are therefore bit-identical for any CPU count,
    at a fixed BLAS thread count (see the thread policy below). A
    ``_parallel`` job runs numpy only: no op, ``_make_out`` or tape.

Adding an op: compute the output array ``data`` from the inputs' ``.data``,
then ``return _make_out(data, inputs, vjp)``. ``vjp(g)`` receives the
gradient of the output and returns ``(handle, grad)`` pairs, each ``grad``
shaped like the input whose ``_handle`` it names; it may skip inputs that
do not require gradients. Its closure captures only the handles of the
inputs that require gradients (``_handles``, taken when the op runs),
shapes, and the arrays it reads; the only ``Tensor`` it holds is a leaf,
which is its own handle. The tape holds an output's handle, not its
array, so an array outlives the forward pass only if a VJP reads it, as
with PyTorch's saved tensors (Paszke et al., arXiv 1912.01703). A VJP
that needs the output reads ``data`` from its closure, and neither the op
nor its VJP writes to another op's arrays in place. An op's output and its
VJP's gradients are as large as its inputs; a caller that wants memory set
by a sub-batch runs the ops on chunks of rows and joins them with
``concat``, whose VJP hands each chunk its rows of ``g`` as views (see
``Encoder.forward``). Ops allocate in the calling thread: running the chunks
themselves in pool threads would spread their buffers over per-thread
malloc arenas, which raises peak RSS.

Heap policy: importing this module sets glibc's malloc thresholds once
(``_keep_freed_heap``). ``M_TRIM_THRESHOLD`` goes to 1 GiB, so the
activations a backward pass frees stay in the process for the next batch
instead of going back to the OS and being page-faulted in again, as
PyTorch's caching allocator keeps freed blocks (Paszke et al.).
``M_MMAP_THRESHOLD`` goes to 32 MiB, the ceiling of glibc's own dynamic
threshold. Both are set because setting either one turns off glibc's
dynamic adjustment of both: with the trim threshold alone, every array
over 128 KiB went back to its own ``mmap`` and was faulted in anew each
time. The two values override the ``MALLOC_TRIM_THRESHOLD_`` and
``MALLOC_MMAP_THRESHOLD_`` environment variables. A libc without
``mallopt`` (musl, macOS, Windows) keeps its own policy. No numeric code
depends on it, so the bits are the same either way.

Thread policy: importing this module also sets BLAS to one thread
(``_one_blas_thread``) unless one of ``BLAS_THREAD_VARS`` is set, in which
case the user's count stands. The batch slices above already use the
CPUs, and OpenBLAS would otherwise size its own pool from the affinity, so
the bits would follow the CPU count and its threads would contend with the
slices. The pin and ``blas_thread_count`` reach OpenBLAS through ``ctypes``
on numpy's core extension, which links the scipy-openblas build of
numpy's wheels; under any other BLAS build both do nothing.
"""

from __future__ import annotations

import ctypes
import itertools
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
    produced by ops inherit the flag whenever a tape is recording, and then
    carry the ``_Node`` the tape knows them by.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])


class _Node:
    """Gradient handle of a tracked op output. It holds no array and no
    reference, so the output's array is freed once no VJP reads it, and
    nothing refers back to the output."""

    __slots__ = ()


Handle = Tensor | _Node


def _handle(t: Tensor) -> Handle:
    """``t``'s gradient handle: the ``_Node`` of a tracked op output, else
    ``t`` itself (a leaf, so leaves need no extra object)."""
    return t if t._node is None else t._node


def _handles(*tensors: Tensor | None) -> list[Handle | None]:
    """The handle of each of ``tensors`` that requires gradients, else None
    (also for a None in place of an optional input)."""
    return [_handle(t) if t is not None and t.requires_grad else None for t in tensors]


VJP = Callable[[Array], list[tuple[Handle, Array]]]


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_open_tapes = _TapeStack()


class Tape:
    """Ordered op record for one forward/backward pair.

    A tape is single-use: ``backward`` may run once. Tapes are confined to
    the thread that opened them; separate threads may run separate tapes
    concurrently.
    """

    def __init__(self):
        self._nodes: list[tuple[_Node, VJP]] = []  # (output's handle, its VJP)
        self._spent = False

    def __enter__(self) -> "Tape":
        _open_tapes.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _open_tapes.tapes.pop()

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into ``leaf.grad`` for all leaves.

        ``output`` must be scalar (size 1); its seed gradient is 1. The sums
        are keyed by handle. ``.grad`` is written only onto leaves whose
        ``requires_grad`` is set when backward runs, so an op output's
        ``.grad`` stays None, also for one that another (outer) tape
        recorded: its gradient stops there. Each node leaves the tape once
        its VJP has run, so the arrays only that VJP read are freed while
        the pass goes on.
        """
        if output.data.size != 1:
            raise AutodiffError(f"backward requires a scalar output, got shape {output.data.shape}")
        if self._spent:
            raise AutodiffError("tape already consumed by backward")
        self._spent = True

        # grads maps handle -> [array, owned]; the first contribution is
        # stored as-is (it may alias an array shared with another consumer),
        # later ones allocate once and then accumulate in place, both split
        # over the CPUs (see _ufunc).
        grads: dict[Handle, list] = {_handle(output): [np.ones_like(output.data), True]}
        nodes = self._nodes
        while nodes:
            node, vjp = nodes.pop()
            slot = grads.pop(node, None)
            if slot is None:
                continue  # this intermediate does not influence the output
            for handle, contrib in vjp(slot[0]):
                seen = grads.get(handle)
                if seen is None:
                    grads[handle] = [contrib, False]
                else:  # a numpy scalar sum is immutable, so never owned
                    seen[0] = _ufunc(np.add, seen[0], contrib, out=seen[0] if seen[1] else None)
                    seen[1] = isinstance(seen[0], np.ndarray)
        for leaf, (g, _) in grads.items():
            if isinstance(leaf, Tensor) and leaf.requires_grad:
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
        out._node = _Node()
        tapes[-1]._nodes.append((out._node, vjp))
    return out


# ---------------------------------------------------------------------------
# the process's heap and BLAS threads

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_freed_heap() -> None:
    """Set glibc's trim threshold to 1 GiB and its mmap threshold to 32 MiB
    (see the module docstring); a libc without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows has no CDLL(None)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_heap()

# The BLAS thread-count variables: a user who sets one keeps BLAS's own
# count, and runs record them (see riskclr.train.host_conditions).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas(name: str):
    """The function ``name`` of the scipy-openblas build that numpy's wheels
    ship, through ``ctypes`` on numpy's core extension, whose symbol lookup
    searches the libraries it links; None for another BLAS build."""
    core = getattr(np, "_core", None) or np.core  # numpy 1.x has no _core
    try:
        return getattr(ctypes.CDLL(core._multiarray_umath.__file__), name)
    except (OSError, AttributeError):  # AttributeError: no such symbol there
        return None


def blas_thread_count() -> int | None:
    """The thread count scipy-openblas reports; None for another BLAS build."""
    query = _openblas("scipy_openblas_get_num_threads64_")
    return None if query is None else query()  # ctypes' default restype is int


def _one_blas_thread() -> None:
    """Set scipy-openblas to one thread unless a ``BLAS_THREAD_VARS`` is set
    (see the module docstring); another BLAS build is left as it is."""
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    pin = _openblas("scipy_openblas_set_num_threads64_")
    if pin is not None:
        pin(1)


_one_blas_thread()


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


_pool_thread = threading.local()  # `marked` is set in the pool's own threads


def _parallel(n: int, fn: Callable[..., None], scratch: Callable[[], object] | None = None) -> None:
    """Run ``fn(lo, hi)`` over up to ``_WORKERS`` contiguous slices of
    ``range(n)``; the calling thread runs the last slice itself.

    With ``scratch``, each slice runs ``fn(lo, hi, scratch())``: ``scratch``
    runs in the calling thread, once per slice, so every buffer is allocated
    there. ``fn`` runs numpy only: no op, ``_make_out`` or tape. Called from
    a pool thread (a slice that itself splits), every slice runs in that
    thread, in order, so a slice never waits on the pool it runs in.
    """
    parts = max(min(_WORKERS, n), 1)
    bounds = [n * k // parts for k in range(parts + 1)]
    calls = [(lo, hi) if scratch is None else (lo, hi, scratch())
             for lo, hi in zip(bounds, bounds[1:])]
    if parts == 1 or getattr(_pool_thread, "marked", False):
        for call in calls:
            fn(*call)
        return
    global _pool
    if _pool is None or _pool[0] != os.getpid():  # a forked child builds its own
        from concurrent.futures import ThreadPoolExecutor

        _pool = (os.getpid(), ThreadPoolExecutor(max(_WORKERS - 1, 1), initializer=setattr,
                                                 initargs=(_pool_thread, "marked", True)))
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


def _ufunc(fn, a: Array, b, out: Array | None = None):
    """``fn(a, b, out=out)`` for a numpy ufunc ``fn``. Two C-contiguous
    arrays of one shape and at least two ``_BLOCK``s run over
    ``_elementwise`` slices; anything else (a Python number, a small or
    strided array) runs as the one call."""
    if not (isinstance(b, np.ndarray) and a.shape == b.shape and a.size >= 2 * _BLOCK
            and all(v.flags.c_contiguous for v in (a, b, a if out is None else out))):
        return fn(a, b, out=out)
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, b))
    fa, fb, fo = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    _elementwise(fo.size, lambda sl: fn(fa[sl], fb[sl], out=fo[sl]))
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def _binary(a, b, forward, grad_a, grad_b, reads_other: bool = False) -> Tensor:
    """Elementwise op: the ufunc ``forward`` of ``a`` and ``b``, a number or
    an operand of ``a``'s shape (any other raises ``AutodiffError``), split
    over the CPUs when both are arrays (see ``_ufunc``).

    A number ``b``, numpy scalars included, becomes a Python float, so
    numpy's weak promotion keeps float32 storage, and only ``a`` is an
    input; an array ``b`` is cast to ``a``'s dtype. ``grad_a(g, b)`` and
    ``grad_b(g, a)`` map the output gradient to each operand's; the VJP
    keeps the other operand's data only when ``reads_other`` says so.
    """
    a = _as_tensor(a)
    if not isinstance(b, Tensor) and np.ndim(b) == 0:
        bv = float(b)
        operands = ((a, grad_a, bv),)
    else:
        b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))
        if b.data.shape != a.data.shape:
            raise AutodiffError(f"elementwise operands must be a number or of one shape, "
                                f"got {a.data.shape} and {b.data.shape}")
        bv = b.data
        operands = ((a, grad_a, bv), (b, grad_b, a.data))
    saved = [(_handle(t), grad, other if reads_other else None)
             for t, grad, other in operands if t.requires_grad]

    def vjp(g):
        return [(handle, grad(g, other)) for handle, grad, other in saved]

    return _make_out(_ufunc(forward, a.data, bv), [t for t, _, _ in operands], vjp)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, _: g, lambda g, _: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, _: g, lambda g, _: -g)


def mul(a, b) -> Tensor:
    """Elementwise multiply by a number or a same-shape operand; covers
    scalar and mask scaling."""
    return _binary(a, b, np.multiply, _multiply, _multiply, reads_other=True)


def _multiply(g: Array, other) -> Array:
    return _ufunc(np.multiply, g, other)


def square(a) -> Tensor:
    a = _as_tensor(a)
    x, ha = a.data, _handle(a)
    return _make_out(x * x, (a,), lambda g: [(ha, g * (2.0 * x))])


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data, ha = np.exp(a.data), _handle(a)
    return _make_out(data, (a,), lambda g: [(ha, g * data)])


def log(a) -> Tensor:
    a = _as_tensor(a)
    x, ha = a.data, _handle(a)
    return _make_out(np.log(x), (a,), lambda g: [(ha, g / x)])


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data, ha = _sigmoid_stable(a.data), _handle(a)

    def vjp(g):
        da = 1.0 - data
        da *= data
        da *= g
        return [(ha, da)]

    return _make_out(data, (a,), vjp)


def swish(a) -> Tensor:
    """x * sigmoid(x), the activation used throughout the encoder.

    With s = sigmoid(x) and y = x * s the derivative is s + y * (1 - s), so
    the VJP reads (s, y) and not the input.
    """
    a = _as_tensor(a)
    x, shape, ha = a.data.reshape(-1), a.data.shape, _handle(a)
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
        return [(ha, da.reshape(shape))]

    return _make_out(data.reshape(shape), (a,), vjp)


def gate(h, gate) -> Tensor:
    """Channel gating ``h + h * gate`` of ``h`` (B, C, L) by ``gate`` (B, C),
    computed as ``h * (1 + gate)`` in one pass; ``dgate`` is one einsum per
    sample, a dot product of each channel's contiguous time row."""
    h, gate = _as_tensor(h), _as_tensor(gate)
    if h.data.ndim != 3 or gate.data.shape != h.data.shape[:2]:
        raise AutodiffError(f"gate expects h (B,C,L) and gate (B,C), got {h.data.shape} "
                            f"and {gate.data.shape}")
    hd, gate_shape = h.data, gate.data.shape
    scale = (1.0 + gate.data)[:, :, None]
    data = np.empty(hd.shape, dtype=np.result_type(hd, scale))
    _parallel(len(hd), lambda lo, hi: np.multiply(hd[lo:hi], scale[lo:hi], out=data[lo:hi]))
    handles = _handles(h, gate)

    def vjp(g):
        dh = np.empty(g.shape, np.result_type(g, scale))
        dgate = np.empty(gate_shape, np.result_type(g, hd))

        def slice_vjp(lo, hi):
            np.multiply(g[lo:hi], scale[lo:hi], out=dh[lo:hi])
            for i in range(lo, hi):
                np.einsum("cl,cl->c", g[i], hd[i], out=dgate[i])

        _parallel(len(g), slice_vjp)
        return [(t, d) for t, d in zip(handles, (dh, dgate)) if t is not None]

    return _make_out(data, (h, gate), vjp)


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    x, ha = a.data, _handle(a)
    return _make_out(np.abs(x), (a,), lambda g: [(ha, g * np.sign(x))])


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; adjoint is sigmoid(x)."""
    a = _as_tensor(a)
    x, ha = a.data, _handle(a)
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _make_out(data, (a,), lambda g: [(ha, g * _sigmoid_stable(x))])


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
    old, ha = a.data.shape, _handle(a)
    return _make_out(a.data.reshape(shape), (a,), lambda g: [(ha, g.reshape(old))])


def concat(parts: Sequence) -> Tensor:
    """``parts`` joined along the first axis. The VJP hands each part its
    rows of ``g`` as a view, and captures only handles and row bounds."""
    parts = [_as_tensor(p) for p in parts]
    bounds = [0, *itertools.accumulate(len(p.data) for p in parts)]
    handles = _handles(*parts)

    def vjp(g):
        return [(h, g[lo:hi]) for h, lo, hi in zip(handles, bounds, bounds[1:]) if h is not None]

    return _make_out(np.concatenate([p.data for p in parts]), parts, vjp)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("transpose expects a 2-D tensor")
    ha = _handle(a)
    return _make_out(a.data.T.copy(), (a,), lambda g: [(ha, g.T)])


def _reduce(a, axis: int | None, fn) -> Tensor:
    """``np.sum`` or ``np.mean`` over ``axis`` (all axes when None), as one
    call; float32 storage accumulates in float64. Over the time axis of a
    (B, C, L) array, each channel's sum runs over its contiguous row, so a
    sample's result has the bits it has alone."""
    a = _as_tensor(a)
    x = a.data
    wide = {"dtype": np.float64} if x.dtype == np.float32 else {}
    data = fn(x, axis=axis, **wide).astype(x.dtype, copy=False)
    count = 1 if fn is np.sum else x.size if axis is None else x.shape[axis]
    shape, ha = x.shape, _handle(a)

    def vjp(g):
        g = g / count
        if axis is not None:
            g = np.expand_dims(g, axis)
        grad = np.empty(shape, dtype=g.dtype)
        np.copyto(grad, g)
        return [(ha, grad)]

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
    xd, wd = x.data, w.data
    data = xd @ wd
    inputs = [x, w]
    if b is not None:
        b = _as_tensor(b)
        data = data + b.data
        inputs.append(b)
    hx, hw, hb = _handles(x, w, b)

    def vjp(g):
        pairs = []
        if hx is not None:
            pairs.append((hx, g @ wd.T))
        if hw is not None:
            pairs.append((hw, xd.T @ g))
        if hb is not None:
            pairs.append((hb, g.sum(axis=0)))
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
    data, ha = a.data / norms, _handle(a)

    def vjp(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        return [(ha, (g - data * dot) / norms)]

    return _make_out(data, (a,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _im2col_scratch(n: int, c: int, kernel: int, stride: int, at: int, start: int,
                    count: int, dtype) -> Callable[[Array], Array]:
    """One slice's scratch for (c, n) samples, allocated by the caller: a
    zero block of ``c`` rows, just long enough for the sample and the last
    window, and a (c, kernel, count) column array.

    The returned ``cols_of(sample)`` copies ``sample`` into the block at
    step ``at`` (the zeros around it are the padding) and returns the
    columns of the ``count`` windows that start at ``start``, ``start +
    stride``, ...: ``cols[c, k]`` is row ``c`` shifted by tap ``k``, copied
    whole. The window view is built once per buffer. When the windows are
    the sample's own steps, ``cols_of`` returns the sample itself.
    """
    if kernel == stride == 1 and at == start == 0 and count == n:
        return lambda sample: sample
    row = np.zeros((c, max(at + n, start + (count - 1) * stride + kernel)), dtype=dtype)
    cols = np.empty((c, kernel, count), dtype=dtype)
    win = np.lib.stride_tricks.sliding_window_view(row, kernel, axis=1)  # (c, L', K)
    win = win[:, start : start + (count - 1) * stride + 1 : stride].transpose(0, 2, 1)

    def cols_of(sample: Array) -> Array:
        row[:, at : at + sample.shape[1]] = sample
        np.copyto(cols, win)
        return cols

    return cols_of


def _gemm_weight(w: Array, groups: int, adjoint: bool = False) -> Array:
    """The (K, C_in/groups, C_out) weight ``w`` as ``groups`` GEMM operands
    (groups, C_out/groups, C_in/groups * K), whose columns run over
    (channel, tap) as the rows of ``_im2col_scratch``'s columns do. The
    ``adjoint`` operands (groups, C_in/groups, C_out/groups * K) map an
    output gradient back to the input: each group's kernel transposed, its
    taps reversed."""
    kernel, c_in_g, c_out = w.shape
    w4 = w.reshape(kernel, c_in_g, groups, c_out // groups)
    w4 = w4[::-1].transpose(2, 1, 3, 0) if adjoint else w4.transpose(2, 3, 1, 0)
    return np.ascontiguousarray(w4).reshape(groups, w4.shape[1], -1)


def _correlate(x: Array, wt: Array, out: Array, kernel: int, stride: int, at: int, start: int,
               bias: Array | None = None) -> None:
    """``out[i] = wt @ cols_i + bias`` per group for every sample, where
    ``cols_i`` holds the ``out.shape[2]`` windows of ``kernel`` steps that
    start at ``start``, ``start + stride``, ... of a zero block with
    ``x[i]`` placed at ``at``, and ``wt`` is a ``_gemm_weight``. The batch
    is split over the process's CPUs (see ``_parallel``).
    """
    batch, c, n = x.shape
    groups, c_out_g, width = wt.shape

    def windows(lo, hi, cols_of):
        for i in range(lo, hi):
            cols = cols_of(x[i]).reshape(groups, width, -1)
            np.matmul(wt, cols, out=out[i].reshape(groups, c_out_g, -1))
            if bias is not None:
                out[i] += bias[:, None]

    _parallel(batch, windows,
              lambda: _im2col_scratch(n, c, kernel, stride, at, start, out.shape[2], x.dtype))


def _conv1d_param_grads(xd: Array, g: Array, wt: Array, kernel: int, stride: int, pad_l: int,
                        bias: bool) -> tuple[Array, Array | None]:
    """d(loss)/d(wt) for conv1d's ``_gemm_weight`` ``wt``, and d(loss)/d(bias)
    when ``bias`` asks for it: the sums over samples of ``g_i @ cols_i.T``
    per group, with ``cols_i`` the im2col columns of ``xd[i]``, and of
    ``g_i``'s float64 sums over time.

    The batch runs in rounds: the slices write each sample's product and
    sum, then the calling thread adds them in sample order. The products
    buffer holds at least ``_WORKERS`` of them and otherwise stays under
    ``_PRODUCTS_BYTES``, whatever the batch size.
    """
    batch, c_in, length = xd.shape
    groups, c_out_g, width = wt.shape
    dtype = np.result_type(xd, g)
    step = max(_WORKERS, _PRODUCTS_BYTES // (wt.size * dtype.itemsize))
    rows = min(step, batch)
    products = np.empty((rows,) + wt.shape, dtype=dtype)
    sums = np.empty((rows, g.shape[1])) if bias else None
    buffers = [_im2col_scratch(length, c_in, kernel, stride, pad_l, 0, g.shape[2], xd.dtype)
               for _ in range(min(_WORKERS, rows))]
    dwt = np.zeros_like(wt)
    db = np.zeros(g.shape[1]) if bias else None
    for start in range(0, batch, step):
        count = min(step, batch - start)

        def sample_sums(lo, hi, cols_of, start=start):
            for i in range(lo, hi):
                cols = cols_of(xd[start + i]).reshape(groups, width, -1)
                np.matmul(g[start + i].reshape(groups, c_out_g, -1), cols.transpose(0, 2, 1),
                          out=products[i])
            if bias:
                np.sum(g[start + lo : start + hi], axis=2, dtype=np.float64, out=sums[lo:hi])

        _parallel(count, sample_sums, iter(buffers).__next__)  # reused each round
        for i in range(count):
            dwt += products[i]
            if bias:
                db += sums[i]
    return dwt, None if db is None else db.astype(g.dtype)


def _conv1d_input_grad(g: Array, w: Array, groups: int, stride: int, length: int,
                       pad_l: int) -> Array:
    """d(loss)/d(x) for conv1d from the output gradient ``g`` (B, C_out,
    out_len) and the (K, C_in/groups, C_out) weight ``w``.

    The adjoint of a strided correlation is a stride-1 "full" correlation of
    the output gradient, zero-dilated by the stride, with the flipped kernel
    (Dumoulin & Visin, arXiv 1603.07285): ``dx[:, t] = sum_k w[k].T @ gd[:,
    t + pad_l - k]`` per group. So it runs through the same ``_correlate``
    as the forward pass, with ``gd`` placed after ``kernel - 1`` zero steps,
    on ``_gemm_weight``'s adjoint operands.
    """
    batch, c_out, out_len = g.shape
    kernel = w.shape[0]
    if stride > 1:
        gd = np.zeros((batch, c_out, (out_len - 1) * stride + 1), dtype=g.dtype)
        gd[:, :, ::stride] = g
        g = gd
    dx = np.empty((batch, w.shape[1] * groups, length), dtype=g.dtype)
    _correlate(g, _gemm_weight(w, groups, adjoint=True), dx, kernel, 1, kernel - 1, pad_l)
    return dx


def conv1d(x, w, b=None, stride: int = 1, groups: int = 1) -> Tensor:
    """Grouped 1-D convolution over channels-first input.

    x: (B, C_in, L); w: (K, C_in // groups, C_out); b: (C_out,) or None.
    "same"-style zero padding keeps the output length at ceil(L / stride).
    Output channel block ``o`` in group ``o // (C_out/groups)`` sees only its
    group's input channels.

    Each pass loops over the samples of each ``_parallel`` slice, and each
    sample runs as one batched GEMM over the groups, (groups, C_out/groups,
    C_in/groups * K) @ (groups, C_in/groups * K, out_len), so a grouped
    kernel does only its own FLOPs. The forward pass and the input VJP are
    one correlation (``_correlate``) that pads each sample into a scratch
    block, so no padded copy of the batch exists. The weight and bias
    gradients are per-sample products of the weight's size and float64 sums
    over time (``_conv1d_param_grads``), added in sample order by the
    calling thread a bounded round at a time, so every result is
    bit-identical for any CPU count (at a fixed BLAS thread count).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise AutodiffError("conv1d expects x (B,C,L) and w (K,C_in/groups,C_out)")
    batch, c_in, length = x.data.shape
    kernel, c_in_g, c_out = w.data.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise AutodiffError(f"groups={groups} must divide in/out channels ({c_in}, {c_out})")
    if c_in_g != c_in // groups:
        raise AutodiffError(f"weight expects {c_in // groups} channels per group, got {c_in_g}")

    out_len = -(-length // stride)  # ceil
    pad_l = max((out_len - 1) * stride + kernel - length, 0) // 2
    xd, wd = x.data, w.data
    wt = _gemm_weight(wd, groups)
    inputs = [x, w]
    bias = None
    if b is not None:
        b = _as_tensor(b)
        bias = b.data
        inputs.append(b)
    data = np.empty((batch, c_out, out_len), dtype=xd.dtype)
    _correlate(xd, wt, data, kernel, stride, pad_l, 0, bias)
    hx, hw, hb = _handles(x, w, b)

    def vjp(g):
        if hw is not None or hb is not None:
            dwt, db = _conv1d_param_grads(xd, g, wt, kernel, stride, pad_l, hb is not None)
        pairs = []
        if hw is not None:  # the (groups, C_out/groups, C_in/groups * K) product as w's layout
            dw = dwt.reshape(groups, c_out // groups, c_in_g, kernel).transpose(3, 2, 0, 1)
            pairs.append((hw, dw.reshape(wd.shape)))
        if hx is not None:
            pairs.append((hx, _conv1d_input_grad(g, wd, groups, stride, length, pad_l)))
        if hb is not None:
            pairs.append((hb, db))
        return pairs

    return _make_out(data, inputs, vjp)


# ---------------------------------------------------------------------------
# finite-difference validation harness


def grad_check(
    f: Callable[..., Tensor],
    points: Sequence[Array],
    eps: float = 1e-5,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps one Tensor per entry of ``points`` to a scalar Tensor. Every
    coordinate of every point is perturbed by ±eps; the worst relative error
    ``|a - n| / max(|a|, |n|, 1e-3)`` across coordinates is returned.
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
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if err > worst:
                worst = err
    return worst


def parameter(data) -> Tensor:
    """Leaf tensor with gradients enabled; float32 storage is preserved."""
    return Tensor(data, requires_grad=True)
