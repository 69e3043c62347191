"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Design notes:
  * Eager execution. Ops run immediately on numpy data; when a ``Tape`` is
    active and an input requires gradients, the op appends an adjoint
    closure to the tape. ``Tape.backward`` replays closures in reverse
    execution order, which is a valid reverse topological order because
    execution order itself is topological.
  * Layout convention for sequence data is channels-last ``(batch, length,
    channels)`` so 1x1 convolutions and dense layers map onto single BLAS
    calls.
  * float64 throughout. numpy's pairwise summation makes reductions
    reproducible for a fixed thread count.
"""

from __future__ import annotations

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
    def dtype(self):
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "vjp")

    def __init__(self, out: Tensor, vjp: Callable[[Array], list[tuple[Tensor, Array]]]):
        self.out = out
        self.vjp = vjp


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class Tape:
    """Ordered op record for one forward/backward pair.

    A tape is single-use: ``backward`` may run once unless ``reset`` is
    called. Tapes are confined to the thread that opened them; separate
    threads may run separate tapes concurrently.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack().pop()

    def _record(self, out: Tensor, vjp) -> None:
        self._nodes.append(_Node(out, vjp))

    def reset(self) -> None:
        self._nodes.clear()
        self._spent = False

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into ``leaf.grad`` for all leaves.

        ``output`` must be scalar (size 1); its seed gradient is 1.
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
        for node in reversed(self._nodes):
            slot = grads.pop(id(node.out), None)
            tensors.pop(id(node.out), None)
            if slot is None:
                continue  # this intermediate does not influence the output
            for tensor, contrib in node.vjp(slot[0]):
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


def _active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _coerce_operand(other, ref: Tensor):
    """Keep python numbers raw (numpy weak promotion preserves dtype);
    cast array constants to the reference dtype; pass Tensors through."""
    if isinstance(other, Tensor):
        return other
    if isinstance(other, (int, float)):
        return float(other)
    return Tensor(np.asarray(other, dtype=ref.dtype))


def _make_out(data: Array, inputs: Sequence[Tensor], vjp_builder) -> Tensor:
    """Create the output tensor and record the adjoint when tracing."""
    if _DEBUG_FINITE and not np.all(np.isfinite(data)):
        raise AutodiffError("non-finite values produced by op (debug finite check)")
    tape = _active_tape()
    tracked = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        tape._record(out, vjp_builder(out))
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
# elementwise ops


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _coerce_operand(b, a)
    if isinstance(b, float):
        data = a.data + b

        def build(out):
            return lambda g: [(a, g)]

        return _make_out(data, (a,), build)
    data = a.data + b.data

    def build(out):
        def vjp(g):
            pairs = []
            if a.requires_grad:
                pairs.append((a, _unbroadcast(g, a.data.shape)))
            if b.requires_grad:
                pairs.append((b, _unbroadcast(g, b.data.shape)))
            return pairs

        return vjp

    return _make_out(data, (a, b), build)


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _coerce_operand(b, a)
    if isinstance(b, float):
        data = a.data - b

        def build(out):
            return lambda g: [(a, g)]

        return _make_out(data, (a,), build)
    data = a.data - b.data

    def build(out):
        def vjp(g):
            pairs = []
            if a.requires_grad:
                pairs.append((a, _unbroadcast(g, a.data.shape)))
            if b.requires_grad:
                pairs.append((b, _unbroadcast(-g, b.data.shape)))
            return pairs

        return vjp

    return _make_out(data, (a, b), build)


def mul(a, b) -> Tensor:
    """Elementwise (and broadcast) multiply; covers scalar and mask scaling."""
    a = _as_tensor(a)
    b = _coerce_operand(b, a)
    if isinstance(b, float):
        data = a.data * b

        def build(out):
            return lambda g: [(a, g * b)]

        return _make_out(data, (a,), build)
    data = a.data * b.data

    def build(out):
        def vjp(g):
            pairs = []
            if a.requires_grad:
                pairs.append((a, _unbroadcast(g * b.data, a.data.shape)))
            if b.requires_grad:
                pairs.append((b, _unbroadcast(g * a.data, b.data.shape)))
            return pairs

        return vjp

    return _make_out(data, (a, b), build)


def square(a) -> Tensor:
    a = _as_tensor(a)
    data = a.data * a.data

    def build(out):
        return lambda g: [(a, g * (2.0 * a.data))]

    return _make_out(data, (a,), build)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    data = np.exp(a.data)

    def build(out):
        return lambda g: [(a, g * out.data)]

    return _make_out(data, (a,), build)


def log(a) -> Tensor:
    a = _as_tensor(a)
    data = np.log(a.data)

    def build(out):
        return lambda g: [(a, g / a.data)]

    return _make_out(data, (a,), build)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    data = _sigmoid_stable(a.data)

    def build(out):
        def vjp(g):
            da = 1.0 - out.data
            da *= out.data
            da *= g
            return [(a, da)]

        return vjp

    return _make_out(data, (a,), build)


def swish(a) -> Tensor:
    """x * sigmoid(x), the activation used throughout the encoder."""
    a = _as_tensor(a)
    s = _sigmoid_stable(a.data)
    data = a.data * s

    def build(out):
        def vjp(g):
            da = 1.0 - s
            da *= s
            da *= a.data
            da += s
            da *= g
            return [(a, da)]

        return vjp

    return _make_out(data, (a,), build)


def abs_(a) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)

    def build(out):
        return lambda g: [(a, g * np.sign(a.data))]

    return _make_out(data, (a,), build)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed stably; adjoint is sigmoid(x)."""
    a = _as_tensor(a)
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def build(out):
        return lambda g: [(a, g * _sigmoid_stable(x))]

    return _make_out(data, (a,), build)


def _sigmoid_stable(x: Array) -> Array:
    # exp(-x) overflow for very negative x saturates to inf, giving an exact
    # 0 after the reciprocal — correct under IEEE semantics, so only the
    # warning needs suppressing. Avoids branch masks (two extra passes).
    with np.errstate(over="ignore"):
        out = np.exp(-x)
        out += 1.0
        np.reciprocal(out, out=out)
    return out


# ---------------------------------------------------------------------------
# shape / reduction ops


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    data = a.data.reshape(shape)

    def build(out):
        return lambda g: [(a, g.reshape(old))]

    return _make_out(data, (a,), build)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("transpose expects a 2-D tensor")
    data = a.data.T.copy()

    def build(out):
        return lambda g: [(a, g.T)]

    return _make_out(data, (a,), build)


def _reduce(a: Array, axis, how: str) -> Array:
    # reductions accumulate in 64-bit even in 32-bit storage mode
    fn = np.sum if how == "sum" else np.mean
    if a.dtype == np.float32:
        return fn(a, axis=axis, dtype=np.float64).astype(np.float32)
    return fn(a, axis=axis)


def sum_(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    data = _reduce(a.data, axis, "sum")

    def build(out):
        def vjp(g):
            if axis is None:
                return [(a, np.broadcast_to(g, a.data.shape).copy())]
            ge = np.expand_dims(g, axis)
            return [(a, np.broadcast_to(ge, a.data.shape).copy())]

        return vjp

    return _make_out(data, (a,), build)


def mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    data = _reduce(a.data, axis, "mean")
    n = a.data.size if axis is None else a.data.shape[axis]

    def build(out):
        def vjp(g):
            if axis is None:
                return [(a, np.broadcast_to(g / n, a.data.shape).copy())]
            ge = np.expand_dims(g / n, axis)
            return [(a, np.broadcast_to(ge, a.data.shape).copy())]

        return vjp

    return _make_out(data, (a,), build)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError("matmul expects 2-D tensors")
    data = a.data @ b.data

    def build(out):
        def vjp(g):
            pairs = []
            if a.requires_grad:
                pairs.append((a, g @ b.data.T))
            if b.requires_grad:
                pairs.append((b, a.data.T @ g))
            return pairs

        return vjp

    return _make_out(data, (a, b), build)


def dense(x, w, b=None) -> Tensor:
    """Affine layer ``x @ w + b`` for 2-D ``x``."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2:
        raise AutodiffError("dense expects 2-D input")
    data = x.data @ w.data
    if b is not None:
        b = _as_tensor(b)
        data = data + b.data

    def build(out):
        def vjp(g):
            pairs = []
            if x.requires_grad:
                pairs.append((x, g @ w.data.T))
            if w.requires_grad:
                pairs.append((w, x.data.T @ g))
            if b is not None and b.requires_grad:
                pairs.append((b, g.sum(axis=0)))
            return pairs

        return vjp

    inputs = (x, w) if b is None else (x, w, b)
    return _make_out(data, inputs, build)


def row_l2_normalize(a, eps_reject: float = 0.0) -> Tensor:
    """Normalize each row of a 2-D tensor to unit L2 norm.

    Zero rows signal a degenerate embedding and raise.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise AutodiffError("row_l2_normalize expects a 2-D tensor")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    if np.any(norms <= eps_reject):
        raise AutodiffError("zero row passed to row_l2_normalize (degenerate embedding)")
    data = a.data / norms

    def build(out):
        def vjp(g):
            dot = (g * out.data).sum(axis=1, keepdims=True)
            return [(a, (g - out.data * dot) / norms)]

        return vjp

    return _make_out(data, (a,), build)


# ---------------------------------------------------------------------------
# convolution


def _same_padding(length: int, kernel: int, stride: int) -> tuple[int, int, int]:
    out_len = -(-length // stride)  # ceil
    pad_total = max((out_len - 1) * stride + kernel - length, 0)
    left = pad_total // 2
    return out_len, left, pad_total - left


def _im2col(xp_row: Array, kernel: int, stride: int, out_len: int) -> Array:
    """(L_pad, C) -> (out_len, K*C) column matrix for one sample (cache-sized)."""
    win = np.lib.stride_tricks.sliding_window_view(xp_row, kernel, axis=0)  # (L', C, K)
    if stride > 1:
        win = win[::stride]
    return np.ascontiguousarray(win[:out_len].transpose(0, 2, 1)).reshape(out_len, -1)


def _conv1d_input_grad(g: Array, w2: Array, xp_shape, kernel: int, c_in: int,
                       c_out: int, stride: int, out_len: int, pad_l: int,
                       length: int) -> Array:
    """d(loss)/d(x) for conv1d.

    stride 1: the adjoint is itself a correlation ("full" conv of the output
    gradient with the flipped kernel), run as one im2col GEMM per sample.
    stride > 1 falls back to strided scatter-adds.
    """
    batch = g.shape[0]
    if stride == 1:
        # w2 rows are ordered (k, c_in); flip k and swap to (k, c_out) rows
        wf = np.ascontiguousarray(
            w2.reshape(kernel, c_in, c_out)[::-1].transpose(0, 2, 1)
        ).reshape(kernel * c_out, c_in)
        gp = np.pad(g, ((0, 0), (kernel - 1, kernel - 1), (0, 0)))
        n_xp = xp_shape[1]
        dxp = np.empty((batch, n_xp, c_in), dtype=g.dtype)
        for i in range(batch):
            np.matmul(_im2col(gp[i], kernel, 1, n_xp), wf, out=dxp[i])
    else:
        dxp = np.zeros(xp_shape, dtype=g.dtype)
        span = (out_len - 1) * stride + 1
        for i in range(batch):
            dcol = (g[i] @ w2.T).reshape(out_len, kernel, c_in)
            for k in range(kernel):
                dxp[i, k : k + span : stride] += dcol[:, k, :]
    if dxp.shape[1] != length:
        dxp = dxp[:, pad_l : pad_l + length, :]
    return dxp


def conv1d(x, w, b=None, stride: int = 1, groups: int = 1) -> Tensor:
    """Grouped 1-D convolution over channels-last input.

    x: (B, L, C_in); w: (K, C_in // groups, C_out); b: (C_out,) or None.
    "same"-style zero padding keeps the output length at ceil(L / stride).
    Output channel block ``o`` in group ``o // (C_out/groups)`` sees only its
    group's input channels.

    The grouped kernel runs as a dense GEMM with a block-diagonal weight;
    column matrices are built per sample so they stay cache-resident (one
    shared buffer would be re-streamed from much slower main memory).
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
    xp = np.pad(x.data, ((0, 0), (pad_l, pad_r), (0, 0))) if pad_l or pad_r else x.data
    wd = _expand_grouped(w.data, c_in, c_out, groups)
    w2 = np.ascontiguousarray(wd.reshape(kernel * c_in, c_out))

    out = np.empty((batch, out_len, c_out), dtype=x.data.dtype)
    if kernel == 1 and stride == 1:
        np.matmul(xp.reshape(-1, c_in), w2, out=out.reshape(-1, c_out))
    else:
        for i in range(batch):
            np.matmul(_im2col(xp[i], kernel, stride, out_len), w2, out=out[i])
    if b is not None:
        b = _as_tensor(b)
        out += b.data

    def build(out_t):
        def vjp(g):
            pairs = []
            need_w = w.requires_grad
            need_x = x.requires_grad
            if need_w or need_x:
                if kernel == 1 and stride == 1:
                    dw2 = xp.reshape(-1, c_in).T @ g.reshape(-1, c_out) if need_w else None
                    dx = (g.reshape(-1, c_out) @ w2.T).reshape(batch, length, c_in) if need_x else None
                else:
                    dw2 = np.zeros_like(w2) if need_w else None
                    dx = None
                    if need_w:
                        for i in range(batch):
                            col = _im2col(xp[i], kernel, stride, out_len)
                            dw2 += col.T @ g[i]
                    if need_x:
                        dx = _conv1d_input_grad(g, w2, xp.shape, kernel, c_in, c_out,
                                                stride, out_len, pad_l, length)
                if need_w:
                    dwd = dw2.reshape(kernel, c_in, c_out)
                    pairs.append((w, _collapse_grouped(dwd, c_in, c_out, groups)))
                if need_x:
                    pairs.append((x, dx))
            if b is not None and b.requires_grad:
                db = g.sum(axis=(0, 1), dtype=np.float64).astype(g.dtype)
                pairs.append((b, db))
            return pairs

        return vjp

    inputs = (x, w) if b is None else (x, w, b)
    return _make_out(out, inputs, build)


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
