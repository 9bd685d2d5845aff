"""Dense float32 tensors, a reverse-mode autodiff tape, and an Adam step.

Tensors are immutable numpy-backed values; every public operation returns a
new tensor. Gradient tracking is opt-in: a Tape records primitive
applications in construction (= topological) order, and backward() walks the
record once, accumulating gradients per node. Nodes point back at their tape
only weakly, so a tape and its graph are freed by reference counting as soon
as the caller drops the tape and the tensors recorded on it.

A node saves only what the gradients of its tracked parents read, decided
when the op is recorded: its backward closure captures arrays and shapes,
never whole tensors, so a frozen weight's input is not kept for the weight's
gradient. For a parent without a node the closure returns None and computes
nothing. A closure leaves what it saved intact, so a tape may be walked more
than once. Primitives take Tensors (an outside array comes in through
Tensor(...)), and each decides once whether it records: with no tracked input
it builds no closure and hands _result None, and _result records a node
exactly when it is handed a backward function.
"""
from __future__ import annotations

import math
import struct
import weakref
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Gradient bookkeeping misuse: wrong tape, non-scalar loss, mixed tapes."""


class FormatError(ValueError):
    """Serialized tensor bytes are malformed; the message names the byte offset."""


class Node:
    """One recorded primitive application."""

    __slots__ = ("_tape", "idx", "op", "parents", "backward_fn")

    def __init__(self, tape, idx, op, parents, backward_fn):
        # weak, or Tape.nodes -> Node -> Tape is a cycle that only the
        # cyclic garbage collector frees, long after the step that built it
        self._tape = weakref.ref(tape)
        self.idx = idx
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def tape(self) -> "Tape":
        """The tape this node was recorded on; TapeError once it is freed."""
        tape = self._tape()
        if tape is None:
            raise TapeError(f"node {self.idx} ({self.op}) outlived its tape")
        return tape


class Tensor:
    """N-dimensional row-major float32 array, optionally tracked on a tape."""

    __slots__ = ("data", "node")

    def __init__(self, data, node: Node | None = None):
        arr = np.asarray(data, dtype=np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tracked = "" if self.node is None else f", node={self.node.idx}"
        return f"Tensor(shape={self.shape}{tracked})"


class Tape:
    """Ordered record of primitive applications plus the gradient map."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.gradients: dict[int, Tensor] = {}

    def watch(self, t: Tensor) -> Tensor:
        """Return a copy of ``t`` tracked as a leaf on this tape."""
        node = self._record("leaf", (), None)
        return Tensor(t.data, node)

    def _record(self, op, parents, backward_fn) -> Node:
        node = Node(self, len(self.nodes), op, parents, backward_fn)
        self.nodes.append(node)
        return node

    def grad(self, t: Tensor) -> Tensor | None:
        """Gradient of the last backward() for the watched leaf ``t``.

        None if ``t`` is not a leaf of this tape or the loss did not reach
        it. Interior gradients are dropped as backward() propagates them.
        """
        if t.node is None or t.node._tape() is not self:
            return None
        return self.gradients.get(t.node.idx)


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Populate tape.gradients for every watched leaf reachable from a
    scalar loss."""
    if loss.node is None or loss.node._tape() is not tape:
        raise TapeError("loss is not recorded on this tape")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.node.idx: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        if node.backward_fn is None:
            continue
        g = grads.pop(node.idx, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if parent is None or pg is None:
                continue
            acc = grads.get(parent.idx)
            grads[parent.idx] = pg if acc is None else acc + pg
    tape.gradients = {idx: Tensor(g) for idx, g in grads.items()}
    return tape.gradients


def _find_tape(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t.node is not None:
            if tape is None:
                tape = t.node.tape
            elif tape is not t.node.tape:
                raise TapeError("inputs were recorded on different tapes")
    return tape


_F32 = np.dtype(np.float32)


def _result(op: str, inputs: Sequence[Tensor], out: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple] | None) -> Tensor:
    # ops make float32 C-contiguous arrays, so skip Tensor.__init__'s
    # conversions; anything else still goes through them
    node = None if backward_fn is None else _find_tape(inputs)._record(
        op, tuple(t.node for t in inputs), backward_fn)
    if type(out) is not np.ndarray or out.dtype is not _F32 \
            or not out.flags.c_contiguous:
        return Tensor(out, node)
    res = object.__new__(Tensor)
    res.data = out
    res.node = node
    return res


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}") from None
    ka, kb = a.node is not None, b.node is not None
    if not (ka or kb):
        return _result("add", (a, b), out, None)
    sa, sb = a.shape, b.shape
    return _result("add", (a, b), out,
                   lambda g: (_unbroadcast(g, sa) if ka else None,
                              _unbroadcast(g, sb) if kb else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"cannot subtract shapes {a.shape} and {b.shape}") from None
    ka, kb = a.node is not None, b.node is not None
    if not (ka or kb):
        return _result("sub", (a, b), out, None)
    sa, sb = a.shape, b.shape
    return _result("sub", (a, b), out,
                   lambda g: (_unbroadcast(g, sa) if ka else None,
                              _unbroadcast(-g, sb) if kb else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}") from None
    ka, kb = a.node is not None, b.node is not None
    if not (ka or kb):
        return _result("mul", (a, b), out, None)
    sa, sb = a.shape, b.shape
    bd = b.data if ka else None  # a's gradient reads b, and b's reads a
    ad = a.data if kb else None
    return _result("mul", (a, b), out,
                   lambda g: (_unbroadcast(g * bd, sa) if ka else None,
                              _unbroadcast(g * ad, sb) if kb else None))


def scale(a: Tensor, c: float) -> Tensor:
    c = np.float32(float(c))
    out = a.data * c
    if a.node is None:
        return _result("scale", (a,), out, None)
    return _result("scale", (a,), out, lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an (..., m, k) stack and one (k, n) matrix, every
    row through one product: (..., m, n). Also two rank-3 stacks with the
    same leading batch: (B,m,k) x (B,k,n) -> (B,m,n)."""
    sa, sb = a.data.shape, b.data.shape
    stack = len(sa) >= 2 and len(sb) == 2
    batched = len(sa) == len(sb) == 3 and sa[0] == sb[0]
    if not (stack or batched) or sa[-1] != sb[-2]:
        raise ShapeError(f"cannot matmul shapes {sa} and {sb}")
    if batched:
        out = a.data @ b.data
    else:
        k, n = sb
        rows = a.data.reshape(-1, k)
        out = (rows @ b.data).reshape(sa[:-1] + (n,))
    ka, kb = a.node is not None, b.node is not None
    if not (ka or kb):
        return _result("matmul", (a, b), out, None)
    bd = b.data if ka else None  # a's gradient reads b, and b's reads a
    if batched:
        ad = a.data if kb else None
        return _result("matmul", (a, b), out,
                       lambda g: (g @ bd.swapaxes(-1, -2) if ka else None,
                                  ad.swapaxes(-1, -2) @ g if kb else None))
    rows = rows if kb else None

    def bwd(g):
        g = g.reshape(-1, n)
        return ((g @ bd.T).reshape(sa) if ka else None,
                rows.T @ g if kb else None)

    return _result("matmul", (a, b), out, bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))
    if a.node is None:
        return _result("transpose", (a,), out, None)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _result("transpose", (a,), out, lambda g: (g.transpose(inv),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from None
    if a.node is None:
        return _result("reshape", (a,), out, None)
    in_shape = a.shape
    return _result("reshape", (a,), out, lambda g: (g.reshape(in_shape),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat requires at least one part")
    rank = parts[0].data.ndim
    if not 0 <= axis < rank:
        raise ShapeError(f"concat axis {axis} out of range for rank {rank}")
    for p in parts[1:]:
        if p.data.ndim != rank or any(
                p.shape[i] != parts[0].shape[i] for i in range(rank) if i != axis):
            raise ShapeError(
                f"concat extents disagree off axis {axis}: "
                f"{parts[0].shape} vs {p.shape}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    kept = [p.node is not None for p in parts]
    if not any(kept):
        return _result("concat", parts, out, None)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def bwd(g):
        sl = [slice(None)] * rank
        pieces = []
        for i, keep in enumerate(kept):
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(sl)] if keep else None)
        return tuple(pieces)

    return _result("concat", parts, out, bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    rank = a.data.ndim
    if not 0 <= axis < rank:
        raise ShapeError(f"slice axis {axis} out of range for rank {rank}")
    if not 0 <= start <= stop <= a.shape[axis]:
        raise ShapeError(f"slice [{start}:{stop}] invalid for extent {a.shape[axis]}")
    sl = [slice(None)] * rank
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = np.ascontiguousarray(a.data[sl])
    if a.node is None:
        return _result("slice", (a,), out, None)
    in_shape = a.shape

    def bwd(g):
        full = np.zeros(in_shape, dtype=np.float32)
        full[sl] = g
        return (full,)

    return _result("slice", (a,), out, bwd)


def gather_rows(a: Tensor, index) -> Tensor:
    """Take rows along axis -2: ``out[..., j, :] = a[..., index[..., j], :]``.

    ``index`` is an integer array whose leading axes match or broadcast to
    ``a``'s leading axes; rows may repeat, and their gradients accumulate.
    """
    index = np.asarray(index)
    rows = a.shape[-2] if a.data.ndim >= 2 else 0
    if (index.ndim < 1 or not np.issubdtype(index.dtype, np.integer)
            or not (0 <= index.min() and index.max() < rows)):
        raise ShapeError(f"cannot gather rows {index.shape} of {index.dtype} "
                         f"from shape {a.shape}")
    try:
        index = np.broadcast_to(index, a.shape[:-2] + index.shape[-1:])
    except ValueError:
        raise ShapeError(f"gather index {index.shape} does not fit {a.shape}") from None
    out = np.take_along_axis(a.data, index[..., None], axis=-2)
    if a.node is None:
        return _result("gather_rows", (a,), out, None)
    in_shape = a.shape

    def bwd(g):
        full = np.zeros(in_shape, dtype=np.float32)
        lead_idx = np.indices(index.shape, sparse=True)[:-1]
        np.add.at(full, (*lead_idx, index), g)
        return (full,)

    return _result("gather_rows", (a,), out, bwd)


def repeat_axis(a: Tensor, axis: int, times: int) -> Tensor:
    """Repeat each element ``times`` times along ``axis`` (nearest upsample)."""
    if times < 1:
        raise ShapeError("repeat count must be >= 1")
    out = np.repeat(a.data, times, axis=axis)
    if a.node is None:
        return _result("repeat", (a,), out, None)
    in_shape = a.shape

    def bwd(g):
        folded = g.reshape(in_shape[:axis] + (in_shape[axis], times) + in_shape[axis + 1:])
        return (folded.sum(axis=axis + 1),)

    return _result("repeat", (a,), out, bwd)


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32)
    if a.node is None:
        return _result("sum", (a,), out, None)
    in_shape = a.shape

    def bwd(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, in_shape).astype(np.float32),)

    return _result("sum", (a,), out, bwd)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32)
    if a.node is None:
        return _result("mean", (a,), out, None)
    in_shape = a.shape
    n = a.data.size if axis is None else in_shape[axis]

    def bwd(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return ((np.broadcast_to(gg, in_shape) / np.float32(n)).astype(np.float32),)

    return _result("mean", (a,), out, bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    rank = a.data.ndim
    if not -rank <= axis < rank:
        raise ShapeError(f"softmax axis {axis} out of range for rank {rank}")
    # one buffer for shift, exp and normalise keeps batched score stacks small
    # (_row_max may copy the stack for a moment to find the shift)
    out = a.data - _row_max(a.data, axis)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    if a.node is None:
        return _result("softmax", (a,), out, None)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _result("softmax", (a,), out, bwd)


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis, keepdims=True)``. numpy reduces short rows one at a time,
    so rows of at most 128 entries are reduced across rows instead, from a
    contiguous copy with the axis first; max is exact, so the result has the
    same bits either way. On the attention score stacks the copy is 1.6-8x
    faster for rows of 4-80 entries, about even at 128, and slower from 192 on."""
    if x.shape[axis] > 128:
        return x.max(axis=axis, keepdims=True)
    axis %= x.ndim
    reduced_first = (axis,) + tuple(i for i in range(x.ndim) if i != axis)
    across = x.transpose(reduced_first).copy().max(axis=0)
    return across.reshape(x.shape[:axis] + (1,) + x.shape[axis + 1:])


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True, dtype=np.float32)`` without numpy's
    Python wrapper: the float32 row sum divided in place by the row length.
    The wrapper divides in float64 and rounds to float32, which gives the
    correctly rounded float32 quotient, so the bits are the same."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= np.float32(x.shape[-1])
    return m


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The stable logistic: 1/(1+e) for x >= 0 and e/(1+e) below, with
    e = exp(-|x|). e <= 1 where x >= 0, so the numerator max(e, x >= 0) is
    exactly 1 there and e elsewhere: the same bits as ``np.where``."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """The branch-select formula ``_sigmoid`` must equal bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax_reference(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The per-row-max formula ``softmax`` must equal bit for bit."""
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def silu(a: Tensor) -> Tensor:
    x = a.data
    sig = _sigmoid(x)
    out = x * sig
    if a.node is None:
        return _result("silu", (a,), out, None)
    # save the derivative, not x and sig: the same expression, the same bits
    slope = sig * (1.0 + x * (1.0 - sig))
    return _result("silu", (a,), out, lambda g: (g * slope,))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm params must have shape ({d},), "
                         f"got {gamma.shape} and {beta.shape}")
    mu = _row_mean(x.data)
    xc = x.data - mu
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xh = xc * inv
    out = gamma.data * xh + beta.data
    kx, kgamma, kbeta = x.node is not None, gamma.node is not None, beta.node is not None
    if not (kx or kgamma or kbeta):
        return _result("layer_norm", (x, gamma, beta), out, None)
    # dx reads inv, gamma and xh; dgamma reads xh; dbeta reads only g
    gd, inv = (gamma.data, inv) if kx else (None, None)
    xh = xh if kx or kgamma else None

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if kgamma:
            dgamma = ((g * xh).sum(axis=lead) if lead else g * xh).astype(np.float32)
        if kbeta:
            dbeta = (g.sum(axis=lead) if lead else g).astype(np.float32)
        if kx:
            dxh = g * gd
            dx = inv * (dxh - _row_mean(dxh) - xh * _row_mean(dxh * xh))
            dx = dx.astype(np.float32)
        return dx, dgamma, dbeta

    return _result("layer_norm", (x, gamma, beta), out, bwd)


def conv_temporal(x: Tensor, kernel: Tensor) -> Tensor:
    """Convolve along the frame axis (axis 0) with same-size zero padding.

    A rank-1 kernel (kw,) filters every channel/location identically, as the
    (1, 1, kw) kernel over ``x`` viewed as (frames, 1, rest); a rank-3 kernel
    (C_out, C_in, kw) also mixes channels, with channels on axis 1 of ``x``.
    Kernel width must be odd.
    """
    kw = kernel.shape[-1]
    if kw % 2 == 0:
        raise ShapeError(f"temporal kernel width must be odd, got {kw}")
    if kernel.data.ndim not in (1, 3):
        raise ShapeError(f"kernel must be rank 1 or 3, got shape {kernel.shape}")
    rank1 = kernel.data.ndim == 1
    kd = kernel.data.reshape(1, 1, kw) if rank1 else kernel.data
    c_out, c_in, _ = kd.shape
    if not rank1 and (x.data.ndim < 2 or x.shape[1] != c_in):
        raise ShapeError(f"input channels {x.shape} do not match kernel {kernel.shape}")
    frames = x.shape[0]
    pad = kw // 2
    out_shape = x.shape if rank1 else (frames, c_out) + x.shape[2:]
    xf = x.data.reshape(frames, c_in, -1)
    pad_block = np.zeros((pad,) + xf.shape[1:], dtype=np.float32)
    xpf = np.concatenate([pad_block, xf, pad_block], axis=0)
    out = np.zeros((frames, c_out, xpf.shape[2]), dtype=np.float32)
    for j in range(kw):
        out += np.matmul(kd[:, :, j], xpf[j:j + frames])
    out = out.reshape(out_shape)
    kx, kk = x.node is not None, kernel.node is not None
    if not (kx or kk):
        return _result("conv_t", (x, kernel), out, None)
    x_shape, kshape, xpf_shape = x.shape, kernel.shape, xpf.shape
    kd = kd if kx else None  # dx reads the kernel
    saved_xpf = xpf if kk else None  # dkernel reads the padded input

    def bwd(g):
        gf = g.reshape(frames, c_out, -1)
        dx = dk = None
        if kx:
            dxp = np.zeros(xpf_shape, dtype=np.float32)
            for j in range(kw):
                dxp[j:j + frames] += np.matmul(kd[:, :, j].T, gf)
            dx = dxp[pad:pad + frames].reshape(x_shape)
        if kk:
            dk = np.zeros((c_out, c_in, kw), dtype=np.float32)
            for j in range(kw):
                dk[:, :, j] = np.tensordot(gf, saved_xpf[j:j + frames],
                                           axes=([0, 2], [0, 2]))
            dk = dk.reshape(kshape)
        return dx, dk

    return _result("conv_t", (x, kernel), out, bwd)


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """Adam moment accumulators; step counter strictly increases."""

    def __init__(self, lr: float = 3e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, Tensor], grads: dict[str, Tensor | None],
              state: AdamState) -> dict[str, Tensor]:
    """One Adam update; returns new parameter tensors (inputs untouched)."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    out: dict[str, Tensor] = {}
    for name, p in params.items():
        g = grads.get(name)
        garr = np.zeros_like(p.data) if g is None else g.data
        if garr.shape != p.data.shape:
            raise ShapeError(f"gradient shape {garr.shape} does not match "
                             f"parameter {name} shape {p.data.shape}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * garr
        v = state.beta2 * v + (1.0 - state.beta2) * garr * garr
        state.m[name] = m
        state.v[name] = v
        mhat = m / bc1
        vhat = v / bc2
        out[name] = Tensor(p.data - state.lr * mhat / (np.sqrt(vhat) + state.eps))
    return out


# ---------------------------------------------------------------------------
# randomness and the tensor container


# A weight group's layout: one (name, shape, init) entry per tensor, in draw
# order. An init is the std of a normal draw or a fill function of the shape.
Init = float | Callable[[tuple[int, ...]], Tensor]
Layout = list[tuple[str, tuple[int, ...], Init]]


class Rng:
    """The library's single named pseudorandom stream (PCG64)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape: Sequence[int], std: float = 1.0) -> Tensor:
        return Tensor(self._gen.normal(0.0, std, size=tuple(shape)).astype(np.float32))

    def draw(self, layout: Layout) -> dict[str, Tensor]:
        """Name -> tensor of each entry, drawn in order; fills draw nothing."""
        return {name: init(shape) if callable(init) else self.normal(shape, init)
                for name, shape, init in layout}

    def integer(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=np.float32))


def ones(shape: Sequence[int]) -> Tensor:
    return Tensor(np.ones(tuple(shape), dtype=np.float32))


_MAGIC = b"MELT"
_VERSION = 1
_DTYPE_F32 = 0


def tensor_bytes(t: Tensor) -> bytes:
    """Serialize: magic, version, dtype code, rank u32, dims u32, f32 payload (LE)."""
    dims = t.shape
    head = _MAGIC + bytes([_VERSION, _DTYPE_F32]) + struct.pack("<I", len(dims))
    head += b"".join(struct.pack("<I", d) for d in dims)
    return head + t.data.astype("<f4", copy=False).tobytes(order="C")


def tensor_from_bytes(raw: bytes) -> Tensor:
    """Parse a MELT container; malformed bytes raise FormatError."""
    if len(raw) < 10:
        raise FormatError(f"MELT header truncated at byte {len(raw)}: "
                          f"needs 10 bytes")
    if raw[:4] != _MAGIC:
        raise FormatError("not a MELT container: bad magic at byte 0")
    if raw[4] != _VERSION:
        raise FormatError(f"unsupported MELT version {raw[4]} at byte 4")
    if raw[5] != _DTYPE_F32:
        raise FormatError(f"unsupported MELT dtype code {raw[5]} at byte 5")
    (rank,) = struct.unpack_from("<I", raw, 6)
    offset = 10 + 4 * rank
    if len(raw) < offset:
        raise FormatError(f"MELT dims truncated at byte {len(raw)}: rank {rank} "
                          f"needs {offset} header bytes")
    dims = struct.unpack_from(f"<{rank}I", raw, 10)
    count = math.prod(dims)
    end = offset + 4 * count
    if len(raw) < end:
        raise FormatError(f"MELT payload truncated at byte {len(raw)}: shape "
                          f"{tuple(dims)} needs {end} bytes")
    if len(raw) > end:
        raise FormatError(f"{len(raw) - end} trailing bytes after the MELT "
                          f"payload at byte {end}")
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return Tensor(data.reshape(dims).astype(np.float32))


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_bytes(t))


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return tensor_from_bytes(raw)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
