"""Dense tensors with reverse-mode differentiation on top of numpy.

Every operation the adapter pipeline composes lives here: elementwise
arithmetic, matrix products, 2D convolution, the central-difference term,
windowed sums for histogram pooling, activations, norms, and a finite
difference gradient checker that every backward rule is validated against.

Conventions:
  * convolution is cross-correlation (no kernel flip),
  * gradients accumulate across uses; callers zero them between steps,
  * add, sub and mul broadcast one operand into the other's shape by
    numpy's rules; a pair that would broadcast to a third shape is
    rejected,
  * tests run in 64-bit floats so finite differences have headroom.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "GradCheckReport",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "matmul",
    "conv2d",
    "central_difference_term",
    "window_sum3x3",
    "pad2d",
    "exp",
    "gelu",
    "softmax_lastdim",
    "layernorm",
    "sum_all",
    "mean_all",
    "frobenius_sq",
    "reshape",
    "transpose",
    "concat",
    "take_rows",
    "graph_op",
    "no_grad",
    "accumulate_grad",
    "finite_difference_check",
]

_FLOAT_TYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """n-dimensional real array that records the ops producing it.

    ``data`` is a numpy float array (float64 unless the caller passes
    float32). ``grad`` stays ``None`` until a backward pass reaches the
    tensor; it then holds an array of the same shape. Tensors created
    with ``requires_grad=False`` never participate in graphs and are
    safe to share across threads.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed=None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Without an explicit ``seed`` the tensor must be scalar (the usual
        loss case); the seed is then 1.
        """
        if seed is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without a seed needs a scalar output, got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(
                    f"seed shape {seed.shape} does not match output shape {self.shape}"
                )
        if not self.requires_grad:
            return
        order = _toposort(self)
        accumulate_grad(self, seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __getitem__(self, idx):
        return _basic_slice(self, idx)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _toposort(root: Tensor) -> list:
    order: list = []
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, allocating the buffer on first touch."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # private copy: g may be shared with or viewed by other consumers
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: every op result is a plain constant.

    Nests, and restores the previous mode on exit, also when the block
    raises. The mode is per thread.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def graph_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op result into the graph.

    ``backward`` receives the incoming gradient array and is responsible
    for calling :func:`accumulate_grad` on each parent. Extension point
    for ops defined outside this module. Under :func:`no_grad` the result
    has no parents and does not require grad.
    """
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _check_elementwise(a: Tensor, b: Tensor, name: str) -> None:
    if a.shape == b.shape:
        return
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        shape = None
    if shape not in (a.shape, b.shape):
        raise ShapeError(
            f"{name}: shapes {a.shape} and {b.shape} are incompatible; "
            "one operand must broadcast to the other's shape"
        )


def _accumulate_broadcast(t: Tensor, g: np.ndarray) -> None:
    """Accumulate ``g`` into ``t``, summed over the axes ``t`` was broadcast along.

    A frozen ``t`` gets no gradient, so no sum is built for it.
    """
    if not t.requires_grad:
        return
    if g.shape != t.shape and t.size == 1:
        g = np.sum(g).reshape(t.shape)
    elif g.shape != t.shape:
        extra = g.ndim - t.ndim
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        expanded = tuple(i for i, n in enumerate(t.shape) if n == 1 and g.shape[i] != 1)
        if expanded:
            g = g.sum(axis=expanded, keepdims=True)
    accumulate_grad(t, g)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "add")

    def backward(g):
        _accumulate_broadcast(a, g)
        _accumulate_broadcast(b, g)

    return graph_op(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        _accumulate_broadcast(a, g)
        _accumulate_broadcast(b, -g)

    return graph_op(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product."""
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        _accumulate_broadcast(a, g * b.data)
        _accumulate_broadcast(b, g * a.data)

    return graph_op(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar."""
    a = _lift(a)
    s = float(s)

    def backward(g):
        accumulate_grad(a, g * s)

    return graph_op(a.data * s, (a,), backward)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes.

    2D inputs give the plain m×k @ k×n product. Higher-rank inputs are
    treated as stacks of matrices and must share their leading extents
    exactly (used for per-head attention).
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul stacked dimensions disagree: {a.shape} vs {b.shape}"
        )

    def backward(g):
        if a.requires_grad:
            accumulate_grad(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            accumulate_grad(b, np.swapaxes(a.data, -1, -2) @ g)

    return graph_op(a.data @ b.data, (a, b), backward)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation with zero padding.

    ``x`` is (Cin, H, W) or batched (B, Cin, H, W); ``kernel`` is
    (Cout, Cin, kh, kw) with odd kh, kw. Output spatial extents follow
    (H + 2*padding - kh)//stride + 1.
    """
    x, kernel = _lift(x), _lift(kernel)
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be 4D, got {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    squeeze = x.ndim == 3
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be 3D or 4D, got {x.shape}")
    xs = x.data[None] if squeeze else x.data
    if xs.shape[1] != cin:
        raise ShapeError(
            f"conv2d channel mismatch: input has {xs.shape[1]}, kernel expects {cin}"
        )
    batch, _, h, w = xs.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ShapeError(
            f"conv2d produces non-positive output extent {h_out}x{w_out} "
            f"for input {h}x{w}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    if bias is not None:
        bias = _lift(bias)
        if bias.shape != (cout,):
            raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.shape}")

    xp = np.pad(xs, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.tensordot(windows, kernel.data, axes=([1, 4, 5], [1, 2, 3]))
    out = np.moveaxis(out, 3, 1)  # (B, Cout, H', W')
    if bias is not None:
        out = out + bias.data[:, None, None]

    def backward(g):
        gb = g[None] if squeeze else g
        if kernel.requires_grad:
            accumulate_grad(
                kernel, np.tensordot(gb, windows, axes=([0, 2, 3], [0, 2, 3]))
            )
        if bias is not None and bias.requires_grad:
            accumulate_grad(bias, gb.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            taps = np.tensordot(gb, kernel.data, axes=([1], [0]))
            # taps: (B, H', W', Cin, kh, kw) scattered back over the strides
            gxp = np.zeros_like(xp)
            for dh in range(kh):
                for dw in range(kw):
                    gxp[:, :, dh:dh + stride * h_out:stride,
                        dw:dw + stride * w_out:stride] += \
                        taps[:, :, :, :, dh, dw].transpose(0, 3, 1, 2)
            gx = gxp[:, :, padding:padding + h, padding:padding + w]
            accumulate_grad(x, gx[0] if squeeze else gx)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return graph_op(out[0] if squeeze else out, parents, backward)


_VALID_TAP_CACHE: dict = {}


def _valid_taps(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(h, w, kh, kw) mask of kernel taps that land inside the grid."""
    key = (h, w, kh, kw)
    mask = _VALID_TAP_CACHE.get(key)
    if mask is None:
        rows = np.arange(h)[:, None] + np.arange(kh)[None, :] - kh // 2
        cols = np.arange(w)[:, None] + np.arange(kw)[None, :] - kw // 2
        row_ok = (rows >= 0) & (rows < h)
        col_ok = (cols >= 0) & (cols < w)
        mask = (row_ok[:, None, :, None] & col_ok[None, :, None, :]).astype(np.float64)
        _VALID_TAP_CACHE[key] = mask
    return mask


def central_difference_term(x: Tensor, kernel: Tensor) -> Tensor:
    """Kernel-weighted sum of differences between each 3x3 neighbor and the center.

    out[o,h,w] = sum over in-grid taps p of kernel[o,i,p] * (x[i,p] - x[i,h,w]),
    summed over input channels i. Neighbors that fall outside the grid are
    excluded, so a spatially constant input yields an exactly zero output
    (each retained term is built from a literal zero difference). Stride 1,
    shape preserving.
    """
    x, kernel = _lift(x), _lift(kernel)
    if kernel.ndim != 4:
        raise ShapeError(f"kernel must be 4D, got {kernel.shape}")
    cout, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel extents must be odd, got {kh}x{kw}")
    squeeze = x.ndim == 3
    xs = x.data[None] if squeeze else x.data
    if xs.ndim != 4 or xs.shape[1] != cin:
        raise ShapeError(
            f"input shape {x.shape} does not fit kernel {kernel.shape}"
        )
    batch, _, h, w = xs.shape
    ph, pw = kh // 2, kw // 2

    xp = np.pad(xs, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))  # (B,Cin,H,W,kh,kw)
    mask = _valid_taps(h, w, kh, kw)
    diffs = (windows - xs[:, :, :, :, None, None]) * mask
    out = np.tensordot(diffs, kernel.data, axes=([1, 4, 5], [1, 2, 3]))
    out = np.moveaxis(out, 3, 1)  # (B, Cout, H, W)

    def backward(g):
        gb = g[None] if squeeze else g
        if kernel.requires_grad:
            accumulate_grad(
                kernel, np.tensordot(gb, diffs, axes=([0, 2, 3], [0, 2, 3]))
            )
        if x.requires_grad:
            # (B, H, W, Cin, kh, kw), masked like the forward differences
            gdiff = np.tensordot(gb, kernel.data, axes=([1], [0])) \
                * mask[:, :, None, :, :]
            gxp = np.zeros_like(xp)
            for dh in range(kh):
                for dw in range(kw):
                    gxp[:, :, dh:dh + h, dw:dw + w] += \
                        gdiff[:, :, :, :, dh, dw].transpose(0, 3, 1, 2)
            gx = gxp[:, :, ph:ph + h, pw:pw + w]
            gx -= gdiff.sum(axis=(4, 5)).transpose(0, 3, 1, 2)
            accumulate_grad(x, gx[0] if squeeze else gx)

    return graph_op(out[0] if squeeze else out, (x, kernel), backward)


def window_sum3x3(x: Tensor) -> Tensor:
    """Valid-mode sum over every 3x3 window of the last two axes.

    (..., H, W) -> (..., H-2, W-2). Callers wanting shape preservation pad
    first with :func:`pad2d`.
    """
    x = _lift(x)
    if x.ndim < 2 or x.shape[-1] < 3 or x.shape[-2] < 3:
        raise ShapeError(f"window_sum3x3 needs trailing extents >= 3, got {x.shape}")
    h_out, w_out = x.shape[-2] - 2, x.shape[-1] - 2
    out = np.zeros(x.shape[:-2] + (h_out, w_out), dtype=x.data.dtype)
    for dh in range(3):
        for dw in range(3):
            out += x.data[..., dh:dh + h_out, dw:dw + w_out]

    def backward(g):
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        for dh in range(3):
            for dw in range(3):
                gx[..., dh:dh + h_out, dw:dw + w_out] += g
        accumulate_grad(x, gx)

    return graph_op(out, (x,), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    x = _lift(x)
    if x.ndim < 2:
        raise ShapeError(f"pad2d needs at least 2 axes, got {x.shape}")
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    h, w = x.shape[-2], x.shape[-1]

    def backward(g):
        accumulate_grad(x, g[..., pad:pad + h, pad:pad + w])

    return graph_op(np.pad(x.data, width), (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = _lift(x)
    y = np.exp(x.data)

    def backward(g):
        accumulate_grad(x, g * y)

    return graph_op(y, (x,), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    x = _lift(x)
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        accumulate_grad(x, g * (cdf + x.data * pdf))

    return graph_op(x.data * cdf, (x,), backward)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax along the last axis (max-shifted for stability)."""
    x = _lift(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        accumulate_grad(x, y * (g - dot))

    return graph_op(y, (x,), backward)


def layernorm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, shift = _lift(x), _lift(gain), _lift(shift)
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(
            f"layernorm gain/shift must have shape ({d},), got {gain.shape}/{shift.shape}"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv

    def backward(g):
        if gain.requires_grad:
            accumulate_grad(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if shift.requires_grad:
            accumulate_grad(shift, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data
            accumulate_grad(
                x,
                inv * (gh - gh.mean(axis=-1, keepdims=True)
                       - xhat * (gh * xhat).mean(axis=-1, keepdims=True)),
            )

    return graph_op(xhat * gain.data + shift.data, (x, gain, shift), backward)


def sum_all(x: Tensor) -> Tensor:
    x = _lift(x)

    def backward(g):
        accumulate_grad(x, np.full(x.shape, float(g), dtype=x.data.dtype))

    return graph_op(np.asarray(x.data.sum()), (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    x = _lift(x)
    n = x.size

    def backward(g):
        accumulate_grad(x, np.full(x.shape, float(g) / n, dtype=x.data.dtype))

    return graph_op(np.asarray(x.data.mean()), (x,), backward)


def frobenius_sq(x: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm)."""
    x = _lift(x)

    def backward(g):
        accumulate_grad(x, 2.0 * float(g) * x.data)

    return graph_op(np.asarray((x.data * x.data).sum()), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(shape)

    def backward(g):
        accumulate_grad(x, g.reshape(x.shape))

    return graph_op(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    x = _lift(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        accumulate_grad(x, np.transpose(g, inverse))

    return graph_op(np.transpose(x.data, axes), (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate_grad(t, g[tuple(idx)])

    return graph_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 (duplicate indices accumulate gradient)."""
    x = _lift(x)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        np.add.at(gx, indices, g)
        accumulate_grad(x, gx)

    return graph_op(x.data[indices], (x,), backward)


def _basic_slice(x: Tensor, idx) -> Tensor:
    def backward(g):
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        gx[idx] += g
        accumulate_grad(x, gx)

    return graph_op(x.data[idx], (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    """Outcome of comparing reverse-mode gradients with central differences."""

    op_name: str
    max_relative_error: float
    element_count: int
    passed: bool

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{self.op_name:<28s} n={self.element_count:<5d} "
                f"max rel err={self.max_relative_error:.3e}  [{status}]")


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            eps: float = 1e-5, tolerance: float = 1e-5,
                            op_name: str = "f") -> GradCheckReport:
    """Compare reverse-mode d f / d x against central differences.

    ``f`` must map ``x`` to a scalar tensor and must not cache state across
    calls. Relative error uses denominator max(|analytic|, |numeric|, 1e-8)
    per element.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ShapeError(f"finite_difference_check needs scalar f, got shape {out.shape}")
    out.backward()
    analytic = np.zeros(x.shape, dtype=np.float64) if x.grad is None else x.grad.astype(np.float64)

    flat = x.data.reshape(-1)
    numeric = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig - eps
        f_minus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)

    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(op_name, max_rel, int(flat.size), max_rel < tolerance)
