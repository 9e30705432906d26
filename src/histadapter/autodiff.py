"""Dense float64 tensors with reverse-mode differentiation on top of numpy.

The ops the model composes live here (add, mul, scale, reshape,
transpose, concat, basic indexing, gelu, layernorm, sum_all), with a
finite difference gradient checker that every backward rule is validated
against.

The layers call four fused ops, each one graph node with a hand-written
backward: :func:`linear`, :func:`cdc_conv`, :func:`soft_histogram` and
:func:`attention`; ``losses.batch_tsr`` is a fifth. Each runs the same
float operations, in the same order, as the chain of primitives it
replaces, so results and gradients equal the chain's bit for bit;
``tests/reference_ops.py`` holds those chains and the primitives only
they use (``sub``, ``matmul``, ``frobenius_sq``, ``take_rows``, ...).

Nodes link gradient records, not data, and each backward keeps only the
arrays it reads, so an interior tensor's ``data`` lives only while its
caller holds it or some backward reads it. Backward consumes the graph:
:meth:`Tensor.backward` drops each record's parents, gradient and backward
once that backward has run. Leaves keep ``grad``; a second backward
through a consumed node raises ``ValueError``.

Conventions:
  * convolution is cross-correlation (no kernel flip), stride 1, zero
    padded to keep the grid's shape,
  * the spatial ops take one layout, a batch of channel-first grids
    (B, C, H, W); a single grid is a batch of one,
  * gradients accumulate across uses; callers zero them between steps,
  * add and mul broadcast one operand into the other's shape by
    numpy's rules; a pair that would broadcast to a third shape is
    rejected,
  * data and gradients are 64-bit floats, so finite differences have
    headroom.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ShapeError",
    "GradCheckReport",
    "add",
    "mul",
    "scale",
    "linear",
    "cdc_conv",
    "soft_histogram",
    "gelu",
    "attention",
    "layernorm",
    "sum_all",
    "reshape",
    "transpose",
    "concat",
    "graph_op",
    "no_grad",
    "grad_enabled",
    "accumulate_grad",
    "finite_difference_check",
]

_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))
LAYERNORM_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class _Record:
    """A tensor's place in the graph: whether it gets a gradient, the gradient,
    its parents' records and its backward. It holds no data, so a node's
    output is freed when its tensor is, unless some backward saved it."""

    __slots__ = ("requires_grad", "grad", "parents", "backward", "__weakref__")

    def __init__(self, requires_grad: bool):
        self.requires_grad = requires_grad
        self.grad = None
        self.parents: tuple = ()
        self.backward: Callable | None = None


def _record_field(name: str) -> property:
    return property(lambda t: getattr(t._record, name),
                    lambda t, value: setattr(t._record, name, value))


class Tensor:
    """n-dimensional real array that records the ops producing it.

    ``data`` is a float64 numpy array; other input is converted, float32
    included. ``grad`` stays ``None`` until a backward pass reaches the
    tensor; it then holds an array of the same shape. Tensors created
    with ``requires_grad=False`` never participate in graphs and are
    safe to share across threads.
    """

    __slots__ = ("data", "_record", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self._record = _Record(bool(requires_grad))

    # graph fields live on the record; ``_backward`` may be replaced to wrap it
    requires_grad = _record_field("requires_grad")
    grad = _record_field("grad")
    _backward = _record_field("backward")

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
        self._record.grad = None

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar tensor (a loss), seeded with 1.

        The pass consumes the graph it walks. Once a node's backward has
        run, its record drops its parents, its gradient and its backward,
        so the arrays a step built are freed as the pass goes. Leaves
        (parameters and inputs) keep their ``grad``. A later backward that
        reaches a consumed node raises ``ValueError``.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")
        root = self._record
        if not root.requires_grad:
            return
        order = _toposort(root)
        accumulate_grad(root, np.ones_like(self.data))
        # reverse topological order: each node's consumers have all run, so
        # its gradient is complete when it is used and freed
        while order:
            node = order.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
            node.parents = ()
            node.grad = None
            node.backward = _consumed

    def __getitem__(self, idx):
        """Basic indexing only: ints, slices, ``None`` and ``Ellipsis``.

        An array index could repeat an entry, and the scatter in this
        backward would then drop all but one of its gradients.
        """
        for part in idx if isinstance(idx, tuple) else (idx,):
            if not isinstance(part, _BASIC_INDEX):
                raise ShapeError(f"Tensor index takes ints, slices, None and Ellipsis, "
                                 f"got {type(part).__name__}")

        record, shape = self._record, self.shape

        def backward(g):
            gx = np.zeros(shape)
            gx[idx] += g
            accumulate_grad(record, gx)

        return graph_op(self.data[idx], (self,), backward)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _consumed(g) -> None:
    raise ValueError("graph already consumed by backward()")


def _toposort(root: _Record) -> list:
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
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def accumulate_grad(t, g: np.ndarray) -> None:
    """Add ``g`` into the gradient of ``t`` (a tensor or its record),
    allocating the buffer on first touch."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # private copy: g may be shared with or viewed by other consumers
        t.grad = np.array(g, dtype=np.float64)
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


def grad_enabled() -> bool:
    """Whether ops build a graph here: False inside :func:`no_grad`."""
    return _grad_mode.enabled


def graph_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Wrap an op result into the graph.

    ``backward`` receives the incoming gradient array and is responsible
    for calling :func:`accumulate_grad` on each parent's record. It should
    hold the records and the arrays it reads, not the parent tensors, so
    that their data is freed when the caller drops them. Extension point
    for ops defined outside this module. Under :func:`no_grad` the result
    has no parents and does not require grad.
    """
    out = Tensor(data)
    if _grad_mode.enabled and any(p._record.requires_grad for p in parents):
        record = out._record
        record.requires_grad = True
        record.parents = tuple(p._record for p in parents)
        record.backward = backward
    return out


def _builds_graph(t: Tensor) -> bool:
    """Whether an op on ``t`` builds a node that passes ``t`` a gradient."""
    return _grad_mode.enabled and t._record.requires_grad


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes an operand of ``shape`` was broadcast along."""
    if g.shape != shape and math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        expanded = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
        if expanded:
            g = g.sum(axis=expanded, keepdims=True)
    return g


def _accumulate_broadcast(record: _Record, g: np.ndarray, shape: tuple) -> None:
    """Accumulate ``g`` into ``record``, summed over the axes its tensor, of
    ``shape``, was broadcast along; a frozen tensor gets no sum built."""
    if record.requires_grad:
        accumulate_grad(record, _unbroadcast(g, shape))


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "add")
    ra, rb, shape_a, shape_b = a._record, b._record, a.shape, b.shape

    def backward(g):
        _accumulate_broadcast(ra, g, shape_a)
        _accumulate_broadcast(rb, g, shape_b)

    return graph_op(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product."""
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "mul")
    ra, rb, shape_a, shape_b = a._record, b._record, a.shape, b.shape
    # each operand's gradient reads the other one
    data_a = a.data if _builds_graph(b) else None
    data_b = b.data if _builds_graph(a) else None

    def backward(g):
        if ra.requires_grad:
            _accumulate_broadcast(ra, g * data_b, shape_a)
        if rb.requires_grad:
            _accumulate_broadcast(rb, g * data_a, shape_b)

    return graph_op(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a plain python scalar."""
    a = _lift(a)
    s = float(s)
    record = a._record

    def backward(g):
        accumulate_grad(record, g * s)

    return graph_op(a.data * s, (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map on the last axis, ``x @ weight + bias``, as one node.

    ``x`` is (..., in), ``weight`` (in, out), ``bias`` (out,). Leading axes
    are flattened into the rows of one 2D product, so the result and every
    gradient equal those of the reshape / ``matmul`` / :func:`add` /
    reshape chain bit for bit. Frozen operands get no gradient.
    """
    x, weight, bias = _lift(x), _lift(weight), _lift(bias)
    if weight.ndim != 2 or bias.shape != weight.shape[1:]:
        raise ShapeError(
            f"linear needs a 2D weight and a bias of its output width, "
            f"got {weight.shape} and {bias.shape}"
        )
    in_dim, out_dim = weight.shape
    if x.ndim == 0 or x.shape[-1] != in_dim:
        raise ShapeError(f"linear layer expects width {in_dim}, got input shape {x.shape}")
    flat = x.data.reshape(-1, in_dim)
    out = flat @ weight.data
    out += bias.data
    rx, rw, rb, x_shape, rows = x._record, weight._record, bias._record, x.shape, flat.shape[0]
    # the input's gradient reads the weight, the weight's reads the input
    w = weight.data if _builds_graph(x) else None
    saved_flat = flat if _builds_graph(weight) else None

    def backward(g):
        g = g.reshape(rows, out_dim)
        _accumulate_broadcast(rb, g, (out_dim,))
        if rx.requires_grad:
            accumulate_grad(rx, (g @ w.T).reshape(x_shape))
        if rw.requires_grad:
            accumulate_grad(rw, saved_flat.T @ g)

    return graph_op(out.reshape(x_shape[:-1] + (out_dim,)), (x, weight, bias), backward)


def _scatter_taps(taps: np.ndarray) -> np.ndarray:
    """Gradient of a (B, Cin, H, W) input from the per-tap gradients
    (B, H, W, Cin, kh, kw) of the same-padded stride-1 windows a conv read
    from it. The taps are summed into a channels-last zero-bordered buffer,
    each element in tap order, then the border is cut off."""
    b, h, w, cin, kh, kw = taps.shape
    gxp = np.zeros((h + kh - 1, w + kw - 1, b, cin), dtype=taps.dtype)
    by_tap = taps.transpose(1, 2, 0, 3, 4, 5)
    for dh in range(kh):
        for dw in range(kw):
            gxp[dh:dh + h, dw:dw + w] += by_tap[..., dh, dw]
    ph, pw = kh // 2, kw // 2
    return np.ascontiguousarray(gxp[ph:ph + h, pw:pw + w].transpose(2, 3, 0, 1))


def _check_conv(name: str, x: Tensor, kernel: Tensor) -> None:
    """A (B, Cin, H, W) input and a (Cout, Cin, kh, kw) kernel with odd kh, kw."""
    if kernel.ndim != 4:
        raise ShapeError(f"{name} kernel must be 4D, got {kernel.shape}")
    _, cin, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"{name} kernel extents must be odd, got {kh}x{kw}")
    if x.ndim != 4 or x.shape[1] != cin:
        raise ShapeError(f"{name} needs a (B, {cin}, H, W) input for this kernel, got {x.shape}")


@functools.lru_cache(maxsize=None)
def _valid_taps(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(h, w, kh, kw) mask of kernel taps that land inside the grid."""
    rows = np.arange(h)[:, None] + np.arange(kh)[None, :] - kh // 2
    cols = np.arange(w)[:, None] + np.arange(kw)[None, :] - kw // 2
    row_ok = (rows >= 0) & (rows < h)
    col_ok = (cols >= 0) & (cols < w)
    return (row_ok[:, None, :, None] & col_ok[None, :, None, :]).astype(np.float64)


@functools.lru_cache(maxsize=None)
def _window_index(cin: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """(h, w, cin, kh, kw) flat positions, in a (cin, h + kh - 1, w + kw - 1)
    zero-bordered grid, of the taps each output position reads."""
    rows = np.arange(h)[:, None, None, None, None] + np.arange(kh)[None, None, None, :, None]
    cols = np.arange(w)[None, :, None, None, None] + np.arange(kw)[None, None, None, None, :]
    channels = np.arange(cin)[None, None, :, None, None]
    return (channels * (h + kh - 1) + rows) * (w + kw - 1) + cols


def cdc_conv(x: Tensor, kernel: Tensor, bias: Tensor, theta: float) -> Tensor:
    """Central-difference convolution as one node:
    ``(1 - theta) * conv(x, kernel, bias) + theta * difference_term(x, kernel)``.

    The conv term is a cross-correlation plus bias; the difference term
    sums kernel-weighted differences between each in-grid neighbor and the
    center, so it is exactly zero on a constant input. Stride 1 with zero
    padding kh//2, kw//2, so the (B, Cin, H, W) grid keeps its shape. One
    gather from a zero-bordered copy builds the im2col matrix both terms
    read. Forward and backward run the same float operations as
    ``cdc_chain`` in ``tests/reference_ops.py`` (``conv2d``,
    ``central_difference_term``, :func:`scale`, :func:`add`), so results are
    bit-identical to it; at ``theta == 0`` the difference term is skipped
    and the result equals the conv term alone.
    """
    x, kernel, bias = _lift(x), _lift(kernel), _lift(bias)
    _check_conv("cdc_conv", x, kernel)
    cout, cin, kh, kw = kernel.shape
    if bias.shape != (cout,):
        raise ShapeError(f"cdc_conv bias must have shape ({cout},), got {bias.shape}")
    theta = float(theta)
    b, _, h, w = x.shape
    ph, pw = kh // 2, kw // 2

    xp = np.zeros((b, cin, h + 2 * ph, w + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + w] = x.data
    # (B, H, W, Cin, kh, kw): the layout the products contract over the last three
    cols = xp.reshape(b, -1)[:, _window_index(cin, h, w, kh, kw)]
    # the 2D operands np.tensordot builds for these contractions, multiplied
    # by the same np.dot, so the products equal tensordot's bit for bit
    taps_by_out = kernel.data.transpose(1, 2, 3, 0).reshape(-1, cout)

    def contract(rows):
        return np.moveaxis(np.dot(rows.reshape(b * h * w, -1), taps_by_out)
                           .reshape(b, h, w, cout), 3, 1)

    out = contract(cols) + bias.data[:, None, None]
    if theta != 0.0:
        mask = _valid_taps(h, w, kh, kw)[:, :, None]
        diffs = cols - x.data.transpose(0, 2, 3, 1)[..., None, None]
        diffs *= mask
        out *= 1.0 - theta
        difference = contract(diffs)
        out += np.multiply(difference, theta, out=difference)
    rx, rk, rb, k = x._record, kernel._record, bias._record, kernel.data

    def backward(g):
        # (term gradient, im2col rows the term read, mask of its taps), in the
        # order the chain accumulated them: the conv term, then the difference term
        terms = [(g, cols, None)] if theta == 0.0 else \
            [(g * (1.0 - theta), cols, None), (g * theta, diffs, mask)]
        for gt, rows, tap_mask in terms:
            if rk.requires_grad:
                gk = np.dot(gt.transpose(1, 0, 2, 3).reshape(cout, -1),
                            rows.reshape(b * h * w, -1))
                accumulate_grad(rk, gk.reshape(k.shape))
            if tap_mask is None and rb.requires_grad:
                accumulate_grad(rb, gt.sum(axis=(0, 2, 3)))
            if rx.requires_grad:
                taps = np.dot(gt.transpose(0, 2, 3, 1).reshape(b * h * w, cout),
                              k.reshape(cout, -1)).reshape(b, h, w, cin, kh, kw)
                if tap_mask is not None:
                    taps *= tap_mask
                gx = _scatter_taps(taps)
                if tap_mask is not None:
                    gx -= taps.sum(axis=(4, 5)).transpose(0, 3, 1, 2)
                accumulate_grad(rx, gx)

    return graph_op(out, (x, kernel, bias), backward)


def soft_histogram(z: Tensor, mu: Tensor, gamma: Tensor) -> Tensor:
    """Soft-binned 3x3 histogram pooling as one node.

    For channel c the response at (h, w) is the mean over the zero-padded
    3x3 window of ``exp(-(gamma_c * (z - mu_c))^2)``; ``z`` is (B, C, H, W)
    and ``mu``, ``gamma`` are (C,). Forward and backward run the same float
    operations as ``histogram_chain`` in ``tests/reference_ops.py``
    (``pad2d``, ``sub``, :func:`mul`, ``exp``, :func:`scale`,
    ``window_sum3x3``), so results are bit-identical to it.
    """
    z, mu, gamma = _lift(z), _lift(mu), _lift(gamma)
    if z.ndim != 4:
        raise ShapeError(f"soft_histogram input must be (B, C, H, W), got {z.shape}")
    _, c, h, w = z.shape
    if mu.shape != (c,) or gamma.shape != (c,):
        raise ShapeError(
            f"soft_histogram needs one bin per channel: input has {c} channels, "
            f"mu/gamma have shapes {mu.shape}/{gamma.shape}"
        )
    per_channel = (c, 1, 1)
    gamma_c = gamma.data.reshape(per_channel)
    centered = np.zeros(z.shape[:2] + (h + 2, w + 2))
    centered[..., 1:1 + h, 1:1 + w] = z.data
    centered -= mu.data.reshape(per_channel)
    u = gamma_c * centered
    e = np.exp(-(u * u))
    pooled = np.zeros(z.shape, dtype=e.dtype)
    for dh in range(3):
        for dw in range(3):
            pooled += e[..., dh:dh + h, dw:dw + w]
    inv_window = 1.0 / 9
    rz, rmu, rgamma = z._record, mu._record, gamma._record

    def backward(g):
        g = g * inv_window
        ge = np.zeros(e.shape, dtype=e.dtype)
        for dh in range(3):
            for dw in range(3):
                ge[..., dh:dh + h, dw:dw + w] += g
        gu = -(ge * e) * u
        gu = gu + gu  # u * u reads u twice
        if rgamma.requires_grad:
            accumulate_grad(rgamma, _unbroadcast(gu * centered, per_channel).reshape(c))
        gc = gu * gamma_c
        if rmu.requires_grad:
            accumulate_grad(rmu, _unbroadcast(-gc, per_channel).reshape(c))
        if rz.requires_grad:
            accumulate_grad(rz, gc[..., 1:1 + h, 1:1 + w])

    return graph_op(pooled * inv_window, (z, mu, gamma), backward)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    x = _lift(x)
    cdf = x.data * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    record, slope = x._record, None
    if _builds_graph(x):  # the derivative, the one array the backward reads
        slope = x.data * -0.5
        slope *= x.data
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= x.data
        slope += cdf

    def backward(g):
        accumulate_grad(record, g * slope)

    cdf *= x.data
    return graph_op(cdf, (x,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node, heads merged back.

    ``q``, ``k`` and ``v`` are (B, N, d) and are split into ``heads`` heads of
    width d / heads; the result is (B, N, d), before any output projection.
    Forward and backward run the same float operations as ``attention_chain``
    in ``tests/reference_ops.py`` (head split by :func:`reshape` and
    :func:`transpose`, ``matmul``, :func:`scale`, a max-shifted softmax,
    ``matmul``, merge), so results are bit-identical to it. Only the
    softmax output and views of the operands are kept for the backward.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention needs (B, N, d) q, k and v of one shape, "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    b, n, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention width {d} does not split into {heads} heads")
    dh = d // heads

    def split(t):
        return np.transpose(t.data.reshape(b, n, heads, dh), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    s = float(1.0 / np.sqrt(dh))
    # scores, then softmax along the keys, in place
    y = qh @ np.transpose(kh, (0, 1, 3, 2))
    y *= s
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    rq, rk, rv = q._record, k._record, v._record

    def backward(g):
        gc = np.transpose(g.reshape(b, n, heads, dh), (0, 2, 1, 3))
        if rq.requires_grad or rk.requires_grad:
            ga = gc @ np.swapaxes(vh, -1, -2)
            gs = y * (ga - (ga * y).sum(axis=-1, keepdims=True)) * s
            if rq.requires_grad:
                accumulate_grad(rq, np.transpose(gs @ kh, (0, 2, 1, 3)).reshape(b, n, d))
            if rk.requires_grad:
                gkt = np.swapaxes(qh, -1, -2) @ gs
                accumulate_grad(rk, np.transpose(gkt, (0, 3, 1, 2)).reshape(b, n, d))
        if rv.requires_grad:
            gv = np.swapaxes(y, -1, -2) @ gc
            accumulate_grad(rv, np.transpose(gv, (0, 2, 1, 3)).reshape(b, n, d))

    out = np.transpose(y @ vh, (0, 2, 1, 3)).reshape(b, n, d)
    return graph_op(out, (q, k, v), backward)


def layernorm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, shift = _lift(x), _lift(gain), _lift(shift)
    d = x.shape[-1]
    if gain.shape != (d,) or shift.shape != (d,):
        raise ShapeError(
            f"layernorm gain/shift must have shape ({d},), got {gain.shape}/{shift.shape}"
        )
    # centered once; the variance is np.var's own sequence of operations
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    var = out.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv
    rx, rgain, rshift, gain_data = x._record, gain._record, shift._record, gain.data

    def backward(g):
        if rgain.requires_grad:
            accumulate_grad(rgain, (g * xhat).reshape(-1, d).sum(axis=0))
        if rshift.requires_grad:
            accumulate_grad(rshift, g.reshape(-1, d).sum(axis=0))
        if rx.requires_grad:
            gh = g * gain_data
            accumulate_grad(
                rx,
                inv * (gh - gh.mean(axis=-1, keepdims=True)
                       - xhat * (gh * xhat).mean(axis=-1, keepdims=True)),
            )

    np.multiply(xhat, gain_data, out=out)
    out += shift.data
    return graph_op(out, (x, gain, shift), backward)


def sum_all(x: Tensor) -> Tensor:
    x = _lift(x)
    record, shape = x._record, x.shape

    def backward(g):
        accumulate_grad(record, np.full(shape, float(g)))

    return graph_op(np.asarray(x.data.sum()), (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(shape)
    record, x_shape = x._record, x.shape

    def backward(g):
        accumulate_grad(record, g.reshape(x_shape))

    return graph_op(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    x = _lift(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    record = x._record

    def backward(g):
        accumulate_grad(record, np.transpose(g, inverse))

    return graph_op(np.transpose(x.data, axes), (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    records = [t._record for t in tensors]

    def backward(g):
        for record, lo, hi in zip(records, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate_grad(record, g[tuple(idx)])

    return graph_op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


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


FD_EPS = 1e-5


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor,
                            tolerance: float = 1e-5,
                            op_name: str = "f") -> GradCheckReport:
    """Compare reverse-mode d f / d x against central differences of step
    :data:`FD_EPS`.

    ``f`` must map ``x`` to a scalar tensor and must not cache state across
    calls. Relative error uses denominator max(|analytic|, |numeric|, 1e-8)
    per element.
    """
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
        flat[i] = orig + FD_EPS
        f_plus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig - FD_EPS
        f_minus = float(f(x).data.reshape(-1)[0])
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * FD_EPS)

    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    max_rel = float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(op_name, max_rel, int(flat.size), max_rel < tolerance)
