"""Primitive ops and the chains the program's fused ops replace.

The model runs ``linear``, ``cdc_conv``, ``soft_histogram`` and
``attention`` (``histadapter.autodiff``) and the style regularizer
``batch_tsr`` (``histadapter.losses``) as one graph node each. Their
forward and backward follow the float operations of the chains below in
the same order, so the fused results and gradients equal the chains' bit
for bit. The chains are built from graph nodes defined here with
:func:`histadapter.autodiff.graph_op` (``sub``, ``matmul``,
``frobenius_sq``, ``take_rows``, ``conv2d``, ``central_difference_term``,
``pad2d``, ``window_sum3x3``, ``exp``, ``softmax_lastdim``) and from the
library's own ops. Spatial ops take (B, C, H, W) batches, like the fused
ones.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from histadapter import autodiff as ad
from histadapter.autodiff import (
    ShapeError,
    Tensor,
    _accumulate_broadcast,
    _check_conv,
    _check_elementwise,
    _lift,
    _valid_taps,
    accumulate_grad,
    graph_op,
)


def sub(a, b) -> Tensor:
    """Elementwise difference; one operand broadcasts into the other's shape."""
    a, b = _lift(a), _lift(b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        _accumulate_broadcast(a, g, a.shape)
        _accumulate_broadcast(b, -g, b.shape)

    return graph_op(a.data - b.data, (a, b), backward)


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


def frobenius_sq(x: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm)."""
    x = _lift(x)

    def backward(g):
        accumulate_grad(x, 2.0 * float(g) * x.data)

    return graph_op(np.asarray((x.data * x.data).sum()), (x,), backward)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows along axis 0 (duplicate indices accumulate gradient)."""
    x = _lift(x)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        np.add.at(gx, indices, g)
        accumulate_grad(x, gx)

    return graph_op(x.data[indices], (x,), backward)


def _scatter_taps(taps: np.ndarray, padded_shape: tuple) -> np.ndarray:
    """Gradient of a padded (B, Cin, Hp, Wp) input from the per-tap gradients
    (B, H, W, Cin, kh, kw) of the stride-1 windows a conv read from it."""
    gxp = np.zeros(padded_shape, dtype=taps.dtype)
    _, h, w, _, kh, kw = taps.shape
    for dh in range(kh):
        for dw in range(kw):
            gxp[:, :, dh:dh + h, dw:dw + w] += taps[:, :, :, :, dh, dw].transpose(0, 3, 1, 2)
    return gxp


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """2D cross-correlation, stride 1, zero padding kh//2, kw//2, plus a bias.

    ``x`` is (B, Cin, H, W), ``kernel`` (Cout, Cin, kh, kw) with odd kh, kw
    and ``bias`` (Cout,); the output is (B, Cout, H, W). The conv term of
    ``cdc_conv``.
    """
    _check_conv("conv2d", x, kernel)
    cout, _, kh, kw = kernel.shape
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    _, _, h, w = x.shape
    ph, pw = kh // 2, kw // 2

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))  # (B,Cin,H,W,kh,kw)
    out = np.tensordot(windows, kernel.data, axes=([1, 4, 5], [1, 2, 3]))
    out = np.moveaxis(out, 3, 1) + bias.data[:, None, None]  # (B, Cout, H, W)

    def backward(g):
        if kernel.requires_grad:
            accumulate_grad(kernel, np.tensordot(g, windows, axes=([0, 2, 3], [0, 2, 3])))
        if bias.requires_grad:
            accumulate_grad(bias, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            taps = np.tensordot(g, kernel.data, axes=([1], [0]))
            accumulate_grad(x, _scatter_taps(taps, xp.shape)[:, :, ph:ph + h, pw:pw + w])

    return graph_op(out, (x, kernel, bias), backward)


def central_difference_term(x: Tensor, kernel: Tensor) -> Tensor:
    """Kernel-weighted sum of differences between each neighbor and the center.

    out[b,o,h,w] = sum over in-grid taps p of kernel[o,i,p] * (x[b,i,p] - x[b,i,h,w]),
    summed over input channels i, for a (B, Cin, H, W) input. Neighbors
    that fall outside the grid are excluded, so a spatially constant input
    yields an exactly zero output. The difference term of ``cdc_conv``.
    """
    _check_conv("central_difference_term", x, kernel)
    _, _, kh, kw = kernel.shape
    _, _, h, w = x.shape
    ph, pw = kh // 2, kw // 2

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))  # (B,Cin,H,W,kh,kw)
    mask = _valid_taps(h, w, kh, kw)
    diffs = (windows - x.data[:, :, :, :, None, None]) * mask
    out = np.moveaxis(np.tensordot(diffs, kernel.data, axes=([1, 4, 5], [1, 2, 3])), 3, 1)

    def backward(g):
        if kernel.requires_grad:
            accumulate_grad(kernel, np.tensordot(g, diffs, axes=([0, 2, 3], [0, 2, 3])))
        if x.requires_grad:
            # (B, H, W, Cin, kh, kw), masked like the forward differences
            gdiff = np.tensordot(g, kernel.data, axes=([1], [0])) * mask[:, :, None, :, :]
            gx = _scatter_taps(gdiff, xp.shape)[:, :, ph:ph + h, pw:pw + w]
            gx -= gdiff.sum(axis=(4, 5)).transpose(0, 3, 1, 2)
            accumulate_grad(x, gx)

    return graph_op(out, (x, kernel), backward)


def window_sum3x3(x: Tensor) -> Tensor:
    """Valid-mode sum over every 3x3 window of the last two axes:
    (..., H, W) -> (..., H-2, W-2)."""
    if x.ndim < 2 or x.shape[-1] < 3 or x.shape[-2] < 3:
        raise ShapeError(f"window_sum3x3 needs trailing extents >= 3, got {x.shape}")
    h_out, w_out = x.shape[-2] - 2, x.shape[-1] - 2
    out = np.zeros(x.shape[:-2] + (h_out, w_out))
    for dh in range(3):
        for dw in range(3):
            out += x.data[..., dh:dh + h_out, dw:dw + w_out]

    def backward(g):
        gx = np.zeros(x.shape)
        for dh in range(3):
            for dw in range(3):
                gx[..., dh:dh + h_out, dw:dw + w_out] += g
        accumulate_grad(x, gx)

    return graph_op(out, (x,), backward)


def pad2d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last two axes by ``pad`` on every side."""
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    h, w = x.shape[-2], x.shape[-1]

    def backward(g):
        accumulate_grad(x, g[..., pad:pad + h, pad:pad + w])

    return graph_op(np.pad(x.data, width), (x,), backward)


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)

    def backward(g):
        accumulate_grad(x, g * y)

    return graph_op(y, (x,), backward)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax along the last axis (max-shifted for stability)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        accumulate_grad(x, y * (g - dot))

    return graph_op(y, (x,), backward)


def linear_chain(x, weight, bias):
    """``ad.linear`` as reshape, matmul, add, reshape."""
    lead = x.shape[:-1]
    flat = x if x.ndim == 2 else ad.reshape(x, (-1 if lead else 1, weight.shape[0]))
    out = ad.add(matmul(flat, weight), bias)
    return out if x.ndim == 2 else ad.reshape(out, lead + (weight.shape[1],))


def cdc_chain(x, kernel, bias, theta):
    """``ad.cdc_conv``: the conv term blended with the difference term."""
    z = conv2d(x, kernel, bias)
    if theta == 0.0:
        return z
    zg = central_difference_term(x, kernel)
    return ad.add(ad.scale(z, 1.0 - theta), ad.scale(zg, theta))


def histogram_chain(z, mu, gamma):
    """``ad.soft_histogram``: the mean of exp(-(gamma (z - mu))^2) over each
    zero-padded 3x3 window."""
    per_channel = (mu.shape[0], 1, 1)
    centered = sub(pad2d(z, 1), ad.reshape(mu, per_channel))
    u = ad.mul(ad.reshape(gamma, per_channel), centered)
    e = exp(ad.scale(ad.mul(u, u), -1.0))
    return ad.scale(window_sum3x3(e), 1.0 / 9)


def attention_chain(q, k, v, heads):
    """``ad.attention``: split heads, scaled QK^T, softmax, AV, merge heads."""
    b, n, d = q.shape
    dh = d // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (b, n, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = ad.scale(matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    ctx = ad.transpose(matmul(softmax_lastdim(scores), v), (0, 2, 1, 3))
    return ad.reshape(ctx, (b, n, d))


def gram_chain(z):
    """The Gram matrix ``losses._gram`` takes of one (C, H, W) map, as
    reshape, matmul with its transpose, scale."""
    c, h, w = z.shape
    flat = ad.reshape(z, (c, h * w))
    return ad.scale(matmul(flat, ad.transpose(flat, (1, 0))), 1.0 / (c * h * w))


def tsr_chain(style_maps, labels, domain_ids):
    """``losses.batch_tsr``: each domain's bona fide maps, domains ascending,
    gathered and stacked along rows into one (C, m*H, W) map, then
    :func:`tsr_average_chain` over those maps."""
    labels = np.asarray(labels)
    domain_ids = np.asarray(domain_ids)
    bona_fide = labels == 0
    grids = []
    for dom in np.unique(domain_ids[bona_fide]):
        rows = take_rows(style_maps, np.flatnonzero(bona_fide & (domain_ids == dom)))
        m, c, h, w = rows.shape
        grids.append(ad.reshape(ad.transpose(rows, (1, 0, 2, 3)), (c, m * h, w)))
    return tsr_average_chain(grids)


def tsr_average_chain(grids):
    """The mean, over every unordered pair of (C, H, W) maps, of the squared
    Frobenius distance between their Gram matrices (0 with fewer than two)."""
    pairs = list(combinations(grids, 2))
    if not pairs:
        return Tensor(np.zeros(()))
    values = [frobenius_sq(sub(gram_chain(a), gram_chain(b))) for a, b in pairs]
    total = values[0]
    for value in values[1:]:
        total = ad.add(total, value)
    return ad.scale(total, 1.0 / len(pairs))
