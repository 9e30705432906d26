"""Conversions between flat token sequences and spatial token grids.

Transformer blocks see tokens as rows of an (N, C) matrix; the adapter's
convolutional stages need them arranged as a (C, H, W) image with
H * W = N. Only patch tokens take part in the spatial layout: callers strip
the class token before the conversion and re-attach it after. Both
conversions are pure reindexings, so gradients flow through bit-exactly. A
leading batch axis is supported everywhere.
"""

from __future__ import annotations

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor

__all__ = ["seq_to_grid", "grid_to_seq"]


def seq_to_grid(tokens: Tensor, h: int, w: int) -> Tensor:
    """(..., h*w, C) patch tokens to a (..., C, h, w) grid, row-major: row i*w + j -> (i, j)."""
    if tokens.ndim not in (2, 3):
        raise ShapeError(f"tokens must be 2D or 3D, got shape {tokens.shape}")
    *lead, n_tokens, c = tokens.shape
    if n_tokens != h * w:
        raise ShapeError(f"sequence holds {n_tokens} patch tokens, grid needs {h}x{w}={h * w}")
    n = len(lead)
    return ad.transpose(ad.reshape(tokens, (*lead, h, w, c)), (*range(n), n + 2, n, n + 1))


def grid_to_seq(grid: Tensor) -> Tensor:
    """Inverse of :func:`seq_to_grid`; round trips are the identity."""
    if grid.ndim not in (3, 4):
        raise ShapeError(f"grid must be 3D or 4D, got shape {grid.shape}")
    *lead, c, h, w = grid.shape
    n = len(lead)
    return ad.reshape(ad.transpose(grid, (*range(n), n + 1, n + 2, n)), (*lead, h * w, c))
