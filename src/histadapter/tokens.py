"""Conversions between flat token sequences and spatial token grids.

Transformer blocks see a batch of tokens as (B, N, C) rows; the adapter's
convolutional stages need them arranged as (B, C, H, W) images with
H * W = N. Only patch tokens take part in the spatial layout: callers strip
the class token before the conversion and re-attach it after. Both
conversions are pure reindexings, so gradients flow through bit-exactly.
"""

from __future__ import annotations

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor

__all__ = ["seq_to_grid", "grid_to_seq"]


def seq_to_grid(tokens: Tensor, h: int, w: int) -> Tensor:
    """(B, h*w, C) patch tokens to a (B, C, h, w) grid, row-major: row i*w + j -> (i, j)."""
    if tokens.ndim != 3:
        raise ShapeError(f"tokens must be (B, N, C), got shape {tokens.shape}")
    b, n_tokens, c = tokens.shape
    if n_tokens != h * w:
        raise ShapeError(f"sequence holds {n_tokens} patch tokens, grid needs {h}x{w}={h * w}")
    return ad.transpose(ad.reshape(tokens, (b, h, w, c)), (0, 3, 1, 2))


def grid_to_seq(grid: Tensor) -> Tensor:
    """Inverse of :func:`seq_to_grid`; round trips are the identity."""
    if grid.ndim != 4:
        raise ShapeError(f"grid must be (B, C, H, W), got shape {grid.shape}")
    b, c, h, w = grid.shape
    return ad.reshape(ad.transpose(grid, (0, 2, 3, 1)), (b, h * w, c))
