"""Conversions between flat token sequences and spatial token grids.

Transformer blocks see tokens as rows of an (N, C) matrix; the adapter's
convolutional stages need them arranged as a (C, H, W) image with
H * W = N. The class token never takes part in the spatial layout: it
rides along in a sidecar and is re-attached untouched. Both conversions
are pure reindexings, so gradients flow through bit-exactly. A leading
batch axis is supported everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor

__all__ = ["TokenSequence", "TokenGrid", "seq_to_grid", "grid_to_seq"]


@dataclass
class TokenSequence:
    """Tokens as (..., N [+1 if has_class], C); row 0 is the class token."""

    tokens: Tensor
    grid_h: int
    grid_w: int
    has_class: bool = False

    def patch_count(self) -> int:
        return self.tokens.shape[-2] - (1 if self.has_class else 0)


@dataclass
class TokenGrid:
    """Tokens as (..., C, H, W) plus the class-token sidecar (..., C)."""

    grid: Tensor
    class_token: Tensor | None = None


def seq_to_grid(seq: TokenSequence) -> TokenGrid:
    """Lay patch tokens out row-major: sequence row h*W + w -> grid (h, w)."""
    h, w = seq.grid_h, seq.grid_w
    if seq.patch_count() != h * w:
        raise ShapeError(
            f"sequence holds {seq.patch_count()} patch tokens, grid needs {h}x{w}={h * w}"
        )
    tokens = seq.tokens
    if tokens.ndim not in (2, 3):
        raise ShapeError(f"tokens must be 2D or 3D, got shape {tokens.shape}")
    cls = None
    if seq.has_class:
        cls = tokens[..., 0, :]
        tokens = tokens[..., 1:, :]
    *lead, _, c = tokens.shape
    n = len(lead)
    grid = ad.transpose(ad.reshape(tokens, (*lead, h, w, c)), (*range(n), n + 2, n, n + 1))
    return TokenGrid(grid=grid, class_token=cls)


def grid_to_seq(grid: TokenGrid) -> TokenSequence:
    """Inverse of :func:`seq_to_grid`; round trips are the identity."""
    g = grid.grid
    if g.ndim not in (3, 4):
        raise ShapeError(f"grid must be 3D or 4D, got shape {g.shape}")
    *lead, c, h, w = g.shape
    n = len(lead)
    tokens = ad.reshape(ad.transpose(g, (*range(n), n + 1, n + 2, n)), (*lead, h * w, c))
    if grid.class_token is not None:
        tokens = ad.concat([ad.reshape(grid.class_token, (*lead, 1, c)), tokens], axis=-2)
    return TokenSequence(
        tokens=tokens, grid_h=h, grid_w=w, has_class=grid.class_token is not None
    )
