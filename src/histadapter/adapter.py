"""The statistical token adapter: bottleneck, local token map, histogram, fuse.

The full pipeline applied to the patch tokens of a (B, 1 + N, d) batch of
sequences is

    dim_down -> to grid -> central-difference conv -> soft histogram
             -> to sequence -> dim_up -> residual add

with the class token bypassing everything. ``dim_up`` starts at zero, so a
freshly inserted adapter is an exact identity and the frozen host network's
function is preserved at step 0.

Ablation variants prune or rearrange stages:

    full                 the pipeline above
    no_hist              drop the histogram stage
    no_hist_no_cdc       drop the histogram and run the conv with theta = 0
    vanilla_linear       plain bottleneck: dim_down -> gelu -> dim_up
    linear_plus_cdc      bottleneck nonlinearity, then the conv stage
    linear_plus_cdc_hist bottleneck nonlinearity, then conv and histogram

Fusion is residual summation by default; ``fusion="concat"`` instead
concatenates the branch output to the tokens and restores the width with a
trailing linear map (initialized to project back onto the original tokens).
"""

from __future__ import annotations

import math

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor
from histadapter.cdc import CdcConv
from histadapter.histogram import SoftHistogram
from histadapter.nn import Linear, prefixed

__all__ = ["HistAdapter", "VARIANTS", "FUSIONS", "seq_to_grid", "grid_to_seq"]

VARIANTS = (
    "full",
    "no_hist",
    "no_hist_no_cdc",
    "vanilla_linear",
    "linear_plus_cdc",
    "linear_plus_cdc_hist",
)
FUSIONS = ("sum", "concat")

_USES_CDC = {"full", "no_hist", "no_hist_no_cdc", "linear_plus_cdc", "linear_plus_cdc_hist"}
_USES_HIST = {"full", "linear_plus_cdc_hist"}
_USES_GELU = {"vanilla_linear", "linear_plus_cdc", "linear_plus_cdc_hist"}


def seq_to_grid(rows: Tensor) -> Tensor:
    """(B, N, C) patch rows, N square, to a (B, C, side, side) grid: row i*side + j -> (i, j)."""
    if rows.ndim != 3:
        raise ShapeError(f"tokens must be (B, N, C), got shape {rows.shape}")
    b, n_tokens, c = rows.shape
    side = math.isqrt(n_tokens)
    if side * side != n_tokens:
        raise ShapeError(f"sequence holds {n_tokens} patch tokens, not a square grid")
    return ad.transpose(ad.reshape(rows, (b, side, side, c)), (0, 3, 1, 2))


def grid_to_seq(grid: Tensor) -> Tensor:
    """Inverse of :func:`seq_to_grid`; both are pure reindexings, so round trips and
    gradients are exact."""
    if grid.ndim != 4:
        raise ShapeError(f"grid must be (B, C, H, W), got shape {grid.shape}")
    b, c, h, w = grid.shape
    return ad.reshape(ad.transpose(grid, (0, 2, 3, 1)), (b, h * w, c))


class HistAdapter:
    """Residual adapter over patch tokens of width ``model_dim``."""

    def __init__(self, model_dim: int, rng: np.random.Generator,
                 adapter_dim: int = 8, theta: float = 0.7,
                 variant: str = "full", fusion: str = "sum"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
        if fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {fusion!r}; choose from {FUSIONS}")
        if variant == "no_hist_no_cdc":
            theta = 0.0
        self.model_dim = model_dim
        self.variant = variant
        self.dim_down = Linear(model_dim, adapter_dim, rng)
        self.cdc = CdcConv(adapter_dim, adapter_dim, rng, theta=theta) \
            if variant in _USES_CDC else None
        self.hist = SoftHistogram(adapter_dim) if variant in _USES_HIST else None
        self.dim_up = Linear(adapter_dim, model_dim, init="zeros")
        self.fuse = Linear(2 * model_dim, model_dim, init="identity_top") \
            if fusion == "concat" else None

    def _bottleneck(self, patches: Tensor) -> Tensor:
        h = self.dim_down(patches)
        return ad.gelu(h) if self.variant in _USES_GELU else h

    def token_map(self, patches: Tensor) -> Tensor:
        """(B, N, model_dim) patch rows, N square, to the (B, adapter_dim, side, side)
        token map after the conv stage, the input of the histogram."""
        grid = seq_to_grid(self._bottleneck(patches))
        return grid if self.cdc is None else self.cdc.forward_tensor(grid)

    def apply(self, tokens: Tensor) -> Tensor:
        """(B, 1 + N, model_dim) tokens, class token at row 0, N a square number."""
        if tokens.ndim != 3 or tokens.shape[-1] != self.model_dim:
            raise ShapeError(
                f"adapter needs (B, 1 + N, {self.model_dim}) tokens of its width, "
                f"got {tokens.shape}"
            )
        cls_rows, patches = tokens[:, :1, :], tokens[:, 1:, :]

        if self.cdc is None:
            h = self._bottleneck(patches)
        else:
            grid = self.token_map(patches)
            if self.hist is not None:
                grid = self.hist.forward_tensor(grid)
            h = grid_to_seq(grid)

        branch = self.dim_up(h)
        if self.fuse is None:
            out = ad.add(patches, branch)
        else:
            out = self.fuse(ad.concat([patches, branch], axis=-1))
        return ad.concat([cls_rows, out], axis=1)

    def parameters(self) -> dict:
        params = prefixed("dim_down", self.dim_down.parameters())
        if self.cdc is not None:
            params.update(prefixed("cdc", self.cdc.parameters()))
        if self.hist is not None:
            params.update(prefixed("hist", self.hist.parameters()))
        params.update(prefixed("dim_up", self.dim_up.parameters()))
        if self.fuse is not None:
            params.update(prefixed("fuse", self.fuse.parameters()))
        return params

