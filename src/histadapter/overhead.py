"""Parameter and multiply-accumulate accounting, backbone vs adapters.

Counts are analytic (no giant arrays get allocated for the large presets)
and mirror the live model structure exactly; a test cross-checks the
formulas against a real toy-scale model. The MAC convention: a matrix
product m x k @ k x n costs m*k*n, a convolution costs one MAC per kernel
tap per output element, the central-difference layer costs two
convolutions' worth, and histogram pooling costs its two pixel-wise
stages plus the 3x3 window sum. Normalizations and activations are not
counted on either side of the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from histadapter.vit import MLP_RATIO, PRESETS, ViTConfig

__all__ = ["OverheadReport", "account", "format_report"]


def _linear_params(in_dim: int, out_dim: int) -> int:
    return in_dim * out_dim + out_dim


def backbone_params(cfg: ViTConfig) -> int:
    d = cfg.width
    block = (2 * d) * 2 + 4 * _linear_params(d, d) \
        + _linear_params(d, MLP_RATIO * d) + _linear_params(MLP_RATIO * d, d)
    return (_linear_params(cfg.patch_dim, d)
            + d                      # class token
            + cfg.token_count * d    # positions
            + cfg.depth * block
            + 2 * d)                 # final norm


def head_params(cfg: ViTConfig) -> int:
    return _linear_params(cfg.width, 2)


def adapter_params(cfg: ViTConfig, adapter_dim: int) -> int:
    """One of the paper's adapters: ``full`` variant, sum fusion."""
    d, a = cfg.width, adapter_dim
    return (_linear_params(d, a) + _linear_params(a, d)
            + a * a * 9 + a                          # conv kernel + bias
            + 2 * a)                                 # bin centers + widths


def backbone_macs(cfg: ViTConfig) -> int:
    d, n = cfg.width, cfg.token_count
    attn = 3 * n * d * d + 2 * n * n * d + n * d * d
    mlp = 2 * n * d * (MLP_RATIO * d)
    return (cfg.patch_tokens * cfg.patch_dim * d
            + cfg.depth * (attn + mlp)
            + d * 2)                 # head read-out


def adapter_macs(cfg: ViTConfig, adapter_dim: int) -> int:
    """One of the paper's adapters: ``full`` variant, sum fusion."""
    d, a = cfg.width, adapter_dim
    n = cfg.patch_tokens
    return (n * d * a + n * a * d
            + 2 * n * a * a * 9                      # vanilla + difference convs
            + 2 * n * a + 9 * n * a)                 # pixel-wise stages + window


@dataclass
class OverheadReport:
    preset: str
    backbone_params: int
    adapter_params: int
    backbone_macs: int
    adapter_macs: int

    @property
    def param_ratio(self) -> float:
        return self.adapter_params / self.backbone_params

    @property
    def mac_ratio(self) -> float:
        return self.adapter_macs / self.backbone_macs


def account(preset: str, adapter_dim: int = 8) -> OverheadReport:
    """Per-image accounting for a preset with two of the paper's adapters
    (``full`` variant, sum fusion) per block."""
    if adapter_dim < 1:
        raise ValueError(f"adapter_dim must be at least 1, got {adapter_dim}")
    cfg = PRESETS[preset]
    per_adapter_p = adapter_params(cfg, adapter_dim)
    per_adapter_m = adapter_macs(cfg, adapter_dim)
    return OverheadReport(
        preset=preset,
        backbone_params=backbone_params(cfg) + head_params(cfg),
        adapter_params=2 * cfg.depth * per_adapter_p,
        backbone_macs=backbone_macs(cfg),
        adapter_macs=2 * cfg.depth * per_adapter_m,
    )


def format_report(r: OverheadReport) -> str:
    lines = [
        f"preset            {r.preset}",
        f"backbone params   {r.backbone_params:>14,}",
        f"adapter params    {r.adapter_params:>14,}  (+{100 * r.param_ratio:.3f}%)",
        f"backbone MACs     {r.backbone_macs:>14,}",
        f"adapter MACs      {r.adapter_macs:>14,}  (+{100 * r.mac_ratio:.3f}%)",
    ]
    return "\n".join(lines)
