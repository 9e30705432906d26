"""Token map extraction: 3x3 convolution blended with its central-difference term.

The layer computes two responses from one shared kernel:

    vanilla    Z  = conv(x) + bias
    gradient   Zg = sum over 3x3 neighbors p of  w(p) * (x_p - x_center)

and blends them as Z* = (1 - theta) * Z + theta * Zg, over a (B, Cin, H, W)
batch of token maps. The gradient term is built from literal
neighbor-minus-center differences (neighbors beyond the grid edge are
dropped), so it vanishes identically on constant inputs and theta = 0
reduces to the plain convolution bit for bit.
"""

from __future__ import annotations

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import Tensor

__all__ = ["CdcConv"]


class CdcConv:
    """Shape-preserving central-difference convolution (stride 1, zero pad 1).

    Forwards with fixed parameters may run concurrently across inputs;
    parameter updates belong to a single training thread.
    """

    KERNEL_SIZE = 3

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, theta: float = 0.7):
        _check_theta(theta)
        k = self.KERNEL_SIZE
        std = 1.0 / np.sqrt(in_channels * k * k)
        self.kernel = Tensor(
            rng.normal(0.0, std, size=(out_channels, in_channels, k, k)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.theta = float(theta)

    def forward_tensor(self, x: Tensor) -> Tensor:
        """(B, Cin, H, W) map to (B, Cout, H, W)."""
        _check_theta(self.theta)
        return ad.cdc_conv(x, self.kernel, self.bias, self.theta)

    def parameters(self) -> dict:
        return {"kernel": self.kernel, "bias": self.bias}


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
