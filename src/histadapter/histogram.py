"""Differentiable per-token histogram with learnable bin centers and widths.

Each channel carries one soft bin. For channel c at position (h, w) the
response is the average over the zero-padded 3x3 window of

    exp(-(gamma_c * (z - mu_c))^2)

which is the composition of two pixel-wise stages followed by window
pooling: a shift stage whose kernel is frozen at 1 and whose learnable
bias realizes the bin center, and a scale stage whose bias is frozen at 0
and whose learnable kernel realizes the inverse bin width. Outputs lie in
(0, 1] for every parameter value. Padding applies to the token map itself,
so border windows see taps with z = 0 contributing exp(-(gamma_c*mu_c)^2),
and the divisor stays at the full window size of 9.
"""

from __future__ import annotations

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import Tensor

__all__ = ["SoftHistogram"]


class SoftHistogram:
    """3x3 soft-binned histogram pooling, stride 1, zero pad 1.

    Same concurrency contract as the convolution stage: read-only forwards
    are safe in parallel, updates are single-threaded.
    """

    WINDOW = 3
    # frozen halves of the two pixel-wise stages
    SHIFT_WEIGHT = 1.0
    SCALE_BIAS = 0.0

    def __init__(self, channels: int):
        self.mu = Tensor(np.zeros(channels), requires_grad=True)
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.channels = channels

    def forward_tensor(self, z: Tensor) -> Tensor:
        """(C, H, W) or (B, C, H, W) map to per-channel soft-bin responses, same shape."""
        zp = ad.pad2d(z, 1)
        per_channel = (self.channels, 1, 1)
        # stage 1: weight SHIFT_WEIGHT (frozen), learnable bias -mu
        centered = ad.sub(zp, ad.reshape(self.mu, per_channel))
        # stage 2: learnable weight gamma, bias SCALE_BIAS (frozen)
        u = ad.mul(ad.reshape(self.gamma, per_channel), centered)
        e = ad.exp(ad.neg(ad.mul(u, u)))
        return ad.scale(ad.window_sum3x3(e), 1.0 / (self.WINDOW * self.WINDOW))

    def parameters(self) -> dict:
        return {"mu": self.mu, "gamma": self.gamma}
