"""Differentiable token histograms: bell-shaped bin membership averaged over
3x3 windows, with a learnable center mu and inverse width gamma per channel.

Run:  python demos/03_soft_histogram.py
"""

import numpy as np

from histadapter.autodiff import Tensor
from histadapter.histogram import SoftHistogram

# response of a single bin to a sweep of constant inputs
layer = SoftHistogram(1)
layer.mu.data[:] = 0.5
layer.gamma.data[:] = 2.0
print("input value -> interior histogram response (mu=0.5, gamma=2):")
for v in np.linspace(-0.5, 1.5, 9):
    z = np.full((1, 1, 5, 5), v)  # a batch of one single-channel map
    out = layer.forward_tensor(Tensor(z)).data
    print(f"  z={v:+.2f}   response={out[0, 0, 2, 2]:.4f}")

# the classic hand case: one spike in a field of zeros, mu=0, gamma=1
layer = SoftHistogram(1)
z = np.zeros((1, 1, 3, 3))
z[0, 0, 1, 1] = 1.0
out = layer.forward_tensor(Tensor(z)).data
print("\nspike-in-zeros center value:", out[0, 0, 1, 1])
print("analytic (8 + e^-1) / 9    :", (8 + np.exp(-1.0)) / 9)

# gradients make the bin parameters trainable
x = Tensor(np.random.default_rng(2).standard_normal((1, 1, 4, 4)), requires_grad=True)
from histadapter import autodiff as ad
loss = ad.sum_all(layer.forward_tensor(x))
loss.backward()
print("\nd loss / d mu   :", layer.mu.grad)
print("d loss / d gamma:", layer.gamma.grad)
print("outputs stay in (0, 1], so downstream layers see bounded statistics")
