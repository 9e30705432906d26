"""The token-map layer: a 3x3 convolution blended with neighbor-minus-center
differences. theta balances smooth responses against fine-grained contrast.

Run:  python demos/02_central_difference_conv.py
"""

import numpy as np

from histadapter.autodiff import Tensor
from histadapter.cdc import CdcConv

rng = np.random.default_rng(1)

layer = CdcConv(1, 1, rng, theta=0.7)
layer.bias.data[:] = 0.0

# a flat region with one bright pixel: the difference term fires around it
# (a batch of one single-channel 7x7 map)
x = np.zeros((1, 1, 7, 7))
x[0, 0, 3, 3] = 1.0
out = layer.forward_tensor(Tensor(x)).data[0, 0]
print("response around an isolated spike (theta=0.7):")
print(np.array2string(out, precision=3, suppress_small=True))

# constant input: every neighbor difference is literally zero
flat = np.full((1, 1, 7, 7), 0.42)
layer_pure_diff = CdcConv(1, 1, rng, theta=1.0)
layer_pure_diff.bias.data[:] = 0.0
diff_only = layer_pure_diff.forward_tensor(Tensor(flat)).data
print("\nconstant input, theta=1 output is exactly zero:",
      bool(np.all(diff_only == 0.0)))

# theta blends the plain convolution (theta=0) with the pure difference
# term (theta=1), bit for bit
ends = {}
for theta in (0.0, 1.0):
    layer.theta = theta
    ends[theta] = layer.forward_tensor(Tensor(x)).data
layer.theta = 0.7
blend = layer.forward_tensor(Tensor(x)).data
print("theta=0.7 is 0.3 x (theta=0) + 0.7 x (theta=1) bit-exactly:",
      bool(np.array_equal(blend, ends[0.0] * (1 - 0.7) + ends[1.0] * 0.7)))

# sweep theta: difference share grows, smooth share shrinks
print("\n  theta   |output|_F")
for theta in (0.0, 0.3, 0.5, 0.7, 0.9):
    layer.theta = theta
    frob = np.sqrt((layer.forward_tensor(Tensor(x)).data ** 2).sum())
    print(f"   {theta:.1f}     {frob:.4f}")
