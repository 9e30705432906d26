"""Tour of the tensor engine: forward ops, reverse-mode grads, FD checking.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import Tensor, finite_difference_check

rng = np.random.default_rng(0)

# --- build a tiny expression and differentiate it ------------------------
x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
b = Tensor(np.zeros(2))  # a frozen operand gets no gradient

loss = ad.sum_all(ad.gelu(ad.linear(x, w, b)))
loss.backward()
print("loss                 :", float(loss.data))
print("x.grad shape         :", x.grad.shape)
print("w.grad mean          :", w.grad.mean())
print("frozen b.grad        :", b.grad)

# gradients accumulate across uses; zero them between steps
x.zero_grad()
y = ad.sum_all(ad.add(ad.mul(x, x), ad.mul(x, x)))
y.backward()
print("d/dx of 2*sum(x*x)   : max |grad - 4x| =",
      np.abs(x.grad - 4 * x.data).max())

# --- attention is one node: all-zero queries average the values ----------
# (B, N, d) queries, keys and values, split into 2 heads of width 3
q = Tensor(np.zeros((1, 4, 6)))
k = Tensor(rng.standard_normal((1, 4, 6)))
v = Tensor(rng.standard_normal((1, 4, 6)), requires_grad=True)
ctx = ad.attention(q, k, v, heads=2)
print("attention - mean of v:", np.abs(ctx.data - v.data.mean(axis=1, keepdims=True)).max())

# backward consumes the graph: leaves keep .grad, a second pass raises
loss = ad.sum_all(ctx)
loss.backward()
print("d/dv of summed output:", v.grad[0, 0])  # each value row gets weight 4 * 1/4
try:
    loss.backward()
except ValueError as err:
    print("second backward      :", err)

# --- every backward rule is validated against central differences ---------
# spatial ops take a batch of (C, H, W) grids; here a batch of one
x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
k = Tensor(rng.standard_normal((3, 2, 3, 3)))
bias = Tensor(np.zeros(3))
readout = Tensor(rng.standard_normal((1, 3, 5, 5)))
report = finite_difference_check(
    lambda t: ad.sum_all(ad.mul(ad.cdc_conv(t, k, bias, 0.7), readout)),
    x, op_name="cdc_conv")
print(report)
