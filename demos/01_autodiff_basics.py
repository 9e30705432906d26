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

loss = ad.sum_all(ad.gelu(ad.matmul(x, w)))
loss.backward()
print("loss                 :", float(loss.data))
print("x.grad shape         :", x.grad.shape)
print("w.grad mean          :", w.grad.mean())

# gradients accumulate across uses; zero them between steps
x.zero_grad()
y = ad.sum_all(ad.add(ad.mul(x, x), ad.mul(x, x)))
y.backward()
print("d/dx of 2*sum(x*x)   : max |grad - 4x| =",
      np.abs(x.grad - 4 * x.data).max())

# --- softmax rows are a probability simplex -------------------------------
att = ad.softmax_lastdim(Tensor(rng.standard_normal((4, 6))))
print("softmax row sums     :", att.data.sum(axis=-1))

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
