"""Gram-matrix style regularization: bona fide token maps from different
domains are pulled toward a shared second-moment structure; attack examples
never contribute.

Run:  python demos/05_style_regularization.py
"""

import numpy as np

from histadapter.autodiff import Tensor
from histadapter.losses import batch_tsr

rng = np.random.default_rng(4)

# two "domains": same content, different low-level style (gain + offset)
content = rng.standard_normal((4, 6, 6))
domain_a = content * 1.0
domain_b = content * 1.6 + 0.3


def gram(z):
    """Channel-by-channel second moment of one (C, H, W) map."""
    flat = z.reshape(z.shape[0], -1)
    return flat @ flat.T / flat.size


def style_distance(*grids):
    """The regularizer over one bona fide map per domain."""
    maps = Tensor(np.stack(grids))
    return float(batch_tsr(maps, np.zeros(len(grids)), np.arange(len(grids))).data)


print("gram diagonal, domain A:", np.diag(gram(domain_a)).round(3))
print("gram diagonal, domain B:", np.diag(gram(domain_b)).round(3))
print("style distance         :", style_distance(domain_a, domain_b))
print("distance to itself     :", style_distance(domain_a, domain_a))

# batch version: grouped by domain, bona fide only; one graph node whose
# backward gives each domain's pooled map dF = (dG + dG^T) F / F.size
maps = Tensor(rng.standard_normal((6, 4, 3, 3)), requires_grad=True)
labels = np.array([0, 1, 0, 1, 0, 1])        # alternating bona fide / attack
domains = np.array([0, 0, 1, 1, 2, 2])
value = batch_tsr(maps, labels, domains)
value.backward()
print("\n3-domain average over C(3,2)=3 pairs:", float(value.data))
print("gradient on attack examples is identically zero:",
      bool(np.all(maps.grad[labels == 1] == 0.0)))
print("gradient reaches bona fide examples:",
      bool(np.any(maps.grad[labels == 0] != 0.0)))
