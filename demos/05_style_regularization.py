"""Gram-matrix style regularization: bona fide token maps from different
domains are pulled toward a shared second-moment structure; attack examples
never contribute.

Run:  python demos/05_style_regularization.py
"""

import numpy as np

from histadapter.autodiff import Tensor
from histadapter.losses import batch_tsr, gram, tsr_pair

rng = np.random.default_rng(4)

# two "domains": same content, different low-level style (gain + offset)
content = rng.standard_normal((4, 6, 6))
domain_a = content * 1.0
domain_b = content * 1.6 + 0.3

# gram is a readout: a plain array, no graph
ga = gram(domain_a)
gb = gram(domain_b)
print("gram diagonal, domain A:", np.diag(ga).round(3))
print("gram diagonal, domain B:", np.diag(gb).round(3))
print("style distance         :",
      float(tsr_pair(Tensor(domain_a), Tensor(domain_b)).data))
print("distance to itself     :",
      float(tsr_pair(Tensor(domain_a), Tensor(domain_a)).data))

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
