"""Training objective: classification loss plus token-style regularization.

Style is carried by the channel second-moment (Gram) matrix of a token map.
The regularizer pulls the Gram matrices of bona fide examples from
different source domains toward each other; attack examples never enter
it. With more than two domains every unordered pair is measured and the
pair values are averaged.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor, accumulate_grad, graph_op

__all__ = [
    "gram",
    "tsr_pair",
    "tsr_average",
    "batch_tsr",
    "binary_cross_entropy_with_logits",
    "total_loss",
    "attack_probabilities",
]

BONA_FIDE = 0


def gram(z: Tensor) -> Tensor:
    """Channel-by-channel second moment: G[k,k'] = sum_hw z_k z_k' / (C*H*W)."""
    if z.ndim != 3:
        raise ShapeError(f"gram expects a single (C, H, W) map, got {z.shape}")
    c, h, w = z.shape
    flat = ad.reshape(z, (c, h * w))
    return ad.scale(ad.matmul(flat, ad.transpose(flat, (1, 0))), 1.0 / (c * h * w))


def tsr_pair(z1: Tensor, z2: Tensor) -> Tensor:
    """Squared Frobenius distance between two (C, H, W) maps' Gram matrices."""
    if z1.shape[0] != z2.shape[0]:
        raise ShapeError(f"style maps disagree in channels: {z1.shape} vs {z2.shape}")
    return ad.frobenius_sq(ad.sub(gram(z1), gram(z2)))


def tsr_average(domain_grids) -> Tensor:
    """Mean of :func:`tsr_pair` over all unordered pairs of domain maps.

    With fewer than two domains the batch is degenerate and the value is 0.
    """
    pairs = list(combinations(domain_grids, 2))
    if not pairs:
        return Tensor(np.zeros(()))
    total = tsr_pair(*pairs[0])
    for a, b in pairs[1:]:
        total = ad.add(total, tsr_pair(a, b))
    return ad.scale(total, 1.0 / len(pairs))


def batch_tsr(style_maps: Tensor, labels, domain_ids) -> Tensor:
    """Token-style regularizer over a batch of per-example (B, C, H, W) style maps.

    Each domain's bona fide maps, domains ascending, are pooled into one
    (C, m*H, W) map by concatenating them along the row axis, so its Gram
    matrix is the domain's second moment over all of its examples. The
    value is :func:`tsr_average` over the pooled maps.
    """
    labels = np.asarray(labels)
    domain_ids = np.asarray(domain_ids)
    bona_fide = labels == BONA_FIDE
    grids = []
    for dom in np.unique(domain_ids[bona_fide]):
        rows = ad.take_rows(style_maps, np.flatnonzero(bona_fide & (domain_ids == dom)))
        m, c, h, w = rows.shape
        grids.append(ad.reshape(ad.transpose(rows, (1, 0, 2, 3)), (c, m * h, w)))
    return tsr_average(grids)


def binary_cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the true class from 2-way logits.

    Computed through a max-shifted log-sum-exp, so large logits neither
    overflow nor distort gradients.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise ShapeError(f"expected (B, 2) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    z = logits.data
    b = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    loss = np.asarray((lse - z[np.arange(b), labels]).mean())

    def backward(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        accumulate_grad(logits, float(g) * p / b)

    return graph_op(loss, (logits,), backward)


def total_loss(bce: Tensor, tsr_value: Tensor, lam: float) -> Tensor:
    """Classification loss ``bce`` plus ``lam`` times the style regularizer."""
    if lam < 0:
        raise ValueError(f"regularization weight must be >= 0, got {lam}")
    if lam == 0:
        return bce
    return ad.add(bce, ad.scale(tsr_value, lam))


def attack_probabilities(logits) -> np.ndarray:
    """Softmax probability of the attack class, used as the score."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e[:, 1] / e.sum(axis=1)
