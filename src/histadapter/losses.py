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
    "batch_tsr",
    "binary_cross_entropy_with_logits",
    "total_loss",
    "attack_probabilities",
]

BONA_FIDE = 0


def _gram(flat: np.ndarray) -> np.ndarray:
    # both operands are one buffer, so numpy takes its A @ A.T path
    return (flat @ flat.T) * float(1.0 / flat.size)


def batch_tsr(style_maps: Tensor, labels, domain_ids) -> Tensor:
    """Token-style regularizer over a batch of (B, C, H, W) style maps, as one node.

    Each domain's bona fide maps, domains ascending, are pooled into one
    (C, m*H*W) matrix F, so its Gram matrix G = F Fᵀ / F.size is the
    domain's second moment over all of its examples. The value is the mean,
    over every unordered pair of pools, of the squared Frobenius distance
    of their Gram matrices (a constant 0 with fewer than two pools); each
    pool's gradient is dF = (dG + dGᵀ) F / F.size, and attack maps get 0.
    Forward and backward run the float operations of ``tsr_chain`` in
    ``tests/reference_ops.py`` in its order, so both equal it bit for bit.
    """
    if style_maps.ndim != 4:
        raise ShapeError(f"batch_tsr needs (B, C, H, W) style maps, got {style_maps.shape}")
    labels = np.asarray(labels)
    domain_ids = np.asarray(domain_ids)
    bona_fide = labels == BONA_FIDE
    pools = [np.flatnonzero(bona_fide & (domain_ids == dom))
             for dom in np.unique(domain_ids[bona_fide])]
    pairs = list(combinations(range(len(pools)), 2))
    if not pairs:
        return Tensor(np.zeros(()))
    _, c, h, w = style_maps.shape
    flats = [style_maps.data[rows].transpose(1, 0, 2, 3).reshape(c, -1) for rows in pools]
    grams = [_gram(f) for f in flats]
    diffs = [grams[i] - grams[j] for i, j in pairs]
    inv_pairs = float(1.0 / len(pairs))
    record, shape = style_maps._record, style_maps.shape

    def backward(g):
        k = 2.0 * float(g * inv_pairs)
        pooled = [None] * len(pools)  # a pool's pair terms, summed in pair order
        for (i, j), d in zip(pairs, diffs):
            for pool, gd in ((i, k * d), (j, -(k * d))):
                f = flats[pool]
                gs = gd * float(1.0 / f.size)
                term = gs @ f + (f.T @ gs).T
                pooled[pool] = term if pooled[pool] is None else pooled[pool] + term
        gx = np.zeros(shape)
        for rows, gf in zip(pools, pooled):
            np.add.at(gx, rows, gf.reshape(c, len(rows), h, w).transpose(1, 0, 2, 3))
        accumulate_grad(record, gx)

    total = sum(float((d * d).sum()) for d in diffs)
    return graph_op(np.asarray(total * inv_pairs), (style_maps,), backward)


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
    record = logits._record

    def backward(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        accumulate_grad(record, float(g) * p / b)

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
