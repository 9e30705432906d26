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
    "group_bona_fide_by_domain",
    "batch_tsr",
    "binary_cross_entropy_with_logits",
    "total_loss",
    "attack_probabilities",
]

BONA_FIDE, ATTACK = 0, 1


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
    return _mean_tsr(list(combinations(domain_grids, 2)))


def _mean_tsr(pairs: list) -> Tensor:
    if not pairs:
        return Tensor(np.zeros(()))
    total = tsr_pair(*pairs[0])
    for a, b in pairs[1:]:
        total = ad.add(total, tsr_pair(a, b))
    return ad.scale(total, 1.0 / len(pairs))


def _bona_fide_rows_by_domain(labels, domain_ids):
    """Indices of each domain's bona fide examples, domains ascending, empty ones skipped."""
    labels = np.asarray(labels)
    domain_ids = np.asarray(domain_ids)
    for dom in sorted(set(domain_ids.tolist())):
        idx = np.flatnonzero((domain_ids == dom) & (labels == BONA_FIDE))
        if idx.size:
            yield idx


def group_bona_fide_by_domain(style_maps: Tensor, labels, domain_ids) -> list:
    """Pool each domain's bona fide maps into one (C, m*H, W) map per domain.

    ``style_maps`` is the batch of per-example token maps (B, C, H, W).
    Pooling concatenates a domain's maps along the row axis, so its Gram
    matrix is the domain's second moment over all of its examples.
    """
    grids = []
    for idx in _bona_fide_rows_by_domain(labels, domain_ids):
        rows = ad.take_rows(style_maps, idx)  # (m, C, H, W)
        m, c, h, w = rows.shape
        grids.append(ad.reshape(ad.transpose(rows, (1, 0, 2, 3)), (c, m * h, w)))
    return grids


def batch_tsr(style_maps: Tensor, labels, domain_ids, aggregation: str = "domain") -> Tensor:
    """Token-style regularizer over a batch of per-example style maps.

    ``aggregation="domain"`` (default) pools each domain before one Gram
    per domain; ``"pairwise"`` instead averages :func:`tsr_pair` over all
    cross-domain pairs of individual bona fide examples.
    """
    if aggregation == "domain":
        return tsr_average(group_bona_fide_by_domain(style_maps, labels, domain_ids))
    if aggregation != "pairwise":
        raise ValueError(f"unknown aggregation {aggregation!r}")
    by_domain = [[style_maps[int(i)] for i in idx]
                 for idx in _bona_fide_rows_by_domain(labels, domain_ids)]
    return _mean_tsr([(ga, gb) for da, db in combinations(by_domain, 2)
                      for ga in da for gb in db])


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
