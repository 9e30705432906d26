import numpy as np
import pytest

from histadapter.autodiff import ShapeError, Tensor, finite_difference_check
from histadapter.losses import (
    _gram,
    attack_probabilities,
    batch_tsr,
    binary_cross_entropy_with_logits,
    total_loss,
)

from oracles import gram_loops, tsr_loops
from reference_ops import tsr_average_chain


def gram(z):
    """``_gram`` of one (C, H, W) map, the matrix ``batch_tsr`` takes of a
    pool that holds one map."""
    return _gram(np.asarray(z).reshape(z.shape[0], -1))


def domain_tsr(grids):
    """``batch_tsr`` of one bona fide (C, H, W) map per domain, domains 0, 1, ..."""
    maps = np.stack(grids) if grids else np.zeros((0, 2, 2, 2))
    return float(batch_tsr(Tensor(maps), np.zeros(len(grids)), np.arange(len(grids))).data)


class TestGram:
    def test_zeros(self):
        g = gram(np.zeros((3, 2, 2)))
        assert isinstance(g, np.ndarray)
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_hand_case(self):
        z = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])  # C=2, H=1, W=2
        g = gram(z)
        assert np.allclose(g, np.array([[5.0, 11.0], [11.0, 25.0]]) / 4.0,
                           atol=1e-15)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = rng.standard_normal((4, 3, 5))
            g = gram(z)
            assert np.abs(g - g.T).max() < 1e-12
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() > -1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 4, 4))
        got = gram(z)
        assert np.abs(got - gram_loops(z)).max() < 1e-12


class TestTsrPair:
    """Two domains, one bona fide map each."""

    def test_identical_maps_zero(self):
        z = np.random.default_rng(2).standard_normal((3, 4, 4))
        assert domain_tsr([z, z]) == 0.0

    def test_sign_flip_zero(self):
        z = np.random.default_rng(3).standard_normal((3, 4, 4))
        assert domain_tsr([z, -z]) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        z1, z2 = rng.standard_normal((2, 3, 4, 4))
        got = domain_tsr([z1, z2])
        want = tsr_loops(z1, z2)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z1, z2 = rng.standard_normal((2, 2, 3, 3))
            assert domain_tsr([z1, z2]) >= 0.0


class TestTsrAverage:
    """One bona fide map per domain, over more than two domains."""

    def test_three_domains_average_three_pairs(self):
        rng = np.random.default_rng(6)
        grids = [rng.standard_normal((2, 3, 3)) for _ in range(3)]
        got = domain_tsr(grids)
        pairs = [tsr_loops(grids[i], grids[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert abs(got - np.mean(pairs)) < 1e-12

    def test_identical_domains_zero(self):
        z = np.random.default_rng(7).standard_normal((2, 3, 3))
        assert domain_tsr([z] * 4) == 0.0

    def test_degenerate_single_domain_is_zero(self):
        z = np.ones((2, 2, 2))
        assert domain_tsr([z]) == 0.0
        assert domain_tsr([]) == 0.0


class TestBatchTsr:
    def _batch(self, rng, labels, domains):
        maps = Tensor(rng.standard_normal((len(labels), 3, 2, 2)), requires_grad=True)
        return maps, np.array(labels), np.array(domains)

    def test_attack_examples_have_identically_zero_gradient(self):
        rng = np.random.default_rng(8)
        maps, labels, domains = self._batch(
            rng, [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 2, 2])
        out = batch_tsr(maps, labels, domains)
        assert out.data > 0
        out.backward()
        assert np.all(maps.grad[labels == 1] == 0.0)
        assert np.any(maps.grad[labels == 0] != 0.0)

    def test_degenerate_batches_zero(self):
        rng = np.random.default_rng(9)
        maps, labels, domains = self._batch(rng, [0, 1, 1, 1], [0, 0, 1, 1])
        # bona fide present in only one domain
        assert float(batch_tsr(maps, labels, domains).data) == 0.0

    def test_domain_grouping_pools_rows(self):
        # domains out of order; domain 4 holds only an attack. With this seed the
        # pair-sum order shows in the last bit, so descending domains would fail.
        rng = np.random.default_rng(20)
        maps, labels, domains = self._batch(
            rng, [0, 1, 0, 0, 1, 0, 1, 0, 0, 1], [2, 0, 1, 2, 1, 0, 3, 1, 3, 4])
        # each domain's bona fide maps stacked along rows, domains ascending
        pooled = [Tensor(np.concatenate(maps.data[rows], axis=1))
                  for rows in ([5], [2, 7], [0, 3], [8])]
        assert [p.shape for p in pooled] == [(3, 2, 2), (3, 4, 2), (3, 4, 2), (3, 2, 2)]
        assert batch_tsr(maps, labels, domains).data == tsr_average_chain(pooled).data

    def test_unbatched_maps_rejected(self):
        with pytest.raises(ShapeError, match="B, C, H, W"):
            batch_tsr(Tensor(np.zeros((2, 3, 3))), [0, 0], [0, 1])

    def test_fd_gradient(self):
        rng = np.random.default_rng(11)
        maps, labels, domains = self._batch(rng, [0, 0, 1, 0], [0, 1, 1, 2])
        rep = finite_difference_check(
            lambda t: batch_tsr(t, labels, domains), maps, op_name="batch_tsr")
        assert rep.passed, rep


class TestBce:
    def test_even_logits_give_ln2(self):
        logits = Tensor(np.zeros((1, 2)))
        for label in (0, 1):
            loss = binary_cross_entropy_with_logits(logits, [label])
            assert abs(float(loss.data) - np.log(2.0)) < 1e-15

    def test_confident_correct_approaches_zero(self):
        logits = Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]))
        loss = binary_cross_entropy_with_logits(logits, [0, 1])
        assert float(loss.data) < 1e-12

    def test_extreme_logits_do_not_overflow(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]), requires_grad=True)
        loss = binary_cross_entropy_with_logits(logits, [1])
        assert np.isfinite(float(loss.data))
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_fd_gradient(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        labels = rng.integers(0, 2, 5)
        rep = finite_difference_check(
            lambda t: binary_cross_entropy_with_logits(t, labels), logits)
        assert rep.passed


class TestTotalLoss:
    def test_lambda_zero_is_pure_bce(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.standard_normal((4, 2)))
        labels = np.array([0, 1, 0, 1])
        tsr = Tensor(np.asarray(5.0))
        total = total_loss(binary_cross_entropy_with_logits(logits, labels), tsr, 0.0)
        bce = binary_cross_entropy_with_logits(logits, labels)
        assert float(total.data) == float(bce.data)

    def test_lambda_scales_regularizer(self):
        logits = Tensor(np.zeros((2, 2)))
        labels = np.array([0, 1])
        tsr = Tensor(np.asarray(3.0))
        total = total_loss(binary_cross_entropy_with_logits(logits, labels), tsr, 0.1)
        assert abs(float(total.data) - (np.log(2.0) + 0.3)) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            total_loss(binary_cross_entropy_with_logits(Tensor(np.zeros((1, 2))), [0]),
                       Tensor(np.asarray(0.0)), -0.5)


def test_attack_probabilities_match_softmax():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((6, 2)) * 4
    p = attack_probabilities(Tensor(logits))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.allclose(p, (e / e.sum(axis=1, keepdims=True))[:, 1], atol=1e-15)
    assert np.all((p > 0) & (p < 1))
