"""The fused ops equal the primitive chains they replace, bit for bit.

``linear``, ``cdc_conv``, ``soft_histogram``, ``attention`` and the style
regularizer ``batch_tsr`` each build one graph node with a hand-written
backward. Each test runs the fused op
and its chain of primitives from ``reference_ops.py`` on copies of the same
operands, backpropagates the same random readout through both, and
compares the output and every operand's gradient with ``np.array_equal``.
The last tests bound the graph one training step builds and check that its
backward frees it.
"""

import weakref
from pathlib import Path

import numpy as np
import pytest

from histadapter import autodiff as ad
from histadapter import training
from histadapter.autodiff import ShapeError, Tensor
from histadapter.config import load_config
from histadapter.losses import batch_tsr

from reference_ops import (
    attention_chain,
    cdc_chain,
    histogram_chain,
    linear_chain,
    tsr_average_chain,
    tsr_chain,
)

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "ablation.cfg"


def run(op, arrays, trainable, readout):
    """Output data and operand gradients of ``sum(readout * op(*operands))``."""
    operands = [Tensor(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
    out = op(*operands)
    ad.sum_all(ad.mul(out, Tensor(readout))).backward()
    return out.data, [t.grad for t in operands]


def assert_bit_identical(fused, chain, arrays, trainable, seed=0):
    readout = np.random.default_rng(seed).standard_normal(chain(*map(Tensor, arrays)).shape)
    out_f, grads_f = run(fused, arrays, trainable, readout)
    out_c, grads_c = run(chain, arrays, trainable, readout)
    assert np.array_equal(out_f, out_c)
    for grad_f, grad_c, t in zip(grads_f, grads_c, trainable):
        if t:
            assert grad_f is not None and np.array_equal(grad_f, grad_c)
        else:
            assert grad_f is None and grad_c is None


FROZEN_IN_TURN = [(True, True, True), (False, True, True), (True, False, True),
                  (True, True, False)]


class TestLinear:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("trainable", FROZEN_IN_TURN)
    def test_matches_chain_bit_for_bit(self, lead, trainable):
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(lead + (6,)), rng.standard_normal((6, 3)),
                  rng.standard_normal(3)]
        assert_bit_identical(ad.linear, linear_chain, arrays, trainable)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4, 5), (6, 3), (3,)),      # input width
        ((4, 6), (6,), (3,)),        # weight not 2D
        ((4, 6), (1, 6, 3), (3,)),   # weight not 2D
        ((4, 6), (6, 3), (4,)),      # bias width
        ((4, 6), (6, 3), (1, 3)),    # bias rank
    ])
    def test_shape_mismatch_rejected(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                      Tensor(np.zeros(b_shape)))


class TestCdcConv:
    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.0])
    # "unbatched": one grid, which the spatial ops take as a batch of one
    @pytest.mark.parametrize("lead", [(1,), (3,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("trainable", FROZEN_IN_TURN)
    def test_matches_chain_bit_for_bit(self, theta, lead, trainable):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal(lead + (2, 4, 5)), rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal(3)]
        assert_bit_identical(lambda x, k, b: ad.cdc_conv(x, k, b, theta),
                             lambda x, k, b: cdc_chain(x, k, b, theta), arrays, trainable)

    @pytest.mark.parametrize("x_shape, k_shape, b_shape", [
        ((2, 3, 4, 4), (2, 2, 3, 3), (2,)),  # input channels
        ((1, 3, 4, 4), (2, 2, 3, 3), (2,)),  # input channels, batch of one
        ((1, 2, 4, 4), (2, 2, 2, 3), (2,)),  # even kernel height
        ((1, 2, 4, 4), (2, 2, 3, 4), (2,)),  # even kernel width
        ((1, 2, 4, 4), (2, 2, 3), (2,)),     # kernel not 4D
        ((1, 2, 4, 4), (2, 2, 3, 3), (3,)),  # bias width
        ((4, 4), (2, 2, 3, 3), (2,)),        # input rank
        ((2, 4, 4), (2, 2, 3, 3), (2,)),     # unbatched input
    ])
    def test_shape_mismatch_rejected(self, x_shape, k_shape, b_shape):
        with pytest.raises(ShapeError):
            ad.cdc_conv(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)),
                        Tensor(np.zeros(b_shape)), 0.7)


class TestSoftHistogram:
    # "unbatched": one map, which the spatial ops take as a batch of one
    @pytest.mark.parametrize("lead", [(1,), (3,)], ids=["unbatched", "batched"])
    @pytest.mark.parametrize("trainable", FROZEN_IN_TURN)
    def test_matches_chain_bit_for_bit(self, lead, trainable):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(lead + (4, 3, 5)), rng.standard_normal(4),
                  rng.standard_normal(4)]
        assert_bit_identical(ad.soft_histogram, histogram_chain, arrays, trainable)

    @pytest.mark.parametrize("z_shape, mu_shape, gamma_shape", [
        ((1, 3, 4, 4), (2,), (2,)),   # channels
        ((2, 3, 4, 4), (3,), (2,)),   # gamma channels
        ((2, 3, 4, 4), (2,), (3,)),   # mu channels
        ((4, 4), (4,), (4,)),         # input rank
        ((3, 4, 4), (3,), (3,)),      # unbatched input
    ])
    def test_shape_mismatch_rejected(self, z_shape, mu_shape, gamma_shape):
        with pytest.raises(ShapeError):
            ad.soft_histogram(Tensor(np.zeros(z_shape)), Tensor(np.zeros(mu_shape)),
                              Tensor(np.zeros(gamma_shape)))


class TestAttention:
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("n", [1, 17])
    @pytest.mark.parametrize("trainable", FROZEN_IN_TURN)
    def test_matches_chain_bit_for_bit(self, heads, n, trainable):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal((2, n, 8)) for _ in range(3)]
        assert_bit_identical(lambda q, k, v: ad.attention(q, k, v, heads),
                             lambda q, k, v: attention_chain(q, k, v, heads), arrays, trainable)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_chain_under_no_grad(self, heads):
        rng = np.random.default_rng(8)
        operands = [Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True) for _ in range(3)]
        with ad.no_grad():
            fused = ad.attention(*operands, heads)
            chain = attention_chain(*operands, heads)
        assert not fused.requires_grad and fused._record.parents == ()
        assert np.array_equal(fused.data, chain.data)

    @pytest.mark.parametrize("shapes, heads", [
        (((2, 3, 8), (2, 3, 8), (2, 4, 8)), 2),   # value length
        (((2, 3, 8), (2, 3, 6), (2, 3, 8)), 2),   # key width
        (((3, 8), (3, 8), (3, 8)), 2),            # unbatched tokens
        (((2, 3, 8), (2, 3, 8), (2, 3, 8)), 3),   # width not split by heads
        (((2, 3, 8), (2, 3, 8), (2, 3, 8)), 0),   # no heads
    ])
    def test_shape_mismatch_rejected(self, shapes, heads):
        with pytest.raises(ShapeError):
            ad.attention(*(Tensor(np.zeros(s)) for s in shapes), heads)


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 array's bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def tsr_batch(rng, pool_sizes, attacks=2):
    """Style maps, labels and domain ids: ``pool_sizes[d]`` bona fide maps of
    domain ``d``, plus ``attacks`` attack maps, all in a shuffled order."""
    labels = np.array([0] * sum(pool_sizes) + [1] * attacks)
    domains = np.concatenate([np.full(m, d) for d, m in enumerate(pool_sizes)]
                             + [rng.integers(0, len(pool_sizes), attacks)])
    order = rng.permutation(len(labels))
    return rng.standard_normal((len(labels), 3, 2, 4)), labels[order], domains[order]


class TestBatchTsr:
    @pytest.mark.parametrize("pool_sizes", [(1, 3), (2, 1, 4), (3, 1, 2, 2), (1, 2, 4, 1, 3)],
                             ids=["2-domains", "3-domains", "4-domains", "5-domains"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_chain_bit_for_bit(self, pool_sizes, seed):
        rng = np.random.default_rng(seed)
        maps, labels, domains = tsr_batch(rng, pool_sizes)
        upstream = rng.standard_normal()
        results = []
        for op in (batch_tsr, tsr_chain):
            x = Tensor(maps.copy(), requires_grad=True)
            out = op(x, labels, domains)
            ad.scale(out, upstream).backward()
            results.append((out.data, x.grad))
        (value_f, grad_f), (value_c, grad_c) = results
        assert np.array_equal(bits(value_f), bits(value_c))
        assert np.array_equal(bits(grad_f), bits(grad_c))
        assert np.all(grad_f[labels == 1] == 0.0)
        assert np.all(np.any(grad_f[labels == 0] != 0.0, axis=(1, 2, 3)))

    def test_is_one_node(self):
        maps, labels, domains = tsr_batch(np.random.default_rng(3), (2, 2, 1))
        x = Tensor(maps, requires_grad=True)
        out = batch_tsr(x, labels, domains)
        assert out._record.parents == (x._record,)
        assert grad_ops(out) == [out._record]

    def test_accumulates_into_an_existing_gradient(self):
        maps, labels, domains = tsr_batch(np.random.default_rng(4), (2, 3, 1))
        grads = []
        for op in (batch_tsr, tsr_chain):
            x = Tensor(maps.copy(), requires_grad=True)
            ad.sum_all(ad.add(op(x, labels, domains), ad.sum_all(ad.scale(x, 0.5)))).backward()
            grads.append(x.grad)
        assert np.array_equal(bits(grads[0]), bits(grads[1]))

    def test_frozen_maps_build_no_node(self):
        maps, labels, domains = tsr_batch(np.random.default_rng(5), (2, 1, 3))
        frozen = Tensor(maps)
        fused = batch_tsr(frozen, labels, domains)
        assert not fused.requires_grad and fused._record.parents == ()
        assert np.array_equal(bits(fused.data), bits(tsr_chain(frozen, labels, domains).data))
        assert frozen.grad is None

    def test_matches_chain_under_no_grad(self):
        maps, labels, domains = tsr_batch(np.random.default_rng(6), (3, 2, 2, 1))
        x = Tensor(maps, requires_grad=True)
        with ad.no_grad():
            fused = batch_tsr(x, labels, domains)
            chain = tsr_chain(x, labels, domains)
        assert not fused.requires_grad and fused._record.parents == ()
        assert np.array_equal(bits(fused.data), bits(chain.data))

    @pytest.mark.parametrize("labels, domains", [([0, 0, 1, 1], [0, 0, 0, 0]),
                                                 ([0, 1, 1, 1], [0, 0, 1, 1])],
                             ids=["one-domain", "one-bona-fide-domain"])
    def test_fewer_than_two_pools_is_a_constant_zero(self, labels, domains):
        x = Tensor(np.random.default_rng(7).standard_normal((4, 2, 2, 2)), requires_grad=True)
        out = batch_tsr(x, labels, domains)
        assert out.data == 0.0 and not out.requires_grad

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_tsr_average_matches_chain_bit_for_bit(self, count):
        # one bona fide map per domain: each pool is one (C, H, W) map
        rng = np.random.default_rng(count)
        arrays = [rng.standard_normal((3, 4, 2)) for _ in range(count)]
        maps = Tensor(np.stack(arrays), requires_grad=True)
        fused = batch_tsr(maps, np.zeros(count), np.arange(count))
        fused.backward()
        grids = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        chain = tsr_average_chain(grids)
        chain.backward()
        assert np.array_equal(bits(fused.data), bits(chain.data))
        for i, grid in enumerate(grids):
            assert np.array_equal(bits(maps.grad[i]), bits(grid.grad))


def grad_ops(root: Tensor) -> list:
    """Records of the ops with a backward that are reachable from ``root``
    through grad-carrying records."""
    seen, stack, ops = set(), [root._record], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.backward is not None:
            ops.append(node)
        stack.extend(p for p in node.parents if p.requires_grad)
    return ops


def first_toy_step():
    """The model and loss of the first step train_run takes on configs/ablation.cfg:
    seed 0, batch 16, TSR on."""
    cfg = load_config(CONFIG, {})
    assert cfg.seed == 0 and cfg.batch_size == 16 and cfg.tsr_lambda > 0
    train, model, _, shuffle_rng = training._start_run(cfg)
    idx = next(training._batches(len(train.labels), cfg.batch_size, shuffle_rng))
    return model, training._step_loss(model, train, idx, cfg.tsr_lambda)[-1]


def test_one_toy_training_step_builds_under_140_grad_ops():
    _, loss = first_toy_step()
    assert len(grad_ops(loss)) < 140


def test_backward_of_a_toy_training_step_frees_its_graph():
    model, loss = first_toy_step()
    interior = [weakref.ref(node) for node in grad_ops(loss)]
    assert len(interior) > 100
    loss.backward()
    # only the records of the loss and of the style map the model holds outlive the pass
    alive = {id(ref()) for ref in interior if ref() is not None}
    assert alive == {id(loss._record), id(model.style_map._record)}
    with pytest.raises(ValueError, match="consumed"):
        loss.backward()
