"""The fused ops equal the primitive chains they replace, bit for bit.

``linear``, ``cdc_conv``, ``soft_histogram`` and ``attention`` each build
one graph node with a hand-written backward. Each test runs the fused op
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
from histadapter.losses import batch_tsr, binary_cross_entropy_with_logits, total_loss
from histadapter.synth import split_protocol
from histadapter.vit import PRESETS

from reference_ops import attention_chain, cdc_chain, histogram_chain, linear_chain

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
        assert not fused.requires_grad and fused._parents == ()
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


def grad_ops(root: Tensor) -> list:
    """Ops with a backward that are reachable from ``root`` through grad-carrying tensors."""
    seen, stack, ops = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    return ops


def first_toy_step():
    """The model and loss of the first step train_run takes on configs/ablation.cfg:
    seed 0, batch 16, TSR on."""
    cfg = load_config(CONFIG, {})
    assert cfg.seed == 0 and cfg.batch_size == 16 and cfg.tsr_lambda > 0
    split = split_protocol(training.build_protocol(cfg), cfg.train_per_class,
                           cfg.test_per_class, PRESETS[cfg.preset].image,
                           min_source_domains=2)
    model = training._build_adapted_model(cfg)
    model.set_style_capture(True)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([29, cfg.seed]))
    idx = next(training._batches(len(split.train.labels), cfg.batch_size, shuffle_rng))
    logits = model.forward(Tensor(split.train.images.data[idx]))
    bce = binary_cross_entropy_with_logits(logits, split.train.labels[idx])
    tsr = batch_tsr(model.style_map, split.train.labels[idx], split.train.domain_ids[idx])
    return model, total_loss(bce, tsr, cfg.tsr_lambda)


def test_one_toy_training_step_builds_under_160_grad_ops():
    _, loss = first_toy_step()
    assert len(grad_ops(loss)) < 160


def test_backward_of_a_toy_training_step_frees_its_graph():
    model, loss = first_toy_step()
    interior = [weakref.ref(node) for node in grad_ops(loss)]
    assert len(interior) > 100
    loss.backward()
    # only the loss and the style map the model holds outlive the pass
    alive = {id(ref()) for ref in interior if ref() is not None}
    assert alive == {id(loss), id(model.style_map)}
    with pytest.raises(ValueError, match="consumed"):
        loss.backward()
