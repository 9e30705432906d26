import numpy as np
import pytest

from histadapter.adapter import FUSIONS, VARIANTS
from histadapter.autodiff import ShapeError, Tensor
from histadapter.losses import binary_cross_entropy_with_logits
from histadapter.optim import Adam
from histadapter.vit import PRESETS, ViTBlock, ViTConfig, build_model


@pytest.fixture
def toy_model():
    return build_model("toy", seed=0, variant=None)


def test_token_counts_per_preset():
    for name, cfg in PRESETS.items():
        assert cfg.token_count == (cfg.image // cfg.patch) ** 2 + 1
    assert PRESETS["base"].patch_tokens == 196  # 14 x 14
    assert PRESETS["toy"].patch_tokens == 16


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ViTConfig(depth=1, width=10, heads=3, patch=8, image=32)
    with pytest.raises(ValueError, match="divisible"):
        ViTConfig(depth=1, width=8, heads=2, patch=7, image=32)


class TestAttention:
    def test_single_token_attention_is_identity_weight(self):
        cfg = ViTConfig(depth=1, width=8, heads=2, patch=8, image=8)
        block = ViTBlock(cfg, np.random.default_rng(0))
        att = block.attention_weights(Tensor(np.random.default_rng(1).standard_normal((1, 1, 8))))
        assert att.shape == (1, 2, 1, 1)
        assert np.allclose(att, 1.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        cfg = PRESETS["toy"]
        block = ViTBlock(cfg, np.random.default_rng(2))
        att = block.attention_weights(
            Tensor(np.random.default_rng(3).standard_normal((2, 17, 64))))
        assert np.all(np.abs(att.sum(axis=-1) - 1.0) <= 1e-10)

    def test_uniform_attention_averages_values(self):
        cfg = ViTConfig(depth=1, width=6, heads=1, patch=8, image=24)
        block = ViTBlock(cfg, np.random.default_rng(4))
        # zero Q,K -> uniform attention; identity V and output projection
        for lin in (block.wq, block.wk):
            lin.weight.data[:] = 0.0
            lin.bias.data[:] = 0.0
        for lin in (block.wv, block.proj):
            lin.weight.data = np.eye(6)
            lin.bias.data[:] = 0.0
        x = np.random.default_rng(5).standard_normal((1, 9, 6))
        out = block.mhsa(Tensor(x)).data
        assert np.allclose(out, np.tile(x.mean(axis=1, keepdims=True), (1, 9, 1)), atol=1e-12)

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (1, 3, 6), (1, 1, 3, 8)])
    def test_tokens_not_batch_rows_width_rejected(self, shape):
        block = ViTBlock(ViTConfig(depth=1, width=8, heads=2, patch=8, image=8),
                         np.random.default_rng(0))
        x = Tensor(np.zeros(shape))
        with pytest.raises(ShapeError, match="tokens"):
            block.mhsa(x)
        with pytest.raises(ShapeError, match="tokens"):
            block.attention_weights(x)


class TestForward:
    def test_logit_shape_and_patch_count(self, toy_model):
        images = np.random.default_rng(6).uniform(size=(3, 3, 32, 32))
        logits = toy_model.forward(images)
        assert logits.shape == (3, 2)
        assert toy_model.embed(Tensor(images)).shape == (3, 17, 64)

    def test_deterministic_given_seed(self):
        images = np.random.default_rng(7).uniform(size=(2, 3, 32, 32))
        a = build_model("toy", seed=5, variant=None).forward(images).data
        b = build_model("toy", seed=5, variant=None).forward(images).data
        assert np.array_equal(a, b)
        c = build_model("toy", seed=6, variant=None).forward(images).data
        assert not np.array_equal(a, c)

    def test_patchify_row_major(self, toy_model):
        images = np.zeros((1, 3, 32, 32))
        images[0, :, 8:16, 24:32] = 1.0  # patch row 1, col 3 -> index 1*4+3 = 7
        patches = toy_model.patchify(Tensor(images)).data
        assert np.all(patches[0, 7] == 1.0)
        others = np.delete(np.arange(16), 7)
        assert np.all(patches[0, others] == 0.0)


class TestFreezeContract:
    def test_adapted_equals_frozen_at_init(self):
        images = np.random.default_rng(8).uniform(size=(4, 3, 32, 32))
        frozen = build_model("toy", seed=1, variant=None).forward(images).data
        adapted = build_model("toy", seed=1, variant="full").forward(images).data
        assert np.array_equal(frozen, adapted)

    def test_frozen_weights_bit_identical_after_steps(self):
        model = build_model("toy", seed=2, variant="full")
        snapshot = {k: v.data.copy() for k, v in model.backbone_parameters().items()}
        trainable = model.trainable_parameters()
        assert all(not k.startswith(("block0.wq", "patch_embed")) for k in trainable)
        opt = Adam(trainable, lr=1e-2)
        rng = np.random.default_rng(9)
        images = rng.uniform(size=(6, 3, 32, 32))
        labels = np.array([0, 1, 0, 1, 0, 1])
        from histadapter.losses import binary_cross_entropy_with_logits
        for _ in range(2):
            loss = binary_cross_entropy_with_logits(model.forward(images), labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
        for name, before in snapshot.items():
            assert np.array_equal(model.backbone_parameters()[name].data, before), name

    def test_trainable_set_is_adapters_plus_head(self):
        model = build_model("toy", seed=3, variant="full")
        names = set(model.trainable_parameters())
        assert all(("adapter" in n) or n.startswith("head.") for n in names)
        assert "head.weight" in names
        per_block = {n for n in names if n.startswith("block0.")}
        assert {
            "block0.msa_adapter.cdc.kernel", "block0.mlp_adapter.hist.mu",
            "block0.msa_adapter.dim_up.weight",
        } <= per_block

    def test_logits_move_while_frozen_forward_unchanged(self):
        images = np.random.default_rng(10).uniform(size=(4, 3, 32, 32))
        labels = np.array([0, 1, 0, 1])
        frozen_reference = build_model("toy", seed=4, variant=None)
        before = frozen_reference.forward(images).data.copy()

        model = build_model("toy", seed=4, variant="full")
        opt = Adam(model.trainable_parameters(), lr=1e-2)
        from histadapter.losses import binary_cross_entropy_with_logits
        for _ in range(3):
            loss = binary_cross_entropy_with_logits(model.forward(images), labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
        moved = model.forward(images).data
        assert not np.array_equal(moved, before)
        assert np.array_equal(frozen_reference.forward(images).data, before)


def perturbed_model(variant="full", fusion="sum", seed=11):
    """An adapted toy model with every trainable tensor moved off its init."""
    model = build_model("toy", seed=seed, variant=variant, fusion=fusion)
    rng = np.random.default_rng(seed)
    for t in model.trainable_parameters().values():
        t.data = t.data + 0.05 * rng.standard_normal(t.shape)
    return model


class TestClassRowPath:
    """Without style capture the last block runs its MLP on the class row only."""

    @pytest.mark.parametrize("batch", [2, 16])
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logits_equal_full_path(self, variant, fusion, batch):
        model = perturbed_model(variant, fusion)
        images = np.random.default_rng(batch).uniform(size=(batch, 3, 32, 32))
        class_row = model.forward(images).data
        model.set_style_capture(True)
        full = model.forward(images).data
        assert model.blocks[-1].mlp_adapter.last_style_map is not None
        assert np.array_equal(class_row, full)

    def test_bce_gradients_match_full_path(self):
        images = np.random.default_rng(12).uniform(size=(6, 3, 32, 32))
        labels = np.array([0, 1, 0, 1, 1, 0])
        grads = {}
        for capture in (False, True):
            model = perturbed_model()
            model.set_style_capture(capture)
            binary_cross_entropy_with_logits(model.forward(images), labels).backward()
            grads[capture] = {k: t.grad for k, t in model.trainable_parameters().items()}
        last = f"block{PRESETS['toy'].depth - 1}."
        for name, full in grads[True].items():
            class_row = grads[False][name]
            if name.startswith((last + "msa_adapter.", last + "mlp_adapter.")):
                assert class_row is None, name
                assert not np.any(full), name
            elif name.startswith("head."):
                assert np.array_equal(class_row, full), name
            else:
                # fc1's input gradient g @ W1^T has B rows here and 17 B rows on
                # the full path; for few rows OpenBLAS may sum a product with a
                # transposed operand in another order, so the gradients below
                # the last block agree to rounding, not to the bit
                assert np.max(np.abs(class_row - full)) <= 1e-12 * np.max(np.abs(full)), name
