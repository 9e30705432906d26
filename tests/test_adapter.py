import numpy as np
import pytest

from histadapter import autodiff as ad
from histadapter.adapter import VARIANTS, HistAdapter
from histadapter.autodiff import ShapeError, Tensor, finite_difference_check


def make_seq(rng, n_tokens=10, width=16, batch=1):
    """A batch of one class token plus a 3x3 grid of patch tokens by default."""
    return Tensor(rng.standard_normal((batch, n_tokens, width)))


class TestIdentityAtInit:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_dim_up_means_identity(self, variant):
        rng = np.random.default_rng(0)
        adapter = HistAdapter(16, rng, adapter_dim=4, variant=variant)
        seq = make_seq(rng)
        out = adapter.apply(seq)
        assert np.array_equal(out.data, seq.data)

    def test_concat_fusion_also_identity(self):
        rng = np.random.default_rng(1)
        adapter = HistAdapter(16, rng, adapter_dim=4, fusion="concat")
        seq = make_seq(rng, batch=3)
        out = adapter.apply(seq)
        assert np.array_equal(out.data, seq.data)


class TestShapesAndClassToken:
    def test_output_shape_196_plus_class_at_base_width(self):
        rng = np.random.default_rng(2)
        adapter = HistAdapter(768, rng)
        seq = Tensor(rng.standard_normal((1, 197, 768)))
        assert adapter.apply(seq).shape == (1, 197, 768)

    def test_class_token_bitwise_unchanged_after_training_drift(self):
        rng = np.random.default_rng(3)
        adapter = HistAdapter(16, rng, adapter_dim=4)
        adapter.dim_up.weight.data = rng.standard_normal((4, 16))
        seq = make_seq(rng, batch=2)
        out = adapter.apply(seq)
        assert np.array_equal(out.data[:, 0, :], seq.data[:, 0, :])
        assert not np.array_equal(out.data[:, 1:, :], seq.data[:, 1:, :])

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        adapter = HistAdapter(16, rng)
        with pytest.raises(ShapeError, match="width"):
            adapter.apply(make_seq(rng, width=8))

    def test_non_square_patch_count_rejected(self):
        rng = np.random.default_rng(4)
        adapter = HistAdapter(16, rng)
        with pytest.raises(ShapeError, match="patch tokens"):
            adapter.apply(make_seq(rng, n_tokens=11))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("shape", [(10, 16), (1, 1, 10, 16)], ids=["unbatched", "rank4"])
    def test_tokens_must_be_batched_sequences(self, variant, shape):
        adapter = HistAdapter(16, np.random.default_rng(4), adapter_dim=4, variant=variant)
        with pytest.raises(ShapeError, match=r"\(B, 1 \+ N, 16\)"):
            adapter.apply(Tensor(np.zeros(shape)))


class TestParameterSurface:
    def test_full_adapter_parameter_count_at_base_scale(self):
        rng = np.random.default_rng(5)
        adapter = HistAdapter(768, rng, adapter_dim=8)
        total = sum(p.size for p in adapter.parameters().values())
        # 2*768*8 + 8 + 768 bottleneck, 8*8*3*3 + 8 conv, 2*8 histogram
        assert total == 2 * 768 * 8 + 8 + 768 + 8 * 8 * 9 + 8 + 16
        assert total < 2e4

    def test_checkpoint_names(self):
        rng = np.random.default_rng(6)
        names = set(HistAdapter(16, rng).parameters())
        assert names == {
            "dim_down.weight", "dim_down.bias", "cdc.kernel", "cdc.bias",
            "hist.mu", "hist.gamma", "dim_up.weight", "dim_up.bias",
        }

    def test_vanilla_has_no_conv_or_hist_params(self):
        rng = np.random.default_rng(7)
        names = set(HistAdapter(16, rng, variant="vanilla_linear").parameters())
        assert names == {"dim_down.weight", "dim_down.bias",
                         "dim_up.weight", "dim_up.bias"}

    def test_unknown_variant_and_fusion_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="variant"):
            HistAdapter(16, rng, variant="bogus")
        with pytest.raises(ValueError, match="fusion"):
            HistAdapter(16, rng, fusion="stack")


class TestVariantLattice:
    def test_full_with_theta_zero_minus_hist_equals_no_hist_no_cdc(self):
        seed = 9
        a = HistAdapter(16, np.random.default_rng(seed), adapter_dim=4,
                        theta=0.0, variant="no_hist")
        b = HistAdapter(16, np.random.default_rng(seed), adapter_dim=4,
                        theta=0.7, variant="no_hist_no_cdc")
        assert np.array_equal(a.cdc.kernel.data, b.cdc.kernel.data)
        assert b.cdc.theta == 0.0
        rng = np.random.default_rng(10)
        # give both the same nonzero dim_up so outputs are nontrivial
        w = rng.standard_normal((4, 16))
        a.dim_up.weight.data = w.copy()
        b.dim_up.weight.data = w.copy()
        seq = make_seq(rng)
        assert np.array_equal(a.apply(seq).data, b.apply(seq).data)

    def test_no_hist_differs_from_full_once_trained_region(self):
        rng = np.random.default_rng(11)
        full = HistAdapter(16, np.random.default_rng(12), adapter_dim=4, variant="full")
        nohist = HistAdapter(16, np.random.default_rng(12), adapter_dim=4, variant="no_hist")
        w = rng.standard_normal((4, 16))
        full.dim_up.weight.data = w.copy()
        nohist.dim_up.weight.data = w.copy()
        seq = make_seq(rng)
        assert not np.array_equal(full.apply(seq).data,
                                  nohist.apply(seq).data)


class TestStyleCapture:
    def test_capture_post_conv_map(self):
        rng = np.random.default_rng(13)
        adapter = HistAdapter(16, rng, adapter_dim=4)
        seq = make_seq(rng, batch=2)
        assert adapter.token_map(seq[:, 1:, :]).shape == (2, 4, 3, 3)

    def test_vanilla_captures_bottleneck_grid(self):
        rng = np.random.default_rng(14)
        adapter = HistAdapter(16, rng, adapter_dim=4, variant="vanilla_linear")
        seq = make_seq(rng, batch=2)
        assert adapter.token_map(seq[:, 1:, :]).shape == (2, 4, 3, 3)


class TestEndToEndGradient:
    def test_fd_through_full_adapter(self):
        rng = np.random.default_rng(15)
        adapter = HistAdapter(12, rng, adapter_dim=4)
        adapter.dim_up.weight.data = rng.normal(0, 0.3, (4, 12))
        tokens = rng.standard_normal((1, 10, 12))
        head_w = Tensor(rng.standard_normal((1, 10, 12)))

        def f(t):
            return ad.sum_all(ad.mul(adapter.apply(t), head_w))

        x = Tensor(tokens, requires_grad=True)
        rep = finite_difference_check(f, x, tolerance=1e-4, op_name="adapter")
        assert rep.passed, rep
