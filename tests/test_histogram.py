import numpy as np
import pytest

from histadapter.autodiff import Tensor, finite_difference_check
from histadapter.gradcheck import _histogram_operands, _positive_readout
from histadapter.histogram import SoftHistogram

from oracles import soft_histogram_loops


def run(layer, z):
    """Responses to one (C, H, W) map, run as a batch of one."""
    return layer.forward_tensor(Tensor(z[None])).data[0]


class TestHandCases:
    def test_input_at_bin_center_saturates_interior(self):
        layer = SoftHistogram(2)
        layer.mu.data[:] = 0.4
        layer.gamma.data[:] = 3.0
        z = np.full((2, 5, 5), 0.4)
        out = run(layer, z)
        # interior windows see nine zero residuals -> exp(0) averaged = 1
        assert np.allclose(out[:, 1:-1, 1:-1], 1.0, atol=1e-15)

    def test_zero_width_saturates_everywhere(self):
        layer = SoftHistogram(3)
        layer.gamma.data[:] = 0.0
        z = np.random.default_rng(0).standard_normal((3, 4, 4))
        out = run(layer, z)
        assert np.all(out == 1.0)

    def test_single_spike_center_value(self):
        layer = SoftHistogram(1)  # mu=0, gamma=1 initialization
        z = np.zeros((1, 3, 3))
        z[0, 1, 1] = 1.0
        out = run(layer, z)
        expected_center = (8.0 + np.exp(-1.0)) / 9.0
        assert abs(out[0, 1, 1] - expected_center) < 1e-12

    def test_corner_padded_taps(self):
        layer = SoftHistogram(1)
        layer.mu.data[:] = 0.7
        layer.gamma.data[:] = 1.3
        rng = np.random.default_rng(1)
        z = rng.standard_normal((1, 4, 4))
        out = run(layer, z)
        want = soft_histogram_loops(z, layer.mu.data, layer.gamma.data)
        assert np.abs(out - want).max() < 1e-12
        # corner window: 5 padded taps each contribute exp(-(gamma*mu)^2)
        pad_term = np.exp(-(1.3 * 0.7) ** 2)
        inside = sum(
            np.exp(-(1.3 * (z[0, i, j] - 0.7)) ** 2) for i in (0, 1) for j in (0, 1)
        )
        assert abs(out[0, 0, 0] - (5 * pad_term + inside) / 9.0) < 1e-12


class TestRealizationEquivalence:
    def test_layered_path_equals_direct_definition(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            c = int(rng.integers(1, 4))
            h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
            layer = SoftHistogram(c)
            layer.mu.data = rng.standard_normal(c)
            layer.gamma.data = rng.standard_normal(c) * 2
            z = rng.standard_normal((c, h, w)) * 2
            got = run(layer, z)
            want = soft_histogram_loops(z, layer.mu.data, layer.gamma.data)
            assert np.abs(got - want).max() < 1e-12

    def test_batched_matches_single(self):
        layer = SoftHistogram(2)
        rng = np.random.default_rng(3)
        layer.mu.data = rng.standard_normal(2)
        z = rng.standard_normal((4, 2, 3, 5))
        batched = layer.forward_tensor(Tensor(z)).data
        for i in range(4):
            assert np.allclose(batched[i], run(layer, z[i]), atol=1e-14, rtol=0)


class TestRangeAndMonotonicity:
    def test_output_in_unit_interval_open_closed(self):
        # strict positivity holds whenever exp(-u^2) stays above float64
        # underflow, i.e. |gamma * (z - mu)| < ~26.6; these draws stay inside
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(1, 5))
            layer = SoftHistogram(c)
            layer.mu.data = rng.standard_normal(c)
            layer.gamma.data = rng.standard_normal(c) * 2
            z = rng.standard_normal((c, 4, 4)) * 1.5
            out = run(layer, z)
            assert np.all(out > 0.0)
            assert np.all(out <= 1.0)

    def test_moving_tap_away_from_center_decreases_outputs(self):
        layer = SoftHistogram(1)
        layer.mu.data[:] = 0.2
        layer.gamma.data[:] = 1.5
        z = np.full((1, 5, 5), 0.2)
        base = run(layer, z)
        z2 = z.copy()
        z2[0, 2, 2] = 0.9  # larger |z - mu| at an interior tap
        moved = run(layer, z2)
        window = moved[0, 1:4, 1:4]
        assert np.all(window < base[0, 1:4, 1:4])
        outside = np.ones((5, 5), dtype=bool)
        outside[1:4, 1:4] = False
        assert np.array_equal(moved[0][outside], base[0][outside])


class TestParametersAndGradients:
    def test_frozen_stage_constants(self):
        # the frozen halves (shift weight 1, scale bias 0) live in the op
        # itself; only the bin centers and widths are parameters
        layer = SoftHistogram(2)
        assert set(layer.parameters()) == {"mu", "gamma"}

    def test_initialization(self):
        layer = SoftHistogram(4)
        assert np.array_equal(layer.mu.data, np.zeros(4))
        assert np.array_equal(layer.gamma.data, np.ones(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_fd_all_inputs(self, seed):
        # operands and readout drawn as gradcheck draws them, so that no
        # gradient entry lies near 0, where the relative error cannot judge it
        rng = np.random.default_rng(seed)
        layer = SoftHistogram(2)
        z_data, layer.mu.data, layer.gamma.data = _histogram_operands(
            rng, ((1, 2, 4, 4), (2,), (2,)))
        head = _positive_readout(rng, (1, 2, 4, 4))
        z = Tensor(z_data, requires_grad=True)
        assert finite_difference_check(
            lambda t: head(layer.forward_tensor(t)), z, op_name="hist/z").passed
        fixed = Tensor(z.data.copy())
        for name, param in layer.parameters().items():
            rep = finite_difference_check(
                lambda t: head(layer.forward_tensor(fixed)), param,
                op_name=f"hist/{name}")
            assert rep.passed, rep
