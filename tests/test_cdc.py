import numpy as np
import pytest

from histadapter import autodiff as ad
from histadapter.autodiff import Tensor, finite_difference_check
from histadapter.cdc import CdcConv

from oracles import cdc_difference_loops, conv2d_loops
from reference_ops import conv2d


def make_layer(theta, cin=2, cout=2, seed=0):
    rng = np.random.default_rng(seed)
    layer = CdcConv(cin, cout, rng, theta=theta)
    layer.bias.data = rng.standard_normal(cout)
    return layer


def blend_oracle(x, layer):
    vanilla = conv2d_loops(x, layer.kernel.data, layer.bias.data, 1, 1)
    diff = cdc_difference_loops(x, layer.kernel.data)
    return (1.0 - layer.theta) * vanilla + layer.theta * diff


class TestIdentities:
    def test_theta_zero_is_plain_convolution_bit_exact(self):
        layer = make_layer(theta=0.0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        got = layer.forward_tensor(x).data
        plain = conv2d(x, layer.kernel, layer.bias).data
        assert np.array_equal(got, plain)

    @pytest.mark.parametrize("value", [0.0, 0.37, -2.5])
    def test_constant_input_difference_term_exactly_zero(self, value):
        layer = make_layer(theta=1.0)
        layer.bias.data[:] = 0.0
        x = Tensor(np.full((1, 2, 6, 7), value))
        # theta=1 output is purely the difference term
        out = layer.forward_tensor(x).data
        assert np.all(out == 0.0)

    def test_constant_input_interior_value(self):
        # with all neighbors equal, only the vanilla term survives:
        # interior outputs are (1 - theta) * c * sum(kernel) + (1 - theta) * bias
        layer = make_layer(theta=0.7)
        c = 0.83
        x = Tensor(np.full((1, 2, 5, 5), c))
        out = layer.forward_tensor(x).data[0]
        ksum = layer.kernel.data.sum(axis=(1, 2, 3))
        expected = (1 - 0.7) * (c * ksum + layer.bias.data)
        assert np.allclose(out[:, 2, 2], expected, atol=1e-12)

    def test_shape_preserved(self):
        layer = make_layer(theta=0.5, cin=3, cout=5)
        x = Tensor(np.random.default_rng(2).standard_normal((1, 3, 4, 6)))
        assert layer.forward_tensor(x).shape == (1, 5, 4, 6)


class TestOracleEquivalence:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 1.0])
    def test_matches_per_pixel_loops(self, theta):
        rng = np.random.default_rng(3)
        layer = make_layer(theta=theta, seed=4)
        for _ in range(5):
            x = rng.standard_normal((1, 2, 5, 5))
            got = layer.forward_tensor(Tensor(x)).data[0]
            assert np.abs(got - blend_oracle(x[0], layer)).max() < 1e-10

    def test_batched_matches_single(self):
        layer = make_layer(theta=0.7)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 2, 4, 4))
        batched = layer.forward_tensor(Tensor(x)).data
        for i in range(3):
            single = layer.forward_tensor(Tensor(x[i:i + 1])).data[0]
            assert np.allclose(batched[i], single, atol=1e-13, rtol=0)


class TestValidation:
    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_theta_range_enforced(self, theta):
        with pytest.raises(ValueError, match="theta"):
            make_layer(theta=theta)

    def test_mutated_theta_caught_at_forward(self):
        layer = make_layer(theta=0.5)
        layer.theta = 1.2
        with pytest.raises(ValueError, match="theta"):
            layer.forward_tensor(Tensor(np.zeros((1, 2, 3, 3))))


class TestGradients:
    def test_fd_all_parameters(self):
        rng = np.random.default_rng(6)
        layer = make_layer(theta=0.7, seed=7)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 2, 4, 4)))
        head = lambda out: ad.sum_all(ad.mul(out, w))

        rep = finite_difference_check(
            lambda t: head(layer.forward_tensor(t)), x, op_name="cdc/x")
        assert rep.passed
        fixed = Tensor(x.data.copy())
        for name, param in layer.parameters().items():
            rep = finite_difference_check(
                lambda t: head(layer.forward_tensor(fixed)), param,
                op_name=f"cdc/{name}")
            assert rep.passed, rep
