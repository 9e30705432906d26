import numpy as np

from histadapter.autodiff import Tensor
from histadapter.optim import Adam


class TestNoneGradient:
    def test_none_moves_like_an_all_zero_gradient(self):
        rng = np.random.default_rng(0)
        init, g = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        skipped = Tensor(init.copy(), requires_grad=True)
        zeroed = Tensor(init.copy(), requires_grad=True)
        opt = Adam({"skipped": skipped, "zeroed": zeroed}, lr=0.1)
        skipped.grad, zeroed.grad = g.copy(), g.copy()
        opt.step()
        after_one = skipped.data.copy()
        skipped.grad, zeroed.grad = None, np.zeros_like(g)
        opt.step()
        assert np.array_equal(skipped.data, zeroed.data)
        # the moment from step 1 keeps moving it
        assert not np.any(skipped.data == after_one)

    def test_never_reached_parameter_stays_put(self):
        p = Tensor(np.arange(4.0), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(3):
            opt.step()
        assert np.array_equal(p.data, np.arange(4.0))
