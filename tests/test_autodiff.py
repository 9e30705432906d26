import numpy as np
import pytest

from histadapter import autodiff as ad
from histadapter.autodiff import ShapeError, Tensor, finite_difference_check

from oracles import conv2d_loops


def weighted_head(rng, shape):
    w = Tensor(rng.standard_normal(shape))
    return lambda out: ad.sum_all(ad.mul(out, w))


class TestElementwise:
    def test_add_direct(self):
        out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_scale_by_zero_annihilates(self):
        x = Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        out = ad.sum_all(ad.scale(x, 0.0))
        out.backward()
        assert np.all(out.data == 0.0)
        assert np.all(x.grad == 0.0)

    def test_square_rule(self):
        x = Tensor([3.0], requires_grad=True)
        ad.sum_all(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, [6.0])

    def test_scalar_broadcast_allowed(self):
        out = ad.mul(Tensor([[1.0, 2.0], [3.0, 4.0]]), 2.0)
        assert np.array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_shape_mismatch_rejected(self, op):
        with pytest.raises(ShapeError, match="shapes"):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([3.0], requires_grad=True)
        out = ad.sum_all(ad.add(ad.mul(x, x), ad.mul(x, x)))
        out.backward()
        assert np.allclose(x.grad, [12.0])

    def test_caller_zeroes_grads(self):
        x = Tensor([1.0], requires_grad=True)
        ad.sum_all(ad.mul(x, x)).backward()
        ad.sum_all(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, [4.0])  # two backwards accumulate
        x.zero_grad()
        assert x.grad is None


BINARY_OPS = [(ad.add, np.add), (ad.sub, np.subtract), (ad.mul, np.multiply)]


class TestBroadcast:
    @pytest.mark.parametrize("op,np_op", BINARY_OPS, ids=["add", "sub", "mul"])
    @pytest.mark.parametrize("big,small", [((4, 3), (3,)), ((2, 3, 4, 4), (3, 1, 1)),
                                           ((2, 5, 3), (5, 3))])
    @pytest.mark.parametrize("small_first", [False, True])
    def test_matches_numpy_and_finite_differences(self, op, np_op, big, small, small_first):
        rng = np.random.default_rng(11)
        shapes = (small, big) if small_first else (big, small)
        arrays = [rng.standard_normal(shape) for shape in shapes]
        out = op(Tensor(arrays[0]), Tensor(arrays[1]))
        assert out.shape == big
        assert np.array_equal(out.data, np_op(arrays[0], arrays[1]))
        head = weighted_head(rng, big)
        for i in range(2):
            operands = [Tensor(a) for a in arrays]

            def f(t, i=i, operands=operands):
                operands[i] = t
                return head(op(*operands))

            rep = finite_difference_check(f, operands[i])
            assert rep.max_relative_error < 1e-6

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    @pytest.mark.parametrize("first,second", [((2, 1), (2,)), ((2,), (2, 1)),
                                              ((3, 1), (1, 4)), ((1, 4), (3, 1))])
    def test_result_in_neither_operand_shape_rejected(self, op, first, second):
        with pytest.raises(ShapeError, match="shapes"):
            op(Tensor(np.zeros(first)), Tensor(np.zeros(second)))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(1)
        m = Tensor(rng.standard_normal((2, 2)))
        out = ad.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_direct(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_random(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        head = weighted_head(rng, (3, 2))
        assert finite_difference_check(
            lambda t: head(ad.matmul(t, b)), a).max_relative_error < 1e-6
        assert finite_difference_check(
            lambda t: head(ad.matmul(a, t)), b).max_relative_error < 1e-6

    def test_frozen_operand_gets_no_gradient_built(self, monkeypatch):
        passed = []
        accumulate = ad.accumulate_grad

        def spy(t, g):
            passed.append(t)
            accumulate(t, g)

        monkeypatch.setattr(ad, "accumulate_grad", spy)
        rng = np.random.default_rng(3)
        frozen_a = Tensor(rng.standard_normal((3, 4)))
        frozen_b = Tensor(rng.standard_normal((4, 2)))
        live_a = Tensor(frozen_a.data.copy(), requires_grad=True)
        live_b = Tensor(frozen_b.data.copy(), requires_grad=True)
        for lhs, rhs in ((frozen_a, live_b), (live_a, frozen_b)):
            ad.sum_all(ad.matmul(lhs, rhs)).backward()
        assert not any(t is frozen_a or t is frozen_b for t in passed)
        assert live_a.grad is not None and live_b.grad is not None


class TestConv2d:
    def test_unit_kernel_identity(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, k, Tensor([0.0]))
        assert np.array_equal(out.data, x.data)

    def test_ones_center_is_nine(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k, padding=1)
        assert out.data[0, 1, 1] == 9.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((2, 5, 6))
            k = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            for stride, padding in ((1, 1), (2, 1), (1, 0)):
                got = ad.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding)
                want = conv2d_loops(x, k, b, stride, padding)
                assert np.allclose(got.data, want, atol=1e-12)

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        batched = ad.conv2d(Tensor(x), Tensor(k), padding=1).data
        for i in range(4):
            single = ad.conv2d(Tensor(x[i]), Tensor(k), padding=1).data
            # reduction order differs between the two einsum paths
            assert np.allclose(batched[i], single, atol=1e-13, rtol=0)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        head = weighted_head(rng, (3, 5, 5))
        rep = finite_difference_check(lambda t: head(ad.conv2d(t, k, padding=1)), x)
        assert rep.max_relative_error < 1e-5

    def test_nonpositive_output_extent(self):
        with pytest.raises(ShapeError, match="non-positive"):
            ad.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestActivationsAndNorms:
    def test_softmax_symmetry(self):
        out = ad.softmax_lastdim(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = ad.softmax_lastdim(Tensor(rng.standard_normal((8, 8)) * 5))
        sums = out.data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_frobenius_zero(self):
        assert ad.frobenius_sq(Tensor(np.zeros((3, 3)))).data == 0.0

    def test_layernorm_standardizes(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 16)) * 3 + 1)
        out = ad.layernorm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-4)

    def test_gelu_zero_preserving(self):
        out = ad.gelu(Tensor([0.0, 1.0, -1.0]))
        assert out.data[0] == 0.0
        assert out.data[1] > 0.9 * 0.8413 and out.data[1] < 0.85


class TestFiniteDifferenceCheck:
    def test_linear_function_near_exact(self):
        x = Tensor(np.random.default_rng(8).standard_normal((3, 3)), requires_grad=True)
        rep = finite_difference_check(ad.sum_all, x, op_name="sum")
        assert rep.passed and rep.max_relative_error < 1e-9

    def test_frobenius_analytic(self):
        x = Tensor(np.random.default_rng(9).standard_normal((3, 3)), requires_grad=True)
        rep = finite_difference_check(ad.frobenius_sq, x)
        assert rep.max_relative_error < 1e-7

    def test_report_fields(self):
        x = Tensor(np.ones(4), requires_grad=True)
        rep = finite_difference_check(ad.mean_all, x, op_name="mean")
        assert rep.op_name == "mean"
        assert rep.element_count == 4
        assert rep.passed == (rep.max_relative_error < 1e-5)

    def test_nonscalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            finite_difference_check(lambda t: ad.mul(t, t), x)


class TestNoGrad:
    def test_ops_on_trainable_inputs_build_no_graph(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)))
        with ad.no_grad():
            outs = [ad.matmul(x, w), ad.gelu(w), ad.sum_all(ad.add(w, w)), w[:1]]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
        assert np.array_equal(outs[0].data, ad.matmul(x, w).data)

    def test_mode_restored_after_nesting_and_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.scale(w, 2.0).requires_grad
        assert ad.scale(w, 2.0).requires_grad
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        out = ad.scale(w, 2.0)
        assert out.requires_grad and out._parents == (w,)


OPS_FOR_SWEEP = [
    ("add", lambda rng: _binary_case(rng, ad.add)),
    ("sub", lambda rng: _binary_case(rng, ad.sub)),
    ("mul", lambda rng: _binary_case(rng, ad.mul)),
    ("scale", lambda rng: _binary_case(rng, lambda a, b: ad.scale(a, 1.7))),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("conv2d", lambda rng: _conv_case(rng)),
    ("cdt", lambda rng: _cdt_case(rng)),
    ("softmax", lambda rng: _unary_case(rng, ad.softmax_lastdim)),
    ("exp", lambda rng: _unary_case(rng, lambda t: ad.exp(ad.scale(t, 0.5)))),
    ("gelu", lambda rng: _unary_case(rng, ad.gelu)),
    ("layernorm", lambda rng: _layernorm_case(rng)),
    ("window_sum", lambda rng: _unary3_case(rng, lambda t: ad.window_sum3x3(ad.pad2d(t, 1)))),
]


def _binary_case(rng, op):
    other = Tensor(rng.standard_normal((3, 4)))
    head = weighted_head(rng, (3, 4))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: head(op(t, other)), x


def _unary_case(rng, op):
    head = weighted_head(rng, (3, 4))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: head(op(t)), x


def _unary3_case(rng, op):
    head = weighted_head(rng, (2, 4, 4))
    x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    return lambda t: head(op(t)), x


def _matmul_case(rng):
    b = Tensor(rng.standard_normal((4, 2)))
    head = weighted_head(rng, (3, 2))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: head(ad.matmul(t, b)), x


def _conv_case(rng):
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))
    head = weighted_head(rng, (2, 4, 4))
    x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    return lambda t: head(ad.conv2d(t, k, padding=1)), x


def _cdt_case(rng):
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))
    head = weighted_head(rng, (2, 4, 4))
    x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
    return lambda t: head(ad.central_difference_term(t, k)), x


@pytest.mark.parametrize("name,case", OPS_FOR_SWEEP, ids=[n for n, _ in OPS_FOR_SWEEP])
def test_twenty_random_instances_per_op(name, case):
    """Module invariant: every op passes FD on >= 20 random instances."""
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([101, i]))
        fn, x = case(rng)
        rep = finite_difference_check(fn, x, op_name=name)
        assert rep.passed, f"{name} instance {i}: rel err {rep.max_relative_error:.2e}"


def _layernorm_case(rng):
    gain = Tensor(rng.standard_normal(6))
    shift = Tensor(rng.standard_normal(6))
    head = weighted_head(rng, (3, 6))
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    return lambda t: head(ad.layernorm(t, gain, shift)), x


def test_composition_through_deep_chain():
    """Gradients survive long chains (iterative topo order, no recursion limit)."""
    x = Tensor(np.ones(3) * 0.01, requires_grad=True)
    y = x
    for _ in range(300):
        y = ad.add(y, ad.scale(x, 0.001))
    ad.sum_all(y).backward()
    assert np.allclose(x.grad, np.full(3, 1.0 + 0.3))
