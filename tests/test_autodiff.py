import weakref

import numpy as np
import pytest

from histadapter import autodiff as ad
from histadapter import gradcheck
from histadapter.autodiff import ShapeError, Tensor, finite_difference_check
from histadapter.gradcheck import run_gradient_checks

import reference_ops as ref
from oracles import conv2d_loops


def weighted_head(rng, shape):
    w = Tensor(rng.standard_normal(shape))
    return lambda out: ad.sum_all(ad.mul(out, w))


class TestFloat64:
    def test_float32_input_becomes_float64(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        assert x.data.dtype == np.float64

    def test_float32_operands_give_float64_data_and_gradients(self):
        rng = np.random.default_rng(12)
        x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                   for s in ((2, 3), (3, 4), (4,)))
        out = ad.add(ad.linear(x, w, b), rng.standard_normal((2, 4)).astype(np.float32))
        ad.sum_all(out).backward()
        assert out.data.dtype == np.float64
        assert all(t.data.dtype == t.grad.dtype == np.float64 for t in (x, w, b))


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

    @pytest.mark.parametrize("op", [ad.add, ref.sub, ad.mul])
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


BINARY_OPS = [(ad.add, np.add), (ref.sub, np.subtract), (ad.mul, np.multiply)]


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

    @pytest.mark.parametrize("op", [ad.add, ref.sub, ad.mul])
    @pytest.mark.parametrize("first,second", [((2, 1), (2,)), ((2,), (2, 1)),
                                              ((3, 1), (1, 4)), ((1, 4), (3, 1))])
    def test_result_in_neither_operand_shape_rejected(self, op, first, second):
        with pytest.raises(ShapeError, match="shapes"):
            op(Tensor(np.zeros(first)), Tensor(np.zeros(second)))


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(1)
        m = Tensor(rng.standard_normal((2, 2)))
        out = ref.matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.data, m.data)

    def test_direct(self):
        out = ref.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            ref.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_random(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        head = weighted_head(rng, (3, 2))
        assert finite_difference_check(
            lambda t: head(ref.matmul(t, b)), a).max_relative_error < 1e-6
        assert finite_difference_check(
            lambda t: head(ref.matmul(a, t)), b).max_relative_error < 1e-6

    def test_frozen_operand_gets_no_gradient_built(self, monkeypatch):
        passed = []
        accumulate = ad.accumulate_grad

        def spy(t, g):
            passed.append(t)
            accumulate(t, g)

        monkeypatch.setattr(ref, "accumulate_grad", spy)
        rng = np.random.default_rng(3)
        frozen_a = Tensor(rng.standard_normal((3, 4)))
        frozen_b = Tensor(rng.standard_normal((4, 2)))
        live_a = Tensor(frozen_a.data.copy(), requires_grad=True)
        live_b = Tensor(frozen_b.data.copy(), requires_grad=True)
        for lhs, rhs in ((frozen_a, live_b), (live_a, frozen_b)):
            ad.sum_all(ref.matmul(lhs, rhs)).backward()
        assert not any(t is frozen_a or t is frozen_b for t in passed)
        assert any(t is live_a for t in passed) and any(t is live_b for t in passed)
        assert live_a.grad is not None and live_b.grad is not None


class TestConv2d:
    def test_unit_kernel_identity(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = ref.conv2d(x, k, Tensor([0.0]))
        assert np.array_equal(out.data, x.data)

    def test_ones_center_is_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = ref.conv2d(x, k, Tensor([0.0]))
        assert out.data[0, 0, 1, 1] == 9.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((1, 2, 5, 6))
            k = rng.standard_normal((3, 2, 3, 3))
            b = rng.standard_normal(3)
            got = ref.conv2d(Tensor(x), Tensor(k), Tensor(b))
            want = conv2d_loops(x[0], k, b, 1, 1)
            assert np.allclose(got.data[0], want, atol=1e-12)

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        b = Tensor(np.zeros(3))
        batched = ref.conv2d(Tensor(x), Tensor(k), b).data
        for i in range(4):
            single = ref.conv2d(Tensor(x[i:i + 1]), Tensor(k), b).data[0]
            # reduction order may differ between batch sizes
            assert np.allclose(batched[i], single, atol=1e-13, rtol=0)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        head = weighted_head(rng, (1, 3, 5, 5))
        b = Tensor(np.zeros(3))
        rep = finite_difference_check(lambda t: head(ref.conv2d(t, k, b)), x)
        assert rep.max_relative_error < 1e-5

    def test_kernel_larger_than_grid_keeps_its_shape(self):
        out = ref.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))),
                        Tensor([0.0]))
        assert out.shape == (1, 1, 2, 2) and np.all(out.data == 4.0)

    @pytest.mark.parametrize("op", ["conv2d", "central_difference_term"])
    @pytest.mark.parametrize("x_shape, k_shape, b_shape", [
        ((1, 3, 4, 4), (2, 2, 3, 3), (2,)),  # input channels
        ((1, 2, 4, 4), (2, 2, 2, 3), (2,)),  # even kernel height
        ((1, 2, 4, 4), (2, 2, 3, 4), (2,)),  # even kernel width
        ((1, 2, 4, 4), (2, 2, 3), (2,)),     # kernel not 4D
        ((2, 4, 4), (2, 2, 3, 3), (2,)),     # unbatched input
        ((4, 4), (2, 2, 3, 3), (2,)),        # input rank
    ])
    def test_shape_mismatch_rejected(self, op, x_shape, k_shape, b_shape):
        x, k, b = (Tensor(np.zeros(s)) for s in (x_shape, k_shape, b_shape))
        with pytest.raises(ShapeError, match=op):
            if op == "conv2d":
                ref.conv2d(x, k, b)
            else:
                ref.central_difference_term(x, k)


class TestActivationsAndNorms:
    def test_softmax_symmetry(self):
        out = ref.softmax_lastdim(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        out = ref.softmax_lastdim(Tensor(rng.standard_normal((8, 8)) * 5))
        sums = out.data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_frobenius_zero(self):
        assert ref.frobenius_sq(Tensor(np.zeros((3, 3)))).data == 0.0

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
        rep = finite_difference_check(ref.frobenius_sq, x)
        assert rep.max_relative_error < 1e-7

    def test_report_fields(self):
        x = Tensor(np.ones(4), requires_grad=True)
        rep = finite_difference_check(ad.sum_all, x, op_name="sum")
        assert rep.op_name == "sum"
        assert rep.element_count == 4
        assert rep.passed == (rep.max_relative_error < 1e-5)

    def test_nonscalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            finite_difference_check(lambda t: ad.mul(t, t), x)


class TestBackward:
    def test_nonscalar_output_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        for out in (ad.scale(x, 2.0), Tensor(np.ones((1, 2)))):
            with pytest.raises(ShapeError, match="scalar"):
                out.backward()
        assert x.grad is None

    def test_scalar_output_seeded_with_one(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        ad.sum_all(ad.scale(x, 2.0)).backward()
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_basic_index_scatters_gradient(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = x[1:, None, ..., np.int64(2)]
        assert out.shape == (2, 1)
        ad.sum_all(out).backward()
        assert np.array_equal(x.grad, [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]])

    def test_array_index_rejected_for_take_rows(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        for idx in (np.array([0, 0, 2]), [0, 0, 2], (0, [1, 1]), np.array([True, False, True])):
            with pytest.raises(ShapeError, match="ints, slices, None and Ellipsis"):
                x[idx]
        # the gather that accumulates a repeated row's gradient
        ad.sum_all(ref.take_rows(x, [0, 0, 2])).backward()
        assert np.array_equal(x.grad, [[2, 2], [0, 0], [1, 1]])


class TestBackwardConsumesGraph:
    def test_interior_nodes_release_parents_and_gradients(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.mul(x, x)
        loss = ad.sum_all(y)
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])  # leaves keep their gradient
        for node in (y, loss):
            assert node._record.parents == () and node.grad is None
        assert np.array_equal(y.data, [1.0, 4.0])  # values stay readable

    def test_second_backward_from_the_same_root_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.sum_all(ad.mul(x, x))
        loss.backward()
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()

    def test_backward_from_a_second_root_through_a_spent_subgraph_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.mul(x, x)
        ad.sum_all(y).backward()
        second = ad.sum_all(ad.scale(y, 2.0))
        with pytest.raises(ValueError, match="consumed"):
            second.backward()


class TestSavedTensors:
    """A backward keeps only the arrays it reads; the graph links records, not data."""

    @staticmethod
    def scaled_into_linear(weight_trains: bool):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=weight_trains)
        h = ad.scale(x, 2.0)
        loss = ad.sum_all(ad.linear(h, w, Tensor(np.zeros(2))))
        return x, w, loss, weakref.ref(h), weakref.ref(h.data)

    def test_interior_tensor_no_backward_reads_dies_with_its_caller(self):
        # a frozen weight's linear reads only the weight: the scaled input is not kept
        x, w, loss, tensor_ref, data_ref = self.scaled_into_linear(weight_trains=False)
        assert tensor_ref() is None and data_ref() is None
        loss.backward()
        assert np.array_equal(x.grad, np.broadcast_to(2.0 * w.data.sum(axis=1), (4, 3)))
        with pytest.raises(ValueError, match="graph already consumed"):
            loss.backward()

    def test_array_a_backward_reads_outlives_its_tensor(self):
        x, w, loss, tensor_ref, data_ref = self.scaled_into_linear(weight_trains=True)
        assert tensor_ref() is None and data_ref() is not None
        loss.backward()
        assert data_ref() is None  # the pass frees what it read
        assert np.array_equal(w.grad, np.broadcast_to((2.0 * x.data).sum(axis=0)[:, None],
                                                      (3, 2)))

    def test_tensor_used_twice_gets_the_summed_gradient(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        y = ad.scale(x, 1.5)
        ad.sum_all(ad.add(y, y)).backward()
        assert np.array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_diamond_through_mul_sums_both_paths(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        ad.sum_all(ad.mul(ad.scale(x, 2.0), ad.scale(x, 3.0))).backward()
        # d(2x * 3x)/dx: 6x through each factor
        assert np.array_equal(x.grad, 12.0 * x.data)


class TestNoGrad:
    def test_grad_enabled_reports_the_mode(self):
        assert ad.grad_enabled()
        with ad.no_grad():
            assert not ad.grad_enabled()
        assert ad.grad_enabled()

    def test_ops_on_trainable_inputs_build_no_graph(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)))
        with ad.no_grad():
            outs = [ref.matmul(x, w), ad.gelu(w), ad.sum_all(ad.add(w, w)), w[:1]]
        for out in outs:
            assert not out.requires_grad
            assert out._record.parents == () and out._record.backward is None
        assert np.array_equal(outs[0].data, ref.matmul(x, w).data)

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
        assert out.requires_grad and out._record.parents == (w._record,)


OPS_FOR_SWEEP = [
    ("add", lambda rng: _binary_case(rng, ad.add)),
    ("sub", lambda rng: _binary_case(rng, ref.sub)),
    ("mul", lambda rng: _binary_case(rng, ad.mul)),
    ("scale", lambda rng: _binary_case(rng, lambda a, b: ad.scale(a, 1.7))),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("conv2d", lambda rng: _conv_case(rng)),
    ("cdt", lambda rng: _cdt_case(rng)),
    ("softmax", lambda rng: _unary_case(rng, ref.softmax_lastdim)),
    ("attention", lambda rng: _attention_case(rng)),
    ("exp", lambda rng: _unary_case(rng, lambda t: ref.exp(ad.scale(t, 0.5)))),
    ("gelu", lambda rng: _unary_case(rng, ad.gelu)),
    ("layernorm", lambda rng: _layernorm_case(rng)),
    ("window_sum", lambda rng: _unary3_case(rng, lambda t: ref.window_sum3x3(ref.pad2d(t, 1)))),
    ("frobenius_sq", lambda rng: _scalar_case(rng, ref.frobenius_sq)),
    ("take_rows", lambda rng: _take_rows_case(rng)),
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


def _scalar_case(rng, op):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return op, x


def _take_rows_case(rng):
    head = weighted_head(rng, (4, 3))
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    return lambda t: head(ref.take_rows(t, [0, 3, 3, 1])), x


def _matmul_case(rng):
    b = Tensor(rng.standard_normal((4, 2)))
    head = weighted_head(rng, (3, 2))
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return lambda t: head(ref.matmul(t, b)), x


def _attention_case(rng):
    k, v = (Tensor(rng.standard_normal((2, 3, 4))) for _ in range(2))
    head = weighted_head(rng, (2, 3, 4))
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    return lambda t: head(ad.attention(t, k, v, 2)), x


def _conv_case(rng):
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))
    head = weighted_head(rng, (1, 2, 4, 4))
    x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
    return lambda t: head(ref.conv2d(t, k, Tensor(np.zeros(2)))), x


def _cdt_case(rng):
    k = Tensor(rng.standard_normal((2, 2, 3, 3)))
    head = weighted_head(rng, (1, 2, 4, 4))
    x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
    return lambda t: head(ref.central_difference_term(t, k)), x


@pytest.mark.parametrize("name,case", OPS_FOR_SWEEP, ids=[n for n, _ in OPS_FOR_SWEEP])
def test_twenty_random_instances_per_op(name, case):
    """Module invariant: every op passes FD on >= 20 random instances."""
    for i in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([101, i]))
        fn, x = case(rng)
        rep = finite_difference_check(fn, x, op_name=name)
        assert rep.passed, f"{name} instance {i}: rel err {rep.max_relative_error:.2e}"


# names in autodiff.__all__ that are not differentiable ops
NOT_OPS = {"Tensor", "ShapeError", "GradCheckReport", "graph_op", "no_grad", "grad_enabled",
           "accumulate_grad", "finite_difference_check"}


def test_gradcheck_has_a_row_for_every_op():
    checked = {r.op_name.split("/")[0] for r in run_gradient_checks(instances_per_op=1)}
    assert NOT_OPS <= set(ad.__all__)
    assert set(ad.__all__) - NOT_OPS - checked == set()


@pytest.mark.parametrize("seed", [17, 285, 441, 670])
def test_gradcheck_passes_where_a_near_zero_readout_weight_failed_it(seed):
    # at these seeds a standard-normal readout once drew weights near 0, and
    # gelu, cdc_conv/input and adapter/cdc.kernel failed on correct code
    failures = [r for r in run_gradient_checks(instances_per_op=1, seed=seed) if not r.passed]
    assert failures == []


def test_gradcheck_fails_a_gelu_backward_off_by_1e_4(monkeypatch):
    def gelu_scaled_backward(x):
        y = ad.gelu(x)
        return ad.graph_op(y.data, (y,), lambda g: ad.accumulate_grad(y, g * (1.0 + 1e-4)))

    checks = [(gelu_scaled_backward, *row[1:]) if row[1] == ("gelu",) else row
              for row in gradcheck.CHECKS]
    assert checks != gradcheck.CHECKS
    monkeypatch.setattr(gradcheck, "CHECKS", checks)
    for seed in range(20):
        (gelu,) = [r for r in run_gradient_checks(instances_per_op=1, seed=seed)
                   if r.op_name == "gelu"]
        assert not gelu.passed, f"seed {seed}: rel err {gelu.max_relative_error:.2e}"


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
