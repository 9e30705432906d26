"""Finite-difference validation of every differentiable operation.

Each check builds a scalar via a fixed random-weight readout of the op
output (a plain mean would leave structurally zero gradient entries whose
finite-difference noise, divided by the small-denominator floor, looks
like spurious error). Per-op tolerance is 1e-5; the fully composed
adapter is checked end to end at 1e-4.
"""

from __future__ import annotations

import numpy as np

from histadapter import autodiff as ad
from histadapter.adapter import HistAdapter
from histadapter.autodiff import GradCheckReport, Tensor, finite_difference_check
from histadapter.losses import binary_cross_entropy_with_logits, gram, tsr_pair

__all__ = ["run_gradient_checks", "OP_TOLERANCE", "COMPOSED_TOLERANCE"]

OP_TOLERANCE = 1e-5
COMPOSED_TOLERANCE = 1e-4


def _readout(rng, shape):
    w = Tensor(rng.standard_normal(shape))

    def head(out):
        return ad.sum_all(ad.mul(out, w))

    return head


def _merge(name: str, reports, tolerance: float) -> GradCheckReport:
    worst = max(r.max_relative_error for r in reports)
    total = sum(r.element_count for r in reports)
    return GradCheckReport(name, worst, total, worst < tolerance)


def _elementwise_checks(rng, instances):
    cases = {
        "add": lambda a, b: ad.add(a, b),
        "sub": lambda a, b: ad.sub(a, b),
        "mul": lambda a, b: ad.mul(a, b),
        "scale": lambda a, b: ad.scale(a, 0.73),
    }
    for name, op in cases.items():
        reports = []
        for _ in range(instances):
            shape = (3, 4)
            head = _readout(rng, shape)
            other = Tensor(rng.standard_normal(shape))
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            reports.append(finite_difference_check(
                lambda t: head(op(t, other)), x, op_name=name))
        yield _merge(name, reports, OP_TOLERANCE)


def _unary_checks(rng, instances):
    cases = {
        "exp": (ad.exp, (3, 4)),
        "gelu": (ad.gelu, (3, 4)),
        "softmax_lastdim": (ad.softmax_lastdim, (4, 5)),
        "window_sum3x3": (lambda t: ad.window_sum3x3(ad.pad2d(t, 1)), (2, 4, 5)),
        "reindexings": (
            lambda t: ad.take_rows(
                ad.reshape(ad.transpose(ad.pad2d(t, 1), (0, 2, 1)), (14, 7))[2:9],
                [0, 3, 3, 5],
            ),
            (2, 5, 5),
        ),
    }
    for name, (op, shape) in cases.items():
        reports = []
        for _ in range(instances):
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            probe = op(Tensor(x.data.copy()))
            head = _readout(rng, probe.shape)
            reports.append(finite_difference_check(
                lambda t: head(op(t)), x, op_name=name))
        yield _merge(name, reports, OP_TOLERANCE)


def _scalar_checks(rng, instances):
    cases = {
        "sum_all": ad.sum_all,
        "mean_all": ad.mean_all,
        "frobenius_sq": ad.frobenius_sq,
    }
    for name, op in cases.items():
        reports = []
        for _ in range(instances):
            x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            reports.append(finite_difference_check(op, x, op_name=name))
        yield _merge(name, reports, OP_TOLERANCE)


def _standard_normals(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


def _argument_checks(rng, instances, op, names, shapes, draw=_standard_normals,
                     readout=_readout):
    """Check ``op`` with respect to each operand in turn.

    Per instance, every operand is drawn by ``draw`` (all requiring grad),
    then the readout. ``names[i]`` names the check of operand ``i``, of shape
    ``shapes[i]``.
    """
    for which, name in enumerate(names):
        reports = []
        for _ in range(instances):
            parts = [Tensor(a, requires_grad=True) for a in draw(rng, shapes)]
            head = readout(rng, op(*parts).shape)

            def fn(t, which=which, parts=parts, head=head):
                args = list(parts)
                args[which] = t
                return head(op(*args))

            reports.append(finite_difference_check(fn, parts[which], op_name=name))
        yield _merge(name, reports, OP_TOLERANCE)


def _operand_checks(rng, instances):
    yield from _argument_checks(rng, instances, ad.matmul,
                                ("matmul/lhs", "matmul/rhs"), ((3, 4), (4, 2)))
    yield from _argument_checks(
        rng, instances, ad.conv2d,
        ("conv2d/input", "conv2d/kernel", "conv2d/bias"), ((1, 2, 5, 5), (3, 2, 3, 3), (3,)))
    yield from _argument_checks(
        rng, instances, ad.central_difference_term,
        ("central_difference/input", "central_difference/kernel"),
        ((1, 2, 5, 5), (3, 2, 3, 3)))
    yield from _argument_checks(
        rng, instances, ad.layernorm,
        ("layernorm/input", "layernorm/gain", "layernorm/shift"), ((4, 6), (6,), (6,)))


def _objective_checks(rng, instances):
    reports = []
    for _ in range(instances):
        logits = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        labels = rng.integers(0, 2, 6)
        reports.append(finite_difference_check(
            lambda t: binary_cross_entropy_with_logits(t, labels),
            logits, op_name="bce_with_logits"))
    yield _merge("bce_with_logits", reports, OP_TOLERANCE)

    reports = []
    for _ in range(instances):
        z = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        head = _readout(rng, (3, 3))
        reports.append(finite_difference_check(
            lambda t: head(gram(t)), z, op_name="gram"))
    yield _merge("gram", reports, OP_TOLERANCE)

    reports = []
    for _ in range(instances):
        z1 = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        z2 = Tensor(rng.standard_normal((3, 4, 4)))
        reports.append(finite_difference_check(
            lambda t: tsr_pair(t, z2), z1, op_name="tsr_pair"))
    yield _merge("tsr_pair", reports, OP_TOLERANCE)


def _composed_adapter_checks(rng):
    """End-to-end check through the full adapter at composed tolerance."""
    model_dim, adapter_dim, side = 16, 4, 3
    adapter = HistAdapter(model_dim, rng, adapter_dim=adapter_dim, theta=0.7,
                          variant="full")
    # zero-init dim_up would silence most parameter gradients; perturb it
    adapter.dim_up.weight.data = rng.normal(0.0, 0.2, adapter.dim_up.weight.shape)
    adapter.dim_up.bias.data = rng.normal(0.0, 0.2, adapter.dim_up.bias.shape)
    tokens = rng.standard_normal((1, side * side + 1, model_dim))
    head = _readout(rng, (1, side * side + 1, model_dim))

    def run(seq_tokens):
        return head(adapter.apply(seq_tokens))

    x = Tensor(tokens.copy(), requires_grad=True)
    yield finite_difference_check(run, x, tolerance=COMPOSED_TOLERANCE,
                                  op_name="adapter/input")
    for name, param in adapter.parameters().items():
        fixed = Tensor(tokens.copy())
        yield finite_difference_check(lambda t, p=param: run(fixed),
                                      param, tolerance=COMPOSED_TOLERANCE,
                                      op_name=f"adapter/{name}")


def _fused_checks(rng, instances):
    """Each operand of the one-node ops the layers call (drawn last, so every
    earlier check keeps its random draws)."""
    yield from _argument_checks(rng, instances, ad.linear,
                                ("linear/input", "linear/weight", "linear/bias"),
                                ((2, 3, 4), (4, 2), (2,)))
    yield from _argument_checks(
        rng, instances, lambda x, k, b: ad.cdc_conv(x, k, b, 0.7),
        ("cdc_conv/input", "cdc_conv/kernel", "cdc_conv/bias"),
        ((2, 2, 4, 4), (3, 2, 3, 3), (3,)))
    yield from _argument_checks(
        rng, instances, ad.soft_histogram,
        ("soft_histogram/input", "soft_histogram/mu", "soft_histogram/gamma"),
        ((2, 3, 4, 4), (3,), (3,)), draw=_histogram_operands, readout=_positive_readout)


def _histogram_operands(rng, shapes):
    """Soft-histogram operands whose gradient entries all lie far from 0.

    The relative error cannot judge an entry near 0, and the derivative of
    exp(-(gamma (z - mu))^2) vanishes at z = mu. So every centered value
    z - mu, the padded taps' -mu included, is positive, and it and |gamma|
    lie in [0.5, 1.5). With a positive readout no entry then sums terms of
    both signs.
    """
    z_shape, mu_shape, gamma_shape = shapes
    mu = -rng.uniform(0.5, 1.5, mu_shape)
    z = mu[:, None, None] + rng.uniform(0.5, 1.5, z_shape)
    gamma = rng.uniform(0.5, 1.5, gamma_shape) * rng.choice([-1.0, 1.0], gamma_shape)
    return [z, mu, gamma]


def _positive_readout(rng, shape):
    w = Tensor(rng.uniform(0.5, 1.5, shape))

    def head(out):
        return ad.sum_all(ad.mul(out, w))

    return head


def run_gradient_checks(instances_per_op: int = 5, seed: int = 0) -> list:
    """All per-op checks plus the composed-adapter checks, as reports."""
    rng = np.random.default_rng(np.random.SeedSequence([41, seed]))
    reports = []
    reports.extend(_elementwise_checks(rng, instances_per_op))
    reports.extend(_unary_checks(rng, instances_per_op))
    reports.extend(_scalar_checks(rng, instances_per_op))
    reports.extend(_operand_checks(rng, instances_per_op))
    reports.extend(_objective_checks(rng, instances_per_op))
    reports.extend(_composed_adapter_checks(rng))
    reports.extend(_fused_checks(rng, instances_per_op))
    return reports
