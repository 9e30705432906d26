"""Finite-difference validation of every differentiable operation.

Each check builds a scalar via a fixed random-weight readout of the op
output (a plain mean would leave structurally zero gradient entries whose
finite-difference noise, divided by the small-denominator floor, looks
like spurious error). Each weight's magnitude lies in [0.5, 1.5), so no
gradient entry shrinks toward 0 through a near-zero weight either.
Per-op tolerance is 1e-5; the fully composed adapter is checked end to
end at 1e-4.
"""

from __future__ import annotations

import numpy as np

from histadapter import autodiff as ad
from histadapter.adapter import HistAdapter
from histadapter.autodiff import GradCheckReport, Tensor, finite_difference_check
from histadapter.losses import batch_tsr, binary_cross_entropy_with_logits

__all__ = ["run_gradient_checks", "OP_TOLERANCE", "COMPOSED_TOLERANCE"]

OP_TOLERANCE = 1e-5
COMPOSED_TOLERANCE = 1e-4


def _signed_magnitudes(rng, shape):
    """Entries of magnitude in [0.5, 1.5), each of random sign."""
    return rng.uniform(0.5, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def _readout(rng, shape, draw=_signed_magnitudes):
    w = Tensor(draw(rng, shape))

    def head(out):
        return ad.sum_all(ad.mul(out, w))

    return head


def _merge(name: str, reports, tolerance: float) -> GradCheckReport:
    worst = max(r.max_relative_error for r in reports)
    total = sum(r.element_count for r in reports)
    return GradCheckReport(name, worst, total, worst < tolerance)


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
    return [z, mu, _signed_magnitudes(rng, gamma_shape)]


def _positive_readout(rng, shape):
    return _readout(rng, shape, lambda rng, shape: rng.uniform(0.5, 1.5, shape))


def _two_domain_tsr(lhs, rhs):
    """:func:`batch_tsr` of two bona fide (C, H, W) maps, from domains 0 and 1."""
    maps = ad.concat([ad.reshape(t, (1,) + t.shape) for t in (lhs, rhs)])
    return batch_tsr(maps, [0, 0], [0, 1])


# (op, operand names, operand shapes[, draw, readout]): one row per operand,
# named "<op>/<operand>", or "<op>" for an op of one operand
CHECKS = [
    (ad.add, ("add/lhs", "add/rhs"), ((3, 4), (4,))),
    (ad.mul, ("mul/lhs", "mul/rhs"), ((3, 4), (4,))),
    (lambda a: ad.scale(a, 0.73), ("scale",), ((3, 4),)),
    (ad.linear, ("linear/input", "linear/weight", "linear/bias"), ((2, 3, 4), (4, 2), (2,))),
    (lambda x, k, b: ad.cdc_conv(x, k, b, 0.7),
     ("cdc_conv/input", "cdc_conv/kernel", "cdc_conv/bias"),
     ((2, 2, 4, 4), (3, 2, 3, 3), (3,))),
    (ad.soft_histogram, ("soft_histogram/input", "soft_histogram/mu", "soft_histogram/gamma"),
     ((2, 3, 4, 4), (3,), (3,)), _histogram_operands, _positive_readout),
    (ad.gelu, ("gelu",), ((3, 4),)),
    (lambda q, k, v: ad.attention(q, k, v, 2), ("attention/q", "attention/k", "attention/v"),
     ((2, 3, 4), (2, 3, 4), (2, 3, 4))),
    (ad.layernorm, ("layernorm/input", "layernorm/gain", "layernorm/shift"),
     ((4, 6), (6,), (6,))),
    (ad.sum_all, ("sum_all",), ((3, 4),)),
    (lambda t: ad.reshape(t, (4, 3)), ("reshape",), ((3, 4),)),
    (lambda t: ad.transpose(t, (2, 0, 1)), ("transpose",), ((2, 3, 4),)),
    (lambda a, b: ad.concat([a, b], axis=1), ("concat/lhs", "concat/rhs"),
     ((2, 3, 4), (2, 1, 4))),
    (lambda t: t[1:, None, ..., 2], ("index",), ((3, 4, 5),)),
    (lambda t: binary_cross_entropy_with_logits(t, [0, 1, 1, 0, 1, 0]),
     ("bce_with_logits",), ((6, 2),)),
    (_two_domain_tsr, ("tsr_pair/lhs", "tsr_pair/rhs"), ((3, 4, 4), (3, 4, 4))),
]


def run_gradient_checks(instances_per_op: int = 5, seed: int = 0) -> list:
    """Every per-op check of :data:`CHECKS`, then the composed-adapter checks, as reports."""
    if instances_per_op < 1:
        raise ValueError(f"instances_per_op must be at least 1, got {instances_per_op}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(np.random.SeedSequence([41, seed]))
    reports = []
    for check in CHECKS:
        reports.extend(_argument_checks(rng, instances_per_op, *check))
    reports.extend(_composed_adapter_checks(rng))
    return reports
