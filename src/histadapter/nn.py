"""Small layer helpers shared by the adapter and the backbone."""

from __future__ import annotations

import numpy as np

from histadapter import autodiff as ad
from histadapter.autodiff import Tensor

__all__ = ["Linear", "prefixed", "set_trainable"]


class Linear:
    """Affine map on the last axis: y = x @ weight + bias, one :func:`ad.linear` node.

    ``init`` selects the weight fill: "lecun" (normal, std 1/sqrt(fan_in)),
    "zeros" (used for residual branches that must vanish at start), or
    "identity_top" (identity on the first ``out_dim`` input rows, zeros
    below; used by the concatenation-fusion reducer so it starts as a
    projection onto the original tokens).
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None,
                 init: str = "lecun"):
        if init == "lecun":
            if rng is None:
                raise ValueError("lecun init needs an rng")
            w = rng.normal(0.0, 1.0 / np.sqrt(in_dim), size=(in_dim, out_dim))
        elif init == "zeros":
            w = np.zeros((in_dim, out_dim))
        elif init == "identity_top":
            w = np.zeros((in_dim, out_dim))
            w[:out_dim, :] = np.eye(out_dim)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)

    def parameters(self) -> dict:
        return {"weight": self.weight, "bias": self.bias}


def prefixed(prefix: str, params: dict) -> dict:
    return {f"{prefix}.{name}": t for name, t in params.items()}


def set_trainable(params: dict, trainable: bool) -> None:
    for t in params.values():
        t.requires_grad = trainable
