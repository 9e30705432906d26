"""Gradient descent with first/second-moment accumulation (Adam)."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Updates the tensors it was given; anything else stays untouched.

    A ``None`` gradient counts as zero, the true gradient of a parameter the
    graph did not reach: its moments still decay and it keeps moving.

    Parameters are visited in insertion order of the dict, so runs are
    reproducible. Gradients are consumed as-is: call :meth:`zero_grad`
    between steps (accumulation across uses within a step is intended).
    """

    def __init__(self, params: dict, lr: float = 1e-4):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros(p.shape) for name, p in self.params.items()}
        self._v = {name: np.zeros(p.shape) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        correction1 = 1.0 - BETA1 ** self.t
        correction2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = 0.0 if p.grad is None else p.grad
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
