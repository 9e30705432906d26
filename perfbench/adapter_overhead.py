"""Measured adapter wall-time overhead beside the analytic MAC ratio.

    PYTHONPATH=src python3 perfbench/adapter_overhead.py

Times the forward pass of the ``tiny`` frozen backbone alone and with its
adapters, alternating the two for REPEATS rounds on one BLAS thread, and
prints the medians next to ``overhead.account``'s parameter and MAC ratios.
"""

from __future__ import annotations

import os

from run import PINNED

os.environ.update({var: "1" for var in PINNED})

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from histadapter.overhead import account  # noqa: E402
from histadapter.vit import PRESETS, build_model  # noqa: E402

PRESET = "tiny"
BATCH = 2
REPEATS = 7


def forward_s(model, images) -> float:
    start = time.perf_counter()
    model.forward(images)
    return time.perf_counter() - start


def set_adapters(model, adapters) -> None:
    for block, (msa, mlp) in zip(model.blocks, adapters):
        block.msa_adapter, block.mlp_adapter = msa, mlp


def main() -> None:
    side = PRESETS[PRESET].image
    images = np.random.default_rng(0).uniform(size=(BATCH, 3, side, side))
    model = build_model(PRESET, 0)                   # backbone frozen, adapters inserted
    adapters = [(b.msa_adapter, b.mlp_adapter) for b in model.blocks]
    none = [(None, None)] * len(adapters)
    plain, adapted = [], []
    for _ in range(REPEATS + 1):                     # the first round only warms up
        set_adapters(model, none)
        plain.append(forward_s(model, images))
        set_adapters(model, adapters)
        adapted.append(forward_s(model, images))
    plain, adapted = statistics.median(plain[1:]), statistics.median(adapted[1:])
    report = account(PRESET)
    print(f"preset {PRESET}, batch {BATCH}, median of {REPEATS} forward passes each")
    print(f"frozen backbone alone     {1e3 * plain:9.1f} ms")
    print(f"backbone with adapters    {1e3 * adapted:9.1f} ms  (+{100 * (adapted / plain - 1):.1f}%)")
    print(f"analytic adapter params   +{100 * report.param_ratio:.3f}%")
    print(f"analytic adapter MACs     +{100 * report.mac_ratio:.3f}%")


if __name__ == "__main__":
    main()
