"""Peak memory of one TSR-on training step, from ``tracemalloc``.

Runs the first training step whose batch holds bona fide examples of two
source domains (so the token style regularizer is active) for two recipes:
``toy``, the ``configs/ablation.cfg`` recipe, and ``tiny``, the
``tiny-train`` workload as ``perfbench/worker.py`` sets it up (seed 0). The
run starts and the step runs through ``training._start_run`` and
``training._step_loss``, as in ``training.train_run``, followed by the same
``zero_grad``, backward and Adam update. Its peak is the highest
traced allocation during the step above what was traced just before it,
in MiB, so it counts the step's graph, gradients and scratch arrays but
not the model or the data. Both steps run in one fresh interpreter, so no
earlier allocation or cache of the caller enters the figure. Run from the
repository root (about 3 s); it prints ``toy <MiB>`` and ``tiny <MiB>``:

    python3 tools/step_peak.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CONFIG = ROOT / "configs" / "ablation.cfg"
RECIPES = ("toy", "tiny")


def step_peaks() -> dict:
    """``{"toy": MiB, "tiny": MiB}``: each recipe's step peak, measured in a fresh
    interpreter that imports ``histadapter`` from this tree's ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TOOLS)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    code = "import json, step_peak; print(json.dumps(step_peak.measure()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure() -> dict:
    """Each recipe's step peak, in this interpreter. The program is imported
    only here, so a caller of :func:`step_peaks` need not load ``histadapter``."""
    return {recipe: _step_peak_mib(_recipe_config(recipe)) for recipe in RECIPES}


def _recipe_config(recipe: str):
    from histadapter.config import load_config
    if recipe == "toy":
        return load_config(CONFIG, {})
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import workload_config
    return workload_config("tiny-train", 0)


def _step_peak_mib(cfg) -> float:
    import tracemalloc

    import numpy as np

    from histadapter import training

    assert cfg.tsr_lambda > 0
    tracemalloc.start()
    train, model, optimizer, shuffle_rng = training._start_run(cfg)
    bona_fide = train.labels == 0
    idx = next(idx for _ in range(cfg.epochs)
               for idx in training._batches(len(train.labels), cfg.batch_size, shuffle_rng)
               if np.unique(train.domain_ids[idx][bona_fide[idx]]).size >= 2)

    baseline = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    *_, loss = training._step_loss(model, train, idx, cfg.tsr_lambda)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return (peak - baseline) / 2**20


if __name__ == "__main__":
    for recipe, mib in step_peaks().items():
        print(f"{recipe} {mib:.1f}")
