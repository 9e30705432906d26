"""The benchmark's tracer and step clock still find what they wrap in the program.

``perfbench/`` patches program classes and functions by name from outside.
One short TSR-on training run with both installed fails here when a rename
in ``src/`` would break the benchmark. Nothing under ``perfbench/`` is
changed; its directory is only put on ``sys.path``.
"""

import sys
from pathlib import Path

from histadapter import training, vit
from histadapter.config import load_config
from histadapter.optim import Adam
from test_cli_harness import SMALL

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from tracing import Tracer  # noqa: E402
from worker import StepClock  # noqa: E402


def test_traced_tsr_training_counts_every_layer(tmp_path):
    cfg = load_config(None, {**SMALL, "epochs": "1", "out": str(tmp_path)})
    assert cfg.tsr_lambda > 0
    originals = (vit.VisionTransformer.forward, Adam.step, training.batch_tsr)
    step_clock, tracer = StepClock(), Tracer()
    step_clock.install()
    tracer.install()
    try:
        training.train_run(cfg)
    finally:
        tracer.uninstall()
        step_clock.uninstall()
    assert (vit.VisionTransformer.forward, Adam.step, training.batch_tsr) == originals
    assert len(step_clock.step_s) == tracer.calls["optim.step"] > 0
    for layer in ("adapter.apply", "cdc.forward", "histogram.forward", "tokens.convert",
                  "losses.tsr"):
        assert tracer.nodes[layer] > 0, layer
