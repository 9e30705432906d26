"""Byte fingerprints of training and gradcheck outputs, the identity check for refactors.

Trains three epochs of ``configs/ablation.cfg`` for every variant x fusion
pair, plus three runs with TSR off (``lambda=0``, where the last block
computes only the class row after attention), plus ``full``/``sum`` at
batch size 4 (some of its batches hold a bona fide example from fewer than
two domains, so their TSR is a constant and reaches no parameter), plus
``full``/``sum`` with ``few_shot_k=4`` (the held-out domain lends four
examples per class, so four domains enter the TSR and each domain's
gradient sums three pair terms, where the order of the sum shows), and
prints the sha256 of each run's ``model.ckpt`` and ``train_log.csv``. Next
comes the sha256 of the CSV that ``histadapter gradcheck --out`` writes, then
``synth ablation.cfg <sha256>`` over the bytes of the config's training,
held-out test and source-validation images, in that order. A change that
alters no float operation prints the same rows as its parent.

The last four rows are counters, not identity rows: a refactor may move
them. ``step peak toy <MiB>`` and ``step peak tiny <MiB>`` are the
``tracemalloc`` peaks of one TSR-on training step of each recipe, from
``tools/step_peak.py``; ``synth peak val MiB <MiB>`` is the ``tracemalloc``
peak of drawing the ``toy-eval`` workload's source-validation set (seed 0);
``src lines <N>`` is the line count over ``src/histadapter/*.py``. Run
from the repository root (about 45 s on one core):

    PYTHONPATH=src python3 tools/fingerprints.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

from histadapter.adapter import FUSIONS, VARIANTS
from histadapter.cli import main as cli_main
from histadapter.config import load_config
from histadapter.synth import source_validation, split_protocol
from histadapter.training import build_protocol, train_run
from histadapter.vit import PRESETS

from step_peak import step_peaks

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "ablation.cfg"
EPOCHS = 3


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_sha256(cfg) -> str:
    """One digest over the images of every split ``cfg`` draws."""
    side = PRESETS[cfg.preset].image
    protocol = build_protocol(cfg)
    split = split_protocol(protocol, cfg.train_per_class, cfg.test_per_class, side)
    digest = hashlib.sha256()
    for batch in (split.train, split.test, source_validation(protocol, cfg.val_per_class, side)):
        digest.update(batch.images.data.tobytes())
    return digest.hexdigest()


def synth_val_peak_mib() -> float:
    """``tracemalloc`` peak, in MiB, of drawing the ``toy-eval`` source-validation set."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import workload_config
    cfg = workload_config("toy-eval", 0)
    protocol = build_protocol(cfg)
    tracemalloc.start()
    source_validation(protocol, cfg.val_per_class, PRESETS[cfg.preset].image)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def main() -> None:
    runs = [(f"{v}/{f}/domain", {"variant": v, "fusion": f})
            for v in VARIANTS for f in FUSIONS]
    runs += [(f"{v}/{f}/lambda=0", {"variant": v, "fusion": f, "lambda": 0})
             for v, f in (("full", "sum"), ("vanilla_linear", "sum"), ("full", "concat"))]
    runs.append(("full/sum/batch_size=4", {"batch_size": 4}))
    runs.append(("full/sum/few_shot_k=4", {"few_shot_k": 4}))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, overrides in runs:
            cfg = load_config(CONFIG, {
                **overrides, "epochs": EPOCHS, "out": str(root / name.replace("/", "-")),
            })
            result = train_run(cfg)
            print(f"{name} model.ckpt {sha256(result.checkpoint_path)} "
                  f"train_log.csv {sha256(result.log_path)}", flush=True)
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["gradcheck", "--out", str(root / "gradcheck")])
        print(f"gradcheck.csv {sha256(root / 'gradcheck' / 'gradcheck.csv')}")
    print(f"synth {CONFIG.name} {synth_sha256(load_config(CONFIG, {}))}")
    for recipe, mib in step_peaks().items():
        print(f"step peak {recipe} {mib:.1f}")
    print(f"synth peak val MiB {synth_val_peak_mib():.1f}")
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "histadapter").glob("*.py"))
    print(f"src lines {lines}")


if __name__ == "__main__":
    main()
