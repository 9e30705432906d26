"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``. Sets up the workload, prints ``READY`` just before the
first timed operation, repeats whole rounds of the workload for at least
``--seconds``, checks the outputs untimed, and prints ``RESULT <json>``.
With ``--setup-only`` it stops after ``READY``; ``run.py`` times several such
set-ups from process start. With ``--trace 1`` it first runs one untraced
round as the reference for the tracing overhead, then traced rounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter
_t = clock()
from histadapter import synth, training, vit  # noqa: E402
from histadapter.checkpoint import assign_parameters, load_checkpoint  # noqa: E402
from histadapter.config import load_config  # noqa: E402
from histadapter.optim import Adam  # noqa: E402
IMPORT_S = clock() - _t

import numpy as np  # noqa: E402

import checks  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Patcher, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ABLATION = ROOT / "configs" / "ablation.cfg"
OUT = ROOT / "runs" / "perfbench"
# one-image-at-a-time rescoring of this many evenly spaced eval images
SINGLE_IMAGE_SAMPLE = 64
CHECKPOINT_EPOCHS = 2


def workload_config(workload: str, seed: int):
    """The ablation recipe; ``seed`` drives model init, shuffling and image noise."""
    overrides = {"seed": seed, "style_seed": 7 + seed}
    if workload == "toy-eval":
        # 1344 validation + 1280 test images: whole 64-image scoring batches
        overrides.update(val_per_class=224, test_per_class=640)
    elif workload == "tiny-train":
        # 2 source domains x (1 bona fide + 1 attack), batch 2: 2 steps an epoch
        overrides.update(preset="tiny", num_domains=3, held_out=2, train_per_class=1,
                         test_per_class=1, val_per_class=1, batch_size=2, epochs=3)
    return load_config(ABLATION, overrides)


class StepClock(Patcher):
    """Times each step from the model's forward call to the step's last call:
    ``Adam.step`` in training, ``attack_probabilities`` in scoring. Also times
    ``score_batch`` and keeps what it returns."""

    def __init__(self):
        super().__init__()
        self.step_s: list = []
        self.score_s = 0.0
        self.scores: list = []
        self._start = None

    def install(self) -> None:
        forward = vit.VisionTransformer.forward
        adam_step = Adam.step
        probabilities = training.attack_probabilities
        score_batch = training.score_batch

        def timed_forward(model, images):
            if self._start is None:
                self._start = clock()
            return forward(model, images)

        def end_step(result):
            self.step_s.append(clock() - self._start)
            self._start = None
            return result

        def timed_score_batch(*args, **kwargs):
            start = clock()
            scores = score_batch(*args, **kwargs)
            self.score_s += clock() - start
            self.scores.append(scores)
            return scores

        self._patch(vit.VisionTransformer, "forward", timed_forward)
        self._patch(Adam, "step", lambda opt: end_step(adam_step(opt)))
        self._patch(training, "attack_probabilities",
                    lambda logits: end_step(probabilities(logits)))
        self._patch(training, "score_batch", timed_score_batch)


@dataclasses.dataclass
class Setup:
    cfg: object
    fresh: object            # freshly built model: the frozen-backbone reference
    split: object
    val: object
    checkpoint: Path | None
    synth_s: float
    build_s: float


def set_up(workload: str, seed: int, workdir: Path) -> Setup:
    cfg = workload_config(workload, seed)
    side = vit.PRESETS[cfg.preset].image
    start = clock()
    protocol = training.build_protocol(cfg)
    split = synth.split_protocol(protocol, cfg.train_per_class, cfg.test_per_class, side)
    val = synth.source_validation(protocol, cfg.val_per_class, side) \
        if workload == "toy-eval" else None
    synth_s = clock() - start
    start = clock()
    fresh = vit.build_model(cfg.preset, cfg.seed, adapter_dim=cfg.adapter_dim, theta=cfg.theta,
                            variant=cfg.variant, fusion=cfg.fusion)
    build_s = clock() - start
    checkpoint = None
    if workload == "toy-eval":
        short = dataclasses.replace(cfg, epochs=CHECKPOINT_EPOCHS)
        checkpoint = training.train_run(short, workdir / "checkpoint").checkpoint_path
    return Setup(cfg, fresh, split, val, checkpoint, synth_s, build_s)


class Runner:
    """Whole rounds of one workload; a round is one ``train_run`` or ``evaluate_run``."""

    def __init__(self, workload: str, setup: Setup, workdir: Path):
        self.workload = workload
        self.setup = setup
        self.workdir = workdir
        self.training = workload != "toy-eval"
        cfg = setup.cfg
        n_train = len(setup.split.train)
        self.images_per_round = cfg.epochs * n_train if self.training \
            else len(setup.val) + len(setup.split.test)
        self.ops_per_round = cfg.epochs * math.ceil(n_train / cfg.batch_size) \
            if self.training else self.images_per_round
        self.rounds = 0
        self.round_s = 0.0
        self.last = None

    def round(self):
        start = clock()
        if self.training:
            self.last = training.train_run(self.setup.cfg, self.workdir / "train")
        else:
            self.last = training.evaluate_run(self.setup.cfg, self.setup.checkpoint)
        self.round_s += clock() - start
        self.rounds += 1

    def repeat(self, seconds: float) -> None:
        start = clock()
        while True:
            self.round()
            if clock() - start >= seconds:
                return

    def check(self, step_clock: StepClock) -> list:
        cfg, s = self.setup.cfg, self.setup
        problems = []
        if self.training:
            if len(step_clock.step_s) != self.rounds * self.ops_per_round:
                problems.append(f"{len(step_clock.step_s)} steps over {self.rounds} rounds, "
                                f"expected {self.ops_per_round} a round")
            ckpt = self.last.checkpoint_path
            problems += checks.check_train_log(self.last.log_path, cfg.epochs,
                                               require_bce_decrease=cfg.preset == "toy")
            problems += checks.check_backbone_frozen(ckpt, s.fresh.backbone_parameters())
            digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
            print(f"{self.workload} seed {cfg.seed}: model.ckpt sha256 {digest}", file=sys.stderr)
            if cfg.preset == "toy":
                report = training.evaluate_run(cfg, ckpt)
                print(f"{self.workload} seed {cfg.seed}: held-out HTER {report.hter}",
                      file=sys.stderr)
                side = vit.PRESETS[cfg.preset].image
                val = synth.source_validation(training.build_protocol(cfg), cfg.val_per_class,
                                              side)
                assign_parameters(s.fresh.parameters(), load_checkpoint(ckpt))
                s.fresh.set_style_capture(False)
                problems += checks.check_source_eer(
                    training.score_batch(s.fresh, val.images.data), val.labels)
            else:
                problems += checks.check_dim_up_moved(ckpt, self.last.log_path,
                                                   vit.PRESETS[cfg.preset].depth)
            return problems
        val_scores, test_scores = step_clock.scores[-2:]
        scores = np.concatenate([val_scores, test_scores])
        problems += checks.check_scores(scores)
        model = s.fresh
        assign_parameters(model.parameters(), load_checkpoint(s.checkpoint))
        model.set_style_capture(False)
        images = np.concatenate([s.val.images.data, s.split.test.images.data])
        sample = np.linspace(0, len(images) - 1, SINGLE_IMAGE_SAMPLE).astype(int)
        single = training.score_batch(model, images[sample], batch_size=1)
        problems += checks.check_scores_match(scores[sample], single)
        problems += checks.check_metrics_against_oracles(
            self.last, val_scores, s.val.labels, test_scores, s.split.test.labels)
        return problems


def untraced_metrics(runner: Runner, step_clock: StepClock) -> dict:
    phase_s = runner.round_s if runner.training else step_clock.score_s
    return {
        "images_per_s": (runner.rounds * runner.images_per_round / phase_s, "1/s"),
        "batch_ms.p50": (1e3 * statistics.median(step_clock.step_s), "ms"),
    }


def traced_metrics(runner: Runner, tracer: Tracer, step_clock: StepClock, reference_s: float,
                   setup: Setup) -> dict:
    ops = runner.rounds * runner.ops_per_round
    steps = ops if runner.training else 0
    images = 0 if runner.training else ops
    per = float(ops)
    nodes = sum(tracer.nodes.values())

    def ms(name):
        return (1e3 * tracer.total_s[name] / per, "ms")

    def per_call_ms(name):
        calls = tracer.calls[name]
        return (1e3 * tracer.total_s[name] / calls if calls else 0.0, "ms")

    metrics = {
        "vit.forward_ms": ms("vit.forward"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "optim.step_ms": ms("optim.step"),
        "optim.zero_grad_ms": ms("optim.zero_grad"),
        "training.score_batch_ms": ms("training.score_batch"),
        "metrics.evaluate_ms": ms("metrics.evaluate"),
    }
    metrics.update(tracer.layer_metrics(per))
    metrics.update({
        "autodiff.nodes_per_step": (nodes / steps if steps else 0.0, "count"),
        "losses.bce_calls_per_step": (tracer.calls["losses.bce"] / steps if steps else 0.0,
                                      "count"),
        "autodiff.eval_nodes_per_image": (nodes / images if images else 0.0, "count"),
        "autodiff.discarded_grad_mb_per_step": (tracer.discarded_grad_bytes / 2**20 / per, "MB"),
        "autodiff.graph_mb_per_step": (tracer.graph_bytes / 2**20 / per, "MB"),
        "histadapter.import_s": (IMPORT_S, "s"),
        "synth.generate_ms": (1e3 * setup.synth_s, "ms"),
        "vit.build_ms": (1e3 * setup.build_s, "ms"),
        "checkpoint.save_ms": per_call_ms("checkpoint.save"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load"),
        "trace.overhead_pct": (100.0 * statistics.median(step_clock.step_s) / reference_s - 100.0,
                               "%"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup = set_up(args.workload, args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        runner = Runner(args.workload, setup, workdir)
        step_clock = StepClock()
        step_clock.install()
        tracer = None
        reference_s = 0.0
        if args.trace:
            runner.round()
            reference_s = statistics.median(step_clock.step_s)
            runner.rounds, runner.round_s = 0, 0.0
            step_clock.step_s.clear()
            tracer = Tracer()
            tracer.install()
        try:
            runner.repeat(args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
            step_clock.uninstall()
        problems = runner.check(step_clock)
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if tracer is None:
            metrics = untraced_metrics(runner, step_clock)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                      "MB")
        else:
            metrics = traced_metrics(runner, tracer, step_clock, reference_s, setup)
            tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        attempted = runner.rounds * runner.ops_per_round
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": attempted if problems else 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
