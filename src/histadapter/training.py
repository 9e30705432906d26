"""Training and evaluation loops for the leave-one-domain-out protocols.

One run: build the synthetic protocol, insert adapters into a frozen
backbone, optimize adapters plus head, log per-epoch losses to CSV, and
write a checkpoint. Evaluation scores the held-out domain with the
decision threshold fixed at the equal-error point of a source-domain
validation split. Everything is deterministic given (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from histadapter.autodiff import Tensor, no_grad
from histadapter.checkpoint import assign_parameters, load_checkpoint, save_checkpoint
from histadapter.config import RunConfig
from histadapter.losses import (
    attack_probabilities,
    batch_tsr,
    binary_cross_entropy_with_logits,
    total_loss,
)
from histadapter.metrics import MetricReport, ScoreSet, eer, evaluate_scores, roc
from histadapter.optim import Adam
from histadapter.synth import (
    SynthProtocol,
    held_out_set,
    source_validation,
    style_bank,
    training_set,
)
from histadapter.vit import PRESETS, VisionTransformer, build_model

__all__ = ["TrainResult", "train_run", "evaluate_run", "build_protocol", "score_batch"]

TRAIN_LOG_HEADER = "epoch,bce,tsr,total"


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    final_losses: dict


def build_protocol(cfg: RunConfig) -> SynthProtocol:
    styles = style_bank(cfg.num_domains, cfg.style_seed)
    return SynthProtocol(styles, held_out=cfg.held_out, few_shot_k=cfg.few_shot_k)


def _build_adapted_model(cfg: RunConfig) -> VisionTransformer:
    return build_model(cfg.preset, cfg.seed, adapter_dim=cfg.adapter_dim,
                       theta=cfg.theta, variant=cfg.variant, fusion=cfg.fusion)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _start_run(cfg: RunConfig):
    """A run's training set, adapted model (capturing style iff TSR is on), Adam and rng."""
    train = training_set(build_protocol(cfg), cfg.train_per_class, PRESETS[cfg.preset].image,
                         min_source_domains=2 if cfg.tsr_lambda > 0 else 1)
    model = _build_adapted_model(cfg)
    model.set_style_capture(cfg.tsr_lambda > 0)
    optimizer = Adam(model.trainable_parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([29, cfg.seed]))
    return train, model, optimizer, shuffle_rng


def _step_loss(model: VisionTransformer, train, idx: np.ndarray, lam: float):
    """One step's forward and losses on the batch ``idx`` of ``train``: ``(bce, tsr, total)``."""
    labels = train.labels[idx]
    logits = model.forward(Tensor(train.images.data[idx]))
    bce = binary_cross_entropy_with_logits(logits, labels)
    tsr = batch_tsr(model.style_map, labels, train.domain_ids[idx]) if lam > 0 \
        else Tensor(np.zeros(()))
    return bce, tsr, total_loss(bce, tsr, lam)


def train_run(cfg: RunConfig, out_dir=None) -> TrainResult:
    cfg.validate()
    train, model, optimizer, shuffle_rng = _start_run(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        count = 0
        for idx in _batches(len(train.labels), cfg.batch_size, shuffle_rng):
            bce, tsr, loss = _step_loss(model, train, idx, cfg.tsr_lambda)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            sums += len(idx) * np.array([float(bce.data), float(tsr.data), float(loss.data)])
            count += len(idx)
        rows.append((epoch, *(sums / count)))

    log_path = out / "train_log.csv"
    lines = [TRAIN_LOG_HEADER]
    lines += [f"{e},{b:.10g},{t:.10g},{tot:.10g}" for e, b, t, tot in rows]
    log_path.write_text("\n".join(lines) + "\n")
    checkpoint_path = out / "model.ckpt"
    config_path = out / "config.txt"
    for epoch, *means in rows:
        if not np.all(np.isfinite(means)):
            # an earlier run's files left beside this log would be taken for its output
            checkpoint_path.unlink(missing_ok=True)
            config_path.unlink(missing_ok=True)
            raise ValueError(f"training diverged: non-finite loss in epoch {epoch}; "
                             f"see {log_path}, no checkpoint written")

    save_checkpoint(model.parameters(), checkpoint_path)
    config_path.write_text(cfg.to_text())
    last = rows[-1]
    return TrainResult(checkpoint_path, log_path,
                       {"bce": float(last[1]), "tsr": float(last[2]),
                        "total": float(last[3])})


def score_batch(model: VisionTransformer, images: np.ndarray,
                batch_size: int = 64) -> np.ndarray:
    """Attack-probability scores, computed without a graph (and so without a style map)."""
    scores = []
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            logits = model.forward(Tensor(images[start:start + batch_size]))
            scores.append(attack_probabilities(logits))
    return np.concatenate(scores)


def evaluate_run(cfg: RunConfig, checkpoint_path) -> MetricReport:
    """Held-out-domain metrics with the threshold fixed on source validation."""
    cfg.validate()
    side = PRESETS[cfg.preset].image
    protocol = build_protocol(cfg)
    test = held_out_set(protocol, cfg.test_per_class, side)
    model = _build_adapted_model(cfg)
    assign_parameters(model.parameters(), load_checkpoint(checkpoint_path),
                      path=str(checkpoint_path))

    val = source_validation(protocol, cfg.val_per_class, side)
    val_scores = score_batch(model, val.images.data)
    _, threshold = eer(roc(ScoreSet(val_scores, val.labels)))

    test_scores = score_batch(model, test.images.data)
    return evaluate_scores(ScoreSet(test_scores, test.labels), threshold)
