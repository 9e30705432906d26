"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output
passed. The checks state properties the program must have (finite values,
a frozen backbone, metrics equal to brute-force oracles), not copies of
today's numbers, so a later refactor that keeps behaviour keeps passing.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from histadapter.checkpoint import load_checkpoint

_TESTS = Path(__file__).resolve().parent.parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

from oracles import acer_counting, auc_pairwise, eer_sweep, hter_counting  # noqa: E402

__all__ = [
    "check_train_log",
    "check_backbone_frozen",
    "check_dim_up_moved",
    "check_source_eer",
    "check_scores",
    "check_scores_match",
    "check_metrics_against_oracles",
]

LOG_HEADER = ["epoch", "bce", "tsr", "total"]
SCORE_TOLERANCE = 1e-12
METRIC_TOLERANCE = 1e-12
MAX_SOURCE_EER = 0.35


def _read_log(path) -> tuple:
    """The rows of a train log as floats, and the problems met reading them."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",") != LOG_HEADER:
        return [], [f"{path}: header is not {','.join(LOG_HEADER)}"]
    rows = []
    problems = []
    for n, line in enumerate(lines[1:], 2):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            problems.append(f"{path}:{n}: unparsable row {line!r}")
            continue
        if len(row) != len(LOG_HEADER) or not all(math.isfinite(v) for v in row):
            problems.append(f"{path}:{n}: non-finite or short row {line!r}")
        rows.append(row)
    return rows, problems


def check_train_log(path, epochs: int, require_bce_decrease: bool) -> list:
    """Every value finite, one row per epoch, and optionally last BCE < first."""
    rows, problems = _read_log(path)
    if problems:
        return problems
    if len(rows) != epochs:
        return [f"{path}: {len(rows)} epoch rows, expected {epochs}"]
    if require_bce_decrease and not rows[-1][1] < rows[0][1]:
        return [f"{path}: last-epoch BCE {rows[-1][1]} is not below first {rows[0][1]}"]
    return []


def check_backbone_frozen(ckpt_path, fresh_backbone: dict) -> list:
    """Each backbone tensor in the checkpoint equals the fresh model's float32 bits."""
    saved = load_checkpoint(ckpt_path)
    problems = []
    for name, tensor in fresh_backbone.items():
        if name not in saved:
            problems.append(f"{ckpt_path}: backbone tensor {name!r} missing")
            continue
        want = np.asarray(tensor.data, dtype="<f4")
        got = np.asarray(saved[name], dtype="<f4")
        if got.shape != want.shape or not np.array_equal(got.view("<u4"), want.view("<u4")):
            problems.append(f"{ckpt_path}: backbone tensor {name!r} moved")
    return problems


def check_dim_up_moved(ckpt_path, log_path, depth: int) -> list:
    """Training moved every zero-initialised up-projection that reaches the loss.

    The last block's MLP-side up-projection is left out: it feeds only patch
    tokens that the class-token head never reads, and the TSR style map is
    taken before it. The last block's attention-side up-projection reaches the
    loss only through that style map, so it must have moved only if the log
    shows a nonzero TSR. TSR is 0 in a batch without bona fide images of two
    domains, which on some seeds is every batch of a short run.
    """
    rows, _ = _read_log(log_path)
    names = [f"block{block}.{side}.dim_up.weight"
             for block in range(depth - 1) for side in ("msa_adapter", "mlp_adapter")]
    if any(len(row) == len(LOG_HEADER) and row[2] != 0.0 for row in rows):
        names.append(f"block{depth - 1}.msa_adapter.dim_up.weight")
    saved = load_checkpoint(ckpt_path)
    problems = []
    for name in names:
        if name not in saved:
            problems.append(f"{ckpt_path}: {name} missing")
        elif not np.any(saved[name]):
            problems.append(f"{ckpt_path}: {name} is still zero")
    return problems


def check_source_eer(scores, labels) -> list:
    """Finite scores whose EER on source-domain validation is well below chance.

    Held-out HTER is no gate: it depends on the seed and reaches chance (0.5)
    on some seeds. Source validation has no domain shift; over seeds 0-19 its
    EER ranged over 0.118-0.229, and a model that learned nothing sits near 0.5.
    """
    problems = check_scores(scores)
    if problems:
        return problems
    value, _ = eer_sweep(list(map(float, scores)), list(map(int, labels)))
    if not value <= MAX_SOURCE_EER:
        return [f"source-validation EER {value} is above {MAX_SOURCE_EER}"]
    return []


def check_scores(scores) -> list:
    """Finite probabilities in [0, 1]; the metric code itself accepts NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = ~np.isfinite(scores) | (scores < 0.0) | (scores > 1.0)
    if np.any(bad):
        return [f"{int(bad.sum())} of {scores.size} scores are not finite values in [0, 1]"]
    return []


def check_scores_match(batched, single) -> list:
    """Batched scores equal one-image-at-a-time scores."""
    batched = np.asarray(batched, dtype=np.float64)
    single = np.asarray(single, dtype=np.float64)
    if batched.shape != single.shape:
        return [f"batched scores {batched.shape} vs single {single.shape}"]
    diff = np.abs(batched - single)
    if not np.all(diff <= SCORE_TOLERANCE):
        return [f"batched and single-image scores differ by {np.nanmax(diff)}"]
    return []


def check_metrics_against_oracles(report, val_scores, val_labels,
                                  test_scores, test_labels) -> list:
    """The report's metrics equal the brute-force oracles on the same scores."""
    val_scores, test_scores = list(map(float, val_scores)), list(map(float, test_scores))
    val_labels, test_labels = list(map(int, val_labels)), list(map(int, test_labels))
    _, threshold = eer_sweep(val_scores, val_labels)
    expected = {
        "threshold": threshold,
        "auc": auc_pairwise(test_scores, test_labels),
        "eer": eer_sweep(test_scores, test_labels)[0],
        "hter": hter_counting(test_scores, test_labels, threshold),
        "acer": acer_counting(test_scores, test_labels)[2],
    }
    problems = []
    for name, want in expected.items():
        got = getattr(report, name)
        if not abs(got - want) <= METRIC_TOLERANCE:
            problems.append(f"{name}: program {got} vs oracle {want}")
    return problems
