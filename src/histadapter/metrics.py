"""Anti-spoofing evaluation metrics: ROC, AUC, EER, HTER, TPR@FPR, ACER.

Scores are attack likelihoods (label 1 = attack, 0 = bona fide) and an
example is classified as an attack when its score reaches the threshold.
The error-rate vocabulary:

    FAR    attacks accepted as bona fide   (score < threshold)
    FRR    bona fide rejected as attacks   (score >= threshold)
    HTER   (FAR + FRR) / 2 at a given threshold
    APCER / BPCER / ACER   the same two rates and their mean at a fixed
                           threshold on probability scores

The ROC sweeps every distinct score as a threshold with ties grouped, and
the AUC integrates it with exact integer arithmetic, so it agrees to the
last bit with the pairwise comparison count (ties worth one half).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoreSet",
    "RocCurve",
    "MetricReport",
    "roc",
    "auc",
    "eer",
    "hter",
    "tpr_at_fpr",
    "acer_suite",
    "evaluate_scores",
    "METRIC_CSV_HEADER",
]


@dataclass
class ScoreSet:
    """Per-example attack scores with {0, 1} labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.scores.size == 0:
            raise ValueError("empty score set")
        if self.scores.shape != self.labels.shape:
            raise ValueError(
                f"scores {self.scores.shape} and labels {self.labels.shape} disagree"
            )
        if not np.all(np.isin(self.labels, (0, 1))):
            raise ValueError("labels must be 0 (bona fide) or 1 (attack)")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")

    @property
    def n_attack(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n_bona(self) -> int:
        return int(np.sum(self.labels == 0))

    def require_both_classes(self) -> None:
        if self.n_attack == 0 or self.n_bona == 0:
            raise ValueError("threshold metrics need both classes present")


@dataclass
class RocCurve:
    """Operating points from sweeping thresholds high to low.

    ``thresholds`` are the distinct scores in descending order;
    ``tp[i]`` / ``fp[i]`` count attacks / bona fide with score >=
    thresholds[i]. Index 0 of the rate arrays is the virtual
    above-every-score point (0, 0).
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    n_attack: int
    n_bona: int

    @property
    def tpr(self) -> np.ndarray:
        return np.concatenate(([0.0], self.tp / self.n_attack))

    @property
    def fpr(self) -> np.ndarray:
        return np.concatenate(([0.0], self.fp / self.n_bona))


def roc(s: ScoreSet) -> RocCurve:
    """Sweep all distinct scores as thresholds, grouping ties."""
    s.require_both_classes()
    order = np.argsort(-s.scores, kind="stable")
    sorted_scores = s.scores[order]
    sorted_labels = s.labels[order]
    distinct = np.flatnonzero(np.diff(sorted_scores)) if sorted_scores.size > 1 \
        else np.array([], dtype=np.intp)
    ends = np.concatenate((distinct, [sorted_scores.size - 1]))
    tp = np.cumsum(sorted_labels == 1)[ends]
    fp = np.cumsum(sorted_labels == 0)[ends]
    return RocCurve(
        thresholds=sorted_scores[ends],
        tp=tp.astype(np.int64),
        fp=fp.astype(np.int64),
        n_attack=s.n_attack,
        n_bona=s.n_bona,
    )


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC, accumulated in exact integers."""
    tp = np.concatenate(([0], curve.tp))
    fp = np.concatenate(([0], curve.fp))
    twice_area = int(np.sum(np.diff(fp) * (tp[:-1] + tp[1:])))
    return twice_area / (2 * curve.n_attack * curve.n_bona)


def eer(curve: RocCurve) -> tuple:
    """Equal error rate and its threshold.

    FAR falls and FRR rises as the threshold sweeps downward; the crossing
    is located between the bracketing candidate thresholds by linear
    interpolation (an exact hit at a candidate is returned as is).
    """
    if isinstance(curve, ScoreSet):  # as perfbench/test_checks.py passes (ROADMAP item 1)
        curve = roc(curve)
    # FAR / FRR at every candidate threshold, descending: a virtual point above
    # every score, then the distinct scores, the breakpoints of both step functions
    far = np.concatenate(([1.0], (curve.n_attack - curve.tp) / curve.n_attack))
    frr = np.concatenate(([0.0], curve.fp / curve.n_bona))
    thresholds = np.concatenate(([curve.thresholds[0] + 1.0], curve.thresholds))
    diff = far - frr
    exact = np.flatnonzero(diff == 0.0)
    if exact.size:
        i = int(exact[0])
        return float(far[i]), float(thresholds[i])
    sign_change = np.flatnonzero(np.signbit(diff[:-1]) != np.signbit(diff[1:]))
    i = int(sign_change[0])
    frac = (far[i] - frr[i]) / ((far[i] - frr[i]) - (far[i + 1] - frr[i + 1]))
    value = far[i] + frac * (far[i + 1] - far[i])
    threshold = thresholds[i] + frac * (thresholds[i + 1] - thresholds[i])
    return float(value), float(threshold)


def _error_rates(s: ScoreSet, threshold: float) -> tuple:
    """(FAR, FRR) at a fixed decision threshold."""
    s.require_both_classes()
    far = np.mean(s.scores[s.labels == 1] < threshold)
    frr = np.mean(s.scores[s.labels == 0] >= threshold)
    return float(far), float(frr)


def hter(s: ScoreSet, threshold: float) -> float:
    """Half-total error rate at a fixed decision threshold."""
    far, frr = _error_rates(s, threshold)
    return (far + frr) / 2.0


def tpr_at_fpr(curve: RocCurve, target_fpr: float) -> float:
    """Interpolated TPR where the ROC reaches the target FPR."""
    fpr, tpr = curve.fpr, curve.tpr
    # collapse vertical segments: the sweep is monotone, so the last point of
    # each run of equal fpr holds the best tpr attainable at that fpr
    last = np.append(fpr[1:] != fpr[:-1], True)
    xs, ys = fpr[last], tpr[last]
    if target_fpr <= xs[0]:
        return float(ys[0]) if target_fpr == xs[0] else 0.0
    j = int(np.searchsorted(xs, target_fpr, side="left"))
    if j < xs.size and xs[j] == target_fpr:
        return float(ys[j])
    x0, x1 = xs[j - 1], xs[j]
    y0, y1 = ys[j - 1], ys[j]
    return float(y0 + (target_fpr - x0) / (x1 - x0) * (y1 - y0))


# the conventional ACER decision threshold on attack probabilities
ACER_THRESHOLD = 0.5


def acer_suite(s: ScoreSet) -> tuple:
    """(APCER, BPCER, ACER) at :data:`ACER_THRESHOLD` on probability scores."""
    if np.any(s.scores < 0.0) or np.any(s.scores > 1.0):
        raise ValueError("ACER expects probability scores in [0, 1]")
    apcer, bpcer = _error_rates(s, ACER_THRESHOLD)
    return apcer, bpcer, (apcer + bpcer) / 2.0


METRIC_CSV_HEADER = ("protocol,seed,variant,fusion,lambda,theta,"
                     "auc,eer,hter,tpr_at_fpr1,apcer,bpcer,acer,threshold")


@dataclass
class MetricReport:
    auc: float
    eer: float
    hter: float
    tpr_at_fpr1: float
    apcer: float
    bpcer: float
    acer: float
    threshold: float

    def csv_row(self, protocol: str, seed: int, variant: str, fusion: str,
                lam: float, theta: float) -> str:
        values = (self.auc, self.eer, self.hter, self.tpr_at_fpr1,
                  self.apcer, self.bpcer, self.acer, self.threshold)
        prefix = f"{protocol},{seed},{variant},{fusion},{lam:.10g},{theta:.10g}"
        return prefix + "," + ",".join(f"{v:.10g}" for v in values)


def evaluate_scores(target: ScoreSet, threshold: float) -> MetricReport:
    """All metrics on a target set; HTER uses the caller-chosen threshold
    (fixed on source-domain validation in cross-domain runs), ACER the
    conventional 0.5 on probabilities. The scores are sorted once, into one ROC."""
    curve = roc(target)
    eer_value, _ = eer(curve)
    apcer, bpcer, acer = acer_suite(target)
    return MetricReport(
        auc=auc(curve),
        eer=eer_value,
        hter=hter(target, threshold),
        tpr_at_fpr1=tpr_at_fpr(curve, 0.01),
        apcer=apcer,
        bpcer=bpcer,
        acer=acer,
        threshold=threshold,
    )
