"""The evaluation suite: ROC/AUC, EER, HTER with a transferred threshold,
TPR at 1% FPR, and the fixed-threshold APCER/BPCER/ACER family.

Run:  python demos/06_metrics_walkthrough.py
"""

import numpy as np

from histadapter.metrics import (
    ScoreSet, acer_suite, auc, eer, evaluate_scores, hter, roc, tpr_at_fpr,
)

rng = np.random.default_rng(5)

# synthetic scores: attacks score higher on average but overlap the bona fide
bona = rng.normal(0.35, 0.15, 80).clip(0, 1)
attacks = rng.normal(0.65, 0.15, 80).clip(0, 1)
scores = np.concatenate([bona, attacks])
labels = np.concatenate([np.zeros(80, int), np.ones(80, int)])
s = ScoreSet(scores, labels)

curve = roc(s)
print("ROC points           :", len(curve.thresholds))
print("AUC                  :", auc(curve))

value, threshold = eer(curve)
print("EER                  :", round(value, 4), "at threshold", round(threshold, 4))
print("HTER @ EER threshold :", round(hter(s, threshold), 4))
print("TPR @ FPR=1%         :", round(tpr_at_fpr(curve, 0.01), 4))
apcer, bpcer, acer = acer_suite(s)
print("APCER/BPCER/ACER @0.5:", round(apcer, 4), round(bpcer, 4), round(acer, 4))

# the cross-domain protocol fixes the threshold on source-domain validation
# and applies it to the target; a shifted target makes HTER exceed EER
shifted = ScoreSet(np.clip(scores + 0.18, 0, 1), labels)
print("\nafter a +0.18 score shift (domain change):")
print("EER (threshold-free) :", round(eer(roc(shifted))[0], 4))
print("HTER @ old threshold :", round(hter(shifted, threshold), 4))

report = evaluate_scores(shifted, threshold)
print("\nfull report row      :",
      report.csv_row("demo", 0, "full", "sum", 0.1, 0.7))
