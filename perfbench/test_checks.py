"""Each output check accepts a good output and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses

import numpy as np

import checks
from histadapter.checkpoint import load_checkpoint, save_checkpoint
from histadapter.metrics import ScoreSet, eer, evaluate_scores
from histadapter.vit import build_model

GOOD_LOG = "epoch,bce,tsr,total\n0,0.7,0.01,0.701\n1,0.5,0.02,0.502\n"


def test_train_log_accepts_finite_decreasing_rows(tmp_path):
    log = tmp_path / "train_log.csv"
    log.write_text(GOOD_LOG)
    assert checks.check_train_log(log, epochs=2, require_bce_decrease=True) == []


def test_train_log_rejects_non_finite_row(tmp_path):
    log = tmp_path / "train_log.csv"
    for bad in ("nan", "inf", "-inf"):
        log.write_text(GOOD_LOG.replace("0.02", bad))
        assert checks.check_train_log(log, epochs=2, require_bce_decrease=False)


def test_train_log_rejects_rising_bce_and_missing_epochs(tmp_path):
    log = tmp_path / "train_log.csv"
    log.write_text(GOOD_LOG.replace("1,0.5", "1,0.9"))
    assert checks.check_train_log(log, epochs=2, require_bce_decrease=True)
    log.write_text(GOOD_LOG)
    assert checks.check_train_log(log, epochs=3, require_bce_decrease=False)


def _toy_checkpoint(tmp_path):
    model = build_model("toy", 0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model.parameters(), path)
    return model, path


def test_backbone_check_rejects_one_changed_weight(tmp_path):
    model, path = _toy_checkpoint(tmp_path)
    assert checks.check_backbone_frozen(path, model.backbone_parameters()) == []
    params = load_checkpoint(path)
    w = params["block1.fc2.weight"]
    w[3, 5] = np.nextafter(w[3, 5], np.float32(np.inf))
    save_checkpoint(params, path)
    problems = checks.check_backbone_frozen(path, model.backbone_parameters())
    assert len(problems) == 1 and "block1.fc2.weight" in problems[0]


def test_dim_up_check_needs_trained_up_projections(tmp_path):
    model, path = _toy_checkpoint(tmp_path)
    log = tmp_path / "train_log.csv"
    log.write_text(GOOD_LOG.replace("0.01", "0").replace("0.02", "0"))   # TSR never active
    assert checks.check_dim_up_moved(path, log, depth=4)        # fresh adapters are zero
    params = load_checkpoint(path)
    for name in params:
        if name.endswith("dim_up.weight") and not name.startswith("block3."):
            params[name][0, 0] = 0.5
    save_checkpoint(params, path)
    assert checks.check_dim_up_moved(path, log, depth=4) == []
    log.write_text(GOOD_LOG)                                     # TSR reached block 3
    problems = checks.check_dim_up_moved(path, log, depth=4)
    assert len(problems) == 1 and "block3.msa_adapter" in problems[0]


def test_scores_check_rejects_nan_and_out_of_range():
    assert checks.check_scores([0.1, 0.2, 0.7, 0.9]) == []
    assert checks.check_scores([0.1, np.nan, 0.7, 0.9])
    assert checks.check_scores([0.1, 1.5, 0.7, 0.9])
    assert checks.check_scores_match([0.1, 0.2], [0.1, 0.2]) == []
    assert checks.check_scores_match([0.1, 0.2], [0.1, 0.2 + 1e-9])
    assert checks.check_scores_match([0.1, np.nan], [0.1, np.nan])


def test_metric_check_matches_oracles_and_catches_a_wrong_value():
    rng = np.random.default_rng(0)
    val_labels = np.repeat([0, 1], 20)
    test_labels = np.repeat([0, 1], 30)
    val = rng.uniform(size=40) * 0.6 + 0.4 * val_labels
    test = rng.uniform(size=60) * 0.6 + 0.4 * test_labels
    _, threshold = eer(ScoreSet(val, val_labels))
    report = evaluate_scores(ScoreSet(test, test_labels), threshold)
    assert checks.check_metrics_against_oracles(report, val, val_labels, test, test_labels) == []
    wrong = dataclasses.replace(report, auc=report.auc - 1e-9)
    assert checks.check_metrics_against_oracles(wrong, val, val_labels, test, test_labels)


def test_source_eer_check_rejects_chance_and_nan():
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 100)
    learned = rng.uniform(size=200) * 0.6 + 0.4 * labels
    assert checks.check_source_eer(learned, labels) == []
    assert checks.check_source_eer(rng.uniform(size=200), labels)
    learned[3] = np.nan
    assert checks.check_source_eer(learned, labels)
