import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histadapter import metrics
from histadapter.metrics import (
    METRIC_CSV_HEADER,
    ScoreSet,
    acer_suite,
    auc,
    eer,
    evaluate_scores,
    hter,
    roc,
    tpr_at_fpr,
)

from oracles import acer_counting, auc_pairwise, eer_sweep, hter_counting, tpr_at_fpr_sweep


def random_scoreset(rng, n=None, tie_prob=0.0):
    n = n or int(rng.integers(4, 201))
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    rng.shuffle(labels)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    scores = rng.uniform(size=n)
    if tie_prob > 0:
        # force ties by quantizing a slice of the scores
        mask = rng.uniform(size=n) < tie_prob
        scores[mask] = np.round(scores[mask], 1)
    return ScoreSet(scores, labels)


# scores on a seven-point grid, so ties within and across classes are common
GRID = st.integers(0, 6).map(lambda k: k / 6)


@st.composite
def score_lists(draw, values=GRID, unique=False):
    labels = draw(st.lists(st.integers(0, 1), min_size=2, max_size=40)
                  .filter(lambda labels: 0 < sum(labels) < len(labels)))
    scores = draw(st.lists(values, min_size=len(labels), max_size=len(labels),
                           unique=unique))
    return scores, labels


class TestAuc:
    def test_perfect_separation(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(roc(s)) == 1.0

    def test_inverted_labels(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
        assert auc(roc(s)) == 0.0

    def test_six_point_tie_case(self):
        scores = [0.9, 0.7, 0.7, 0.5, 0.3, 0.1]
        labels = [1, 1, 0, 0, 1, 0]
        s = ScoreSet(scores, labels)
        assert auc(roc(s)) == auc_pairwise(scores, labels)
        # hand count over the 9 attack/bona pairs: 6 wins, 1 tie
        assert auc(roc(s)) == (6 + 0.5) / 9

    @pytest.mark.parametrize("tie_prob", [0.0, 0.5])
    def test_equals_pairwise_oracle_exactly(self, tie_prob):
        rng = np.random.default_rng(0 if tie_prob == 0 else 1)
        for _ in range(100):
            s = random_scoreset(rng, tie_prob=tie_prob)
            assert auc(roc(s)) == auc_pairwise(s.scores.tolist(), s.labels.tolist())


class TestEer:
    def test_perfect_separation_zero(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        value, threshold = eer(s)
        assert value == 0.0
        assert hter(s, threshold) == 0.0

    def test_identical_scores_chance_level(self):
        s = ScoreSet([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0])
        value, _ = eer(s)
        assert value == 0.5

    def test_eight_point_hand_case_matches_sweep(self):
        scores = [0.95, 0.8, 0.7, 0.6, 0.45, 0.4, 0.2, 0.1]
        labels = [1, 1, 0, 1, 0, 1, 0, 0]
        s = ScoreSet(scores, labels)
        got_value, got_thr = eer(s)
        want_value, want_thr = eer_sweep(scores, labels)
        assert got_value == want_value
        assert got_thr == want_thr

    def test_matches_sweep_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            s = random_scoreset(rng, tie_prob=0.3 if trial % 2 else 0.0)
            got = eer(s)
            want = eer_sweep(s.scores.tolist(), s.labels.tolist())
            assert got == want, f"trial {trial}"

    def test_hter_at_eer_threshold_close_to_eer(self):
        # rates are step functions, so counting HTER can sit at most half a
        # step from the interpolated crossing on each side
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_scoreset(rng)
            value, threshold = eer(s)
            step = 0.5 * (1.0 / s.n_attack + 1.0 / s.n_bona)
            assert abs(hter(s, threshold) - value) <= step + 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_scoreset(rng, n=60)
            transformed = ScoreSet(np.exp(3.0 * s.scores) + 1.0, s.labels)
            assert auc(roc(s)) == auc(roc(transformed))
            assert eer(s)[0] == eer(transformed)[0]


class TestHter:
    def test_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = random_scoreset(rng, n=40)
            for threshold in (0.2, 0.5, 0.8):
                assert hter(s, threshold) == hter_counting(
                    s.scores.tolist(), s.labels.tolist(), threshold)

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(6)
        s = random_scoreset(rng)
        for threshold in np.linspace(-0.5, 1.5, 9):
            assert 0.0 <= hter(s, threshold) <= 1.0


class TestAcer:
    def test_all_correct(self):
        s = ScoreSet([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert acer_suite(s) == (0.0, 0.0, 0.0)

    def test_all_attacks_missed(self):
        s = ScoreSet([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0])
        assert acer_suite(s) == (1.0, 0.0, 0.5)

    def test_ten_sample_hand_case(self):
        scores = [0.9, 0.6, 0.4, 0.55, 0.3, 0.2, 0.45, 0.7, 0.5, 0.05]
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        s = ScoreSet(scores, labels)
        got = acer_suite(s)
        assert got == acer_counting(scores, labels)
        assert got == (2 / 5, 2 / 5, 2 / 5)

    def test_acer_is_mean_of_apcer_bpcer(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_scoreset(rng, n=30)
            apcer, bpcer, acer = acer_suite(s)
            assert acer == (apcer + bpcer) / 2.0

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            acer_suite(ScoreSet([1.5, 0.2], [1, 0]))


class TestTprAtFpr:
    def test_perfect_curve(self):
        s = ScoreSet([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert tpr_at_fpr(s, 0.01) == 1.0

    def test_hand_interpolation(self):
        # one bona fide crossing makes fpr jump 0 -> 0.5 while tpr = 0.5
        s = ScoreSet([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
        # roc points: (0,0) (0,.5) (.5,.5) (.5,1) (1,1); at fpr=.25 -> tpr .5...
        # vertical collapse keeps best tpr per fpr: (0,.5) (.5,1) (1,1)
        assert tpr_at_fpr(s, 0.25) == 0.75
        assert tpr_at_fpr(s, 0.0) == 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(score_lists(), score_lists(st.floats(0.0, 1.0), unique=True)), st.data())
    def test_equals_sweep_oracle_exactly(self, case, data):
        scores, labels = case
        # targets on the ROC's fpr points, where a vertical run is collapsed, and between them
        n_bona = labels.count(0)
        target = data.draw(st.one_of(st.integers(0, n_bona).map(lambda k: k / n_bona),
                                     st.floats(0.0, 1.0)))
        assert tpr_at_fpr(ScoreSet(scores, labels), target) == \
            tpr_at_fpr_sweep(scores, labels, target)


class TestValidationAndReport:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc(ScoreSet([0.5, 0.7], [1, 1]))
        with pytest.raises(ValueError, match="both classes"):
            eer(ScoreSet([0.5, 0.7], [0, 0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ScoreSet([], [])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ScoreSet([0.5], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN here used to read as EER 0.0 and AUC 1.0
        with pytest.raises(ValueError, match="finite"):
            ScoreSet([0.1, bad, 0.7, 0.9], [0, 0, 1, 1])

    def test_report_rates_in_unit_interval_and_csv(self):
        rng = np.random.default_rng(8)
        s = random_scoreset(rng, n=50)
        report = evaluate_scores(s, threshold=0.5)
        for field in ("auc", "eer", "hter", "tpr_at_fpr1", "apcer", "bpcer", "acer"):
            assert 0.0 <= getattr(report, field) <= 1.0
        row = report.csv_row("loo3", 0, "full", "concat", 0.1, 0.7)
        assert row.startswith("loo3,0,full,concat,0.1,0.7,")
        assert len(row.split(",")) == len(METRIC_CSV_HEADER.split(",")) == 14

    @pytest.mark.parametrize("tie_prob", [0.0, 0.5])
    def test_report_builds_one_roc_and_equals_the_single_metrics(self, monkeypatch, tie_prob):
        s = random_scoreset(np.random.default_rng(9), n=120, tie_prob=tie_prob)
        calls = []

        def counting_roc(score_set):
            calls.append(score_set)
            return roc(score_set)

        monkeypatch.setattr(metrics, "roc", counting_roc)
        report = evaluate_scores(s, threshold=0.4)
        assert len(calls) == 1
        monkeypatch.undo()
        assert (report.auc, report.eer, report.tpr_at_fpr1) == \
            (auc(roc(s)), eer(s)[0], tpr_at_fpr(s, 0.01))


class TestOraclesOnTiedGrids:
    @settings(max_examples=300, deadline=None)
    @given(score_lists())
    def test_auc_and_eer(self, case):
        scores, labels = case
        s = ScoreSet(scores, labels)
        assert auc(roc(s)) == auc_pairwise(scores, labels)
        assert eer(s) == eer_sweep(scores, labels)

    @settings(max_examples=300, deadline=None)
    @given(score_lists(), GRID)
    def test_hter_and_acer(self, case, threshold):
        scores, labels = case
        s = ScoreSet(scores, labels)
        assert hter(s, threshold) == hter_counting(scores, labels, threshold)
        assert acer_suite(s) == acer_counting(scores, labels)


def test_metrics_imports_alone():
    # the package root re-exports nothing, so a submodule loads only itself:
    # no autodiff engine and no scipy behind the metrics
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, histadapter.metrics; "
            "print(sorted(m for m in ('scipy', 'histadapter.autodiff') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
