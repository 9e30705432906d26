"""The summary and claim rule of ``tools/bench_pair.py``, on canned result lines.

No benchmark runs here: each run is the JSON line ``perfbench/run.py``
prints, built by hand.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from bench_pair import claim_holds, compare, quartiles, summarize  # noqa: E402

END_TO_END = [{"name": "peak_rss_mb", "better": "lower"},
              {"name": "images_per_s", "better": "higher"}]


def run(seed, rss, ips, correct=True, failed=0):
    return {"seed": seed, "result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                    "images_per_s": {"value": ips, "unit": "1/s"}}}}


def test_quartiles_interpolate_linearly():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


@pytest.mark.parametrize("won, pairs, shift, iqr, holds", [
    (9, 10, 5.0, 1.0, True),
    (10, 10, 5.0, 1.0, True),
    (8, 10, 5.0, 1.0, False),    # too few pairs won
    (9, 10, 1.0, 1.0, False),    # shift not larger than the parent's spread
    (9, 10, -5.0, 1.0, False),   # moved the wrong way
    (5, 5, 5.0, 1.0, False),     # too few pairs to claim anything
    (18, 20, 5.0, 1.0, True),
    (17, 20, 5.0, 1.0, False),
])
def test_claim_rule(won, pairs, shift, iqr, holds):
    assert claim_holds(won, pairs, shift, iqr) is holds


def test_compare_respects_the_direction_of_better():
    lower = compare([(10.0, 8.0)] * 9 + [(10.0, 11.0)], "lower")
    assert lower["won"] == 9 and lower["shift"] == 2.0 and lower["claim"]
    assert lower["ratio"] == 0.8
    higher = compare([(10.0, 8.0)] * 9 + [(10.0, 11.0)], "higher")
    assert higher["won"] == 1 and higher["shift"] == -2.0 and not higher["claim"]


def test_summary_pairs_runs_by_seed_and_skips_failed_runs():
    parent = [run(900 + i, 1000.0 + i, 300.0) for i in range(10)]
    change = [run(900 + i, 440.0 + i, 300.0 + (i % 2)) for i in reversed(range(10))]
    change.append({"seed": 950, "error": "worker timed out"})
    summary = summarize(parent, change, END_TO_END)
    rss = summary["peak_rss_mb"]
    assert rss["pairs"] == 10 and rss["won"] == 10 and rss["claim"]
    assert rss["parent"]["median"] == 1004.5 and rss["change"]["median"] == 444.5
    assert rss["parent_iqr"] == pytest.approx(4.5)
    ips = summary["images_per_s"]
    assert ips["won"] == 5 and not ips["claim"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0, "incorrect_runs": 0}


def test_summary_counts_failed_operations():
    parent = [run(1, 10.0, 1.0), run(2, 10.0, 1.0)]
    change = [run(1, 9.0, 1.0, correct=False, failed=100), run(2, 9.0, 1.0)]
    summary = summarize(parent, change, END_TO_END)
    assert summary["failed_ops"] == {"parent": 0, "change": 100, "incorrect_runs": 1}
    assert not summary["peak_rss_mb"]["claim"]
