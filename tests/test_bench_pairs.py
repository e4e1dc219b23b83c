"""The statistics of tools/bench_pairs.py: quartiles, the per-metric
comparison of parent and change runs, and the claim verdict."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@given(st.lists(st.floats(-1e6, 1e6) | st.integers(0, 50).map(float), min_size=1, max_size=30))
def test_quartiles_match_numpy_percentile(xs):
    want = np.percentile(xs, [25, 50, 75])
    assert bench_pairs.quartiles(xs) == pytest.approx(want.tolist(), rel=1e-9, abs=1e-6)


PARENT = [100.0, 102.0, 98.0, 101.0]
CHANGE = [90.0, 95.0, 99.0, 105.0]


def test_compare_lower_is_better():
    m = bench_pairs.compare(PARENT, CHANGE, "lower", 0.15)
    assert m["change_wins"] == "2/4"  # 90 < 100 and 95 < 102
    assert m["parent"]["median"] == 100.5 and m["change"]["median"] == 97.0
    assert m["worse_by_fraction"] == pytest.approx(-3.5 / 100.5)  # lower: better
    assert m["within_bound"]


def test_compare_higher_is_better():
    m = bench_pairs.compare(PARENT, CHANGE, "higher", 0.02)
    assert m["change_wins"] == "2/4"  # 99 > 98 and 105 > 101
    assert m["worse_by_fraction"] == pytest.approx(3.5 / 100.5)  # lower: worse
    assert not m["within_bound"]
    assert m["parent_iqr"] == pytest.approx(np.subtract(*np.percentile(PARENT, [75, 25])))


@pytest.mark.parametrize("losses, met", [(0, True), (1, True), (2, False)])
def test_claim_needs_nine_of_ten_wins(losses, met):
    """The change doubles the parent in every pair but the first `losses`,
    where it drops to half; the median gain stays about 2x either way."""
    parent = [100.0 + i for i in range(10)]
    change = [p / 2 if i < losses else 2 * p for i, p in enumerate(parent)]
    m = bench_pairs.compare(parent, change, "higher", 0.2)
    assert m["change_wins"] == f"{10 - losses}/10"
    assert m["median_gap_exceeds_parent_iqr"]
    verdict = bench_pairs.claim_verdict(
        "steps_per_s:sudoku:1.5", {"sudoku": {"metrics": {"steps_per_s": m}}})
    assert verdict["met"] is met


def test_claim_lower_is_better_gain_and_missing_metric():
    parent = [10.0 + i for i in range(10)]
    m = bench_pairs.compare(parent, [p / 2 for p in parent], "lower", 0.2)
    verdict = bench_pairs.claim_verdict("request_ms_p25:avoid:1.9", {"avoid": {"metrics": {
        "request_ms_p25": m}}})
    assert verdict["met"] and "(x2.00)" in verdict["result"]
    assert bench_pairs.claim_verdict("steps_per_s:avoid:1.1", {})["result"] == "not measured"
