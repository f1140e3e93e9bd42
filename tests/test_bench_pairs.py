"""How ``tools/bench_pairs.py`` summarizes paired benchmark runs, on
canned result lines; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def _lines(run_s, rate):
    return [{"correct": True, "attempted": 10, "failed": 0,
             "metrics": {"run_s": {"value": r, "unit": "s"},
                         "rate": {"value": q, "unit": "1/s"}}}
            for r, q in zip(run_s, rate)]


class TestSummarize:
    def test_quartiles_wins_and_gain(self):
        before = _lines([10, 11, 12, 13, 14, 15, 16, 17, 18, 19], [1] * 10)
        # nine pairs faster, one tie; medians 14.5 -> 7.5, parent IQR 4.5
        after = _lines([5, 6, 7, 8, 7, 8, 9, 9, 6, 19], [1] * 10)
        run_s, rate = bench_pairs.summarize(before, after, METRICS)
        assert run_s["before"] == pytest.approx((12.25, 14.5, 16.75))
        assert run_s["after"][1] == 7.5
        assert (run_s["wins"], run_s["pairs"], run_s["gain"]) == (9, 10, True)
        # ties count for neither side
        assert (rate["wins"], rate["gain"]) == (0, False)

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        before = _lines([10.0] * 10, [1.0] * 10)
        after = _lines([5.0] * 8 + [11.0] * 2, [1.0] * 10)
        (run_s, _) = bench_pairs.summarize(before, after, METRICS)
        assert (run_s["wins"], run_s["gain"]) == (8, False)

    def test_gain_needs_medians_apart_by_more_than_the_parent_spread(self):
        before = _lines([10, 12, 14, 16, 18, 10, 12, 14, 16, 18], [1] * 10)
        after = _lines([9, 11, 13, 15, 17, 9, 11, 13, 15, 17], [1] * 10)
        (run_s, _) = bench_pairs.summarize(before, after, METRICS)
        assert run_s["wins"] == 10 and not run_s["gain"]

    def test_higher_is_better_counts_the_other_way(self):
        before = _lines([1.0] * 10, [100, 101, 102, 103, 104, 100, 101, 102, 103, 104])
        after = _lines([1.0] * 10, [200] * 10)
        (_, rate) = bench_pairs.summarize(before, after, METRICS)
        assert (rate["wins"], rate["gain"]) == (10, True)
        assert "after wins 10 of 10, gain" in bench_pairs.format_row(rate)
