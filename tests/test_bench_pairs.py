"""How ``tools/bench_pairs.py`` exports the two sides and summarizes
paired benchmark runs, on a scratch repository and canned result lines;
no benchmark is run."""

import importlib.util
import subprocess
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


def _files(tree):
    return {str(p.relative_to(tree)): p.read_text()
            for p in tree.rglob("*") if p.is_file()}


class TestExport:
    def test_both_sides_exported_alike(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        (repo / "pkg").mkdir(parents=True)

        def git(*args):
            subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                            "-c", "commit.gpgsign=false", *args],
                           cwd=repo, check=True, capture_output=True)

        git("init", "-q")
        (repo / ".gitignore").write_text("*.log\n")
        (repo / "pkg" / "a.py").write_text("A = 1\n")
        (repo / "gone.py").write_text("G = 1\n")
        git("add", "-A")
        git("commit", "-q", "-m", "first")
        (repo / "pkg" / "a.py").write_text("A = 2\n")  # uncommitted edit
        (repo / "pkg" / "new.py").write_text("B = 1\n")  # new, not ignored
        (repo / "run.log").write_text("ignored\n")
        (repo / "gone.py").unlink()  # deleted, not committed

        monkeypatch.setattr(bench_pairs, "ROOT", repo)
        bench_pairs.export("HEAD", tmp_path / "before")
        bench_pairs.export_worktree(tmp_path / "after")
        assert _files(tmp_path / "before") == {
            ".gitignore": "*.log\n", "gone.py": "G = 1\n", "pkg/a.py": "A = 1\n"}
        assert _files(tmp_path / "after") == {
            ".gitignore": "*.log\n", "pkg/a.py": "A = 2\n", "pkg/new.py": "B = 1\n"}
