"""Benchmark a parent commit against the working tree in alternating pairs.

    python tools/bench_pairs.py --parent REV --workload W --seed N \\
        [--pairs 10] [--trace 0|1] --out PREFIX

Both sides are exported alike, as sibling directories under one
temporary directory: the committed files of ``REV`` (``git archive``),
and the working tree's files (every tracked file as it is on disk,
uncommitted edits included, and every untracked file that is not
ignored).  The temporary directory is removed when the runs end, fail,
are interrupted or terminated; the repository itself is not touched.
``perfbench/run.py`` then runs ``--pairs`` times on each side, the
parent first in odd pairs and the working tree first in even ones, with
the run length of BENCHMARK.json.  Each side's result lines go to
``<out>_before_<W>.json`` and ``<out>_after_<W>.json``: one ``#``
header line, then the last stdout line of each run.

For each metric the summary gives both sides' medians and quartiles,
the pairs the working tree wins (ties count for neither side) and
whether that is a gain: at least nine tenths of the pairs won, and the
medians further apart than the parent's quartiles.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def export(rev: str, dest: Path) -> str:
    """The committed files of ``rev`` written under ``dest``; returns its
    full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def export_worktree(dest: Path) -> None:
    """The working tree's files written under ``dest``: every tracked file
    as it is on disk and every untracked file that is not ignored."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted from the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, args, seconds) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py exited with {proc.returncode} in {tree}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by linear interpolation."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(before: list[dict], after: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric of ``metrics`` (BENCHMARK.json entries with ``name`` and
    ``better``), from the paired result lines of the two sides: each
    side's quartiles, the pairs ``after`` wins and whether it is a gain."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        b = [run["metrics"][name]["value"] for run in before]
        a = [run["metrics"][name]["value"] for run in after]
        wins = sum(sign * (x - y) > 0 for x, y in zip(b, a))
        qb, qa = quartiles(b), quartiles(a)
        rows.append({"name": name, "unit": metric["unit"], "before": qb, "after": qa,
                     "wins": wins, "pairs": len(b),
                     "gain": (wins >= WIN_SHARE * len(b)
                              and sign * (qb[1] - qa[1]) > qb[2] - qb[0])})
    return rows


def format_row(row: dict) -> str:
    (b1, b2, b3), (a1, a2, a3) = row["before"], row["after"]
    change = f"{100 * (a2 - b2) / b2:+.1f} %" if b2 else "n/a"
    return (f"{row['name']:<12} before {b2:.6g} ({b1:.6g}-{b3:.6g}) "
            f"after {a2:.6g} ({a1:.6g}-{a3:.6g}) {row['unit']}, {change}, "
            f"after wins {row['wins']} of {row['pairs']}"
            + (", gain" if row["gain"] else ""))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, metavar="PREFIX",
                        help="output files are PREFIX_{before,after}_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # a terminated run still removes its export
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runs = {"before": [], "after": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp, side) for side in ("before", "after")}
        sha = export(args.parent, trees["before"])
        export_worktree(trees["after"])
        for k in range(args.pairs):
            for side in ("before", "after") if k % 2 == 0 else ("after", "before"):
                runs[side].append(run_once(trees[side], args, spec["run_seconds"]))
                run_s = runs[side][-1]["metrics"].get("run_s", {}).get("value")
                print(f"pair {k + 1}/{args.pairs} {side}: run_s={run_s}", file=sys.stderr)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    suffix = "_traced" if args.trace else ""
    header = (f"# {args.workload} seed={args.seed} trace={args.trace}: {args.pairs} runs "
              f"of python3 perfbench/run.py --seconds {spec['run_seconds']:g}, alternating "
              f"with the other side (before first in odd pairs, after first in even "
              f"pairs), before = {sha[:7]}, after = working tree, "
              f"{os.cpu_count()}-vCPU {platform.machine()} host, 1 BLAS thread")
    for side, lines in runs.items():
        path = Path(f"{args.out}_{side}_{args.workload}{suffix}.json")
        path.write_text("\n".join([header] + [json.dumps(r) for r in lines]) + "\n")
    for side, lines in runs.items():
        failed = sum(r["failed"] for r in lines)
        correct = all(r["correct"] for r in lines)
        print(f"{side}: correct {correct}, {failed} failed operations")
    for row in summarize(runs["before"], runs["after"], metrics):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
