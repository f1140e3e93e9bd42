"""sunspin benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload rabi_damped --seed 1 --seconds 15 --trace 0

Run from the repository root.  The load is a closed loop: one caller,
one process at a time, passes back to back.  An untraced run starts
``SETUP_SAMPLES - 1`` processes that only set up and exit; every run
then starts one measuring process that sets up, runs one cold pass and
then warm passes for at least ``--seconds`` (and at least five of
them).  With ``--trace 1`` the warm passes run with span wrappers
installed and the per-layer metrics are medians over them.  Workload
names, metric names and units come from BENCHMARK.json.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the environment and every metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cpu

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
CPUS = os.sched_getaffinity(0)


def run_worker(args, deadline: float, *extra: str) -> dict:
    cpu.pin_to_fastest_cpu(CPUS)  # the worker inherits the placement
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--cpus", ",".join(map(str, sorted(CPUS))),
           *extra, "--spawn-time", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fastest_pass(passes: list) -> float:
    """Sum over the operations of a pass of each one's shortest time.

    The host's speed swings by about 40 % for seconds at a time; the
    shortest of several repetitions of an operation is far steadier
    than a mean or median of whole passes.
    """
    return sum(min(op) for op in zip(*passes))


def per_layer(layers: list, names: list) -> dict:
    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = statistics.median(p.get(name, 0.0) for p in layers)
        else:
            out[name] = statistics.median_low(p.get(name, 0) for p in layers)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sunspin" / "__init__.py").is_file():
        print(f"no sunspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, deadline, "--setup-only")["setup_s"]
              for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    report = run_worker(args, deadline)
    if report["not_restored"]:
        print(f"wrappers left installed: {report['not_restored']}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    warm = report["warm_ops"]
    if args.trace:
        values = per_layer(report["layers"], [m["name"] for m in metrics])
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": fastest_pass(warm),
                  "peak_rss_mb": report["peak_rss_mb"]}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print("# environment " + json.dumps(report["env"], sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"warm_passes={len(warm)} run_s={fastest_pass(warm):.4f} "
          f"pass_median_s={statistics.median(map(sum, warm)):.4f} "
          f"cold_pass_s={sum(report['cold_ops']):.4f}")
    for m in metrics:
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for error in report["errors"]:
        print(f"# failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
