"""One benchmark process: set up, one cold pass, then warm passes.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--spawn-time`` is the wall-clock time at which the parent started this
process, so ``setup_s`` covers interpreter start, imports and the
workload's set-up.  With ``--trace 1`` the warm passes run with the span
wrappers installed and every wrapped name is checked to be restored
afterwards.
"""

import os

# Pin native thread pools and sunspin's scan-point pool to one thread
# before NumPy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "SUNSPIN_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import cpu

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MAX_ERRORS = 5
# Each operation's run time is its shortest warm time, so every operation
# needs a few repetitions even when one pass outlasts --seconds.
MIN_WARM_PASSES = 5
# Shortest time between two moves of the process to the fastest CPU.
REPIN_S = 0.5


def blas_info() -> list:
    """Version string and thread count of every OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = int(get_threads())
                    break
            if "config" in entry:
                break
        out.append(entry)
    return out


def environment(cpus) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus": cpus,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_info(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "SUNSPIN_THREADS": os.environ.get("SUNSPIN_THREADS")}


def run_pass(workload, out_dir: Path, cpus):
    """Time each program call of one pass; checks come after.

    Before an operation, the process moves to the fastest of ``cpus`` if
    its last move is at least ``REPIN_S`` old.  Returns the wall time of every operation, in pass order, and the
    (name, value, error) results.
    """
    times, results = [], []
    pinned_at = -REPIN_S
    for name, call in workload.operations(out_dir):
        if time.perf_counter() - pinned_at >= REPIN_S:
            cpu.pin_to_fastest_cpu(cpus)
            pinned_at = time.perf_counter()
        start = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # the benchmark counts failures, never stops on them
            value, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        results.append((name, value, error))
    return times, results


class Tally:
    """Attempted and failed operations; a failed check also marks incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: list = []

    def add(self, workload, results) -> None:
        values = {name: value for name, value, error in results if error is None}
        for name, value, error in results:
            self.attempted += 1
            if error is None:
                try:
                    problems = workload.check(name, value, values)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if problems:
                    self.correct = False
                    error = "; ".join(problems)
            if error is not None:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"{name}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the warm passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--cpus", type=lambda v: [int(c) for c in v.split(",")],
                        required=True, help="CPUs the passes may be pinned to")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only setup_s")
    args = parser.parse_args(argv)

    import spans
    import sunspin
    import workloads

    if not Path(sunspin.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sunspin imported from {sunspin.__file__}, not {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    setup_s = time.time() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work_dir = ROOT / ".perfbench_out" / str(os.getpid())
    tally = Tally()
    tracer = spans.Tracer()
    originals = spans.snapshot()
    warm_ops, layers = [], []
    hooks = tracer.installed() if args.trace else contextlib.nullcontext()
    try:
        cold_ops, results = run_pass(workload, work_dir / "pass0", args.cpus)
        tally.add(workload, results)
        warm_start = time.perf_counter()
        with hooks:
            while (len(warm_ops) < MIN_WARM_PASSES
                   or time.perf_counter() - warm_start < args.seconds):
                tracer.reset()
                times, results = run_pass(workload, work_dir / f"pass{len(warm_ops) + 1}",
                                          args.cpus)
                if args.trace:
                    layers.append(tracer.layer_totals())
                warm_ops.append(times)
                tally.add(workload, results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    moved = spans.moved_targets(originals)

    print(json.dumps({
        "setup_s": setup_s, "cold_ops": cold_ops, "warm_ops": warm_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted, "failed": tally.failed,
        "correct": tally.correct, "errors": tally.errors,
        "layers": layers, "not_restored": moved, "env": environment(args.cpus)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
