"""CPU placement for timing on a host whose virtual CPUs change speed.

On the machine this benchmark was written on, the host ran each virtual
CPU at two speeds about 40 % apart, for seconds to a minute at a time
and independently of the other CPU.  Moving the benchmark's own process
to the CPU that a short probe finds fastest keeps most timed work off
the slow state.  Only this process's affinity is changed.
"""

import os
import time

PROBE_LOOPS = 40_000        # about 1 ms of pure Python per probe
PROBES = 5


def _probe_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus) -> int:
    """Pin this process to the CPU of ``cpus`` that runs the probe fastest."""
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings.append((sorted(_probe_s() for _ in range(PROBES))[PROBES // 2], cpu))
    cpu = min(timings)[1]
    os.sched_setaffinity(0, {cpu})
    return cpu
