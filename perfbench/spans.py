"""Span tracing of sunspin layers from outside the package.

A :class:`Tracer` replaces public functions with wrappers that record one
span per call: ``(layer, start, end, parent)``, where ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory; the benchmark
turns them into per-layer call counts and self times when a pass ends.

Each wrapper is installed at the name the caller looks up (a module
global or a class attribute), so ``sunspin.protocols.sample_shot`` is
patched rather than ``sunspin.readout.sample_shot``, which protocols
imported by value.  :meth:`Tracer.installed` restores every original
object on exit, so an untraced pass runs the unpatched program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

PROTOCOLS = ("rabi_scan", "ramsey", "parallel_ramsey", "dual_ramsey_sampled",
             "ancilla_measurement", "leakage_scan")
FITS = ("fit_damped_sine", "fit_sine", "fit_sine_odr")


def _nfev(result) -> dict:
    return {"nfev": int(result.nfev)}


# (module, attribute path, layer, extra counts taken from the result)
TARGETS = (
    ("sunspin.dynamics", "expm", "dynamics.expm", None),
    ("sunspin.dynamics", "solve_ivp", "dynamics.solve_ivp", _nfev),
    ("sunspin.dynamics", "liouvillian", "dynamics.liouvillian", None),
    ("sunspin.dynamics", "evolve_pure", "dynamics.evolve_pure", None),
    ("sunspin.dynamics", "evolve_density", "dynamics.evolve_density", None),
    ("sunspin.dynamics", "propagator", "dynamics.propagator", None),
    ("sunspin.dynamics", "superoperator", "dynamics.superoperator", None),
    ("sunspin.sequence", "compile", "sequence.compile", None),
    ("sunspin.model", "RamanTone.coupling_matrix", "model.coupling_matrix", None),
    ("sunspin.model", "clebsch_gordan", "spin_core.clebsch_gordan", None),
    *(("sunspin.protocols", name, "protocols", None) for name in PROTOCOLS),
    ("sunspin.protocols", "sample_shot", "readout.sample_shot", None),
    ("sunspin.cli", "run_config", "cli.run_config", None),
    ("sunspin.analysis", "synthesize_fringe", "analysis.synthesize_fringe", None),
    ("sunspin.analysis", "phase_noise_estimate", "analysis.phase_noise_estimate",
     None),
    *(("sunspin.analysis", name, "analysis.fit", None) for name in FITS),
    ("sunspin.synthesis", "decompose", "synthesis.decompose", None),
    ("sunspin.synthesis", "pair_rotation", "spin_core.pair_rotation", None),
    ("sunspin.synthesis", "simulate_plan", "synthesis.simulate_plan", None),
)


def _owner(module: str, path: str):
    """(object holding the attribute, attribute name) for a dotted path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder for a single-threaded program.

    The benchmark runs sunspin with ``SUNSPIN_THREADS=1``, so one parent
    stack describes every call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, layer: str, fn, counter=None):
        """Wrapper of ``fn`` recording one span of ``layer`` per call."""
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[f"{layer}.{key}"] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, path, layer, counter in targets:
                owner, attr = _owner(module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per layer: calls and self time of the spans recorded so far."""
        totals = self_times(self.spans)
        out = {}
        for layer, (calls, self_s) in totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for key, value in self.counts.items():
            out[key] = value
        return out


def self_times(spans) -> dict:
    """{layer: (calls, self seconds)} from (layer, start, end, parent) spans.

    A span's self time is its duration minus the durations of its direct
    children, which in one thread run one after another inside it.
    """
    totals: dict = {}
    for layer, start, end, parent in spans:
        calls, total = totals.get(layer, (0, 0.0))
        totals[layer] = (calls + 1, total + (end - start))
        if parent >= 0:
            p_layer = spans[parent][0]
            p_calls, p_total = totals.get(p_layer, (0, 0.0))
            totals[p_layer] = (p_calls, p_total - (end - start))
    return totals


def moved_targets(originals: dict, targets=TARGETS) -> list:
    """Names whose current object is not the one recorded in ``originals``."""
    moved = []
    for module, path, _, _ in targets:
        owner, attr = _owner(module, path)
        if vars(owner)[attr] is not originals[(module, path)]:
            moved.append(f"{module}.{path}")
    return moved


def snapshot(targets=TARGETS) -> dict:
    """Current object at every target name, for :func:`moved_targets`."""
    out = {}
    for module, path, _, _ in targets:
        owner, attr = _owner(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out
