"""Tests of the benchmark harness itself (not of sunspin).

    python3 -m pytest perfbench/test_harness.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # a[0,10] holds b[1,4] and d[5,9]; b holds c[2,3]
    recorded = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                ("d", 5.0, 9.0, 0)]
    totals = spans.self_times(recorded)
    assert totals == {"a": (1, 3.0), "b": (1, 2.0), "c": (1, 1.0), "d": (1, 4.0)}
    assert sum(s for _, s in totals.values()) == pytest.approx(10.0)


def test_self_time_sums_over_the_spans_of_a_layer():
    # a layer nested in itself (fit_sine inside fit_sine_odr) counts once
    recorded = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("x", 2.0, 3.0, 1),
                ("p", 20.0, 21.0, -1)]
    totals = spans.self_times(recorded)
    assert totals["p"] == (2, pytest.approx(10.0 - 4.0 + 1.0))
    assert totals["x"] == (2, pytest.approx(3.0 + 1.0))


def test_wrappers_record_parents_and_counts():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 2.0
        return type("Result", (), {"nfev": 7})()

    wrapped_inner = tracer.wrap("inner", inner, spans._nfev)

    def outer():
        clock.now += 1.0
        wrapped_inner()
        wrapped_inner()
        clock.now += 1.0

    tracer.wrap("outer", outer)()
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0),
                                                     ("inner", 0)]
    totals = tracer.layer_totals()
    assert totals["outer.self_s"] == pytest.approx(2.0)
    assert totals["inner.self_s"] == pytest.approx(4.0)
    assert totals["inner.calls"] == 2
    assert totals["inner.nfev"] == 14


def test_every_wrapped_name_is_restored():
    before = spans.snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert len(spans.moved_targets(before)) == len(spans.TARGETS)
            raise RuntimeError("a pass that fails must still restore")
    assert spans.moved_targets(before) == []


def test_installed_wrappers_see_calls_made_by_the_program():
    from sunspin import model, protocols

    tracer = spans.Tracer()
    with tracer.installed():
        protocols.rabi_scan((-2.5, -1.5), 71.0, model.FieldParams(960.0, -320.0),
                            np.linspace(1e-4, 0.01, 5))
    totals = tracer.layer_totals()
    assert totals["protocols.calls"] == 1
    assert totals["sequence.compile.calls"] == 1
    assert totals["dynamics.evolve_pure.calls"] == 1
    assert totals["spin_core.clebsch_gordan.calls"] > 0


def test_fastest_pass_takes_each_operation_minimum():
    passes = [[1.0, 5.0, 2.0], [2.0, 4.0, 3.0]]
    assert run.fastest_pass(passes) == pytest.approx(1.0 + 4.0 + 2.0)


def test_every_per_layer_metric_names_a_traced_layer():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {layer for _, _, layer, _ in spans.TARGETS}
    produced = {f"{layer}.{kind}" for layer in layers for kind in ("calls", "self_s")}
    produced.add("dynamics.solve_ivp.nfev")
    assert {m["name"] for m in spec["per_layer"]} <= produced
