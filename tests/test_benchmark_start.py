"""The benchmark in ``perfbench/`` can still start on this package.

Its worker wraps sunspin names by import path (``spans.TARGETS``) and
builds every workload from the package's public names and bundled
configs before the first pass, so deleting or renaming one of those
names crashes the worker.  These tests import ``perfbench/`` as the
worker does and change nothing in it.
"""

import importlib
import json
from pathlib import Path

import pytest

from sunspin import cli

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_span_target_resolves(perfbench):
    spans, _ = perfbench
    assert len(spans.snapshot()) == len(spans.TARGETS)


def test_every_workload_builds(perfbench):
    _, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        assert workload(617, ROOT).name == name


def test_pulse_scan_configs_validate(perfbench):
    # the configs the pulse_scans workload hands to cli.run_config, its
    # seed included, pass the config check
    _, workloads = perfbench
    for cfg in workloads.PulseScans(617, ROOT).configs.values():
        cli.validate_config(cfg)


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_one_pass_passes_its_checks(perfbench, name, tmp_path):
    # one untimed pass, each result judged by the workload's own check as
    # the worker judges it: an exception in a call or a check fails here
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name](617, ROOT)
    results = [(op, call()) for op, call in workload.operations(tmp_path)]
    values = dict(results)
    assert [(op, problem) for op, value in results
            for problem in workload.check(op, value, values)] == []
