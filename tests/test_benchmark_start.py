"""The benchmark in ``perfbench/`` can still start on this package.

Its worker wraps sunspin names by import path (``spans.TARGETS``) and
builds every workload from the package's public names and bundled
configs before the first pass, so deleting or renaming one of those
names crashes the worker.  These tests import ``perfbench/`` as the
worker does and change nothing in it.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
