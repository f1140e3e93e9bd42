"""Every bundled config, ``sunspin decompose --n 50 --seed 0`` and the
``sunspin fit`` runs of ``bundled_manifests.FIT_RUNS`` still write the
outputs under ``tests/reference/`` up to rounding.  A fit run fits the
reference CSV of its config, so it checks the fitting layer alone.

Each run starts on empty caches, so its result does not depend on which
tests ran before it.  Headers, strings and the JSON structure must
match exactly; each number within |a - b| <= ATOL + RTOL |b|, which
holds last-digit rounding but no change of a physical constant or
rate.  No integer below 1e10 (shot counts, seeds, lengths) can move by
one within it, so integers match exactly too.  Rewrite the reference
with ``python tools/bundled_manifests.py OUT --write-reference``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from sunspin import cli, dynamics

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "tests" / "reference"
_spec = importlib.util.spec_from_file_location(
    "bundled_manifests", ROOT / "tools" / "bundled_manifests.py")
bundled_manifests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundled_manifests)

RTOL, ATOL = 1e-10, 1e-12
RUNS = sorted(p.name for p in REFERENCE.iterdir() if p.is_dir())


def test_every_bundled_config_has_a_reference():
    configs = {p.stem for p in bundled_manifests.CONFIG_DIR.glob("*.json")}
    assert set(RUNS) == configs | {"decompose"} | set(bundled_manifests.FIT_RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_the_reference(name, tmp_path):
    dynamics.clear_caches()
    if name == "decompose":
        bundled_manifests.run_decompose(tmp_path)
    elif name in bundled_manifests.FIT_RUNS:
        bundled_manifests.run_fit(tmp_path, name, REFERENCE)
    else:
        cfg = json.loads((bundled_manifests.CONFIG_DIR / f"{name}.json").read_text())
        cli.run_config(cfg, tmp_path / name)
    ours = {p.name for p in (tmp_path / name).iterdir()} - {"manifest.json"}
    assert ours == {p.name for p in (REFERENCE / name).iterdir()}
    for file in sorted(ours):
        explain = bundled_manifests.EXPLAIN[Path(file).suffix]
        summary, *where = explain(tmp_path / name / file, REFERENCE / name / file,
                                  rtol=RTOL, atol=ATOL)
        assert summary.startswith("0 of ") and not where, (file, summary, where)
