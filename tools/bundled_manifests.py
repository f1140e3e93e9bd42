"""Run the bundled configs and ``sunspin decompose``; compare outputs.

    python tools/bundled_manifests.py OUT_DIR [--against REF_DIR] [--repeat N]
                                      [--write-reference]

Each ``src/sunspin/configs/<name>.json`` is run through
``sunspin.cli.run_config`` into ``OUT_DIR/<name>/``, with the config's
file name as its recorded path, so two checkouts of the package write
comparable manifests.  ``sunspin decompose --n 50 --seed 0`` then writes
its ``decompose.json`` into ``OUT_DIR/decompose/``, so the synthesis
layer, which no bundled config reaches, is compared too.  The library
run ``dual_ramsey_sampled`` writes the offsets and the true and detected
counts of 200 shots of ``protocols.dual_ramsey_sampled`` under quiet,
toggle-only and jitter noise (see ``SAMPLED_NOISE``) into
``OUT_DIR/dual_ramsey_sampled/sampled.json``, so the shot layer, which
no bundled config reaches either, is compared.  Last, ``sunspin fit``
fits two of the CSVs just written (see ``FIT_RUNS``) and writes its
``fit.json`` into ``OUT_DIR/<fit run>/``, so the fitting layer is
compared as well.  Each run's
name is printed with its wall time: the fastest of ``--repeat`` runs
(default 1), back to back in this process, so repeated and later runs
may reuse channel sets and Liouville maps that earlier ones built.
With ``--against``, every
output file (the manifest included) is hashed and compared with the
file of the same name under ``REF_DIR/<name>/``; each difference is
listed, a differing CSV with the number of cells that differ, the
largest absolute difference among them and, per differing row (named by
its scan value), the headers of its differing columns; a differing JSON
file with the number of numbers that differ, the largest absolute
difference among them, how many other values differ, and the JSON path
of each differing value.  The exit status is 1 if there is any.  With
``--write-reference``, each run's outputs but its manifest replace
``tests/reference/<name>/``, the reference that
``tests/test_reference_outputs.py`` compares fresh runs with.  Runs the
package next to this script, not an installed one.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sunspin import cli, model, protocols, readout  # noqa: E402

CONFIG_DIR = Path(cli.__file__).parent / "configs"
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "tests" / "reference"


DECOMPOSE_ARGS = ("decompose", "--n", "50", "--seed", "0")
# ``sunspin fit`` runs: run name -> (fit model, the bundled config whose
# output it fits, that output's file, --column).  Column 4 is pop_-1.5,
# the upper level of the bundled Rabi pair.
FIT_RUNS = {
    "fit_damped_sine": ("damped-sine", "rabi_dm1_damped", "rabi.csv", 4),
    "fit_sine": ("sine", "rabi_dm1", "rabi.csv", 4),
}


# The ``dual_ramsey_sampled`` run: 200 shots at T = 4.5 ms on b = 1000 Hz,
# q = -303 Hz under scattering and dephasing, read by the default
# detection model, for each noise model from seed 11.
SAMPLED_RUN = "dual_ramsey_sampled"
SAMPLED_NOISE = {
    "quiet": protocols.NoiseSpec.quiet(),
    "toggle_only": protocols.NoiseSpec(b_toggle_prob=0.5, b_toggle_hz=23.0),
    "jitter": protocols.NoiseSpec(pulse_area_sigma=0.0, b_jitter_hz=3.0,
                                  q_jitter_hz=0.5, b_toggle_prob=0.5,
                                  b_toggle_hz=23.0),
}


def run_sampled(out_dir: Path) -> None:
    """The offsets, the true and detected counts and the nominal
    populations of each ``SAMPLED_NOISE`` model's shots, into
    ``OUT_DIR/dual_ramsey_sampled/sampled.json``."""
    lindblad = model.photon_scattering_channels().merge(model.inhomogeneous_dephasing())
    out = {}
    for name, noise in SAMPLED_NOISE.items():
        r = protocols.dual_ramsey_sampled(
            4.5e-3, model.FieldParams(b_hz=1000.0, q_hz=-303.0), 77.0, noise, 200,
            lindblad=lindblad, n_atoms=10_000, detection=readout.DetectionModel(),
            seed=11)
        out[name] = {"field_offsets": r["field_offsets"].tolist(),
                     "phase_offsets": r["phase_offsets"].tolist(),
                     "true_counts": r["records"].true_counts.tolist(),
                     "detected_counts": r["records"].detected_counts.tolist(),
                     "populations_nominal": r["populations_nominal"].tolist()}
    run_dir = out_dir / SAMPLED_RUN
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "sampled.json").write_text(json.dumps(out))


def _cli_quietly(*argv: str) -> None:
    """``sunspin ARGV``, its printed output discarded; a non-zero exit
    status raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(list(argv))
    if status != 0:
        raise RuntimeError(f"sunspin {argv[0]} exited with status {status}")


def run_decompose(out_dir: Path) -> None:
    """``sunspin decompose --n 50 --seed 0 --out OUT_DIR/decompose``."""
    _cli_quietly(*DECOMPOSE_ARGS, "--out", str(out_dir / "decompose"))


def run_fit(out_dir: Path, name: str, csv_dir: Path) -> None:
    """``sunspin fit MODEL CSV --column C --out OUT_DIR/<name>`` for the
    fit run ``name`` of ``FIT_RUNS``, on the CSV of its config under
    ``csv_dir``."""
    model, config, file, column = FIT_RUNS[name]
    _cli_quietly("fit", model, str(csv_dir / config / file), "--column", str(column),
                 "--out", str(out_dir / name))


def _run_config(path: Path, out_dir: Path) -> None:
    cli.run_config(json.loads(path.read_text()), out_dir / path.stem,
                   config_path=path.name)


def run_all(out_dir: Path, repeat: int = 1) -> list[str]:
    """Run each bundled config, then ``decompose``, then the sampled dual
    Ramsey, then the fits of ``FIT_RUNS`` on the configs' outputs,
    ``repeat`` times into its own directory; returns the names."""
    runs = [(path.stem, functools.partial(_run_config, path, out_dir))
            for path in sorted(CONFIG_DIR.glob("*.json"))]
    runs.append(("decompose", functools.partial(run_decompose, out_dir)))
    runs.append((SAMPLED_RUN, functools.partial(run_sampled, out_dir)))
    runs += [(name, functools.partial(run_fit, out_dir, name, out_dir))
             for name in FIT_RUNS]
    for name, run in runs:
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        print(f"{name:<20} {min(times):8.3f} s")
    return [name for name, _ in runs]


def _hashes(run_dir: Path) -> dict[str, str]:
    if not run_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir()) if p.is_file()}


def differences(out_dir: Path, ref_dir: Path, names) -> list[str]:
    """'<config>/<file>' for every output missing from, added to or
    different from the reference run."""
    diffs = []
    for name in names:
        ours, theirs = _hashes(out_dir / name), _hashes(ref_dir / name)
        diffs += [f"{name}/{f}" for f in sorted(ours.keys() | theirs.keys())
                  if ours.get(f) != theirs.get(f)]
    return diffs


def _far(a, b, rtol: float, atol: float):
    """Whether numbers ``a`` differ from ``b`` by more than atol + rtol |b|
    (by default, whether they differ at all)."""
    return (a != b) & ~(np.abs(a - b) <= atol + rtol * np.abs(b))


def csv_cells(ours: Path, theirs: Path, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    """How two CSVs with the same header and shape differ: the number of
    differing cells (cells ``_far`` apart) and the largest absolute
    difference among them, then one line per differing row, named by its
    first (scan) column, with the headers of its differing columns."""
    heads = [p.read_text().splitlines()[0] for p in (ours, theirs)]
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (ours, theirs))
    if heads[0] != heads[1] or a.shape != b.shape:
        return ["header or shape differs"]
    differ, header = _far(a, b, rtol, atol), heads[0].split(",")
    diff = np.abs(a - b)[differ]
    return ([f"{diff.size} of {a.size} cells differ, "
             f"largest absolute difference {diff.max(initial=0.0):.3g}"]
            + [f"{header[0]}={a[r, 0]:.12g}: "
               + ", ".join(header[c] for c in np.flatnonzero(differ[r]))
               for r in np.flatnonzero(differ.any(axis=1))])


def _leaves(node, path: str = "$") -> dict:
    """Every scalar (and empty container) of a parsed JSON document,
    keyed by its JSON path."""
    if isinstance(node, dict) and node:
        items = ((f"{path}.{key}", value) for key, value in node.items())
    elif isinstance(node, list) and node:
        items = ((f"{path}[{k}]", value) for k, value in enumerate(node))
    else:
        return {path: node}
    return {leaf: value for sub, child in items
            for leaf, value in _leaves(child, sub).items()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_numbers(ours: Path, theirs: Path, rtol: float = 0.0,
                 atol: float = 0.0) -> list[str]:
    """How two JSON files with the same structure differ: the number of
    differing numbers (numbers ``_far`` apart) and the largest absolute
    difference among them, and how many other values differ, then the
    JSON path of each differing value."""
    a, b = (_leaves(json.loads(p.read_text())) for p in (ours, theirs))
    if a.keys() != b.keys():
        return ["structure differs"]
    differ = [path for path in a if a[path] != b[path] and not (
        _is_number(a[path]) and _is_number(b[path])
        and not _far(a[path], b[path], rtol, atol))]
    numeric = [path for path in differ if _is_number(a[path]) and _is_number(b[path])]
    largest = max((abs(a[path] - b[path]) for path in numeric), default=0.0)
    return ([f"{len(numeric)} of {sum(map(_is_number, a.values()))} numbers "
             f"differ, largest absolute difference {largest:.3g}, "
             f"{len(differ) - len(numeric)} other values differ"] + differ)


EXPLAIN = {".csv": csv_cells, ".json": json_numbers}


def report(out_dir: Path, ref_dir: Path, names) -> int:
    """Print every output that differs from the reference run, explained
    where its kind allows, and a summary line; returns how many differ."""
    diffs = differences(out_dir, ref_dir, names)
    for d in diffs:
        ours, theirs = out_dir / d, ref_dir / d
        explain = EXPLAIN.get(ours.suffix)
        if explain and ours.is_file() and theirs.is_file():
            summary, *rows = explain(ours, theirs)
            print(f"differs: {d} ({summary})")
            for row in rows:
                print(f"    {row}")
        else:
            print(f"differs: {d}")
    print(f"{len(names)} runs, {len(diffs)} differing outputs")
    return len(diffs)


def write_reference(out_dir: Path, names, ref_dir: Path = REFERENCE_DIR) -> None:
    """Replace ``ref_dir/<name>/`` with the outputs of each run but its
    manifest, which records paths and the package version."""
    for name in names:
        shutil.rmtree(ref_dir / name, ignore_errors=True)
        shutil.copytree(out_dir / name, ref_dir / name,
                        ignore=shutil.ignore_patterns("manifest.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, metavar="REF_DIR",
                        help="reference output directory to compare with")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs of each; the fastest wall time is printed")
    parser.add_argument("--write-reference", action="store_true",
                        help="copy the outputs but the manifests into tests/reference/")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    names = run_all(args.out_dir, args.repeat)
    if args.write_reference:
        write_reference(args.out_dir, names)
        print(f"{len(names)} runs written to {REFERENCE_DIR}")
    if args.against is None:
        print(f"{len(names)} runs into {args.out_dir}")
        return 0
    return 1 if report(args.out_dir, args.against, names) else 0


if __name__ == "__main__":
    sys.exit(main())
