"""How ``tools/bundled_manifests.py --against`` explains a differing output,
on small files and on one ``sunspin decompose`` run; no bundled config is
run."""

import importlib.util
import json
import math
import shutil
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bundled_manifests.py"
_spec = importlib.util.spec_from_file_location("bundled_manifests", TOOL)
bundled_manifests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundled_manifests)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


class TestCsvCells:
    def test_counts_cells_and_names_rows_and_columns(self, tmp_path):
        ours = _write(tmp_path / "a.csv", "t,x,y\n0.1,1,2\n0.2,3,4\n0.3,5,6\n")
        theirs = _write(tmp_path / "b.csv", "t,x,y\n0.1,1,2\n0.2,3.5,4.25\n0.3,5,6\n")
        assert bundled_manifests.csv_cells(ours, theirs) == [
            "2 of 9 cells differ, largest absolute difference 0.5", "t=0.2: x, y"]

    def test_header_or_shape_change_is_reported_as_such(self, tmp_path):
        ours = _write(tmp_path / "a.csv", "t,x\n0.1,1\n")
        assert bundled_manifests.csv_cells(
            ours, _write(tmp_path / "b.csv", "t,z\n0.1,1\n")) == ["header or shape differs"]
        assert bundled_manifests.csv_cells(
            ours, _write(tmp_path / "c.csv", "t,x\n0.1,1\n0.2,2\n")) == [
                "header or shape differs"]

    def test_tolerance_forgives_only_cells_within_it(self, tmp_path):
        ours = _write(tmp_path / "a.csv", "t,x,n\n0.1,1.0000000000001,7\n0.2,3,4\n")
        theirs = _write(tmp_path / "b.csv", "t,x,n\n0.1,1,7\n0.2,3.001,5\n")
        assert bundled_manifests.csv_cells(ours, theirs, rtol=1e-10, atol=1e-12) == [
            "2 of 6 cells differ, largest absolute difference 1", "t=0.2: x, n"]


class TestJsonNumbers:
    def test_counts_numbers_and_lists_paths(self, tmp_path):
        ref = {"seed": 7, "flag": True, "rows": [{"max": 0.25, "name": "a"},
                                                 {"max": 1e-3, "name": "b"}],
               "hash": "abc"}
        new = json.loads(json.dumps(ref))
        new["rows"][1]["max"] = 1e-3 + 2e-16
        new["flag"] = False
        new["hash"] = "abd"
        ours = _write(tmp_path / "a.json", json.dumps(new))
        theirs = _write(tmp_path / "b.json", json.dumps(ref))
        summary, *paths = bundled_manifests.json_numbers(ours, theirs)
        assert summary == ("1 of 3 numbers differ, largest absolute difference "
                           "2e-16, 2 other values differ")
        assert paths == ["$.flag", "$.rows[1].max", "$.hash"]

    def test_identical_documents_list_nothing(self, tmp_path):
        doc = json.dumps({"a": [1, 2.5, {"b": None}], "c": {}})
        ours, theirs = (_write(tmp_path / f"{n}.json", doc) for n in "ab")
        assert bundled_manifests.json_numbers(ours, theirs) == [
            "0 of 2 numbers differ, largest absolute difference 0, "
            "0 other values differ"]

    def test_tolerance_forgives_only_numbers_within_it(self, tmp_path):
        ours = _write(tmp_path / "a.json", json.dumps(
            {"x": 0.25 + 1e-15, "n": 3, "s": "a", "y": 1e-3}))
        theirs = _write(tmp_path / "b.json", json.dumps(
            {"x": 0.25, "n": 4, "s": "b", "y": 1e-3 + 1e-11}))
        summary, *paths = bundled_manifests.json_numbers(ours, theirs, rtol=1e-10,
                                                         atol=1e-12)
        assert summary.startswith("2 of 3 numbers differ")
        assert paths == ["$.n", "$.s", "$.y"]

    def test_structure_change_is_reported_as_such(self, tmp_path):
        ours = _write(tmp_path / "a.json", json.dumps({"rows": [1.0, 2.0]}))
        for other in ({"rows": [1.0]}, {"rows": [1.0, 2.0], "extra": 0},
                      {"rows": {"0": 1.0, "1": 2.0}}):
            theirs = _write(tmp_path / "b.json", json.dumps(other))
            assert bundled_manifests.json_numbers(ours, theirs) == ["structure differs"]


class TestDecomposeOutput:
    def test_perturbed_reconstruction_error_is_reported(self, tmp_path, capsys):
        ours, ref = tmp_path / "ours", tmp_path / "ref"
        bundled_manifests.run_decompose(ours)
        shutil.copytree(ours, ref)
        path = ref / "decompose" / "decompose.json"
        doc = json.loads(path.read_text())
        assert doc["n_targets"] == 50
        # perturb one target's error that is not the maximum by one ulp
        k = next(k for k, t in enumerate(doc["targets"])
                 if t["reconstruction_error"] != doc["max_error"])
        error = doc["targets"][k]["reconstruction_error"]
        doc["targets"][k]["reconstruction_error"] = math.nextafter(error, 1.0)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        assert bundled_manifests.report(ours, ref, ["decompose"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("differs: decompose/decompose.json (1 of ")
        assert lines[1:] == [f"    $.targets[{k}].reconstruction_error",
                             "1 runs, 1 differing outputs"]


class TestWriteReference:
    def test_replaces_each_run_without_its_manifest(self, tmp_path):
        out, ref = tmp_path / "out", tmp_path / "ref"
        for name in ("a", "b"):
            (out / name).mkdir(parents=True)
            _write(out / name / "x.csv", f"t\n{name}\n")
            _write(out / name / "manifest.json", "{}")
        (ref / "a").mkdir(parents=True)
        _write(ref / "a" / "stale.csv", "t\n0\n")
        _write(ref / "kept.txt", "")
        bundled_manifests.write_reference(out, ["a", "b"], ref)
        assert sorted(str(p.relative_to(ref)) for p in ref.rglob("*") if p.is_file()) == [
            "a/x.csv", "b/x.csv", "kept.txt"]
        assert (ref / "b" / "x.csv").read_text() == "t\nb\n"
