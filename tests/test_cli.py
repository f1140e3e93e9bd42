import json
from pathlib import Path

import numpy as np
import pytest

from sunspin import cli, dynamics, model

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "sunspin" / "configs"


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestRunConfig:
    def test_bundled_rabi_config(self, tmp_path):
        code = run_cli(["run", CONFIG_DIR / "rabi_dm2.json",
                        "--out", tmp_path / "out"])
        assert code == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(man["outputs"]) == {"rabi.csv", "summary.json"}
        data = np.loadtxt(tmp_path / "out" / "rabi.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[1] == 11
        assert np.all(data[:, 1:].sum(axis=1) <= 1 + 1e-9)

    @pytest.mark.parametrize("name", ["ancilla", "dual_ramsey", "leakage_scan"])
    def test_warm_caches_give_cold_outputs(self, name, tmp_path):
        # scans whose points repeat pulses: a run on caches another run
        # filled writes what a run on empty caches writes
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        dynamics.clear_caches()
        cold = cli.run_config(cfg, tmp_path / "cold")
        warm = cli.run_config(cfg, tmp_path / "warm")
        assert warm["outputs"] == cold["outputs"]

    def test_rerun_makes_no_clebsch_gordan_calls(self, tmp_path, monkeypatch):
        # the scattering branching and the pair couplings are built once
        cfg = json.loads((CONFIG_DIR / "ancilla.json").read_text())
        cli.run_config(cfg, tmp_path / "first")
        calls = []
        cg = model.clebsch_gordan
        monkeypatch.setattr(model, "clebsch_gordan",
                            lambda *a: calls.append(a) or cg(*a))
        cli.run_config(cfg, tmp_path / "second")
        assert calls == []

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert run_cli(["run", CONFIG_DIR / "ramsey_single_pair.json",
                            "--out", tmp_path / d]) == 0
        a = (tmp_path / "a" / "ramsey.csv").read_bytes()
        b = (tmp_path / "b" / "ramsey.csv").read_bytes()
        assert a == b
        sa = (tmp_path / "a" / "shots.csv").read_bytes()
        sb = (tmp_path / "b" / "shots.csv").read_bytes()
        assert sa == sb

    def test_manifest_hashes_match_files(self, tmp_path):
        import hashlib
        run_cli(["run", CONFIG_DIR / "rabi_dm2.json", "--out", tmp_path / "o"])
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        for name, digest in man["outputs"].items():
            actual = hashlib.sha256((tmp_path / "o" / name).read_bytes())
            assert actual.hexdigest() == digest

    def test_input_not_mutated(self, tmp_path):
        src = CONFIG_DIR / "rabi_dm2.json"
        before = src.read_bytes()
        run_cli(["run", src, "--out", tmp_path / "o"])
        assert src.read_bytes() == before

    def test_empty_scan_exit_2(self, tmp_path):
        cfg = {"protocol": "rabi", "fields": {"b_hz": 1.0, "q_hz": 1.0},
               "scan": {"values": []}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("scan", [
        {"values": [0.1, float("nan")]}, {"values": [0.1, float("inf")]},
        {"start": 0.0, "stop": float("inf"), "num": 3}],
        ids=["nan", "inf", "inf-stop"])
    def test_non_finite_scan_exit_2(self, tmp_path, scan):
        cfg = json.loads((CONFIG_DIR / "ancilla.json").read_text())
        cfg["scan"] = scan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o" / "ancilla.csv").exists()

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = {"protocol": "rabi", "fields": {"b_hz": 1.0, "q_hz": 1.0},
               "scan": {"values": [0.001]}, "bogus": 1}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 2

    def test_simulation_error_exit_3(self, tmp_path):
        # adiabatic-off Ramsey with T shorter than the ramps
        cfg = {"protocol": "ramsey", "fields": {"b_hz": 960.0, "q_hz": 190.0},
               "scan": {"values": [0.001]}, "tls_mode": "adiabatic-off"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 3

    @pytest.mark.parametrize("extra", [
        {"protocol": "rabi", "noise": {"preset": "tls_on"}},
        {"protocol": "ramsey", "noise": {"preset": "tls_on"}},
        {"protocol": "ramsey", "phase_noise": "average"},
    ])
    def test_noise_unpaired_with_phase_noise_exit_2(self, tmp_path, extra):
        # only a phase-noise Ramsey reads the noise model, and it needs one
        cfg = {"fields": {"b_hz": 960.0, "q_hz": 190.0},
               "scan": {"values": [0.01]}, **extra}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("shots", [{}, {"n_shots": 0}])
    def test_sampled_phase_noise_without_shots_exit_2(self, tmp_path, shots):
        cfg = {"protocol": "ramsey", "fields": {"b_hz": 960.0, "q_hz": 190.0},
               "scan": {"values": [0.01]}, "phase_noise": "sample",
               "noise": {"preset": "quiet"}, **shots}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("preset, tls_mode, code", [
        ("tls_on", "adiabatic-off", 2), ("tls_off", "on", 2),
        ("tls_on", "on", 0), ("tls_off", "adiabatic-off", 0)])
    def test_noise_preset_must_match_tls_mode(self, tmp_path, preset, tls_mode,
                                                code):
        # ramsey reads the phase-noise coefficients of its own tls_mode, so
        # a preset naming the other mode would be accepted and ignored
        cfg = {"protocol": "ramsey", "fields": {"b_hz": 960.0, "q_hz": 190.0},
               "scan": {"values": [0.01]}, "tls_mode": tls_mode,
               "phase_noise": "average", "noise": {"preset": preset}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out", tmp_path / "o"]) == code

    def test_internal_key_error_exit_3(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(cli.protocols, "rabi_scan", broken)
        assert run_cli(["run", CONFIG_DIR / "rabi_dm2.json",
                        "--out", tmp_path / "o"]) == 3

    def test_param_override(self, tmp_path):
        assert run_cli(["run", CONFIG_DIR / "rabi_dm2.json",
                        "--out", tmp_path / "o", "--seed", "9",
                        "--param", 'scan={"values": [0.001, 0.002]}']) == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["config"]["seed"] == 9
        assert man["config"]["scan"]["values"] == [0.001, 0.002]


class TestSubcommands:
    def test_leakage_scan_table(self, tmp_path):
        assert run_cli(["leakage-scan", "--ratios", "9,30",
                        "--param", "n_phi=8", "--out", tmp_path / "o"]) == 0
        data = np.loadtxt(tmp_path / "o" / "leakage_scan.csv", delimiter=",",
                          skiprows=1)
        assert data.shape == (2, 7)
        assert data[0, 0] == 9.0
        rows = cli.protocols.leakage_scan([9, 30], n_phi=8, q_hz=-330.0,
                                          b_hz=960.0)
        keys = ("ratio", "omega_hz", "max", "min", "mean", "spread",
                "projection_floor")
        # the CSV holds 12 significant digits
        expected = [[float(f"{r[k]:.12g}") for k in keys] for r in rows]
        assert data.tolist() == expected

    def test_fit_subcommand(self, tmp_path, capsys):
        t = np.linspace(0, 0.3, 150)
        y = 0.4 * np.exp(-t / 0.298) * np.sin(2 * np.pi * 71 * t) + 0.5
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.column_stack([t, y]), delimiter=",",
                   header="t,y", comments="")
        assert run_cli(["fit", "damped-sine", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["tau_s"] == pytest.approx(0.298, rel=1e-4)

    def test_fit_column_selection(self, tmp_path, capsys):
        t = np.linspace(0, 0.3, 150)
        y = 0.4 * np.exp(-t / 0.298) * np.sin(2 * np.pi * 71 * t) + 0.5
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.column_stack([t, np.zeros_like(t), y]),
                   delimiter=",", header="t,junk,y", comments="")
        assert run_cli(["fit", "damped-sine", path, "--column", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["tau_s"] == pytest.approx(0.298, rel=1e-4)

    def test_decompose_subcommand(self, tmp_path, capsys):
        assert run_cli(["decompose", "--n", "4",
                        "--out", tmp_path / "o"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_error"] < 1e-8
        assert out["generator_set_size"] == 17
        assert (tmp_path / "o" / "decompose.json").exists()

    def test_preset_protocol_command(self, tmp_path):
        assert run_cli(["dual-ramsey", "--out", tmp_path / "o",
                        "--param", 'scan={"start": 0.004, "stop": 0.0045, "num": 5}'
                        ]) == 0
        data = np.loadtxt(tmp_path / "o" / "dual_ramsey.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[0] == 5
