import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from sunspin import cli, dynamics, model, protocols, readout
from sunspin.spin_core import DIM

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

    def test_multi_shot_rows(self, tmp_path, monkeypatch):
        # every bundled config draws at most one shot per point; here
        # three per point, one row each, point-major
        results = []
        rabi_scan = cli.protocols.rabi_scan
        monkeypatch.setattr(cli.protocols, "rabi_scan",
                            lambda **kw: results.append(rabi_scan(**kw)) or results[-1])
        cfg = json.loads((CONFIG_DIR / "rabi_dm1.json").read_text())
        cfg.update(scan={"start": 1e-6, "stop": 0.05, "num": 4}, n_shots=3,
                   detection={})
        cli.run_config(cfg, tmp_path)
        [shots] = [r.shots for r in results]
        rows = np.loadtxt(tmp_path / "shots.csv", delimiter=",", skiprows=1,
                          dtype=np.int64)
        assert rows.shape == (4 * 3, 2 + 2 * DIM)
        assert np.array_equal(rows[:, 0], np.repeat(np.arange(4), 3))
        assert np.array_equal(rows[:, 1], np.tile(np.arange(3), 4))
        for k, s, *counts in rows:
            assert np.array_equal(counts[:DIM], shots[k][s].true_counts)
            assert np.array_equal(counts[DIM:], shots[k][s].detected_counts)
        # states the default detection model cannot see read -1
        seen = rows[:, 2 + DIM:]
        visible = readout.DetectionModel().visible_mask()
        assert np.all(seen[:, ~visible] == -1) and np.all(seen[:, visible] >= 0)

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

    @pytest.mark.parametrize("config, param", [
        ("ancilla", 'scan={"values": [0.1, NaN]}'),
        ("ancilla", 'scan={"values": [0.1, Infinity]}'),
        ("ancilla", 'scan={"start": 0.0, "stop": Infinity, "num": 3}'),
        ("ancilla", 'scan={"start": -1e308, "stop": 1e308, "num": 3}'),
        ("ramsey_single_pair", "fields.b_vector_hz=NaN"),
        ("leakage_scan", "fields.q_hz=NaN"),
        ("ramsey_single_pair", "omega_hz=NaN"),
        ("ramsey_single_pair", "detuning_hz=Infinity")],
        ids=["nan", "inf", "inf-stop", "overflowing-span", "b-vector-nan",
             "q-nan", "omega-nan", "detuning-inf"])
    def test_non_finite_scan_exit_2(self, tmp_path, config, param):
        # NaN and +-Infinity parse as JSON numbers; a config holding one,
        # anywhere, is a config error and writes nothing
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / f"{config}.json", "--out", out,
                        "--param", param]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("lindblad", [
        {"dephasing_tau_s": 0.1},
        {"scattering": "monochromatic", "ase_factor": 7.0},
        {"scattering": "none", "scattering_budget": 2.0, "dephasing": "linear"}],
        ids=["tau-without-dephasing", "ase-factor-not-calibrated",
             "budget-not-calibrated"])
    def test_lindblad_keys_without_effect_exit_2(self, tmp_path, lindblad):
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / "ancilla.json", "--out", out,
                        "--param", f"lindblad={json.dumps(lindblad)}"]) == 2
        assert not out.exists()

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

    def test_failed_run_leaves_no_out_directory(self, tmp_path):
        # |dm| = 5 addresses no Raman pair, so the protocol raises
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / "rabi_dm1.json", "--out", out,
                        "--param", "pair=[-4.5, 0.5]"]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["rabi", "--config"]])
    @pytest.mark.parametrize("override", [["--seed", "3"], ["--shots", "5"],
                                          ["--param", "omega_hz=70.0"]])
    def test_non_object_config_exit_2_with_overrides(self, tmp_path, command,
                                                     override):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        out = tmp_path / "o"
        assert run_cli([*command, path, "--out", out, *override]) == 2
        assert not out.exists()

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

    def test_dotted_param_through_a_number_exit_2(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / "rabi_dm1.json", "--out", out,
                        "--param", "fields.b_hz.x=1"]) == 2
        assert not out.exists()


class TestProtocolKeys:
    # the config keys each protocol function has a parameter for;
    # renaming a keyword argument changes the config keys, so it is
    # pinned here
    COMMON = {"fields", "cg_weighting", "n_atoms"}
    SHOTS = {"lindblad", "omega_hz", "n_shots", "detection", "seed"}

    def test_takes_per_protocol(self):
        assert cli.TAKES == {
            "rabi": self.COMMON | self.SHOTS | {"pair", "detuning_hz"},
            "ramsey": self.COMMON | self.SHOTS | {
                "pair", "detuning_hz", "tls_mode", "phase_noise", "noise"},
            "dual_ramsey": self.COMMON | self.SHOTS,
            "ancilla": self.COMMON | self.SHOTS | {
                "window_s", "b_correction_hz", "prepare_with_pulse"},
            "leakage_scan": self.COMMON | {"include_scattering", "n_phi"},
        }

    def test_every_schema_key_is_taken(self):
        # every key of the config table is a run key or a parameter of
        # some protocol function
        taken = set().union(cli.RUN_KEYS, *cli.TAKES.values())
        assert set(cli.CONFIG_KEYS) == taken

    @pytest.mark.parametrize("config, param", [
        ("leakage_scan", 'lindblad={"scattering": "monochromatic"}'),
        ("leakage_scan", "n_shots=5"),
        ("leakage_scan", "omega_hz=3"),
        ("leakage_scan", "detection={}"),
        ("ancilla", "detuning_hz=40"),
        ("ancilla", 'tls_mode="adiabatic-off"'),
        ("ancilla", "pair=[-0.5, 0.5]"),
        ("ancilla", 'phase_noise="none"'),
        ("ancilla", "n_phi=8"),
        ("ancilla", "include_scattering=true"),
        ("dual_ramsey", "window_s=0.001"),
        ("rabi_dm2", 'tls_mode="on"')])
    def test_key_the_protocol_does_not_take_exit_2(self, tmp_path, config,
                                                   param):
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / f"{config}.json", "--out", out,
                        "--param", param]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"protocol": "rabi", "scan": {"values": [0.001]}},
        {"protocol": "ramsey", "scan": {"values": [0.01]}},
        {"protocol": "dual_ramsey", "scan": {"values": [0.004]}},
        {"protocol": "ancilla", "scan": {"values": [0.0]}},
        {"protocol": "leakage_scan", "scan": {"values": [9.0]}, "n_phi": 4}],
        ids=lambda cfg: cfg["protocol"])
    def test_every_protocol_takes_seed(self, tmp_path, cfg):
        cfg = {**cfg, "fields": {"b_hz": 960.0, "q_hz": -330.0}, "seed": 11}
        cli.run_config(cfg, tmp_path / "o")
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["seed"] == 11

    def test_leakage_scan_takes_cg_weighting(self, tmp_path):
        csvs = []
        for name, params in (("plain", []),
                             ("flat", ["--param", "cg_weighting=false"])):
            out = tmp_path / name
            assert run_cli(["run", CONFIG_DIR / "leakage_scan.json",
                            "--out", out, *params]) == 0
            csvs.append((out / "leakage_scan.csv").read_bytes())
        assert csvs[0] != csvs[1]

    def test_leakage_subcommand_rejects_shots(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["leakage-scan", "--ratios", "9", "--shots", "3",
                        "--out", out]) == 2
        assert not out.exists()



INVALID_CONFIGS = json.loads(
    (Path(__file__).parent / "data" / "invalid_configs.json").read_text())


def run_config_file(tmp_path, cfg):
    """Exit status of ``sunspin run`` on ``cfg``, and whether it wrote
    its output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    return run_cli(["run", path, "--out", out]), out.exists()


class TestConfigCheck:
    @pytest.mark.parametrize("name", sorted(INVALID_CONFIGS))
    def test_invalid_config_exit_2(self, tmp_path, name):
        # one config per key and nested key: of the wrong type, out of
        # bounds, an unknown enum value, an unknown key or a missing one
        assert run_config_file(tmp_path, INVALID_CONFIGS[name]) == (2, False)

    @pytest.mark.parametrize("config, param", [
        ("ramsey_single_pair", "n_shots=5.0"),
        ("ramsey_single_pair", "seed=3.0"),
        ("leakage_scan", "n_phi=4.0"),
        ("ramsey_single_pair", 'scan={"start": 0.001, "stop": 0.01, "num": 3.0}'),
        ("ramsey_single_pair", "n_atoms=100.0")])
    def test_integer_keys_take_json_integers_only(self, tmp_path, config, param):
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / f"{config}.json", "--out", out,
                        "--param", param]) == 2
        assert not out.exists()

    def test_scan_takes_values_or_a_range_not_both(self, tmp_path):
        cfg = {"protocol": "rabi", "fields": {"b_hz": 960.0, "q_hz": -320.0},
               "scan": {"values": [0.001], "start": 0, "stop": 5, "num": 2}}
        assert run_config_file(tmp_path, cfg) == (2, False)

    @pytest.mark.parametrize("param", [
        "pair=[0.3, 1.3]", "pair=[-2.5, 5.5]",
        'detection={"eta": {"abc": 0.5}}', 'detection={"eta": {"0.7": 0.5}}',
        'detection={"eta": {"Infinity": 0.5}}'])
    def test_spin_projections_are_checked_exit_2(self, tmp_path, param):
        out = tmp_path / "o"
        assert run_cli(["run", CONFIG_DIR / "rabi_dm1.json", "--out", out,
                        "--param", param]) == 2
        assert not out.exists()

    def test_pair_of_projections_too_far_apart_is_the_models_exit_3(self, tmp_path):
        # both are spin projections; which pairs a Raman tone can drive is
        # the model's rule
        assert run_cli(["run", CONFIG_DIR / "rabi_dm1.json", "--out",
                        tmp_path / "o", "--param", "pair=[-4.5, 0.5]"]) == 3

    def test_eta_keyed_by_a_spin_projection_runs(self, tmp_path):
        assert run_cli(["run", CONFIG_DIR / "rabi_dm1.json", "--out",
                        tmp_path / "o", "--param",
                        'detection={"eta": {"-3.5": 0.5}}']) == 0

    def test_enum_values_are_the_protocols_literals(self):
        hints = get_type_hints(protocols.ramsey)
        assert hints["tls_mode"] is protocols.TlsMode
        assert hints["phase_noise"] is protocols.PhaseNoise
        cfg = json.loads((CONFIG_DIR / "ramsey_single_pair.json").read_text())
        for mode in get_args(protocols.TlsMode):
            cli.validate_config({**cfg, "tls_mode": mode})
        for mode in get_args(protocols.PhaseNoise):
            cli.validate_config({**cfg, "phase_noise": mode})
        with pytest.raises(cli.ConfigError, match=r"\$\.tls_mode"):
            cli.validate_config({**cfg, "tls_mode": "off"})

    def test_protocols_annotate_each_key_alike(self):
        # a key's type is read from every protocol that takes it
        for key in set().union(*cli.TAKES.values()):
            hints = {str(h[key]) for h in cli._ANNOTATIONS.values() if key in h}
            assert len(hints) == 1, (key, hints)

    def test_errors_name_json_paths(self):
        cfg = {"protocol": "rabi", "fields": {"b_hz": True, "q_hz": 1.0},
               "scan": {"values": [0.001]}, "omega_hz": 0}
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(cfg)
        assert "$.fields.b_hz: True is not a finite number" in str(err.value)
        assert "$.omega_hz: 0 is not > 0" in str(err.value)

    def test_rabi_and_ramsey_take_their_presets_pair_and_rabi_frequency(
            self, tmp_path, monkeypatch):
        calls = []
        for fn in ("rabi_scan", "ramsey"):
            real = getattr(cli.protocols, fn)
            monkeypatch.setattr(cli.protocols, fn,
                                lambda real=real, **kw: calls.append(kw) or real(**kw))
        for protocol in ("rabi", "ramsey"):
            cfg = {"protocol": protocol, "fields": {"b_hz": 960.0, "q_hz": 190.0},
                   "scan": {"values": [0.01]}}
            cli.run_config(cfg, tmp_path / protocol)
        for kw, protocol in zip(calls, ("rabi", "ramsey")):
            assert kw["pair"] == cli.PRESETS[protocol]["pair"]
            assert kw["omega_hz"] == cli.PRESETS[protocol]["omega_hz"]

    def test_fit_of_a_non_numeric_csv_exit_2(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("t,y\n0.1,abc\n0.2,0.5\n")
        out = tmp_path / "o"
        assert run_cli(["fit", "sine", path, "--out", out]) == 2
        assert not out.exists()

    def test_import_loads_no_jsonschema(self):
        code = ("import sys, sunspin.cli; "
                "print([m for m in sys.modules if m.startswith('jsonschema')])")
        assert _fresh_python("-c", code).strip() == "[]"


def _fresh_python(*args: str) -> str:
    """stdout of ``python ARGS`` in a new interpreter on this package."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}).stdout


# a Python expression: the scipy* modules a process has loaded
SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


class TestStartsWithoutScipy:
    """Only the ODR fit loads SciPy.  This test process holds it
    already (the tests use it as a reference), so each check runs in a
    new interpreter."""

    def test_import_loads_no_scipy(self):
        code = f"import json, sys, sunspin.cli; print(json.dumps({SCIPY_LOADED}))"
        assert json.loads(_fresh_python("-c", code)) == []

    def test_bundled_configs_load_no_scipy(self, tmp_path):
        code = ("import json, sys\n"
                "from pathlib import Path\n"
                "from sunspin import cli\n"
                "loaded = {}\n"
                f"for path in sorted(Path({str(CONFIG_DIR)!r}).glob('*.json')):\n"
                "    cli.run_config(json.loads(path.read_text()),\n"
                f"                   Path({str(tmp_path)!r}) / path.stem)\n"
                f"    loaded[path.stem] = {SCIPY_LOADED}\n"
                "print(json.dumps(loaded))\n")
        loaded = json.loads(_fresh_python("-c", code))
        assert loaded == {path.stem: [] for path in CONFIG_DIR.glob("*.json")}

    def test_fit_sine_odr_runs_from_a_cold_start(self, tmp_path):
        t = np.linspace(0.0, 1.0, 40)
        y = 0.5 + 0.4 * np.sin(2 * np.pi * 3.0 * t + 0.3)
        path = tmp_path / "odr.csv"
        np.savetxt(path, np.column_stack([t, y, np.full(40, 0.01), np.full(40, 1e-3)]),
                   delimiter=",", header="t,y,sy,sx", comments="")
        fit = json.loads(_fresh_python("-m", "sunspin.cli", "fit", "sine-odr", str(path)))
        assert fit["converged"]
        assert abs(fit["params"]["frequency_hz"] - 3.0) < 1e-6


def _channel_bytes(spec):
    return [(np.asarray(op).tobytes(), rate) for op, rate in spec.channels]


class TestLindbladDefaults:
    """A lindblad key a config leaves out takes the library's default."""

    LIBRARY = {
        "calibrated": (model.photon_scattering_channels, {"scattering": "calibrated"}),
        "linear": (model.inhomogeneous_dephasing, {"dephasing": "linear"}),
        "quadratic": (model.inhomogeneous_dephasing, {"dephasing": "quadratic"}),
    }

    @pytest.mark.parametrize("name", sorted(LIBRARY))
    def test_cli_default_is_the_library_default(self, name):
        build, spec = self.LIBRARY[name]
        mode = {"mode": name} if build is model.inhomogeneous_dephasing else {}
        assert (_channel_bytes(cli._build_lindblad({"lindblad": spec}))
                == _channel_bytes(build(**mode)))

    def test_cli_follows_a_changed_library_default(self, monkeypatch):
        # the CLI restates no default, so it follows the library's
        for build, key in ((model.photon_scattering_channels, "ase_factor"),
                           (model.inhomogeneous_dephasing, "tau_unit_s")):
            names = [p.name for p in inspect.signature(build).parameters.values()
                     if p.default is not inspect.Parameter.empty]
            defaults = list(build.__defaults__)
            defaults[names.index(key)] *= 1.5
            monkeypatch.setattr(build, "__defaults__", tuple(defaults))
        spec = {"scattering": "calibrated", "dephasing": "linear"}
        assert (_channel_bytes(cli._build_lindblad({"lindblad": spec}))
                == _channel_bytes(model.photon_scattering_channels().merge(
                    model.inhomogeneous_dephasing())))
        # and the changed defaults did change what the library builds
        assert (_channel_bytes(model.inhomogeneous_dephasing()) != _channel_bytes(
            model.inhomogeneous_dephasing(tau_unit_s=model.DEPHASING_TIME_UNIT)))
        assert (_channel_bytes(model.photon_scattering_channels()) != _channel_bytes(
            model.photon_scattering_channels(ase_factor=model.DEFAULT_ASE_FACTOR)))


class TestSubcommands:
    def test_leakage_scan_table(self, tmp_path):
        assert run_cli(["leakage-scan", "--ratios", "9,30",
                        "--param", "n_phi=8", "--out", tmp_path / "o"]) == 0
        data = np.loadtxt(tmp_path / "o" / "leakage_scan.csv", delimiter=",",
                          skiprows=1)
        assert data.shape == (2, 7)
        assert data[0, 0] == 9.0
        rows = cli.protocols.leakage_scan(
            [9, 30], n_phi=8, fields=model.FieldParams(b_hz=960.0, q_hz=-330.0))
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

    def test_fit_takes_errors_only_from_errors_column(self, tmp_path, capsys):
        # column 2 of a sunspin CSV is a population, not an error bar
        t = np.linspace(0, 0.3, 150)
        y = 0.4 * np.exp(-t / 0.298) * np.sin(2 * np.pi * 71 * t) + 0.5
        fits = []
        for header, columns in (("t,y", [t, y]), ("t,y,p", [t, y, 0 * t])):
            path = tmp_path / f"{len(columns)}.csv"
            np.savetxt(path, np.column_stack(columns), delimiter=",",
                       header=header, comments="")
            assert run_cli(["fit", "damped-sine", path]) == 0
            fits.append(json.loads(capsys.readouterr().out))
        assert fits[1] == fits[0]

    def test_sine_odr_rejects_errors_column(self, tmp_path):
        # sine-odr reads its y and x errors from columns 2 and 3, so a
        # column named by --errors-column would go unread
        t = np.linspace(0.0038, 0.0053, 60)
        y = 0.25 - 0.25 * np.cos(2 * np.pi * 2200 * t)
        path = tmp_path / "odr.csv"
        np.savetxt(path, np.column_stack([t, y, np.full_like(t, 0.004),
                                          np.full_like(t, 1.5e-5), y]),
                   delimiter=",", header="t,y,sy,sx,e", comments="")
        assert run_cli(["fit", "sine-odr", path]) == 0
        assert run_cli(["fit", "sine-odr", path, "--errors-column", "4"]) == 2

    def test_fit_columns_outside_the_file_exit_2(self, tmp_path, capsys):
        t = np.linspace(0, 0.3, 150)
        path = tmp_path / "trace.csv"
        np.savetxt(path, np.column_stack([t, 0.5 + 0.4 * np.sin(2 * np.pi * 71 * t)]),
                   delimiter=",", header="t,y", comments="")
        assert run_cli(["fit", "sine", path, "--column", "7"]) == 2
        assert run_cli(["fit", "sine", path, "--errors-column", "2"]) == 2
        # a one-row file is still a table: its columns are checked, and a
        # fit of it fails for its one sample
        one_row = tmp_path / "one.csv"
        one_row.write_text("t,y\n0.1,0.5\n")
        assert run_cli(["fit", "damped-sine", one_row, "--column", "2"]) == 2
        capsys.readouterr()
        assert run_cli(["fit", "damped-sine", one_row]) == 3
        assert "need at least 8 samples" in capsys.readouterr().err

    def test_fit_sine_of_too_few_samples_exit_3(self, tmp_path, capsys, recwarn):
        # rejected before any frequency guess: no NumPy warning, no LAPACK
        one_row = tmp_path / "one.csv"
        one_row.write_text("t,y\n0.1,0.5\n")
        assert run_cli(["fit", "sine", one_row]) == 3
        assert "need at least 4 distinct sample times" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_fit_with_a_zero_error_exit_3(self, tmp_path, capfd):
        # rejected before the least-squares solver: LAPACK prints nothing
        t = np.linspace(0.0, 0.3, 20)
        rows = np.column_stack([t, 0.5 + 0.4 * np.sin(2 * np.pi * 11 * t),
                                np.full(20, 0.01)])
        rows[3, 2] = 0.0
        path = tmp_path / "zero.csv"
        np.savetxt(path, rows, delimiter=",", header="t,y,e", comments="")
        assert run_cli(["fit", "damped-sine", path, "--errors-column", "2"]) == 3
        out, err = capfd.readouterr()
        assert "errors must be positive and finite" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("column, bad, message", [
        (1, np.nan, "times and values must be finite"),
        (2, 0.0, "errors must be positive and finite")], ids=["nan value", "zero error"])
    def test_phase_diffusion_bad_input_exits_as_sine_does(self, tmp_path, capfd,
                                                          column, bad, message):
        # checked as the sine fits check: AnalysisError, exit 3, before
        # LAPACK, rather than NaN parameters (exit 0) or a LinAlgError
        rows = np.column_stack([[0.01, 0.02, 0.05, 0.1], [0.2, 0.4, 1.0, 2.0],
                                np.full(4, 0.05)])
        rows[2, column] = bad
        path = tmp_path / "var.csv"
        np.savetxt(path, rows, delimiter=",", header="t,v,e", comments="")
        for model_name in ("phase-diffusion", "sine"):
            assert run_cli(["fit", model_name, path, "--errors-column", "2"]) == 3
            out, err = capfd.readouterr()
            assert (out, err) == ("", f"simulation error: AnalysisError: {message}\n")

    def test_decompose_subcommand(self, tmp_path, capsys):
        assert run_cli(["decompose", "--n", "4",
                        "--out", tmp_path / "o"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_error"] < 1e-8
        assert out["generator_set_size"] == 17
        assert (tmp_path / "o" / "decompose.json").exists()

    def test_decompose_without_targets_exit_2(self, tmp_path):
        assert run_cli(["decompose", "--n", "0", "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    def test_leakage_scan_empty_ratio_exit_2(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["leakage-scan", "--ratios", "3,,9", "--out", out]) == 2
        assert not out.exists()

    def test_preset_protocol_command(self, tmp_path):
        assert run_cli(["dual-ramsey", "--out", tmp_path / "o",
                        "--param", 'scan={"start": 0.004, "stop": 0.0045, "num": 5}'
                        ]) == 0
        data = np.loadtxt(tmp_path / "o" / "dual_ramsey.csv", delimiter=",",
                          skiprows=1)
        assert data.shape[0] == 5
