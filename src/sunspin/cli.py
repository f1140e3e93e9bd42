"""Batch front-end: JSON experiment configs to CSV/JSON artifacts.

Subcommands wrap the protocol, analysis, and synthesis layers; every
run writes its outputs plus a manifest with input echo and output
hashes under --out.  A config's "protocol" names one function of
:mod:`sunspin.protocols` (``PROTOCOLS``); the config keys it takes are
the schema properties among that function's parameters (``TAKES``),
each passed as the keyword of the same name, and every run also takes
"protocol", "scan" and "seed".  A key the protocol does not take is a
config error.  Exit codes: 0 success, 2 config/schema error,
3 simulation error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__, analysis, protocols, readout, synthesis
from .model import (FieldParams, inhomogeneous_dephasing,
                    monochromatic_scattering_channels,
                    photon_scattering_channels)
from .protocols import NoiseSpec
from .readout import DetectionModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3


class ConfigError(ValueError):
    pass


# config "protocol" -> (the sunspin.protocols function that runs it, the
# keyword its scan values fill)
PROTOCOLS = {
    "rabi": ("rabi_scan", "durations"),
    "ramsey": ("ramsey", "t_values"),
    "dual_ramsey": ("parallel_ramsey", "t_values"),
    "ancilla": ("ancilla_measurement", "phi_values"),
    "leakage_scan": ("leakage_scan", "ratio_values"),
}

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_SCAN = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "start": _NUM, "stop": _NUM, "num": {"type": "integer", "minimum": 1},
        "values": {"type": "array", "items": _NUM, "minItems": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["protocol", "fields", "scan"],
    "properties": {
        "protocol": {"enum": list(PROTOCOLS)},
        "fields": {
            "type": "object",
            "additionalProperties": False,
            "required": ["b_hz", "q_hz"],
            "properties": {"b_hz": _NUM, "q_hz": _NUM, "b_vector_hz": _NUM},
        },
        "scan": _SCAN,
        "pair": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "omega_hz": _POS,
        "detuning_hz": _NUM,
        "tls_mode": {"enum": ["on", "adiabatic-off"]},
        "phase_noise": {"enum": ["none", "average", "sample"]},
        "cg_weighting": {"type": "boolean"},
        "include_scattering": {"type": "boolean"},
        "window_s": _POS,
        "b_correction_hz": _NUM,
        "prepare_with_pulse": {"type": "boolean"},
        "n_phi": {"type": "integer", "minimum": 4},
        "lindblad": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scattering": {"enum": ["calibrated", "monochromatic", "none"]},
                "scattering_budget": _POS,
                "ase_factor": {"type": "number", "minimum": 0},
                "dephasing": {"enum": ["linear", "quadratic", "none"]},
                "dephasing_tau_s": _POS,
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": ["tls_on", "tls_off", "quiet"]},
            },
        },
        "detection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eta": {"type": "object",
                        "additionalProperties": {"type": "number",
                                                 "minimum": 0, "maximum": 1}},
                "all_states_mode": {"type": "boolean"},
            },
        },
        "n_shots": {"type": "integer", "minimum": 0},
        "n_atoms": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}

# the config keys each protocol takes: the schema properties its function
# has a parameter of that name for; every run also takes RUN_KEYS
TAKES = {p: frozenset(inspect.signature(getattr(protocols, fn)).parameters)
         .intersection(CONFIG_SCHEMA["properties"])
         for p, (fn, _) in PROTOCOLS.items()}
RUN_KEYS = frozenset({"protocol", "scan", "seed"})
# rabi_scan and ramsey have no default pair or Rabi frequency
_DEFAULTS = {"rabi": {"pair": (-2.5, -1.5), "omega_hz": 71.0},
             "ramsey": {"pair": (-3.5, -2.5), "omega_hz": 93.0}}


def validate_config(cfg: dict) -> dict:
    errors = sorted(Draft202012Validator(CONFIG_SCHEMA).iter_errors(cfg),
                    key=lambda e: e.json_path)
    if errors:
        msgs = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise ConfigError(f"config schema violation: {msgs}")
    untaken = cfg.keys() - TAKES[cfg["protocol"]] - RUN_KEYS
    if untaken:
        raise ConfigError(f"protocol {cfg['protocol']!r} does not take "
                          f"{sorted(untaken)}")
    # JSON as Python reads it admits NaN and +-Infinity, which the schema's
    # "number" accepts
    bad = list(_non_finite(cfg, "$"))
    if bad:
        raise ConfigError(f"config numbers must be finite: {', '.join(bad)}")
    return cfg


def _non_finite(node, path: str):
    """The JSON paths of every NaN or infinite number in ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _non_finite(value, f"{path}[{k}]")
    elif isinstance(node, float) and not np.isfinite(node):
        yield path


def _scan_values(scan: dict) -> np.ndarray:
    if "values" in scan:
        vals = np.asarray(scan["values"], dtype=float)
    else:
        missing = {"start", "stop", "num"} - set(scan)
        if missing:
            raise ConfigError(f"scan needs 'values' or start/stop/num "
                              f"(missing {sorted(missing)})")
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linspace(scan["start"], scan["stop"], scan["num"])
    if vals.size == 0:
        raise ConfigError("empty scan")
    # finite start and stop still overflow when stop - start exceeds 1.8e308
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"scan values must be finite, got {vals.tolist()}")
    return vals


def _build_lindblad(cfg: dict):
    spec = cfg.get("lindblad")
    if spec is None:
        return None
    # only the keys a config gives are passed, so the model's defaults apply
    parts = []
    kind = spec.get("scattering", "none")
    if kind == "calibrated":
        parts.append(photon_scattering_channels(**{
            key: spec[key] for key in ("scattering_budget", "ase_factor")
            if key in spec}))
    elif kind == "monochromatic":
        parts.append(monochromatic_scattering_channels())
    if kind != "calibrated" and {"scattering_budget", "ase_factor"} & set(spec):
        raise ConfigError("lindblad scattering_budget and ase_factor are taken "
                          "only by scattering 'calibrated'")
    deph = spec.get("dephasing", "none")
    if deph == "none" and "dephasing_tau_s" in spec:
        raise ConfigError("lindblad dephasing_tau_s is taken only with a "
                          "dephasing mode")
    if deph != "none":
        tau = {"tau_unit_s": spec["dephasing_tau_s"]} if "dephasing_tau_s" in spec else {}
        parts.append(inhomogeneous_dephasing(mode=deph, **tau))
    if not parts:
        return None
    out = parts[0]
    for p in parts[1:]:
        out = out.merge(p)
    return out


def _build_noise(cfg: dict):
    """Interferometer phase-noise model, which only phase noise reads."""
    spec = cfg.get("noise")
    if (spec is not None) != (cfg.get("phase_noise", "none") != "none"):
        raise ConfigError("'noise' is needed by, and only taken by, a config "
                          "with phase_noise 'average' or 'sample'")
    if cfg.get("phase_noise") == "sample" and cfg.get("n_shots", 0) <= 0:
        raise ConfigError("phase_noise 'sample' draws per shot; it needs n_shots > 0")
    if spec is None:
        return None
    # one NoiseSpec holds both modes' coefficients and ramsey reads those
    # of its tls_mode, so a preset naming the other mode would be ignored
    preset, tls_mode = spec.get("preset"), cfg.get("tls_mode", "on")
    if preset == {"on": "tls_off", "adiabatic-off": "tls_on"}.get(tls_mode):
        raise ConfigError(f"noise preset {preset!r} names the other TLS mode "
                          f"than tls_mode {tls_mode!r}")
    return NoiseSpec.quiet() if preset == "quiet" else NoiseSpec()


def _build_detection(cfg: dict):
    spec = cfg.get("detection")
    if spec is None:
        return None
    eta = {float(k): v for k, v in spec.get("eta", {}).items()}
    return DetectionModel(eta=eta or dict(readout.DEFAULT_EFFICIENCIES),
                          all_states_mode=spec.get("all_states_mode", False))


def run_config(cfg: dict, out_dir: Path, config_path: str = "<inline>") -> dict:
    """Execute one experiment config; returns the manifest dict."""
    validate_config(cfg)
    protocol = cfg["protocol"]
    fn, scan_keyword = PROTOCOLS[protocol]
    values = {**_DEFAULTS.get(protocol, {}), **cfg,
              "fields": FieldParams(**cfg["fields"]),
              "lindblad": _build_lindblad(cfg), "noise": _build_noise(cfg),
              "detection": _build_detection(cfg)}
    kwargs = {key: values[key] for key in TAKES[protocol] & values.keys()}
    kwargs[scan_keyword] = _scan_values(cfg["scan"])
    seed = cfg.get("seed", 0)

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    summary: dict = {"protocol": protocol, "seed": seed,
                     "fields": cfg["fields"], "version": __version__}
    # looked up per call, so that a wrapper installed on the module is used
    result = getattr(protocols, fn)(**kwargs)
    if protocol == "leakage_scan":
        csv_path = out_dir / "leakage_scan.csv"
        header = "ratio,omega_hz,max,min,mean,spread,projection_floor"
        data = np.array([[r["ratio"], r["omega_hz"], r["max"], r["min"],
                          r["mean"], r["spread"], r["projection_floor"]]
                         for r in result])
        np.savetxt(csv_path, data, delimiter=",", header=header, comments="",
                   fmt="%.12g")
        outputs["leakage_scan.csv"] = _sha256(csv_path)
        summary["rows"] = result
    else:
        csv_path = out_dir / f"{protocol}.csv"
        result.to_csv(csv_path)
        outputs[csv_path.name] = _sha256(csv_path)
        if result.shots is not None:
            shots_path = out_dir / "shots.csv"
            _write_shots(shots_path, result.shots)
            outputs["shots.csv"] = _sha256(shots_path)
        summary["scan_name"] = result.scan_name
        summary["n_points"] = int(len(result.scan_values))

    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True,
                                       default=_json_default))
    outputs["summary.json"] = _sha256(summary_path)
    manifest = {"config": cfg, "config_path": str(config_path),
                "version": __version__, "outputs": outputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_shots(path: Path, shots: np.recarray) -> None:
    """One row per shot of the (points, shots) record array, point-major."""
    header = ("scan_index,shot_index," +
              ",".join(f"true_{m:+.1f}" for m in np.arange(10) - 4.5) + "," +
              ",".join(f"det_{m:+.1f}" for m in np.arange(10) - 4.5))
    table = np.column_stack([*(i.ravel() for i in np.indices(shots.shape)),
                             shots.true_counts.reshape(shots.size, -1),
                             shots.detected_counts.reshape(shots.size, -1)])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%d")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def _apply_overrides(cfg: dict, args) -> dict:
    cfg = json.loads(json.dumps(cfg))  # deep copy
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.shots is not None:
        cfg["n_shots"] = args.shots
    for kv in args.param or []:
        if "=" not in kv:
            raise ConfigError(f"--param expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        target = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--param {key}: {part} is not an object")
        target[parts[-1]] = json.loads(value)
    return cfg


def _cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    cfg = _apply_overrides(cfg, args)
    run_config(cfg, Path(args.out), config_path=args.config)
    return EXIT_OK


def _protocol_cmd(protocol, defaults):
    def cmd(args) -> int:
        cfg = dict(defaults)
        cfg["protocol"] = protocol
        if args.config:
            cfg.update(json.loads(Path(args.config).read_text()))
        cfg = _apply_overrides(cfg, args)
        run_config(cfg, Path(args.out),
                   config_path=args.config or "<defaults>")
        return EXIT_OK
    return cmd


def _cmd_leakage(args) -> int:
    try:
        ratios = [float(x) for x in args.ratios.split(",")]
    except ValueError:
        raise ConfigError(f"--ratios takes comma-separated numbers, got "
                          f"{args.ratios!r}") from None
    cfg = {
        "protocol": "leakage_scan",
        "fields": {"b_hz": 960.0, "q_hz": -330.0},
        "scan": {"values": ratios},
        "include_scattering": bool(args.scattering),
    }
    cfg = _apply_overrides(cfg, args)
    run_config(cfg, Path(args.out))
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    for flag, col in (("--column", args.column), ("--errors-column", args.errors_column)):
        if col is not None and not 0 <= col < data.shape[1]:
            raise ConfigError(f"{flag} {col} is outside the file's {data.shape[1]} columns")
    t, y = data[:, 0], data[:, args.column]
    errs = None if args.errors_column is None else data[:, args.errors_column]
    if args.model == "damped-sine":
        fit = analysis.fit_damped_sine(t, y, errors=errs)
    elif args.model == "sine":
        fit = analysis.fit_sine(t, y, errors=errs)
    elif args.model == "sine-odr":
        if errs is not None:
            raise ConfigError("sine-odr reads its errors from columns 2 (y) and "
                              "3 (x); it takes no --errors-column")
        if data.shape[1] < 4:
            raise ConfigError("sine-odr needs columns t,y,sy,sx")
        fit = analysis.fit_sine_odr(t, y, x_errors=data[:, 3], y_errors=data[:, 2])
    elif args.model == "phase-diffusion":
        fit = analysis.fit_phase_diffusion(t, y, variance_errors=errs)
    else:
        raise ConfigError(f"unknown fit model {args.model}")
    out = {"model": args.model, "params": fit.params,
           "uncertainties": fit.uncertainties, "residual_rms": fit.residual_rms,
           "converged": fit.converged}
    payload = json.dumps(out, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "fit.json").write_text(payload)
    print(payload)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    stats = []
    for k in range(args.n):
        u = synthesis.haar_unitary(rng=rng)
        plan = synthesis.decompose(u)
        stats.append({"index": k, "n_rotations": len(plan),
                      "reconstruction_error": plan.reconstruction_error})
    errors = [s["reconstruction_error"] for s in stats]
    out = {"n_targets": args.n, "max_error": max(errors),
           "mean_length": float(np.mean([s["n_rotations"] for s in stats])),
           "generator_set_size": len(synthesis.generator_set()),
           "targets": stats}
    payload = json.dumps(out, indent=2, sort_keys=True, default=_json_default)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "decompose.json").write_text(payload)
    print(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunspin",
        description="Spin-9/2 qudit control simulator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--param", action="append", metavar="KEY=JSONVALUE",
                       help="config override, dotted keys allowed")

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config")
    add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    presets = {
        "rabi": {"fields": {"b_hz": 960.0, "q_hz": -320.0},
                 "scan": {"start": 1e-6, "stop": 0.155, "num": 223},
                 "pair": [-2.5, -1.5], "omega_hz": 71.0},
        "ramsey": {"fields": {"b_hz": 960.0, "q_hz": 190.0},
                   "scan": {"start": 0.005, "stop": 0.1, "num": 40},
                   "pair": [-3.5, -2.5], "omega_hz": 93.0,
                   "detuning_hz": 25.0},
        "dual-ramsey": {"fields": {"b_hz": 1000.0, "q_hz": -303.0},
                        "scan": {"start": 0.0038, "stop": 0.0053, "num": 121},
                        "omega_hz": 77.0},
        "ancilla": {"fields": {"b_hz": 960.0, "q_hz": -330.0},
                    "scan": {"start": 0.0, "stop": 12.566, "num": 49},
                    "omega_hz": 76.0},
    }
    for name, defaults in presets.items():
        proto = name.replace("-", "_")
        p = sub.add_parser(name, help=f"run the {name} protocol")
        p.add_argument("--config", default=None,
                       help="JSON file overriding the preset")
        add_common(p)
        p.set_defaults(fn=_protocol_cmd(proto, defaults))

    p_leak = sub.add_parser("leakage-scan", help="collective-observable "
                            "leakage versus energy-scale separation")
    p_leak.add_argument("--ratios", default="3,9,30,100",
                        help="comma-separated 2|q|/(hbar Omega) values")
    p_leak.add_argument("--scattering", action="store_true")
    add_common(p_leak)
    p_leak.set_defaults(fn=_cmd_leakage)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset")
    p_fit.add_argument("model", choices=["damped-sine", "sine", "sine-odr",
                                         "phase-diffusion"])
    p_fit.add_argument("input")
    p_fit.add_argument("--column", type=int, default=1,
                       help="data column to fit (0 is the scan variable)")
    p_fit.add_argument("--errors-column", type=int, default=None,
                       help="column of y error bars (default: unweighted)")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(fn=_cmd_fit)

    p_dec = sub.add_parser("decompose", help="decompose Haar-random "
                           "unitaries into pair rotations")
    p_dec.add_argument("--n", type=int, default=10)
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(fn=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # simulation / numerical failures
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
