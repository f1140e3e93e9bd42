"""Batch front-end: JSON experiment configs to CSV/JSON artifacts.

Subcommands wrap the protocol, analysis, and synthesis layers; every
run writes its outputs plus a manifest with input echo and output
hashes under --out.  A config's "protocol" names one function of
:mod:`sunspin.protocols` (``PROTOCOLS``); the config keys it takes are
the ``CONFIG_KEYS`` among that function's parameters (``TAKES``), each
passed as the keyword of the same name and typed by its annotation,
and every run also takes "protocol", "scan" and "seed".  A key the
protocol does not take, or a value of the wrong type, out of bounds or
not finite, is a config error.  Exit codes: 0 success, 2 config error
(nothing is written), 3 simulation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import MISSING, fields as dataclass_fields, is_dataclass
from functools import reduce
from numbers import Integral, Real
from pathlib import Path
from types import FunctionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, analysis, protocols, readout, synthesis
from .model import (DephasingMode, FieldParams, LindbladSpec,
                    inhomogeneous_dephasing, monochromatic_scattering_channels,
                    photon_scattering_channels)
from .protocols import NoiseSpec
from .readout import DetectionModel
from .spin_core import m_index

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


def _bound(text: str, test):
    """A bound on a value: None where ``test`` holds, else why not."""
    return lambda v: None if test(v) else f"{v!r} is not {text}"


def _at_least(low):
    return _bound(f">= {low}", lambda v: v >= low)


def _missing(*keys):
    """A bound on an object: the ``keys`` it lacks."""
    return lambda obj: (None if obj.keys() >= set(keys)
                        else f"missing {[k for k in keys if k not in obj]}")


def _spin_projections(values):
    """A bound on a list of spin projections m_F, as numbers or text."""
    try:
        for m in values:
            m_index(float(m))
    except (ValueError, OverflowError):
        return f"{m!r} is not a spin projection m_F"
    return None


def _scan_form(scan):
    ranged = len({"start", "stop", "num"} & scan.keys())
    return (None if ("values" in scan) != (ranged > 0) and ranged in (0, 3)
            else "takes 'values' or all of start, stop and num")


_POSITIVE = _bound("> 0", lambda v: v > 0)

# Every config key, with what no protocol signature says of it: for a key
# typed by the annotation of the protocol parameter of its name, None or
# a bound on its value; otherwise its type.  A type is a float, int or
# bool, a Literal, list[T], a fixed-length tuple, dict[str, T], a dict of
# an object's keys' types, or (type, *bounds); a dataclass annotation is
# an object of its fields, those without a default required.
CONFIG_KEYS = {
    "protocol": Literal[tuple(PROTOCOLS)],
    "scan": ({"start": float, "stop": float, "num": (int, _at_least(1)),
              "values": (list[float], _bound("non-empty", len))}, _scan_form),
    "fields": None, "detuning_hz": None, "b_correction_hz": None,
    "tls_mode": None, "phase_noise": None, "cg_weighting": None,
    "include_scattering": None, "prepare_with_pulse": None,
    "pair": _spin_projections, "omega_hz": _POSITIVE, "window_s": _POSITIVE,
    "n_phi": _at_least(4), "n_shots": _at_least(0), "n_atoms": _at_least(1),
    "seed": _at_least(0),
    "lindblad": {"scattering": Literal["calibrated", "monochromatic", "none"],
                 "scattering_budget": (float, _POSITIVE),
                 "ase_factor": (float, _at_least(0)),
                 "dephasing": Literal["none", DephasingMode],
                 "dephasing_tau_s": (float, _POSITIVE)},
    "noise": {"preset": Literal["tls_on", "tls_off", "quiet"]},
    "detection": {"eta": (dict[str, (float, _bound("in [0, 1]", lambda v: 0 <= v <= 1))],
                          lambda eta: _spin_projections(list(eta))),
                  "all_states_mode": bool},
}

# read once: each protocol function's parameter annotations, and the
# config keys each protocol takes, the CONFIG_KEYS its function has a
# parameter of that name for; every run also takes RUN_KEYS
_ANNOTATIONS = {p: get_type_hints(getattr(protocols, fn))
                for p, (fn, _) in PROTOCOLS.items()}
TAKES = {p: frozenset(hints).intersection(CONFIG_KEYS)
         for p, hints in _ANNOTATIONS.items()}
RUN_KEYS = frozenset({"protocol", "scan", "seed"})

_SCALARS = {
    float: ("a finite number",
            lambda v: isinstance(v, Real) and not isinstance(v, bool) and abs(v) < math.inf),
    int: ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
}


def _errors(value, hint, path: str) -> list[str]:
    """Why the JSON ``value`` at ``path`` is not of type ``hint``: see
    CONFIG_KEYS; bounds are checked once the type holds."""
    if isinstance(hint, tuple):
        return _errors(value, hint[0], path) or [
            f"{path}: {why}" for bound in hint[1:] if (why := bound(value))]
    origin, args = get_origin(hint), get_args(hint)
    if isinstance(hint, dict) or origin is dict:
        if not isinstance(value, dict):
            return [f"{path}: {value!r} is not an object"]
        return [e for key, item in value.items() for e in (
            _errors(item, args[1], f"{path}.{key}") if origin is dict else
            _errors(item, hint[key], f"{path}.{key}") if key in hint else
            [f"{path}.{key}: not taken"])]
    if origin in (list, tuple):
        if not isinstance(value, list) or (origin is tuple and len(value) != len(args)):
            return [f"{path}: {value!r} is not a list"
                    + (f" of {len(args)}" if origin is tuple else "")]
        return [e for k, item in enumerate(value)
                for e in _errors(item, args[k if origin is tuple else 0], f"{path}[{k}]")]
    what, ok = ((f"one of {list(args)}", isinstance(value, str) and value in args)
                if origin is Literal else (_SCALARS[hint][0], _SCALARS[hint][1](value)))
    return [] if ok else [f"{path}: {value!r} is not {what}"]


def _config_type(key: str, annotations: dict):
    """Config key ``key``'s type: its CONFIG_KEYS type, or its parameter's."""
    rule = CONFIG_KEYS[key]
    if rule is not None and not isinstance(rule, FunctionType):
        return rule
    hint = annotations[key]
    if is_dataclass(hint):
        fields, types = dataclass_fields(hint), get_type_hints(hint)
        hint = ({f.name: types[f.name] for f in fields},
                _missing(*(f.name for f in fields if f.default is MISSING)))
    return hint if rule is None else (hint, rule)


_KEY_TYPES = {key: _config_type(key, {name: hint for hints in _ANNOTATIONS.values()
                                       for name, hint in hints.items()})
              for key in CONFIG_KEYS}


def validate_config(cfg: dict) -> dict:
    """``cfg``, or a ConfigError naming by JSON path each key unknown,
    missing or not taken, and each value of the wrong type or out of bounds."""
    protocol = cfg.get("protocol") if isinstance(cfg, dict) else None
    keys = (TAKES[protocol] | RUN_KEYS if isinstance(protocol, str)
            and protocol in PROTOCOLS else CONFIG_KEYS)
    errors = _errors(cfg, ({key: _KEY_TYPES[key] for key in keys},
                           _missing("protocol", "fields", "scan")), "$")
    if errors:
        raise ConfigError(f"config of protocol {protocol!r}: {'; '.join(sorted(errors))}")
    return cfg


# The preset subcommands' configs.  rabi_scan and ramsey have no default
# pair or Rabi frequency, so a rabi or ramsey config takes its preset's.
PRESETS = {
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
_DEFAULTS = {p: {key: PRESETS[p][key] for key in ("pair", "omega_hz")}
             for p in ("rabi", "ramsey")}


def _scan_values(scan: dict) -> np.ndarray:
    if "values" in scan:
        vals = np.asarray(scan["values"], dtype=float)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.linspace(scan["start"], scan["stop"], scan["num"])
    # finite start and stop still overflow when stop - start exceeds 1.8e308
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"scan values must be finite, got {vals.tolist()}")
    return vals


def _build_lindblad(cfg: dict):
    # only the keys a config gives are passed, so the model's defaults apply
    spec = cfg.get("lindblad", {})
    kind, deph = spec.get("scattering", "none"), spec.get("dephasing", "none")
    budget = {key: spec[key] for key in ("scattering_budget", "ase_factor") if key in spec}
    if budget and kind != "calibrated":
        raise ConfigError("lindblad scattering_budget and ase_factor are taken "
                          "only by scattering 'calibrated'")
    tau = {"tau_unit_s": spec["dephasing_tau_s"]} if "dephasing_tau_s" in spec else {}
    if tau and deph == "none":
        raise ConfigError("lindblad dephasing_tau_s is taken only with a "
                          "dephasing mode")
    parts = ([photon_scattering_channels(**budget)] if kind == "calibrated" else
             [monochromatic_scattering_channels()] if kind == "monochromatic" else [])
    if deph != "none":
        parts.append(inhomogeneous_dephasing(mode=deph, **tau))
    return reduce(LindbladSpec.merge, parts) if parts else None


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
    if preset not in (None, "quiet", "tls_on" if tls_mode == "on" else "tls_off"):
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

    written = [f"{protocol}.csv", "summary.json"]
    summary: dict = {"protocol": protocol, "seed": seed,
                     "fields": cfg["fields"], "version": __version__}
    # looked up per call, so that a wrapper installed on the module is used
    result = getattr(protocols, fn)(**kwargs)
    # made only now, so that a run that fails leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    if protocol == "leakage_scan":
        keys = ("ratio", "omega_hz", "max", "min", "mean", "spread", "projection_floor")
        np.savetxt(out_dir / written[0], [[r[key] for key in keys] for r in result],
                   delimiter=",", header=",".join(keys), comments="", fmt="%.12g")
        summary["rows"] = result
    else:
        result.to_csv(out_dir / written[0])
        if result.shots is not None:
            _write_shots(out_dir / "shots.csv", result.shots)
            written.append("shots.csv")
        summary.update(scan_name=result.scan_name, n_points=int(len(result.scan_values)))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True,
                                                     default=_json_default))
    outputs = {name: _sha256(out_dir / name) for name in written}
    manifest = {"config": cfg, "config_path": str(config_path),
                "version": __version__, "outputs": outputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
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


def _config_cmd(protocol=None, defaults=None):
    """The command that runs a config file (``run``), or a protocol's
    preset, updated by a config file if one is given."""
    def cmd(args) -> int:
        cfg = json.loads(Path(args.config).read_text()) if args.config else {}
        if not isinstance(cfg, dict):
            raise ConfigError(f"$: {cfg!r} is not an object")
        if protocol:
            cfg = {**defaults, "protocol": protocol, **cfg}
        run_config(_apply_overrides(cfg, args), Path(args.out),
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


# fit model -> the sunspin.analysis function that fits it, y errors third;
# "sine-odr" reads x and y errors from the file
FITS = {"damped-sine": "fit_damped_sine", "sine": "fit_sine",
        "phase-diffusion": "fit_phase_diffusion"}


def _cmd_fit(args) -> int:
    try:
        data = np.loadtxt(args.input, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{args.input} is not a numeric CSV table: {exc}") from None
    for flag, col in (("--column", args.column), ("--errors-column", args.errors_column)):
        if col is not None and not 0 <= col < data.shape[1]:
            raise ConfigError(f"{flag} {col} is outside the file's {data.shape[1]} columns")
    t, y = data[:, 0], data[:, args.column]
    errs = None if args.errors_column is None else data[:, args.errors_column]
    if args.model != "sine-odr":
        fit = getattr(analysis, FITS[args.model])(t, y, errs)
    elif errs is not None:
        raise ConfigError("sine-odr reads its errors from columns 2 (y) and "
                          "3 (x); it takes no --errors-column")
    elif data.shape[1] < 4:
        raise ConfigError("sine-odr needs columns t,y,sy,sx")
    else:
        fit = analysis.fit_sine_odr(t, y, x_errors=data[:, 3], y_errors=data[:, 2])
    return _print_json({"model": args.model, "params": fit.params,
                        "uncertainties": fit.uncertainties,
                        "residual_rms": fit.residual_rms, "converged": fit.converged},
                       args.out, "fit.json")


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
    return _print_json({"n_targets": args.n, "max_error": max(errors),
                        "mean_length": float(np.mean([s["n_rotations"] for s in stats])),
                        "generator_set_size": len(synthesis.generator_set()),
                        "targets": stats}, args.out, "decompose.json")


def _print_json(out: dict, out_dir, name: str) -> int:
    """Print ``out`` as JSON, and write it to ``out_dir/name`` if given."""
    payload = json.dumps(out, indent=2, sort_keys=True, default=_json_default)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / name).write_text(payload)
    print(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunspin",
        description="Spin-9/2 qudit control simulator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--param", action="append", metavar="KEY=JSONVALUE",
                       help="config override, dotted keys allowed")

    p_run = sub.add_parser("run", help="run a JSON experiment config")
    p_run.add_argument("config")
    add_common(p_run)
    p_run.set_defaults(fn=_config_cmd())

    for name, defaults in PRESETS.items():
        proto = name.replace("-", "_")
        p = sub.add_parser(name, help=f"run the {name} protocol")
        p.add_argument("--config", default=None,
                       help="JSON file overriding the preset")
        add_common(p)
        p.set_defaults(fn=_config_cmd(proto, defaults))

    p_leak = sub.add_parser("leakage-scan", help="collective-observable "
                            "leakage versus energy-scale separation")
    p_leak.add_argument("--ratios", default="3,9,30,100",
                        help="comma-separated 2|q|/(hbar Omega) values")
    p_leak.add_argument("--scattering", action="store_true")
    add_common(p_leak)
    p_leak.set_defaults(fn=_cmd_leakage)

    p_fit = sub.add_parser("fit", help="fit a CSV dataset")
    p_fit.add_argument("model", choices=[*FITS, "sine-odr"])
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
