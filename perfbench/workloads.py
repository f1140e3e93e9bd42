"""The four benchmark workloads and their correctness checks.

A workload is built from a seed (its constructor is the set-up that
``setup_s`` times: sunspin is already imported, it builds field
parameters, Lindblad channel sets, loads configs and draws the inputs).
``operations`` lists the program calls of one pass; every call goes
through a module attribute of ``sunspin`` so that the tracer's wrappers
see it.  ``check`` judges one operation's result against properties the
method must have or against arithmetic done here, never against stored
output of an earlier version.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from sunspin import analysis, cli, model, protocols, synthesis

RAMAN_PAIR = (-2.5, -1.5)
REF_FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)
TAU_BRACKET_MS = (250.0, 350.0)
SUM_TOL = 1e-8
ENGINE_AGREEMENT_TOL = 1e-9


def _pop_sum_error(result) -> float:
    return float(np.max(np.abs(result.populations.sum(axis=1) - 1.0)))


class RabiDamped:
    """Damped Rabi scan of paper criterion 2 on both engines.

    247 durations of one constant Raman segment, sampled by the density
    engine with scattering plus linear dephasing, with scattering only,
    and with an empty channel set, and by the pure engine.
    """

    name = "rabi_damped"

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        scatter = model.photon_scattering_channels()
        self.channels = {"both": scatter.merge(model.inhomogeneous_dephasing()),
                         "scatter": scatter, "empty": model.LindbladSpec()}
        self.omega_hz = float(rng.uniform(69.0, 73.0))
        self.durations = np.linspace(rng.uniform(0.5e-4, 1.5e-4), 0.35, 247)

    def _scan(self, lindblad):
        return protocols.rabi_scan(RAMAN_PAIR, self.omega_hz, REF_FIELDS,
                                   self.durations, lindblad=lindblad)

    def _scan_and_fit(self, lindblad):
        scan = self._scan(lindblad)
        fit = analysis.fit_damped_sine(self.durations,
                                       scan.population(RAMAN_PAIR[1]),
                                       frequency_hint=self.omega_hz)
        return scan, fit

    def operations(self, out_dir: Path):
        return [
            ("damped", lambda: self._scan_and_fit(self.channels["both"])),
            ("scatter_only", lambda: self._scan_and_fit(self.channels["scatter"])),
            ("no_channels", lambda: self._scan(self.channels["empty"])),
            ("pure", lambda: self._scan(None)),
        ]

    def check(self, name, value, values) -> list[str]:
        errors = []
        scan = value[0] if isinstance(value, tuple) else value
        if _pop_sum_error(scan) > SUM_TOL:
            errors.append(f"populations sum off 1 by {_pop_sum_error(scan):.2e}")
        lo, hi = TAU_BRACKET_MS
        if name in ("damped", "scatter_only"):
            tau_ms = value[1]["tau_s"] * 1e3
            inside = lo <= tau_ms <= hi
            if inside != (name == "damped"):
                errors.append(f"fitted tau {tau_ms:.1f} ms vs bracket [{lo}, {hi}]")
        if name == "no_channels" and values.get("pure") is not None:
            dev = float(np.max(np.abs(scan.populations - values["pure"].populations)))
            if dev > ENGINE_AGREEMENT_TOL:
                errors.append(f"density without channels differs from pure by {dev:.2e}")
        return errors


# ---------------------------------------------------------------------------

CONFIG_DIR = Path("src") / "sunspin" / "configs"
DUAL_DELTA_HZ = 1.0             # parallel_ramsey default delta_shared_hz
ANCILLA_GAP_S = 1e-4            # ancilla_measurement default gap_s
Q_TOL_HZ, B_TOL_HZ = 8.0, 45.0


def _read_csv(path: Path) -> dict:
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _sine_frequency(t, y, guess_hz, span_hz=150.0) -> float:
    """Least-squares frequency of y = a sin + b cos + c near ``guess_hz``."""
    def sse(f):
        basis = np.column_stack([np.sin(2 * np.pi * f * t),
                                 np.cos(2 * np.pi * f * t), np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        return float(np.sum((basis @ coef - y) ** 2))

    grid = np.arange(guess_hz - span_hz, guess_hz + span_hz, 1.0)
    best = grid[int(np.argmin([sse(f) for f in grid]))]
    return float(minimize_scalar(sse, bounds=(best - 1.0, best + 1.0),
                                 method="bounded",
                                 options={"xatol": 1e-6}).x)


class PulseScans:
    """The bundled ancilla, dual-Ramsey and leakage configs via the CLI layer.

    Many short segments, each compiled per scan point and sampled once.
    The seed shifts the ancilla phase grid and the dual-Ramsey fields,
    and is the config seed.
    """

    name = "pulse_scans"
    CONFIGS = ("ancilla", "dual_ramsey", "leakage_scan")

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        cfgs = {name: json.loads((root / CONFIG_DIR / f"{name}.json").read_text())
                for name in self.CONFIGS}
        for cfg in cfgs.values():
            cfg["seed"] = seed
        start = float(rng.uniform(0.0, 0.2))
        cfgs["ancilla"]["scan"] = {"start": start, "stop": start + 4 * np.pi,
                                   "num": 49}
        dual = cfgs["dual_ramsey"]
        self.nominal_fields = dict(dual["fields"])
        dual["fields"] = {"b_hz": dual["fields"]["b_hz"] + float(rng.uniform(-10, 10)),
                          "q_hz": dual["fields"]["q_hz"] + float(rng.uniform(-5, 5))}
        # The leakage ratios stay at the bundled 3, 9, 30, 100: above a
        # ratio of about 30 the envelope sits near 0.005 and oscillates
        # with the ratio, so ratios moved by up to 10 % can break the
        # monotone decrease the check asks for.
        self.configs = cfgs
        # ancilla.json selects monochromatic scattering
        self.scattering = model.monochromatic_scattering_channels()
        self.first_outputs: dict = {}

    def operations(self, out_dir: Path):
        return [(name, lambda name=name: (cli.run_config(self.configs[name],
                                                         out_dir / name),
                                          out_dir / name))
                for name in self.CONFIGS]

    def check(self, name, value, values) -> list[str]:
        manifest, out_dir = value
        errors = []
        first = self.first_outputs.setdefault(name, manifest["outputs"])
        if manifest["outputs"] != first:
            errors.append("same-seed rerun is not byte-identical")
        errors += getattr(self, f"_check_{name}")(out_dir)
        return errors

    def _check_ancilla(self, out_dir: Path) -> list[str]:
        cfg = self.configs["ancilla"]
        table = _read_csv(out_dir / "ancilla.csv")
        pops = np.column_stack([table[f"pop_{m:+.1f}"] for m in np.arange(10) - 4.5])
        pure = protocols.ancilla_measurement(
            table["control_phase_rad"], model.FieldParams(**cfg["fields"]),
            omega_hz=cfg["omega_hz"], b_correction_hz=cfg["b_correction_hz"])
        # Trace-distance bound for jump operators |i'><i|:
        # |dp| <= (1 + sqrt(d)) / 2 * max_i Gamma_i * T.
        gamma = np.zeros(10)
        for op, rate in self.scattering.channels:
            gamma[np.nonzero(op)[1][0]] += rate
        duration = 3 / (4 * cfg["omega_hz"]) + ANCILLA_GAP_S + protocols.PHASE_WINDOW_S
        budget = 0.5 * (1 + math.sqrt(10)) * gamma.max() * duration
        dev = float(np.max(np.abs(pops - pure.populations)))
        return [] if dev <= budget else [
            f"scattering moved populations by {dev:.2e} > budget {budget:.2e}"]

    def _check_dual_ramsey(self, out_dir: Path) -> list[str]:
        table = _read_csv(out_dir / "dual_ramsey.csv")
        t = table["open_time_s"]
        q0, b0 = self.nominal_fields["q_hz"], self.nominal_fields["b_hz"]
        # fringe i oscillates at delta - x_i with x_1 = 4q - b, x_2 = 8q - b
        f1 = _sine_frequency(t, table["pop_-1.5"], DUAL_DELTA_HZ - (4 * q0 - b0))
        f2 = _sine_frequency(t, table["pop_-3.5"], DUAL_DELTA_HZ - (8 * q0 - b0))
        x1, x2 = DUAL_DELTA_HZ - f1, DUAL_DELTA_HZ - f2
        q_fit, b_fit = (x2 - x1) / 4.0, x2 - 2.0 * x1
        truth = self.configs["dual_ramsey"]["fields"]
        dq, db = q_fit - truth["q_hz"], b_fit - truth["b_hz"]
        if abs(dq) <= Q_TOL_HZ and abs(db) <= B_TOL_HZ:
            return []
        return [f"fringe inversion off by dq={dq:.2f} Hz, db={db:.2f} Hz"]

    def _check_leakage_scan(self, out_dir: Path) -> list[str]:
        table = _read_csv(out_dir / "leakage_scan.csv")
        envelope = np.maximum(np.abs(table["max"]), np.abs(table["min"]))
        if np.all(np.diff(table["ratio"]) > 0) and np.all(np.diff(envelope) < 0):
            return []
        return [f"leakage envelope {envelope.tolist()} not decreasing in ratio"]


# ---------------------------------------------------------------------------

DUAL_FIELDS = model.FieldParams(b_hz=1000.0, q_hz=-303.0)
T_OPEN_S = 4.5e-3
N_SHOTS = 2000
N_ATOMS = 10_000
Z_LIMIT = 5.0


class DualRamseyNoise:
    """Shot-sampled dual Ramsey at fixed T with correlated (b, q) jitter.

    The closing section's superoperator (RK45 over a dark segment)
    dominates; a second call with quiet noise cross-checks it against
    ``evolve_density`` through the shot means.
    """

    name = "dual_ramsey_noise"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.lindblad = model.photon_scattering_channels().merge(
            model.inhomogeneous_dephasing())
        self.noise = protocols.NoiseSpec(pulse_area_sigma=0.0, b_jitter_hz=3.0,
                                         q_jitter_hz=0.5, b_toggle_prob=0.5,
                                         b_toggle_hz=23.0)
        self.quiet = protocols.NoiseSpec.quiet()

    def _call(self, noise, seed):
        return protocols.dual_ramsey_sampled(
            T_OPEN_S, DUAL_FIELDS, 77.0, noise, N_SHOTS, lindblad=self.lindblad,
            n_atoms=N_ATOMS, seed=seed)

    def operations(self, out_dir: Path):
        return [("jitter", lambda: self._call(self.noise, self.seed)),
                ("quiet", lambda: self._call(self.quiet, self.seed + 1))]

    def check(self, name, value, values) -> list[str]:
        errors = []
        true = np.array([r.true_counts for r in value["records"]])
        if len(true) != N_SHOTS or np.any(true.sum(axis=1) != N_ATOMS):
            errors.append("true counts do not sum to n_atoms in every shot")
        db, dq = value["field_offsets"].T
        want = 2 * np.pi * T_OPEN_S * np.column_stack([4 * dq - db, 8 * dq - db])
        if not np.allclose(value["phase_offsets"], want, rtol=1e-12, atol=1e-12):
            errors.append("phase offsets differ from 2 pi T (4dq - db, 8dq - db)")
        if name == "quiet":
            p = value["populations_nominal"]
            mean = true.mean(axis=0) / N_ATOMS
            n = N_ATOMS * N_SHOTS
            se = np.sqrt(np.clip(p * (1 - p), 0.0, None) / n)
            z = np.abs(mean - p) / (se + 1.0 / n)
            if z.max() > Z_LIMIT:
                errors.append(f"quiet shot means off nominal by {z.max():.1f} SE")
        return errors


# ---------------------------------------------------------------------------

FRINGE_T = np.linspace(0.0, 0.04, 60)
FRINGE_ERR = 0.02
CONTRAST_GRID = np.linspace(0.0, 1.2, 13)
SIGMA_GRID = np.linspace(0.0, 1.5, 16)
TRUE_CONTRAST, TRUE_SIGMA = 0.9, 0.3
ODR_T = np.linspace(0.0038, 0.0053, 60)
ODR_SX, ODR_SY = 1.5e-5, 0.004
ODR_Z_LIMIT = 5.0
N_HAAR = 100
RECONSTRUCTION_TOL = 1e-8
FIDELITY_BRACKET = (0.990, 0.997)


def _plan_unitary(plan) -> np.ndarray:
    """Product of the plan's pair rotations, built here from 2x2 blocks."""
    pauli = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
             "y": np.array([[0, -1j], [1j, 0]]),
             "z": np.array([[1, 0], [0, -1]], dtype=complex)}
    u = np.eye(10, dtype=complex)
    for r in plan.rotations:
        rows = [int(r.m_low + 4.5), int(r.m_high + 4.5)]
        block = (math.cos(r.angle / 2) * np.eye(2)
                 - 1j * math.sin(r.angle / 2) * pauli[r.axis])
        u[rows] = block @ u[rows]
    return u


def _phase_distance(u, v) -> float:
    tr = np.trace(v.conj().T @ u)
    return float(np.linalg.norm(u - tr / abs(tr) * v, ord=2))


class Estimation:
    """Estimation and synthesis: dynamics stays nearly idle.

    The phase-noise fringe, the ODR data and the Haar targets are drawn
    from the seed; the pi/2 fidelity plan is fixed.
    """

    name = "estimation"

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        scatter = model.photon_scattering_channels()
        self.lindblad = scatter.merge(model.inhomogeneous_dephasing())
        self.fringe = analysis.synthesize_fringe(
            FRINGE_T, rng.uniform(140.0, 160.0), TRUE_CONTRAST, TRUE_SIGMA,
            np.full(FRINGE_T.size, FRINGE_ERR), 0.05, rng,
            phase0=rng.uniform(-np.pi, np.pi))
        self.replica_seed = int(rng.integers(1 << 31))
        self.odr_f = float(rng.uniform(2150.0, 2250.0))
        t_true = ODR_T + rng.normal(0.0, ODR_SX, ODR_T.size)
        self.odr_y = (0.25 - 0.25 * np.cos(2 * np.pi * self.odr_f * t_true
                                           + rng.uniform(-np.pi, np.pi))
                      + rng.normal(0.0, ODR_SY, ODR_T.size))
        self.targets = [synthesis.haar_unitary(rng=rng) for _ in range(N_HAAR)]
        self.plan = synthesis.RotationPlan(
            rotations=[synthesis.PlanRotation(-2.5, -1.5, "x", np.pi / 2)])

    def operations(self, out_dir: Path):
        ops = [
            ("phase_noise", lambda: analysis.phase_noise_estimate(
                FRINGE_T, self.fringe, np.full(FRINGE_T.size, FRINGE_ERR),
                seed=self.replica_seed, contrast_grid=CONTRAST_GRID,
                sigma_grid=SIGMA_GRID)),
            ("odr", lambda: analysis.fit_sine_odr(
                ODR_T, self.odr_y, np.full(ODR_T.size, ODR_SX),
                np.full(ODR_T.size, ODR_SY))),
        ]
        ops += [("decompose", lambda u=u: (u, synthesis.decompose(u)))
                for u in self.targets]
        ops.append(("fidelity", lambda: synthesis.simulate_plan(
            self.plan, REF_FIELDS, self.lindblad, 71.0)))
        return ops

    def check(self, name, value, values) -> list[str]:
        if name == "phase_noise":
            # A 95 % region misses its truth on about one dataset in
            # twenty; widening each interval by one step of the coarse
            # grid keeps the check from failing on working code.
            errors = []
            for key, truth, step in (("contrast_ci", TRUE_CONTRAST, CONTRAST_GRID[1]),
                                     ("phase_sigma_ci", TRUE_SIGMA, SIGMA_GRID[1])):
                lo, hi = value[key]
                if not lo - step <= truth <= hi + step:
                    errors.append(f"{key} {value[key]} misses {truth}")
            return errors
        if name == "odr":
            sigma = value.uncertainties["frequency_hz"]
            dev = abs(value["frequency_hz"] - self.odr_f)
            ok = np.isfinite(sigma) and 0 < sigma and dev <= ODR_Z_LIMIT * sigma
            return [] if ok else [f"ODR frequency off by {dev:.3g} Hz, sigma {sigma:.3g}"]
        if name == "decompose":
            target, plan = value
            errs = (plan.reconstruction_error, _phase_distance(target, _plan_unitary(plan)))
            return [] if max(errs) < RECONSTRUCTION_TOL else [
                f"reconstruction errors {errs} not below {RECONSTRUCTION_TOL}"]
        lo, hi = FIDELITY_BRACKET
        return [] if lo <= value <= hi else [f"pi/2 fidelity {value:.4f} outside [{lo}, {hi}]"]


WORKLOADS = {cls.name: cls for cls in (RabiDamped, PulseScans, DualRamseyNoise,
                                       Estimation)}
