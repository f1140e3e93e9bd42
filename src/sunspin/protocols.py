"""Experiment recipes: Rabi scans, Ramsey interferometers (single, dual
parallel), the ancilla-mapped simultaneous measurement, and the
off-resonant-leakage scan, plus the shot-level noise model.

Every protocol returns an :class:`InterferometerResult` holding the
noiseless expected populations on the scan grid and, optionally,
sampled :class:`~sunspin.readout.ShotRecord` lists per scan point.
Without ``lindblad`` a protocol evolves state vectors; any
:class:`~sunspin.model.LindbladSpec` selects density matrices.  Shot
noise beyond projection noise enters only here: the interferometer
phase noise of :func:`ramsey` and the correlated (b, q) jitter of
:func:`dual_ramsey_sampled`, both drawn from a :class:`NoiseSpec`.
All randomness derives from an explicit seed, so results are
reproducible bit for bit.  Each scan point draws from its own child
stream, shot after shot (multinomial, then binomial).  The shots of
:func:`dual_ramsey_sampled` and of ``ramsey(phase_noise="sample")`` are
sampled as one batch per call or scan point: first every noise offset,
then every polarization toggle, then all multinomial draws, then all
binomial thinnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, readout, sequence as sq
from .model import (FieldParams, LindbladSpec, RamanTone,
                    monochromatic_scattering_channels, pair_splitting_hz)
from .readout import (DetectionModel, M_ANCILLA_A, M_ANCILLA_B, M_DOWN, M_UP,
                      ShotRecord, sample_counts, sample_shot)
from .spin_core import DIM, basis_state, density_matrix, m_index

TWO_PI = 2.0 * np.pi


class ProtocolError(ValueError):
    pass


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Shot-level technical noise.

    Interferometer phase noise follows Var(phi) = phase_var0 +
    phase_diffusion * T with separate coefficients for TLS-on and
    TLS-off operation (rad^2, rad^2/s); :func:`ramsey` reads it.
    Per-shot field jitter is Gaussian in b and q; the two-state
    polarization toggle adds ``b_toggle_hz`` to b with probability
    ``b_toggle_prob``; :func:`dual_ramsey_sampled` reads these.
    ``pulse_area_sigma`` (Gaussian pulse-area jitter per pulse, rad) is
    validated and kept, but no protocol reads it.
    """

    pulse_area_sigma: float = 0.063
    phase_var0_tls_on: float = 0.0245
    phase_diffusion_tls_on: float = 19.6
    phase_var0_tls_off: float = 0.09
    phase_diffusion_tls_off: float = 0.441
    b_jitter_hz: float = 0.0
    q_jitter_hz: float = 0.0
    b_toggle_prob: float = 0.0
    b_toggle_hz: float = 0.0

    def __post_init__(self):
        for name in ("pulse_area_sigma", "phase_var0_tls_on",
                     "phase_diffusion_tls_on", "phase_var0_tls_off",
                     "phase_diffusion_tls_off", "b_jitter_hz", "q_jitter_hz"):
            if getattr(self, name) < 0:
                raise ProtocolError(f"{name} must be >= 0")
        if not 0.0 <= self.b_toggle_prob <= 1.0:
            raise ProtocolError("b_toggle_prob must lie in [0, 1]")

    def phase_variance(self, t_interrogation: float, tls_on: bool) -> float:
        if tls_on:
            return self.phase_var0_tls_on + self.phase_diffusion_tls_on * t_interrogation
        return self.phase_var0_tls_off + self.phase_diffusion_tls_off * t_interrogation

    @classmethod
    def quiet(cls) -> "NoiseSpec":
        return cls(pulse_area_sigma=0.0, phase_var0_tls_on=0.0,
                   phase_diffusion_tls_on=0.0, phase_var0_tls_off=0.0,
                   phase_diffusion_tls_off=0.0)


@dataclass
class InterferometerResult:
    scan_name: str
    scan_values: np.ndarray
    populations: np.ndarray                     # (n_scan, 10) expected
    phases: np.ndarray | None = None            # extracted phases (rad)
    contrast: np.ndarray | None = None
    shots: list[list[ShotRecord]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        p = self.populations
        if np.any(p < -1e-7) or np.any(p > 1 + 1e-7):
            raise ProtocolError("populations outside [0, 1]")
        if np.any(p.sum(axis=1) > 1 + 1e-6):
            raise ProtocolError("populations sum above 1")

    def population(self, m: float) -> np.ndarray:
        return self.populations[:, m_index(m)]

    def to_csv(self, path):
        header = [self.scan_name] + [f"pop_{m:+.1f}" for m in np.arange(DIM) - 4.5]
        cols = [self.scan_values] + list(self.populations.T)
        if self.phases is not None:
            ph = np.atleast_2d(self.phases.T)
            for k in range(ph.shape[0]):
                header.append(f"phase{k + 1}_rad")
                cols.append(ph[k])
        if self.contrast is not None:
            header.append("contrast")
            cols.append(self.contrast)
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=",".join(header), comments="", fmt="%.12g")


def _shot_streams(seed, n_points):
    return np.random.SeedSequence(seed).spawn(n_points)


def _sample_point(populations, n_atoms, n_shots, detection, stream):
    rng = np.random.default_rng(stream)
    det = detection or DetectionModel.ideal()
    return [sample_shot(populations, n_atoms, det, rng, shot_index=i)
            for i in range(n_shots)]


def _closing_rows(schedule):
    """(10, 100) population rows of a closing section's map on row-major
    vec(rho): p_i = Re rows[i] @ vec(rho).  Row i is U[i, a] conj(U[i, b])
    of its propagator on the pure engine, and the superoperator row at
    diagonal index (i, i) on the density engine (``meta["engine"]``, set
    by :func:`sequence.compile`)."""
    if schedule.meta.get("engine") != "density":
        u = dynamics.propagator(schedule)
        return (u[:, :, None] * u.conj()[:, None, :]).reshape(DIM, DIM * DIM)
    return dynamics.superoperator(schedule)[::DIM + 1]


SHOT_BLOCK = 256


def _shot_populations(rows, rho, phases):
    """Final populations (k, 10) of k shots; shot s conjugates ``rho`` by
    diag(e^{-i phases[s]}) before the closing section given by ``rows``.

    Shots go in blocks of SHOT_BLOCK, one output level at a time:
    p_si = Re sum_a z_sa (conj(z) @ W_i^T)_sa with W_i[a, b] =
    rows[i, ab] rho[a, b].  Temporaries stay at (SHOT_BLOCK, 10): complex
    (k, 10) ones raised the peak resident memory of a 2000-shot call by
    about 1 MB.
    """
    w = rows.reshape(DIM, DIM, DIM) * rho
    pops = np.empty(phases.shape)
    for start in range(0, len(phases), SHOT_BLOCK):
        block = slice(start, start + SHOT_BLOCK)
        z = np.exp(-1j * phases[block])
        zc = z.conj()
        for level in range(DIM):
            pops[block, level] = np.einsum("sa,sa->s", z, zc @ w[level].T).real
    return pops


def _shot_records(populations, n_atoms, detection, rng):
    """One ShotRecord per row of ``populations``, sampled in one batch."""
    true, detected = sample_counts(populations, n_atoms, detection, rng)
    return [ShotRecord(true_counts=t, detected_counts=d, n_atoms=n_atoms,
                       shot_index=s)
            for s, (t, d) in enumerate(zip(true, detected))]


# ---------------------------------------------------------------------------
# Rabi scans
# ---------------------------------------------------------------------------

def rabi_scan(pair: tuple[float, float], omega_hz: float, fields: FieldParams,
              durations, lindblad: LindbladSpec | None = None,
              cg_weighting: bool = True, detuning_hz: float = 0.0,
              n_shots: int = 0, n_atoms: int = 10_000,
              detection: DetectionModel | None = None, seed: int = 0,
              tol: float = dynamics.DEFAULT_RTOL) -> InterferometerResult:
    """Populations of all ten states versus Raman pulse duration."""
    durations = np.asarray(durations, dtype=float)
    if durations.size == 0:
        raise ProtocolError("durations must be non-empty")
    m_low, m_high = min(pair), max(pair)
    dm = round(m_high - m_low)
    tone = RamanTone(m_low=m_low, m_high=m_high, omega_hz=omega_hz,
                     detuning_hz=detuning_hz, cg_weighting=cg_weighting)
    seg = sq.PulseSegment(duration=float(durations[-1]), tones=(tone,))
    seq = sq.PulseSequence(segments=(seg,), fields=fields)
    psi0 = basis_state(m_low)
    traj = sq.run(seq, psi0, lindblad=lindblad, t_eval=durations, tol=tol)
    pops = traj.populations()
    shots = None
    if n_shots > 0:
        streams = _shot_streams(seed, len(durations))
        shots = [_sample_point(traj.states[i], n_atoms, n_shots, detection,
                               streams[i])
                 for i in range(len(durations))]
    return InterferometerResult(
        scan_name="duration_s", scan_values=durations, populations=pops,
        shots=shots,
        meta={"pair": (m_low, m_high), "omega_hz": omega_hz, "dm": dm,
              "fields": fields, "seed": seed})


# ---------------------------------------------------------------------------
# single-pair Ramsey
# ---------------------------------------------------------------------------

TLS_RAMP_S = 2e-3


def _ramsey_sequence(pair, t_dark, fields, omega_hz, tls_mode, detuning_hz,
                     cg_weighting):
    p_open = sq.pulse(pair, omega_hz, fields, np.pi / 2,
                      detuning_hz=detuning_hz, cg_weighting=cg_weighting,
                      warn_regime=False, label="open")
    p_close = replace(p_open, label="close")
    if tls_mode == "on":
        segs = (p_open, sq.dark_time(t_dark), p_close)
    elif tls_mode == "adiabatic-off":
        hold = t_dark - 2 * TLS_RAMP_S
        if hold <= 0:
            raise ProtocolError(
                f"adiabatic-off needs T > {2 * TLS_RAMP_S} s, got {t_dark}")
        segs = (p_open, sq.tls_ramp(TLS_RAMP_S, 1.0, 0.0),
                sq.dark_time(hold, tls_multiplier=0.0),
                sq.tls_ramp(TLS_RAMP_S, 0.0, 1.0), p_close)
    else:
        raise ProtocolError("tls_mode must be 'on' or 'adiabatic-off'")
    return sq.PulseSequence(segments=segs, fields=fields)


def ramsey(pair: tuple[float, float], t_values, fields: FieldParams,
           omega_hz: float, tls_mode: str = "on",
           lindblad: LindbladSpec | None = None,
           noise: NoiseSpec | None = None, detuning_hz: float = 0.0,
           cg_weighting: bool = True, phase_noise: str = "none",
           n_shots: int = 0, n_atoms: int = 10_000,
           detection: DetectionModel | None = None, seed: int = 0,
           tol: float = dynamics.DEFAULT_RTOL) -> InterferometerResult:
    """Ramsey fringe versus dark time T on one isolated pair.

    ``phase_noise``: 'none' for the bare expectation, 'average' to fold
    the Gaussian interferometer phase noise Var(phi) into the mean
    fringe (multiplies the pre-closing coherence by exp(-Var/2)),
    'sample' to draw one phase offset per shot (so it needs n_shots > 0).
    With 'sample', each scan point's stream gives all n_shots phase
    offsets, then all multinomial draws, then all binomial thinnings.
    """
    t_values = np.asarray(t_values, dtype=float)
    if phase_noise not in ("none", "average", "sample"):
        raise ProtocolError("phase_noise must be none|average|sample")
    if phase_noise != "none" and noise is None:
        raise ProtocolError("phase_noise requires a NoiseSpec")
    if phase_noise == "sample" and n_shots <= 0:
        raise ProtocolError("phase_noise 'sample' draws per shot; it needs n_shots > 0")
    m_low, m_high = min(pair), max(pair)
    i, j = m_index(m_low), m_index(m_high)
    tls_on = tls_mode == "on"

    pops = np.empty((len(t_values), DIM))
    contrast = np.empty(len(t_values))
    shots = [] if n_shots > 0 else None
    streams = _shot_streams(seed, len(t_values)) if n_shots > 0 else None
    psi0 = basis_state(m_low)

    for k, t_dark in enumerate(t_values):
        seq = _ramsey_sequence((m_low, m_high), t_dark, fields, omega_hz,
                               tls_mode, detuning_hz, cg_weighting)
        t_pre_close = seq.total_duration - seq.segments[-1].duration
        traj = sq.run(seq, psi0, lindblad=lindblad,
                      t_eval=[t_pre_close, seq.total_duration], tol=tol)
        rho_pre = density_matrix(traj.states[0])
        if phase_noise != "none":
            var = noise.phase_variance(t_dark, tls_on)
            close = sq.PulseSequence(segments=(seq.segments[-1],), fields=fields)
            rows = _closing_rows(sq.compile(close, lindblad=lindblad))
        if phase_noise == "average":
            rho_pre = _dephase_pair(rho_pre, i, j, np.exp(-var / 2.0))
        contrast[k] = 2.0 * abs(rho_pre[i, j])
        if phase_noise == "average":
            pops[k] = np.real(rows @ rho_pre.ravel()).clip(0.0, 1.0)
        else:
            pops[k] = traj.populations()[-1].clip(0.0, 1.0)
        if phase_noise == "sample":
            # an extra pair z rotation by dphi per shot, applied as a
            # diagonal unitary so coherences with third levels follow
            rng = np.random.default_rng(streams[k])
            half = rng.normal(0.0, np.sqrt(var), n_shots) / 2.0
            phases = np.zeros((n_shots, DIM))
            phases[:, i], phases[:, j] = -half, half
            shots.append(_shot_records(_shot_populations(rows, rho_pre, phases),
                                       n_atoms, detection, rng))
        elif n_shots > 0:
            shots.append(_sample_point(_diag_density(pops[k]), n_atoms,
                                       n_shots, detection, streams[k]))
    return InterferometerResult(
        scan_name="dark_time_s", scan_values=t_values, populations=pops,
        contrast=contrast, shots=shots,
        meta={"pair": (m_low, m_high), "tls_mode": tls_mode,
              "detuning_hz": detuning_hz, "omega_hz": omega_hz, "seed": seed})


def _diag_density(populations):
    return np.diag(np.asarray(populations, dtype=complex))


def _dephase_pair(rho, i, j, factor):
    out = rho.copy()
    out[i, j] *= factor
    out[j, i] *= factor
    return out


# ---------------------------------------------------------------------------
# dual parallel Ramsey
# ---------------------------------------------------------------------------

SPLIT_PAIR = (M_DOWN, M_UP)          # (-7/2, -5/2)
IF1_PAIR = (M_UP, M_ANCILLA_A)       # (-5/2, -3/2), phase phi_1
IF2_PAIR = (M_ANCILLA_B, M_DOWN)     # (-9/2, -7/2), phase phi_2


def _dual_ramsey_sequence(t_open, fields, omega_hz, delta_shared_hz, gap_s,
                          cg_weighting=True):
    """Five-pulse schedule; both interferometers open for exactly t_open."""
    p_split = sq.pulse(SPLIT_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="split")
    p_open1 = sq.pulse(IF1_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="open1")
    p_open2 = sq.pulse(IF2_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="open2")
    p_close1 = replace(p_open1, label="close1")
    p_close2 = replace(p_open2, label="close2")
    d2, d3 = p_open1.duration, p_open2.duration
    shared = t_open - gap_s - d3
    if shared <= 0:
        raise ProtocolError(
            f"open time {t_open} shorter than the interleaved pulse span "
            f"{gap_s + d3}")
    tail = gap_s + d3 - p_close1.duration
    if tail <= 0:
        raise ProtocolError("closing pulses overlap; increase the gap")
    segs = (p_split,
            sq.dark_time(gap_s),
            p_open1,
            sq.dark_time(gap_s),      # if1 open; LO still at if1 resonance
            p_open2,
            sq.dark_time(shared, lo_freq_hz=delta_shared_hz, label="shared"),
            p_close1,
            sq.dark_time(tail),       # if2 still open
            p_close2)
    seq = sq.PulseSequence(segments=segs, fields=fields)
    # open windows: [end(open_i), start(close_i)]
    t = np.cumsum([0.0] + [s.duration for s in segs])
    windows = {"if1": (t[3], t[6]), "if2": (t[5], t[8])}
    return seq, windows


def parallel_ramsey(t_values, fields: FieldParams, omega_hz: float = 77.0,
                    lindblad: LindbladSpec | None = None,
                    delta_shared_hz: float = 1.0, gap_s: float = 1e-4,
                    cg_weighting: bool = True, track_phases: bool = False,
                    n_shots: int = 0, n_atoms: int = 10_000,
                    detection: DetectionModel | None = None, seed: int = 0,
                    tol: float = dynamics.DEFAULT_RTOL) -> InterferometerResult:
    """Two Ramsey interferometers run in parallel on independent pairs.

    Pulse order: split on (-7/2,-5/2), open (-5/2,-3/2), open
    (-9/2,-7/2), shared free evolution with the LO at
    ``delta_shared_hz``, close both.  Returns populations of -3/2 and
    -7/2 versus the open time T, the in-frame interferometer phases
    (unwrapped when ``track_phases``), and the schedule-expected phases
    in ``meta``.
    """
    t_values = np.asarray(t_values, dtype=float)
    pops = np.empty((len(t_values), DIM))
    phases = np.empty((len(t_values), 2))
    expected = np.empty((len(t_values), 2))
    mean_deltas = np.empty((len(t_values), 2))
    shots = [] if n_shots > 0 else None
    streams = _shot_streams(seed, len(t_values)) if n_shots > 0 else None
    psi0 = basis_state(M_UP)

    for k, t_open in enumerate(t_values):
        seq, windows = _dual_ramsey_sequence(t_open, fields, omega_hz,
                                             delta_shared_hz, gap_s,
                                             cg_weighting)
        schedule = sq.compile(seq, lindblad=lindblad)
        (o1, c1), (o2, c2) = windows["if1"], windows["if2"]
        if track_phases:
            f1 = abs(pair_splitting_hz(fields, IF1_PAIR[0])) + abs(delta_shared_hz)
            f2 = abs(pair_splitting_hz(fields, IF2_PAIR[0])) + abs(delta_shared_hz)
            n_samp = max(64, int(np.ceil(8 * max(f1, f2) * t_open)))
            t_eval = np.unique(np.concatenate(
                [np.linspace(o1, c1, n_samp), np.linspace(o2, c2, n_samp),
                 [seq.total_duration]]))
        else:
            t_eval = np.array([o1, o2, c1, c2, seq.total_duration])
        traj = sq.evolve(schedule, psi0, t_eval=t_eval, tol=tol)
        pops[k] = traj.populations()[-1].clip(0.0, 1.0)
        phases[k, 0] = -_window_phase(traj, IF1_PAIR, o1, c1, track_phases)
        phases[k, 1] = -_window_phase(traj, IF2_PAIR, o2, c2, track_phases)
        for w, (pair, (t_a, t_b)) in enumerate(
                ((IF1_PAIR, (o1, c1)), (IF2_PAIR, (o2, c2)))):
            delta_mean = sq.mean_lo_frequency(schedule, t_a, t_b)
            nu_signed = pair_splitting_hz(fields, pair[0])
            expected[k, w] = TWO_PI * ((-nu_signed) - delta_mean) * (t_b - t_a)
            mean_deltas[k, w] = delta_mean
        if n_shots > 0:
            shots.append(_sample_point(traj.states[-1], n_atoms, n_shots,
                                       detection, streams[k]))

    return InterferometerResult(
        scan_name="open_time_s", scan_values=t_values, populations=pops,
        phases=phases, shots=shots,
        meta={"expected_phases": expected, "mean_delta_hz": mean_deltas,
              "delta_shared_hz": delta_shared_hz, "omega_hz": omega_hz,
              "gap_s": gap_s, "fields": fields, "seed": seed})


def _window_phase(traj, pair, t_a, t_b, unwrap):
    sel = (traj.times >= t_a - 1e-15) & (traj.times <= t_b + 1e-15)
    ang = np.angle(traj.coherence(*pair)[sel])
    if unwrap:
        ang = np.unwrap(ang)
    return ang[-1] - ang[0]


def dual_ramsey_sampled(t_open: float, fields: FieldParams, omega_hz: float,
                        noise: NoiseSpec, n_shots: int,
                        lindblad: LindbladSpec | None = None,
                        delta_shared_hz: float = 1.0, gap_s: float = 1e-4,
                        n_atoms: int = 10_000,
                        detection: DetectionModel | None = None,
                        seed: int = 0) -> dict:
    """Repeated realizations at fixed T with correlated (b, q) jitter.

    The per-shot field offsets (Gaussian jitter plus the two-state
    polarization toggle) enter the two interferometer phases as
    dphi1 = 2 pi T (4 dq - db), dphi2 = 2 pi T (8 dq - db), applied as
    a diagonal phase on all ten levels just before the closing pulses;
    the closing section itself is reused across shots.  The stream of
    ``seed`` gives all db jitters, then all dq jitters, then all toggle
    draws, then all multinomial draws, then all binomial thinnings.
    Returns per-shot phases (n_shots, 2), offsets (db, dq) (n_shots, 2),
    shot records, and the nominal final populations.
    """
    if n_shots < 1:
        raise ProtocolError("n_shots must be >= 1")
    seq, windows = _dual_ramsey_sequence(t_open, fields, omega_hz,
                                         delta_shared_hz, gap_s, True)
    schedule = sq.compile(seq, lindblad=lindblad)
    (o1, c1), (o2, c2) = windows["if1"], windows["if2"]
    psi0 = basis_state(M_UP)
    t_eval = np.array([c1, seq.total_duration])
    traj = sq.evolve(schedule, psi0, t_eval=t_eval)
    rho_pre = density_matrix(traj.states[0])  # just before close1

    close_segments = []
    for seg in schedule.segments:
        if seg.t0 >= c1 - 1e-15:
            close_segments.append(seg)
    close_sched = dynamics.Schedule(tuple(close_segments), meta=schedule.meta)
    rows = _closing_rows(close_sched)

    m_values = np.arange(DIM) - 4.5
    rng = np.random.default_rng(seed)
    db = (rng.normal(0.0, noise.b_jitter_hz, n_shots) if noise.b_jitter_hz
          else np.zeros(n_shots))
    dq = (rng.normal(0.0, noise.q_jitter_hz, n_shots) if noise.q_jitter_hz
          else np.zeros(n_shots))
    if noise.b_toggle_prob:
        db[rng.random(n_shots) < noise.b_toggle_prob] += noise.b_toggle_hz
    # level-shift offsets integrated over the open windows act as a
    # diagonal phase on all ten levels
    level_phases = TWO_PI * t_open * (db[:, None] * m_values
                                      + dq[:, None] * m_values**2)
    pops = _shot_populations(rows, rho_pre, level_phases)
    dphis = TWO_PI * t_open * np.column_stack([4 * dq - db, 8 * dq - db])
    return {"records": _shot_records(pops, n_atoms, detection, rng),
            "phase_offsets": dphis,
            "field_offsets": np.column_stack([db, dq]), "t_open": t_open,
            "populations_nominal": np.real(np.diag(
                traj.states[-1] if lindblad is not None else
                density_matrix(traj.states[-1])))}


# ---------------------------------------------------------------------------
# ancilla-mapped simultaneous measurement
# ---------------------------------------------------------------------------

QUBIT_PAIR = (M_DOWN, M_UP)
MAP_A_PAIR = (M_UP, M_ANCILLA_A)
MAP_B_PAIR = (M_ANCILLA_B, M_DOWN)
PHASE_WINDOW_S = 0.51e-3


def _ancilla_sequence(phi, fields, omega_hz, window_s, gap_s, prepare,
                      cg_weighting=True):
    delta_phi_hz = phi / (TWO_PI * window_s)
    qubit_lo = -pair_splitting_hz(fields, QUBIT_PAIR[0]) - delta_phi_hz
    segs = []
    if prepare:
        segs.append(sq.pulse(QUBIT_PAIR, omega_hz, fields, np.pi / 2,
                             cg_weighting=cg_weighting, warn_regime=False,
                             label="prepare"))
        segs.append(sq.dark_time(gap_s))
    segs += [
        sq.pulse(MAP_A_PAIR, omega_hz, fields, np.pi / 2,
                 cg_weighting=cg_weighting, warn_regime=False, label="map-a"),
        sq.dark_time(gap_s),
        sq.pulse(MAP_B_PAIR, omega_hz, fields, np.pi / 2,
                 cg_weighting=cg_weighting, warn_regime=False, label="map-b"),
        sq.dark_time(window_s, lo_freq_hz=qubit_lo, label="phase-window"),
        sq.pulse(QUBIT_PAIR, omega_hz, fields, np.pi / 2,
                 cg_weighting=cg_weighting, warn_regime=False, label="final"),
    ]
    return sq.PulseSequence(segments=tuple(segs), fields=fields)


def ancilla_measurement(phi_values, fields: FieldParams, omega_hz: float = 76.0,
                        lindblad: LindbladSpec | None = None,
                        input_state: np.ndarray | None = None,
                        window_s: float = PHASE_WINDOW_S, gap_s: float = 1e-4,
                        prepare_with_pulse: bool = False,
                        b_correction_hz: float = 0.0,
                        cg_weighting: bool = True, n_shots: int = 0,
                        n_atoms: int = 10_000,
                        detection: DetectionModel | None = None, seed: int = 0,
                        tol: float = dynamics.DEFAULT_RTOL) -> InterferometerResult:
    """Map qubit amplitudes onto ancillas, rotate, and read all four states.

    The control phase phi is set by the Raman detuning during a fixed
    window of ``window_s`` just before the final pulse.
    ``b_correction_hz`` is an additive correction to the linear
    splitting (a systematic-calibration knob).
    """
    phi_values = np.asarray(phi_values, dtype=float)
    fields_c = replace(fields, b_hz=fields.b_hz + b_correction_hz)
    if input_state is None and not prepare_with_pulse:
        input_state = readout.coherent_qubit_state()
    psi0 = basis_state(M_UP) if prepare_with_pulse else np.asarray(input_state,
                                                                   dtype=complex)
    pops = np.empty((len(phi_values), DIM))
    for k, phi in enumerate(phi_values):
        seq = _ancilla_sequence(phi, fields_c, omega_hz, window_s, gap_s,
                                prepare_with_pulse, cg_weighting)
        traj = sq.run(seq, psi0, lindblad=lindblad, tol=tol)
        pops[k] = traj.populations()[-1].clip(0.0, 1.0)
    shots = None
    if n_shots > 0:
        streams = _shot_streams(seed, len(phi_values))
        shots = [_sample_point(_diag_density(pops[k]), n_atoms, n_shots,
                               detection, streams[k])
                 for k in range(len(phi_values))]
    return InterferometerResult(
        scan_name="control_phase_rad", scan_values=phi_values,
        populations=pops, shots=shots,
        meta={"omega_hz": omega_hz, "window_s": window_s,
              "prepare_with_pulse": prepare_with_pulse,
              "b_correction_hz": b_correction_hz, "seed": seed})


# ---------------------------------------------------------------------------
# leakage scan (collective-observable error versus energy-scale separation)
# ---------------------------------------------------------------------------

def leakage_scan(ratio_values, include_scattering: bool = False,
                 q_hz: float = -330.0, b_hz: float = 960.0,
                 n_phi: int = 24, n_atoms: int = 10_000,
                 gap_cycles: float = 0.01, cg_weighting: bool = True,
                 tol: float = dynamics.DEFAULT_RTOL) -> list[dict]:
    """<O_z>/N_at statistics over a full control-phase period.

    For each energy-scale separation ratio 2|q|/(hbar Omega) the Rabi
    frequency is Omega = 2|q|/ratio (ordinary-frequency form of the
    ratio), square envelopes, the input is the coherent qubit state with
    <s_z> = 0, and the control phase is applied as an instantaneous LO
    phase step.  Inter-pulse gaps are ``gap_cycles`` Rabi periods, so
    every time in the sequence scales as 1/Omega and the result depends
    only on the ratio when scattering is off.
    """
    fields = FieldParams(b_hz=b_hz, q_hz=q_hz)
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    lindblad = monochromatic_scattering_channels() if include_scattering else None
    psi0 = readout.coherent_qubit_state()
    rows = []
    for ratio in np.asarray(ratio_values, dtype=float):
        omega = 2.0 * abs(q_hz) / ratio
        gap_s = gap_cycles / omega
        values = np.empty(n_phi)
        for k, phi in enumerate(phis):
            segs = (
                sq.pulse(MAP_A_PAIR, omega, fields, np.pi / 2,
                         cg_weighting=cg_weighting, warn_regime=False),
                sq.dark_time(gap_s),
                sq.pulse(MAP_B_PAIR, omega, fields, np.pi / 2,
                         cg_weighting=cg_weighting, warn_regime=False),
                sq.dark_time(gap_s),
                sq.pulse(QUBIT_PAIR, omega, fields, np.pi / 2, phase=phi,
                         cg_weighting=cg_weighting, warn_regime=False),
            )
            seq = sq.PulseSequence(segments=segs, fields=fields)
            traj = sq.run(seq, psi0, lindblad=lindblad, tol=tol)
            p = traj.populations()[-1]
            values[k] = p[m_index(M_ANCILLA_A)] - p[m_index(M_ANCILLA_B)]
        rows.append({"ratio": float(ratio), "omega_hz": omega,
                     "max": float(values.max()), "min": float(values.min()),
                     "mean": float(values.mean()),
                     "spread": float(values.max() - values.min()),
                     "projection_floor": float(np.sqrt(0.5 / n_atoms)),
                     "include_scattering": include_scattering})
    return rows
