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
stream, and every protocol samples the shots of a scan point, or of a
:func:`dual_ramsey_sampled` call, as one batch: first any noise offsets
and polarization toggles, then all multinomial draws, then all binomial
thinnings.  One shot per point therefore draws one multinomial, then
one binomial.

A scan is compiled once and evolves each pulse once: the prefix before
the scanned quantity, then per point only what the scan variable
changes, then the closing section's map, taken once.  A phase scan
(ancilla, leakage) applies a (points, 10) block of diagonal phases
through the batched shot kernel; a time scan (single and parallel
Ramsey) steps the dark stretch T lengthens for every T at once, in one
batched closed-form step (:func:`sunspin.dynamics.dark_sweep`), and
reads its populations from the resulting (points, 10, 10) block in one
product with the closing rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, readout, sequence as sq
from .model import (FieldParams, LindbladSpec, RamanTone,
                    monochromatic_scattering_channels, pair_splitting_hz)
from .readout import (DetectionModel, M_ANCILLA_A, M_ANCILLA_B, M_DOWN, M_UP,
                      ShotRecord, sample_counts)
# Imported by name so that perfbench/spans.py can wrap it here.
from .readout import sample_shot  # noqa: F401
from .spin_core import DIM, M_VALUES, basis_state, density_matrix, m_index

TWO_PI = 2.0 * np.pi
# How far expected populations may stray outside [0, 1], and their sum
# above 1, before a result is rejected: integration and map rounding.
POPULATION_SLACK = 1e-7
POPULATION_SUM_SLACK = 1e-6


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
        if not np.all(np.isfinite(p)):
            raise ProtocolError("populations are not finite")
        if np.any(p < -POPULATION_SLACK) or np.any(p > 1 + POPULATION_SLACK):
            raise ProtocolError("populations outside [0, 1]")
        if np.any(p.sum(axis=1) > 1 + POPULATION_SUM_SLACK):
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


def _section(schedule, start, stop=None):
    """Segments ``start:stop`` of a compiled schedule, as a schedule on
    the same engine."""
    return dynamics.Schedule(schedule.segments[start:stop], meta=schedule.meta)


def _section_map(schedule):
    """A section's map on row-major vec(rho): kron(U, conj(U)) of its
    propagator on the pure engine, its superoperator on the density
    engine (``meta["engine"]``, set by :func:`sequence.compile`)."""
    if schedule.meta.get("engine") != "density":
        return dynamics.unitary_superoperator(dynamics.propagator(schedule))
    return dynamics.superoperator(schedule)


def _closing_rows(schedule):
    """(10, 100) population rows of a closing section's map:
    p_i = Re rows[i] @ vec(rho)."""
    return _section_map(schedule)[::DIM + 1]


def _phase_sweep(schedule, state, phases, tol):
    """Final populations (k, 10) of a phase scan: ``state`` evolved once
    through all but the last segment, conjugated by diag(e^{-i
    phases[s]}) for point s, then mapped once through the last one."""
    rho = density_matrix(sq.evolve(_section(schedule, 0, -1), state, tol=tol).final)
    return _shot_populations(_closing_rows(_section(schedule, -1)), rho, phases)


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


def _scan_shots(pops, n_atoms, n_shots, detection, seed):
    """Per scan point, ``n_shots`` records of that point's populations
    ``pops[k]``, drawn in one batch from the point's own stream; None
    without shots."""
    if n_shots <= 0:
        return None
    return [_shot_records(np.broadcast_to(p, (n_shots, DIM)), n_atoms, detection,
                          np.random.default_rng(stream))
            for p, stream in zip(pops, _shot_streams(seed, len(pops)))]


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
    return InterferometerResult(
        scan_name="duration_s", scan_values=durations, populations=pops,
        shots=_scan_shots(pops, n_atoms, n_shots, detection, seed),
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

    ``phase_noise``: 'none' for the bare expectation, 'sample' to draw
    a Gaussian phase offset dphi of variance Var(phi) per shot (so it
    needs n_shots > 0), applied before the closing pulse as the pair z
    rotation diag(e^{-i dphi s}), s = -1/2 on m_low, +1/2 on m_high and
    0 elsewhere, or 'average' for the mean of that rotation in the mean
    fringe: rho_ab times exp(-Var (s_a - s_b)^2 / 2).
    With 'sample', each scan point's stream gives all n_shots phase
    offsets, then all multinomial draws, then all binomial thinnings.

    The opening pulse is evolved once; the dark stretch is stepped for
    all T in one batched closed-form step (per T when its channels have
    no closed form), and the closing pulse's map is taken once.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size == 0:
        raise ProtocolError("t_values must be non-empty")
    if phase_noise not in ("none", "average", "sample"):
        raise ProtocolError("phase_noise must be none|average|sample")
    if phase_noise != "none" and noise is None:
        raise ProtocolError("phase_noise requires a NoiseSpec")
    if phase_noise == "sample" and n_shots <= 0:
        raise ProtocolError("phase_noise 'sample' draws per shot; it needs n_shots > 0")
    m_low, m_high = min(pair), max(pair)
    i, j = m_index(m_low), m_index(m_high)
    tls_on = tls_mode == "on"

    # compiled at the shortest T, which checks that every T leaves a hold
    schedule = sq.compile(_ramsey_sequence(
        (m_low, m_high), t_values.min(), fields, omega_hz, tls_mode,
        detuning_hz, cg_weighting), lindblad=lindblad)
    first = 1 if tls_on else 2   # T lengthens the dark time or the hold
    rho = density_matrix(sq.evolve(_section(schedule, 0, first),
                                   basis_state(m_low), tol=tol).final)
    stretch = _section(schedule, first, -1)
    rows = _closing_rows(_section(schedule, -1))

    durations = (t_values[:, None] if tls_on else np.column_stack(
        [t_values - 2 * TLS_RAMP_S, np.full(len(t_values), TLS_RAMP_S)]))
    rho_pre = dynamics.dark_sweep(stretch, durations, rho, tol)
    if phase_noise != "none":
        var = noise.phase_variance(t_values, tls_on)
        spin = np.zeros(DIM)
        spin[i], spin[j] = -0.5, 0.5
    if phase_noise == "average":
        rho_pre *= np.exp(-var[:, None, None] * np.subtract.outer(spin, spin) ** 2 / 2.0)
    contrast = 2.0 * np.abs(rho_pre[:, i, j])
    pops = np.real(rho_pre.reshape(len(t_values), -1) @ rows.T).clip(0.0, 1.0)
    if phase_noise == "sample":
        shots = []
        for k, stream in enumerate(_shot_streams(seed, len(t_values))):
            rng = np.random.default_rng(stream)
            phases = np.outer(rng.normal(0.0, np.sqrt(var[k]), n_shots), spin)
            shots.append(_shot_records(_shot_populations(rows, rho_pre[k], phases),
                                       n_atoms, detection, rng))
    else:
        shots = _scan_shots(pops, n_atoms, n_shots, detection, seed)
    return InterferometerResult(
        scan_name="dark_time_s", scan_values=t_values, populations=pops,
        contrast=contrast, shots=shots,
        meta={"pair": (m_low, m_high), "tls_mode": tls_mode,
              "detuning_hz": detuning_hz, "omega_hz": omega_hz, "seed": seed})


# ---------------------------------------------------------------------------
# dual parallel Ramsey
# ---------------------------------------------------------------------------

SPLIT_PAIR = (M_DOWN, M_UP)          # (-7/2, -5/2)
IF1_PAIR = (M_UP, M_ANCILLA_A)       # (-5/2, -3/2), phase phi_1
IF2_PAIR = (M_ANCILLA_B, M_DOWN)     # (-9/2, -7/2), phase phi_2
# Segment indices of the dual Ramsey schedule: the shared dark time,
# the first closing pulse, and each interferometer's open window
# [start, stop) from the end of its opening pulse to the start of its
# closing pulse.
SHARED, CLOSE1 = 5, 6
WINDOWS = ((3, 6), (5, 8))           # if1, if2


def _dual_ramsey_sequence(t_open, fields, omega_hz, delta_shared_hz, gap_s,
                          cg_weighting=True):
    """Nine-segment schedule (five pulses); both interferometers open for
    exactly t_open."""
    p_split = sq.pulse(SPLIT_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="split")
    p_open1 = sq.pulse(IF1_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="open1")
    p_open2 = sq.pulse(IF2_PAIR, omega_hz, fields, np.pi / 2,
                       cg_weighting=cg_weighting, warn_regime=False, label="open2")
    p_close1 = replace(p_open1, label="close1")
    p_close2 = replace(p_open2, label="close2")
    d3 = p_open2.duration
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
    return sq.PulseSequence(segments=segs, fields=fields)


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
    from the window-end coherences, and the schedule-expected phases in
    ``meta``.  With ``track_phases`` each phase is the one within pi of
    its expected phase; otherwise it is the difference of the two
    wrapped coherence angles.

    The pulses up to the shared dark time are evolved once; the shared
    dark time is stepped for all T in one batched closed-form step, so
    the closing populations are one product with the closing rows and
    the closing coherences a column and one product with the map row of
    the second interferometer's coherence.  The first closing pulse and
    the tail dark time are mapped once and serve both.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size == 0:
        raise ProtocolError("t_values must be non-empty")
    # compiled at the shortest T, which checks that every T is long enough
    seq = _dual_ramsey_sequence(t_values.min(), fields, omega_hz,
                                delta_shared_hz, gap_s, cg_weighting)
    schedule = sq.compile(seq, lindblad=lindblad)
    durations = np.array([s.duration for s in seq.segments])
    lo = np.array([f for _, _, f in sq.lo_frequency_trace(schedule)])
    nus = [pair_splitting_hz(fields, pair[0]) for pair in (IF1_PAIR, IF2_PAIR)]
    (i1, j1), (i2, j2) = ((m_index(a), m_index(b)) for a, b in (IF1_PAIR, IF2_PAIR))

    # the prefix, sampled where if1 opens and at the shared dark time
    prefix = sq.evolve(_section(schedule, 0, SHARED), basis_state(M_UP),
                       t_eval=[schedule.segments[WINDOWS[0][0]].t0,
                               schedule.segments[SHARED].t0], tol=tol)
    rho_o1, rho_o2 = (density_matrix(state) for state in prefix.states)
    opened = np.array([rho_o1[i1, j1], rho_o2[i2, j2]])
    shared = _section(schedule, SHARED, CLOSE1)
    closing = _section_map(_section(schedule, CLOSE1, -1))
    rows = _closing_rows(_section(schedule, -1)) @ closing
    if2_row = closing[i2 * DIM + j2]

    # segment durations per point: T lengthens the shared dark time
    durations = np.tile(durations, (len(t_values), 1))
    durations[:, SHARED] = t_values - gap_s - durations[:, SHARED - 1]
    t = np.cumsum(np.column_stack([np.zeros(len(t_values)), durations]), axis=1)
    spans = np.column_stack([t[:, b] - t[:, a] for a, b in WINDOWS])
    mean_deltas = np.column_stack([durations[:, a:b] @ lo[a:b]
                                   for a, b in WINDOWS]) / spans
    expected = TWO_PI * (-np.array(nus) - mean_deltas) * spans

    rho = dynamics.dark_sweep(shared, durations[:, SHARED:CLOSE1], rho_o2,
                              tol).reshape(len(t_values), -1)
    pops = np.real(rho @ rows.T).clip(0.0, 1.0)
    closed = np.column_stack([rho[:, i1 * DIM + j1], rho @ if2_row])
    phases = -(np.angle(closed) - np.angle(opened))
    if track_phases:
        off = phases - expected
        phases = expected + (off - TWO_PI * np.round(off / TWO_PI))

    return InterferometerResult(
        scan_name="open_time_s", scan_values=t_values, populations=pops,
        phases=phases, shots=_scan_shots(pops, n_atoms, n_shots, detection, seed),
        meta={"expected_phases": expected, "mean_delta_hz": mean_deltas,
              "delta_shared_hz": delta_shared_hz, "omega_hz": omega_hz,
              "gap_s": gap_s, "fields": fields, "seed": seed})


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
    schedule = sq.compile(_dual_ramsey_sequence(t_open, fields, omega_hz,
                                                delta_shared_hz, gap_s, True),
                          lindblad=lindblad)
    rho_pre = density_matrix(sq.evolve(_section(schedule, 0, CLOSE1),
                                       basis_state(M_UP)).final)
    rows = _closing_rows(_section(schedule, CLOSE1))

    rng = np.random.default_rng(seed)
    db = (rng.normal(0.0, noise.b_jitter_hz, n_shots) if noise.b_jitter_hz
          else np.zeros(n_shots))
    dq = (rng.normal(0.0, noise.q_jitter_hz, n_shots) if noise.q_jitter_hz
          else np.zeros(n_shots))
    if noise.b_toggle_prob:
        db[rng.random(n_shots) < noise.b_toggle_prob] += noise.b_toggle_hz
    # level-shift offsets integrated over the open windows act as a
    # diagonal phase on all ten levels
    level_phases = TWO_PI * t_open * (db[:, None] * M_VALUES
                                      + dq[:, None] * M_VALUES**2)
    pops = _shot_populations(rows, rho_pre, level_phases)
    dphis = TWO_PI * t_open * np.column_stack([4 * dq - db, 8 * dq - db])
    return {"records": _shot_records(pops, n_atoms, detection, rng),
            "phase_offsets": dphis,
            "field_offsets": np.column_stack([db, dq]), "t_open": t_open,
            "populations_nominal": np.real(rows @ rho_pre.ravel())}


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
    splitting (a systematic-calibration knob).  The input is
    ``input_state`` (default: the coherent qubit state), or the
    preparing pulse's output with ``prepare_with_pulse``; passing both
    raises.
    """
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_values.size == 0:
        raise ProtocolError("phi_values must be non-empty")
    fields_c = replace(fields, b_hz=fields.b_hz + b_correction_hz)
    if prepare_with_pulse and input_state is not None:
        raise ProtocolError("prepare_with_pulse prepares the input state")
    if input_state is None and not prepare_with_pulse:
        input_state = readout.coherent_qubit_state()
    psi0 = basis_state(M_UP) if prepare_with_pulse else np.asarray(input_state,
                                                                   dtype=complex)
    schedule = sq.compile(_ancilla_sequence(0.0, fields_c, omega_hz, window_s,
                                            gap_s, prepare_with_pulse,
                                            cg_weighting), lindblad=lindblad)
    # phi detunes the LO by phi / (2 pi window_s) over the phase window:
    # a diagonal phase -phi m on the levels before the final pulse
    pops = _phase_sweep(schedule, psi0, -phi_values[:, None] * M_VALUES,
                        tol).clip(0.0, 1.0)
    return InterferometerResult(
        scan_name="control_phase_rad", scan_values=phi_values,
        populations=pops,
        shots=_scan_shots(pops, n_atoms, n_shots, detection, seed),
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
        segs = (
            sq.pulse(MAP_A_PAIR, omega, fields, np.pi / 2,
                     cg_weighting=cg_weighting, warn_regime=False),
            sq.dark_time(gap_s),
            sq.pulse(MAP_B_PAIR, omega, fields, np.pi / 2,
                     cg_weighting=cg_weighting, warn_regime=False),
            sq.dark_time(gap_s),
            sq.pulse(QUBIT_PAIR, omega, fields, np.pi / 2,
                     cg_weighting=cg_weighting, warn_regime=False),
        )
        schedule = sq.compile(sq.PulseSequence(segments=segs, fields=fields),
                              lindblad=lindblad)
        # the final pulse at tone phase phi is the one at phase 0
        # conjugated by diag(e^{i phi m}): a diagonal phase +phi m on the
        # levels before it
        p = _phase_sweep(schedule, psi0, phis[:, None] * M_VALUES, tol)
        values = p[:, m_index(M_ANCILLA_A)] - p[:, m_index(M_ANCILLA_B)]
        rows.append({"ratio": float(ratio), "omega_hz": omega,
                     "max": float(values.max()), "min": float(values.min()),
                     "mean": float(values.mean()),
                     "spread": float(values.max() - values.min()),
                     "projection_floor": float(np.sqrt(0.5 / n_atoms)),
                     "include_scattering": include_scattering})
    return rows
