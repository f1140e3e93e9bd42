"""Experiment recipes: Rabi scans, Ramsey interferometers (single, dual
parallel), the ancilla-mapped simultaneous measurement, and the
off-resonant-leakage scan, plus the shot-level noise model.

Every protocol returns an :class:`InterferometerResult` holding the
noiseless expected populations on the scan grid and, optionally, the
sampled shots: a (points, shots) record array of
:data:`~sunspin.readout.SHOT_DTYPE`.
Without ``lindblad`` a protocol evolves state vectors; any
:class:`~sunspin.model.LindbladSpec` selects density matrices, the
engine the compiled schedule carries to :func:`dynamics.evolve`.  Shot
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
changes, then the closing section's rows, pulled back once.  A Rabi
scan samples its one pulse at every distinct duration and reads only
the ten population rows off each sample (:func:`dynamics.expect`), so
no (points, 10, 10) stack of density matrices is built.  A phase scan
(ancilla, leakage) applies a (points, 10) block of diagonal phases
through the batched shot kernel.  A time scan (single and parallel
Ramsey) is compiled at its shortest T; one walk takes the state to the
start of the one flat segment T lengthens, and a walk of that segment
alone, lasting the longest T, samples it at every distinct length,
stepped in one batch by the engine's closed form.  The populations come
from the resulting (points, 10, 10) block in one product with the
closing rows: population rows pulled back through the closing section
(:func:`dynamics.pullback`), never a full map of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, get_args

import numpy as np

from . import dynamics, readout, sequence as sq
from .model import (FieldParams, LindbladSpec, RamanTone,
                    monochromatic_scattering_channels, pair_splitting_hz)
from .readout import (DetectionModel, M_ANCILLA_A, M_ANCILLA_B, M_DOWN, M_UP,
                      sample_counts)
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
    shots: np.recarray | None = None            # (n_scan, n_shots) SHOT_DTYPE
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


def _section(schedule, start, stop=None):
    """Segments ``start:stop`` of a compiled schedule, as a schedule on
    the same engine."""
    return replace(schedule, segments=schedule.segments[start:stop])


# Rows of the identity on row-major vec(rho); every (DIM + 1)-th reads a
# population, and _POP_ROWS holds those ten as one contiguous complex
# block, which the products take without a copy
_VEC_UNIT = np.eye(DIM * DIM)
_POP_ROWS = _VEC_UNIT[::DIM + 1].astype(complex)


def _closing_rows(schedule):
    """(10, 100) population rows of a closing section's map:
    p_i = Re rows[i] @ vec(rho), for rho where the section starts.

    The ten population rows are pulled back through the section, last
    segment first (:func:`dynamics.pullback`), so no 100x100 map of the
    section is built on the density engine.
    """
    return dynamics.pullback(schedule, _POP_ROWS)


def _densities(states):
    """(k, 10, 10) density matrices of k states: pure rows (k, 10) become
    |psi><psi|, density matrices pass through."""
    if states.ndim == 2:
        return states[:, :, None] * states.conj()[:, None, :]
    return states


def _stretched(schedule, index, lengths, state, t_eval=()):
    """Density matrices (n + 1 + k, 10, 10) at the n times ``t_eval`` and
    the start of the flat segment ``index`` of ``schedule``, then where it
    has lasted each of the k sorted ``lengths``: one walk up to it, then
    one of it alone, lasting the longest."""
    head = _section(schedule, 0, index)
    states = dynamics.evolve(head, state, t_eval=[*t_eval, head.duration]).states
    flat = replace(schedule, segments=(replace(schedule.segments[index],
                                               duration=lengths[-1]),))
    return np.concatenate([_densities(states), _densities(
        dynamics.evolve(flat, states[-1], t_eval=lengths).states)])


def _phase_sweep(schedule, state, phases):
    """Final populations (k, 10) of a phase scan: ``state`` evolved once
    through all but the last segment, conjugated by diag(e^{-i
    phases[s]}) for point s, then mapped once through the last one."""
    rho = density_matrix(dynamics.evolve(_section(schedule, 0, -1), state).final)
    return _shot_populations(_closing_rows(_section(schedule, -1)), rho, phases)


SHOT_BLOCK = 64


def _shot_populations(rows, rho, phases):
    """Final populations (k, 10) of k shots; shot s conjugates ``rho`` by
    diag(e^{-i phases[s]}) before the closing section given by ``rows``.

    With z_s = e^{-i phases[s]} and W[ab, i] = rows[i, ab] rho[a, b],
    p_si = Re sum_ab z_sa conj(z_sb) W[ab, i]: one real product per block
    of SHOT_BLOCK shots, the interleaved real and imaginary parts of
    z (x) conj(z), (block, 200), times the (200, 10) stack of Re W and
    -Im W.  A block's temporaries stay near 100 KB.
    """
    w = (rows * rho.reshape(-1)).T
    w_real = np.empty((2 * DIM * DIM, DIM))
    w_real[0::2], w_real[1::2] = w.real, -w.imag
    pops = np.empty(phases.shape)
    for start in range(0, len(phases), SHOT_BLOCK):
        block = slice(start, start + SHOT_BLOCK)
        z = np.exp(-1j * phases[block])
        zz = z[:, :, None] * z.conj()[:, None, :]
        pops[block] = zz.reshape(len(z), -1).view(float) @ w_real
    return pops


def _scan_shots(pops, n_atoms, n_shots, detection, seed, point_pops=None):
    """The shots, a (points, n_shots) record array of SHOT_DTYPE, or None
    without shots.  Scan point k draws its shots in one batch from its
    own child stream ``rng`` of ``seed``: of its populations ``pops[k]``,
    or of the (n_shots, 10) populations ``point_pops(k, rng)``."""
    if n_shots <= 0:
        return None
    draws = []
    for k, stream in enumerate(np.random.SeedSequence(seed).spawn(len(pops))):
        rng = np.random.default_rng(stream)
        p = pops[k] if point_pops is None else point_pops(k, rng)
        draws.append(sample_counts(np.broadcast_to(p, (n_shots, DIM)), n_atoms,
                                   detection, rng))
    # np.stack returns a plain structured array
    return np.stack(draws).view(np.recarray)


# ---------------------------------------------------------------------------
# Rabi scans
# ---------------------------------------------------------------------------

def rabi_scan(pair: tuple[float, float], omega_hz: float, fields: FieldParams,
              durations, lindblad: LindbladSpec | None = None,
              cg_weighting: bool = True, detuning_hz: float = 0.0,
              n_shots: int = 0, n_atoms: int = 10_000,
              detection: DetectionModel | None = None, seed: int = 0
              ) -> InterferometerResult:
    """Populations of all ten states versus Raman pulse duration (in any
    order, repeats allowed): one pulse sampled at each distinct one, read
    off by the ten population rows (:func:`dynamics.expect`)."""
    durations = np.asarray(durations, dtype=float)
    if durations.size == 0:
        raise ProtocolError("durations must be non-empty")
    lengths, point = np.unique(durations, return_inverse=True)
    m_low, m_high = min(pair), max(pair)
    dm = round(m_high - m_low)
    tone = RamanTone(m_low=m_low, m_high=m_high, omega_hz=omega_hz,
                     detuning_hz=detuning_hz, cg_weighting=cg_weighting)
    seg = sq.PulseSegment(duration=float(lengths[-1]), tones=(tone,))
    seq = sq.PulseSequence(segments=(seg,), fields=fields)
    pops = dynamics.expect(sq.compile(seq, lindblad=lindblad), basis_state(m_low),
                           _POP_ROWS, lengths)[point]
    return InterferometerResult(
        scan_name="duration_s", scan_values=durations, populations=pops,
        shots=_scan_shots(pops, n_atoms, n_shots, detection, seed),
        meta={"pair": (m_low, m_high), "omega_hz": omega_hz, "dm": dm,
              "fields": fields, "seed": seed})


# ---------------------------------------------------------------------------
# single-pair Ramsey
# ---------------------------------------------------------------------------

TLS_RAMP_S = 2e-3
# the values of ramsey's tls_mode and phase_noise
TlsMode = Literal["on", "adiabatic-off"]
PhaseNoise = Literal["none", "average", "sample"]


def _ramsey_sequence(pair, t_dark, fields, omega_hz, tls_mode, detuning_hz,
                     cg_weighting):
    half_pi = sq.pulse(pair, omega_hz, np.pi / 2, detuning_hz=detuning_hz,
                       cg_weighting=cg_weighting)
    if tls_mode == "on":
        segs = (half_pi, sq.dark_time(t_dark), half_pi)
    elif tls_mode == "adiabatic-off":
        hold = t_dark - 2 * TLS_RAMP_S
        if hold <= 0:
            raise ProtocolError(
                f"adiabatic-off needs T > {2 * TLS_RAMP_S} s, got {t_dark}")
        segs = (half_pi, sq.tls_ramp(TLS_RAMP_S, 1.0, 0.0),
                sq.dark_time(hold, tls_multiplier=0.0),
                sq.tls_ramp(TLS_RAMP_S, 0.0, 1.0), half_pi)
    else:
        raise ProtocolError(f"tls_mode must be one of {get_args(TlsMode)}")
    return sq.PulseSequence(segments=segs, fields=fields)


def ramsey(pair: tuple[float, float], t_values, fields: FieldParams,
           omega_hz: float, tls_mode: TlsMode = "on",
           lindblad: LindbladSpec | None = None,
           noise: NoiseSpec | None = None, detuning_hz: float = 0.0,
           cg_weighting: bool = True, phase_noise: PhaseNoise = "none",
           n_shots: int = 0, n_atoms: int = 10_000,
           detection: DetectionModel | None = None, seed: int = 0
           ) -> InterferometerResult:
    """Ramsey fringe versus dark time T on one isolated pair.

    ``phase_noise``: 'none' for the bare expectation, 'sample' to draw
    a Gaussian phase offset dphi of variance Var(phi) per shot (so it
    needs n_shots > 0), applied before the closing pulse as the pair z
    rotation diag(e^{-i dphi s}), s = -1/2 on m_low, +1/2 on m_high and
    0 elsewhere, or 'average' for the mean of that rotation in the mean
    fringe: rho_ab times exp(-Var (s_a - s_b)^2 / 2).
    With 'sample', each scan point's stream gives all n_shots phase
    offsets, then all multinomial draws, then all binomial thinnings.

    The opening pulse is evolved once, in one walk that samples the dark
    time (TLS on) or the hold (adiabatic-off) at every T; the hold
    states are then mapped once through the ramp-up, and the closing
    pulse's population rows are pulled back through it once.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size == 0:
        raise ProtocolError("t_values must be non-empty")
    if phase_noise not in get_args(PhaseNoise):
        raise ProtocolError(f"phase_noise must be one of {get_args(PhaseNoise)}")
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
    rows = _closing_rows(_section(schedule, -1))
    # T lengthens the dark time, or the hold between the two TLS ramps
    lengths, point = np.unique(t_values if tls_on else t_values - 2 * TLS_RAMP_S,
                               return_inverse=True)
    rho_pre = _stretched(schedule, 1 if tls_on else 2, lengths, basis_state(m_low))[1:]
    if not tls_on:
        ramp_up = dynamics.pullback(_section(schedule, 3, 4), _VEC_UNIT)
        rho_pre = (rho_pre.reshape(len(lengths), -1) @ ramp_up.T).reshape(rho_pre.shape)
    rho_pre = rho_pre[point]
    if phase_noise != "none":
        var = noise.phase_variance(t_values, tls_on)
        spin = np.zeros(DIM)
        spin[i], spin[j] = -0.5, 0.5
    if phase_noise == "average":
        rho_pre *= np.exp(-var[:, None, None] * np.subtract.outer(spin, spin) ** 2 / 2.0)
    contrast = 2.0 * np.abs(rho_pre[:, i, j])
    pops = np.real(rho_pre.reshape(len(t_values), -1) @ rows.T).clip(0.0, 1.0)

    def noisy_pops(k, rng):
        phases = np.outer(rng.normal(0.0, np.sqrt(var[k]), n_shots), spin)
        return _shot_populations(rows, rho_pre[k], phases)

    return InterferometerResult(
        scan_name="dark_time_s", scan_values=t_values, populations=pops,
        contrast=contrast,
        shots=_scan_shots(pops, n_atoms, n_shots, detection, seed,
                          noisy_pops if phase_noise == "sample" else None),
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
    p_split = sq.pulse(SPLIT_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting)
    p_open1 = sq.pulse(IF1_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting)
    p_open2 = sq.pulse(IF2_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting)
    d3 = p_open2.duration
    shared = t_open - gap_s - d3
    if shared <= 0:
        raise ProtocolError(
            f"open time {t_open} shorter than the interleaved pulse span "
            f"{gap_s + d3}")
    tail = gap_s + d3 - p_open1.duration
    if tail <= 0:
        raise ProtocolError("closing pulses overlap; increase the gap")
    segs = (p_split,
            sq.dark_time(gap_s),
            p_open1,
            sq.dark_time(gap_s),      # if1 open; LO still at if1 resonance
            p_open2,
            sq.dark_time(shared, lo_freq_hz=delta_shared_hz),
            p_open1,                  # closes if1
            sq.dark_time(tail),       # if2 still open
            p_open2)                  # closes if2
    return sq.PulseSequence(segments=segs, fields=fields)


def parallel_ramsey(t_values, fields: FieldParams, omega_hz: float = 77.0,
                    lindblad: LindbladSpec | None = None,
                    delta_shared_hz: float = 1.0, gap_s: float = 1e-4,
                    cg_weighting: bool = True, track_phases: bool = False,
                    n_shots: int = 0, n_atoms: int = 10_000,
                    detection: DetectionModel | None = None, seed: int = 0
                    ) -> InterferometerResult:
    """Two Ramsey interferometers run in parallel on independent pairs.

    Pulse order: split on (-7/2,-5/2), open (-5/2,-3/2), open
    (-9/2,-7/2), shared free evolution with the LO at
    ``delta_shared_hz``, close both.  Returns populations of -3/2 and
    -7/2 versus the open time T, the in-frame interferometer phases
    from the window-end coherences, and the schedule-expected phases in
    ``meta``.  With ``track_phases`` each phase is the one within pi of
    its expected phase; otherwise it is the difference of the two
    wrapped coherence angles.

    The pulses up to the shared dark time are evolved once, in one walk
    that samples where each interferometer opens and the end of the
    shared dark time at every T, so the closing populations are one
    product with the closing rows and the closing coherences a column
    and one product with the row of the second interferometer's
    coherence.  Those rows are pulled back from the end
    (:func:`dynamics.pullback`): the ten population rows through the
    last pulse, then they and the second interferometer's coherence,
    eleven rows, through the first closing pulse and the tail dark
    time, which so serve both.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size == 0:
        raise ProtocolError("t_values must be non-empty")
    # compiled at the shortest T, which checks that every T is long enough
    seq = _dual_ramsey_sequence(t_values.min(), fields, omega_hz,
                                delta_shared_hz, gap_s, cg_weighting)
    schedule = sq.compile(seq, lindblad=lindblad)
    durations = np.array([s.duration for s in seq.segments])
    nus = [pair_splitting_hz(fields, pair[0]) for pair in (IF1_PAIR, IF2_PAIR)]
    (i1, j1), (i2, j2) = ((m_index(a), m_index(b)) for a, b in (IF1_PAIR, IF2_PAIR))
    # in-frame rate (Hz) of each pair per segment, off the compiled diagonals
    rates = np.array([seg.diag_start[[j1, j2]] - seg.diag_start[[i1, i2]]
                      for seg in schedule.segments])

    rows = dynamics.pullback(_section(schedule, CLOSE1, -1), np.vstack(
        [_closing_rows(_section(schedule, -1)), _VEC_UNIT[i2 * DIM + j2]]))
    rows, if2_row = rows[:DIM], rows[DIM]

    # segment durations per point: T lengthens the shared dark time
    durations = np.tile(durations, (len(t_values), 1))
    durations[:, SHARED] = t_values - gap_s - durations[:, SHARED - 1]
    spans = np.column_stack([durations[:, a:b].sum(axis=1) for a, b in WINDOWS])
    cycles = np.column_stack([durations[:, a:b] @ rates[a:b, k]
                              for k, (a, b) in enumerate(WINDOWS)])
    expected = -TWO_PI * cycles
    mean_deltas = cycles / spans - nus

    # sampled where each interferometer opens (if2 opens where the shared
    # dark time starts), then at the end of the shared dark time for every T
    lengths, point = np.unique(durations[:, SHARED], return_inverse=True)
    states = _stretched(schedule, SHARED, lengths, basis_state(M_UP),
                        t_eval=[schedule.starts[WINDOWS[0][0]]])
    opened = np.array([states[0, i1, j1], states[1, i2, j2]])
    rho = states[2:][point].reshape(len(t_values), -1)
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
    the shots, an (n_shots,) record array of SHOT_DTYPE, and the nominal
    final populations.
    """
    if n_shots < 1:
        raise ProtocolError("n_shots must be >= 1")
    schedule = sq.compile(_dual_ramsey_sequence(t_open, fields, omega_hz,
                                                delta_shared_hz, gap_s, True),
                          lindblad=lindblad)
    rho_pre = density_matrix(dynamics.evolve(_section(schedule, 0, CLOSE1),
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
    return {"records": sample_counts(pops, n_atoms, detection, rng),
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
        segs.append(sq.pulse(QUBIT_PAIR, omega_hz, np.pi / 2,
                             cg_weighting=cg_weighting))
        segs.append(sq.dark_time(gap_s))
    segs += [
        sq.pulse(MAP_A_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting),
        sq.dark_time(gap_s),
        sq.pulse(MAP_B_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting),
        sq.dark_time(window_s, lo_freq_hz=qubit_lo),
        sq.pulse(QUBIT_PAIR, omega_hz, np.pi / 2, cg_weighting=cg_weighting),
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
                        detection: DetectionModel | None = None, seed: int = 0
                        ) -> InterferometerResult:
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
    pops = _phase_sweep(schedule, psi0, -phi_values[:, None] * M_VALUES).clip(0.0, 1.0)
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

# leakage_scan's inter-pulse gaps, in Rabi periods
LEAKAGE_GAP_CYCLES = 0.01


def leakage_scan(ratio_values, include_scattering: bool = False,
                 fields: FieldParams = FieldParams(b_hz=960.0, q_hz=-330.0),
                 n_phi: int = 24, n_atoms: int = 10_000,
                 cg_weighting: bool = True) -> list[dict]:
    """<O_z>/N_at statistics over a full control-phase period.

    For each energy-scale separation ratio 2|q|/(hbar Omega) the Rabi
    frequency is Omega = 2|q|/ratio (ordinary-frequency form of the
    ratio), square envelopes, the input is the coherent qubit state with
    <s_z> = 0, and the control phase is applied as an instantaneous LO
    phase step.  Inter-pulse gaps are ``LEAKAGE_GAP_CYCLES`` Rabi periods, so
    every time in the sequence scales as 1/Omega and the result depends
    only on the ratio when scattering is off.
    """
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    lindblad = monochromatic_scattering_channels() if include_scattering else None
    psi0 = readout.coherent_qubit_state()
    rows = []
    for ratio in np.asarray(ratio_values, dtype=float):
        omega = 2.0 * abs(fields.q_hz) / ratio
        gap_s = LEAKAGE_GAP_CYCLES / omega
        segs = (
            sq.pulse(MAP_A_PAIR, omega, np.pi / 2, cg_weighting=cg_weighting),
            sq.dark_time(gap_s),
            sq.pulse(MAP_B_PAIR, omega, np.pi / 2, cg_weighting=cg_weighting),
            sq.dark_time(gap_s),
            sq.pulse(QUBIT_PAIR, omega, np.pi / 2, cg_weighting=cg_weighting),
        )
        schedule = sq.compile(sq.PulseSequence(segments=segs, fields=fields),
                              lindblad=lindblad)
        # the final pulse at tone phase phi is the one at phase 0
        # conjugated by diag(e^{i phi m}): a diagonal phase +phi m on the
        # levels before it
        p = _phase_sweep(schedule, psi0, phis[:, None] * M_VALUES)
        values = p[:, m_index(M_ANCILLA_A)] - p[:, m_index(M_ANCILLA_B)]
        rows.append({"ratio": float(ratio), "omega_hz": omega,
                     "max": float(values.max()), "min": float(values.min()),
                     "mean": float(values.mean()),
                     "spread": float(values.max() - values.min()),
                     "projection_floor": float(np.sqrt(0.5 / n_atoms)),
                     "include_scattering": include_scattering})
    return rows
