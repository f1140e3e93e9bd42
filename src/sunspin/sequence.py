"""Pulse sequences and their compilation to evolution schedules.

A sequence is an ordered list of segments: Raman pulses with envelopes,
dark times, and TLS power ramps.  Compilation produces a
:class:`~sunspin.dynamics.Schedule` in the rotating frame of the (single)
RF local oscillator, whose frequency steps are phase-continuous like a
DDS.  The TLS multiplier scales the quadratic shift q, the vector part
of b, and every TLS-tied dissipation rate.  Compilation is the one
place the Raman Hamiltonian is built; the dynamics engines only step
the schedules it returns.  A sequence is deterministic: shot-to-shot
noise belongs to the protocols that sample it.

Units: durations s, frequencies Hz (ordinary), phases rad.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .model import FieldParams, LindbladSpec, RamanTone, control_regime_check
from .spin_core import F, M_VALUES

ENVELOPES = ("square", "linear_ramp", "raised_cosine")


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class PulseSegment:
    """One timed element: tones (possibly none), envelope, TLS ramp.

    ``lo_freq_hz`` overrides the local-oscillator frequency (signed, Hz)
    for tone-free segments; otherwise the LO inherits the previous
    segment's frequency.  ``lo_phase_step`` is an instantaneous phase
    added to the DDS phase register at the segment start.
    """

    duration: float
    tones: tuple[RamanTone, ...] = ()
    envelope: str = "square"
    envelope_param: float = 0.25        # ramp fraction for linear_ramp
    tls_start: float = 1.0
    tls_end: float = 1.0
    lo_freq_hz: float | None = None
    lo_phase_step: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not self.duration > 0:
            raise SequenceError("segment duration must be positive")
        if not np.isfinite(self.duration):
            raise SequenceError("segment duration must be finite")
        if self.envelope not in ENVELOPES:
            raise SequenceError(f"envelope must be one of {ENVELOPES}")
        for v in (self.tls_start, self.tls_end):
            if not 0.0 <= v <= 1.0:
                raise SequenceError("tls multiplier endpoints must lie in [0, 1]")

    def area_fraction(self) -> float:
        """Pulse area divided by (peak Omega * duration) for this envelope."""
        if self.envelope == "square":
            return 1.0
        if self.envelope == "raised_cosine":
            return 0.5
        return 1.0 - self.envelope_param

    def envelope_fn(self):
        if self.envelope == "square":
            return lambda s: 1.0
        if self.envelope == "raised_cosine":
            return lambda s: 0.5 * (1.0 - np.cos(2 * np.pi * s))
        r = self.envelope_param
        def trapezoid(s):
            if s < r:
                return s / r
            if s > 1 - r:
                return (1 - s) / r
            return 1.0
        return trapezoid


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]
    fields: FieldParams
    seed: int | None = None

    def __post_init__(self):
        if not self.segments:
            raise SequenceError("sequence must contain at least one segment")

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def describe(self) -> str:
        """Canonical one-line-per-segment audit dump."""
        lines = [f"# fields: b={self.fields.b_hz} Hz, q={self.fields.q_hz} Hz, "
                 f"b_vec={self.fields.b_vector_hz} Hz, seed={self.seed}"]
        t = 0.0
        for i, s in enumerate(self.segments):
            tone_txt = "; ".join(
                f"({t_.m_low:+.1f},{t_.m_high:+.1f}) O={t_.omega_hz:.6g}Hz "
                f"d={t_.detuning_hz:.6g}Hz ph={t_.phase:.6g}" for t_ in s.tones) or "dark"
            lo = "inherit" if s.lo_freq_hz is None else f"{s.lo_freq_hz:.6g}Hz"
            lines.append(
                f"{i:3d} t={t:.9g}s dur={s.duration:.9g}s {s.envelope} "
                f"tls={s.tls_start:g}->{s.tls_end:g} lo={lo} "
                f"step={s.lo_phase_step:.6g} {tone_txt} {s.label}".rstrip())
            t += s.duration
        return "\n".join(lines)


def pulse(pair: tuple[float, float], omega_hz: float, fields: FieldParams,
          area: float, envelope: str = "square", detuning_hz: float = 0.0,
          phase: float = 0.0, cg_weighting: bool = True,
          tls_multiplier: float = 1.0, label: str = "", warn_regime: bool = True
          ) -> PulseSegment:
    """Resonant pulse of the requested area (rad) on a pair."""
    if omega_hz <= 0:
        raise SequenceError("omega_hz must be positive")
    m_low, m_high = min(pair), max(pair)
    tone = RamanTone(m_low=m_low, m_high=m_high, omega_hz=omega_hz,
                     detuning_hz=detuning_hz, phase=phase,
                     cg_weighting=cg_weighting)
    seg = PulseSegment(duration=(area / (2 * np.pi)) / omega_hz / 1.0,
                       tones=(tone,), envelope=envelope,
                       tls_start=tls_multiplier, tls_end=tls_multiplier,
                       label=label or f"area{area:.3f}")
    if envelope != "square":
        seg = replace(seg, duration=seg.duration / seg.area_fraction())
    if warn_regime:
        report = control_regime_check(fields.b_hz, fields.q_hz, F)
        if not report.controllable:
            flagged = {m for p in report.degenerate_pairs for m in p[:2]}
            if m_low in flagged:
                warnings.warn(
                    f"pair ({m_low}, {m_high}) sits in a quasi-degenerate "
                    "resonance region; population transfer may be uncontrolled",
                    stacklevel=2)
    return seg


def pi_pulse(pair, omega_hz, fields, **kw) -> PulseSegment:
    return pulse(pair, omega_hz, fields, area=np.pi, **kw)


def pi_half_pulse(pair, omega_hz, fields, **kw) -> PulseSegment:
    return pulse(pair, omega_hz, fields, area=np.pi / 2, **kw)


def dark_time(duration: float, lo_freq_hz: float | None = None,
              tls_multiplier: float = 1.0, lo_phase_step: float = 0.0,
              label: str = "dark") -> PulseSegment:
    return PulseSegment(duration=duration, tones=(), lo_freq_hz=lo_freq_hz,
                        tls_start=tls_multiplier, tls_end=tls_multiplier,
                        lo_phase_step=lo_phase_step, label=label)


def tls_ramp(duration: float, start: float, end: float,
             label: str = "tls-ramp") -> PulseSegment:
    return PulseSegment(duration=duration, tones=(), tls_start=start,
                        tls_end=end, label=label)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def compile(sequence: PulseSequence, lindblad: LindbladSpec | None = None,
            frame: str = "rwa") -> dynamics.Schedule:
    """Compile to a piecewise schedule in the LO rotating frame.

    The LO frequency is piecewise constant and phase-continuous; phase
    steps accumulate in a register applied to subsequent tone phases.
    Dissipation channels from ``lindblad`` are attached to every
    segment, TLS-tied rates scaled by the segment multiplier.

    ``frame='lab-beat'`` drops the rotating frame and the rotating-wave
    approximation, to check them: bare level shifts, and couplings
    oscillating at the full beat frequency with their counter-rotating
    terms, phase-continuous with the LO across segments.
    """
    if frame not in ("rwa", "lab-beat"):
        raise SequenceError(f"unknown frame {frame!r}")
    scaled_ch: tuple = ()
    fixed_ch: tuple = ()
    if lindblad is not None:
        specs = lindblad if isinstance(lindblad, (list, tuple)) else [lindblad]
        for spec in specs:
            if spec.tls_scaled:
                scaled_ch += spec.channels
            else:
                fixed_ch += spec.channels

    fields = sequence.fields
    lab = frame == "lab-beat"
    segments = []
    t = 0.0
    f_lo = 0.0
    d_ref = 1
    phase_register = 0.0
    lo_cycles = 0.0  # accumulated LO phase per unit m (cycles)
    lo_trace = []  # (t0, t1, f_lo_hz) for phase bookkeeping by protocols

    for seg in sequence.segments:
        phase_register += seg.lo_phase_step
        if seg.tones:
            primary = seg.tones[0]
            f_lo = primary.lo_freq_hz(fields)
            d_ref = primary.dm
        elif seg.lo_freq_hz is not None:
            f_lo = seg.lo_freq_hz
        lo_trace.append((t, t + seg.duration, f_lo))

        # the lab-beat frame does not rotate: bare level shifts, and tone
        # phases carry the LO phase accumulated before the segment
        frame_rate = 0.0 if lab else f_lo / d_ref
        mu0, mu1 = seg.tls_start, seg.tls_end
        diag0 = _level_diag(fields, mu0, frame_rate)
        diag1 = _level_diag(fields, mu1, frame_rate)
        f_max = float(max(np.max(np.abs(diag0)), np.max(np.abs(diag1))))
        common = dict(t0=t, t1=t + seg.duration, channels=scaled_ch,
                      channels_fixed=fixed_ch, mult_start=mu0, mult_end=mu1,
                      label=seg.label)

        if not seg.tones:
            segments.append(dynamics.Segment(kind="diagonal", diag_start=diag0,
                                             diag_end=diag1, f_max_hz=f_max,
                                             **common))
        else:
            tone_terms = []
            for tone in seg.tones:
                rate = tone.lo_freq_hz(fields)
                phi0 = tone.phase + phase_register
                if lab:
                    phi0 += 2 * np.pi * tone.dm * lo_cycles
                else:
                    rate -= f_lo * (tone.dm / d_ref)
                tone_terms.append((tone.coupling_matrix() / 2.0, rate, phi0))
            h = _segment_hamiltonian(fields, seg, t, frame_rate,
                                     tone_terms, lab)
            static = (seg.envelope == "square" and abs(mu1 - mu0) < 1e-15
                      and all(abs(r) < 1e-12 for _, r, _ in tone_terms)
                      and not lab)
            if static:
                h0 = h(t)
                segments.append(dynamics.Segment(
                    kind="constant", h_const=h0,
                    f_max_hz=float(np.max(np.abs(h0))), **common))
            else:
                f_max = max([f_max] + [abs(r) for _, r, _ in tone_terms])
                segments.append(dynamics.Segment(
                    kind="general", h_func=h, f_max_hz=f_max, **common))
        lo_cycles += f_lo / d_ref * seg.duration
        t += seg.duration

    return dynamics.Schedule(tuple(segments),
                             meta={"frame": frame, "lo_trace": tuple(lo_trace),
                                   "total_duration": t})


def _level_diag(fields: FieldParams, mu: float, frame_rate: float) -> np.ndarray:
    """Level shifts at TLS multiplier ``mu`` in a frame rotating at
    ``frame_rate`` Hz per unit m."""
    return fields.level_shifts(tls_multiplier=mu) + frame_rate * M_VALUES


def _segment_hamiltonian(fields, seg: PulseSegment, t_start, frame_rate,
                         tone_terms, lab):
    """H(t) of one pulse segment (Hz): the package's one Raman Hamiltonian.

    The level diagonal at the ramped TLS multiplier plus, per tone
    (coupling triangle, beat rate, phase), the enveloped coupling and
    its conjugate: rotating at the residual beat in the RWA frame,
    oscillating as 2 cos at the full beat (counter-rotating terms kept)
    in the lab-beat frame.  The drive phase rides on the raising
    coupling |high><low|, so the stored (low, high) side gets e^{-i.}.
    """
    dur = seg.duration
    mu0, mu1 = seg.tls_start, seg.tls_end
    env = seg.envelope_fn()

    def h(tt: float) -> np.ndarray:
        s = np.clip((tt - t_start) / dur, 0.0, 1.0)
        hm = np.diag(_level_diag(fields, mu0 + s * (mu1 - mu0),
                                 frame_rate)).astype(complex)
        for cmat, rate, phi0 in tone_terms:
            arg = 2 * np.pi * rate * (tt - t_start) + phi0
            if lab:
                upper = 2.0 * env(s) * cmat * np.cos(arg)
            else:
                upper = env(s) * cmat * np.exp(-1j * arg)
            hm += upper + upper.conj().T
        return hm

    return h


# ---------------------------------------------------------------------------
# running and serialization
# ---------------------------------------------------------------------------

def run(sequence: PulseSequence, initial_state: np.ndarray,
        lindblad: LindbladSpec | None = None, t_eval=None,
        tol: float = dynamics.DEFAULT_RTOL) -> dynamics.Trajectory:
    """Evolve an initial state through the sequence.

    With ``lindblad`` None the state vector is evolved; any spec, even
    one without channels, selects the density engine (a state vector
    input is turned into its density matrix).
    """
    schedule = compile(sequence, lindblad=lindblad)
    if lindblad is None:
        return dynamics.evolve_pure(initial_state, schedule, tol=tol, t_eval=t_eval)
    rho = initial_state
    if np.asarray(initial_state).ndim == 1:
        psi = np.asarray(initial_state, dtype=complex)
        rho = np.outer(psi, psi.conj())
    return dynamics.evolve_density(rho, schedule, tol=tol, t_eval=t_eval)


def sequence_to_dict(sequence: PulseSequence) -> dict:
    """JSON-ready description of a sequence; :func:`sequence_from_dict`
    reads it back."""

    def tone_dict(t: RamanTone) -> dict:
        return {"m_low": t.m_low, "m_high": t.m_high, "omega_hz": t.omega_hz,
                "detuning_hz": t.detuning_hz, "phase": t.phase,
                "cg_weighting": t.cg_weighting}

    return {
        "fields": {"b_hz": sequence.fields.b_hz, "q_hz": sequence.fields.q_hz,
                   "b_vector_hz": sequence.fields.b_vector_hz},
        "seed": sequence.seed,
        "segments": [
            {"duration": s.duration, "envelope": s.envelope,
             "envelope_param": s.envelope_param, "tls_start": s.tls_start,
             "tls_end": s.tls_end, "lo_freq_hz": s.lo_freq_hz,
             "lo_phase_step": s.lo_phase_step, "label": s.label,
             "tones": [tone_dict(t) for t in s.tones]}
            for s in sequence.segments],
    }


def sequence_from_dict(data: dict) -> PulseSequence:
    fields = FieldParams(**data["fields"])
    segments = tuple(
        PulseSegment(duration=s["duration"],
                     tones=tuple(RamanTone(**t) for t in s.get("tones", ())),
                     envelope=s.get("envelope", "square"),
                     envelope_param=s.get("envelope_param", 0.25),
                     tls_start=s.get("tls_start", 1.0),
                     tls_end=s.get("tls_end", 1.0),
                     lo_freq_hz=s.get("lo_freq_hz"),
                     lo_phase_step=s.get("lo_phase_step", 0.0),
                     label=s.get("label", ""))
        for s in data["segments"])
    return PulseSequence(segments=segments, fields=fields,
                         seed=data.get("seed"))


def lo_frequency_trace(schedule: dynamics.Schedule) -> tuple:
    """(t0, t1, f_lo_hz) spans recorded at compile time."""
    return schedule.meta.get("lo_trace", ())


def mean_lo_frequency(schedule: dynamics.Schedule, t0: float, t1: float) -> float:
    """Time-averaged signed LO frequency over [t0, t1] (Hz)."""
    total = 0.0
    for a, b, f in lo_frequency_trace(schedule):
        lo, hi = max(a, t0), min(b, t1)
        if hi > lo:
            total += f * (hi - lo)
    return total / (t1 - t0)
