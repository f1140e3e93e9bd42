"""Pulse sequences and their compilation to evolution schedules.

A sequence is an ordered list of segments: Raman pulses with envelopes,
dark times, and TLS power ramps.  Compilation produces a
:class:`~sunspin.dynamics.Schedule` in the rotating frame of the (single)
RF local oscillator, whose frequency steps are phase-continuous like a
DDS.  The TLS multiplier scales the quadratic shift q, the vector part
of b, and every TLS-tied dissipation rate.  Compilation turns each
segment into data (level diagonals at its TLS endpoints, tone terms,
envelope, frame, channels) from which the
:class:`~sunspin.dynamics.Segment` evaluates H(t); :func:`evolve` runs
a compiled schedule on the engine its compilation chose.  A sequence is
deterministic: shot-to-shot noise belongs to the protocols that sample
it.

Units: durations s, frequencies Hz (ordinary), phases rad.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .model import FieldParams, LindbladSpec, RamanTone, control_regime_check
from .spin_core import F, M_VALUES, density_matrix

ENVELOPES = tuple(dynamics.ENVELOPES)


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
        # a trapezoid's ramps cannot overlap, and area_fraction assumes so
        if self.envelope == "linear_ramp" and not 0.0 < self.envelope_param <= 0.5:
            raise SequenceError("linear_ramp envelope_param (ramp fraction) must "
                                "lie in (0, 0.5]")
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


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]
    fields: FieldParams

    def __post_init__(self):
        if not self.segments:
            raise SequenceError("sequence must contain at least one segment")

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))


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
    The channels of ``lindblad`` (one spec; :meth:`LindbladSpec.merge`
    joins several) are attached to every segment, their rates scaled by
    the segment's TLS multiplier; any ``lindblad``, even one without
    channels, marks the schedule for the density engine of
    :func:`evolve`.

    ``frame='lab-beat'`` drops the rotating frame and the rotating-wave
    approximation, to check them: bare level shifts, and couplings
    oscillating at the full beat frequency with their counter-rotating
    terms, phase-continuous with the LO across segments.
    """
    if frame not in ("rwa", "lab-beat"):
        raise SequenceError(f"unknown frame {frame!r}")
    if isinstance(lindblad, (list, tuple)):
        raise SequenceError("lindblad takes one LindbladSpec; join several "
                            "with LindbladSpec.merge")
    channels = () if lindblad is None else lindblad.channels

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
        tone_los = [tone.lo_freq_hz(fields) for tone in seg.tones]
        if seg.tones:
            f_lo = tone_los[0]
            d_ref = seg.tones[0].dm
        elif seg.lo_freq_hz is not None:
            f_lo = seg.lo_freq_hz
        lo_trace.append((t, t + seg.duration, f_lo))

        # the lab-beat frame does not rotate: bare level shifts, and tone
        # phases carry the LO phase accumulated before the segment
        frame_rate = 0.0 if lab else f_lo / d_ref
        tone_terms = []
        for tone, rate in zip(seg.tones, tone_los):
            phi0 = tone.phase + phase_register
            if lab:
                phi0 += 2 * np.pi * tone.dm * lo_cycles
            else:
                rate -= f_lo * (tone.dm / d_ref)
            tone_terms.append((tone.coupling_matrix() / 2.0, rate, phi0))
        segments.append(dynamics.Segment(
            t0=t, t1=t + seg.duration,
            diag_start=fields.level_shifts(seg.tls_start) + frame_rate * M_VALUES,
            diag_end=fields.level_shifts(seg.tls_end) + frame_rate * M_VALUES,
            tones=tuple(tone_terms), envelope=seg.envelope,
            envelope_param=seg.envelope_param, lab=lab, channels=channels,
            mult_start=seg.tls_start, mult_end=seg.tls_end, label=seg.label))
        lo_cycles += f_lo / d_ref * seg.duration
        t += seg.duration

    engine = "pure" if lindblad is None else "density"
    return dynamics.Schedule(tuple(segments),
                             meta={"frame": frame, "lo_trace": tuple(lo_trace),
                                   "total_duration": t, "engine": engine})


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run(sequence: PulseSequence, initial_state: np.ndarray,
        lindblad: LindbladSpec | None = None, t_eval=None,
        tol: float = dynamics.DEFAULT_RTOL) -> dynamics.Trajectory:
    """Evolve an initial state through the sequence (see :func:`evolve`)."""
    return evolve(compile(sequence, lindblad=lindblad), initial_state,
                  t_eval=t_eval, tol=tol)


def evolve(schedule: dynamics.Schedule, initial_state: np.ndarray, t_eval=None,
           tol: float = dynamics.DEFAULT_RTOL) -> dynamics.Trajectory:
    """Evolve an initial state through a compiled schedule.

    A schedule compiled without a LindbladSpec evolves the state vector;
    one compiled with any spec, even one without channels, runs on the
    density engine (a state vector input is turned into its density
    matrix).
    """
    if schedule.meta.get("engine") != "density":
        return dynamics.evolve_pure(initial_state, schedule, tol=tol, t_eval=t_eval)
    return dynamics.evolve_density(density_matrix(initial_state), schedule,
                                   tol=tol, t_eval=t_eval)


def lo_frequency_trace(schedule: dynamics.Schedule) -> tuple:
    """(t0, t1, f_lo_hz) spans recorded at compile time."""
    return schedule.meta.get("lo_trace", ())
