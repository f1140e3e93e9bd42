"""Pulse sequences and their compilation to evolution schedules.

A sequence is an ordered list of segments: Raman pulses with envelopes,
dark times, and TLS power ramps.  Compilation produces a
:class:`~sunspin.dynamics.Schedule` in the rotating frame of the (single)
RF local oscillator, whose frequency steps are phase-continuous like a
DDS.  The TLS multiplier scales the quadratic shift q, the vector part
of b, and every TLS-tied dissipation rate.  Compilation turns each
segment into data (level diagonals at its TLS endpoints, tone terms,
envelope, frame, channels) from which the
:class:`~sunspin.dynamics.Segment` evaluates H(t), and chooses the
schedule's engine; :func:`sunspin.dynamics.evolve` runs it there.  A
sequence is deterministic: shot-to-shot noise belongs to the protocols
that sample it.

Units: durations s, frequencies Hz (ordinary), phases rad.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .model import FieldParams, LindbladSpec, RamanTone
from .spin_core import M_VALUES

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


def pulse(pair: tuple[float, float], omega_hz: float, area: float,
          envelope: str = "square", detuning_hz: float = 0.0,
          phase: float = 0.0, cg_weighting: bool = True,
          tls_multiplier: float = 1.0) -> PulseSegment:
    """Resonant pulse of the requested area (rad) on a pair.

    :func:`sunspin.model.control_regime_check` tells whether the fields
    leave the pair's resonance spectrally distinct from its neighbours'.
    """
    if omega_hz <= 0:
        raise SequenceError("omega_hz must be positive")
    m_low, m_high = min(pair), max(pair)
    tone = RamanTone(m_low=m_low, m_high=m_high, omega_hz=omega_hz,
                     detuning_hz=detuning_hz, phase=phase,
                     cg_weighting=cg_weighting)
    seg = PulseSegment(duration=(area / (2 * np.pi)) / omega_hz / 1.0,
                       tones=(tone,), envelope=envelope,
                       tls_start=tls_multiplier, tls_end=tls_multiplier)
    if envelope != "square":
        seg = replace(seg, duration=seg.duration / seg.area_fraction())
    return seg


def dark_time(duration: float, lo_freq_hz: float | None = None,
              tls_multiplier: float = 1.0, lo_phase_step: float = 0.0) -> PulseSegment:
    return PulseSegment(duration=duration, tones=(), lo_freq_hz=lo_freq_hz,
                        tls_start=tls_multiplier, tls_end=tls_multiplier,
                        lo_phase_step=lo_phase_step)


def tls_ramp(duration: float, start: float, end: float) -> PulseSegment:
    return PulseSegment(duration=duration, tones=(), tls_start=start,
                        tls_end=end)


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
    channels, selects the density engine (``Schedule.density``).

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
    # one lookup of the channel set, shared by every segment
    channel_set = None if lindblad is None else dynamics.channel_set(channels)

    fields = sequence.fields
    lab = frame == "lab-beat"
    segments = []
    f_lo = 0.0
    d_ref = 1
    phase_register = 0.0
    lo_cycles = 0.0  # accumulated LO phase per unit m (cycles)

    for seg in sequence.segments:
        phase_register += seg.lo_phase_step
        tone_los = [tone.lo_freq_hz(fields) for tone in seg.tones]
        if seg.tones:
            f_lo = tone_los[0]
            d_ref = seg.tones[0].dm
        elif seg.lo_freq_hz is not None:
            f_lo = seg.lo_freq_hz

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
            duration=seg.duration,
            diag_start=fields.level_shifts(seg.tls_start) + frame_rate * M_VALUES,
            diag_end=fields.level_shifts(seg.tls_end) + frame_rate * M_VALUES,
            tones=tuple(tone_terms), envelope=seg.envelope,
            envelope_param=seg.envelope_param, lab=lab, channels=channels,
            mult_start=seg.tls_start, mult_end=seg.tls_end,
            known_channel_set=channel_set))
        lo_cycles += f_lo / d_ref * seg.duration

    return dynamics.Schedule(tuple(segments), density=lindblad is not None)
