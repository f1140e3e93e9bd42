"""Pulse sequences and their compilation to evolution schedules.

A sequence is an ordered list of segments: square Raman pulses, dark
times, and TLS power ramps.  Compilation produces a
:class:`~sunspin.dynamics.Schedule` in the rotating frame of the (single)
RF local oscillator, whose frequency steps are phase-continuous like a
DDS.  The TLS multiplier scales the quadratic shift q, the vector part
of b, and every TLS-tied dissipation rate.  Compilation turns each
segment into data (level diagonals at its TLS endpoints, the coupling
triangle its tones fold into, channels) from which the
:class:`~sunspin.dynamics.Segment` evaluates H(t), and chooses the
schedule's engine; :func:`sunspin.dynamics.evolve` runs it there.
Every compiled segment is stepped exactly, so compilation rejects what
no exact method steps: a tone during a TLS ramp, tones beating against
each other in one segment, and a TLS ramp under channels that are
neither diagonal nor single transfers.  A sequence is deterministic:
shot-to-shot noise belongs to the protocols that sample it.

Units: durations s, frequencies Hz (ordinary), phases rad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .model import FieldParams, LindbladSpec, RamanTone
from .spin_core import M_VALUES


# Tones beating against each other slower than this (Hz) are static: a
# segment of such tones under a flat multiplier holds one constant drive.
ZERO_BEAT_HZ = 1e-12


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class PulseSegment:
    """One timed element: square tones (possibly none) and a TLS ramp.

    ``lo_freq_hz`` overrides the local-oscillator frequency (signed, Hz)
    for tone-free segments; otherwise the LO inherits the previous
    segment's frequency.  ``lo_phase_step`` is an instantaneous phase
    added to the DDS phase register at the segment start.  Tones need a
    flat multiplier (``tls_start == tls_end``), which :func:`compile`
    checks.
    """

    duration: float
    tones: tuple[RamanTone, ...] = ()
    tls_start: float = 1.0
    tls_end: float = 1.0
    lo_freq_hz: float | None = None
    lo_phase_step: float = 0.0

    def __post_init__(self):
        if not self.duration > 0:
            raise SequenceError("segment duration must be positive")
        if not np.isfinite(self.duration):
            raise SequenceError("segment duration must be finite")
        for v in (self.tls_start, self.tls_end):
            if not 0.0 <= v <= 1.0:
                raise SequenceError("tls multiplier endpoints must lie in [0, 1]")


@dataclass(frozen=True)
class PulseSequence:
    segments: tuple[PulseSegment, ...]
    fields: FieldParams

    def __post_init__(self):
        if not self.segments:
            raise SequenceError("sequence must contain at least one segment")


def pulse(pair: tuple[float, float], omega_hz: float, area: float,
          detuning_hz: float = 0.0, phase: float = 0.0, cg_weighting: bool = True,
          tls_multiplier: float = 1.0) -> PulseSegment:
    """Resonant square pulse of the requested area (rad) on a pair.

    :func:`sunspin.model.control_regime_check` tells whether the fields
    leave the pair's resonance spectrally distinct from its neighbours'.
    """
    if omega_hz <= 0:
        raise SequenceError("omega_hz must be positive")
    m_low, m_high = min(pair), max(pair)
    tone = RamanTone(m_low=m_low, m_high=m_high, omega_hz=omega_hz,
                     detuning_hz=detuning_hz, phase=phase,
                     cg_weighting=cg_weighting)
    return PulseSegment(duration=(area / (2 * np.pi)) / omega_hz / 1.0,
                        tones=(tone,), tls_start=tls_multiplier,
                        tls_end=tls_multiplier)


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

def frame_diagonal(fields: FieldParams, tls_multiplier: float, f_lo_hz: float,
                   dm: int) -> np.ndarray:
    """The level diagonal (Hz) in the LO rotating frame: the level shifts
    at the TLS multiplier plus f_lo / dm times m, for an LO at
    ``f_lo_hz`` that addresses pairs dm apart."""
    return fields.level_shifts(tls_multiplier) + f_lo_hz / dm * M_VALUES


def compile(sequence: PulseSequence,
            lindblad: LindbladSpec | None = None) -> dynamics.Schedule:
    """Compile to a piecewise schedule in the LO rotating frame.

    The LO frequency is piecewise constant and phase-continuous; phase
    steps accumulate in a register applied to subsequent tone phases.
    The channels of ``lindblad`` (one spec; :meth:`LindbladSpec.merge`
    joins several) are attached to every segment, their rates scaled by
    the segment's TLS multiplier; any ``lindblad``, even one without
    channels, selects the density engine (``Schedule.density``).

    Each segment's tones are folded into one coupling triangle, their
    halved coupling matrices at their phases summed in tone order: the
    static drive of :class:`~sunspin.dynamics.Segment`.  A segment that
    no exact method steps raises :class:`SequenceError`, naming the
    segment and the cause: a tone during a TLS ramp, a residual beat of
    at least ``ZERO_BEAT_HZ`` between its tones, or a TLS ramp under
    channels that are not diagonal-safe.
    """
    if isinstance(lindblad, (list, tuple)):
        raise SequenceError("lindblad takes one LindbladSpec; join several "
                            "with LindbladSpec.merge")
    # one lookup of the channel set, shared by every segment
    channel_set = dynamics.channel_set(() if lindblad is None else lindblad.channels)

    fields = sequence.fields
    segments = []
    f_lo = 0.0
    d_ref = 1
    phase_register = 0.0

    for k, seg in enumerate(sequence.segments):
        phase_register += seg.lo_phase_step
        tone_los = [tone.lo_freq_hz(fields) for tone in seg.tones]
        if seg.tones:
            f_lo = tone_los[0]
            d_ref = seg.tones[0].dm
        elif seg.lo_freq_hz is not None:
            f_lo = seg.lo_freq_hz

        # the tones' static drive, summed in tone order: each coupling at
        # its phase, which rides on the raising side |high><low|, so the
        # stored (low, high) side gets e^{-i phase}
        uppers = [tone.coupling_matrix() / 2.0
                  * np.exp(-1j * (tone.phase + phase_register)) for tone in seg.tones]
        try:
            segments.append(dynamics.Segment(
                duration=seg.duration,
                diag_start=frame_diagonal(fields, seg.tls_start, f_lo, d_ref),
                diag_end=frame_diagonal(fields, seg.tls_end, f_lo, d_ref),
                coupling=sum(uppers[1:], uppers[0]) if uppers else None,
                channel_set=channel_set, mult_start=seg.tls_start,
                mult_end=seg.tls_end))
        except dynamics.DynamicsError as err:
            raise SequenceError(f"segment {k}: {err}") from None
        # the first tone sets the frame, so only a later one can beat
        for tone, lo in zip(seg.tones[1:], tone_los[1:]):
            beat = abs(lo - f_lo * (tone.dm / d_ref))
            if beat >= ZERO_BEAT_HZ:
                raise SequenceError(f"segment {k}: tones with a residual beat of "
                                    f"{beat:g} Hz in one segment: no exact method "
                                    "steps it")

    return dynamics.Schedule(tuple(segments), density=lindblad is not None)
