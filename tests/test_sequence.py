import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunspin import dynamics, model, sequence as sq
from sunspin.spin_core import DIM, basis_state, m_index

FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)


class TestPulseConstruction:
    def test_pi_half_duration(self):
        p = sq.pulse((-3.5, -2.5), 93.0, area=np.pi / 2)
        assert p.duration == pytest.approx(0.25 / 93)

    def test_pi_duration(self):
        p = sq.pulse((-2.5, -1.5), 71.0, area=np.pi)
        assert p.duration == pytest.approx(0.5 / 71)

    def test_double_pi_returns_population_with_sign_flip(self):
        p = sq.pulse((-2.5, -1.5), 71.0, area=np.pi, cg_weighting=False)
        seq = sq.PulseSequence(segments=(p, p), fields=FIELDS)
        sched = sq.compile(seq)
        traj = dynamics.evolve(sched, basis_state(-2.5))
        assert traj.populations()[-1][2] == pytest.approx(1.0, abs=1e-10)
        # net 2 pi rotation multiplies the pair amplitude by -1 in the
        # interaction picture of the in-frame level shifts
        diag = np.diag(sched.segments[0].h_const).real
        frame = np.exp(-1j * 2 * np.pi * diag[2] * sched.duration)
        assert traj.final[2] / frame == pytest.approx(-1.0, abs=1e-9)

    def test_invalid_segment(self):
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.0)
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.1, tls_start=1.4)


class TestCompile:
    def test_dark_tls_zero_kills_q_and_dissipation(self):
        lb = model.photon_scattering_channels()
        seg = sq.dark_time(0.01, tls_multiplier=0.0)
        seq = sq.PulseSequence(segments=(seg,), fields=FIELDS)
        sched = sq.compile(seq, lindblad=lb)
        s = sched.segments[0]
        # q = 0 -> diagonal is pure b ladder (plus LO term, zero here)
        assert np.allclose(np.diff(s.diag_start), FIELDS.b_hz)
        assert s.multiplier(0.005) == 0.0
        assert all(r * s.multiplier(0.005) == 0 for _, r in s.channel_set.key)

    def test_list_of_specs_rejected(self):
        # compile takes one spec, and LindbladSpec.merge joins several
        seq = sq.PulseSequence(segments=(sq.dark_time(1e-3),), fields=FIELDS)
        with pytest.raises(sq.SequenceError, match="LindbladSpec.merge"):
            sq.compile(seq, lindblad=[model.photon_scattering_channels(),
                                      model.inhomogeneous_dephasing()])

    def test_segment_boundaries_exact(self):
        p = sq.pulse((-2.5, -1.5), 71.0, area=np.pi / 2)
        d = sq.dark_time(0.004)
        seq = sq.PulseSequence(segments=(p, d, p), fields=FIELDS)
        sched = sq.compile(seq)
        t_b = p.duration
        h_below = sched.segments[0].hamiltonian(t_b - 1e-12)
        h_above = sched.segments[1].hamiltonian(1e-12)
        # only the declared change (coupling off) across the boundary
        assert abs(h_below[2, 3]) > 30
        assert abs(h_above[2, 3]) == 0
        assert np.allclose(np.diag(h_below), np.diag(h_above), atol=1e-6)

    def test_total_duration(self):
        p = sq.pulse((-2.5, -1.5), 71.0, area=np.pi / 2)
        segs = (p, sq.dark_time(0.0123), p, sq.dark_time(0.002))
        sched = sq.compile(sq.PulseSequence(segments=segs, fields=FIELDS))
        assert sched.duration == pytest.approx(sum(s.duration for s in segs))

    def test_compile_deterministic(self):
        p = sq.pulse((-2.5, -1.5), 71.0, area=np.pi / 2)
        seq = sq.PulseSequence(segments=(p, sq.dark_time(0.01), p),
                               fields=FIELDS)
        s1, s2 = sq.compile(seq), sq.compile(seq)
        assert np.array_equal(s1.segments[0].h_const, s2.segments[0].h_const)
        for a, b in zip(s1.segments, s2.segments):
            assert np.array_equal(a.diag_start, b.diag_start)

    def test_adiabatic_ramp_population_invariance(self):
        segs = (sq.tls_ramp(0.002, 1.0, 0.0),
                sq.dark_time(0.05, tls_multiplier=0.0),
                sq.tls_ramp(0.002, 0.0, 1.0))
        seq = sq.PulseSequence(segments=segs, fields=FIELDS)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=10) + 1j * rng.normal(size=10)
        psi /= np.linalg.norm(psi)
        traj = dynamics.evolve(sq.compile(seq), psi)
        assert np.max(np.abs(traj.populations()[-1] - np.abs(psi) ** 2)) < 1e-4


class TestRun:
    def test_density_engine_accepts_pure_input(self):
        seq = sq.PulseSequence(
            segments=(sq.pulse((-2.5, -1.5), 71.0, area=np.pi, cg_weighting=False),),
            fields=FIELDS)
        # an empty spec still selects the density engine
        traj = dynamics.evolve(sq.compile(seq, lindblad=model.LindbladSpec()),
                               basis_state(-2.5))
        assert np.real(traj.final[3, 3]) == pytest.approx(1.0, abs=1e-9)

    def test_lo_trace_mean(self):
        # the dark time inherits the detuned pulse's LO frequency, so the
        # pair's in-frame rate, averaged over the trace, is minus that
        # detuning
        p = sq.pulse((-2.5, -1.5), 71.0, np.pi / 2, detuning_hz=5.0)
        seq = sq.PulseSequence(segments=(p, sq.dark_time(0.01)), fields=FIELDS)
        sched = sq.compile(seq)
        assert sched.duration == pytest.approx(p.duration + 0.01)
        i, j = m_index(-2.5), m_index(-1.5)
        rates = [seg.diag_start[j] - seg.diag_start[i] for seg in sched.segments]
        assert np.diff(sched.starts) @ rates / sched.duration == pytest.approx(-5.0)


def _two_entry_channels(rate):
    """One jump operator with two entries: neither diagonal nor a single
    transfer, so not diagonal-safe."""
    op = np.zeros((DIM, DIM), dtype=complex)
    op[m_index(-3.5), m_index(-2.5)] = 1.0
    op[m_index(-1.5), m_index(-3.5)] = 0.5
    return model.LindbladSpec(channels=((op, rate),))


# channel sets by name: (spec, diagonal-safe)
CHANNEL_SETS = {
    "none": (None, True),
    "empty": (model.LindbladSpec(), True),
    "scattering": (model.photon_scattering_channels(), True),
    "scattering+dephasing": (model.photon_scattering_channels().merge(
        model.inhomogeneous_dephasing()), True),
    "quadratic dephasing": (model.inhomogeneous_dephasing(mode="quadratic"), True),
    "two-entry": (_two_entry_channels(4.0), False),
    "two-entry, zero rate": (_two_entry_channels(0.0), False),
}
GATE_FIELDS = (FIELDS, model.FieldParams(b_hz=96.0, q_hz=0.0),
               model.FieldParams(b_hz=100.0, q_hz=-30.3, b_vector_hz=2.0))
MULTIPLIERS = st.sampled_from((0.0, 0.3, 1.0)) | st.floats(0.0, 1.0)
DURATIONS = st.floats(1e-5, 2e-3)
GATE_TONES = st.builds(
    lambda i, dm, omega, detuning, phase: model.RamanTone(
        i - 4.5, i - 4.5 + dm, omega, detuning_hz=detuning, phase=phase),
    st.integers(0, DIM - 3), st.sampled_from((1, 2)), st.floats(20.0, 400.0),
    st.sampled_from((0.0, 5.0, -12.5)), st.floats(-np.pi, np.pi))


@st.composite
def builder_segments(draw):
    """One segment from a builder: a pulse, a segment of up to three
    tones under a drawn (maybe ramped) multiplier, a dark time or a TLS
    ramp."""
    builder = draw(st.sampled_from(("pulse", "tones", "dark", "ramp")))
    mult = draw(MULTIPLIERS)
    if builder == "pulse":
        tone = draw(GATE_TONES)
        return sq.pulse(tone.pair, tone.omega_hz, draw(st.floats(0.1, 2 * np.pi)),
                        detuning_hz=tone.detuning_hz, phase=tone.phase,
                        tls_multiplier=mult)
    if builder == "tones":
        return sq.PulseSegment(duration=draw(DURATIONS),
                               tones=tuple(draw(st.lists(GATE_TONES, min_size=1,
                                                         max_size=3))),
                               tls_start=mult,
                               tls_end=draw(st.just(mult) | MULTIPLIERS),
                               lo_phase_step=draw(st.floats(-1.0, 1.0)))
    if builder == "dark":
        return sq.dark_time(draw(DURATIONS),
                            lo_freq_hz=draw(st.none() | st.floats(-500.0, 500.0)),
                            tls_multiplier=mult)
    return sq.tls_ramp(draw(DURATIONS), mult, draw(MULTIPLIERS))


def _expected_rejection(seq, diagonal_safe):
    """(segment index, cause) of the first segment that no exact method
    steps, or None: a tone under a ramping multiplier or a moving level
    diagonal, a tone whose LO is off the frame of the segment's first
    tone, or a ramp under channels that are not diagonal-safe."""
    fields = seq.fields
    for k, seg in enumerate(seq.segments):
        ramped = abs(seg.tls_end - seg.tls_start) >= dynamics.FLAT_MULTIPLIER
        if seg.tones:
            if ramped:
                return k, "a tone during a TLS ramp"
            first = seg.tones[0]
            f_lo = first.lo_freq_hz(fields)
            if not np.array_equal(sq.frame_diagonal(fields, seg.tls_start, f_lo, first.dm),
                                  sq.frame_diagonal(fields, seg.tls_end, f_lo, first.dm)):
                return k, "a coupling over a moving level diagonal"
            frame_hz = first.lo_freq_hz(fields) / first.dm
            if any(abs(tone.lo_freq_hz(fields) - frame_hz * tone.dm)
                   >= sq.ZERO_BEAT_HZ for tone in seg.tones):
                return k, "residual beat"
        elif ramped and not diagonal_safe:
            return k, "not diagonal-safe"
    return None


class TestCompileGate:
    """compile makes only segments an exact method steps, or names the
    segment and the cause that no exact method steps it."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(segments=st.lists(builder_segments(), min_size=1, max_size=3),
           fields=st.sampled_from(GATE_FIELDS),
           channels=st.sampled_from(sorted(CHANNEL_SETS)))
    def test_compiles_to_exact_kinds_or_names_the_cause(self, segments, fields,
                                                        channels):
        lindblad, diagonal_safe = CHANNEL_SETS[channels]
        seq = sq.PulseSequence(segments=tuple(segments), fields=fields)
        rejection = _expected_rejection(seq, diagonal_safe)
        if rejection is not None:
            k, cause = rejection
            with pytest.raises(sq.SequenceError, match=f"^segment {k}: .*{cause}"):
                sq.compile(seq, lindblad=lindblad)
            return
        sched = sq.compile(seq, lindblad=lindblad)
        for data in sched.segments:
            tone_free_closed_form = data.coupling is None and (diagonal_safe
                                                               or lindblad is None)
            assert data.kind == ("diagonal" if tone_free_closed_form else "constant")
        # and every segment steps
        final = dynamics.evolve(sched, basis_state(-2.5)).final
        assert np.all(np.isfinite(final))
