import numpy as np
import pytest
from scipy.integrate import quad

from sunspin import dynamics, model, sequence as sq
from sunspin.spin_core import basis_state, m_index

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

    def test_raised_cosine_area_theorem(self):
        # equal area transfers equal population on resonance
        sq_pulse = sq.pulse((-2.5, -1.5), 71.0, area=0.8 * np.pi, cg_weighting=False)
        rc_pulse = sq.pulse((-2.5, -1.5), 71.0, area=0.8 * np.pi,
                            envelope="raised_cosine", cg_weighting=False)
        assert rc_pulse.duration == pytest.approx(2 * sq_pulse.duration)
        p_sq = dynamics.evolve(
            sq.compile(sq.PulseSequence(segments=(sq_pulse,), fields=FIELDS)),
            basis_state(-2.5)).populations()[-1][3]
        p_rc = dynamics.evolve(
            sq.compile(sq.PulseSequence(segments=(rc_pulse,), fields=FIELDS)),
            basis_state(-2.5), tol=1e-10).populations()[-1][3]
        assert p_rc == pytest.approx(p_sq, abs=1e-6)

    def test_invalid_segment(self):
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.0)
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.1, tls_start=1.4)
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.1, envelope="gaussian")

    @pytest.mark.parametrize("ramp", [0.7, -0.2, 0.0])
    def test_linear_ramp_fraction_outside_half_rejected(self, ramp):
        with pytest.raises(sq.SequenceError):
            sq.PulseSegment(duration=0.1, envelope="linear_ramp", envelope_param=ramp)

    @pytest.mark.parametrize("ramp", [1e-3, 0.1, 0.25, 0.4, 0.5])
    def test_linear_ramp_area_fraction_is_envelope_area(self, ramp):
        seg = sq.PulseSegment(duration=0.1, envelope="linear_ramp", envelope_param=ramp)
        area, _ = quad(lambda s: dynamics.ENVELOPES["linear_ramp"](s, ramp), 0.0, 1.0,
                       points=sorted({ramp, 1.0 - ramp}))
        assert seg.area_fraction() == pytest.approx(area, abs=1e-12)


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
        assert all(r * s.multiplier(0.005) == 0 for _, r in s.channels)

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
