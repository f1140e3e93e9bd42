from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from sunspin import dynamics, model, protocols as pr, sequence as sq
from sunspin.spin_core import DIM, basis_state, m_index

FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)


def two_level_tone(omega=71.0, detuning=0.0):
    return model.RamanTone(-2.5, -1.5, omega, detuning_hz=detuning,
                           cg_weighting=False)


def compiled(tones, duration, fields=FIELDS, frame="rwa"):
    """One-segment schedule of ``tones`` (a dark time if there are none)."""
    seg = sq.PulseSegment(duration=duration, tones=tuple(tones))
    return sq.compile(sq.PulseSequence(segments=(seg,), fields=fields),
                      frame=frame)


class TestEvolvePure:
    def test_resonant_pi_pulse(self):
        h = compiled([two_level_tone()], 0.5 / 71)
        traj = dynamics.evolve_pure(basis_state(-2.5), h)
        assert traj.populations()[-1][3] == pytest.approx(1.0, abs=1e-10)

    def test_detuned_max_transfer(self):
        # analytic Rabi formula: max transfer omega^2/(omega^2 + delta^2)
        ts = np.linspace(1e-6, 0.03, 600)
        h = compiled([two_level_tone(detuning=71.0)], ts[-1])
        traj = dynamics.evolve_pure(basis_state(-2.5), h, t_eval=ts)
        assert traj.populations()[:, 3].max() == pytest.approx(0.5, abs=2e-4)

    def test_zero_hamiltonian(self):
        psi = (basis_state(-2.5) + 1j * basis_state(1.5)) / np.sqrt(2)
        traj = dynamics.evolve_pure(psi, np.zeros((DIM, DIM)), 0, 0.3)
        assert np.allclose(traj.final, psi)

    def test_norm_preserved(self):
        h = compiled([two_level_tone()], 0.2)
        traj = dynamics.evolve_pure(basis_state(-2.5), h)
        assert abs(np.linalg.norm(traj.final) - 1) < 1e-9

    def test_non_hermitian_rejected(self):
        h = np.zeros((DIM, DIM), dtype=complex)
        h[0, 1] = 1.0  # not mirrored
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(basis_state(-2.5), h, 0, 0.1)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(2.0 * basis_state(-2.5),
                                 np.zeros((DIM, DIM)), 0, 0.1)


class TestEvolveDensity:
    def test_matches_pure_without_dissipation(self):
        h = compiled([two_level_tone()], 0.013)
        psi = basis_state(-2.5)
        tp = dynamics.evolve_pure(psi, h)
        rho0 = np.outer(psi, psi.conj())
        td = dynamics.evolve_density(rho0, h)
        fidelity = np.real(np.vdot(tp.final, td.final @ tp.final))
        assert fidelity > 1 - 1e-9

    def test_pure_dephasing_exponential(self):
        gamma = 4.0
        op = np.diag([0, 0, 1, 0, 0, 0, 0, 0, 0, 0]).astype(complex)
        spec = model.LindbladSpec(channels=((op, gamma),))
        psi = (basis_state(-2.5) + basis_state(-1.5)) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        t1 = 0.37
        traj = dynamics.evolve_density(rho0, np.zeros((DIM, DIM)),
                                       lindblad=spec, t0=0, t1=t1)
        assert abs(traj.final[2, 3]) == pytest.approx(
            0.5 * np.exp(-gamma / 2 * t1), rel=1e-9)

    def test_trace_hermiticity_positivity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
            h = (h + h.conj().T) * 10
            ops = []
            for _ in range(3):
                op = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
                ops.append((op / np.linalg.norm(op), rng.uniform(0.1, 2.0)))
            psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
            psi /= np.linalg.norm(psi)
            rho0 = np.outer(psi, psi.conj())
            traj = dynamics.evolve_density(rho0, h, lindblad=ops, t0=0, t1=0.08)
            rho = traj.final
            assert abs(np.trace(rho).real - 1) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_dephasing_only_preserves_populations(self):
        spec = model.inhomogeneous_dephasing()
        rng = np.random.default_rng(8)
        psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        h = compiled([], 0.3).hamiltonian(0.0)
        traj = dynamics.evolve_density(rho0, h, lindblad=spec, t0=0, t1=0.3)
        assert np.allclose(np.diag(traj.final).real, np.abs(psi) ** 2,
                           atol=1e-9)

    def test_ramp_with_transfers_takes_the_closed_form(self, monkeypatch):
        # on a TLS ramp the populations follow mult(t) S p, and S mult(t)
        # commutes with itself at all times, so one exponential of
        # S integral(mult) is the time-ordered map, here with two transfers
        # that share the level -3/2
        down = np.zeros((DIM, DIM), dtype=complex)
        down[m_index(-2.5), m_index(-1.5)] = 1.0
        feed = np.zeros((DIM, DIM), dtype=complex)
        feed[m_index(-1.5), m_index(-0.5)] = 1.0
        rate, span = 300.0, 5e-3
        sched = sq.compile(
            sq.PulseSequence(segments=(sq.tls_ramp(span, 1.0, 0.0),), fields=FIELDS),
            lindblad=model.LindbladSpec(channels=((down, rate), (feed, rate))))
        rho0 = np.zeros((DIM, DIM), dtype=complex)
        rho0[m_index(-0.5), m_index(-0.5)] = 1.0
        solves = []
        monkeypatch.setattr(dynamics, "solve_ivp",
                            lambda *a, **kw: solves.append(1) or solve_ivp(*a, **kw))
        final = dynamics.evolve_density(rho0, sched).final
        assert solves == []
        s_mat = np.zeros((DIM, DIM))
        for dst, src in ((-2.5, -1.5), (-1.5, -0.5)):
            s_mat[m_index(dst), m_index(src)] += rate
            s_mat[m_index(src), m_index(src)] -= rate
        ref = solve_ivp(lambda t, p: (1 - t / span) * s_mat @ p, (0.0, span),
                        np.diag(rho0).real, method="DOP853", rtol=1e-13,
                        atol=1e-15).y[:, -1]
        assert np.max(np.abs(np.diag(final).real - ref)) < 1e-12

    def test_negative_rate_rejected(self):
        with pytest.raises(model.ModelError):
            model.LindbladSpec(channels=((np.eye(DIM, dtype=complex), -1.0),))


class TestPropagator:
    def test_zero_duration_identity(self):
        h = compiled([two_level_tone()], 0.01).hamiltonian(0.0)
        assert np.allclose(dynamics.propagator(h, 0, 0), np.eye(DIM))

    def test_square_half_pi(self):
        from sunspin.spin_core import pair_rotation
        tau = 0.25 / 71
        h = compiled([two_level_tone()], tau)
        u = dynamics.propagator(h)
        # compare in the interaction picture of the in-frame diagonal
        diag = np.diag(h.hamiltonian(0.0)).real
        u_int = np.diag(np.exp(1j * 2 * np.pi * diag * tau)) @ u
        assert np.max(np.abs(u_int - pair_rotation(-2.5, -1.5, "x",
                                                   np.pi / 2))) < 1e-12

    def test_unitarity_and_composition(self):
        tone = model.RamanTone(-2.5, -1.5, 71.0, detuning_hz=13.0)
        u02 = dynamics.propagator(compiled([tone], 0.02))
        u01 = dynamics.propagator(compiled([tone], 0.011))
        # time-independent in this frame: U(0->t2) = U(0->t2-t1) U(0->t1)
        u12 = dynamics.propagator(compiled([tone], 0.02 - 0.011))
        assert np.max(np.abs(u02.conj().T @ u02 - np.eye(DIM))) < 1e-10
        assert np.max(np.abs(u12 @ u01 - u02)) < 1e-9


def _channels_at(seg, t):
    """The segment's channels with their rates at its multiplier at t."""
    return [(op, rate * seg.multiplier(t)) for op, rate in seg.channels]


def _mixed_sequence():
    """Square pulse, dark time, TLS ramp and raised-cosine pulse.

    Weak fields and a short pulse keep the RK45 segment cheap in
    Liouville space.
    """
    fields = model.FieldParams(b_hz=96.0, q_hz=-32.0)
    pair = (-2.5, -1.5)
    segs = (sq.pulse(pair, 400.0, fields, np.pi / 2, warn_regime=False),
            sq.dark_time(2e-3),
            sq.tls_ramp(1e-3, 1.0, 0.3),
            sq.pulse(pair, 400.0, fields, np.pi / 2, envelope="raised_cosine",
                     warn_regime=False))
    return sq.PulseSequence(segments=segs, fields=fields)


def _small_lindblad():
    """One transfer channel and one dephasing channel."""
    transfer = np.zeros((DIM, DIM), dtype=complex)
    transfer[m_index(-2.5), m_index(-1.5)] = 1.0
    dephase = np.diag(np.arange(DIM) - 4.5).astype(complex)
    return model.LindbladSpec(channels=((transfer, 30.0), (dephase, 2.0)))


def _probe_state():
    psi = basis_state(-2.5) + basis_state(-1.5) + 0.5j * basis_state(-3.5)
    return psi / np.linalg.norm(psi)


class TestEngineAgreement:
    def test_superoperator_matches_evolve_density(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        kinds = [seg.kind for seg in sched.segments]
        assert kinds == ["constant", "diagonal", "diagonal", "general"]
        assert sched.segments[2].mult_start != sched.segments[2].mult_end
        psi = _probe_state()
        rho = np.outer(psi, psi.conj())
        mapped = dynamics.superoperator(sched) @ rho.reshape(-1)
        final = dynamics.evolve_density(rho, sched).final
        assert np.max(np.abs(mapped.reshape(DIM, DIM) - final)) < 1e-9

    def test_propagator_matches_evolve_pure(self):
        sched = sq.compile(_mixed_sequence())
        psi = _probe_state()
        final = dynamics.evolve_pure(psi, sched).final
        assert np.max(np.abs(dynamics.propagator(sched) @ psi - final)) < 1e-9

    def test_dark_segment_superoperator_is_exact(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        dark = sched.segments[1]
        assert dark.mult_start == dark.mult_end
        assert np.array_equal(dark.diag_start, dark.diag_end)
        sup = dynamics.liouvillian(dark.hamiltonian(dark.t0),
                                   _channels_at(dark, dark.t0))
        exact = expm(sup * dark.duration)
        s_dark = dynamics.superoperator(dynamics.Schedule((dark,)))
        assert np.max(np.abs(s_dark - exact)) < 1e-12


def _criterion_2_schedule(lindblad):
    """The damped Rabi segment of acceptance criterion 2: 0.35 s at 71 Hz."""
    seg = sq.PulseSegment(duration=0.35,
                          tones=(model.RamanTone(-2.5, -1.5, 71.0),))
    return sq.compile(sq.PulseSequence(segments=(seg,), fields=FIELDS),
                      lindblad=lindblad)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a: calls.append(1) or original(*a))
    return calls


class TestEigenStepping:
    @pytest.mark.parametrize("channels", ["scatter+dephasing", "scatter", "none"])
    def test_matches_expm_on_criterion_2_segment(self, channels, monkeypatch):
        scatter = model.photon_scattering_channels()
        lindblad = {"scatter+dephasing": scatter.merge(model.inhomogeneous_dephasing()),
                    "scatter": scatter, "none": model.LindbladSpec()}[channels]
        sched = _criterion_2_schedule(lindblad)
        seg = sched.segments[0]
        ts = np.linspace(1e-4, 0.35, 50)
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        expm_calls = _count_calls(monkeypatch, dynamics, "expm")
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        assert expm_calls == []
        sup = dynamics.liouvillian(seg.h_const, _channels_at(seg, seg.t0))
        exact = np.array([expm(sup * (t - seg.t0)) @ rho0.reshape(-1) for t in ts])
        assert np.max(np.abs(states.reshape(len(ts), -1) - exact)) <= 1e-10
        if channels == "none":
            pure = dynamics.evolve_pure(psi, sched, t_eval=ts).states
            pure_rho = np.einsum("ni,nj->nij", pure, pure.conj())
            assert np.max(np.abs(states - pure_rho)) <= 1e-10

    @pytest.mark.parametrize("n_samples", [1, 5], ids=["one-sample", "five-samples"])
    def test_flat_multiplier_scales_constant_segment_rates(self, n_samples):
        seg = sq.PulseSegment(duration=0.02,
                              tones=(model.RamanTone(-2.5, -1.5, 71.0),),
                              tls_start=0.4, tls_end=0.4)
        sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=FIELDS),
                           lindblad=_package_channel_sets()["photon+dephasing"])
        seg = sched.segments[0]
        assert seg.kind == "constant" and seg.channels
        ts = np.linspace(0.004, 0.02, n_samples)
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        sup = dynamics.liouvillian(seg.h_const, _channels_at(seg, seg.t0))
        exact = np.array([expm(sup * t) @ rho0.reshape(-1) for t in ts])
        assert np.max(np.abs(states.reshape(len(ts), -1) - exact)) <= 1e-10

    def test_defective_liouvillian_falls_back_to_expm(self, monkeypatch):
        # one decay |i><i+1| at gamma with h[i, i+1] = gamma/(16 pi): the
        # angular Rabi frequency equals gamma/4, an exceptional point
        gamma, i = 20.0, m_index(-2.5)
        h = np.zeros((DIM, DIM), dtype=complex)
        h[i, i + 1] = h[i + 1, i] = gamma / (16 * np.pi)
        op = np.zeros((DIM, DIM), dtype=complex)
        op[i, i + 1] = 1.0
        rho0 = np.zeros((DIM, DIM), dtype=complex)
        rho0[i + 1, i + 1] = 1.0
        ts = np.linspace(0.01, 0.5, 50)
        dynamics.clear_caches()
        expm_calls = _count_calls(monkeypatch, dynamics, "expm")
        eig_calls = _count_calls(monkeypatch, np.linalg, "eig")
        states = dynamics.evolve_density(rho0, h, lindblad=[(op, gamma)],
                                         t0=0.0, t1=ts[-1], t_eval=ts).states
        # the rejected spectrum is kept as None, and each step takes one
        # expm of its own
        assert dynamics._SPECTRA.cache_info().currsize == 1
        assert (len(eig_calls), len(expm_calls)) == (1, len(ts))
        sup = dynamics.liouvillian(h, [(op, gamma)])
        exact = np.array([expm(sup * t) @ rho0.reshape(-1) for t in ts])
        assert np.max(np.abs(states.reshape(len(ts), -1) - exact)) <= 1e-12

    def test_eig_failure_falls_back_to_expm(self, monkeypatch):
        sched = _criterion_2_schedule(model.photon_scattering_channels())
        ts = np.linspace(0.01, 0.35, 20)
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        dynamics.clear_caches()
        monkeypatch.setattr(dynamics, "EIG_COND_MAX", 0.0)
        chained = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        monkeypatch.undo()

        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        dynamics.clear_caches()
        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        expm_calls = _count_calls(monkeypatch, dynamics, "expm")
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        assert len(expm_calls) == len(ts)
        assert states.tobytes() == chained.tobytes()

    def test_complex_hermitian_basis_falls_back_to_expm(self, monkeypatch):
        # an H with an anti-Hermitian part of 1e-10 times its largest
        # entry passes the input check and leaves the Liouvillian complex
        # in the Hermitian basis; no Segment holds such an H (it adds the
        # conjugate of the upper triangle), so the Liouvillian is patched
        channels = model.photon_scattering_channels()
        sched = _criterion_2_schedule(channels)
        i, j = m_index(-2.5), m_index(-1.5)
        h = sched.segments[0].h_const.copy()
        h[[i, j], [j, i]] += 1e-10j * np.max(np.abs(h))
        dynamics._check_hermitian(h)
        sup = dynamics.liouvillian(h, channels.channels)
        assert dynamics._eigen(sup) is None
        monkeypatch.setattr(dynamics, "_constant_liouvillian", lambda seg: sup)
        ts = np.linspace(0.01, 0.35, 20)
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        dynamics.clear_caches()
        expm_calls = _count_calls(monkeypatch, dynamics, "expm")
        eig_calls = _count_calls(monkeypatch, np.linalg, "eig")
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        assert (len(eig_calls), len(expm_calls)) == (0, len(ts))
        exact = np.array([expm(sup * t) @ rho0.reshape(-1) for t in ts])
        assert np.max(np.abs(states.reshape(len(ts), -1) - exact)) <= 1e-10


def _kron_liouvillian(h, channels):
    """Reference Liouvillian: every channel summed in with np.kron."""
    eye = np.eye(DIM)
    sup = -1j * dynamics.TWO_PI * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in channels:
        if rate == 0:
            continue
        ll = op.conj().T @ op
        sup += rate * (np.kron(op, op.conj())
                       - 0.5 * np.kron(ll, eye)
                       - 0.5 * np.kron(eye, ll.T))
    return sup


def _package_channel_sets():
    scatter = model.photon_scattering_channels()
    return {"monochromatic": model.monochromatic_scattering_channels(),
            "photon": scatter,
            "photon+dephasing": scatter.merge(model.inhomogeneous_dephasing()),
            "dephasing": model.inhomogeneous_dephasing()}


class TestCachedChannelSets:
    TONE_SETS = {
        "dm1": lambda phi: (model.RamanTone(-2.5, -1.5, 71.0, phase=phi),),
        "detuned": lambda phi: (model.RamanTone(-3.5, -2.5, 93.0, detuning_hz=25.0,
                                                phase=phi, cg_weighting=False),),
        "two dm1": lambda phi: (model.RamanTone(-2.5, -1.5, 71.0, phase=phi),
                                model.RamanTone(-4.5, -3.5, 40.0)),
        "dm2+dm1": lambda phi: (model.RamanTone(-3.5, -1.5, 29.0, phase=phi),
                                model.RamanTone(-1.5, -0.5, 55.0)),
    }

    def test_liouvillian_equals_kron_loop(self):
        sets = _package_channel_sets()
        for tones in self.TONE_SETS.values():
            for phi in (0.0, 0.7, -2.1):
                seg = compiled(tones(phi), 0.01).segments[0]
                h = seg.hamiltonian(seg.t0 + 0.003)
                for spec in sets.values():
                    for mult in (1.0, 0.37):
                        channels = [(op, rate * mult) for op, rate in spec.channels]
                        delta = (dynamics.liouvillian(h, channels)
                                 - _kron_liouvillian(h, channels))
                        assert np.max(np.abs(delta)) == 0

    def test_cached_arrays_are_read_only(self):
        spec = _package_channel_sets()["photon+dephasing"]
        sched = _criterion_2_schedule(spec)
        seg = sched.segments[0]
        dynamics.clear_caches()
        cached = dynamics._channel_set(spec.channels)
        with pytest.raises(ValueError):
            cached.dissipator[0, 0] = 1.0
        for array in dynamics._constant_spectrum(seg):
            with pytest.raises(ValueError):
                array[0] = 1.0
        sup = dynamics.liouvillian(seg.h_const, spec.channels)
        first = sup.copy()
        sup[:] = 0.0
        assert np.array_equal(dynamics.liouvillian(seg.h_const, spec.channels), first)
        proc = dynamics.superoperator(sched)
        first = proc.copy()
        proc[:] = 0.0
        assert np.array_equal(dynamics.superoperator(sched), first)

    def test_zero_rate_channel_keeps_closed_form_choice(self):
        # a zero-rate channel adds nothing to the dissipator but, being
        # neither diagonal nor a single transfer, still rules out the
        # closed form, as it did before the cache
        op = np.zeros((DIM, DIM), dtype=complex)
        op[0, 1] = op[1, 0] = 1.0
        cached = dynamics._channel_set([(op, 0.0)])
        assert not cached.diagonal_safe
        assert not np.any(cached.dissipator)

    def test_one_dissipator_build_per_shaped_pulse_solve(self, monkeypatch):
        self._check_shaped_pulse_solve(1.0, model.inhomogeneous_dephasing(),
                                       monkeypatch)

    def test_tls_ramp_builds_no_channel_set_per_call(self, monkeypatch):
        # the multiplier scales the prebuilt dissipator instead of the
        # rates, so a ramped pulse does not miss the cache at every call
        self._check_shaped_pulse_solve(0.5, _package_channel_sets()["photon+dephasing"],
                                       monkeypatch)

    @staticmethod
    def _check_shaped_pulse_solve(tls_end, lindblad, monkeypatch):
        """A 0.2 ms raised-cosine pulse builds one channel set and no
        Liouvillian, and matches an RK45 run on the kron Liouvillian."""
        seg = sq.PulseSegment(duration=2e-4, envelope="raised_cosine",
                              tones=(model.RamanTone(-2.5, -1.5, 500.0),),
                              tls_start=1.0, tls_end=tls_end)
        sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=FIELDS),
                           lindblad=lindblad)
        seg = sched.segments[0]
        assert seg.kind == "general"
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        dynamics.clear_caches()
        builds = _count_calls(monkeypatch, dynamics, "liouvillian")
        final = dynamics.evolve_density(rho0, sched).final
        assert builds == []
        assert dynamics._CHANNEL_SETS.cache_info().misses == 1

        # reference: the kron Liouvillian with every rate rescaled at t
        zero = np.zeros((DIM, DIM))
        units = [(_kron_liouvillian(zero, [(op, 1.0)]), rate)
                 for op, rate in seg.channels]

        def rhs(t, y):
            sup = _kron_liouvillian(seg.hamiltonian(t), [])
            for unit, rate in units:
                sup += rate * seg.multiplier(t) * unit
            return sup @ y

        ref = solve_ivp(rhs, (seg.t0, seg.t1), rho0.reshape(-1), method="RK45",
                        rtol=dynamics.DEFAULT_RTOL,
                        atol=dynamics.DEFAULT_RTOL * 1e-3,
                        max_step=1.0 / (50.0 * seg.f_max_hz))
        assert np.max(np.abs(ref.y[:, -1].reshape(DIM, DIM) - final)) <= 1e-12


class TestIgnoredInputsRejected:
    def test_density_lindblad_with_schedule(self):
        sched = sq.compile(_mixed_sequence())
        psi = _probe_state()
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_density(np.outer(psi, psi.conj()), sched,
                                    lindblad=_small_lindblad())

    def test_pure_with_channels(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(_probe_state(), sched)

    def test_propagator_with_channels(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        with pytest.raises(dynamics.DynamicsError):
            dynamics.propagator(sched)


class TestSegmentKind:
    @pytest.mark.parametrize("pulse, frame, kind", [
        ({}, "rwa", "constant"),
        ({"tls_start": 1.0, "tls_end": 0.5}, "rwa", "general"),
        ({"envelope": "raised_cosine"}, "rwa", "general"),
        ({}, "lab-beat", "general"),
        ({"tones": ()}, "rwa", "diagonal"),
        ({"tones": (two_level_tone(), model.RamanTone(-4.5, -3.5, 40.0))},
         "rwa", "general"),
    ], ids=["square", "tls-ramp", "shaped", "lab-beat", "dark", "two-beats"])
    def test_kind_follows_the_data(self, pulse, frame, kind):
        seg = sq.PulseSegment(**{"duration": 0.01, "tones": (two_level_tone(),),
                                 **pulse})
        sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=FIELDS),
                           frame=frame)
        assert sched.segments[0].kind == kind


class TestIntegratorOrder:
    def test_halving_step_gains_nominal_order(self):
        # a pair coupling plus a zero-amplitude tone beating at
        # 1/(50 step): the segment is time-dependent, so RK45 steps it
        # with that max step, while H stays constant; exact reference
        # via eigenstepping
        span = 0.004
        coupling = compiled([two_level_tone()], span).segments[0].tones[0]
        levels = np.zeros(DIM)
        h_const = dynamics.Segment(0.0, span, levels, levels,
                                   tones=(coupling,)).h_const
        psi0 = basis_state(-2.5)
        ref = dynamics.propagator(h_const, 0, span) @ psi0

        def err_at(step):
            idle = (np.zeros((DIM, DIM)), 1.0 / (50 * step), 0.0)
            seg = dynamics.Segment(0.0, span, levels, levels,
                                   tones=(coupling, idle))
            assert seg.kind == "general"
            assert seg.f_max_hz == 1.0 / (50 * step)
            traj = dynamics.evolve_pure(psi0, dynamics.Schedule((seg,)),
                                        tol=1e-2)
            return np.linalg.norm(traj.final - ref)

        e1 = err_at(span / 40)
        e2 = err_at(span / 80)
        assert e1 / e2 > 2**4  # at least the nominal order-4 gain

    def test_sample_just_past_a_solved_segment_is_its_end_state(self):
        # the walker gives a segment the samples up to TIME_SLACK past
        # its end, as a duration summed in another order can land; RK45 took
        # such a sample outside its span and raised
        seq = sq.PulseSequence(segments=(
            sq.pulse((-2.5, -1.5), 400.0, WEAK_FIELDS, np.pi / 2,
                     envelope="raised_cosine", warn_regime=False),
            sq.dark_time(1e-4)), fields=WEAK_FIELDS)
        sched = sq.compile(seq)
        t_end = sched.segments[0].t1
        psi = basis_state(-2.5)
        at_end = dynamics.evolve_pure(psi, sched, t_eval=[t_end, sched.t1]).states
        past = dynamics.evolve_pure(psi, sched, t_eval=[np.nextafter(t_end, 1.0),
                                                        sched.t1]).states
        assert np.array_equal(past, at_end)

    def test_linear_ramp_corners_end_a_solve(self):
        # RK45 across a corner of the trapezoid missed tol 1e-11 by a
        # factor of about 100 on this segment; the reference is DOP853
        # solved piece by piece between the corners
        tones = (model.RamanTone(-1.5, 0.5, 50.0, detuning_hz=16.0),
                 model.RamanTone(-0.5, 0.5, 200.0, detuning_hz=8.5))
        span, ramp = 3.725e-4, 0.3
        seg = sq.PulseSegment(duration=span, tones=tones, envelope="linear_ramp",
                              envelope_param=ramp, tls_start=0.875, tls_end=0.875)
        sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=WEAK_FIELDS))
        data = sched.segments[0]
        assert data.kinks == pytest.approx((ramp * span, (1 - ramp) * span))
        psi = np.zeros(DIM, dtype=complex)
        psi[0], psi[1] = 0.6, 0.8j
        ts = [0.0, ramp * span, 2e-4, (1 - ramp) * span, span]
        ref, y = [psi], psi
        for ta, tb in zip(ts, ts[1:]):
            y = solve_ivp(lambda t, v: -2j * np.pi * (data.hamiltonian(t) @ v),
                          (ta, tb), y, method="DOP853", rtol=1e-13,
                          atol=1e-15).y[:, -1]
            ref.append(y)
        for tol in (1e-10, 1e-11):
            pure = dynamics.evolve_pure(psi, sched, tol=tol, t_eval=ts).states
            rho = dynamics.evolve_density(np.outer(psi, psi.conj()), sched,
                                          tol=tol, t_eval=ts).states
            for p, r, v in zip(pure, rho, ref):
                assert np.max(np.abs(p - v)) < 10 * tol
                assert np.max(np.abs(r - np.outer(v, v.conj()))) < 10 * tol


PROPERTY = settings(max_examples=25, deadline=None, database=None)
UNIT = st.floats(0.0, 1.0)
WEAK_FIELDS = model.FieldParams(b_hz=96.0, q_hz=-32.0)
TONES = st.builds(
    lambda i, dm, omega, detuning, phase: model.RamanTone(
        i - 4.5, i - 4.5 + dm, omega, detuning_hz=detuning, phase=phase),
    st.integers(0, DIM - 3), st.sampled_from((1, 2)), st.floats(50.0, 400.0),
    st.floats(-40.0, 40.0), st.floats(-np.pi, np.pi))


@st.composite
def pulse_sequences(draw, constant=False):
    """A one-pulse sequence and a frame; ``constant`` draws only what
    compiles to a constant segment: square, rotating frame, flat TLS
    multiplier, and tones that all beat at zero."""
    tones = draw(st.lists(TONES, min_size=1, max_size=2))
    tls_start = draw(UNIT)
    if constant:
        # tones on the first tone's pair and detuning share its LO
        tones = [replace(t, m_low=tones[0].m_low, m_high=tones[0].m_high,
                         detuning_hz=tones[0].detuning_hz) for t in tones]
        envelope, tls_end, frame = "square", tls_start, "rwa"
    else:
        envelope = draw(st.sampled_from(sq.ENVELOPES))
        tls_end = draw(st.one_of(st.just(tls_start), UNIT))
        frame = draw(st.sampled_from(("rwa", "lab-beat")))
    seg = sq.PulseSegment(duration=draw(st.floats(1e-4, 5e-4)),
                          tones=tuple(tones), envelope=envelope,
                          envelope_param=draw(st.floats(0.05, 0.5)),
                          tls_start=tls_start, tls_end=tls_end)
    return sq.PulseSequence(segments=(seg,), fields=WEAK_FIELDS), frame


class TestDataSegmentProperties:
    @PROPERTY
    @given(drawn=pulse_sequences())
    def test_propagator_is_unitary(self, drawn):
        seq, frame = drawn
        u = dynamics.propagator(sq.compile(seq, frame=frame), tol=1e-11)
        assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-10

    @PROPERTY
    @given(drawn=pulse_sequences(), level=st.integers(0, DIM - 2))
    def test_density_without_channels_equals_pure(self, drawn, level):
        seq, frame = drawn
        sched = sq.compile(seq, lindblad=model.LindbladSpec(), frame=frame)
        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        pure = dynamics.evolve_pure(psi, sched, tol=1e-11).final
        rho = dynamics.evolve_density(np.outer(psi, psi.conj()), sched,
                                      tol=1e-11).final
        assert np.max(np.abs(rho - np.outer(pure, pure.conj()))) < 1e-9

    @PROPERTY
    @given(drawn=pulse_sequences(constant=True),
           fractions=st.lists(UNIT, min_size=1, max_size=9))
    def test_constant_segment_hamiltonian_is_h_const(self, drawn, fractions):
        seq, frame = drawn
        seg = sq.compile(seq, frame=frame).segments[0]
        assert seg.kind == "constant"
        for f in fractions:
            assert np.array_equal(seg.hamiltonian(seg.t0 + f * seg.duration),
                                  seg.h_const)


@st.composite
def constant_sequences(draw):
    """Two to four segments in the rotating frame, each a dark time or a
    pulse drawn by ``pulse_sequences(constant=True)``."""
    segments = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            seq, _ = draw(pulse_sequences(constant=True))
            segments.append(seq.segments[0])
        else:
            segments.append(sq.dark_time(draw(st.floats(1e-5, 5e-4))))
    return sq.PulseSequence(segments=tuple(segments), fields=WEAK_FIELDS)


class TestSequenceProperties:
    @settings(max_examples=10, deadline=None, database=None)
    @given(seq=constant_sequences(), level=st.integers(0, DIM - 2))
    def test_unitary_propagator_and_engines_agree(self, seq, level):
        pure_sched = sq.compile(seq)
        u = dynamics.propagator(pure_sched)
        assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-12
        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        pure = sq.evolve(pure_sched, psi).final
        density_sched = sq.compile(seq, lindblad=model.LindbladSpec())
        rho = sq.evolve(density_sched, psi).final
        assert np.max(np.abs(rho - np.outer(pure, pure.conj()))) < 1e-10


EIGEN_CHANNELS = {
    "empty": model.LindbladSpec(),
    "scattering": model.photon_scattering_channels(),
    "scattering+linear dephasing": model.photon_scattering_channels().merge(
        model.inhomogeneous_dephasing()),
    "quadratic dephasing": model.inhomogeneous_dephasing(mode="quadratic"),
}


@st.composite
def constant_liouville_scans(draw):
    """A constant Raman segment under a flat TLS multiplier and one of
    ``EIGEN_CHANNELS``, with 1 to 8 sample times in it."""
    i = draw(st.integers(0, DIM - 3))
    tone = model.RamanTone(i - 4.5, i - 4.5 + draw(st.sampled_from((1, 2))),
                           draw(st.floats(20.0, 400.0)),
                           detuning_hz=draw(st.floats(-40.0, 40.0)))
    mult = draw(UNIT)
    duration = draw(st.floats(1e-3, 0.35))
    seg = sq.PulseSegment(duration=duration, tones=(tone,),
                          tls_start=mult, tls_end=mult)
    lindblad = EIGEN_CHANNELS[draw(st.sampled_from(sorted(EIGEN_CHANNELS)))]
    sched = sq.compile(sq.PulseSequence(segments=(seg,), fields=FIELDS),
                       lindblad=lindblad)
    percents = draw(st.lists(st.integers(1, 100), min_size=1,
                             max_size=8, unique=True))
    return sched, duration * np.sort(percents) / 100


class TestEigenProperties:
    @PROPERTY
    @given(drawn=constant_liouville_scans(), level=st.integers(0, DIM - 2),
           column=st.permutations(range(DIM)).map(lambda p: p[:2]))
    def test_eigen_path_equals_chained_expm(self, drawn, level, column):
        sched, times = drawn
        seg = sched.segments[0]
        assert seg.kind == "constant"
        sup = dynamics._constant_liouvillian(seg)
        r = dynamics._to_hermitian_basis(
            dynamics._to_hermitian_basis(sup).conj().T).conj().T
        assert np.max(np.abs(r.imag)) <= dynamics.EIG_IMAG_MAX * np.max(np.abs(r))
        lam, v, v_inv = dynamics._eigen(sup)
        assert np.linalg.norm(v * lam @ v_inv - sup) <= 1e-12 * np.linalg.norm(sup)

        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        rho0 = np.outer(psi, psi.conj())
        # vec(|i><j|), i != j: not Hermitian, a column of the superoperator
        unit = np.zeros(DIM * DIM, dtype=complex)
        unit[column[0] * DIM + column[1]] = 1.0
        dynamics.clear_caches()
        rho = dynamics.evolve_density(rho0, sched, t_eval=times).states
        cols, _ = dynamics._walk(sched, unit, times, dynamics.DEFAULT_RTOL,
                                 liouville=True)
        # both walks step from one spectrum, and none chains expm
        assert dynamics._SPECTRA.cache_info()[:2] == (1, 1)
        maps = [expm(sup * (t - seg.t0)) for t in times]
        exact_rho = np.array([m @ rho0.reshape(-1) for m in maps])
        exact_cols = np.array([m @ unit for m in maps])
        assert np.max(np.abs(rho.reshape(len(times), -1) - exact_rho)) <= 1e-10
        assert np.max(np.abs(np.array(cols) - exact_cols)) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) <= 1e-13


SPLIT_CHANNELS = {
    "scattering+linear dephasing": EIGEN_CHANNELS["scattering+linear dephasing"],
    "transfer+dephasing": _small_lindblad(),
}


@st.composite
def square_segments(draw, kind):
    """One compiled segment of ``kind`` with a square envelope (a square
    segment cut in two is two square segments), for the pure engine or,
    under one of ``SPLIT_CHANNELS``, the density engine."""
    lindblad = draw(st.sampled_from([None, *sorted(SPLIT_CHANNELS)]))
    if kind == "diagonal":
        seq = sq.PulseSequence(segments=(sq.tls_ramp(
            draw(st.floats(1e-4, 5e-3)), draw(UNIT), draw(UNIT)),), fields=WEAK_FIELDS)
        frame = "rwa"
    else:
        seq, frame = draw(pulse_sequences(constant=kind == "constant"))
        seq = replace(seq, segments=(replace(seq.segments[0], envelope="square"),))
    seg = sq.compile(seq, lindblad=SPLIT_CHANNELS.get(lindblad),
                     frame=frame).segments[0]
    assume(seg.kind == kind)
    return seg, lindblad is not None


def _split(seg, fraction):
    """``seg`` as two segments meeting at t0 + fraction * duration: the
    level diagonal and the multiplier cut where they reach, and each
    tone's phase run on to the cut."""
    cut = seg.t0 + fraction * seg.duration
    diag, mult = seg._diag_at(seg._fraction(cut)), seg.multiplier(cut)
    tones = tuple((cmat, beat, phi + 2 * np.pi * beat * (cut - seg.t0))
                  for cmat, beat, phi in seg.tones)
    return (replace(seg, t1=cut, diag_end=diag, mult_end=mult),
            replace(seg, t0=cut, diag_start=diag, mult_start=mult, tones=tones))


class TestSplitProperties:
    # the exact kinds compose to rounding, RK45 to its tolerance
    BOUNDS = {"constant": 1e-12, "diagonal": 1e-12,
              "general": 10 * dynamics.DEFAULT_RTOL}

    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(sorted(BOUNDS)),
           fraction=st.floats(0.05, 0.95))
    def test_split_segment_composes_to_the_same_map(self, data, kind, fraction):
        seg, density = data.draw(square_segments(kind))
        halves = _split(seg, fraction)
        assert [half.kind for half in halves] == [kind, kind]
        map_of = dynamics.superoperator if density else dynamics.propagator
        whole, first, second = (map_of(dynamics.Schedule((s,)))
                                for s in (seg, *halves))
        assert np.max(np.abs(second @ first - whole)) <= self.BOUNDS[kind]


@st.composite
def density_segments(draw, kind):
    """One compiled segment of ``kind`` under one of the package's channel
    sets; a general one may be shaped, ramped or in the lab-beat frame."""
    lindblad = _package_channel_sets()[draw(st.sampled_from(
        sorted(_package_channel_sets())))]
    if kind == "diagonal":
        seq, frame = sq.PulseSequence(segments=(sq.tls_ramp(
            draw(st.floats(1e-4, 5e-3)), draw(UNIT), draw(UNIT)),),
            fields=WEAK_FIELDS), "rwa"
    else:
        seq, frame = draw(pulse_sequences(constant=kind == "constant"))
    seg = sq.compile(seq, lindblad=lindblad, frame=frame).segments[0]
    assume(seg.kind == kind)
    return seg


def _choi(sup):
    """The Choi matrix sum_kl |k><l| (x) E(|k><l|) of the map ``sup`` on
    row-major vec(rho)."""
    return (sup.reshape(DIM, DIM, DIM, DIM).transpose(2, 0, 3, 1)
            .reshape(DIM * DIM, DIM * DIM))


class TestChoiProperties:
    # the exact kinds are positive to rounding, RK45 to its tolerance
    PSD_TOL = {"constant": 1e-12, "diagonal": 1e-12,
               "general": 10 * dynamics.DEFAULT_RTOL}

    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(sorted(PSD_TOL)))
    def test_superoperator_is_completely_positive(self, data, kind):
        seg = data.draw(density_segments(kind))
        choi = _choi(dynamics.superoperator(dynamics.Schedule((seg,))))
        assert np.max(np.abs(choi - choi.conj().T)) <= self.PSD_TOL[kind]
        assert np.linalg.eigvalsh(choi).min() >= -self.PSD_TOL[kind]


LINDBLADS = {
    "pure": None,
    "empty": model.LindbladSpec(),
    "scattering": model.monochromatic_scattering_channels(),
    "scattering+dephasing": model.monochromatic_scattering_channels().merge(
        model.inhomogeneous_dephasing()),
}


def _content_caches():
    """Every cache object held at module level by dynamics or sequence."""
    return [obj for module in (dynamics, sq) for obj in vars(module).values()
            if hasattr(obj, "cache_info") and not isinstance(obj, type)]


def _bypassing_caches(run):
    """run() with every content cache bypassed: each value built afresh."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics.ContentCache, "get", lambda self, key, build: build())
        return run()


class TestCacheProperties:
    @settings(max_examples=10, deadline=None, database=None)
    @given(drawn=constant_sequences(), lindblad=st.sampled_from(sorted(LINDBLADS)),
           phase_step=st.sampled_from((0.0, 0.3)), level=st.integers(0, DIM - 2))
    def test_cache_hit_equals_fresh_computation(self, drawn, lindblad, phase_step,
                                                level):
        # the drawn segments twice; a phase step between the copies makes
        # each repeated pulse differ from its first copy in phase alone
        seq = replace(drawn, segments=drawn.segments
                      + (sq.dark_time(1e-4, lo_phase_step=phase_step),)
                      + drawn.segments)
        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        ends = np.cumsum([s.duration for s in seq.segments])

        def run():
            sched = sq.compile(seq, lindblad=LINDBLADS[lindblad])
            return sq.evolve(sched, psi, t_eval=ends).states

        fresh = _bypassing_caches(run)
        dynamics.clear_caches()
        cold = run()
        warm = run()
        assert cold.tobytes() == fresh.tobytes()
        assert warm.tobytes() == fresh.tobytes()
        dynamics.clear_caches()
        assert all(cache.cache_info().currsize == 0 for cache in _content_caches())

    @settings(max_examples=10, deadline=None, database=None)
    @given(drawn=pulse_sequences(constant=True), gap=st.floats(1e-5, 5e-4),
           lindblad=st.sampled_from(sorted(LINDBLADS)))
    def test_pulse_at_two_start_times_builds_once(self, drawn, gap, lindblad):
        (pulse,) = drawn[0].segments
        seq = sq.PulseSequence(segments=(pulse, sq.dark_time(gap), pulse),
                               fields=WEAK_FIELDS)
        sched = sq.compile(seq, lindblad=LINDBLADS[lindblad])
        first, _, second = sched.segments
        assert first.t0 != second.t0 and first.key == second.key
        assert first.h_const.tobytes() == second.h_const.tobytes()
        dynamics.clear_caches()
        sq.evolve(sched, basis_state(pulse.tones[0].m_low))
        if lindblad != "pure":
            # a Liouville spectrum does not depend on the step length
            assert dynamics._SPECTRA.cache_info().misses == 1

    def test_repeated_density_rabi_scan_diagonalizes_nothing(self, monkeypatch):
        durations = np.linspace(1e-3, 0.02, 6)

        def run():
            return pr.rabi_scan((-2.5, -1.5), 71.0, FIELDS, durations,
                                lindblad=model.photon_scattering_channels()).populations

        fresh = _bypassing_caches(run)
        dynamics.clear_caches()
        cold = run()
        eig_calls = _count_calls(monkeypatch, np.linalg, "eig")
        warm = run()
        assert eig_calls == []
        assert cold.tobytes() == fresh.tobytes()
        assert warm.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("lindblad", ["scattering", "scattering+dephasing"])
    def test_spectra_and_dark_steps_keyed_by_multiplier(self, lindblad):
        # with q = 0 the multiplier leaves H alone, so pulses at two
        # multipliers share a key but not a spectrum; dark steps of 2^-12 s at
        # multiplier 1 and 2^-11 s at 0.5 share the integrated multiplier,
        # and so their decay, but not their level phases
        fields = model.FieldParams(b_hz=96.0, q_hz=0.0)
        pulse = sq.pulse((-2.5, -1.5), 71.0, fields, np.pi / 2, warn_regime=False)
        seq = sq.PulseSequence(segments=(
            sq.dark_time(2.0**-12), sq.dark_time(2.0**-11, tls_multiplier=0.5),
            pulse, replace(pulse, tls_start=0.5, tls_end=0.5)), fields=fields)
        spec = LINDBLADS[lindblad]
        dark_a, dark_b, pulse_a, pulse_b = sq.compile(seq, lindblad=spec).segments
        assert pulse_a.key == pulse_b.key
        assert (dark_a._multiplier_integral(dark_a.t0, dark_a.t1)
                == dark_b._multiplier_integral(dark_b.t0, dark_b.t1))

        psi = (basis_state(-2.5) + basis_state(-1.5)) / np.sqrt(2)

        def run():
            return sq.evolve(sq.compile(seq, lindblad=spec), psi).states

        fresh = _bypassing_caches(run)
        dynamics.clear_caches()
        assert run().tobytes() == fresh.tobytes()

    def test_flat_diagonal_integral_keeps_general_formula_bits(self):
        d = np.array([-0.0, 0.0, -1.5e3, 2.0e3, 0.5, -0.0, 7.0, -3.0, 1e-300, 9.0])
        seg = dynamics.Segment(0.0, 2.0**-10, d, d.copy())
        assert seg._diag_flat is not None
        for ta, tb in ((0.0, seg.t1), (1e-4, 7e-4), (3e-4, seg.t1)):
            general = 0.5 * (seg._diag_at(seg._fraction(ta))
                             + seg._diag_at(seg._fraction(tb))) * (tb - ta)
            assert seg._diag_integral(ta, tb).tobytes() == general.tobytes()


class TestLabBeatFrame:
    @staticmethod
    def _resonance_shift(omega, beat):
        fields = model.FieldParams(b_hz=beat, q_hz=0.0)

        def max_transfer(delta):
            tone = model.RamanTone(-2.5, -1.5, omega, detuning_hz=delta,
                                   cg_weighting=False)
            ts = np.linspace(1e-6, 1.2 / omega, 300)
            h = compiled([tone], ts[-1], fields, frame="lab-beat")
            traj = dynamics.evolve_pure(basis_state(-2.5), h, t_eval=ts,
                                        tol=1e-8)
            return traj.populations()[:, 3].max()

        pred = omega**2 / (4 * beat)
        deltas = np.linspace(-3 * pred, 3 * pred, 9)
        peaks = [max_transfer(d) for d in deltas]
        coef = np.polyfit(deltas, peaks, 2)
        return -coef[1] / (2 * coef[0]), pred

    def test_bloch_siegert_shift_magnitude_and_scaling(self):
        # counter-rotating terms shift the extracted resonance by
        # Omega^2/(4 beat); the sign follows this drive convention.
        # Probed at Omega/beat = 0.1 .. 0.125 where the lowest-order
        # estimate is valid and the transfer probe resolves the shift.
        shift, pred = self._resonance_shift(400.0, 4000.0)
        assert abs(shift) == pytest.approx(pred, rel=0.10)
        shift2, pred2 = self._resonance_shift(500.0, 4000.0)
        assert abs(shift2) == pytest.approx(pred2, rel=0.10)
        assert abs(shift2) / abs(shift) == pytest.approx((500 / 400) ** 2,
                                                         rel=0.10)

    def test_step_bound_from_lab_diagonal(self):
        tone = model.RamanTone(-2.5, -1.5, 71.0)
        seg = compiled([tone], 0.01, frame="lab-beat").segments[0]
        lab = FIELDS.level_shifts()
        assert np.array_equal(np.diag(seg.hamiltonian(0.0)).real, lab)
        assert seg.f_max_hz == max(np.max(np.abs(lab)),
                                   abs(tone.lo_freq_hz(FIELDS)))

    def test_ramsey_matches_rwa_across_segments(self):
        # the lab-beat frame stays phase-continuous with the LO across a
        # dark time, so a detuned Ramsey fringe agrees with the RWA up to
        # Bloch-Siegert-size corrections (Omega/beat = 1/40)
        fields = model.FieldParams(b_hz=4000.0, q_hz=0.0)

        def half_pi(phase):
            return sq.pulse((-2.5, -1.5), 100.0, fields, np.pi / 2,
                            detuning_hz=30.0, phase=phase, cg_weighting=False,
                            warn_regime=False)

        seq = sq.PulseSequence(segments=(half_pi(0.0), sq.dark_time(3.3e-3),
                                         half_pi(0.4)), fields=fields)
        pops = [dynamics.evolve_pure(basis_state(-2.5),
                                     sq.compile(seq, frame=frame),
                                     tol=1e-8).populations()[-1]
                for frame in ("rwa", "lab-beat")]
        assert np.max(np.abs(pops[0] - pops[1])) < 5e-3

    def test_converges_to_rwa_for_weak_drive(self):
        fields = model.FieldParams(b_hz=4000.0, q_hz=0.0)
        tone = model.RamanTone(-2.5, -1.5, 40.0, cg_weighting=False)
        h = compiled([tone], 0.5 / 40.0, fields, frame="lab-beat")
        traj = dynamics.evolve_pure(basis_state(-2.5), h, tol=1e-8)
        assert traj.populations()[-1][3] > 0.999


class TestTrajectory:
    def test_csv_round_trip(self, tmp_path):
        ts = np.linspace(1e-4, 0.01, 11)
        h = compiled([two_level_tone()], ts[-1])
        traj = dynamics.evolve_pure(basis_state(-2.5), h, t_eval=ts)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, coherence_pairs=[(-2.5, -1.5)])
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (11, 13)
        assert np.allclose(data[:, 1:11].sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("envelope", ["square", "raised_cosine"])
    @pytest.mark.parametrize("engine", ["pure", "density"])
    def test_samples_within_the_slack_past_the_end_are_reached(self, engine,
                                                                envelope):
        # the span check accepts samples up to TIME_SLACK past the end,
        # and the walker hands them to the last segment; it used to hand
        # it only those up to 1e-15 s past, and the walk then raised
        seq = sq.PulseSequence(segments=(
            sq.PulseSegment(duration=1e-3, tones=(two_level_tone(),),
                            envelope=envelope),), fields=FIELDS)
        sched = sq.compile(seq, lindblad=model.photon_scattering_channels()
                           if engine == "density" else None)
        psi = basis_state(-2.5)
        state = psi if engine == "pure" else np.outer(psi, psi.conj())
        evolve = dynamics.evolve_pure if engine == "pure" else dynamics.evolve_density
        at_end = evolve(state, sched, t_eval=[5e-4, sched.t1]).states
        past = evolve(state, sched, t_eval=[5e-4, sched.t1 + 5e-14,
                                            sched.t1 + 5e-13]).states
        assert np.array_equal(past[0], at_end[0])
        # in 5e-13 s a state moves by about 2 pi f_max 5e-13, 4e-8 here
        moved = dynamics.TWO_PI * sched.segments[0].f_max_hz * 5e-13
        assert np.max(np.abs(past[1:] - at_end[1])) < moved
        with pytest.raises(dynamics.DynamicsError, match="outside the schedule"):
            evolve(state, sched, t_eval=[5e-4, sched.t1 + 2 * dynamics.TIME_SLACK])

    def test_times_must_increase(self):
        h = np.zeros((DIM, DIM))
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(basis_state(0.5), h, 0, 1.0,
                                 t_eval=[0.5, 0.2])
