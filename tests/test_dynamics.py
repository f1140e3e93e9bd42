import importlib
import pkgutil
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import sunspin
from sunspin import dynamics, model, protocols as pr, sequence as sq
from sunspin.spin_core import DIM, basis_state, m_index

FIELDS = model.FieldParams(b_hz=960.0, q_hz=-320.0)


def two_level_tone(omega=71.0, detuning=0.0):
    return model.RamanTone(-2.5, -1.5, omega, detuning_hz=detuning,
                           cg_weighting=False)


def compiled(tones, duration, fields=FIELDS):
    """One-segment schedule of ``tones`` (a dark time if there are none)."""
    seg = sq.PulseSegment(duration=duration, tones=tuple(tones))
    return sq.compile(sq.PulseSequence(segments=(seg,), fields=fields))


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
        traj = dynamics.evolve_pure(psi, dynamics.hold(np.zeros((DIM, DIM)), 0.3))
        assert np.allclose(traj.final, psi)

    def test_norm_preserved(self):
        h = compiled([two_level_tone()], 0.2)
        traj = dynamics.evolve_pure(basis_state(-2.5), h)
        assert abs(np.linalg.norm(traj.final) - 1) < 1e-9

    def test_non_hermitian_rejected(self):
        h = np.zeros((DIM, DIM), dtype=complex)
        h[0, 1] = 1.0  # not mirrored
        with pytest.raises(dynamics.DynamicsError):
            dynamics.hold(h, 0.1)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(2.0 * basis_state(-2.5),
                                 dynamics.hold(np.zeros((DIM, DIM)), 0), 0.1)


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
        traj = dynamics.evolve_density(
            rho0, dynamics.hold(np.zeros((DIM, DIM)), t1, spec.channels))
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
            traj = dynamics.evolve_density(rho0, dynamics.hold(h, 0.08, ops))
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
        h = compiled([], 0.3).segments[0].hamiltonian(0.0)
        traj = dynamics.evolve_density(rho0, dynamics.hold(h, 0.3, spec.channels))
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
        taken = _spy_samplers(monkeypatch)
        final = dynamics.evolve_density(rho0, sched).final
        assert taken == ["_closed_form"]
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

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_rejected(self, rate):
        op = np.eye(DIM, dtype=complex)
        with pytest.raises(model.ModelError, match=f"channel rate {rate} is not finite"):
            model.LindbladSpec(channels=((op, 1.0), (op, rate)))


class TestPropagator:
    def test_zero_duration_identity(self):
        h = compiled([two_level_tone()], 0.01).segments[0].hamiltonian(0.0)
        assert np.allclose(dynamics.propagator(dynamics.hold(h, 0)), np.eye(DIM))

    def test_square_half_pi(self):
        from sunspin.spin_core import pair_rotation
        tau = 0.25 / 71
        h = compiled([two_level_tone()], tau)
        u = dynamics.propagator(h)
        # compare in the interaction picture of the in-frame diagonal
        diag = np.diag(h.segments[0].hamiltonian(0.0)).real
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
    return [(np.frombuffer(op, dtype=complex).reshape(DIM, DIM), rate * seg.multiplier(t))
            for op, rate in seg.channel_set.key]


def _mixed_sequence():
    """Square pulse, dark time, TLS ramp and a phased pulse on the next
    pair down."""
    fields = model.FieldParams(b_hz=96.0, q_hz=-32.0)
    segs = (sq.pulse((-2.5, -1.5), 400.0, np.pi / 2),
            sq.dark_time(2e-3),
            sq.tls_ramp(1e-3, 1.0, 0.3),
            sq.pulse((-3.5, -2.5), 400.0, np.pi / 2, phase=0.7))
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
        assert kinds == ["constant", "diagonal", "diagonal", "constant"]
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
        sup = dynamics.liouvillian(dark.hamiltonian(0.0), _channels_at(dark, 0.0))
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
        sup = dynamics.liouvillian(seg.h_const, _channels_at(seg, 0.0))
        exact = np.array([expm(sup * t) @ rho0.reshape(-1) for t in ts])
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
        assert seg.kind == "constant" and seg.channel_set.key
        ts = np.linspace(0.004, 0.02, n_samples)
        psi = basis_state(-2.5)
        rho0 = np.outer(psi, psi.conj())
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        sup = dynamics.liouvillian(seg.h_const, _channels_at(seg, 0.0))
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
        states = dynamics.evolve_density(rho0, dynamics.hold(h, ts[-1], [(op, gamma)]),
                                         t_eval=ts).states
        # the rejected spectrum is kept as None, and each step takes one
        # expm of its own
        assert dynamics._spectrum.cache_info().currsize == 1
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
        # conjugate of the upper triangle), so the Liouvillian and the
        # spectrum kept of it are patched
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
        monkeypatch.setattr(dynamics, "_spectrum", lambda *key: dynamics._eigen(sup))
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
        # with q = 0 every tone set shares one LO, so none beats
        sets = _package_channel_sets()
        fields = model.FieldParams(b_hz=960.0, q_hz=0.0)
        for tones in self.TONE_SETS.values():
            for phi in (0.0, 0.7, -2.1):
                seg = compiled(tones(phi), 0.01, fields).segments[0]
                h = seg.hamiltonian(0.003)
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
        cached = dynamics.channel_set(spec.channels)
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
        cached = dynamics.channel_set([(op, 0.0)])
        assert not cached.diagonal_safe
        assert not np.any(cached.dissipator)


class TestIgnoredInputsRejected:
    def test_pure_with_channels(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(_probe_state(), sched)

    def test_propagator_with_channels(self):
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        with pytest.raises(dynamics.DynamicsError):
            dynamics.propagator(sched)


class TestEngineChoice:
    """The compiled schedule carries its engine; ``dynamics.evolve`` and
    ``pullback`` read it."""

    def test_any_lindblad_spec_selects_the_density_engine(self):
        assert sq.compile(_mixed_sequence()).density is False
        assert sq.compile(_mixed_sequence(), lindblad=model.LindbladSpec()).density is True

    @pytest.mark.parametrize("lindblad", [None, model.LindbladSpec()],
                             ids=["pure", "density"])
    def test_sections_and_replacements_keep_the_engine(self, lindblad):
        sched = sq.compile(_mixed_sequence(), lindblad=lindblad)
        assert pr._section(sched, 1, 3).density == sched.density
        assert pr._section(sched, 1, 3).segments == sched.segments[1:3]
        assert replace(sched, segments=sched.segments[:1]).density == sched.density

    @pytest.mark.parametrize("lindblad", [None, model.LindbladSpec(), _small_lindblad()],
                             ids=["pure", "empty", "channels"])
    def test_evolve_reaches_its_engine_once(self, monkeypatch, lindblad):
        # wrappers installed at the module globals, as perfbench's
        # tracer installs them
        calls = []

        def counting(name):
            original = getattr(dynamics, name)
            return lambda *a, **kw: calls.append(name) or original(*a, **kw)

        for name in ("evolve_pure", "evolve_density"):
            monkeypatch.setattr(dynamics, name, counting(name))
        sched = sq.compile(_mixed_sequence(), lindblad=lindblad)
        traj = dynamics.evolve(sched, _probe_state())
        engine = "evolve_pure" if lindblad is None else "evolve_density"
        assert calls == [engine]
        assert traj.kind == ("pure" if lindblad is None else "density")

    def test_hold_selects_its_engine(self):
        h = np.diag(np.arange(DIM, dtype=float))
        assert dynamics.hold(h, 0.1).density is False
        assert dynamics.hold(h, 0.1, channels=[]).density is True
        psi = _probe_state()
        pure = dynamics.evolve(dynamics.hold(h, 0.1), psi).final
        rho = dynamics.evolve(dynamics.hold(h, 0.1, channels=[]), psi).final
        assert np.max(np.abs(rho - np.outer(pure, pure.conj()))) < 1e-12

    def test_hold_rejects_a_negative_rate(self):
        op = np.diag(np.arange(DIM)).astype(complex)
        with pytest.raises(dynamics.DynamicsError, match="negative channel rate"):
            dynamics.hold(np.zeros((DIM, DIM)), 0.1, channels=[(op, -1.0)])

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
    def test_hold_rejects_a_non_finite_rate(self, rate):
        op = np.diag(np.arange(DIM)).astype(complex)
        with pytest.raises(dynamics.DynamicsError,
                           match=f"channel rate {rate} is not finite"):
            dynamics.hold(np.zeros((DIM, DIM)), 0.1, channels=[(op, 1.0), (op, rate)])

    @pytest.mark.parametrize("shape", [(5, 5), (11, 11), (DIM,)])
    def test_hold_rejects_a_matrix_that_is_not_10x10(self, shape):
        with pytest.raises(dynamics.DynamicsError,
                           match=re.escape(f"10x10 matrix, got shape {shape}")):
            dynamics.hold(np.zeros(shape), 0.1)


def _two_entry_channels():
    """One jump operator with two entries: not diagonal-safe, so the
    closed form does not take it."""
    op = np.zeros((DIM, DIM), dtype=complex)
    op[m_index(-3.5), m_index(-2.5)] = 1.0
    op[m_index(-1.5), m_index(-3.5)] = 0.5
    return model.LindbladSpec(channels=((op, 4.0),))


class TestSegmentKind:
    """Each compiled segment gets the exact method that steps it, or
    compile names why none does."""

    @pytest.mark.parametrize("pulse, lindblad, kind", [
        ({}, None, "constant"),
        ({"tls_start": 1.0, "tls_end": 0.5}, None, "a tone during a TLS ramp"),
        ({"tones": ()}, None, "diagonal"),
        ({"tones": (two_level_tone(), model.RamanTone(-4.5, -3.5, 40.0))}, None,
         "residual beat of 1280 Hz"),
        ({"tones": (), "tls_end": 0.5}, "photon+dephasing", "diagonal"),
        ({"tones": ()}, "two-entry", "constant"),
        ({"tones": (), "tls_end": 0.5}, "two-entry", "not diagonal-safe"),
    ], ids=["square", "tls-ramp", "dark", "two-beats", "ramp-package-channels",
            "dark-two-entry-channels", "ramp-two-entry-channels"])
    def test_kind_follows_the_data(self, pulse, lindblad, kind):
        seg = sq.PulseSegment(**{"duration": 0.01, "tones": (two_level_tone(),),
                                 **pulse})
        spec = {None: None, "two-entry": _two_entry_channels(),
                **_package_channel_sets()}[lindblad]
        seq = sq.PulseSequence(segments=(sq.dark_time(1e-3), seg), fields=FIELDS)
        if kind in ("constant", "diagonal"):
            assert sq.compile(seq, lindblad=spec).segments[1].kind == kind
        else:
            with pytest.raises(sq.SequenceError, match=f"segment 1: .*{kind}"):
                sq.compile(seq, lindblad=spec)

    @pytest.mark.parametrize("data, cause", [
        ({"coupling": np.triu(np.ones((DIM, DIM)), 1), "mult_end": 0.5},
         "a tone during a TLS ramp"),
        # a 50 Hz drive on levels 0-1 under levels ramping to 100 m Hz over
        # 10 ms: stepped at diag_start, it would end in (1, 0) on the pair,
        # where the ramped H gives (0.715, 0.285)
        ({"duration": 0.01, "coupling": np.diag([50.0] + [0.0] * (DIM - 2), k=1),
          "diag_end": 100.0 * np.arange(DIM)},
         "a coupling over a moving level diagonal"),
        ({"mult_end": 0.5,
          "channel_set": dynamics.channel_set(_two_entry_channels().channels)}, "a ramp"),
        ({"diag_end": np.arange(DIM, dtype=float),
          "channel_set": dynamics.channel_set(_two_entry_channels().channels)}, "a ramp"),
    ], ids=["tone-during-ramp", "coupling-over-moving-diagonal",
            "ramp-two-entry-channels", "moving-diagonal-two-entry-channels"])
    def test_hand_built_segment_no_exact_method_steps_is_rejected(self, data, cause):
        fields = {"duration": 1e-3, "diag_start": np.zeros(DIM),
                  "diag_end": np.zeros(DIM), **data}
        with pytest.raises(dynamics.DynamicsError,
                           match=f"^{cause}.*: no exact method steps it"):
            dynamics.Segment(**fields)

    def test_tones_under_a_sub_threshold_ramp_that_moves_the_diagonal(self):
        # the multiplier endpoints differ by less than FLAT_MULTIPLIER, but
        # the TLS-tied shifts still move the level diagonal's last bits
        fields = model.FieldParams(b_hz=100.0, q_hz=-30.3, b_vector_hz=2.0)
        start = 0.3
        end = np.nextafter(start, 1.0)
        assert abs(end - start) < dynamics.FLAT_MULTIPLIER
        tone = two_level_tone()
        f_lo = tone.lo_freq_hz(fields)
        assert not np.array_equal(sq.frame_diagonal(fields, start, f_lo, 1),
                                  sq.frame_diagonal(fields, end, f_lo, 1))
        seg = sq.PulseSegment(duration=0.01, tones=(tone,), tls_start=start,
                              tls_end=end)
        with pytest.raises(sq.SequenceError,
                           match="segment 0: a coupling over a moving level diagonal"):
            sq.compile(sq.PulseSequence(segments=(seg,), fields=fields))

    @pytest.mark.parametrize("shape", [(100,), (5, 5), (4, 25)],
                             ids=["100", "5x5", "4x25"])
    def test_wrong_shaped_channel_operator_is_rejected(self, shape):
        op = np.zeros(shape, dtype=complex)
        op.flat[0] = 1.0
        with pytest.raises(dynamics.DynamicsError,
                           match="channel operators must be 10x10"):
            dynamics.hold(np.zeros((DIM, DIM)), 0.1, channels=[(op, 1.0)])

    def test_flat_dark_time_under_two_entry_channels_takes_the_eigen_path(
            self, monkeypatch):
        # its Liouvillian is constant, so one spectrum steps every sample
        sched = sq.compile(sq.PulseSequence(segments=(sq.dark_time(2e-3),),
                                            fields=WEAK_FIELDS),
                           lindblad=_two_entry_channels())
        seg = sched.segments[0]
        assert seg.kind == "constant"
        ts = np.linspace(1e-4, 2e-3, 7)
        rho0 = np.outer(_probe_state(), _probe_state().conj())
        dynamics.clear_caches()
        taken = _spy_samplers(monkeypatch)
        states = dynamics.evolve_density(rho0, sched, t_eval=ts).states
        assert taken == ["_eigen_step"]
        sup = dynamics.liouvillian(seg.hamiltonian(0.0), _channels_at(seg, 0.0))
        exact = np.array([expm(sup * t) @ rho0.reshape(-1) for t in ts])
        assert np.max(np.abs(states.reshape(len(ts), -1) - exact)) <= 1e-12


PROPERTY = settings(max_examples=25, deadline=None, database=None)
UNIT = st.floats(0.0, 1.0)
WEAK_FIELDS = model.FieldParams(b_hz=96.0, q_hz=-32.0)
TONES = st.builds(
    lambda i, dm, omega, detuning, phase: model.RamanTone(
        i - 4.5, i - 4.5 + dm, omega, detuning_hz=detuning, phase=phase),
    st.integers(0, DIM - 3), st.sampled_from((1, 2)), st.floats(50.0, 400.0),
    st.floats(-40.0, 40.0), st.floats(-np.pi, np.pi))


@st.composite
def pulse_sequences(draw):
    """A one-pulse sequence that compiles to a constant segment: tones on
    the first tone's pair and detuning, which share its LO and so do not
    beat, under a flat TLS multiplier."""
    tones = draw(st.lists(TONES, min_size=1, max_size=2))
    tones = [replace(t, m_low=tones[0].m_low, m_high=tones[0].m_high,
                     detuning_hz=tones[0].detuning_hz) for t in tones]
    mult = draw(UNIT)
    seg = sq.PulseSegment(duration=draw(st.floats(1e-4, 5e-4)),
                          tones=tuple(tones), tls_start=mult, tls_end=mult)
    return sq.PulseSequence(segments=(seg,), fields=WEAK_FIELDS)


class TestDataSegmentProperties:
    @PROPERTY
    @given(seq=pulse_sequences())
    def test_propagator_is_unitary(self, seq):
        u = dynamics.propagator(sq.compile(seq))
        assert np.max(np.abs(u.conj().T @ u - np.eye(DIM))) < 1e-10

    @PROPERTY
    @given(seq=pulse_sequences(), level=st.integers(0, DIM - 2))
    def test_density_without_channels_equals_pure(self, seq, level):
        sched = sq.compile(seq, lindblad=model.LindbladSpec())
        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        pure = dynamics.evolve_pure(psi, sched).final
        rho = dynamics.evolve_density(np.outer(psi, psi.conj()), sched).final
        assert np.max(np.abs(rho - np.outer(pure, pure.conj()))) < 1e-9

    @PROPERTY
    @given(seq=pulse_sequences(), fractions=st.lists(UNIT, min_size=1, max_size=9))
    def test_constant_segment_hamiltonian_is_h_const(self, seq, fractions):
        seg = sq.compile(seq).segments[0]
        assert seg.kind == "constant"
        for f in fractions:
            assert np.array_equal(seg.hamiltonian(f * seg.duration),
                                  seg.h_const)


@st.composite
def constant_sequences(draw):
    """Two to four segments in the rotating frame, each a dark time or a
    pulse drawn by ``pulse_sequences``."""
    segments = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            segments.append(draw(pulse_sequences()).segments[0])
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
        pure = dynamics.evolve(pure_sched, psi).final
        density_sched = sq.compile(seq, lindblad=model.LindbladSpec())
        rho = dynamics.evolve(density_sched, psi).final
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
        cols, _ = dynamics._walk(sched, unit, times)
        # both walks step from one spectrum, and none chains expm; with no
        # acting channel both take the unitary route and build none
        spectra = (0, 0) if not seg.channel_set.key or seg.mult_start == 0 else (1, 1)
        assert dynamics._spectrum.cache_info()[:2] == spectra
        maps = [expm(sup * t) for t in times]
        exact_rho = np.array([m @ rho0.reshape(-1) for m in maps])
        exact_cols = np.array([m @ unit for m in maps])
        assert np.max(np.abs(rho.reshape(len(times), -1) - exact_rho)) <= 1e-10
        assert np.max(np.abs(np.array(cols) - exact_cols)) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))) <= 1e-13


def _relative_1_norm_error(got, ref):
    return np.linalg.norm(got - ref, 1) / np.linalg.norm(ref, 1)


def _squarings(a):
    return dynamics._pade_plan(np.abs(a).sum(axis=0).max())[1]


def _rate_matrix_stack():
    """Scattering plus dephasing's rate matrix over dark steps of 1e-4 to
    3 s, a zero step first: every degree from 3 to 13 without squaring."""
    spec = model.photon_scattering_channels().merge(model.inhomogeneous_dephasing())
    rates = dynamics.channel_set(spec.channels).rate_matrix
    return rates * np.append(0.0, np.geomspace(1e-4, 3.0, 40))[:, None, None]


class TestExpm:
    """The package's own exponential against SciPy's, a test-side
    reference only.  Both are backward stable, but squaring s times can
    grow the rounding of the scaled exponential 2^s-fold (Higham 2005,
    sec. 2), so where the 1-norm forces s squarings two correct
    implementations agree to 1e-14 times 2^s."""

    @settings(max_examples=10, deadline=None, database=None)
    @given(drawn=constant_liouville_scans())
    def test_matches_scipy_on_drawn_liouvillians(self, drawn):
        sched, times = drawn
        steps = dynamics._constant_liouvillian(sched.segments[0]) * times[:, None, None]
        for step, mine in zip(steps, dynamics.expm(steps)):
            err = _relative_1_norm_error(mine, expm(step))
            assert err <= 1e-14 * 2.0 ** _squarings(step)

    def test_matches_scipy_on_rate_matrix_stacks(self):
        stack = _rate_matrix_stack()
        plans = {dynamics._pade_plan(np.abs(a).sum(axis=0).max()) for a in stack}
        assert plans == {(m, 0) for m in (*dynamics.PADE_THETAS, 13)}
        got = dynamics.expm(stack)
        assert np.array_equal(got[0], np.eye(DIM))
        for a, mine in zip(stack, got):
            assert _relative_1_norm_error(mine, expm(a)) <= 1e-14

    def test_matches_scipy_where_the_norm_forces_squaring(self):
        # criterion 2's Liouvillian over 0.3 ms: a 1-norm of 25, 3 squarings
        sup = dynamics._constant_liouvillian(_criterion_2_schedule(
            model.photon_scattering_channels()).segments[0])
        step = sup * 3e-4
        assert _squarings(step) == 3
        assert _relative_1_norm_error(dynamics.expm(step), expm(step)) <= 1e-14

    def test_stack_equals_its_matrices_one_at_a_time(self):
        # mixed degrees and squarings, real and complex: each matrix's
        # exponential is the same bits alone, in the stack or reordered
        rates = _rate_matrix_stack()
        real = np.concatenate([rates, rates[1:] * 40.0])
        sup = dynamics._constant_liouvillian(_criterion_2_schedule(
            model.photon_scattering_channels()).segments[0])
        complex_ = sup * np.geomspace(1e-7, 1e-2, 9)[:, None, None]
        for stack in (real, complex_, real.reshape(9, 9, DIM, DIM)):
            flat = stack.reshape((-1,) + stack.shape[-2:])
            got = dynamics.expm(stack).reshape(flat.shape)
            reordered = dynamics.expm(flat[::-1])[::-1]
            for a, mine, other in zip(flat, got, reordered):
                assert mine.tobytes() == dynamics.expm(a).tobytes() == other.tobytes()

    def test_squarings_exact_at_powers_of_two(self):
        theta = dynamics.PADE_THETA_13
        for s in range(4):
            norm = theta * 2.0**s
            assert dynamics._pade_plan(norm) == (13, s)
            assert dynamics._pade_plan(np.nextafter(norm, np.inf)) == (13, s + 1)
        for m, bound in dynamics.PADE_THETAS.items():
            assert dynamics._pade_plan(bound) == (m, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        a = np.zeros((DIM, DIM))
        a[2, 3] = bad
        with pytest.raises(dynamics.DynamicsError, match="non-finite"):
            dynamics.expm(a)


@st.composite
def channel_free_scans(draw):
    """A constant Raman segment on which no channel acts, compiled for the
    density engine and for the pure one, with 1 to 8 sample times in it:
    the empty set under a multiplier of 0 or a drawn one, or a package
    set under 0."""
    i = draw(st.integers(0, DIM - 3))
    tone = model.RamanTone(i - 4.5, i - 4.5 + draw(st.sampled_from((1, 2))),
                           draw(st.floats(20.0, 400.0)),
                           detuning_hz=draw(st.floats(-40.0, 40.0)))
    name = draw(st.sampled_from(sorted(EIGEN_CHANNELS)))
    mult = draw(st.sampled_from((0.0, draw(UNIT)))) if name == "empty" else 0.0
    duration = draw(st.floats(1e-3, 0.35))
    seq = sq.PulseSequence(segments=(sq.PulseSegment(
        duration=duration, tones=(tone,), tls_start=mult, tls_end=mult),),
        fields=FIELDS)
    percents = draw(st.lists(st.integers(1, 100), min_size=1,
                             max_size=8, unique=True))
    return (sq.compile(seq, lindblad=EIGEN_CHANNELS[name]), sq.compile(seq),
            duration * np.sort(percents) / 100)


class TestChannelFreeProperties:
    @PROPERTY
    @given(drawn=channel_free_scans(), level=st.integers(0, DIM - 2),
           seed=st.integers(0, 2**32 - 1))
    def test_density_engine_steps_as_the_pure_one(self, drawn, level, seed):
        density, pure, times = drawn
        assert density.segments[0].kind == "constant"
        assert density.segments[0].channel_free
        psi = np.zeros(DIM, dtype=complex)
        psi[level], psi[level + 1] = 0.6, 0.8j
        rows = _probe_rows(seed)
        dynamics.clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            eig_calls = _count_calls(mp, np.linalg, "eig")
            rho = dynamics.evolve_density(np.outer(psi, psi.conj()), density,
                                          t_eval=times).states
            sup = dynamics.superoperator(density)
            pulled = dynamics.pullback(density, rows)
        assert eig_calls == []
        assert dynamics._spectrum.cache_info().misses == 0

        states = dynamics.evolve_pure(psi, pure, t_eval=times).states
        u = dynamics.propagator(pure)
        u_map = np.kron(u, u.conj())
        assert np.max(np.abs(rho - np.einsum("ni,nj->nij", states, states.conj()))) <= 1e-13
        assert np.max(np.abs(sup - u_map)) <= 1e-13
        assert np.max(np.abs(pulled - dynamics.pullback(pure, rows))) <= 1e-13
        assert np.max(np.abs(pulled - rows @ u_map)) <= 1e-13

    def test_ends_in_several_blocks(self):
        # a Rabi scan's worth of ends, stepped at once
        seq = sq.PulseSequence(segments=(sq.PulseSegment(
            duration=0.35, tones=(model.RamanTone(-2.5, -1.5, 71.0, detuning_hz=3.0),)),),
            fields=FIELDS)
        times = np.linspace(1e-4, 0.35, 3 * dynamics.UNITARY_BLOCK + 5)
        psi = np.zeros(DIM, dtype=complex)
        psi[2], psi[3] = 0.6, 0.8j
        rho = dynamics.evolve_density(
            np.outer(psi, psi.conj()), sq.compile(seq, lindblad=EIGEN_CHANNELS["empty"]),
            t_eval=times).states
        states = dynamics.evolve_pure(psi, sq.compile(seq), t_eval=times).states
        assert np.max(np.abs(rho - np.einsum("ni,nj->nij", states, states.conj()))) <= 1e-13


SPLIT_CHANNELS = {
    "scattering+linear dephasing": EIGEN_CHANNELS["scattering+linear dephasing"],
    "transfer+dephasing": _small_lindblad(),
}


@st.composite
def square_segments(draw, kind):
    """One compiled segment of ``kind`` (a square segment cut in two is
    two square segments), for the pure engine or, under one of
    ``SPLIT_CHANNELS``, the density engine."""
    lindblad = draw(st.sampled_from([None, *sorted(SPLIT_CHANNELS)]))
    if kind == "diagonal":
        seq = sq.PulseSequence(segments=(sq.tls_ramp(
            draw(st.floats(1e-4, 5e-3)), draw(UNIT), draw(UNIT)),), fields=WEAK_FIELDS)
    else:
        seq = draw(pulse_sequences())
    seg = sq.compile(seq, lindblad=SPLIT_CHANNELS.get(lindblad)).segments[0]
    return seg, lindblad is not None


def _split(seg, fraction):
    """``seg`` as two segments meeting at fraction * duration: the level
    diagonal and the multiplier cut where they reach, and the coupling,
    a static drive, in both."""
    cut = fraction * seg.duration
    diag, mult = seg._diag_at(seg._fraction(cut)), seg.multiplier(cut)
    return (replace(seg, duration=cut, diag_end=diag, mult_end=mult),
            replace(seg, duration=seg.duration - cut, diag_start=diag,
                    mult_start=mult))


class TestSplitProperties:
    # both kinds compose to rounding
    BOUNDS = {"constant": 1e-12, "diagonal": 1e-12}

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
    sets."""
    lindblad = _package_channel_sets()[draw(st.sampled_from(
        sorted(_package_channel_sets())))]
    if kind == "diagonal":
        seq = sq.PulseSequence(segments=(sq.tls_ramp(
            draw(st.floats(1e-4, 5e-3)), draw(UNIT), draw(UNIT)),), fields=WEAK_FIELDS)
    else:
        seq = draw(pulse_sequences())
    return sq.compile(seq, lindblad=lindblad).segments[0]


def _choi(sup):
    """The Choi matrix sum_kl |k><l| (x) E(|k><l|) of the map ``sup`` on
    row-major vec(rho)."""
    return (sup.reshape(DIM, DIM, DIM, DIM).transpose(2, 0, 3, 1)
            .reshape(DIM * DIM, DIM * DIM))


class TestChoiProperties:
    # both kinds are positive to rounding
    PSD_TOL = {"constant": 1e-12, "diagonal": 1e-12}

    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(sorted(PSD_TOL)))
    def test_superoperator_is_completely_positive(self, data, kind):
        seg = data.draw(density_segments(kind))
        choi = _choi(dynamics.superoperator(dynamics.Schedule((seg,))))
        assert np.max(np.abs(choi - choi.conj().T)) <= self.PSD_TOL[kind]
        assert np.linalg.eigvalsh(choi).min() >= -self.PSD_TOL[kind]


@st.composite
def pullback_schedules(draw, kind):
    """A schedule of ``kind`` on the pure engine or, under one of the
    package's channel sets, the density engine: one constant or diagonal
    segment, or a constant pulse, a TLS ramp and a constant pulse
    ('mixed')."""
    lindblad = draw(st.sampled_from([None, *sorted(_package_channel_sets())]))
    ramp = sq.tls_ramp(draw(st.floats(1e-4, 5e-3)), draw(UNIT), draw(UNIT))
    if kind == "diagonal":
        segments = (ramp,)
    elif kind == "mixed":
        segments = tuple(draw(pulse_sequences()).segments[0] for _ in range(2))
        segments = (segments[0], ramp, segments[1])
    else:
        segments = draw(pulse_sequences()).segments
    return sq.compile(sq.PulseSequence(segments=segments, fields=WEAK_FIELDS),
                      lindblad=_package_channel_sets().get(lindblad))


def _reference_map(sched):
    """The schedule's map on row-major vec(rho), stepped forward:
    kron(U, conj U) on the pure engine, the superoperator on the density
    engine."""
    if sched.density:
        return dynamics.superoperator(sched)
    u = dynamics.propagator(sched)
    return np.kron(u, u.conj())


def _probe_rows(seed):
    """The ten population rows and three random rows with entries in the
    unit disk."""
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(0, 1, (3, DIM * DIM)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, (3, DIM * DIM)))
    return np.vstack([np.eye(DIM * DIM)[::DIM + 1], drawn])


class TestPullbackProperties:
    # every kind agrees to rounding
    BOUNDS = {"constant": 1e-13, "diagonal": 1e-13, "mixed": 1e-13}

    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(sorted(BOUNDS)),
           seed=st.integers(0, 2**32 - 1))
    def test_pullback_equals_rows_of_the_forward_map(self, data, kind, seed):
        sched = data.draw(pullback_schedules(kind))
        rows = _probe_rows(seed)
        pulled = dynamics.pullback(sched, rows)
        assert pulled.shape == rows.shape
        assert np.max(np.abs(pulled - rows @ _reference_map(sched))) <= self.BOUNDS[kind]

    def test_chained_constant_segment_pulls_back_through_expm(self, monkeypatch):
        # a Liouvillian without a usable spectrum steps by expm, backward too
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        rows = _probe_rows(7)
        dynamics.clear_caches()
        monkeypatch.setattr(dynamics, "_eigen", lambda sup: None)
        expm_calls = _count_calls(monkeypatch, dynamics, "expm")
        try:
            pulled = dynamics.pullback(pr._section(sched, 0, 1), rows)
            assert expm_calls
            reference = dynamics.superoperator(pr._section(sched, 0, 1))
        finally:
            # the None spectrum kept here must not reach later tests
            dynamics.clear_caches()
        assert np.max(np.abs(pulled - rows @ reference)) <= 1e-13


def _reading_rows(seed):
    """The ten population rows and three random rows that read real
    values: each, read as a 10x10 matrix, Hermitian with entries in the
    unit disk."""
    rng = np.random.default_rng(seed)
    drawn = rng.uniform(0, 1, (3, DIM, DIM)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, (3, DIM, DIM)))
    drawn = 0.5 * (drawn + drawn.conj().transpose(0, 2, 1))
    return np.vstack([pr._POP_ROWS, drawn.reshape(3, -1)])


def _projected(sched, state, rows, times):
    """rows @ vec(rho) at ``times``, from the states ``evolve`` returns."""
    traj = dynamics.evolve(sched, state, t_eval=times)
    states = traj.states
    if traj.kind == "pure":
        states = np.einsum("ni,nj->nij", states, states.conj())
    readings = states.reshape(len(times), -1) @ rows.T
    assert np.max(np.abs(readings.imag)) <= 1e-13
    return readings.real


def _times_in_segments(sched, fractions):
    """Sample times at ``fractions`` of every segment of ``sched``."""
    starts = np.array(sched.starts)
    times = (starts[:-1, None] + np.diff(starts)[:, None] * np.asarray(fractions))
    return np.unique(times)


# the sampler functions of _step's methods
SAMPLERS = ("_unitary", "_eigen_step", "_chained", "_closed_form")


def _spy_samplers(monkeypatch):
    """The names of the samplers called, in call order."""
    taken = []
    for name in SAMPLERS:
        original = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, _n=name, _f=original, **k:
                            taken.append(_n) or _f(*a, **k))
    return taken


def _no_spectrum(sup):
    return None


class TestExpect:
    """``expect`` reads what ``evolve`` followed by a row projection
    reads, on every method, and checks its inputs and its end state as
    ``evolve`` does."""

    SCATTER = model.photon_scattering_channels()
    CASES = {
        # (schedule, sample times, sampler calls, Liouvillian spectrum)
        "eigen": (lambda: _criterion_2_schedule(
            TestExpect.SCATTER.merge(model.inhomogeneous_dephasing())),
            np.linspace(1e-4, 0.35, 50), ["_eigen_step"], dynamics._eigen),
        "unitary, Liouville space": (lambda: _criterion_2_schedule(model.LindbladSpec()),
                                     np.linspace(1e-4, 0.35, 3 * dynamics.UNITARY_BLOCK + 5),
                                     ["_unitary"], dynamics._eigen),
        "chained expm": (lambda: _criterion_2_schedule(TestExpect.SCATTER),
                         np.linspace(1e-4, 0.35, 7), ["_chained"], _no_spectrum),
        "mixed, density": (lambda: sq.compile(_mixed_sequence(), lindblad=_small_lindblad()),
                           None, ["_eigen_step", "_closed_form", "_closed_form", "_eigen_step"],
                           dynamics._eigen),
        "mixed, pure": (lambda: sq.compile(_mixed_sequence()), None,
                        ["_unitary", "_closed_form", "_closed_form", "_unitary"],
                        dynamics._eigen),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reads_what_evolve_projects(self, case, monkeypatch):
        build, times, methods, eigen = self.CASES[case]
        sched = build()
        if times is None:
            # every segment sampled, at its start, inside and at its end
            times = _times_in_segments(sched, (0.0, 0.3, 0.7, 1.0))
        rows = _reading_rows(11)
        dynamics.clear_caches()
        monkeypatch.setattr(dynamics, "_eigen", eigen)
        try:
            taken = _spy_samplers(monkeypatch)
            read = dynamics.expect(sched, _probe_state(), rows, times)
            assert taken == methods
            reference = _projected(sched, _probe_state(), rows, times)
        finally:
            # a None spectrum kept here must not reach later tests
            dynamics.clear_caches()
        assert read.shape == (len(times), len(rows))
        assert read.dtype == float
        assert np.max(np.abs(read - reference)) <= 1e-13

    @PROPERTY
    @given(data=st.data(), kind=st.sampled_from(["constant", "diagonal", "mixed"]),
           fractions=st.lists(st.integers(0, 100), min_size=1, max_size=5, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_property_reads_what_evolve_projects(self, data, kind, fractions, seed):
        sched = data.draw(pullback_schedules(kind))
        times = _times_in_segments(sched, np.array(fractions) / 100)
        rows = _reading_rows(seed)
        read = dynamics.expect(sched, _probe_state(), rows, times)
        assert np.max(np.abs(read - _projected(sched, _probe_state(), rows, times))) <= 1e-13

    @PROPERTY
    @given(seq=constant_sequences(),
           fractions=st.lists(st.integers(0, 100), min_size=1, max_size=5, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_engines_agree_without_channels(self, seq, fractions, seed):
        pure, density = sq.compile(seq), sq.compile(seq, lindblad=model.LindbladSpec())
        times = _times_in_segments(pure, np.array(fractions) / 100)
        rows = _reading_rows(seed)
        read = dynamics.expect(density, _probe_state(), rows, times)
        assert np.max(np.abs(read - dynamics.expect(pure, _probe_state(), rows, times))) <= 1e-12

    @pytest.mark.parametrize("rows", [pr._POP_ROWS[0], pr._POP_ROWS[:, :-1],
                                      pr._POP_ROWS.reshape(10, 10, 10)],
                             ids=["one row", "99 columns", "3-d"])
    def test_rejects_a_wrong_row_shape(self, rows):
        with pytest.raises(dynamics.DynamicsError, match="rows must have shape"):
            dynamics.expect(_criterion_2_schedule(None), basis_state(-2.5), rows, [0.1])

    @pytest.mark.parametrize("lindblad", [None, model.photon_scattering_channels()])
    def test_rejects_rows_that_do_not_read_real_values(self, lindblad):
        sched = _criterion_2_schedule(lindblad)
        for factor, accepted in ((0.5, True), (2.0, False)):
            # R_01 = i delta and R_10 = 0: an anti-Hermitian part of delta
            rows = pr._POP_ROWS.copy()
            rows[0, 1] = 1j * factor * dynamics.READING_HERMITIAN_TOL
            if accepted:
                dynamics.expect(sched, basis_state(-2.5), rows, [0.1])
            else:
                with pytest.raises(dynamics.DynamicsError, match="not Hermitian"):
                    dynamics.expect(sched, basis_state(-2.5), rows, [0.1])
        with pytest.raises(dynamics.DynamicsError, match="not Hermitian"):
            dynamics.expect(sched, basis_state(-2.5), _probe_rows(3), [0.1])

    def test_rejects_an_unnormalized_state(self):
        with pytest.raises(dynamics.DynamicsError, match="not normalized"):
            dynamics.expect(_criterion_2_schedule(None), 2 * basis_state(-2.5),
                            pr._POP_ROWS, [0.1])

    @pytest.mark.parametrize("rho, message", [
        (np.diag([0.5] * 2 + [0.0] * (DIM - 2)) * 1.5, "trace"),
        (np.diag([1.0] + [0.0] * (DIM - 1)) + 0.1j * np.eye(DIM, k=1), "not Hermitian"),
        (np.diag([1.5, -0.5] + [0.0] * (DIM - 2)), "not positive semidefinite"),
    ], ids=["trace", "hermiticity", "positivity"])
    def test_rejects_an_invalid_density_matrix(self, rho, message):
        sched = _criterion_2_schedule(model.photon_scattering_channels())
        for run in (lambda: dynamics.evolve(sched, rho, t_eval=[0.1]),
                    lambda: dynamics.expect(sched, rho, pr._POP_ROWS, [0.1])):
            with pytest.raises(dynamics.DynamicsError, match=message):
                run()

    @pytest.mark.parametrize("distort, message", [
        (lambda x: 1.01 * x, "trace drift beyond tolerance"),
        # a population of 1e-6 moved from -2.5 to +4.5, where it is ~0
        (lambda x: x + 1e-6 * (np.eye(DIM * DIM)[2 * (DIM + 1)]
                               - np.eye(DIM * DIM)[9 * (DIM + 1)]), "positivity violation"),
    ], ids=["trace drift", "positivity"])
    def test_end_state_is_checked_as_evolve_density_checks_it(self, distort, message,
                                                              monkeypatch):
        # a stepper that loses trace or positivity, on both entry points
        sched = _criterion_2_schedule(model.photon_scattering_channels())
        step = dynamics._step

        def distorted(seg, state, sample_ts, rows=None):
            got, end = step(seg, state, sample_ts, rows)
            return (got if rows is not None else [distort(s) for s in got]), distort(end)

        monkeypatch.setattr(dynamics, "_step", distorted)
        for run in (lambda: dynamics.evolve(sched, basis_state(-2.5), t_eval=[0.1, 0.35]),
                    lambda: dynamics.expect(sched, basis_state(-2.5), pr._POP_ROWS,
                                            [0.1, 0.35])):
            with pytest.raises(dynamics.DynamicsError, match=message):
                run()


class TestFrozenSegment:
    def test_segment_arrays_are_read_only_copies(self):
        sched = sq.compile(sq.PulseSequence(
            segments=(sq.pulse((-2.5, -1.5), 71.0, np.pi / 2),),
            fields=FIELDS))
        seg = sched.segments[0]
        for array in (seg.diag_start, seg.diag_end, seg.coupling):
            with pytest.raises(ValueError):
                array[0] += 50.0
        # the caller's arrays stay writeable and apart from the segment's
        diag = np.arange(DIM, dtype=float)
        own = dynamics.Segment(1e-3, diag, diag)
        diag[0] = 7.0
        assert own.diag_start[0] == 0.0 and own.diag_end[0] == 0.0

    def test_compiled_segments_share_one_channel_set(self, monkeypatch):
        # compile looks the set up once; no segment, and no Liouvillian
        # built for a spectrum, looks up any set again
        sched = sq.compile(_mixed_sequence(), lindblad=_small_lindblad())
        lookups, lookup = [], dynamics.channel_set
        monkeypatch.setattr(dynamics, "channel_set",
                            lambda channels: lookups.append(len(channels))
                            or lookup(channels))
        assert len({id(seg.channel_set) for seg in sched.segments}) == 1
        dynamics.clear_caches()
        dynamics.evolve_density(np.outer(_probe_state(), _probe_state().conj()),
                                sched)
        assert lookups == []


class TestClosedFormSamples:
    @PROPERTY
    @given(duration=st.floats(1e-4, 5e-3), mults=st.tuples(UNIT, UNIT),
           ramp=st.booleans(), density=st.booleans(),
           fractions=st.lists(UNIT, min_size=1, max_size=5))
    def test_batched_samples_equal_single_sample_runs(self, duration, mults, ramp,
                                                      density, fractions):
        # a tone-free segment steps all its samples from its start in one
        # batch; each is what a run sampling only that time gives, on a
        # dark time and on a TLS ramp, with transfer and dephasing
        # channels on the density engine
        segment = sq.tls_ramp(duration, *mults) if ramp else sq.dark_time(duration)
        sched = sq.compile(sq.PulseSequence(segments=(segment,), fields=FIELDS),
                           lindblad=_small_lindblad() if density else None)
        seg = sched.segments[0]
        assert seg.kind == "diagonal" and seg.channel_set.diagonal_safe
        ends = np.unique(np.array(fractions) * duration)
        psi = _probe_state()
        batched = dynamics.evolve(sched, psi, t_eval=ends).states
        single = [dynamics.evolve(sched, psi, t_eval=[t]).states[0] for t in ends]
        assert np.max(np.abs(batched - single)) <= 1e-14


LINDBLADS = {
    "pure": None,
    "empty": model.LindbladSpec(),
    "scattering": model.monochromatic_scattering_channels(),
    "scattering+dephasing": model.monochromatic_scattering_channels().merge(
        model.inhomogeneous_dephasing()),
}


def _content_caches():
    """(module, name, cache) of every cached function held at module
    level by a ``sunspin`` module, once per module that holds it."""
    modules = [importlib.import_module(f"sunspin.{info.name}")
               for info in pkgutil.iter_modules(sunspin.__path__)]
    return [(module, name, obj) for module in modules
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and not isinstance(obj, type)]


def _bypassing_caches(run):
    """run() with every cache bypassed: each cached function replaced, in
    every module that holds it, by its ``__wrapped__``."""
    with pytest.MonkeyPatch.context() as mp:
        for module, name, cache in _content_caches():
            mp.setattr(module, name, cache.__wrapped__)
        return run()


def _h_content(seg):
    """The bytes of a constant segment's level diagonal and coupling,
    by which its Liouville spectrum is kept."""
    return seg._diag_flat.tobytes(), seg.coupling.tobytes()


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
            return dynamics.evolve(sched, psi, t_eval=ends).states

        fresh = _bypassing_caches(run)
        dynamics.clear_caches()
        cold = run()
        warm = run()
        assert cold.tobytes() == fresh.tobytes()
        assert warm.tobytes() == fresh.tobytes()

    def test_clear_caches_empties_the_model_lru_caches(self):
        model.two_photon_weight(-2.5)
        model.scattering_branching_ratios()
        cached = (model.two_photon_weight, model.scattering_branching_ratios)
        assert all(f.cache_info().currsize > 0 for f in cached)
        # the cache scan that the bypass uses covers the model caches too
        caches = [cache for _, _, cache in _content_caches()]
        assert all(any(f is cache for cache in caches) for f in cached)
        dynamics.clear_caches()
        assert all(cache.cache_info().currsize == 0 for cache in caches)
        assert [f.cache_info().currsize for f in cached] == [0, 0]

    @settings(max_examples=10, deadline=None, database=None)
    @given(drawn=pulse_sequences(), gap=st.floats(1e-5, 5e-4),
           lindblad=st.sampled_from(sorted(LINDBLADS)))
    def test_pulse_at_two_start_times_builds_once(self, drawn, gap, lindblad):
        (pulse,) = drawn.segments
        seq = sq.PulseSequence(segments=(pulse, sq.dark_time(gap), pulse),
                               fields=WEAK_FIELDS)
        sched = sq.compile(seq, lindblad=LINDBLADS[lindblad])
        first, _, second = sched.segments
        assert sched.starts[0] != sched.starts[2]
        assert _h_content(first) == _h_content(second)
        assert first.h_const.tobytes() == second.h_const.tobytes()
        dynamics.clear_caches()
        dynamics.evolve(sched, basis_state(pulse.tones[0].m_low))
        if lindblad != "pure":
            # a Liouville spectrum does not depend on the step length; a
            # pulse without acting channels steps unitarily and builds none
            misses = 0 if not first.channel_set.key or first.mult_start == 0 else 1
            assert dynamics._spectrum.cache_info().misses == misses

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
        pulse = sq.pulse((-2.5, -1.5), 71.0, np.pi / 2)
        seq = sq.PulseSequence(segments=(
            sq.dark_time(2.0**-12), sq.dark_time(2.0**-11, tls_multiplier=0.5),
            pulse, replace(pulse, tls_start=0.5, tls_end=0.5)), fields=fields)
        spec = LINDBLADS[lindblad]
        dark_a, dark_b, pulse_a, pulse_b = sq.compile(seq, lindblad=spec).segments
        assert _h_content(pulse_a) == _h_content(pulse_b)
        assert (dark_a._multiplier_integral(dark_a.duration)
                == dark_b._multiplier_integral(dark_b.duration))

        psi = (basis_state(-2.5) + basis_state(-1.5)) / np.sqrt(2)

        def run():
            return dynamics.evolve(sq.compile(seq, lindblad=spec), psi).states

        fresh = _bypassing_caches(run)
        dynamics.clear_caches()
        assert run().tobytes() == fresh.tobytes()

    def test_flat_diagonal_integral_keeps_general_formula_bits(self):
        d = np.array([-0.0, 0.0, -1.5e3, 2.0e3, 0.5, -0.0, 7.0, -3.0, 1e-300, 9.0])
        seg = dynamics.Segment(2.0**-10, d, d.copy())
        assert seg._diag_flat is not None
        for tb in (0.0, 1e-4, 7e-4, seg.duration):
            general = 0.5 * (seg._diag_at(0.0) + seg._diag_at(seg._fraction(tb))) * tb
            assert seg._diag_integral(tb).tobytes() == general.tobytes()
        # an array of ends gives, row by row, the bits of each end alone
        tbs = np.array([1e-4, 7e-4, seg.duration])
        rows = np.array([seg._diag_integral(tb) for tb in tbs])
        assert seg._diag_integral(tbs).tobytes() == rows.tobytes()


def _lab_beat_states(seq, psi, t_eval):
    """States at the sorted times ``t_eval`` of a sequence of flat
    segments in the lab-beat frame, by SciPy's RK45, segment by segment:
    the bare level shifts, and each tone's coupling oscillating as 2 cos
    at its full LO frequency with its counter-rotating terms kept.  The
    tone phases run on with the LO across segments, and a tone-free
    segment keeps the LO of the one before it, as in the rotating frame
    that compile builds."""
    fields, t_eval = seq.fields, np.asarray(t_eval)
    samples, state, start, n_done = [], np.asarray(psi, dtype=complex), 0.0, 0
    f_lo, d_ref, phase_register, lo_cycles = 0.0, 1, 0.0, 0.0
    for seg in seq.segments:
        assert seg.tls_start == seg.tls_end
        phase_register += seg.lo_phase_step
        if seg.tones:
            f_lo, d_ref = seg.tones[0].lo_freq_hz(fields), seg.tones[0].dm
        elif seg.lo_freq_hz is not None:
            f_lo = seg.lo_freq_hz
        levels = np.diag(fields.level_shifts(seg.tls_start)).astype(complex)
        drives = [(tone.coupling_matrix() + tone.coupling_matrix().T,
                   tone.lo_freq_hz(fields),
                   tone.phase + phase_register + 2 * np.pi * tone.dm * lo_cycles)
                  for tone in seg.tones]

        def rhs(t, v, levels=levels, drives=drives):
            h = levels.copy()
            for coupling, freq, phase in drives:
                h += np.cos(2 * np.pi * freq * t + phase) * coupling
            return -2j * np.pi * (h @ v)

        sol = solve_ivp(rhs, (0.0, seg.duration), state, method="RK45", rtol=1e-8,
                        atol=1e-11, dense_output=True)
        assert sol.success
        n_in = t_eval.searchsorted(start + seg.duration, "right")
        inside = np.minimum(t_eval[n_done:n_in] - start, seg.duration)
        if len(inside):
            samples.append(sol.sol(inside).T)
        state, start, n_done = sol.y[:, -1], start + seg.duration, n_in
        lo_cycles += f_lo / d_ref * seg.duration
    return np.concatenate(samples)


class TestLabBeatFrame:
    """The rotating frame against the lab-beat Hamiltonian, which keeps
    the counter-rotating terms, integrated here by RK45."""

    @staticmethod
    def _resonance_shift(omega, beat):
        fields = model.FieldParams(b_hz=beat, q_hz=0.0)

        def max_transfer(delta):
            tone = model.RamanTone(-2.5, -1.5, omega, detuning_hz=delta,
                                   cg_weighting=False)
            ts = np.linspace(1e-6, 1.2 / omega, 300)
            seq = sq.PulseSequence(segments=(sq.PulseSegment(
                duration=ts[-1], tones=(tone,)),), fields=fields)
            states = _lab_beat_states(seq, basis_state(-2.5), ts)
            return (np.abs(states[:, 3]) ** 2).max()

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

    def test_ramsey_matches_rwa_across_segments(self):
        # the lab-beat frame stays phase-continuous with the LO across a
        # dark time, so a detuned Ramsey fringe agrees with the RWA up to
        # Bloch-Siegert-size corrections (Omega/beat = 1/40)
        fields = model.FieldParams(b_hz=4000.0, q_hz=0.0)

        def half_pi(phase):
            return sq.pulse((-2.5, -1.5), 100.0, np.pi / 2,
                            detuning_hz=30.0, phase=phase, cg_weighting=False)

        seq = sq.PulseSequence(segments=(half_pi(0.0), sq.dark_time(3.3e-3),
                                         half_pi(0.4)), fields=fields)
        sched = sq.compile(seq)
        rwa = dynamics.evolve_pure(basis_state(-2.5), sched).populations()[-1]
        (lab,) = _lab_beat_states(seq, basis_state(-2.5), [sched.duration])
        assert np.max(np.abs(rwa - np.abs(lab) ** 2)) < 5e-3

    def test_converges_to_rwa_for_weak_drive(self):
        fields = model.FieldParams(b_hz=4000.0, q_hz=0.0)
        tone = model.RamanTone(-2.5, -1.5, 40.0, cg_weighting=False)
        seq = sq.PulseSequence(segments=(sq.PulseSegment(
            duration=0.5 / 40.0, tones=(tone,)),), fields=fields)
        (lab,) = _lab_beat_states(seq, basis_state(-2.5), [0.5 / 40.0])
        assert np.abs(lab[3]) ** 2 > 0.999


class TestTrajectory:
    @pytest.mark.parametrize("segment", ["square", "dark"])
    @pytest.mark.parametrize("engine", ["pure", "density"])
    def test_samples_within_the_slack_past_the_end_are_reached(self, engine,
                                                                segment):
        # the span check accepts samples up to TIME_SLACK past the end,
        # and the walker hands them to the last segment; it used to hand
        # it only those up to 1e-15 s past, and the walk then raised
        tones = (two_level_tone(),) if segment == "square" else ()
        seq = sq.PulseSequence(segments=(
            sq.PulseSegment(duration=1e-3, tones=tones),), fields=FIELDS)
        sched = sq.compile(seq, lindblad=model.photon_scattering_channels()
                           if engine == "density" else None)
        psi = basis_state(-2.5)
        state = psi if engine == "pure" else np.outer(psi, psi.conj())
        evolve = dynamics.evolve_pure if engine == "pure" else dynamics.evolve_density
        at_end = evolve(state, sched, t_eval=[5e-4, sched.duration]).states
        past = evolve(state, sched, t_eval=[5e-4, sched.duration + 5e-14,
                                            sched.duration + 5e-13]).states
        assert np.array_equal(past[0], at_end[0])
        # in 5e-13 s a state moves by about 2 pi f_max 5e-13, 4e-8 here,
        # f_max the largest entry of H
        f_max = np.max(np.abs(sched.segments[0].hamiltonian(0.0)))
        moved = dynamics.TWO_PI * f_max * 5e-13
        assert np.max(np.abs(past[1:] - at_end[1])) < moved
        with pytest.raises(dynamics.DynamicsError, match="outside the schedule"):
            evolve(state, sched, t_eval=[5e-4, sched.duration + 2 * dynamics.TIME_SLACK])

    def test_times_must_increase(self):
        h = np.zeros((DIM, DIM))
        with pytest.raises(dynamics.DynamicsError):
            dynamics.evolve_pure(basis_state(0.5), dynamics.hold(h, 1.0),
                                 t_eval=[0.5, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_time_named(self, bad):
        h = np.zeros((DIM, DIM))
        psi = basis_state(0.5)
        for sched in (dynamics.hold(h, 1.0), dynamics.hold(h, 1.0, channels=[])):
            for times in ([0.1, bad], [bad]):
                with pytest.raises(dynamics.DynamicsError,
                                   match=f"sample time {bad} is not finite"):
                    dynamics.evolve(sched, psi, t_eval=times)
            with pytest.raises(dynamics.DynamicsError, match="not finite"):
                dynamics.expect(sched, psi, pr._POP_ROWS, [0.1, bad])

    def test_no_sample_times_rejected(self):
        h = np.zeros((DIM, DIM))
        pure, density = dynamics.hold(h, 1.0), dynamics.hold(h, 1.0, channels=[])
        psi = basis_state(0.5)
        for run in (lambda: dynamics.evolve(pure, psi, t_eval=[]),
                    lambda: dynamics.evolve(density, psi, t_eval=np.empty(0)),
                    lambda: dynamics.evolve_pure(psi, pure, t_eval=[]),
                    lambda: dynamics.evolve_density(np.outer(psi, psi.conj()), density,
                                                    t_eval=[]),
                    lambda: dynamics.expect(pure, psi, pr._POP_ROWS, []),
                    lambda: dynamics.expect(density, psi, pr._POP_ROWS, [])):
            with pytest.raises(dynamics.DynamicsError, match="no sample times"):
                run()


def _lower_triangle_entry():
    coupling = np.triu(np.ones((DIM, DIM)), 1)
    coupling[3, 1] = 0.5
    return coupling


class TestSegmentInputs:
    """A hand-built segment's arrays are checked when it is built."""

    @pytest.mark.parametrize("coupling", [np.ones((DIM, DIM)), np.triu(np.ones((5, 5)), 1),
                                          _lower_triangle_entry()],
                             ids=["ones", "5x5", "lower-triangle-entry"])
    def test_coupling_must_be_a_strict_upper_triangle(self, coupling):
        with pytest.raises(dynamics.DynamicsError,
                           match="a coupling must be a 10x10 array, zero on and below"):
            dynamics.Segment(1e-3, np.zeros(DIM), np.zeros(DIM), coupling=coupling)

    @pytest.mark.parametrize("diag", [np.zeros(5), np.zeros((DIM, 1)),
                                      np.full(DIM, np.nan), np.full(DIM, np.inf),
                                      np.zeros(DIM, dtype=complex)],
                             ids=["length-5", "column", "nan", "inf", "complex"])
    @pytest.mark.parametrize("end", ["diag_start", "diag_end"])
    def test_level_diagonals_are_finite_real_10_vectors(self, diag, end):
        fields = {"duration": 1e-3, "diag_start": np.zeros(DIM),
                  "diag_end": np.zeros(DIM), end: diag}
        with pytest.raises(dynamics.DynamicsError,
                           match="a level diagonal must be 10 finite real numbers"):
            dynamics.Segment(**fields)


class TestOneChannelSet:
    """A segment holds one channel set, and its kind, its schedule's
    dissipation and both engines read that set."""

    def test_a_segment_is_stepped_with_the_set_it_holds(self):
        spec = model.photon_scattering_channels()
        seg = dynamics.Segment(0.5, np.zeros(DIM), np.zeros(DIM),
                               channel_set=dynamics.channel_set(spec.channels))
        assert seg.channel_set.diagonal_safe and seg.kind == "diagonal"
        density, pure = dynamics.Schedule((seg,), density=True), dynamics.Schedule((seg,))
        assert density.has_dissipation() and pure.has_dissipation()
        rho = dynamics.evolve(density, basis_state(-2.5)).final
        pops = np.diag(rho).real[[m_index(-3.5), m_index(-2.5), m_index(-1.5)]]
        assert np.max(np.abs(pops - [0.091, 0.792, 0.106])) < 1e-3
        held = dynamics.evolve(dynamics.hold(np.zeros((DIM, DIM)), 0.5, spec.channels),
                               basis_state(-2.5)).final
        assert np.max(np.abs(rho - held)) <= 1e-12
        with pytest.raises(dynamics.DynamicsError, match="cannot carry dissipation"):
            dynamics.evolve(pure, basis_state(-2.5))

    def test_kind_reads_the_set(self):
        empty = dynamics.Segment(1e-3, np.zeros(DIM), np.zeros(DIM))
        assert empty.channel_set.key == () and empty.kind == "diagonal"
        assert not dynamics.Schedule((empty,)).has_dissipation()
        two_entry = dynamics.Segment(
            1e-3, np.zeros(DIM), np.zeros(DIM),
            channel_set=dynamics.channel_set(_two_entry_channels().channels))
        assert two_entry.kind == "constant"
        assert dynamics.Schedule((two_entry,)).has_dissipation()

    def test_channels_not_looked_up_are_rejected(self):
        with pytest.raises(dynamics.DynamicsError, match="dynamics.channel_set"):
            dynamics.Segment(1e-3, np.zeros(DIM), np.zeros(DIM),
                             channel_set=model.photon_scattering_channels().channels)


def _checked_path_cases():
    """(density engine, state, sample times, message) of each bad input."""
    psi = basis_state(-2.5)
    rho = np.outer(psi, psi.conj())
    shape = "the pure engine takes a state vector of shape (10,), got shape"
    cases = {
        "pure: density matrix": (False, rho, [0.05], f"{shape} (10, 10)"),
        "pure: column": (False, psi[:, None], [0.05], f"{shape} (10, 1)"),
        "pure: unnormalized": (False, 2 * psi, [0.05], "initial state is not normalized"),
        "density: unnormalized": (True, 2 * psi, [0.05], "density matrix trace != 1"),
        "density: length-5 vector": (True, psi[:5], [0.05],
                                     "the density engine takes a state of shape (10,) "
                                     "or (10, 10), got shape (5,)"),
        "density: non-Hermitian": (True, rho + 0.1j * np.eye(DIM, k=1), [0.05],
                                   "density matrix is not Hermitian"),
    }
    for engine, density in (("pure", False), ("density", True)):
        cases[f"{engine}: NaN time"] = (density, psi, [0.05, np.nan],
                                        "sample time nan is not finite")
        cases[f"{engine}: decreasing times"] = (
            density, psi, [0.05, 0.02], "sample times must be strictly increasing")
    return cases


CHECKED_PATH_CASES = _checked_path_cases()


class TestOneCheckedPath:
    """Every entry point that reaches an engine checks its input the same
    way: evolve, expect and the engine's own function."""

    @pytest.mark.parametrize("entry", ["evolve", "expect", "engine"])
    @pytest.mark.parametrize("case", sorted(CHECKED_PATH_CASES))
    def test_bad_input_raises_the_same_error_through_each_entry(self, case, entry):
        density, state, times, message = CHECKED_PATH_CASES[case]
        sched = dynamics.hold(np.diag(np.arange(DIM, dtype=float)), 0.1,
                              channels=[] if density else None)
        engine = dynamics.evolve_density if density else dynamics.evolve_pure
        run = {"evolve": lambda: dynamics.evolve(sched, state, t_eval=times),
               "expect": lambda: dynamics.expect(sched, state, pr._POP_ROWS, times),
               "engine": lambda: engine(state, sched, t_eval=times)}[entry]
        with pytest.raises(dynamics.DynamicsError) as raised:
            run()
        assert type(raised.value) is dynamics.DynamicsError
        assert str(raised.value) == message
